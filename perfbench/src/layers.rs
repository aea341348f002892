//! Layer micro-benchmarks, shaped by the workload's own inputs.
//!
//! The end-to-end runs cannot say which layer their time went to, and the
//! program has no spans inside it. These loops call three layers directly —
//! the event queue, the max–min solver and a site store — with the sizes a
//! workload's simulations present to them (pending-event population,
//! concurrent flows over the input's real topology routes, the input's
//! capacity and task file lists), and report host time per operation. Each
//! returns the median over [`REPEATS`] timed batches.

use std::hint::black_box;
use std::time::Instant;

use gridsched_des::{EventHandle, EventQueue, SimTime};
use gridsched_net::fair::MaxMinSolver;
use gridsched_sim::SimConfig;
use gridsched_storage::SiteStore;
use gridsched_topology::generate;

use crate::median;
use crate::workloads::mix;

const REPEATS: usize = 7;

/// Deterministic stream of well-spread words.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0x5EED)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn timed_batches(mut batch: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let started = Instant::now();
            let ops = batch();
            started.elapsed().as_secs_f64() / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per event-queue operation: a hold model over a population of
/// one pending completion per worker plus one per site, where every pop
/// pushes a successor and one operation in four cancels and re-pushes a
/// pending event (the solver rescheduling a flow completion).
pub fn queue_ns_per_op(config: &SimConfig, seed: u64) -> f64 {
    let population = config.sites * (config.workers_per_site + 1);
    let mut rng = Stream(seed);
    let mut queue = EventQueue::new();
    let mut handles: Vec<EventHandle> = (0..population)
        .map(|i| queue.push(SimTime::from_secs(rng.unit() * 1_000.0), i))
        .collect();
    let mut now = 0.0;
    1e9 * timed_batches(|| {
        const OPS: u64 = 50_000;
        for op in 0..OPS {
            let (at, slot) = queue.pop().expect("population is kept constant");
            now = at.as_secs();
            handles[slot] = queue.push(SimTime::from_secs(now + rng.unit() * 1_000.0), slot);
            if op % 4 == 0 {
                let victim = rng.below(population);
                if queue.cancel(handles[victim]) {
                    handles[victim] =
                        queue.push(SimTime::from_secs(now + rng.unit() * 1_000.0), victim);
                }
            }
        }
        black_box(queue.len());
        OPS
    })
}

/// Microseconds per max–min recompute: `flows` concurrent transfers from
/// the input's sites to the file server over its generated topology; each
/// step retires one flow, admits one on a random site's route and solves.
pub fn solver_us_per_solve(config: &SimConfig, flows: usize, seed: u64) -> f64 {
    let topology = generate(&config.topology);
    let routes: Vec<Vec<usize>> = (0..config.sites)
        .map(|s| {
            let route = topology.routes.site_to_file_server(s);
            route.links.iter().map(|l| l.index()).collect()
        })
        .collect();
    let mut rng = Stream(seed);
    let mut solver = MaxMinSolver::new(topology.graph.bandwidths());
    let mut live: Vec<u32> = (0..flows.max(1))
        .map(|_| solver.add_flow(&routes[rng.below(routes.len())]))
        .collect();
    solver.solve();
    1e6 * timed_batches(|| {
        const OPS: u64 = 2_000;
        for _ in 0..OPS {
            let k = rng.below(live.len());
            solver.remove_flow(live[k]);
            live[k] = solver.add_flow(&routes[rng.below(routes.len())]);
            solver.solve();
            black_box(solver.rate(live[k]));
        }
        OPS
    })
}

/// Nanoseconds per file reference at one data server of the input's
/// capacity and policy: tasks arrive in a seeded order, the server looks up
/// what is missing, inserts it (evicting as needed) and records the task's
/// references.
pub fn store_ns_per_ref(config: &SimConfig, seed: u64) -> f64 {
    let tasks = config.workload.tasks();
    let mut rng = Stream(seed);
    let mut store = SiteStore::new(config.capacity_files, config.policy);
    1e9 * timed_batches(|| {
        let mut refs = 0u64;
        for _ in 0..200 {
            let files = tasks[rng.below(tasks.len())].files();
            for f in store.missing(files) {
                black_box(store.insert(f));
            }
            for &f in files {
                store.record_task_reference(f);
            }
            black_box(store.overlap(files));
            refs += files.len() as u64;
        }
        refs
    })
}
