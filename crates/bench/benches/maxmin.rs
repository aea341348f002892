//! Max–min solver, fluid network and event queue benchmarks.
//!
//! Two groups time the max–min solver:
//!
//! * `max_min_rates` — the executable specification, which re-describes
//!   every flow and allocates per call, over link/flow counts bracketing
//!   the paper's setups (90-site topologies ≈ 100 links; ≤ ~30 concurrent
//!   flows);
//! * `max_min_solver_churn` — the incremental `MaxMinSolver` the fluid
//!   network actually runs. Flows stream from the file server to sites
//!   of the topology; each step retires one flow, admits a successor over
//!   another site's route and solves, so every step pays a full
//!   progressive fill (`route_change`). With one flow per site on the
//!   paper topology (`25sites`, `40sites`) most links are in use; with 4
//!   flows on a topology widened to 320 sites (`4flows_320sites`, the
//!   shape of a faulty run's few guarded fetches on a large grid) almost
//!   none are, and a fill costs what the links in use cost, not the
//!   topology's size.
//!
//! Two time the layers around it on the path every file hop takes:
//!
//! * `file_hop` — the fluid engine `NetSim` with one flow per site over
//!   the paper topology. Each step finishes the earliest completion,
//!   starts its successor on the same route and asks for the next
//!   completion: the network cost of a `FlowDone` event. The successor
//!   takes the finished flow's held solver slot over — one heap re-key and
//!   no solver call (`finish_start`). 320 flows widen the topology to 320
//!   sites;
//! * `event_queue_hold` — the event queue under the classic hold model: a
//!   constant population where each step pops the earliest event and
//!   pushes a successor, and one step in four also cancels and re-pushes a
//!   random pending event (a flow-completion reschedule). The
//!   `rearmed_deadlines` cases add one deadline per site, one of which is
//!   re-aimed every step (a guarded file hop's transfer deadline), either
//!   as the site's keyed timer (`keyed`) or by cancelling its pending
//!   event and pushing a new one (`cancel_push`), which leaves a dead
//!   entry in the heap for a later pop to skip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gridsched_des::{EventHandle, EventQueue, SimTime};
use gridsched_net::fair::{max_min_rates, MaxMinSolver};
use gridsched_net::NetSim;
use gridsched_topology::{generate, TiersConfig};

fn random_case(links: usize, flows: usize, seed: u64) -> (Vec<f64>, Vec<Vec<usize>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let caps: Vec<f64> = (0..links).map(|_| rng.gen_range(1.0..100.0)).collect();
    let routes: Vec<Vec<usize>> = (0..flows)
        .map(|_| {
            let hops = rng.gen_range(2..6);
            let mut route: Vec<usize> = (0..hops).map(|_| rng.gen_range(0..links)).collect();
            route.sort_unstable();
            route.dedup();
            route
        })
        .collect();
    (caps, routes)
}

fn bench_maxmin(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_min_rates");
    for &(links, flows) in &[(20usize, 10usize), (100, 30), (100, 100), (400, 200)] {
        let (caps, routes) = random_case(links, flows, 42);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{links}links_{flows}flows")),
            &(links, flows),
            |b, _| b.iter(|| std::hint::black_box(max_min_rates(&caps, &routes))),
        );
    }
    group.finish();
}

/// Churn steps per timed sample (one step alone is below timer resolution).
const STEPS: usize = 100;

/// The paper topology (90 sites), with every MAN widened to hold at
/// least `sites` sites the way the `perf_scale` claims entry widens it.
fn topology_for(sites: usize) -> TiersConfig {
    let mut config = TiersConfig::paper(7);
    config.sites_per_man = config.sites_per_man.max(sites.div_ceil(config.mans));
    config
}

fn bench_solver_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_min_solver_churn");
    for (flows, sites) in [(25usize, 25usize), (40, 40), (4, 320)] {
        let topology = generate(&topology_for(sites));
        let routes: Vec<Vec<usize>> = (0..sites)
            .map(|s| {
                let route = topology.routes.site_to_file_server(s);
                route.links.iter().map(|l| l.index()).collect()
            })
            .collect();
        let mut solver = MaxMinSolver::new(topology.graph.bandwidths());
        // Flows start on sites spread evenly over the topology.
        let mut live: Vec<(u32, usize)> = (0..flows)
            .map(|f| f * sites / flows)
            .map(|s| (solver.add_flow(&routes[s]), s))
            .collect();
        solver.solve();
        let mut k = 0;
        let label = if flows == sites {
            format!("{sites}sites")
        } else {
            format!("{flows}flows_{sites}sites")
        };
        group.bench_with_input(BenchmarkId::new("route_change", label), &sites, |b, _| {
            b.iter(|| {
                for _ in 0..STEPS {
                    k = (k + 1) % flows;
                    let (slot, site) = live[k];
                    solver.remove_flow(slot);
                    // Any offset in 1..sites picks another site.
                    let next = (site + 1 + k % (sites - 1)) % sites;
                    live[k] = (solver.add_flow(&routes[next]), next);
                    solver.solve();
                }
                std::hint::black_box(solver.rate(live[k].0))
            })
        });
    }
    group.finish();
}

fn bench_file_hop(c: &mut Criterion) {
    let mut group = c.benchmark_group("file_hop");
    for flows in [5usize, 20, 80, 320] {
        const BYTES: f64 = 25e6;
        // The paper topology has 90 sites; a larger case widens it, so
        // each flow still has its own site.
        let topology = generate(&topology_for(flows));
        let mut net = NetSim::new(topology.graph.bandwidths());
        for site in 0..flows {
            let route = topology.routes.site_to_file_server(site);
            // Staggered sizes, so completions come one at a time.
            let bytes = BYTES * (1.0 + site as f64 / flows as f64);
            net.start_flow(SimTime::ZERO, &route.links, bytes, route.latency_s, site);
        }
        group.bench_with_input(BenchmarkId::new("finish_start", flows), &flows, |b, _| {
            b.iter(|| {
                for _ in 0..STEPS {
                    let (t, id) = net.next_completion().expect("flows stay active");
                    let site = net.finish_flow(t, id);
                    let route = topology.routes.site_to_file_server(site);
                    net.start_flow(t, &route.links, BYTES, route.latency_s, site);
                }
                std::hint::black_box(net.next_completion())
            });
        });
    }
    group.finish();
}

fn bench_event_queue_hold(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_hold");
    for population in [80usize, 500] {
        let mut rng = StdRng::seed_from_u64(42);
        let mut queue = EventQueue::new();
        let mut handles: Vec<EventHandle> = (0..population)
            .map(|i| queue.push(SimTime::from_secs(rng.gen_range(0.0..1_000.0)), i))
            .collect();
        let mut op = 0usize;
        group.bench_with_input(
            BenchmarkId::from_parameter(population),
            &population,
            |b, _| {
                b.iter(|| {
                    for _ in 0..STEPS {
                        let (at, i) = queue.pop().expect("population is constant");
                        let later = |rng: &mut StdRng| {
                            SimTime::from_secs(at.as_secs() + rng.gen_range(0.0..1_000.0))
                        };
                        handles[i] = queue.push(later(&mut rng), i);
                        op += 1;
                        if op.is_multiple_of(4) {
                            let victim = rng.gen_range(0..population);
                            if queue.cancel(handles[victim]) {
                                handles[victim] = queue.push(later(&mut rng), victim);
                            }
                        }
                    }
                    std::hint::black_box(queue.len())
                });
            },
        );
    }
    // One deadline per site beside the hold population; every step
    // re-aims the next site's deadline to the popped event's time plus a
    // draw, and a deadline that pops is re-aimed on its site's next turn.
    const SITES: usize = 10;
    for keyed in [true, false] {
        let population = 80;
        let mut rng = StdRng::seed_from_u64(42);
        let mut queue = EventQueue::new();
        for i in 0..population {
            queue.push(SimTime::from_secs(rng.gen_range(0.0..1_000.0)), i);
        }
        let mut deadlines: Vec<Option<EventHandle>> = vec![None; SITES];
        let mut site = 0;
        let way = if keyed { "keyed" } else { "cancel_push" };
        group.bench_with_input(
            BenchmarkId::new("rearmed_deadlines", format!("{way}_{SITES}sites")),
            &keyed,
            |b, _| {
                b.iter(|| {
                    for _ in 0..STEPS {
                        let (at, i) = queue.pop().expect("population is constant");
                        let later = |rng: &mut StdRng| {
                            SimTime::from_secs(at.as_secs() + rng.gen_range(0.0..1_000.0))
                        };
                        if i < population {
                            queue.push(later(&mut rng), i);
                        }
                        site = (site + 1) % SITES;
                        let deadline = later(&mut rng);
                        if keyed {
                            queue.arm_timer(site, deadline, population + site);
                        } else {
                            if let Some(h) = deadlines[site] {
                                queue.cancel(h);
                            }
                            deadlines[site] = Some(queue.push(deadline, population + site));
                        }
                    }
                    std::hint::black_box(queue.len())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_maxmin,
    bench_solver_churn,
    bench_file_hop,
    bench_event_queue_hold
);
criterion_main!(benches);
