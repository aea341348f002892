//! Max–min solver, fluid network and event queue benchmarks.
//!
//! Two groups time the max–min solver:
//!
//! * `max_min_rates` — the executable specification, which re-describes
//!   every flow and allocates per call, over link/flow counts bracketing
//!   the paper's setups (90-site topologies ≈ 100 links; ≤ ~30 concurrent
//!   flows);
//! * `max_min_solver_churn` — the incremental `MaxMinSolver` the fluid
//!   network actually runs. One flow per site streams from the file server
//!   over the paper topology; each step retires one flow, admits its
//!   successor and solves, the way a site's data server finishes one fetch
//!   and starts the next. With `same_route` the successor takes the
//!   finished flow's route, so the route multiset is unchanged and the
//!   solver skips the fill; with `route_change` it takes another site's
//!   route and every step pays a full progressive fill.
//!
//! Two time the layers around it on the path every file hop takes:
//!
//! * `file_hop` — the fluid engine `NetSim` with one flow per site over
//!   the paper topology. Each step hops from the earliest completion to
//!   its successor on the same route and asks for the next completion:
//!   the network cost of a `FlowDone` event. `finish_start` finishes the
//!   flow and starts the successor, which the solver matches by route to
//!   the finished flow's parked slot (the fill is skipped and no link list
//!   is touched) — two heap operations and the route match; `continue`
//!   hands the slot to the successor with `continue_flow` — one heap
//!   re-key and no solver call. 320 flows widen the topology to 320 sites;
//! * `event_queue_hold` — the event queue under the classic hold model: a
//!   constant population where each step pops the earliest event and
//!   pushes a successor, and one step in four also cancels and re-pushes a
//!   random pending event (a flow-completion reschedule).

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

fn bench_solver_churn(c: &mut Criterion) {
    let topology = generate(&TiersConfig::paper(7));
    let mut group = c.benchmark_group("max_min_solver_churn");
    for sites in [25usize, 40] {
        let routes: Vec<Vec<usize>> = (0..sites)
            .map(|s| {
                let route = topology.routes.site_to_file_server(s);
                route.links.iter().map(|l| l.index()).collect()
            })
            .collect();
        for (case, same_route) in [("same_route", true), ("route_change", false)] {
            let mut solver = MaxMinSolver::new(topology.graph.bandwidths());
            let mut live: Vec<(u32, usize)> = (0..sites)
                .map(|s| (solver.add_flow(&routes[s]), s))
                .collect();
            solver.solve();
            let mut k = 0;
            group.bench_with_input(
                BenchmarkId::new(case, format!("{sites}sites")),
                &sites,
                |b, _| {
                    b.iter(|| {
                        for _ in 0..STEPS {
                            k = (k + 1) % sites;
                            let (slot, site) = live[k];
                            solver.remove_flow(slot);
                            // Any offset in 1..sites picks another site.
                            let next = if same_route {
                                site
                            } else {
                                (site + 1 + k % (sites - 1)) % sites
                            };
                            live[k] = (solver.add_flow(&routes[next]), next);
                            solver.solve();
                        }
                        std::hint::black_box(solver.rate(live[k].0))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_file_hop(c: &mut Criterion) {
    let mut group = c.benchmark_group("file_hop");
    for continued in [false, true] {
        for flows in [5usize, 20, 80, 320] {
            const BYTES: f64 = 25e6;
            // The paper topology has 90 sites; a larger case widens every
            // MAN the way `perf_scale` does, so each flow still has its own
            // site.
            let mut config = TiersConfig::paper(7);
            config.sites_per_man = config.sites_per_man.max(flows.div_ceil(config.mans));
            let topology = generate(&config);
            let mut net = NetSim::new(topology.graph.bandwidths());
            for site in 0..flows {
                let route = topology.routes.site_to_file_server(site);
                // Staggered sizes, so completions come one at a time.
                let bytes = BYTES * (1.0 + site as f64 / flows as f64);
                net.start_flow(SimTime::ZERO, &route.links, bytes, route.latency_s, site);
            }
            let name = if continued {
                "continue"
            } else {
                "finish_start"
            };
            group.bench_with_input(BenchmarkId::new(name, flows), &flows, |b, _| {
                b.iter(|| {
                    for _ in 0..STEPS {
                        let (t, id) = net.next_completion().expect("flows stay active");
                        let site = *net.tag(id).expect("active flow");
                        let route = topology.routes.site_to_file_server(site);
                        if continued {
                            net.continue_flow(t, id, &route.links, BYTES, route.latency_s, site);
                        } else {
                            net.finish_flow(t, id);
                            net.start_flow(t, &route.links, BYTES, route.latency_s, site);
                        }
                    }
                    std::hint::black_box(net.next_completion())
                });
            });
        }
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
