//! Property-based invariants of whole simulations: random small grids and
//! workloads, every strategy, checked through the public API.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use gridsched::prelude::*;
use gridsched::telemetry::{InstrumentValue, SpanPhase, Track};

fn arb_strategy() -> impl Strategy<Value = StrategyKind> {
    prop_oneof![
        Just(StrategyKind::StorageAffinity),
        Just(StrategyKind::Overlap),
        Just(StrategyKind::Rest),
        Just(StrategyKind::Combined),
        Just(StrategyKind::Rest2),
        Just(StrategyKind::Combined2),
        Just(StrategyKind::Workqueue),
    ]
}

proptest! {
    // Whole-simulation cases are comparatively expensive; keep the case
    // count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simulations_complete_and_account(
        strategy in arb_strategy(),
        sites in 1usize..5,
        workers in 1usize..4,
        capacity in 120usize..2000,
        wl_seed in 0u64..4,
        seed in 0u64..4,
    ) {
        let mut cfg = CoaddConfig::small(wl_seed);
        cfg.tasks = 120;
        let workload = Arc::new(cfg.generate());
        let total_accesses: u64 =
            workload.tasks().iter().map(|t| t.file_count() as u64).sum();
        let config = SimConfig::paper(workload.clone(), strategy)
            .with_sites(sites)
            .with_workers_per_site(workers)
            .with_capacity(capacity)
            .with_seed(seed);
        let report = GridSim::new(config).run();

        // 1. Exactly-once completion.
        prop_assert_eq!(report.tasks_completed, 120);
        // 2. Transfers bounded by total accesses plus replica re-fetches.
        let bound = total_accesses * (1 + report.replicas_launched / 120 + 1);
        prop_assert!(report.file_transfers <= bound,
            "transfers {} > bound {}", report.file_transfers, bound);
        // 3. Makespan positive and finite.
        prop_assert!(report.makespan_minutes > 0.0);
        prop_assert!(report.makespan_minutes.is_finite());
        // 4. Per-site totals match.
        let site_sum: u64 = report.per_site.iter().map(|s| s.file_transfers).sum();
        prop_assert_eq!(site_sum, report.file_transfers);
        // 5. Requests: one batch per execution (task or replica).
        let requests: u64 = report.per_site.iter().map(|s| s.requests).sum();
        prop_assert!(requests >= 120);
        prop_assert!(requests <= 120 + report.replicas_launched);
        // 6. Waiting/transfer times non-negative.
        for s in &report.per_site {
            prop_assert!(s.waiting_time_s >= 0.0);
            prop_assert!(s.transfer_time_s >= 0.0);
        }
        // 7. Only task-centric strategies replicate.
        if strategy != StrategyKind::StorageAffinity {
            prop_assert_eq!(report.replicas_launched, 0);
        }
        // 8. Replica books balance: on a fault-free run every launched
        // replica either won its race or was cancelled by the winner —
        // cancelled speculative flows must never be double-counted as
        // completed work.
        prop_assert_eq!(
            report.replicas_launched,
            report.replicas_cancelled + report.replicas_completed,
            "launched != cancelled + completed"
        );
        prop_assert_eq!(report.replicas_lost, 0, "no faults, no lost replicas");
        prop_assert!(report.replicas_completed <= report.tasks_completed);
        // 9. Cancelled primaries are replica wins, never more.
        prop_assert!(report.primaries_cancelled <= report.replicas_completed);
    }

    /// The replica throttle preserves every completion/accounting
    /// invariant and never inflates the replica fan-out.
    #[test]
    fn throttled_storage_affinity_invariants(
        sites in 1usize..5,
        workers in 1usize..4,
        cap in 1u32..4,
        budget in 1u32..5,
        wl_seed in 0u64..3,
        seed in 0u64..3,
    ) {
        let mut cfg = CoaddConfig::small(wl_seed);
        cfg.tasks = 120;
        let workload = Arc::new(cfg.generate());
        let base = SimConfig::paper(workload, StrategyKind::StorageAffinity)
            .with_sites(sites)
            .with_workers_per_site(workers)
            .with_capacity(800)
            .with_seed(seed);
        let uncapped = GridSim::new(base.clone()).run();
        let capped = GridSim::new(
            base.with_replica_cap(cap).with_site_replica_budget(budget),
        )
        .run();
        prop_assert_eq!(capped.tasks_completed, 120);
        prop_assert_eq!(
            capped.replicas_launched,
            capped.replicas_cancelled + capped.replicas_completed
        );
        prop_assert!(
            capped.replicas_launched <= uncapped.replicas_launched,
            "throttle inflated replicas: {} > {}",
            capped.replicas_launched,
            uncapped.replicas_launched
        );
    }

    /// Telemetry self-consistency on arbitrary runs: spans pair up, probe
    /// timestamps strictly increase, histogram observation counts match
    /// their sibling counters exactly, and the flows continued in place or
    /// started on a revived slot never outnumber the flows started.
    #[test]
    fn telemetry_invariants_hold(
        strategy in arb_strategy(),
        sites in 2usize..5,
        workers in 1usize..4,
        seed in 0u64..3,
        churn in 0u8..2,
    ) {
        let mut cfg = CoaddConfig::small(seed);
        cfg.tasks = 80;
        let workload = Arc::new(cfg.generate());
        let mut config = SimConfig::paper(workload, strategy)
            .with_sites(sites)
            .with_workers_per_site(workers)
            .with_capacity(400)
            .with_seed(seed)
            .with_probe_interval(600.0);
        if churn == 1 {
            config = config
                .with_faults(
                    FaultConfig::none()
                        .with_worker_faults(3_000.0, 400.0)
                        .with_server_faults(25_000.0, 700.0),
                )
                .with_checkpointing(CheckpointConfig::fixed(300.0));
        }
        let telemetry = Telemetry::enabled();
        let report = GridSim::new(config)
            .with_telemetry(telemetry.clone())
            .run();
        prop_assert_eq!(report.tasks_completed, 80);

        // 1. Span pairing: on every track, every `B` has a matching later
        // `E` of the same name — depth never goes negative and every
        // opened span is closed exactly once by end of run.
        let mut depth: HashMap<(Track, &str), i64> = HashMap::new();
        let mut last_ts: HashMap<Track, f64> = HashMap::new();
        for ev in telemetry.trace_events() {
            // 2. Per-track timestamps never go backwards.
            let prev = last_ts.entry(ev.track).or_insert(ev.ts_s);
            prop_assert!(
                ev.ts_s >= *prev,
                "track {:?}: ts went backwards ({} < {})", ev.track, ev.ts_s, *prev
            );
            *prev = ev.ts_s;
            let d = depth.entry((ev.track, ev.name)).or_insert(0);
            match ev.phase {
                SpanPhase::Begin => *d += 1,
                SpanPhase::End => {
                    *d -= 1;
                    prop_assert!(
                        *d >= 0,
                        "track {:?}: `{}` closed more often than opened", ev.track, ev.name
                    );
                }
                SpanPhase::Instant => {}
            }
        }
        for ((track, name), d) in &depth {
            prop_assert_eq!(
                *d, 0,
                "track {:?}: `{}` left {} span(s) open at end of run", track, name, d
            );
        }

        // 3. Probe timestamps strictly increase and the shape is stable.
        let probes = telemetry.probes();
        prop_assert!(!probes.is_empty(), "probe sampler produced no samples");
        let mut prev_t = f64::NEG_INFINITY;
        for p in &probes {
            prop_assert!(
                p.t_s > prev_t,
                "probe timestamps not strictly increasing: {} after {}", p.t_s, prev_t
            );
            prev_t = p.t_s;
            prop_assert_eq!(p.sites.len(), sites);
            prop_assert_eq!(p.links_total, probes[0].links_total);
            prop_assert!(p.links_busy <= p.links_total);
            for s in &p.sites {
                prop_assert!(
                    s.busy_workers + s.parked_workers + s.dead_workers <= workers as u64
                );
            }
        }

        // 4. Histogram observation counts equal their sibling counters:
        // every wake call records exactly one fanout sample, and every
        // rank-membership change records exactly one site count.
        let snaps: HashMap<&str, InstrumentValue> = telemetry
            .snapshot()
            .into_iter()
            .map(|s| (s.name, s.value))
            .collect();
        let counter = |name: &str| match snaps.get(name) {
            Some(InstrumentValue::Counter { value }) => *value,
            other => panic!("{name}: expected counter, got {other:?}"),
        };
        let histogram = |name: &str| match snaps.get(name) {
            Some(InstrumentValue::Histogram { count, buckets, .. }) => {
                (*count, buckets.iter().sum::<u64>())
            }
            other => panic!("{name}: expected histogram, got {other:?}"),
        };
        let (fanout_count, fanout_buckets) = histogram("engine.wake.fanout");
        prop_assert_eq!(fanout_count, counter("engine.wake.calls"));
        prop_assert_eq!(fanout_buckets, fanout_count, "bucket totals != count");
        // Only the ranked strategies record membership changes; each one
        // records the number of site ranks it touched.
        if snaps.contains_key("scheduler.rank.membership_changes") {
            let (sites_count, sites_buckets) = histogram("scheduler.rank.overlap_sites");
            prop_assert_eq!(sites_count, counter("scheduler.rank.membership_changes"));
            prop_assert_eq!(sites_buckets, sites_count, "bucket totals != count");
        }

        // 5. Every flow starts once: fresh, on a revived parked solver slot,
        // or as a batch hop continued in place. Tasks read many files and
        // stores start empty, so batches do hop.
        let continued = counter("net.flow.continued");
        let revives = counter("net.solver.revives");
        prop_assert!(
            continued + revives <= report.flows_started,
            "continued {} + revives {} > flows started {}",
            continued, revives, report.flows_started
        );
        prop_assert!(continued > 0, "no file hop was continued in place");
    }

    /// Availability-accounting audit: under heavy churn — Weibull repair
    /// tails, server outages, correlated crash bursts — per-site downtime
    /// tiles into the makespan horizon (overlapping outage sources are
    /// never double-counted) and every availability figure stays in
    /// `[0, 1]`.
    #[test]
    fn availability_accounting_audits(
        strategy in arb_strategy(),
        sites in 1usize..4,
        workers in 1usize..4,
        shape_idx in 0usize..3,
        burst in 0u8..2,
        seed in 0u64..3,
    ) {
        let shape = [0.7f64, 1.0, 2.0][shape_idx];
        let mut cfg = CoaddConfig::small(seed);
        cfg.tasks = 80;
        let workload = Arc::new(cfg.generate());
        let mut faults = FaultConfig::none()
            .with_worker_faults(2_500.0, 500.0)
            .with_worker_repair_shape(shape)
            .with_server_faults(20_000.0, 900.0)
            .with_server_repair_shape(shape);
        if burst == 1 {
            faults = faults.with_worker_bursts(4_000.0, 2);
        }
        let config = SimConfig::paper(workload, strategy)
            .with_sites(sites)
            .with_workers_per_site(workers)
            .with_capacity(500)
            .with_seed(seed)
            .with_faults(faults)
            .with_checkpointing(CheckpointConfig::fixed(400.0));
        let report = GridSim::new(config).run();
        prop_assert_eq!(report.tasks_completed, 80);
        let horizon = report.makespan_minutes * 60.0;
        prop_assert!(horizon > 0.0 && horizon.is_finite());
        let eps = 1e-6 * horizon;
        for (s, m) in report.per_site.iter().enumerate() {
            prop_assert!(m.worker_downtime_s >= 0.0);
            prop_assert!(m.server_downtime_s >= 0.0);
            // Downtime tiling: a worker's outage intervals never overlap
            // (a crash landing on an already-down worker is absorbed, and
            // burst victims repair through the same MTTR process), so a
            // site's worker downtime fits inside horizon x workers even
            // when independent crashes and correlated bursts coincide.
            prop_assert!(
                m.worker_downtime_s <= horizon * workers as f64 + eps,
                "site {}: worker downtime {} > horizon {} x {} workers",
                s, m.worker_downtime_s, horizon, workers
            );
            prop_assert!(
                m.server_downtime_s <= horizon + eps,
                "site {}: server downtime {} > horizon {}",
                s, m.server_downtime_s, horizon
            );
            let avail = report.site_availability(s);
            prop_assert!((0.0..=1.0).contains(&avail));
        }
        prop_assert!((0.0..=1.0).contains(&report.mean_worker_availability()));
        prop_assert!((0.0..=1.0).contains(&report.mean_server_availability()));
    }

    /// Network-fault invariants: under stochastic link outages (hard cuts
    /// or degraded-bandwidth windows), with and without the transfer
    /// guard, every task still completes, the flow-conservation ledger
    /// balances, and per-link downtime tiles into the horizon × link-count
    /// envelope (windows on one link never overlap — a stochastic failure
    /// landing inside an open window is absorbed).
    #[test]
    fn link_faults_conserve_flows_and_tile_downtime(
        strategy in arb_strategy(),
        sites in 2usize..5,
        seed in 0u64..3,
        link_mtbf in 2_500.0f64..6_000.0,
        degraded in 0u8..2,
        guarded in 0u8..2,
    ) {
        let mut cfg = CoaddConfig::small(seed);
        cfg.tasks = 80;
        let workload = Arc::new(cfg.generate());
        let mut faults = FaultConfig::none().with_link_faults(link_mtbf, 500.0);
        if degraded == 1 {
            faults = faults.with_link_degrade_factor(0.25);
        }
        let mut config = SimConfig::paper(workload, strategy)
            .with_sites(sites)
            .with_capacity(400)
            .with_seed(seed)
            .with_probe_interval(600.0)
            .with_faults(faults);
        if guarded == 1 {
            config = config
                .with_transfer_timeout(3.0)
                .with_transfer_retries(4)
                .with_retry_backoff(30.0);
        }
        let telemetry = Telemetry::enabled();
        let report = GridSim::new(config)
            .with_telemetry(telemetry.clone())
            .run();
        prop_assert_eq!(report.tasks_completed, 80);
        prop_assert!(report.link_outages > 0, "MTBF this short must fault");

        // Flow conservation: every flow the run ever started ended in
        // exactly one sink. (The engine additionally asserts the exact
        // balance including still-active flows at report time.)
        let sinks = report.flows_completed
            + report.flows_aborted
            + report.flows_retrying
            + report.flows_requeued;
        prop_assert!(report.flows_started > 0);
        prop_assert!(
            sinks <= report.flows_started,
            "sinks {} > started {}", sinks, report.flows_started
        );
        if guarded == 0 {
            // No guard, no guard-driven sinks.
            prop_assert_eq!(report.xfer_timeouts, 0);
            prop_assert_eq!(report.xfer_retries, 0);
            prop_assert_eq!(report.flows_retrying, 0);
            prop_assert_eq!(report.flows_requeued, 0);
        } else {
            // Every dispatched retry came from a timeout, and failovers
            // are a subset of retries.
            prop_assert!(report.xfer_retries <= report.xfer_timeouts);
            prop_assert!(report.xfer_failovers <= report.xfer_retries);
            prop_assert_eq!(report.flows_retrying, report.xfer_retries);
        }

        // Downtime tiling into the horizon × link-count envelope.
        let horizon = report.makespan_minutes * 60.0;
        prop_assert!(horizon > 0.0 && horizon.is_finite());
        let probes = telemetry.probes();
        prop_assert!(!probes.is_empty(), "probe sampler produced no samples");
        let links_total = probes[0].links_total as f64;
        prop_assert!(links_total > 0.0);
        prop_assert!(report.link_downtime_s >= 0.0);
        prop_assert!(
            report.link_downtime_s <= horizon * links_total + 1e-6 * horizon * links_total,
            "link downtime {} > horizon {} x {} links",
            report.link_downtime_s, horizon, links_total
        );
    }

    #[test]
    fn determinism_under_any_config(
        strategy in arb_strategy(),
        sites in 1usize..4,
        seed in 0u64..3,
    ) {
        let mut cfg = CoaddConfig::small(0);
        cfg.tasks = 60;
        let workload = Arc::new(cfg.generate());
        let make = || {
            let config = SimConfig::paper(workload.clone(), strategy)
                .with_sites(sites)
                .with_seed(seed)
                .with_capacity(500);
            GridSim::new(config).run()
        };
        prop_assert_eq!(make(), make());
    }
}
