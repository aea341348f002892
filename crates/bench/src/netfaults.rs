//! Ablation — network faults & transfer resilience.

use std::collections::BTreeMap;
use std::sync::Arc;

use gridsched_core::StrategyKind;
use gridsched_sim::{
    run_averaged, FaultConfig, FaultEvent, FaultKind, FaultTrace, MetricsReport, SimConfig,
};
use gridsched_topology::{generate, TiersConfig};
use gridsched_workload::Workload;

use crate::{fmt, Ctx, Table};

/// Paper grid size (Table 1): the storm's backbone scan covers the routes
/// these sites actually use.
const SITES: usize = 10;

/// Storm cadence: each backbone link cuts out for `DOWN_S` every
/// `PERIOD_S`, staggered so the two links never flap in lockstep, from
/// shortly after warm-up until well past any plausible makespan.
const FIRST_S: f64 = 1_200.0;
const PERIOD_S: f64 = 5_400.0;
const DOWN_S: f64 = 900.0;
const HORIZON_S: f64 = 2_000_000.0;

/// Ablation — does the transfer guard (timeout / retry / failover /
/// resume) earn its keep against a naive restart-from-zero retry under a
/// scripted backbone flap storm?
///
/// Two faces:
///
/// 1. **Zero-link-fault equivalence**: with no link faults configured the
///    guard's armed-but-always-cancelled deadlines must change *nothing* —
///    identical makespan, transfer counts and dispatched-event counts on a
///    clean run. This is the discipline gate: resilience machinery that
///    perturbs healthy runs is a bug, not a feature.
/// 2. **Backbone flap storm**: the two most-shared links on the
///    site→file-server routes flap on a fixed cadence (scripted, so every
///    configuration sees the *same* outages). Three contenders: no guard
///    (flows stall through each outage), a naive guard that restarts every
///    timed-out fetch from byte zero, and the full guard (alternate-replica
///    failover + partial-transfer resume). The full guard must beat naive
///    restart on re-transferred bytes and makespan.
///
/// The storm is tied to one topology (link indices are meaningless across
/// topology seeds), so face 2 runs a single replicate on the first
/// `--seeds` entry; face 1 averages over all of them as usual.
pub(crate) fn ablation_netfaults(ctx: &Ctx) {
    let workload = ctx.workload();
    let (plain, guarded) = clean_face(ctx, &workload);
    let storm = storm_face(ctx, ctx.seeds[0]);

    // Face 1: the discipline gate. The guard changed nothing a clean run
    // can observe: same makespan, same transfer volume, same
    // dispatched-event count, and it never fired.
    ctx.check(
        "guard on a clean network is invisible (same makespan, transfers, events)",
        guarded.xfer_timeouts == 0
            && plain.makespan_minutes == guarded.makespan_minutes
            && plain.file_transfers == guarded.file_transfers
            && plain.events_dispatched == guarded.events_dispatched,
    );

    // Face 2: the storm must actually bite both guarded contenders — a
    // storm nobody notices proves nothing.
    let [no_guard, naive, resilient] = &storm;
    ctx.check(
        "the backbone flap storm forces transfer timeouts",
        naive.xfer_timeouts > 0 && resilient.xfer_timeouts > 0,
    );
    ctx.check(
        "scripted outages open link windows in every contender",
        storm.iter().all(|r| r.link_outages > 0),
    );
    // Resume keeps every delivered byte; naive restart throws them away.
    ctx.check(
        "resume re-transfers strictly fewer bytes than naive restart",
        resilient.xfer_bytes_retransmitted < naive.xfer_bytes_retransmitted,
    );
    ctx.check(
        "naive restart measurably re-sends delivered bytes",
        naive.xfer_bytes_retransmitted > 0.0,
    );
    ctx.check(
        "resume actually rescues partial transfers",
        resilient.xfer_bytes_resumed > 0.0,
    );
    ctx.check(
        "failover + resume beats naive restart on makespan",
        resilient.makespan_minutes <= naive.makespan_minutes,
    );
    // Every run still finishes the whole workload under the storm.
    ctx.check(
        "all storm contenders complete every task",
        no_guard.tasks_completed == naive.tasks_completed
            && naive.tasks_completed == resilient.tasks_completed,
    );
}

fn guard(config: SimConfig) -> SimConfig {
    config
        .with_transfer_timeout(3.0)
        .with_transfer_retries(4)
        .with_retry_backoff(60.0)
}

/// Face 1: no link faults — the guard must be invisible. Returns the
/// (unguarded, guarded) reports.
fn clean_face(ctx: &Ctx, workload: &Arc<Workload>) -> (MetricsReport, MetricsReport) {
    let base = SimConfig::paper(workload.clone(), StrategyKind::Rest2);
    let plain = ctx.run(&base);
    let guarded = ctx.run(&guard(base));

    let mut table = Table::new(
        "Ablation: transfer guard on a clean network (rest.2, no link faults)",
        &[
            "configuration",
            "makespan_min",
            "file_transfers",
            "events",
            "xfer_timeouts",
        ],
    );
    for (label, r) in [("no guard", &plain), ("guard armed", &guarded)] {
        table.push_row(vec![
            label.to_string(),
            fmt(r.makespan_minutes, 0),
            r.file_transfers.to_string(),
            r.events_dispatched.to_string(),
            r.xfer_timeouts.to_string(),
        ]);
    }
    ctx.emit(table, "ablation_netfaults_clean");
    (plain, guarded)
}

/// The links most shared across the sites' file-server routes — the
/// backbone. Cutting one hits many sites at once, which is exactly the
/// correlated-outage structure the guard has to survive.
fn backbone_links(topo_seed: u64) -> Vec<usize> {
    let topo = generate(&TiersConfig::paper(topo_seed));
    let mut shared: BTreeMap<usize, usize> = BTreeMap::new();
    for site in 0..SITES {
        for l in &topo.routes.site_to_file_server(site).links {
            *shared.entry(l.index()).or_insert(0) += 1;
        }
    }
    let mut links: Vec<(usize, usize)> = shared.into_iter().filter(|&(_, n)| n >= 2).collect();
    // Most-shared first; link index is the deterministic tie-break.
    links.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    links.into_iter().take(2).map(|(l, _)| l).collect()
}

fn storm_trace(links: &[usize]) -> FaultTrace {
    let mut events = Vec::new();
    for (i, &link) in links.iter().enumerate() {
        let offset = i as f64 * PERIOD_S / links.len() as f64;
        let mut t = FIRST_S + offset;
        while t < HORIZON_S {
            events.push(FaultEvent {
                at_s: t,
                kind: FaultKind::LinkDown { link },
            });
            events.push(FaultEvent {
                at_s: t + DOWN_S,
                kind: FaultKind::LinkUp { link },
            });
            t += PERIOD_S;
        }
    }
    FaultTrace::new(events)
}

/// Face 2: the scripted backbone flap storm, one topology replicate.
/// Returns the [no guard, naive restart, failover + resume] reports.
///
/// The storm runs the *transfer-bound* regime (the paper's workload with
/// 200 MB files instead of 25 MB): restart-from-zero only costs wall-clock
/// when the re-sent bytes sit on the critical path, and with small files
/// the compute dominates and every retry policy ties. Big files are where
/// a resilience layer earns or loses its keep.
fn storm_face(ctx: &Ctx, topo_seed: u64) -> [MetricsReport; 3] {
    let links = backbone_links(topo_seed);
    assert!(
        !links.is_empty(),
        "paper topology must share at least one backbone link across sites"
    );
    let workload = Arc::new(ctx.coadd_config().with_file_size_mb(200.0).generate());
    let base = SimConfig::paper(workload, StrategyKind::Rest2)
        .with_faults(FaultConfig::none().with_trace(storm_trace(&links)));
    let storm = [
        run_averaged(&base, &[topo_seed]),
        run_averaged(&guard(base.clone()).with_naive_retry(), &[topo_seed]),
        run_averaged(&guard(base), &[topo_seed]),
    ];

    let mut table = Table::new(
        format!(
            "Ablation: backbone flap storm on links {links:?} (rest.2, 200 MB files, \
             {DOWN_S:.0}s cut every {PERIOD_S:.0}s per link)"
        ),
        &[
            "configuration",
            "makespan_min",
            "timeouts",
            "retries",
            "failovers",
            "requeues",
            "resumed_gb",
            "retransmitted_gb",
        ],
    );
    let labels = [
        "no guard (flows stall)",
        "naive retry (restart from zero)",
        "failover + resume",
    ];
    for (label, r) in labels.into_iter().zip(&storm) {
        table.push_row(vec![
            label.to_string(),
            fmt(r.makespan_minutes, 0),
            r.xfer_timeouts.to_string(),
            r.xfer_retries.to_string(),
            r.xfer_failovers.to_string(),
            r.flows_requeued.to_string(),
            fmt(r.xfer_bytes_resumed / 1e9, 2),
            fmt(r.xfer_bytes_retransmitted / 1e9, 2),
        ]);
    }
    ctx.emit(table, "ablation_netfaults_storm");
    storm
}
