//! The checkpoint/restart subsystem of the engine.
//!
//! With an active [`gridsched_checkpoint::CheckpointConfig`], compute is
//! segmented: after every checkpoint interval (fixed, or the per-site
//! Young/Daly optimum `sqrt(2 · MTBF · C)`) the worker stalls and writes a
//! checkpoint image to its site's data server — a real flow across the
//! site's access link, contending with the server's file fetches. The
//! latest image of each task survives worker crashes (but dies with the
//! data server that holds it): when a fault-orphaned task is reassigned,
//! the new execution *restores* from the image — fetching it through the
//! backbone when it lives at another site — and computes only the
//! remaining flops. `wasted_compute_s` then counts only the work since the
//! last durable image, and `work_saved_s` the work a restore rescued.
//!
//! The engine holds a [`Checkpointing`] only for a non-inert config, which
//! leaves it byte-identical to the checkpoint-free engine;
//! `tests/checkpoint_restart.rs` property-tests this.

use gridsched_checkpoint::{young_daly_interval, CheckpointPolicy, ImageTracker};
use gridsched_core::ControlPlane;
use gridsched_storage::{CheckpointImage, ImageVault};
use gridsched_topology::{EdgeId, Topology};
use gridsched_workload::TaskId;

use crate::config::SimConfig;

/// An image's progress: flops done, and the compute-seconds invested.
pub(crate) type Progress = (f64, f64);

/// Runtime state of checkpoint/restart.
#[derive(Debug)]
pub(crate) struct Checkpointing {
    size_bytes: f64,
    /// Per site: the checkpoint interval, seconds.
    interval_s: Vec<f64>,
    /// Per site: the access link image writes cross (the last hop of the
    /// site's route, the data server's shared uplink).
    access_link: Vec<EdgeId>,
    /// Per site: the access-link write cost of one image, seconds.
    write_cost_s: Vec<f64>,
    /// Per site: the images held, dying with the data server.
    vaults: Vec<ImageVault>,
    /// Which site holds each task's latest image.
    tracker: ImageTracker,
    /// Whether the control plane moves the interval
    /// ([`CheckpointPolicy::YoungDalyAdaptive`]).
    adaptive: bool,
}

impl Checkpointing {
    /// The checkpoint state of a run under `config` (already validated)
    /// over `topology`, or `None` without an active policy.
    pub(crate) fn new(config: &SimConfig, topology: &Topology) -> Option<Self> {
        let c = config.checkpointing.as_ref().filter(|c| !c.is_inert())?;
        let adaptive = c.policy == CheckpointPolicy::YoungDalyAdaptive;
        let mtbf = config.faults.as_ref().and_then(|f| f.worker_mtbf_s);
        let mut state = Checkpointing {
            size_bytes: c.size_bytes,
            interval_s: Vec::new(),
            access_link: Vec::new(),
            write_cost_s: Vec::new(),
            vaults: vec![ImageVault::new(); config.sites],
            tracker: ImageTracker::new(),
            adaptive,
        };
        for site in 0..config.sites {
            let route = topology.routes.site_to_file_server(site);
            let link = *route.links.last().expect("site routes cross a link");
            let cost = c.size_bytes / topology.graph.link(link).bandwidth_bps;
            let interval = c
                .interval_s(mtbf, cost)
                .expect("an active policy has an interval");
            state.interval_s.push(interval);
            state.access_link.push(link);
            state.write_cost_s.push(cost);
        }
        Some(state)
    }

    /// `site`'s current checkpoint interval, seconds.
    pub(crate) fn interval_s(&self, site: usize) -> f64 {
        self.interval_s[site]
    }

    /// The link an image write from `site` crosses, and the image size.
    pub(crate) fn write_path(&self, site: usize) -> (EdgeId, f64) {
        (self.access_link[site], self.size_bytes)
    }

    /// `task`'s latest surviving image and the site holding it.
    pub(crate) fn image(&self, task: TaskId) -> Option<(usize, CheckpointImage)> {
        let site = self.tracker.site_of(task)?;
        let image = self.vaults[site]
            .get(task)
            .expect("tracker and vaults agree");
        Some((site, image))
    }

    /// Stores the image of `task` that `site` wrote, unless an image at
    /// least as fresh exists: a lagging storage-affinity replica never
    /// clobbers a fresher one. Returns whether the image was kept.
    pub(crate) fn commit(&mut self, task: TaskId, site: usize, image: Progress) -> bool {
        let (flops, invested_s) = image;
        let fresher = self
            .tracker
            .site_of(task)
            .and_then(|s| self.vaults[s].get(task))
            .is_none_or(|old| flops > old.flops_done);
        if !fresher {
            return false;
        }
        if let Some(old) = self.tracker.record(task, site) {
            self.vaults[old].remove(task);
        }
        let image = CheckpointImage {
            flops_done: flops,
            invested_s,
            bytes: self.size_bytes,
        };
        self.vaults[site].put(task, image);
        true
    }

    /// Drops a finished `task`'s image: dead weight, not a loss.
    pub(crate) fn complete(&mut self, task: TaskId) {
        if let Some(site) = self.tracker.site_of(task) {
            self.vaults[site].remove(task);
            self.tracker.forget(task);
        }
    }

    /// `site`'s data server failed: every image it held is lost.
    pub(crate) fn lose_server(&mut self, site: usize) {
        self.vaults[site].fail();
        self.tracker.drop_site(site);
    }

    /// Re-derives each site's Young/Daly interval from the failure process
    /// `plane` observed, under the adaptive policy. The new interval takes
    /// effect at the next segment boundary.
    pub(crate) fn retune(&mut self, plane: &ControlPlane) {
        if !self.adaptive {
            return;
        }
        for (site, interval) in self.interval_s.iter_mut().enumerate() {
            if let Some(mtbf) = plane.site_worker_mtbf_s(site) {
                *interval = young_daly_interval(mtbf, self.write_cost_s[site]);
            }
        }
    }

    /// Images written and images lost to server failures, over the run.
    pub(crate) fn totals(&self) -> (u64, u64) {
        (
            self.vaults.iter().map(ImageVault::written).sum(),
            self.vaults.iter().map(ImageVault::lost).sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use gridsched_checkpoint::CheckpointConfig;
    use gridsched_core::StrategyKind;
    use gridsched_topology::generate;
    use gridsched_workload::coadd::CoaddConfig;

    fn checkpointing() -> Checkpointing {
        let wl = Arc::new(CoaddConfig::small(0).generate());
        let config = SimConfig::paper(wl, StrategyKind::Rest)
            .with_sites(3)
            .with_checkpointing(CheckpointConfig::fixed(900.0));
        Checkpointing::new(&config, &generate(&config.topology)).expect("an active policy")
    }

    #[test]
    fn commit_only_improves() {
        let mut c = checkpointing();
        let task = TaskId(4);
        assert!(c.commit(task, 0, (10.0, 1.0)));
        assert!(!c.commit(task, 1, (5.0, 0.5)), "a staler image");
        assert!(!c.commit(task, 1, (10.0, 1.0)), "an equally fresh image");
        assert_eq!(
            c.image(task).map(|(s, i)| (s, i.flops_done)),
            Some((0, 10.0))
        );
        assert!(c.commit(task, 2, (20.0, 2.0)));
        assert_eq!(
            c.image(task).map(|(s, i)| (s, i.flops_done)),
            Some((2, 20.0))
        );
        assert_eq!(c.vaults[0].get(task), None, "the superseded image goes");
        assert_eq!(c.totals(), (2, 0));
    }

    #[test]
    fn a_server_outage_drops_its_images() {
        let mut c = checkpointing();
        assert!(c.commit(TaskId(1), 0, (10.0, 1.0)));
        assert!(c.commit(TaskId(2), 1, (10.0, 1.0)));
        assert!(c.commit(TaskId(3), 0, (10.0, 1.0)));
        c.lose_server(0);
        assert!(c.image(TaskId(1)).is_none());
        assert!(c.image(TaskId(3)).is_none());
        assert_eq!(c.image(TaskId(2)).map(|(s, _)| s), Some(1));
        assert_eq!(c.totals(), (3, 2));
        // A lost image is gone, not stale: any later image is fresher.
        assert!(c.commit(TaskId(1), 2, (1.0, 0.1)));
    }
}
