//! Proactive data replication (Ranganathan & Foster \[13\]) — ablation.
//!
//! The paper argues data replication is **orthogonal** to worker-centric
//! scheduling (§3.2): task-centric schedulers *need* it to fix unbalanced
//! assignments, worker-centric ones do not. This module implements the
//! classic popularity-threshold scheme so the `ablation_replication`
//! experiment can verify that claim: the engine tracks global per-file
//! reference counts; when a file's popularity crosses the threshold it is
//! pushed once to a random site that lacks it.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use gridsched_des::rng::{rng_for, Stream};
use gridsched_workload::FileId;

/// Configuration of the proactive replication extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationConfig {
    /// A file is replicated once its global reference count reaches this
    /// threshold.
    pub popularity_threshold: u32,
    /// Maximum number of proactive pushes per file (1 in \[13\]'s simplest
    /// scheme).
    pub max_replicas_per_file: u32,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            popularity_threshold: 6,
            max_replicas_per_file: 1,
        }
    }
}

/// Tracks global popularity, decides when to push, and draws where to.
#[derive(Debug, Clone)]
pub struct ReplicationState {
    config: ReplicationConfig,
    refs: Vec<u32>,
    pushed: Vec<u32>,
    /// Files for which no eligible push target can ever exist again (every
    /// other site already holds the file). Exhausted files stop matching
    /// [`ReplicationState::record_reference`], so the engine never repeats
    /// its `O(S)` candidate scan for them.
    exhausted: Vec<bool>,
    /// The push-target draws' own stream.
    pub(crate) rng: StdRng,
}

impl ReplicationState {
    /// Creates state for `num_files` files, drawing push targets from the
    /// replication stream of master seed `seed`.
    #[must_use]
    pub fn new(config: ReplicationConfig, num_files: usize, seed: u64) -> Self {
        ReplicationState {
            config,
            refs: vec![0; num_files],
            pushed: vec![0; num_files],
            exhausted: vec![false; num_files],
            rng: rng_for(seed, Stream::Replication),
        }
    }

    /// Draws a push target uniformly among `candidates` — among the
    /// best-scored ones when per-site `scores` are given — consuming one
    /// RNG draw **iff** that slate is non-empty. An empty slate must leave
    /// the stream untouched: drawing on it would let transient store or
    /// outage states shift every later placement, and scoring must not
    /// change the draw count either.
    pub fn pick_target(
        &mut self,
        mut candidates: Vec<usize>,
        scores: Option<&[f64]>,
    ) -> Option<usize> {
        if let Some(scores) = scores {
            let best = candidates
                .iter()
                .map(|&s| scores[s])
                .fold(f64::NEG_INFINITY, f64::max);
            candidates.retain(|&s| scores[s] >= best - 1e-9);
        }
        if candidates.is_empty() {
            return None;
        }
        Some(candidates[self.rng.gen_range(0..candidates.len())])
    }

    /// Records one global reference of `file`; returns `true` when this
    /// reference makes the file eligible for a proactive push. The
    /// popularity count is global, so the crossing may well happen on the
    /// reference that completes the file's *last* use — the scheme pushes
    /// anyway (it cannot know the future), which the ablation quantifies.
    pub fn record_reference(&mut self, file: FileId) -> bool {
        let r = &mut self.refs[file.index()];
        *r += 1;
        *r >= self.config.popularity_threshold
            && !self.exhausted[file.index()]
            && self.pushed[file.index()] < self.config.max_replicas_per_file
    }

    /// Marks one push of `file` as issued.
    pub fn mark_pushed(&mut self, file: FileId) {
        self.pushed[file.index()] += 1;
    }

    /// Marks `file` as push-saturated: every site that could receive it
    /// already holds it, so later references must not re-scan for
    /// candidates (nor touch the placement RNG). Lasts until
    /// [`ReplicationState::on_copy_lost`] reports the coverage broken.
    pub fn mark_exhausted(&mut self, file: FileId) {
        self.exhausted[file.index()] = true;
    }

    /// A cached copy of `file` was lost (eviction or data-server outage):
    /// full coverage no longer holds, so an exhausted file becomes
    /// eligible again — its unspent push budget can be useful after all.
    pub fn on_copy_lost(&mut self, file: FileId) {
        self.exhausted[file.index()] = false;
    }

    /// Number of proactive pushes issued so far.
    #[must_use]
    pub fn pushes_issued(&self) -> u64 {
        self.pushed.iter().map(|&p| u64::from(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_gates_push() {
        let mut st = ReplicationState::new(
            ReplicationConfig {
                popularity_threshold: 3,
                max_replicas_per_file: 1,
            },
            4,
            0,
        );
        let f = FileId(2);
        assert!(!st.record_reference(f));
        assert!(!st.record_reference(f));
        assert!(st.record_reference(f), "third reference crosses threshold");
        st.mark_pushed(f);
        assert!(!st.record_reference(f), "already pushed max replicas");
        assert_eq!(st.pushes_issued(), 1);
    }

    #[test]
    fn exhaustion_stops_eligibility_for_good() {
        let mut st = ReplicationState::new(
            ReplicationConfig {
                popularity_threshold: 1,
                max_replicas_per_file: 5,
            },
            2,
            0,
        );
        let f = FileId(1);
        assert!(st.record_reference(f));
        st.mark_exhausted(f);
        // Pushes left on paper (0 of 5 issued), but no target can exist:
        // later references must be inert.
        assert!(!st.record_reference(f));
        assert!(!st.record_reference(f));
        assert_eq!(st.pushes_issued(), 0);
        // Other files are unaffected.
        assert!(st.record_reference(FileId(0)));
        // Losing a cached copy breaks the coverage that justified the
        // exhaustion: the file is eligible again.
        st.on_copy_lost(f);
        assert!(st.record_reference(f));
    }

    #[test]
    fn threshold_crossing_on_last_reference_still_pushes() {
        // A file referenced exactly `threshold` times in its whole life:
        // the crossing happens on the very reference that completes its
        // last use, and the scheme (which cannot see the future) still
        // reports it eligible.
        let mut st = ReplicationState::new(
            ReplicationConfig {
                popularity_threshold: 4,
                max_replicas_per_file: 1,
            },
            1,
            0,
        );
        let f = FileId(0);
        for _ in 0..3 {
            assert!(!st.record_reference(f));
        }
        assert!(
            st.record_reference(f),
            "final reference crosses the threshold and is eligible"
        );
    }

    #[test]
    fn scored_pick_draws_once_among_the_best() {
        // Scores restrict the slate to its best-scored sites (within
        // 1e-9) and still take exactly the one draw an unscored pick of
        // the same slate takes.
        let scores = [0.0, 0.9, 0.5, 0.9 - 1e-12];
        let mut scored = ReplicationState::new(ReplicationConfig::default(), 1, 7);
        let mut plain = scored.clone();
        for _ in 0..20 {
            let pick = scored.pick_target(vec![0, 1, 2, 3], Some(&scores));
            assert!(matches!(pick, Some(1 | 3)), "{pick:?}");
            plain.pick_target(vec![0, 1, 2, 3], None);
        }
        assert_eq!(
            scored.rng.gen_range(0..1_000_000),
            plain.rng.gen_range(0..1_000_000),
            "one draw per pick either way"
        );
    }

    #[test]
    fn max_replicas_respected() {
        let mut st = ReplicationState::new(
            ReplicationConfig {
                popularity_threshold: 1,
                max_replicas_per_file: 2,
            },
            1,
            0,
        );
        let f = FileId(0);
        assert!(st.record_reference(f));
        st.mark_pushed(f);
        assert!(st.record_reference(f));
        st.mark_pushed(f);
        assert!(!st.record_reference(f));
        assert_eq!(st.pushes_issued(), 2);
    }
}
