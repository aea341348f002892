//! `CalculateWeight()` — the paper's three task-weight metrics (§4.2).
//!
//! For a requesting worker with site storage `store` and a pending task `t`
//! with input set `files(t)`:
//!
//! * **Overlap** — `|F_t|`, the overlap cardinality: how many of the task's
//!   files are already in the worker's local storage. The primary metric of
//!   prior task-centric work; maximises the chance of reuse.
//! * **Rest** — `1 / (|t| − |F_t|)`: the inverse of the number of files
//!   that would still have to be transferred. When *no* files are missing
//!   the weight is `+∞` — such a task is strictly preferred, which is the
//!   metric's intent (zero transfers).
//! * **Combined** — `ref_t / totalRef + rest_t / totalRest` where
//!   `ref_t = Σ_{i∈F_t} r_i` sums the site's past references of the
//!   overlapping files, and `totalRef` / `totalRest` normalise each term
//!   over all pending tasks. (The paper's typesetting garbles the second
//!   fraction; normalising `rest_t` by `totalRest` is the reading under
//!   which both terms are dimensionless shares that sum to 1 across the
//!   task queue, and larger-is-better is preserved.)
//!
//! Weight evaluation over the whole queue is `O(T·I)` — the complexity the
//! paper quotes in §4.4 (`T` pending tasks, `I` worst-case files per task).
//! The [`crate::index`] module provides an incrementally-maintained `O(T)`
//! path plus bucketed priority indexes with `O(log T)` amortized picks; all
//! paths are property-tested to agree bit for bit.
//!
//! To make that bit-identity possible, the `combined` metric's `totalRest`
//! normaliser is accumulated in a **canonical order**: per missing-file
//! count (ascending), as `count(m) × rest(m)` — see
//! [`total_rest_from_counts`]. Floating-point addition is not associative,
//! so a per-task accumulation order would be unreproducible from the
//! incremental per-level counters; grouping by the (small-integer) missing
//! count gives every evaluation path the same well-defined sum.

use serde::{Deserialize, Serialize};
use std::fmt;

use gridsched_storage::SiteStore;
use gridsched_workload::{TaskId, Workload};

use crate::pool::TaskPool;

/// Which `CalculateWeight()` variant the worker-centric scheduler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WeightMetric {
    /// Overlap cardinality `|F_t|`.
    Overlap,
    /// Inverse missing-file count `1/(|t|−|F_t|)`.
    Rest,
    /// Normalised past-references plus normalised rest.
    Combined,
}

impl fmt::Display for WeightMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WeightMetric::Overlap => "overlap",
            WeightMetric::Rest => "rest",
            WeightMetric::Combined => "combined",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for WeightMetric {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "overlap" => Ok(WeightMetric::Overlap),
            "rest" => Ok(WeightMetric::Rest),
            "combined" => Ok(WeightMetric::Combined),
            other => Err(format!("unknown metric `{other}` (overlap|rest|combined)")),
        }
    }
}

/// The `rest` weight given the missing-file count.
#[inline]
#[must_use]
pub fn rest_weight(missing: usize) -> f64 {
    if missing == 0 {
        f64::INFINITY
    } else {
        1.0 / missing as f64
    }
}

/// The `combined` metric's queue-wide `totalRest` normaliser, accumulated
/// in the canonical order every evaluation path shares: ascending missing
/// count `m`, adding `count(m) × rest(m)` per occupied level.
///
/// The `m`-th yielded item is the number of pending tasks missing exactly
/// `m` files. Any task with `m = 0` (infinite rest) makes the total
/// infinite, exactly as a per-task accumulation would.
///
/// This is the **single** implementation of the canonical order — both
/// evaluation paths (the naive scan, and `ComboAggregates` behind the
/// ranked pick) feed their per-level counts through here so the
/// byte-identity contract lives in one place.
#[must_use]
pub fn total_rest_from_counts<I: IntoIterator<Item = u32>>(counts: I) -> f64 {
    let mut total = 0.0f64;
    for (m, c) in counts.into_iter().enumerate() {
        if c > 0 {
            total += f64::from(c) * rest_weight(m);
        }
    }
    total
}

/// Combines the per-task `ref` and `rest` values into the `combined`
/// weight, given the queue-wide totals.
#[inline]
#[must_use]
pub fn combined_weight(ref_t: u64, rest_t: f64, total_ref: u64, total_rest: f64) -> f64 {
    if rest_t.is_infinite() {
        return f64::INFINITY;
    }
    let ref_term = if total_ref > 0 {
        ref_t as f64 / total_ref as f64
    } else {
        0.0
    };
    let rest_term = if total_rest.is_finite() && total_rest > 0.0 {
        rest_t / total_rest
    } else {
        // Some other task has zero missing files (infinite rest); finite
        // tasks' normalised share is vanishingly small.
        0.0
    };
    ref_term + rest_term
}

/// Evaluates `CalculateWeight()` for every pending task against `store`,
/// by direct file probing — the paper's `O(T·I)` algorithm.
///
/// Returns `(task, weight)` pairs in ascending task-id order. Weights are
/// non-negative; `+∞` marks zero-transfer tasks under `Rest`/`Combined`.
#[must_use]
pub fn weigh_all_naive(
    metric: WeightMetric,
    workload: &Workload,
    pool: &TaskPool,
    store: &SiteStore,
) -> Vec<(TaskId, f64)> {
    match metric {
        WeightMetric::Overlap => pool
            .iter()
            .map(|t| {
                let files = workload.task(t).files();
                (t, store.overlap(files) as f64)
            })
            .collect(),
        WeightMetric::Rest => pool
            .iter()
            .map(|t| {
                let files = workload.task(t).files();
                let missing = files.len() - store.overlap(files);
                (t, rest_weight(missing))
            })
            .collect(),
        WeightMetric::Combined => {
            // Pass 1: per-task ref and missing count, plus the queue-wide
            // totals (`totalRest` in the canonical grouped order).
            let mut per_task: Vec<(TaskId, u64, usize)> = Vec::with_capacity(pool.len());
            let mut total_ref: u64 = 0;
            let mut missing_counts: Vec<u32> = Vec::new();
            for t in pool.iter() {
                let files = workload.task(t).files();
                let overlap = store.overlap(files);
                let missing = files.len() - overlap;
                let ref_t = store.overlap_ref_sum(files);
                total_ref += ref_t;
                if missing >= missing_counts.len() {
                    missing_counts.resize(missing + 1, 0);
                }
                missing_counts[missing] += 1;
                per_task.push((t, ref_t, missing));
            }
            let total_rest = total_rest_from_counts(missing_counts.iter().copied());
            // Pass 2: combine.
            per_task
                .into_iter()
                .map(|(t, ref_t, missing)| {
                    let rest_t = rest_weight(missing);
                    (t, combined_weight(ref_t, rest_t, total_ref, total_rest))
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_storage::EvictionPolicy;
    use gridsched_workload::{FileId, TaskSpec};

    fn wl() -> Workload {
        Workload::new(
            vec![
                TaskSpec::new(TaskId(0), vec![FileId(0), FileId(1)], 0.0),
                TaskSpec::new(TaskId(1), vec![FileId(1), FileId(2), FileId(3)], 0.0),
                TaskSpec::new(TaskId(2), vec![FileId(4)], 0.0),
            ],
            5,
            1.0,
            "w",
        )
    }

    fn store_with(files: &[u32]) -> SiteStore {
        let mut s = SiteStore::new(100, EvictionPolicy::Lru);
        for &f in files {
            s.insert(FileId(f));
        }
        s
    }

    #[test]
    fn metric_parsing() {
        assert_eq!("rest".parse::<WeightMetric>().unwrap(), WeightMetric::Rest);
        assert_eq!(WeightMetric::Combined.to_string(), "combined");
        assert!("best".parse::<WeightMetric>().is_err());
    }

    #[test]
    fn overlap_counts_resident() {
        let store = store_with(&[1, 2]);
        let pool = TaskPool::full(3);
        let w = weigh_all_naive(WeightMetric::Overlap, &wl(), &pool, &store);
        assert_eq!(
            w,
            vec![(TaskId(0), 1.0), (TaskId(1), 2.0), (TaskId(2), 0.0)]
        );
    }

    #[test]
    fn rest_is_inverse_missing() {
        let store = store_with(&[1, 2]);
        let pool = TaskPool::full(3);
        let w = weigh_all_naive(WeightMetric::Rest, &wl(), &pool, &store);
        assert_eq!(w[0], (TaskId(0), 1.0)); // 1 missing
        assert_eq!(w[1], (TaskId(1), 1.0)); // 1 missing
        assert_eq!(w[2], (TaskId(2), 1.0)); // 1 missing
    }

    #[test]
    fn rest_zero_missing_is_infinite() {
        let store = store_with(&[0, 1]);
        let pool = TaskPool::full(3);
        let w = weigh_all_naive(WeightMetric::Rest, &wl(), &pool, &store);
        assert!(w[0].1.is_infinite());
    }

    #[test]
    fn combined_prefers_referenced_files() {
        let mut store = store_with(&[1, 3]);
        store.record_task_reference(FileId(3));
        store.record_task_reference(FileId(3));
        let pool = TaskPool::full(3);
        let w = weigh_all_naive(WeightMetric::Combined, &wl(), &pool, &store);
        // Task 1 overlaps {1,3} with refs 0+2=2; task 0 overlaps {1} refs 0.
        // Both have 1 missing (task 0) vs 1 missing (task 1: files 2 missing
        // — wait: task1 files {1,2,3}, resident {1,3} → 1 missing).
        // rest equal → ref term decides: task 1 wins.
        assert!(w[1].1 > w[0].1, "weights: {w:?}");
        assert!(w[1].1 > w[2].1);
    }

    #[test]
    fn combined_terms_are_normalised() {
        let store = store_with(&[0]);
        let pool = TaskPool::full(3);
        let w = weigh_all_naive(WeightMetric::Combined, &wl(), &pool, &store);
        // No references anywhere → pure normalised rest; the three rest
        // values are 1/1, 1/3, 1/1 → total 7/3.
        let expect = [
            1.0 / (7.0 / 3.0),
            (1.0 / 3.0) / (7.0 / 3.0),
            1.0 / (7.0 / 3.0),
        ];
        for (i, (_, weight)) in w.iter().enumerate() {
            assert!((weight - expect[i]).abs() < 1e-12, "task {i}: {weight}");
        }
    }

    #[test]
    fn total_rest_grouping_matches_expectation() {
        // counts: two tasks missing 1, one missing 3 → 2·1 + 1/3.
        let total = total_rest_from_counts([0, 2, 0, 1]);
        assert!((total - (2.0 + 1.0 / 3.0)).abs() < 1e-15);
        // A zero-missing task makes the total infinite.
        assert!(total_rest_from_counts([1, 2]).is_infinite());
        assert_eq!(total_rest_from_counts([0u32; 0]), 0.0);
    }

    #[test]
    fn combined_handles_infinite_rest_queue() {
        let store = store_with(&[0, 1]); // task 0 fully resident
        let pool = TaskPool::full(3);
        let w = weigh_all_naive(WeightMetric::Combined, &wl(), &pool, &store);
        assert!(w[0].1.is_infinite());
        assert!(w[1].1.is_finite());
        assert!(!w[1].1.is_nan() && !w[2].1.is_nan());
    }

    #[test]
    fn skips_non_pending_tasks() {
        let store = store_with(&[]);
        let mut pool = TaskPool::full(3);
        pool.remove(TaskId(1));
        let w = weigh_all_naive(WeightMetric::Overlap, &wl(), &pool, &store);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, TaskId(0));
        assert_eq!(w[1].0, TaskId(2));
    }
}
