//! Inverted file→task index and incrementally-maintained per-site views.
//!
//! The paper's basic algorithm re-derives `|F_t|` (and `ref_t`) for every
//! pending task by probing the requesting site's storage — `O(T·I)` per
//! scheduling decision (§4.4). Because storage contents change only when a
//! file arrives, is evicted, or is referenced, the same quantities can be
//! maintained **incrementally**: an inverted index maps each file to the
//! tasks that read it, and every storage change updates the per-task
//! overlap counters of the affected tasks. A scheduling decision then
//! needs no file probe.
//!
//! A scan over those counters per decision would still be an `O(T²)` run,
//! which caps the engine far below 10⁵ workers. The same storage-change
//! notifications therefore also maintain a **priority index**: every
//! [`SiteView`] may carry a [`TaskRank`] that buckets the pending tasks by
//! their (small integer) overlap or missing-file count, each bucket an
//! ordered set. A scheduling decision then degenerates to reading the
//! best few bucket heads — `O(log T)` amortized — instead of scanning the
//! pool.
//!
//! ## Sparse membership propagation
//!
//! With one `TaskRank` per site, *eagerly* mirroring pool membership into
//! every rank makes each pool insert/remove an `O(S log T)` broadcast —
//! the dominant cost of a scheduling decision once the site count grows
//! (the `perf_scale` sites sweep showed wall time ~linear in `S`).
//! Membership therefore propagates **lazily**:
//!
//! * a pool *removal* touches no rank at all — the entry goes stale in
//!   place, and a read that encounters it skips it via the caller's `live`
//!   predicate and physically removes it then (each stale entry is
//!   repaired at most once per site, and only if it ever surfaces near a
//!   bucket head at that site);
//! * a pool *insert* (requeue, replica-cap release) appends to a shared
//!   [`PendingLog`]; each view holds a cursor and replays the suffix on
//!   its next read ([`SiteView::sync_pending`]) — `O(1)` at event time,
//!   each (site, insert) pair processed once.
//!
//! The `combined` metric's queue-wide normalisers cannot be read off a
//! rank with stale members, so they move to [`ComboAggregates`], which
//! maintains them exactly with per-file site residency lists: a
//! membership change costs `O(Σ_f |sites holding f|)` over the task's
//! files — flat in `S` for data-local workloads — instead of `O(S)`.
//!
//! ## Deferred re-filing
//!
//! Storage-change notifications update the cached counters at once, and
//! prune stale members at once, but they do not move a live member
//! between buckets: they only *mark* it (one flag plus a push onto the
//! rank's mark list). Only a ranked read looks at the order, so
//! [`SiteView::pick_ranked`] and [`SiteView::top_overlap_where`] first
//! re-file every marked member from the view's current counters — once,
//! however many events touched it since the last read — and move it only
//! if its (level, key) changed. A site that sees hundreds of file
//! arrivals between two requests therefore pays a few hundred flag
//! writes instead of a few hundred `BTreeSet` remove + insert pairs. An
//! unmarked member always sits at its current coordinates; a marked one
//! sits at the coordinates it was last filed under, which is also what
//! [`TaskRank`]'s removal uses.
//!
//! None of this changes any scheduling decision — the ranked picks are
//! property-tested to agree exactly with [`crate::weight::weigh_all_naive`]
//! plus [`crate::choose::ChooseTask`], and [`SiteView::assert_consistent`]
//! checks the cached counters against the store — it only changes the
//! constant/complexity; the `sched_decision` criterion bench and the
//! `perf_scale` harness quantify the gap.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::Rng;

use gridsched_storage::SiteStore;
use gridsched_telemetry::{Counter, Histogram, Telemetry};
use gridsched_workload::{FileId, TaskId, Workload};

use crate::choose::ChooseTask;
use crate::pool::TaskPool;
use crate::weight::{combined_weight, rest_weight, total_rest_from_counts, WeightMetric};

/// Compressed-sparse-row inverted index: for each file, the tasks reading
/// it; plus per-task input-set sizes (`|t|`).
///
/// Immutable after construction; shared by all sites' views.
#[derive(Debug, Clone)]
pub struct FileIndex {
    offsets: Vec<u32>,
    task_lists: Vec<u32>,
    /// Shared with every [`TaskRank`] built over this index.
    task_sizes: Arc<[u32]>,
}

impl FileIndex {
    /// Builds the index from a workload.
    #[must_use]
    pub fn build(workload: &Workload) -> Self {
        let num_files = workload.file_count();
        let mut counts = vec![0u32; num_files];
        for t in workload.tasks() {
            for f in t.files() {
                counts[f.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(num_files + 1);
        let mut acc = 0u32;
        for &c in &counts {
            offsets.push(acc);
            acc += c;
        }
        offsets.push(acc);
        let mut task_lists = vec![0u32; acc as usize];
        let mut cursor = offsets.clone();
        for t in workload.tasks() {
            for f in t.files() {
                let slot = &mut cursor[f.index()];
                task_lists[*slot as usize] = t.id.0;
                *slot += 1;
            }
        }
        let task_sizes = workload
            .tasks()
            .iter()
            .map(|t| t.file_count() as u32)
            .collect();
        FileIndex {
            offsets,
            task_lists,
            task_sizes,
        }
    }

    /// The tasks reading `file`, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if the file is out of range.
    #[must_use]
    pub fn tasks_of(&self, file: FileId) -> &[u32] {
        let lo = self.offsets[file.index()] as usize;
        let hi = self.offsets[file.index() + 1] as usize;
        &self.task_lists[lo..hi]
    }

    /// `|t|` — the input-set size of `task`.
    ///
    /// # Panics
    ///
    /// Panics if the task is out of range.
    #[must_use]
    pub fn task_size(&self, task: TaskId) -> u32 {
        self.task_sizes[task.index()]
    }

    /// Number of tasks covered.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.task_sizes.len()
    }

    /// Number of files covered.
    #[must_use]
    pub fn file_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The largest input-set size over all tasks (`max |t|`) — the number
    /// of levels a [`TaskRank`] needs.
    #[must_use]
    pub fn max_task_size(&self) -> u32 {
        self.task_sizes.iter().copied().max().unwrap_or(0)
    }
}

/// An incrementally-maintained per-site priority index over the *pending*
/// tasks, bucketed by the metric's small-integer level:
///
/// * `Overlap` — level `|F_t|`, best bucket is the **highest** level;
/// * `Rest` / `Combined` — level `|t| − |F_t|` (missing files), best
///   bucket is the **lowest** level.
///
/// Within a bucket, tasks are ordered so the bucket head is exactly the
/// task the full-scan argmax would select among that bucket: ascending id
/// for `Overlap`/`Rest` (all weights in a bucket are equal there), and
/// descending cached reference sum (ties by id) for finite `Combined`
/// buckets. The zero-missing `Combined` bucket orders by id alone — its
/// weight is `+∞` regardless of references.
///
/// Both coordinates are maintained **lazily** (see the module docs). A
/// storage event that changes a member's counters only marks it, and the
/// owning [`SiteView`] re-files every marked member at its next ranked
/// read — one `BTreeSet` remove + insert (`O(log T)`) per member whose
/// (level, key) actually changed, however many events touched it. Pool
/// membership is lazy too: a member may be stale — no longer pending —
/// until a read at this site encounters and repairs it, so `len()` bounds
/// the pending population from above rather than equalling it.
#[derive(Debug, Clone)]
pub struct TaskRank {
    metric: WeightMetric,
    /// `buckets[level]` — ordered `(key, task id)`; see [`TaskRank`] docs
    /// for the key.
    buckets: Vec<BTreeSet<(u64, u32)>>,
    /// `|t|` per task (the [`FileIndex`]'s table, shared).
    sizes: Arc<[u32]>,
    member: Vec<bool>,
    /// The (level, key) each member is physically filed under.
    level_of: Vec<u32>,
    key_of: Vec<u64>,
    /// `marked[t]`: `t`'s counters changed since it was last filed, so it
    /// waits in `marks` for the next read to re-file it.
    marked: Vec<bool>,
    /// The marked tasks, each once.
    marks: Vec<u32>,
    len: usize,
}

impl TaskRank {
    fn new(metric: WeightMetric, index: &FileIndex) -> Self {
        let num_tasks = index.task_count();
        let levels = index.max_task_size() as usize + 1;
        TaskRank {
            metric,
            buckets: vec![BTreeSet::new(); levels],
            sizes: Arc::clone(&index.task_sizes),
            member: vec![false; num_tasks],
            level_of: vec![0; num_tasks],
            key_of: vec![0; num_tasks],
            marked: vec![false; num_tasks],
            marks: Vec::new(),
            len: 0,
        }
    }

    /// Number of member tasks (pending plus not-yet-repaired stale).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no task is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The metric whose ordering this rank maintains.
    #[must_use]
    pub fn metric(&self) -> WeightMetric {
        self.metric
    }

    fn level_for(&self, size: u32, overlap: u32) -> u32 {
        match self.metric {
            WeightMetric::Overlap => overlap,
            WeightMetric::Rest | WeightMetric::Combined => size - overlap,
        }
    }

    fn key_for(&self, level: u32, refsum: u64) -> u64 {
        // Only finite Combined buckets order by references; level 0 there
        // means zero missing files (weight +∞ for every reference count).
        if self.metric == WeightMetric::Combined && level > 0 {
            u64::MAX - refsum
        } else {
            0
        }
    }

    /// The (level, key) a task of input-set size `size` belongs under
    /// with counters (`overlap`, `refsum`).
    fn coords(&self, size: u32, overlap: u32, refsum: u64) -> (u32, u64) {
        let level = self.level_for(size, overlap);
        (level, self.key_for(level, refsum))
    }

    fn insert(&mut self, t: usize, (level, key): (u32, u64)) {
        if self.member[t] {
            return;
        }
        self.buckets[level as usize].insert((key, t as u32));
        self.member[t] = true;
        self.level_of[t] = level;
        self.key_of[t] = key;
        self.len += 1;
    }

    fn remove(&mut self, t: usize) {
        if !self.member[t] {
            return;
        }
        let level = self.level_of[t] as usize;
        self.buckets[level].remove(&(self.key_of[t], t as u32));
        self.member[t] = false;
        self.len -= 1;
    }

    /// Queues member `t` for re-filing at the next read.
    fn mark(&mut self, t: usize) {
        if !self.marked[t] {
            self.marked[t] = true;
            self.marks.push(t as u32);
        }
    }

    /// Moves member `t` to (`level`, `key`); returns whether it moved.
    fn refile(&mut self, t: usize, (level, key): (u32, u64)) -> bool {
        if level == self.level_of[t] && key == self.key_of[t] {
            return false;
        }
        let old_level = self.level_of[t] as usize;
        self.buckets[old_level].remove(&(self.key_of[t], t as u32));
        self.buckets[level as usize].insert((key, t as u32));
        self.level_of[t] = level;
        self.key_of[t] = key;
        true
    }
}

/// Hot-path instruments of the lazy-membership machinery, shared by every
/// [`SiteView`] of one scheduler (cloning shares the underlying cells).
///
/// The default handles are inert — recording costs one branch — so the
/// instrumented paths are byte-identical with telemetry off, and the
/// numbers confirm the complexity claims with it on: mean repairs per pick
/// should stay flat as the site count grows (each stale entry is repaired
/// at most once per site), and replay lengths track the requeue window,
/// not the run length.
#[derive(Debug, Clone, Default)]
pub struct RankStats {
    /// Ranked reads ([`SiteView::pick_ranked`] /
    /// [`SiteView::top_overlap_where`]) — `scheduler.rank.picks`.
    pub picks: Counter,
    /// Stale entries physically removed during ranked reads —
    /// `scheduler.rank.repairs`.
    pub repairs: Counter,
    /// Marked members moved to another bucket position when a ranked read
    /// applied the marks — `scheduler.rank.refiles`.
    pub refiles: Counter,
    /// [`SiteView::sync_pending`] calls with a rank attached —
    /// `scheduler.pending_log.replays`.
    pub replays: Counter,
    /// Journal entries replayed per sync —
    /// `scheduler.pending_log.replay_len`.
    pub replay_len: Histogram,
}

impl RankStats {
    /// Handles registered on `telemetry` under the canonical instrument
    /// names (inert handles when the collector is disabled).
    #[must_use]
    pub fn attach(telemetry: &Telemetry) -> Self {
        RankStats {
            picks: telemetry.counter("scheduler.rank.picks"),
            repairs: telemetry.counter("scheduler.rank.repairs"),
            refiles: telemetry.counter("scheduler.rank.refiles"),
            replays: telemetry.counter("scheduler.pending_log.replays"),
            replay_len: telemetry.histogram("scheduler.pending_log.replay_len"),
        }
    }
}

/// Shared journal of *become-live* membership transitions (requeues after
/// faults, replica-cap releases): the scheduler appends in `O(1)`; each
/// [`SiteView`] holds a cursor and replays the suffix it has not seen yet
/// on its next read ([`SiteView::sync_pending`]).
///
/// Pool *removals* are never journaled — stale rank entries are filtered
/// (and repaired) lazily at read time instead.
#[derive(Debug, Clone, Default)]
pub struct PendingLog {
    entries: Vec<u32>,
}

impl PendingLog {
    /// Amortization period for [`PendingLog::record`]'s compaction sweep.
    const COMPACT_EVERY: usize = 4096;

    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        PendingLog::default()
    }

    /// Records that `task` (re-)became live for the per-site ranks, and
    /// periodically drains the prefix every view has already replayed —
    /// the journal stays bounded by the in-flight window (entries some
    /// cursor still trails) instead of growing for the run's lifetime.
    /// The sweep is `O(views)` once per [`PendingLog::COMPACT_EVERY`]
    /// appends.
    pub fn record(&mut self, task: TaskId, views: &mut [SiteView]) {
        self.entries.push(task.0);
        if self.entries.len().is_multiple_of(Self::COMPACT_EVERY) {
            let replayed = views
                .iter()
                .map(|v| v.log_cursor)
                .min()
                .unwrap_or(self.entries.len());
            if replayed > 0 {
                self.entries.drain(..replayed);
                for v in views {
                    v.log_cursor -= replayed;
                }
            }
        }
    }

    /// Number of journaled transitions still retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Incrementally-maintained per-site overlap state.
///
/// For every task `t`, caches:
/// * `overlap[t]` — `|F_t|` against this site's *current* storage,
/// * `refsum[t]` — `Σ_{i ∈ F_t} r_i` over the resident overlap.
///
/// The owner must forward every storage change:
/// [`SiteView::on_file_added`] after an insert,
/// [`SiteView::on_file_evicted`] for each eviction, and
/// [`SiteView::on_task_reference`] after each `r_i` increment.
#[derive(Debug, Clone)]
pub struct SiteView {
    overlap: Vec<u32>,
    refsum: Vec<u64>,
    rank: Option<TaskRank>,
    /// How far into the shared [`PendingLog`] this view has replayed.
    log_cursor: usize,
    /// Hot-path instruments (inert by default; see [`RankStats`]).
    stats: RankStats,
}

impl SiteView {
    /// A view for an initially-empty site storage.
    #[must_use]
    pub fn new(num_tasks: usize) -> Self {
        SiteView {
            overlap: vec![0; num_tasks],
            refsum: vec![0; num_tasks],
            rank: None,
            log_cursor: 0,
            stats: RankStats::default(),
        }
    }

    /// Installs hot-path instrument handles (typically shared across all
    /// of a scheduler's views). Recording through inert handles — the
    /// default — is a no-op, so this never changes scheduling behaviour.
    pub fn set_stats(&mut self, stats: RankStats) {
        self.stats = stats;
    }

    /// Replays the [`PendingLog`] suffix this view has not seen yet,
    /// admitting every journaled task that is still live (per the caller's
    /// predicate) into the priority index. Call before any ranked read.
    ///
    /// `O(new entries)` — each (site, journal entry) pair is processed at
    /// most once over the run. No-op beyond cursor advancement when no
    /// rank is attached.
    pub fn sync_pending<F: FnMut(TaskId) -> bool>(
        &mut self,
        index: &FileIndex,
        log: &PendingLog,
        mut live: F,
    ) {
        if self.rank.is_none() {
            self.log_cursor = log.entries.len();
            return;
        }
        self.stats.replays.incr();
        self.stats
            .replay_len
            .record((log.entries.len() - self.log_cursor) as u64);
        while self.log_cursor < log.entries.len() {
            let task = TaskId(log.entries[self.log_cursor]);
            self.log_cursor += 1;
            if live(task) {
                self.rank_insert(index, task);
            }
        }
    }

    /// Attaches an (empty) priority index ordered for `metric`. Call after
    /// seeding the counters from pre-populated storage, then admit the
    /// pending pool via [`SiteView::rank_insert`].
    pub fn enable_rank(&mut self, metric: WeightMetric, index: &FileIndex) {
        self.rank = Some(TaskRank::new(metric, index));
    }

    /// The attached priority index, if any.
    #[must_use]
    pub fn rank(&self) -> Option<&TaskRank> {
        self.rank.as_ref()
    }

    /// Admits `task` (newly pending) into the priority index. No-op
    /// without a rank or if already tracked.
    pub fn rank_insert(&mut self, index: &FileIndex, task: TaskId) {
        let t = task.index();
        if let Some(rank) = self.rank.as_mut() {
            let coords = rank.coords(index.task_size(task), self.overlap[t], self.refsum[t]);
            rank.insert(t, coords);
        }
    }

    /// Withdraws `task` (assigned/completed) from the priority index.
    /// No-op without a rank or if not tracked.
    pub fn rank_remove(&mut self, task: TaskId) {
        if let Some(rank) = self.rank.as_mut() {
            rank.remove(task.index());
        }
    }

    /// Bulk-admits `tasks` (ascending, not yet tracked) into a freshly
    /// enabled priority index: per-bucket sorted runs built in one pass,
    /// then loaded via `BTreeSet::from_iter` — equivalent to
    /// [`SiteView::rank_insert`] per task, minus `O(T)` tree inserts per
    /// site.
    ///
    /// # Panics
    ///
    /// Panics if no rank is attached.
    pub fn rank_bulk_admit(&mut self, index: &FileIndex, tasks: &[TaskId]) {
        let rank = self
            .rank
            .as_mut()
            .expect("rank_bulk_admit requires an enabled rank");
        let mut buckets: Vec<Vec<(u64, u32)>> = vec![Vec::new(); rank.buckets.len()];
        for &task in tasks {
            let t = task.index();
            if rank.member[t] {
                continue;
            }
            let (level, key) = rank.coords(index.task_size(task), self.overlap[t], self.refsum[t]);
            buckets[level as usize].push((key, task.0));
            rank.member[t] = true;
            rank.level_of[t] = level;
            rank.key_of[t] = key;
            rank.len += 1;
        }
        for (level, entries) in buckets.into_iter().enumerate() {
            if !entries.is_empty() {
                // A hard assert: silently overwriting a non-empty bucket
                // would drop tracked tasks while member[]/len still count
                // them. Cold path (once per rank enable), so it is free.
                assert!(
                    rank.buckets[level].is_empty(),
                    "rank_bulk_admit into a non-empty bucket (level {level})"
                );
                rank.buckets[level] = entries.into_iter().collect();
            }
        }
    }

    /// Records that `file` became resident with current reference count
    /// `ref_count`.
    pub fn on_file_added(&mut self, index: &FileIndex, file: FileId, ref_count: u32) {
        self.on_file_added_pruning(index, file, ref_count, |_| true);
    }

    /// [`SiteView::on_file_added`] with opportunistic stale repair: a rank
    /// member failing `live` is physically removed instead of marked for
    /// re-filing — the event handler is touching the entry anyway, so the
    /// repair that would otherwise wait for a read at this site comes for
    /// free, and dead entries stop being re-filed at later reads. The
    /// predicate must be the owner's rank-liveness (the same one its reads
    /// pass), or live tasks would vanish from the index.
    pub fn on_file_added_pruning<F: FnMut(TaskId) -> bool>(
        &mut self,
        index: &FileIndex,
        file: FileId,
        ref_count: u32,
        mut live: F,
    ) {
        for &t in index.tasks_of(file) {
            let ti = t as usize;
            self.overlap[ti] += 1;
            self.refsum[ti] += u64::from(ref_count);
            if let Some(rank) = self.rank.as_mut() {
                if !rank.member[ti] {
                    continue;
                }
                if live(TaskId(t)) {
                    rank.mark(ti);
                } else {
                    rank.remove(ti);
                }
            }
        }
    }

    /// Records that `file` was evicted while holding reference count
    /// `ref_count`.
    pub fn on_file_evicted(&mut self, index: &FileIndex, file: FileId, ref_count: u32) {
        self.on_file_evicted_pruning(index, file, ref_count, |_| true);
    }

    /// [`SiteView::on_file_evicted`] with opportunistic stale repair (see
    /// [`SiteView::on_file_added_pruning`]).
    pub fn on_file_evicted_pruning<F: FnMut(TaskId) -> bool>(
        &mut self,
        index: &FileIndex,
        file: FileId,
        ref_count: u32,
        mut live: F,
    ) {
        for &t in index.tasks_of(file) {
            let ti = t as usize;
            self.overlap[ti] -= 1;
            self.refsum[ti] -= u64::from(ref_count);
            if let Some(rank) = self.rank.as_mut() {
                if !rank.member[ti] {
                    continue;
                }
                if live(TaskId(t)) {
                    rank.mark(ti);
                } else {
                    rank.remove(ti);
                }
            }
        }
    }

    /// Records that a task referenced resident `file` (`r_i += 1`).
    pub fn on_task_reference(&mut self, index: &FileIndex, file: FileId) {
        self.on_task_reference_pruning(index, file, |_| true);
    }

    /// [`SiteView::on_task_reference`] with opportunistic stale repair
    /// (see [`SiteView::on_file_added_pruning`]).
    pub fn on_task_reference_pruning<F: FnMut(TaskId) -> bool>(
        &mut self,
        index: &FileIndex,
        file: FileId,
        mut live: F,
    ) {
        for &t in index.tasks_of(file) {
            let ti = t as usize;
            self.refsum[ti] += 1;
            if let Some(rank) = self.rank.as_mut() {
                if !rank.member[ti] {
                    continue;
                }
                if !live(TaskId(t)) {
                    rank.remove(ti);
                } else if rank.metric == WeightMetric::Combined {
                    // Only finite Combined buckets key on references.
                    rank.mark(ti);
                }
            }
        }
    }

    /// Cached `|F_t|`.
    #[must_use]
    pub fn overlap(&self, task: TaskId) -> u32 {
        self.overlap[task.index()]
    }

    /// Cached `Σ r_i` over the resident overlap of `task`.
    #[must_use]
    pub fn refsum(&self, task: TaskId) -> u64 {
        self.refsum[task.index()]
    }

    /// The worker-centric pick straight off the priority index —
    /// equivalent to `chooser.pick(weigh_all(...), rng)` but reading only
    /// the best few bucket heads (`O(log T)` amortized; `Combined`
    /// additionally reads its queue-wide normalisers from the supplied
    /// `combined_totals`, maintained exactly by [`ComboAggregates`]).
    ///
    /// Tasks marked by storage events since the last read are re-filed
    /// first (see the module docs), so every member is read at its
    /// current coordinates.
    ///
    /// Pool membership is lazy: entries failing `live` are skipped *and
    /// physically removed* (each stale entry is repaired at most once), so
    /// the candidate set equals what an eagerly-maintained rank would
    /// hold. It provably contains the full scan's top-`n` (within a bucket
    /// the order matches the argmax tie-break; across buckets every bucket
    /// contributes its first `n` live members), and the weights are
    /// computed with the identical expressions — so the pick, including
    /// its RNG consumption, is bit-identical. Call
    /// [`SiteView::sync_pending`] first so journaled re-inserts are
    /// visible.
    ///
    /// Returns `None` when no live task is tracked.
    ///
    /// # Panics
    ///
    /// Panics if no rank is attached (see [`SiteView::enable_rank`]), or
    /// if the rank orders by [`WeightMetric::Combined`] and
    /// `combined_totals` is `None`.
    pub fn pick_ranked<R, F>(
        &mut self,
        chooser: &ChooseTask,
        rng: &mut R,
        mut live: F,
        combined_totals: Option<(u64, f64)>,
    ) -> Option<TaskId>
    where
        R: Rng + ?Sized,
        F: FnMut(TaskId) -> bool,
    {
        self.stats.picks.incr();
        self.apply_marks();
        let n = chooser.n();
        let mut stale: Vec<u32> = Vec::new();
        let mut cands: Vec<(TaskId, f64)> = Vec::with_capacity(n);
        {
            let rank = self
                .rank
                .as_ref()
                .expect("pick_ranked requires an enabled rank");
            match rank.metric {
                WeightMetric::Overlap => {
                    // Strictly decreasing weight per level: the first n
                    // live tasks in (level desc, id asc) order are the
                    // exact top-n.
                    'levels: for level in (0..rank.buckets.len()).rev() {
                        for &(_, t) in &rank.buckets[level] {
                            if !live(TaskId(t)) {
                                stale.push(t);
                                continue;
                            }
                            cands.push((TaskId(t), level as f64));
                            if cands.len() == n {
                                break 'levels;
                            }
                        }
                    }
                }
                WeightMetric::Rest => {
                    // Strictly decreasing weight as missing grows:
                    // ascending levels yield the exact top-n.
                    'levels: for (level, bucket) in rank.buckets.iter().enumerate() {
                        for &(_, t) in bucket {
                            if !live(TaskId(t)) {
                                stale.push(t);
                                continue;
                            }
                            cands.push((TaskId(t), rest_weight(level)));
                            if cands.len() == n {
                                break 'levels;
                            }
                        }
                    }
                }
                WeightMetric::Combined => {
                    // Weights mix normalised references and rest, so no
                    // single bucket order is globally sorted — but within
                    // a bucket the order is weight-descending, hence the
                    // global top-n is contained in the union of every
                    // bucket's first n live members.
                    let (total_ref, total_rest) =
                        combined_totals.expect("Combined pick needs ComboAggregates totals");
                    for (level, bucket) in rank.buckets.iter().enumerate() {
                        let mut taken = 0;
                        for &(_, t) in bucket {
                            if !live(TaskId(t)) {
                                stale.push(t);
                                continue;
                            }
                            let w = combined_weight(
                                self.refsum[t as usize],
                                rest_weight(level),
                                total_ref,
                                total_rest,
                            );
                            cands.push((TaskId(t), w));
                            taken += 1;
                            if taken == n {
                                break;
                            }
                        }
                    }
                }
            }
        }
        self.repair(&stale);
        chooser.pick(&cands, rng)
    }

    /// Re-files every marked member that is still a member from the
    /// current counters — the deferred half of the storage-event hooks.
    /// Afterwards every member sits at its current coordinates.
    fn apply_marks(&mut self) {
        let Some(rank) = self.rank.as_mut() else {
            return;
        };
        let marks = std::mem::take(&mut rank.marks);
        let mut moved = 0;
        for &t in &marks {
            let t = t as usize;
            rank.marked[t] = false;
            if rank.member[t] {
                let coords = rank.coords(rank.sizes[t], self.overlap[t], self.refsum[t]);
                moved += u64::from(rank.refile(t, coords));
            }
        }
        rank.marks = marks;
        rank.marks.clear();
        self.stats.refiles.add(moved);
    }

    /// Physically removes lazily-discovered stale entries from the rank.
    fn repair(&mut self, stale: &[u32]) {
        if stale.is_empty() {
            return;
        }
        self.stats.repairs.add(stale.len() as u64);
        let rank = self.rank.as_mut().expect("repair follows a ranked read");
        for &t in stale {
            rank.remove(t as usize);
        }
    }

    /// The live task with the largest overlap (ties to the lowest id)
    /// that satisfies `keep`, walking the index in (overlap desc, id asc)
    /// order — the storage-affinity replica selection and the sufferage
    /// fallback.
    ///
    /// `live` is the lazy-membership predicate: entries failing it are
    /// skipped and physically repaired. `keep` is a *transient* caller
    /// filter (e.g. "not already executing at this worker") — entries
    /// failing only `keep` stay in the rank. Marked tasks are re-filed
    /// first, as in [`SiteView::pick_ranked`]. Call
    /// [`SiteView::sync_pending`] first.
    ///
    /// # Panics
    ///
    /// Panics if no rank is attached or the rank does not order by
    /// [`WeightMetric::Overlap`].
    pub fn top_overlap_where<L, K>(&mut self, mut live: L, mut keep: K) -> Option<TaskId>
    where
        L: FnMut(TaskId) -> bool,
        K: FnMut(TaskId) -> bool,
    {
        self.stats.picks.incr();
        self.apply_marks();
        let mut stale: Vec<u32> = Vec::new();
        let mut found = None;
        {
            let rank = self
                .rank
                .as_ref()
                .expect("top_overlap_where requires an enabled rank");
            assert_eq!(
                rank.metric,
                WeightMetric::Overlap,
                "top_overlap_where needs an Overlap-ordered rank"
            );
            'levels: for level in (0..rank.buckets.len()).rev() {
                for &(_, t) in &rank.buckets[level] {
                    let task = TaskId(t);
                    if !live(task) {
                        stale.push(t);
                        continue;
                    }
                    if keep(task) {
                        found = Some(task);
                        break 'levels;
                    }
                }
            }
        }
        self.repair(&stale);
        found
    }

    /// Debug helper: checks this view against ground truth from the store,
    /// and the attached rank (if any) against the view's counters.
    ///
    /// For the rank: every member is filed in exactly one bucket entry at
    /// its recorded coordinates, no bucket holds anything else, `len()`
    /// counts the members, the mark list holds each marked task once, and
    /// every *unmarked* member already sits at
    /// `buckets[level_for(|t|, overlap)]` under `key_for(level, refsum)` —
    /// so applying the pending marks puts every member at its current
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics (in any build) if a cached counter disagrees with the store
    /// or the rank breaks one of the invariants above.
    pub fn assert_consistent(&self, index: &FileIndex, workload: &Workload, store: &SiteStore) {
        for t in workload.tasks() {
            let files = t.files();
            let overlap = store.overlap(files) as u32;
            let refsum = store.overlap_ref_sum(files);
            assert_eq!(
                self.overlap(t.id),
                overlap,
                "overlap mismatch for task {}",
                t.id
            );
            assert_eq!(
                self.refsum(t.id),
                refsum,
                "refsum mismatch for task {}",
                t.id
            );
        }
        let Some(rank) = self.rank.as_ref() else {
            return;
        };
        let mut members = 0;
        for t in workload.tasks() {
            let ti = t.id.index();
            if !rank.member[ti] {
                continue;
            }
            members += 1;
            let filed = (rank.level_of[ti], rank.key_of[ti]);
            assert!(
                rank.buckets[filed.0 as usize].contains(&(filed.1, t.id.0)),
                "rank member {} missing from its bucket",
                t.id
            );
            let current = rank.coords(index.task_size(t.id), self.overlap[ti], self.refsum[ti]);
            assert!(
                rank.marked[ti] || filed == current,
                "unmarked rank member {} filed at {filed:?}, belongs at {current:?}",
                t.id
            );
        }
        assert_eq!(rank.len, members, "rank len disagrees with its members");
        let entries: usize = rank.buckets.iter().map(BTreeSet::len).sum();
        assert_eq!(entries, members, "bucket entries disagree with the members");
        let marked = rank.marked.iter().filter(|&&m| m).count();
        assert_eq!(rank.marks.len(), marked, "mark list out of step");
        assert!(
            rank.marks.iter().all(|&t| rank.marked[t as usize]),
            "mark list holds an unmarked task"
        );
    }
}

/// Attaches a `metric`-ordered priority index to every view and admits the
/// current pending pool — the shared initialize-time step of every
/// incremental-mode scheduler. Admission is bulk: per-bucket sorted runs
/// handed to `BTreeSet::from_iter` (which bulk-builds), instead of
/// `S × T` individual tree inserts.
pub fn enable_ranks(
    views: &mut [SiteView],
    metric: WeightMetric,
    index: &FileIndex,
    pool: &TaskPool,
) {
    let pending: Vec<TaskId> = pool.iter().collect();
    for view in views {
        view.enable_rank(metric, index);
        view.rank_bulk_admit(index, &pending);
    }
}

/// Exact, sparsely-maintained queue-wide normalisers for the `combined`
/// metric — `totalRef` and the per-missing-count histogram behind
/// `totalRest` — for **every** site at once.
///
/// The naive definition is per-site and per-membership:
/// `totalRef(s) = Σ_{t pending} refsum_s(t)` and
/// `counts_s[m] = #{t pending : missing_s(t) = m}` — maintaining these
/// eagerly costs `O(S)` per pool insert/remove, the broadcast this module
/// eliminates. Two observations make the maintenance sparse:
///
/// * a task with **zero overlap** at a site contributes `refsum = 0` and
///   `missing = |t|` there — so a global `pending_by_size` histogram is a
///   correct baseline for every site, and each site only needs a
///   *correction* for its nonzero-overlap pending tasks;
/// * a task has nonzero overlap exactly at the sites holding at least one
///   of its files — enumerable from per-file **residency lists** in
///   `O(Σ_f |sites holding f|)`, independent of `S` for data-local
///   workloads.
///
/// Storage events stay site-local (`O(tasks reading the file)`), exactly
/// like the [`SiteView`] counter maintenance they piggyback on. All
/// arithmetic is integer, so the totals are bit-exact; `totalRest` is
/// produced by feeding the reconstructed histogram through the canonical
/// [`total_rest_from_counts`] accumulation.
///
/// Event routing (the owner must keep this in lock-step with the views;
/// all hooks take the *already updated* [`SiteView`] of the event's site):
/// [`ComboAggregates::on_file_added`] / [`ComboAggregates::on_file_evicted`]
/// / [`ComboAggregates::on_task_reference`] after the view update, and
/// [`ComboAggregates::on_pool_remove`] / [`ComboAggregates::on_pool_insert`]
/// on membership changes.
#[derive(Debug, Clone)]
pub struct ComboAggregates {
    /// Baseline histogram: `#pending tasks with |t| = k` (global).
    pending_by_size: Vec<i64>,
    /// Per-site corrections, flattened `site * levels + m`: for each
    /// pending task with nonzero overlap at the site,
    /// `[missing = m] − [|t| = m]`.
    corr: Vec<i64>,
    /// Per-site `Σ refsum` over pending tasks (zero-overlap tasks
    /// contribute zero, so only nonzero-overlap sites ever adjust this).
    total_ref: Vec<u64>,
    /// `residency[f]` — sites currently holding file `f`.
    residency: Vec<Vec<u32>>,
    /// Site-dedup scratch for membership sweeps (stamp pattern).
    seen: Vec<u64>,
    stamp: u64,
    levels: usize,
}

impl ComboAggregates {
    /// Aggregates for `sites` initially-**empty** site stores over the
    /// current pending pool. Pre-populated stores must be seeded through
    /// [`ComboAggregates::on_file_added`], file by file, after the
    /// corresponding view update.
    #[must_use]
    pub fn new(index: &FileIndex, pool: &TaskPool, sites: usize) -> Self {
        let levels = index.max_task_size() as usize + 1;
        let mut pending_by_size = vec![0i64; levels];
        for t in pool.iter() {
            pending_by_size[index.task_size(t) as usize] += 1;
        }
        ComboAggregates {
            pending_by_size,
            corr: vec![0; sites * levels],
            total_ref: vec![0; sites],
            residency: vec![Vec::new(); index.file_count()],
            seen: vec![0; sites],
            stamp: 0,
            levels,
        }
    }

    /// The exact `(totalRef, totalRest)` pair for `site`, over the current
    /// pending pool — `O(levels)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if a reconstructed count is negative — an event was
    /// routed out of lock-step.
    #[must_use]
    pub fn totals(&self, site: usize) -> (u64, f64) {
        let corr = &self.corr[site * self.levels..(site + 1) * self.levels];
        let total_rest = total_rest_from_counts((0..self.levels).map(|m| {
            let count = self.pending_by_size[m] + corr[m];
            debug_assert!(count >= 0, "negative count at level {m}");
            count as u32
        }));
        (self.total_ref[site], total_rest)
    }

    /// `file` became resident at `site` with reference count `ref_count`;
    /// `view` is the site's view, already updated.
    pub fn on_file_added(
        &mut self,
        site: usize,
        index: &FileIndex,
        view: &SiteView,
        file: FileId,
        ref_count: u32,
        pool: &TaskPool,
    ) {
        self.residency[file.index()].push(site as u32);
        let corr = &mut self.corr[site * self.levels..(site + 1) * self.levels];
        for &t in index.tasks_of(file) {
            let task = TaskId(t);
            if !pool.contains(task) {
                continue;
            }
            // Overlap rose by one, so the task misses one file fewer. When
            // it just joined the nonzero-overlap set, the old "missing"
            // equals |t| — exactly the baseline slot its correction must
            // now cancel, so the uniform two-slot update covers both cases.
            let m_new = (index.task_size(task) - view.overlap(task)) as usize;
            corr[m_new + 1] -= 1;
            corr[m_new] += 1;
            self.total_ref[site] += u64::from(ref_count);
        }
    }

    /// `file` was evicted at `site` while holding `ref_count`; `view` is
    /// the site's view, already updated.
    pub fn on_file_evicted(
        &mut self,
        site: usize,
        index: &FileIndex,
        view: &SiteView,
        file: FileId,
        ref_count: u32,
        pool: &TaskPool,
    ) {
        let slot = self.residency[file.index()]
            .iter()
            .position(|&s| s == site as u32)
            .expect("evicted file was resident");
        self.residency[file.index()].swap_remove(slot);
        let corr = &mut self.corr[site * self.levels..(site + 1) * self.levels];
        for &t in index.tasks_of(file) {
            let task = TaskId(t);
            if !pool.contains(task) {
                continue;
            }
            let m_new = (index.task_size(task) - view.overlap(task)) as usize;
            corr[m_new - 1] -= 1;
            corr[m_new] += 1;
            self.total_ref[site] -= u64::from(ref_count);
        }
    }

    /// A task at `site` referenced resident `file` (`r_i += 1`): every
    /// pending reader's refsum rose by one.
    pub fn on_task_reference(
        &mut self,
        site: usize,
        index: &FileIndex,
        file: FileId,
        pool: &TaskPool,
    ) {
        let pending_readers = index
            .tasks_of(file)
            .iter()
            .filter(|&&t| pool.contains(TaskId(t)))
            .count() as u64;
        self.total_ref[site] += pending_readers;
    }

    /// `task` (input set `files`) left the pending pool. Touches only the
    /// sites where the task has nonzero overlap, via the residency lists.
    pub fn on_pool_remove(
        &mut self,
        index: &FileIndex,
        task: TaskId,
        files: &[FileId],
        views: &[SiteView],
    ) {
        let size = index.task_size(task) as usize;
        self.pending_by_size[size] -= 1;
        self.for_each_overlap_site(files, |aggr, site| {
            let view = &views[site];
            let m = size - view.overlap(task) as usize;
            let corr = &mut aggr.corr[site * aggr.levels..(site + 1) * aggr.levels];
            corr[m] -= 1;
            corr[size] += 1;
            aggr.total_ref[site] -= view.refsum(task);
        });
    }

    /// `task` (input set `files`) re-joined the pending pool.
    pub fn on_pool_insert(
        &mut self,
        index: &FileIndex,
        task: TaskId,
        files: &[FileId],
        views: &[SiteView],
    ) {
        let size = index.task_size(task) as usize;
        self.pending_by_size[size] += 1;
        self.for_each_overlap_site(files, |aggr, site| {
            let view = &views[site];
            let m = size - view.overlap(task) as usize;
            let corr = &mut aggr.corr[site * aggr.levels..(site + 1) * aggr.levels];
            corr[m] += 1;
            corr[size] -= 1;
            aggr.total_ref[site] += view.refsum(task);
        });
    }

    /// Visits each distinct site holding at least one of `files` — exactly
    /// the sites where the owning task's overlap is nonzero.
    fn for_each_overlap_site<F: FnMut(&mut Self, usize)>(&mut self, files: &[FileId], mut f: F) {
        self.stamp += 1;
        let stamp = self.stamp;
        for &file in files {
            let sites = std::mem::take(&mut self.residency[file.index()]);
            for &s in &sites {
                let s = s as usize;
                if self.seen[s] != stamp {
                    self.seen[s] = stamp;
                    f(self, s);
                }
            }
            self.residency[file.index()] = sites;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_storage::EvictionPolicy;
    use gridsched_workload::TaskSpec;

    fn wl() -> Workload {
        Workload::new(
            vec![
                TaskSpec::new(TaskId(0), vec![FileId(0), FileId(1)], 0.0),
                TaskSpec::new(TaskId(1), vec![FileId(1), FileId(2)], 0.0),
                TaskSpec::new(TaskId(2), vec![FileId(2), FileId(3)], 0.0),
            ],
            4,
            1.0,
            "w",
        )
    }

    #[test]
    fn index_layout() {
        let idx = FileIndex::build(&wl());
        assert_eq!(idx.file_count(), 4);
        assert_eq!(idx.task_count(), 3);
        assert_eq!(idx.tasks_of(FileId(1)), &[0, 1]);
        assert_eq!(idx.tasks_of(FileId(3)), &[2]);
        assert_eq!(idx.task_size(TaskId(0)), 2);
    }

    #[test]
    fn view_tracks_store() {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut store = SiteStore::new(10, EvictionPolicy::Lru);
        let mut view = SiteView::new(3);

        store.insert(FileId(1));
        view.on_file_added(&idx, FileId(1), store.ref_count(FileId(1)));
        assert_eq!(view.overlap(TaskId(0)), 1);
        assert_eq!(view.overlap(TaskId(1)), 1);
        assert_eq!(view.overlap(TaskId(2)), 0);

        store.record_task_reference(FileId(1));
        view.on_task_reference(&idx, FileId(1));
        assert_eq!(view.refsum(TaskId(0)), 1);

        view.assert_consistent(&idx, &workload, &store);
    }

    #[test]
    fn eviction_rolls_back_counters() {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut store = SiteStore::new(1, EvictionPolicy::Lru);
        let mut view = SiteView::new(3);

        store.insert(FileId(1));
        view.on_file_added(&idx, FileId(1), store.ref_count(FileId(1)));
        store.record_task_reference(FileId(1));
        view.on_task_reference(&idx, FileId(1));

        // Inserting file 2 evicts file 1 (capacity 1).
        let ref_before = store.ref_count(FileId(1));
        let evicted = store.insert(FileId(2));
        assert_eq!(evicted, vec![FileId(1)]);
        view.on_file_evicted(&idx, FileId(1), ref_before);
        view.on_file_added(&idx, FileId(2), store.ref_count(FileId(2)));

        view.assert_consistent(&idx, &workload, &store);
        assert_eq!(view.overlap(TaskId(0)), 0);
        assert_eq!(view.refsum(TaskId(0)), 0);
    }
}

#[cfg(test)]
mod rank_tests {
    use super::*;
    use gridsched_storage::EvictionPolicy;
    use gridsched_workload::TaskSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn wl() -> Workload {
        Workload::new(
            vec![
                TaskSpec::new(TaskId(0), vec![FileId(0), FileId(1)], 0.0),
                TaskSpec::new(TaskId(1), vec![FileId(1), FileId(2)], 0.0),
                TaskSpec::new(TaskId(2), vec![FileId(2), FileId(3)], 0.0),
                TaskSpec::new(TaskId(3), vec![FileId(0), FileId(3)], 0.0),
            ],
            4,
            1.0,
            "w",
        )
    }

    fn ranked_view(metric: WeightMetric, resident: &[u32]) -> (FileIndex, SiteView, SiteStore) {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut store = SiteStore::new(10, EvictionPolicy::Lru);
        let mut view = SiteView::new(4);
        view.enable_rank(metric, &idx);
        for t in 0..4 {
            view.rank_insert(&idx, TaskId(t));
        }
        for &f in resident {
            store.insert(FileId(f));
            view.on_file_added(&idx, FileId(f), store.ref_count(FileId(f)));
        }
        (idx, view, store)
    }

    #[test]
    fn ranked_overlap_pick_is_argmax() {
        let (_, mut view, _) = ranked_view(WeightMetric::Overlap, &[2, 3]);
        let mut rng = StdRng::seed_from_u64(0);
        // Task 2 overlaps {2,3} fully; deterministic argmax.
        assert_eq!(
            view.pick_ranked(&ChooseTask::new(1), &mut rng, |_| true, None),
            Some(TaskId(2))
        );
    }

    #[test]
    fn ranked_rest_prefers_zero_missing() {
        let (_, mut view, _) = ranked_view(WeightMetric::Rest, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            view.pick_ranked(&ChooseTask::new(1), &mut rng, |_| true, None),
            Some(TaskId(0)),
            "task 0 needs zero transfers"
        );
    }

    #[test]
    fn ranked_tracks_lazy_membership() {
        // Membership is conveyed through the `live` predicate + the
        // PendingLog, never by touching the rank directly.
        let (idx, mut view, _) = ranked_view(WeightMetric::Overlap, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(0);
        let chooser = ChooseTask::new(1);
        let mut pool = TaskPool::full(4);
        let mut log = PendingLog::new();
        let mut pick = |view: &mut SiteView, pool: &TaskPool, log: &PendingLog| {
            view.sync_pending(&idx, log, |t| pool.contains(t));
            view.pick_ranked(&chooser, &mut rng, |t| pool.contains(t), None)
        };
        assert_eq!(pick(&mut view, &pool, &log), Some(TaskId(0)));
        pool.remove(TaskId(0));
        assert_eq!(pick(&mut view, &pool, &log), Some(TaskId(1)));
        // The stale entry was physically repaired during the read.
        assert_eq!(view.rank().expect("enabled").len(), 3);
        pool.insert(TaskId(0));
        log.record(TaskId(0), std::slice::from_mut(&mut view));
        assert_eq!(pick(&mut view, &pool, &log), Some(TaskId(0)));
        for t in 0..4 {
            pool.remove(TaskId(t));
        }
        assert_eq!(pick(&mut view, &pool, &log), None);
        assert!(view.rank().expect("enabled").is_empty(), "all repaired");
    }

    #[test]
    fn rank_stats_count_picks_replays_and_repairs() {
        let (idx, mut view, _) = ranked_view(WeightMetric::Overlap, &[0, 1]);
        let telemetry = Telemetry::enabled();
        view.set_stats(RankStats::attach(&telemetry));
        let mut pool = TaskPool::full(4);
        let log = PendingLog::new();
        view.sync_pending(&idx, &log, |t| pool.contains(t));
        // Task 0 (overlap 2, the bucket head) goes stale in place; the next
        // ranked read must skip and physically repair it.
        pool.remove(TaskId(0));
        let mut rng = StdRng::seed_from_u64(0);
        let picked = view.pick_ranked(&ChooseTask::new(1), &mut rng, |t| pool.contains(t), None);
        assert_eq!(picked, Some(TaskId(1)));
        assert_eq!(telemetry.counter("scheduler.rank.picks").get(), 1);
        assert_eq!(telemetry.counter("scheduler.rank.repairs").get(), 1);
        assert_eq!(telemetry.counter("scheduler.pending_log.replays").get(), 1);
        let lens = telemetry.histogram("scheduler.pending_log.replay_len");
        assert_eq!(lens.count(), 1, "one sync call, zero entries replayed");
        assert_eq!(lens.sum(), 0);
    }

    #[test]
    fn top_overlap_where_filters() {
        let (_, mut view, _) = ranked_view(WeightMetric::Overlap, &[2, 3]);
        assert_eq!(view.top_overlap_where(|_| true, |_| true), Some(TaskId(2)));
        assert_eq!(
            view.top_overlap_where(|_| true, |t| t != TaskId(2)),
            Some(TaskId(1)),
            "next-best overlap after filtering the argmax"
        );
        assert_eq!(view.top_overlap_where(|_| true, |_| false), None);
        // A transient `keep` filter must not shrink the rank...
        assert_eq!(view.rank().expect("enabled").len(), 4);
        // ...but a failing `live` predicate repairs the walked entries.
        assert_eq!(view.top_overlap_where(|_| false, |_| true), None);
        assert!(view.rank().expect("enabled").is_empty());
    }

    #[test]
    fn combo_aggregates_track_membership_and_storage() {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut pool = TaskPool::full(4);
        let mut combo = ComboAggregates::new(&idx, &pool, 2);
        let mut views = vec![SiteView::new(4), SiteView::new(4)];
        let mut store = SiteStore::new(2, EvictionPolicy::Lru);

        // Baseline (empty stores): totalRef 0, counts all at |t| = 2.
        let naive_totals = |pool: &TaskPool, store: &SiteStore| {
            let mut total_ref = 0u64;
            let mut counts: Vec<u32> = Vec::new();
            for t in pool.iter() {
                let files = workload.task(t).files();
                let missing = files.len() - store.overlap(files);
                total_ref += store.overlap_ref_sum(files);
                if missing >= counts.len() {
                    counts.resize(missing + 1, 0);
                }
                counts[missing] += 1;
            }
            (total_ref, total_rest_from_counts(counts))
        };
        let check = |combo: &ComboAggregates, pool: &TaskPool, store: &SiteStore| {
            let (r, rest) = combo.totals(0);
            let (nr, nrest) = naive_totals(pool, store);
            assert_eq!(r, nr);
            assert_eq!(rest.to_bits(), nrest.to_bits(), "bit-identical totalRest");
        };
        check(&combo, &pool, &store);

        // File events at site 0.
        for f in [1u32, 2] {
            store.insert(FileId(f));
            views[0].on_file_added(&idx, FileId(f), store.ref_count(FileId(f)));
            combo.on_file_added(
                0,
                &idx,
                &views[0],
                FileId(f),
                store.ref_count(FileId(f)),
                &pool,
            );
        }
        store.record_task_reference(FileId(1));
        views[0].on_task_reference(&idx, FileId(1));
        combo.on_task_reference(0, &idx, FileId(1), &pool);
        check(&combo, &pool, &store);

        // Membership: remove a nonzero-overlap task, then re-admit it.
        let files1: Vec<FileId> = workload.task(TaskId(1)).files().to_vec();
        pool.remove(TaskId(1));
        combo.on_pool_remove(&idx, TaskId(1), &files1, &views);
        check(&combo, &pool, &store);
        pool.insert(TaskId(1));
        combo.on_pool_insert(&idx, TaskId(1), &files1, &views);
        check(&combo, &pool, &store);

        // Eviction (capacity 2, LRU) rolls the correction back.
        let evicted = store.insert(FileId(3));
        assert_eq!(evicted.len(), 1, "capacity 2 forces one eviction");
        for e in evicted {
            let rc = store.ref_count(e);
            views[0].on_file_evicted(&idx, e, rc);
            combo.on_file_evicted(0, &idx, &views[0], e, rc, &pool);
        }
        views[0].on_file_added(&idx, FileId(3), store.ref_count(FileId(3)));
        combo.on_file_added(
            0,
            &idx,
            &views[0],
            FileId(3),
            store.ref_count(FileId(3)),
            &pool,
        );
        check(&combo, &pool, &store);

        // Site 1 never saw a file: its totals stay at the baseline.
        let (r1, _) = combo.totals(1);
        assert_eq!(r1, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gridsched_storage::EvictionPolicy;
    use gridsched_workload::TaskSpec;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32),
        Reference(u32),
        RemoveTask(u32),
        /// Take the `k`-th marked task (modulo the mark count) out of the
        /// pool; with `true`, requeue it through the journal at once.
        ToggleMarked(u32, bool),
        /// A ranked read, checked against the naive scan.
        Read,
    }

    fn arb_workload() -> impl Strategy<Value = Workload> {
        // 3..10 tasks over 12 files, 1..6 files each.
        proptest::collection::vec(proptest::collection::btree_set(0u32..12, 1..6), 3..10).prop_map(
            |task_files| {
                let tasks: Vec<TaskSpec> = task_files
                    .into_iter()
                    .enumerate()
                    .map(|(i, fs)| {
                        TaskSpec::new(TaskId(i as u32), fs.into_iter().map(FileId).collect(), 0.0)
                    })
                    .collect();
                Workload::new(tasks, 12, 1.0, "prop")
            },
        )
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            (0u32..12).prop_map(Op::Insert),
            (0u32..12).prop_map(Op::Reference),
            (0u32..10).prop_map(Op::RemoveTask),
        ];
        proptest::collection::vec(op, 0..60)
    }

    /// Storage and membership ops with reads only at random points, so
    /// several events (and membership flips of marked tasks) pile up
    /// between two reads.
    fn arb_burst_ops() -> impl Strategy<Value = Vec<Op>> {
        let op = (0u32..12, 0u32..12, any::<bool>()).prop_map(|(kind, x, now)| match kind {
            0..=3 => Op::Insert(x),
            4..=6 => Op::Reference(x),
            7 => Op::RemoveTask(x),
            8 | 9 => Op::ToggleMarked(x, now),
            _ => Op::Read,
        });
        proptest::collection::vec(op, 0..80)
    }

    /// One site driven the way the schedulers drive theirs: pruning
    /// storage hooks with the pool as the liveness predicate, removals
    /// that touch no rank, requeues through the journal.
    struct RankedSite {
        workload: Workload,
        idx: FileIndex,
        store: SiteStore,
        view: SiteView,
        pool: TaskPool,
        combo: ComboAggregates,
        log: PendingLog,
    }

    impl RankedSite {
        fn new(workload: Workload, cap: usize, metric: WeightMetric) -> Self {
            let idx = FileIndex::build(&workload);
            let pool = TaskPool::full(workload.task_count());
            let mut view = SiteView::new(workload.task_count());
            enable_ranks(std::slice::from_mut(&mut view), metric, &idx, &pool);
            RankedSite {
                combo: ComboAggregates::new(&idx, &pool, 1),
                store: SiteStore::new(cap, EvictionPolicy::Lru),
                log: PendingLog::new(),
                workload,
                idx,
                view,
                pool,
            }
        }

        fn apply(&mut self, op: &Op) {
            let RankedSite {
                idx,
                store,
                view,
                pool,
                combo,
                ..
            } = self;
            match *op {
                Op::Insert(f) => {
                    let f = FileId(f);
                    if !store.contains(f) {
                        for e in store.insert(f) {
                            let rc = store.ref_count(e);
                            view.on_file_evicted_pruning(idx, e, rc, |t| pool.contains(t));
                            combo.on_file_evicted(0, idx, view, e, rc, pool);
                        }
                        let rc = store.ref_count(f);
                        view.on_file_added_pruning(idx, f, rc, |t| pool.contains(t));
                        combo.on_file_added(0, idx, view, f, rc, pool);
                    }
                }
                Op::Reference(f) => {
                    let f = FileId(f);
                    if store.contains(f) {
                        store.record_task_reference(f);
                        view.on_task_reference_pruning(idx, f, |t| pool.contains(t));
                        combo.on_task_reference(0, idx, f, pool);
                    }
                }
                Op::RemoveTask(t) => {
                    if (t as usize) < self.workload.task_count() {
                        self.toggle(TaskId(t));
                    }
                }
                Op::ToggleMarked(k, requeue) => {
                    let marks = &view.rank().expect("enabled").marks;
                    if !marks.is_empty() {
                        let t = TaskId(marks[k as usize % marks.len()]);
                        if self.pool.contains(t) {
                            self.toggle(t);
                            if requeue {
                                self.toggle(t);
                            }
                        }
                    }
                }
                Op::Read => {}
            }
        }

        /// Flips `t`'s pool membership: a removal touches no rank, an
        /// insert is journaled.
        fn toggle(&mut self, t: TaskId) {
            let files: Vec<FileId> = self.workload.task(t).files().to_vec();
            let views = std::slice::from_ref(&self.view);
            if self.pool.remove(t) {
                self.combo.on_pool_remove(&self.idx, t, &files, views);
            } else {
                self.pool.insert(t);
                self.combo.on_pool_insert(&self.idx, t, &files, views);
                self.log.record(t, std::slice::from_mut(&mut self.view));
            }
        }

        fn sync(&mut self) {
            let pool = &self.pool;
            self.view
                .sync_pending(&self.idx, &self.log, |t| pool.contains(t));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A view with no rank attached — the one `Sufferage`'s naive scan
        /// reads — keeps its cached overlap and reference sums equal to
        /// the store's across storage churn and pool removals.
        #[test]
        fn view_counters_match_store(
            workload in arb_workload(),
            ops in arb_ops(),
            cap in 1usize..8,
        ) {
            let idx = FileIndex::build(&workload);
            let mut store = SiteStore::new(cap, EvictionPolicy::Lru);
            let mut view = SiteView::new(workload.task_count());
            let mut pool = TaskPool::full(workload.task_count());
            for op in ops {
                let live = |t: TaskId| pool.contains(t);
                match op {
                    Op::Insert(f) => {
                        let f = FileId(f);
                        if !store.contains(f) {
                            let evicted = store.insert(f);
                            for e in evicted {
                                view.on_file_evicted_pruning(&idx, e, store.ref_count(e), live);
                            }
                            view.on_file_added_pruning(&idx, f, store.ref_count(f), live);
                        }
                    }
                    Op::Reference(f) => {
                        let f = FileId(f);
                        if store.contains(f) {
                            store.record_task_reference(f);
                            view.on_task_reference_pruning(&idx, f, live);
                        }
                    }
                    Op::RemoveTask(t) => {
                        if (t as usize) < workload.task_count() {
                            pool.remove(TaskId(t));
                        }
                    }
                    Op::ToggleMarked(..) | Op::Read => unreachable!("not generated by arb_ops"),
                }
                view.assert_consistent(&idx, &workload, &store);
            }
        }

        /// The ranked pick — lazy membership (stale filtering + PendingLog
        /// replay), `ComboAggregates` normalisers, candidate selection off
        /// the bucket heads — makes the same choice as the full naive scan
        /// + `ChooseTask`, consuming the RNG identically, across storage
        /// churn and pool membership changes.
        #[test]
        fn ranked_pick_matches_naive_scan(
            workload in arb_workload(),
            ops in arb_ops(),
            cap in 1usize..8,
            metric_ix in 0usize..3,
            n in 1usize..4,
            seed in 0u64..8,
        ) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;

            let metric = [WeightMetric::Overlap, WeightMetric::Rest, WeightMetric::Combined][metric_ix];
            let chooser = ChooseTask::new(n);
            let idx = FileIndex::build(&workload);
            let mut store = SiteStore::new(cap, EvictionPolicy::Lru);
            let mut view = SiteView::new(workload.task_count());
            view.enable_rank(metric, &idx);
            let mut pool = TaskPool::full(workload.task_count());
            for t in pool.iter().collect::<Vec<_>>() {
                view.rank_insert(&idx, t);
            }
            let mut combo = ComboAggregates::new(&idx, &pool, 1);
            let mut log = PendingLog::new();
            let mut rng_naive = StdRng::seed_from_u64(seed);
            let mut rng_ranked = StdRng::seed_from_u64(seed);
            for op in ops {
                match op {
                    Op::Insert(f) => {
                        let f = FileId(f);
                        if !store.contains(f) {
                            let evicted = store.insert(f);
                            for e in evicted {
                                view.on_file_evicted(&idx, e, store.ref_count(e));
                                combo.on_file_evicted(0, &idx, &view, e, store.ref_count(e), &pool);
                            }
                            view.on_file_added(&idx, f, store.ref_count(f));
                            combo.on_file_added(0, &idx, &view, f, store.ref_count(f), &pool);
                        }
                    }
                    Op::Reference(f) => {
                        let f = FileId(f);
                        if store.contains(f) {
                            store.record_task_reference(f);
                            view.on_task_reference(&idx, f);
                            combo.on_task_reference(0, &idx, f, &pool);
                        }
                    }
                    Op::RemoveTask(t) => {
                        // Toggle pool membership to exercise requeues: a
                        // removal touches no rank (lazy), an insert goes
                        // through the journal.
                        if (t as usize) < workload.task_count() {
                            let t = TaskId(t);
                            let files: Vec<FileId> = workload.task(t).files().to_vec();
                            if pool.contains(t) {
                                pool.remove(t);
                                combo.on_pool_remove(&idx, t, &files, std::slice::from_ref(&view));
                            } else {
                                pool.insert(t);
                                combo.on_pool_insert(&idx, t, &files, std::slice::from_ref(&view));
                                log.record(t, std::slice::from_mut(&mut view));
                            }
                        }
                    }
                    Op::ToggleMarked(..) | Op::Read => unreachable!("not generated by arb_ops"),
                }
                let weights = crate::weight::weigh_all_naive(metric, &workload, &pool, &store);
                let naive = chooser.pick(&weights, &mut rng_naive);
                let totals = (metric == WeightMetric::Combined).then(|| combo.totals(0));
                view.sync_pending(&idx, &log, |t| pool.contains(t));
                let ranked = view.pick_ranked(&chooser, &mut rng_ranked, |t| pool.contains(t), totals);
                prop_assert_eq!(naive, ranked, "metric {} n {}", metric, n);
            }
        }

        /// Deferred re-filing under bursts: many storage events, and pool
        /// flips of marked tasks, between two reads. Every read still
        /// makes the naive scan's pick with the same RNG draws, and leaves
        /// the rank consistent.
        #[test]
        fn burst_ranked_pick_matches_naive_scan(
            workload in arb_workload(),
            ops in arb_burst_ops(),
            cap in 1usize..8,
            metric_ix in 0usize..3,
            n in 1usize..4,
            seed in 0u64..8,
        ) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;

            let metric = [WeightMetric::Overlap, WeightMetric::Rest, WeightMetric::Combined][metric_ix];
            let chooser = ChooseTask::new(n);
            let mut site = RankedSite::new(workload, cap, metric);
            let mut rng_naive = StdRng::seed_from_u64(seed);
            let mut rng_ranked = StdRng::seed_from_u64(seed);
            for op in ops.iter().chain([&Op::Read]) {
                site.apply(op);
                if !matches!(op, Op::Read) {
                    continue;
                }
                let weights = crate::weight::weigh_all_naive(metric, &site.workload, &site.pool, &site.store);
                let naive = chooser.pick(&weights, &mut rng_naive);
                let totals = (metric == WeightMetric::Combined).then(|| site.combo.totals(0));
                site.sync();
                let pool = &site.pool;
                let ranked = site.view.pick_ranked(&chooser, &mut rng_ranked, |t| pool.contains(t), totals);
                prop_assert_eq!(naive, ranked, "metric {} n {}", metric, n);
                site.view.assert_consistent(&site.idx, &site.workload, &site.store);
                prop_assert!(site.view.rank().expect("enabled").marks.is_empty());
            }
        }

        /// The same bursts through `top_overlap_where`, with a `keep`
        /// filter that changes from read to read: the result is the
        /// highest-overlap pending task passing `keep`, lowest id on ties.
        #[test]
        fn burst_top_overlap_matches_naive_scan(
            workload in arb_workload(),
            ops in arb_burst_ops(),
            cap in 1usize..8,
            modulus in 2u32..4,
        ) {
            let mut site = RankedSite::new(workload, cap, WeightMetric::Overlap);
            let mut reads = 0u32;
            for op in ops.iter().chain([&Op::Read]) {
                site.apply(op);
                if !matches!(op, Op::Read) {
                    continue;
                }
                reads += 1;
                let keep = |t: TaskId| !(t.0 + reads).is_multiple_of(modulus);
                let mut naive: Option<(TaskId, usize)> = None;
                for t in site.pool.iter().filter(|&t| keep(t)) {
                    let overlap = site.store.overlap(site.workload.task(t).files());
                    if naive.is_none_or(|(_, best)| overlap > best) {
                        naive = Some((t, overlap));
                    }
                }
                site.sync();
                let pool = &site.pool;
                let ranked = site.view.top_overlap_where(|t| pool.contains(t), keep);
                prop_assert_eq!(naive.map(|(t, _)| t), ranked);
                site.view.assert_consistent(&site.idx, &site.workload, &site.store);
            }
        }
    }
}
