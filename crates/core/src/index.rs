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
//! ## Counters by metric
//!
//! A [`SiteView`] is built for one [`WeightMetric`] and keeps only the
//! counters that metric reads. Every view keeps `overlap` (`|F_t|`). Only
//! `Combined` reads past references, so only a `Combined` view keeps
//! `refsum` (`ref_t = Σ r_i`), the site's share of the queue-wide
//! normalisers, and a rank keyed by references. Views for `Overlap` and
//! `Rest` — worker-centric overlap/rest, storage affinity and sufferage —
//! hold 10 bytes per task (`overlap`, and the rank's member flag, level
//! and mark) instead of 26, and ignore references entirely: their owners
//! forward none. A `Combined` owner forwards each task start's references
//! in one batch, [`SiteView::on_files_referenced`].
//!
//! A scan over those counters per decision would still be an `O(T²)` run,
//! which caps the engine far below 10⁵ workers. The same storage-change
//! notifications therefore also maintain a **priority index**: each
//! [`SiteView`] carries a [`TaskRank`] that buckets tasks by their (small
//! integer) overlap or missing-file count, each bucket an ordered set. A
//! scheduling decision then degenerates to reading the best few bucket
//! heads — `O(log T)` amortized — instead of scanning the pool.
//!
//! ## Sparse site ranks over one shared cold rank
//!
//! A task has nonzero overlap at only a few sites — about 5 of 40 in a
//! data-local grid, and fewer as the grid widens — and at every other site
//! it sits at the same *zero-overlap coordinates*: level `|t|` (level 0
//! for `Overlap`), reference sum 0. So the ranks are split in two:
//!
//! * a site's [`TaskRank`] holds only the **rank-live** tasks (pending,
//!   and below the replica cap for storage affinity) with nonzero overlap
//!   at that site, filed at their real (level, key);
//! * one [`ColdRank`], shared by every view of a scheduler, holds every
//!   rank-live task at its zero-overlap coordinates, ordered by id.
//!
//! A ranked read merges the two: it walks the site rank as before and
//! takes cold members too, skipping a cold member whose overlap at the
//! reading site is nonzero — that member is *shadowed*, already in the
//! site rank at its real coordinates.
//!
//! Membership is eager and sparse. A pool removal or insertion
//! ([`ColdRank::remove`] / [`ColdRank::insert`]) updates the cold rank
//! once and the rank of each site where the task has nonzero overlap —
//! read off a per-task site list that the storage hooks keep current
//! whenever a site's overlap for the task goes 0→1 or 1→0. A change
//! therefore costs `O(sites overlapping the task)`, flat in the site
//! count for data-local workloads, and a read never meets a task that is
//! not rank-live.
//!
//! The `combined` metric's queue-wide normalisers need per-site counts of
//! rank-live tasks by missing-file count. The cold rank's bucket sizes are
//! that histogram for a site where no task has overlap, and once the marks
//! are filed the site rank's bucket sizes are the histogram of the
//! nonzero-overlap tasks. The two overlap in the site rank's members, each
//! counted a second time in the cold bucket of its `|t|`, so a `Combined`
//! view keeps a count of its members by `|t|` — it changes only when a
//! task enters or leaves the site rank — and reads level `m` as
//! `cold[m] + site[m] − members of size m` (see
//! [`SiteView::combined_totals`]). It also keeps `Σ refsum` over the
//! rank-live tasks (a zero-overlap task contributes 0), updated in the same
//! pass over a file's readers that maintains the counters.
//!
//! ### Why every pick is unchanged
//!
//! [`ChooseTask::pick`] keeps the top `n` of its candidates in
//! (weight desc, id asc) order, a total order, and then samples; so it
//! depends only on which tasks are the global top `n`, not on the order or
//! number of the other candidates. A ranked read therefore only has to
//! hand over a candidate set containing the global top `n`:
//!
//! * `Overlap` and `Rest` weights fall strictly from level to level and
//!   are equal within one, so the read walks levels best-first and, at
//!   each level, takes the shortfall's worth of members from the site
//!   bucket and of unshadowed members from the cold bucket (both in id
//!   order) until it holds `n`. A shadowed member of a cold level the walk
//!   reaches sits in the site rank at a better level, which held fewer
//!   than `n` members, so the walk skips fewer than `n` of them;
//! * a `Combined` site bucket is ordered by (reference sum desc, id asc),
//!   which is (weight desc, id asc), so the first `n` of every site bucket
//!   contain that bucket's share of the top `n`. The read adds the first
//!   `n` unshadowed cold members in (`|t|` asc, id asc) order. They all
//!   have reference sum 0, so when `totalRest` is finite and positive
//!   their weights are `rest(|t|)/totalRest`, strictly decreasing in
//!   `|t|`, and these `n` hold the cold share of the top `n`. The walk
//!   also stops once it has skipped `n` shadowed members: each is a site
//!   member at a level below `|t|` of every cold member after it, so it
//!   outweighs all of them, and no later cold member can make the top
//!   `n`. A pick thus reads at most `2n` cold members, however many of
//!   the site's tasks have overlap there. When
//!   `totalRest` is infinite, some rank-live task misses no file, and
//!   [`ChooseTask::pick`] samples only among the infinite-weight members
//!   of the top `n`: the first zero-missing tasks by id. Those sit at
//!   level 0, which both walks read first, so the candidates' top `n` has
//!   the same length and the same infinite-weight members, and the pick
//!   and its RNG draw are the same. (`totalRest` is 0 only when no task
//!   is rank-live.)
//!
//! The weights themselves come from the same expressions and the same
//! integer counts as the naive scan, so every pick and its RNG draws are
//! bit-identical to [`crate::weight::weigh_all_naive`] plus
//! [`ChooseTask`].
//!
//! ## Deferred filing
//!
//! Storage-change and membership notifications update the cached
//! counters, the membership flags and the site lists at once, but they do
//! not touch a bucket: they only *mark* the task (one flag plus a write
//! into the rank's mark buffer). Only a ranked read looks at the order, so
//! [`SiteView::pick_ranked`] and [`SiteView::top_overlap_where`] first
//! file every marked task from its membership and current counters —
//! once, however many events touched it since the last read — inserting,
//! removing or moving it only if its filing changed. A site that sees
//! hundreds of file arrivals between two requests therefore pays a few
//! hundred flag writes instead of a few hundred `BTreeSet` operations, and
//! a task that enters and leaves a site's rank between two reads there
//! never touches its buckets. An unmarked task is filed exactly if it is
//! a member, at its current coordinates.
//!
//! The reader passes ([`SiteView::on_file_added`],
//! [`SiteView::on_file_evicted`], [`SiteView::on_files_referenced`]) do not
//! branch on a reader's liveness. By mid-run about half of a file's
//! readers have started, so such a branch is close to a coin flip. The
//! rank-live flag enters the arithmetic as 0 or 1 instead (`totalRef`
//! grows by `r · live`), and `TaskRank::mark_if` marks without a branch:
//! it writes the task at the mark buffer's current length and advances the
//! length only if the task is live and not yet marked. A task enters or
//! leaves the site rank only where its overlap here turns 1 or 0, the
//! branches that already keep the site lists.
//!
//! None of this changes any scheduling decision — the ranked picks are
//! property-tested to agree exactly with the naive scan at every site of a
//! multi-site grid, and [`SiteView::assert_consistent`] /
//! [`ColdRank::assert_consistent`] check the cached counters, the sparse
//! membership and the site lists against ground truth — it only changes
//! the constant/complexity; the `sched_decision` criterion bench and the
//! `perf_scale` entry of the `claims` binary quantify the gap.

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

/// One site's priority index over the rank-live tasks that have nonzero
/// overlap there, bucketed by the metric's small-integer level:
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
/// weight is `+∞` regardless of references. Every non-`Combined` key is
/// 0, so only a `Combined` rank records keys per task.
///
/// Membership is eager (see the module docs), the filing deferred: a
/// task entering or leaving the rank, or a member whose counters changed,
/// is only marked, and the owning [`SiteView`] files every marked task at
/// its next ranked read — one `BTreeSet` insert, remove or move
/// (`O(log T)`) per task whose filing actually changed, however many
/// events touched it. A task that enters and leaves between two reads
/// never touches a bucket.
#[derive(Debug, Clone)]
pub struct TaskRank {
    metric: WeightMetric,
    /// `buckets[level]` — ordered `(key, task id)`; see [`TaskRank`] docs
    /// for the key.
    buckets: Vec<BTreeSet<(u64, u32)>>,
    /// `|t|` per task (the [`FileIndex`]'s table, shared).
    sizes: Arc<[u32]>,
    member: Vec<bool>,
    /// The (level, key) each task is physically filed under, level
    /// [`TaskRank::UNFILED`] if none. `key_of` is empty unless the metric
    /// reads references: every other key is 0.
    level_of: Vec<u32>,
    key_of: Vec<u64>,
    /// `marked[t]`: `t`'s membership or counters changed since it was
    /// last filed, so it waits in `marks` for the next read to file it.
    marked: Vec<bool>,
    /// The marked tasks, each once, in `marks[..pending]`. The buffer is
    /// reused from read to read and grows to its high-water mark; the
    /// entries past `pending` are scratch (see [`TaskRank::mark_if`]).
    marks: Vec<u32>,
    pending: usize,
    len: usize,
}

impl TaskRank {
    /// The `level_of` of a task in no bucket.
    const UNFILED: u32 = u32::MAX;

    fn new(metric: WeightMetric, index: &FileIndex) -> Self {
        let num_tasks = index.task_count();
        let levels = index.max_task_size() as usize + 1;
        TaskRank {
            metric,
            buckets: vec![BTreeSet::new(); levels],
            sizes: Arc::clone(&index.task_sizes),
            member: vec![false; num_tasks],
            level_of: vec![Self::UNFILED; num_tasks],
            key_of: if metric.reads_references() {
                vec![0; num_tasks]
            } else {
                Vec::new()
            },
            marked: vec![false; num_tasks],
            marks: Vec::new(),
            pending: 0,
            len: 0,
        }
    }

    /// Number of member tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no task is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `task` is a member.
    #[cfg(test)]
    pub(crate) fn contains(&self, task: TaskId) -> bool {
        self.member[task.index()]
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
        if self.metric.reads_references() && level > 0 {
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

    /// The (level, key) `t` is physically filed under, if any.
    fn filed(&self, t: usize) -> Option<(u32, u64)> {
        let level = self.level_of[t];
        (level != Self::UNFILED).then(|| (level, self.key_of.get(t).copied().unwrap_or(0)))
    }

    /// `t` becomes a member; it is filed at the next read.
    fn enter(&mut self, t: usize) {
        debug_assert!(!self.member[t], "task {t} entered twice");
        self.member[t] = true;
        self.len += 1;
        self.mark_if(t, true);
    }

    /// `t` stops being a member; it is unfiled at the next read.
    fn leave(&mut self, t: usize) {
        debug_assert!(self.member[t], "task {t} is not a member");
        self.member[t] = false;
        self.len -= 1;
        self.mark_if(t, true);
    }

    /// Queues `t` for filing at the next read if `live`, without a branch
    /// on `live` or on `t`'s mark: `t` is written at the mark list's
    /// current length, which advances only if `t` is live and not yet
    /// marked, so an unqueued write is overwritten by the next one.
    fn mark_if(&mut self, t: usize, live: bool) {
        if self.pending == self.marks.len() {
            // A new high-water mark: one more slot to write into.
            self.marks.push(0);
        }
        self.marks[self.pending] = t as u32;
        self.pending += usize::from(live & !self.marked[t]);
        self.marked[t] |= live;
    }

    /// The marked tasks, each once, in marking order.
    fn pending_marks(&self) -> &[u32] {
        &self.marks[..self.pending]
    }

    /// Files `t` at `coords`, or nowhere for `None`; returns whether its
    /// filing changed. A rank that keys nothing by references records
    /// only the level (its keys are all 0).
    fn settle(&mut self, t: usize, coords: Option<(u32, u64)>) -> bool {
        let filed = self.filed(t);
        if filed == coords {
            return false;
        }
        if let Some((level, key)) = filed {
            self.buckets[level as usize].remove(&(key, t as u32));
        }
        match coords {
            Some((level, key)) => {
                self.buckets[level as usize].insert((key, t as u32));
                self.level_of[t] = level;
                if let Some(k) = self.key_of.get_mut(t) {
                    *k = key;
                }
            }
            None => self.level_of[t] = Self::UNFILED,
        }
        true
    }

    /// The members of `level` in bucket order.
    fn bucket(&self, level: usize) -> impl Iterator<Item = u32> + '_ {
        self.buckets[level].iter().map(|&(_, t)| t)
    }
}

/// Hot-path instruments of the ranked views, held by a scheduler's
/// [`ColdRank`] and shared by every view that reads it.
///
/// The default handles are inert — recording costs one branch — so the
/// instrumented paths are byte-identical with telemetry off, and the
/// numbers confirm the complexity claims with it on: the mean of
/// `overlap_sites` should stay flat as the site count grows, because a
/// membership change touches only the sites that hold the task's files.
#[derive(Debug, Clone, Default)]
pub struct RankStats {
    /// Ranked reads ([`SiteView::pick_ranked`] /
    /// [`SiteView::top_overlap_where`]) — `scheduler.rank.picks`.
    pub picks: Counter,
    /// Marked tasks filed, unfiled or moved to another bucket position
    /// when a ranked read applied the marks — `scheduler.rank.refiles`.
    pub refiles: Counter,
    /// Rank-membership changes ([`ColdRank::insert`] /
    /// [`ColdRank::remove`] calls that changed membership) —
    /// `scheduler.rank.membership_changes`.
    pub membership_changes: Counter,
    /// Site ranks touched per membership change —
    /// `scheduler.rank.overlap_sites`.
    pub overlap_sites: Histogram,
}

impl RankStats {
    /// Handles registered on `telemetry` under the canonical instrument
    /// names (inert handles when the collector is disabled).
    #[must_use]
    pub fn attach(telemetry: &Telemetry) -> Self {
        RankStats {
            picks: telemetry.counter("scheduler.rank.picks"),
            refiles: telemetry.counter("scheduler.rank.refiles"),
            membership_changes: telemetry.counter("scheduler.rank.membership_changes"),
            overlap_sites: telemetry.histogram("scheduler.rank.overlap_sites"),
        }
    }
}

/// The membership side shared by every [`SiteView`] of one scheduler: the
/// set of rank-live tasks, each filed at its zero-overlap coordinates,
/// plus each task's list of nonzero-overlap sites (see the module docs).
///
/// The owner decides what rank-live means (pending; for storage affinity
/// also below the replica cap) and reports every change through
/// [`ColdRank::insert`] / [`ColdRank::remove`], which update the cold
/// rank and the rank of each site listed for the task. The storage hooks
/// of the views keep the site lists current.
#[derive(Debug, Clone)]
pub struct ColdRank {
    metric: WeightMetric,
    /// `buckets[level]` — rank-live tasks at their zero-overlap level
    /// (`|t|`, or 0 for `Overlap`), by id. The zero-overlap key is the
    /// same for every task of a level, so id order is rank order.
    buckets: Vec<BTreeSet<u32>>,
    /// `|t|` per task (the [`FileIndex`]'s table, shared).
    sizes: Arc<[u32]>,
    live: Vec<bool>,
    /// `sites[t]` — the sites where `t`'s overlap is nonzero, unordered.
    sites: Vec<Vec<u32>>,
    stats: RankStats,
}

impl ColdRank {
    /// An empty cold rank (no task rank-live yet) for views built for
    /// `metric` over `index`.
    #[must_use]
    pub fn new(metric: WeightMetric, index: &FileIndex) -> Self {
        let num_tasks = index.task_count();
        ColdRank {
            metric,
            buckets: vec![BTreeSet::new(); index.max_task_size() as usize + 1],
            sizes: Arc::clone(&index.task_sizes),
            live: vec![false; num_tasks],
            sites: vec![Vec::new(); num_tasks],
            stats: RankStats::default(),
        }
    }

    /// Installs the hot-path instrument handles. Recording through inert
    /// handles — the default — is a no-op, so this never changes
    /// scheduling behaviour.
    pub fn set_stats(&mut self, stats: RankStats) {
        self.stats = stats;
    }

    fn level(&self, t: usize) -> usize {
        match self.metric {
            WeightMetric::Overlap => 0,
            WeightMetric::Rest | WeightMetric::Combined => self.sizes[t] as usize,
        }
    }

    /// Makes `task` rank-live: files it in the cold rank and in the rank
    /// of every view (indexed by site) where its overlap is nonzero.
    /// Returns whether it was not rank-live before; a no-op otherwise.
    pub fn insert(&mut self, views: &mut [SiteView], task: TaskId) -> bool {
        let t = task.index();
        if self.live[t] {
            return false;
        }
        self.live[t] = true;
        let level = self.level(t);
        self.buckets[level].insert(task.0);
        for &s in &self.sites[t] {
            views[s as usize].admit(t);
        }
        self.record(t);
        true
    }

    /// Withdraws `task` from the rank-live set, the cold rank and every
    /// site rank holding it. Returns whether it was rank-live; a no-op
    /// otherwise.
    pub fn remove(&mut self, views: &mut [SiteView], task: TaskId) -> bool {
        let t = task.index();
        if !self.live[t] {
            return false;
        }
        self.live[t] = false;
        let level = self.level(t);
        self.buckets[level].remove(&task.0);
        for &s in &self.sites[t] {
            views[s as usize].withdraw(t);
        }
        self.record(t);
        true
    }

    fn record(&self, t: usize) {
        self.stats.membership_changes.incr();
        self.stats.overlap_sites.record(self.sites[t].len() as u64);
    }

    /// Makes every task of `pool` rank-live — the initialize-time step of
    /// every incremental scheduler, after the views were seeded from any
    /// pre-populated storage. The cold buckets are built from sorted runs
    /// in one pass; a site rank receives only the tasks that already
    /// overlap it (none, for the usual empty start). Records no
    /// membership change.
    ///
    /// # Panics
    ///
    /// Panics if a task is rank-live already.
    pub fn admit_all(&mut self, views: &mut [SiteView], pool: &TaskPool) {
        assert!(
            self.buckets.iter().all(BTreeSet::is_empty),
            "admit_all needs a cold rank without members"
        );
        let mut runs: Vec<Vec<u32>> = vec![Vec::new(); self.buckets.len()];
        for task in pool.iter() {
            let t = task.index();
            self.live[t] = true;
            runs[self.level(t)].push(task.0);
            for &s in &self.sites[t] {
                views[s as usize].admit(t);
            }
        }
        for (bucket, run) in self.buckets.iter_mut().zip(runs) {
            *bucket = run.into_iter().collect();
        }
    }

    /// Debug helper: checks that the rank-live set is exactly the tasks
    /// satisfying the owner's `live` rule and that each is filed once, at
    /// its zero-overlap level. The site lists are checked per view by
    /// [`SiteView::assert_consistent`].
    ///
    /// # Panics
    ///
    /// Panics (in any build) if an invariant is broken.
    pub fn assert_consistent<F: Fn(TaskId) -> bool>(&self, live: F) {
        let mut members = 0;
        for t in 0..self.live.len() {
            let task = TaskId(t as u32);
            assert_eq!(self.live[t], live(task), "rank-live flag of {task}");
            assert_eq!(
                self.buckets[self.level(t)].contains(&task.0),
                self.live[t],
                "cold filing of {task}"
            );
            members += usize::from(self.live[t]);
        }
        let entries: usize = self.buckets.iter().map(BTreeSet::len).sum();
        assert_eq!(entries, members, "cold entries disagree with the members");
    }
}

/// Incrementally-maintained per-site state for one [`WeightMetric`]: the
/// view keeps only the counters that metric reads.
///
/// For every task `t`, caches:
/// * `overlap[t]` — `|F_t|` against this site's *current* storage (every
///   metric);
/// * `refsum[t]` — `Σ_{i ∈ F_t} r_i` over the resident overlap, only when
///   the metric [reads references](WeightMetric::reads_references)
///   (`Combined`). Views for `Overlap` and `Rest` allocate no `refsum`,
///   and their rank no per-task key: 10 bytes per task instead of 26.
///
/// Its [`TaskRank`] holds the rank-live tasks with nonzero overlap here;
/// the scheduler's shared [`ColdRank`] holds the rest (see the module
/// docs). A `Combined` view also keeps the site's share of the
/// normalisers (see [`SiteView::combined_totals`]).
///
/// The owner must forward every storage change:
/// [`SiteView::on_file_added`] after an insert,
/// [`SiteView::on_file_evicted`] for each eviction, and — on a
/// reference-tracking view only — [`SiteView::on_files_referenced`] after
/// a task start's `r_i` increments.
#[derive(Debug, Clone)]
pub struct SiteView {
    site: u32,
    metric: WeightMetric,
    overlap: Vec<u32>,
    /// Empty unless `metric` reads references.
    refsum: Vec<u64>,
    rank: TaskRank,
    /// `Combined` only: per input-set size `k`, the number of site-rank
    /// members with `|t| = k` — the tasks the cold bucket of level `k`
    /// counts once more than [`SiteView::combined_totals`] needs. Changes
    /// only when a task enters or leaves the site rank.
    member_sizes: Vec<u32>,
    /// `Combined` only: `Σ refsum` over the rank-live tasks (a
    /// zero-overlap task contributes 0).
    total_ref: u64,
}

impl SiteView {
    /// The view of site `site` for an initially-empty storage, keeping the
    /// counters `metric` reads and an empty rank ordered by `metric`.
    #[must_use]
    pub fn new(site: usize, index: &FileIndex, metric: WeightMetric) -> Self {
        let num_tasks = index.task_count();
        let track = metric.reads_references();
        SiteView {
            site: site as u32,
            metric,
            overlap: vec![0; num_tasks],
            refsum: if track {
                vec![0; num_tasks]
            } else {
                Vec::new()
            },
            rank: TaskRank::new(metric, index),
            member_sizes: if track {
                vec![0; index.max_task_size() as usize + 1]
            } else {
                Vec::new()
            },
            total_ref: 0,
        }
    }

    /// Whether this view keeps `refsum` (its metric reads references).
    #[must_use]
    pub fn tracks_references(&self) -> bool {
        self.metric.reads_references()
    }

    /// The site's priority index.
    #[must_use]
    pub fn rank(&self) -> &TaskRank {
        &self.rank
    }

    /// Adds rank-live task `t`, whose overlap here is nonzero, to the
    /// site rank and the normalisers.
    fn admit(&mut self, t: usize) {
        self.join(t);
        if self.tracks_references() {
            self.total_ref += self.refsum[t];
        }
    }

    /// Undoes [`SiteView::admit`] for a task leaving the rank-live set.
    fn withdraw(&mut self, t: usize) {
        self.part(t);
        if self.tracks_references() {
            self.total_ref -= self.refsum[t];
        }
    }

    /// `t` enters the site rank, and a `Combined` view counts its size.
    fn join(&mut self, t: usize) {
        self.rank.enter(t);
        if let Some(n) = self.member_sizes.get_mut(self.rank.sizes[t] as usize) {
            *n += 1;
        }
    }

    /// `t` leaves the site rank: the inverse of [`SiteView::join`].
    fn part(&mut self, t: usize) {
        self.rank.leave(t);
        if let Some(n) = self.member_sizes.get_mut(self.rank.sizes[t] as usize) {
            *n -= 1;
        }
    }

    /// Records that `file` became resident with current reference count
    /// `ref_count` (read only by a reference-tracking view). One pass over
    /// the file's readers updates the counters, the task site lists in
    /// `cold`, the rank (a rank-live reader whose overlap became nonzero
    /// enters it, any other rank-live reader is marked) and `totalRef`.
    /// Only a reader whose overlap here just turned 1 branches on its
    /// liveness, to enter the rank; elsewhere liveness enters as 0/1 (see
    /// the module docs, *Deferred filing*).
    pub fn on_file_added(
        &mut self,
        index: &FileIndex,
        cold: &mut ColdRank,
        file: FileId,
        ref_count: u32,
    ) {
        let track = self.tracks_references();
        let rc = u64::from(ref_count);
        for &t in index.tasks_of(file) {
            let ti = t as usize;
            let live = cold.live[ti];
            self.overlap[ti] += 1;
            if track {
                self.refsum[ti] += rc;
                self.total_ref += rc * u64::from(live);
            }
            if self.overlap[ti] == 1 {
                cold.sites[ti].push(self.site);
                if live {
                    self.join(ti);
                }
            } else {
                self.rank.mark_if(ti, live);
            }
        }
    }

    /// Records that `file` was evicted while holding reference count
    /// `ref_count` (read only by a reference-tracking view) — the mirror
    /// of [`SiteView::on_file_added`]: a reader whose overlap drops to
    /// zero leaves the site rank and the site list.
    pub fn on_file_evicted(
        &mut self,
        index: &FileIndex,
        cold: &mut ColdRank,
        file: FileId,
        ref_count: u32,
    ) {
        let track = self.tracks_references();
        let rc = u64::from(ref_count);
        for &t in index.tasks_of(file) {
            let ti = t as usize;
            let live = cold.live[ti];
            self.overlap[ti] -= 1;
            if track {
                self.refsum[ti] -= rc;
                self.total_ref -= rc * u64::from(live);
            }
            if self.overlap[ti] == 0 {
                let sites = &mut cold.sites[ti];
                let at = sites
                    .iter()
                    .position(|&s| s == self.site)
                    .expect("a task with overlap lists the site");
                sites.swap_remove(at);
                if live {
                    self.part(ti);
                }
            } else {
                self.rank.mark_if(ti, live);
            }
        }
    }

    /// Records that one task start referenced every resident file in
    /// `files` (`r_i += 1` each), in one pass over each file's readers:
    /// every reader's `refsum` rises by one, and each rank-live reader —
    /// a site-rank member, since the file is resident — is marked for
    /// re-filing and raises the site's `totalRef` by one. The pass has no
    /// branch on liveness.
    ///
    /// # Panics
    ///
    /// Panics if the view keeps no reference counters (its metric is not
    /// `Combined`): such an owner must not forward references at all.
    pub fn on_files_referenced(&mut self, index: &FileIndex, cold: &ColdRank, files: &[FileId]) {
        assert!(
            self.tracks_references(),
            "{} views keep no reference counters",
            self.metric
        );
        for &file in files {
            for &t in index.tasks_of(file) {
                let ti = t as usize;
                let live = cold.live[ti];
                self.refsum[ti] += 1;
                self.total_ref += u64::from(live);
                self.rank.mark_if(ti, live);
            }
        }
    }

    /// Cached `|F_t|`.
    #[must_use]
    pub fn overlap(&self, task: TaskId) -> u32 {
        self.overlap[task.index()]
    }

    /// Cached `Σ r_i` over the resident overlap of `task`.
    ///
    /// # Panics
    ///
    /// Panics if the view keeps no reference counters (see
    /// [`SiteView::tracks_references`]).
    #[must_use]
    pub fn refsum(&self, task: TaskId) -> u64 {
        self.refsum[task.index()]
    }

    /// The exact `combined` normalisers `(totalRef, totalRest)` at this
    /// site over the rank-live tasks, fed through the canonical
    /// [`total_rest_from_counts`] accumulation. Level `m`'s count is the
    /// cold rank's bucket size plus the site rank's, less the site-rank
    /// members of size `m` (see the module docs): `O(levels)` once the
    /// marks are filed, as they are in a pick. A pending mark's bucket
    /// entry may be stale, so each level also moves every marked task
    /// from the level it is filed at to the level it belongs at —
    /// `O(levels · pending marks)`, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the view keeps no reference counters; panics (debug) if
    /// a reconstructed count is negative.
    #[must_use]
    pub fn combined_totals(&self, cold: &ColdRank) -> (u64, f64) {
        assert!(self.tracks_references(), "{} view", self.metric);
        let rank = &self.rank;
        let pending = |m: u32| -> i64 {
            rank.pending_marks()
                .iter()
                .map(|&t| {
                    let t = t as usize;
                    let filed = rank.level_of[t] == m;
                    let belongs = rank.member[t] && rank.sizes[t] - self.overlap[t] == m;
                    i64::from(belongs) - i64::from(filed)
                })
                .sum()
        };
        let counts = cold
            .buckets
            .iter()
            .zip(&rank.buckets)
            .zip(&self.member_sizes);
        let total_rest =
            total_rest_from_counts(counts.enumerate().map(|(m, ((cold, site), &members))| {
                let count =
                    (cold.len() + site.len()) as i64 - i64::from(members) + pending(m as u32);
                debug_assert!(count >= 0, "negative count at level {m}");
                count as u32
            }));
        (self.total_ref, total_rest)
    }

    /// The worker-centric pick straight off the priority indexes —
    /// equivalent to `chooser.pick(weigh_all(...), rng)` over the
    /// rank-live tasks but reading only the best few members of the site
    /// rank and of `cold`, the owner's shared cold rank (`O(log T)`
    /// amortized). Tasks marked by storage or membership events since the last read are
    /// filed first, so every member is read at its current coordinates.
    ///
    /// The candidate set contains the full scan's top `n` and the weights
    /// come from the identical expressions, so the pick, including its RNG
    /// consumption, is bit-identical (see the module docs).
    ///
    /// Returns `None` when no task is rank-live.
    pub fn pick_ranked<R: Rng + ?Sized>(
        &mut self,
        cold: &ColdRank,
        chooser: &ChooseTask,
        rng: &mut R,
    ) -> Option<TaskId> {
        cold.stats.picks.incr();
        self.apply_marks(&cold.stats);
        let n = chooser.n();
        let levels = self.rank.buckets.len();
        let rank = &self.rank;
        let overlap = &self.overlap;
        let unshadowed = |level: usize| {
            cold.buckets[level]
                .iter()
                .copied()
                .filter(|&t| overlap[t as usize] == 0)
        };
        let mut cands: Vec<(TaskId, f64)> = Vec::with_capacity(2 * n);
        match self.metric {
            WeightMetric::Overlap | WeightMetric::Rest => {
                // One weight per level, strictly falling best-first: take
                // each level's first members until n are held.
                for i in 0..levels {
                    let (level, w) = if self.metric == WeightMetric::Overlap {
                        (levels - 1 - i, (levels - 1 - i) as f64)
                    } else {
                        (i, rest_weight(i))
                    };
                    let need = n - cands.len();
                    cands.extend(
                        rank.bucket(level)
                            .take(need)
                            .chain(unshadowed(level).take(need))
                            .map(|t| (TaskId(t), w)),
                    );
                    if cands.len() >= n {
                        break;
                    }
                }
            }
            WeightMetric::Combined => {
                let (total_ref, total_rest) = self.combined_totals(cold);
                let refsum = &self.refsum;
                let weigh = |t: u32, level: usize| {
                    let w = combined_weight(
                        refsum[t as usize],
                        rest_weight(level),
                        total_ref,
                        total_rest,
                    );
                    (TaskId(t), w)
                };
                for level in 0..levels {
                    cands.extend(rank.bucket(level).take(n).map(|t| weigh(t, level)));
                }
                // The first n unshadowed cold members in (|t|, id) order
                // suffice, and n shadowed ones met first outweigh every
                // later cold member (see the module docs).
                let (mut taken, mut skipped) = (0, 0);
                let cold_order = (0..levels)
                    .flat_map(|level| cold.buckets[level].iter().map(move |&t| (t, level)));
                for (t, level) in cold_order {
                    if overlap[t as usize] == 0 {
                        cands.push(weigh(t, level));
                        taken += 1;
                    } else {
                        skipped += 1;
                    }
                    if taken == n || skipped == n {
                        break;
                    }
                }
            }
        }
        chooser.pick(&cands, rng)
    }

    /// Files every marked task from its membership and current counters —
    /// the deferred half of the storage and membership hooks. Afterwards
    /// the buckets hold exactly the members, each at its current
    /// coordinates.
    fn apply_marks(&mut self, stats: &RankStats) {
        let rank = &mut self.rank;
        let marks = std::mem::take(&mut rank.marks);
        let mut moved = 0;
        for &t in &marks[..rank.pending] {
            let t = t as usize;
            rank.marked[t] = false;
            let coords = rank.member[t].then(|| {
                let refsum = refsum_or_zero(&self.refsum, t);
                rank.coords(rank.sizes[t], self.overlap[t], refsum)
            });
            moved += u64::from(rank.settle(t, coords));
        }
        rank.marks = marks;
        rank.pending = 0;
        stats.refiles.add(moved);
    }

    /// The rank-live task with the largest overlap (ties to the lowest
    /// id) that satisfies `keep`, walking the site rank and then the
    /// unshadowed cold members in (overlap desc, id asc) order — the
    /// storage-affinity replica selection and the sufferage fallback.
    /// `keep` is a transient caller filter (e.g. "not already executing at
    /// this worker"). Marked tasks are filed first, as in
    /// [`SiteView::pick_ranked`].
    ///
    /// # Panics
    ///
    /// Panics if the view's metric is not [`WeightMetric::Overlap`].
    pub fn top_overlap_where<K: FnMut(TaskId) -> bool>(
        &mut self,
        cold: &ColdRank,
        mut keep: K,
    ) -> Option<TaskId> {
        assert_eq!(
            self.metric,
            WeightMetric::Overlap,
            "top_overlap_where needs an Overlap-ordered rank"
        );
        cold.stats.picks.incr();
        self.apply_marks(&cold.stats);
        let overlap = &self.overlap;
        let site = self.rank.buckets.iter().rev().flatten().map(|&(_, t)| t);
        let zero = cold.buckets[0]
            .iter()
            .copied()
            .filter(|&t| overlap[t as usize] == 0);
        site.chain(zero).map(TaskId).find(|&t| keep(t))
    }

    /// Debug helper: checks this view against ground truth from the store,
    /// its rank against the view's counters, and its share of the sparse
    /// membership against `cold`.
    ///
    /// Metric-aware: a reference-tracking (`Combined`) view must match the
    /// store's `refsum` and keep exact normalisers; any other view, and
    /// its rank, must hold no reference state at all.
    ///
    /// For the rank: its members are exactly the rank-live tasks with
    /// nonzero overlap here; each filed task sits in exactly one bucket
    /// entry, at its recorded coordinates; no bucket holds anything else;
    /// `len()` counts the members; the mark list holds each marked task
    /// once and is as long as the flags set; a `Combined` view's
    /// member-size counts and `totalRef` match a recount; and every
    /// *unmarked* task is filed exactly if it is a member, at its current
    /// coordinates. Each task's site list in `cold` names this site
    /// exactly once if its overlap here is nonzero, and not at all
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics (in any build) if a cached counter disagrees with the store
    /// or an invariant above is broken.
    pub fn assert_consistent(
        &self,
        index: &FileIndex,
        cold: &ColdRank,
        workload: &Workload,
        store: &SiteStore,
    ) {
        let track = self.tracks_references();
        assert!(
            track || (self.refsum.is_empty() && self.member_sizes.is_empty()),
            "{} view holds reference state",
            self.metric
        );
        let rank = &self.rank;
        assert_eq!(rank.metric, self.metric, "rank ordered for another metric");
        assert!(
            track || rank.key_of.is_empty(),
            "{} rank holds keys",
            self.metric
        );
        let mut member_sizes = vec![0u32; self.member_sizes.len()];
        let mut total_ref = 0;
        let mut members = 0;
        let mut filed_count = 0;
        for t in workload.tasks() {
            let ti = t.id.index();
            let files = t.files();
            let overlap = store.overlap(files) as u32;
            assert_eq!(
                self.overlap[ti], overlap,
                "overlap mismatch for task {}",
                t.id
            );
            if track {
                assert_eq!(
                    self.refsum[ti],
                    store.overlap_ref_sum(files),
                    "refsum mismatch for task {}",
                    t.id
                );
            }
            let listed = cold.sites[ti].iter().filter(|&&s| s == self.site).count();
            assert_eq!(listed, usize::from(overlap > 0), "site list of {}", t.id);
            let member = cold.live[ti] && overlap > 0;
            assert_eq!(rank.member[ti], member, "site-rank membership of {}", t.id);
            let size = index.task_size(t.id);
            let filed = rank.filed(ti);
            if let Some((level, key)) = filed {
                filed_count += 1;
                assert!(
                    rank.buckets[level as usize].contains(&(key, t.id.0)),
                    "task {} missing from the bucket it is filed under",
                    t.id
                );
            }
            let current =
                member.then(|| rank.coords(size, overlap, refsum_or_zero(&self.refsum, ti)));
            assert!(
                rank.marked[ti] || filed == current,
                "unmarked task {} filed at {filed:?}, belongs at {current:?}",
                t.id
            );
            if member {
                members += 1;
                if track {
                    member_sizes[size as usize] += 1;
                    total_ref += self.refsum[ti];
                }
            }
        }
        assert_eq!(member_sizes, self.member_sizes, "member-size counts");
        assert_eq!(total_ref, self.total_ref, "totalRef");
        assert_eq!(rank.len, members, "rank len disagrees with its members");
        let entries: usize = rank.buckets.iter().map(BTreeSet::len).sum();
        assert_eq!(
            entries, filed_count,
            "bucket entries disagree with the filed tasks"
        );
        let marked = rank.marked.iter().filter(|&&m| m).count();
        assert_eq!(rank.pending, marked, "mark list length out of step");
        assert!(rank.pending <= rank.marks.len(), "mark list overruns");
        let mut seen = vec![false; rank.marked.len()];
        for &t in rank.pending_marks() {
            let t = t as usize;
            assert!(rank.marked[t], "mark list holds unmarked task {t}");
            assert!(
                !std::mem::replace(&mut seen[t], true),
                "task {t} marked twice"
            );
        }
    }
}

/// `refsum[t]`, or 0 on a view that keeps no reference counters — the
/// input a rank key needs, which is 0 for every metric but `Combined`.
fn refsum_or_zero(refsum: &[u64], t: usize) -> u64 {
    refsum.get(t).copied().unwrap_or(0)
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
        let mut cold = ColdRank::new(WeightMetric::Combined, &idx);
        let mut view = SiteView::new(0, &idx, WeightMetric::Combined);

        store.insert(FileId(1));
        view.on_file_added(&idx, &mut cold, FileId(1), store.ref_count(FileId(1)));
        assert_eq!(view.overlap(TaskId(0)), 1);
        assert_eq!(view.overlap(TaskId(1)), 1);
        assert_eq!(view.overlap(TaskId(2)), 0);
        assert_eq!(cold.sites[0], [0]);
        assert!(cold.sites[2].is_empty());

        store.record_task_reference(FileId(1));
        view.on_files_referenced(&idx, &cold, &[FileId(1)]);
        assert_eq!(view.refsum(TaskId(0)), 1);

        view.assert_consistent(&idx, &cold, &workload, &store);
    }

    #[test]
    fn eviction_rolls_back_counters() {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut store = SiteStore::new(1, EvictionPolicy::Lru);
        let mut cold = ColdRank::new(WeightMetric::Combined, &idx);
        let mut view = SiteView::new(0, &idx, WeightMetric::Combined);

        store.insert(FileId(1));
        view.on_file_added(&idx, &mut cold, FileId(1), store.ref_count(FileId(1)));
        store.record_task_reference(FileId(1));
        view.on_files_referenced(&idx, &cold, &[FileId(1)]);

        // Inserting file 2 evicts file 1 (capacity 1).
        let ref_before = store.ref_count(FileId(1));
        let evicted = store.insert(FileId(2));
        assert_eq!(evicted, vec![FileId(1)]);
        view.on_file_evicted(&idx, &mut cold, FileId(1), ref_before);
        view.on_file_added(&idx, &mut cold, FileId(2), store.ref_count(FileId(2)));

        view.assert_consistent(&idx, &cold, &workload, &store);
        assert_eq!(view.overlap(TaskId(0)), 0);
        assert_eq!(view.refsum(TaskId(0)), 0);
        assert!(cold.sites[0].is_empty(), "left the site list");
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

    /// One site holding `resident`, every task rank-live.
    fn ranked_view(
        metric: WeightMetric,
        resident: &[u32],
    ) -> (FileIndex, SiteView, ColdRank, SiteStore) {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut store = SiteStore::new(10, EvictionPolicy::Lru);
        let mut cold = ColdRank::new(metric, &idx);
        let mut view = SiteView::new(0, &idx, metric);
        cold.admit_all(std::slice::from_mut(&mut view), &TaskPool::full(4));
        for &f in resident {
            store.insert(FileId(f));
            view.on_file_added(&idx, &mut cold, FileId(f), store.ref_count(FileId(f)));
        }
        (idx, view, cold, store)
    }

    #[test]
    fn ranked_overlap_pick_is_argmax() {
        let (_, mut view, cold, _) = ranked_view(WeightMetric::Overlap, &[2, 3]);
        let mut rng = StdRng::seed_from_u64(0);
        // Task 2 overlaps {2,3} fully; deterministic argmax.
        assert_eq!(
            view.pick_ranked(&cold, &ChooseTask::new(1), &mut rng),
            Some(TaskId(2))
        );
    }

    #[test]
    fn ranked_rest_prefers_zero_missing() {
        let (_, mut view, cold, _) = ranked_view(WeightMetric::Rest, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            view.pick_ranked(&cold, &ChooseTask::new(1), &mut rng),
            Some(TaskId(0)),
            "task 0 needs zero transfers"
        );
    }

    #[test]
    fn ranked_tracks_eager_membership() {
        // Membership changes reach the cold rank and exactly the site
        // ranks of the sites where the task has overlap.
        let (idx, mut view, mut cold, store) = ranked_view(WeightMetric::Overlap, &[0, 1]);
        let workload = wl();
        let mut rng = StdRng::seed_from_u64(0);
        let chooser = ChooseTask::new(1);
        let views = std::slice::from_mut(&mut view);
        assert_eq!(
            views[0].pick_ranked(&cold, &chooser, &mut rng),
            Some(TaskId(0))
        );
        assert!(cold.remove(views, TaskId(0)));
        assert!(!cold.remove(views, TaskId(0)), "already withdrawn");
        assert!(!views[0].rank().contains(TaskId(0)));
        assert_eq!(
            views[0].pick_ranked(&cold, &chooser, &mut rng),
            Some(TaskId(1))
        );
        // Task 2 overlaps nowhere: only the cold rank changes.
        assert!(cold.remove(views, TaskId(2)));
        assert_eq!(views[0].rank().len(), 2, "tasks 1 and 3");
        assert!(cold.insert(views, TaskId(0)));
        assert_eq!(
            views[0].pick_ranked(&cold, &chooser, &mut rng),
            Some(TaskId(0))
        );
        let live = |t: TaskId| t != TaskId(2);
        cold.assert_consistent(live);
        views[0].assert_consistent(&idx, &cold, &workload, &store);
        for t in [0, 1, 3] {
            cold.remove(views, TaskId(t));
        }
        assert_eq!(views[0].pick_ranked(&cold, &chooser, &mut rng), None);
        assert!(views[0].rank().is_empty());
        cold.assert_consistent(|_| false);
    }

    #[test]
    fn rank_stats_count_picks_and_membership_changes() {
        let (_, mut view, mut cold, _) = ranked_view(WeightMetric::Overlap, &[0, 1]);
        let telemetry = Telemetry::enabled();
        cold.set_stats(RankStats::attach(&telemetry));
        let views = std::slice::from_mut(&mut view);
        // Task 0 overlaps site 0, task 2 overlaps nowhere.
        cold.remove(views, TaskId(0));
        cold.remove(views, TaskId(2));
        cold.remove(views, TaskId(2));
        cold.insert(views, TaskId(0));
        let mut rng = StdRng::seed_from_u64(0);
        let picked = views[0].pick_ranked(&cold, &ChooseTask::new(1), &mut rng);
        assert_eq!(picked, Some(TaskId(0)));
        assert_eq!(telemetry.counter("scheduler.rank.picks").get(), 1);
        assert_eq!(
            telemetry.counter("scheduler.rank.membership_changes").get(),
            3,
            "a no-op removal is no change"
        );
        let sites = telemetry.histogram("scheduler.rank.overlap_sites");
        assert_eq!(sites.count(), 3);
        assert_eq!(
            sites.sum(),
            2,
            "one site for task 0, twice; none for task 2"
        );
    }

    #[test]
    fn top_overlap_where_filters() {
        let (_, mut view, mut cold, _) = ranked_view(WeightMetric::Overlap, &[2, 3]);
        assert_eq!(view.top_overlap_where(&cold, |_| true), Some(TaskId(2)));
        assert_eq!(
            view.top_overlap_where(&cold, |t| t != TaskId(2)),
            Some(TaskId(1)),
            "next-best overlap after filtering the argmax"
        );
        assert_eq!(view.top_overlap_where(&cold, |_| false), None);
        // A transient `keep` filter does not shrink the rank.
        assert_eq!(view.rank().len(), 3, "tasks 1, 2 and 3 overlap");
        // A zero-overlap task is read from the cold rank.
        let views = std::slice::from_mut(&mut view);
        for t in [1, 2, 3] {
            cold.remove(views, TaskId(t));
        }
        assert_eq!(views[0].top_overlap_where(&cold, |_| true), Some(TaskId(0)));
    }

    #[test]
    fn combined_totals_track_membership_and_storage() {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut pool = TaskPool::full(4);
        let mut cold = ColdRank::new(WeightMetric::Combined, &idx);
        let mut views = vec![
            SiteView::new(0, &idx, WeightMetric::Combined),
            SiteView::new(1, &idx, WeightMetric::Combined),
        ];
        cold.admit_all(&mut views, &pool);
        let mut store = SiteStore::new(2, EvictionPolicy::Lru);

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
        let check = |views: &[SiteView], cold: &ColdRank, pool: &TaskPool, store: &SiteStore| {
            let (r, rest) = views[0].combined_totals(cold);
            let (nr, nrest) = naive_totals(pool, store);
            assert_eq!(r, nr);
            assert_eq!(rest.to_bits(), nrest.to_bits(), "bit-identical totalRest");
        };
        // Baseline (empty stores): totalRef 0, counts all at |t| = 2.
        check(&views, &cold, &pool, &store);

        // File events at site 0.
        for f in [1u32, 2] {
            store.insert(FileId(f));
            views[0].on_file_added(&idx, &mut cold, FileId(f), store.ref_count(FileId(f)));
        }
        store.record_task_reference(FileId(1));
        views[0].on_files_referenced(&idx, &cold, &[FileId(1)]);
        check(&views, &cold, &pool, &store);

        // Membership: remove a nonzero-overlap task, then re-admit it.
        pool.remove(TaskId(1));
        cold.remove(&mut views, TaskId(1));
        check(&views, &cold, &pool, &store);
        pool.insert(TaskId(1));
        cold.insert(&mut views, TaskId(1));
        check(&views, &cold, &pool, &store);

        // Eviction (capacity 2, LRU) rolls the counts back.
        let evicted = store.insert(FileId(3));
        assert_eq!(evicted.len(), 1, "capacity 2 forces one eviction");
        for e in evicted {
            let rc = store.ref_count(e);
            views[0].on_file_evicted(&idx, &mut cold, e, rc);
        }
        views[0].on_file_added(&idx, &mut cold, FileId(3), store.ref_count(FileId(3)));
        check(&views, &cold, &pool, &store);
        views[0].assert_consistent(&idx, &cold, &workload, &store);

        // Site 1 never saw a file: its totals stay at the baseline.
        let (r1, _) = views[1].combined_totals(&cold);
        assert_eq!(r1, 0);
    }

    /// `combined_totals` read while marks are pending — members not yet
    /// filed, filings stale after a move, a leaver still filed — and
    /// again after the pick that files them equals the naive normalisers
    /// bit for bit.
    #[test]
    fn combined_totals_correct_for_pending_marks() {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut pool = TaskPool::full(4);
        let mut cold = ColdRank::new(WeightMetric::Combined, &idx);
        let mut views = vec![SiteView::new(0, &idx, WeightMetric::Combined)];
        cold.admit_all(&mut views, &pool);
        let mut store = SiteStore::new(2, EvictionPolicy::Lru);
        let naive = |pool: &TaskPool, store: &SiteStore| {
            let mut total_ref = 0;
            let mut counts = vec![0u32; 3];
            for t in pool.iter() {
                let files = workload.task(t).files();
                total_ref += store.overlap_ref_sum(files);
                counts[files.len() - store.overlap(files)] += 1;
            }
            (total_ref, total_rest_from_counts(counts))
        };
        let check = |view: &SiteView, cold: &ColdRank, pool: &TaskPool, store: &SiteStore| {
            let (total_ref, total_rest) = view.combined_totals(cold);
            let (naive_ref, naive_rest) = naive(pool, store);
            assert_eq!(total_ref, naive_ref, "totalRef");
            assert_eq!(total_rest.to_bits(), naive_rest.to_bits(), "totalRest");
        };
        let stale = |view: &SiteView| {
            let rank = view.rank();
            rank.pending_marks()
                .iter()
                .filter(|&&t| {
                    let t = t as usize;
                    let current = rank.member[t].then(|| rank.sizes[t] - view.overlap[t]);
                    rank.filed(t).map(|(level, _)| level) != current
                })
                .count()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let chooser = ChooseTask::new(2);

        // Tasks 0, 1 and 2 join the site rank, none filed yet.
        for f in [1u32, 2] {
            store.insert(FileId(f));
            views[0].on_file_added(&idx, &mut cold, FileId(f), store.ref_count(FileId(f)));
        }
        assert_eq!(stale(&views[0]), 3, "three members wait to be filed");
        check(&views[0], &cold, &pool, &store);
        views[0].pick_ranked(&cold, &chooser, &mut rng);
        assert!(views[0].rank().pending_marks().is_empty());
        check(&views[0], &cold, &pool, &store);

        // A reference, an arrival that evicts file 2 (task 2 leaves, task
        // 1 moves a level, task 3 joins) and a withdrawal (task 0) leave
        // filings stale.
        store.record_task_reference(FileId(1));
        views[0].on_files_referenced(&idx, &cold, &[FileId(1)]);
        assert_eq!(store.insert(FileId(0)), [FileId(2)]);
        views[0].on_file_evicted(&idx, &mut cold, FileId(2), store.ref_count(FileId(2)));
        views[0].on_file_added(&idx, &mut cold, FileId(0), store.ref_count(FileId(0)));
        check(&views[0], &cold, &pool, &store);
        pool.remove(TaskId(0));
        cold.remove(&mut views, TaskId(0));
        assert_eq!(stale(&views[0]), 4, "tasks 0 and 2 left, 1 moved, 3 joined");
        check(&views[0], &cold, &pool, &store);
        views[0].pick_ranked(&cold, &chooser, &mut rng);
        check(&views[0], &cold, &pool, &store);
        views[0].assert_consistent(&idx, &cold, &workload, &store);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gridsched_storage::EvictionPolicy;
    use gridsched_workload::TaskSpec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Sites of the test grid; every op names one modulo this.
    const SITES: usize = 3;
    const METRICS: [WeightMetric; 3] = [
        WeightMetric::Overlap,
        WeightMetric::Rest,
        WeightMetric::Combined,
    ];

    #[derive(Debug, Clone)]
    enum Op {
        /// A file arrives at a site (LRU evictions ride along).
        Insert(u32, u32),
        /// A task start at a site references the task's resident inputs.
        Start(u32, u32),
        /// The site's data server fails: every unpinned file is evicted.
        Fail(u32),
        /// Flip a task's rank-live membership.
        Toggle(u32),
        /// Take the `k`-th marked task of a site's rank (modulo the mark
        /// count) out of the live set; with `true`, requeue it at once.
        ToggleMarked(u32, u32, bool),
        /// Ranked reads at every site, checked against the naive scan.
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

    /// Storage and membership ops, with `Read` points mixed in.
    fn arb_ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
        let op =
            (0u32..14, 0u32..12, 0u32..12, any::<bool>()).prop_map(
                |(kind, x, y, now)| match kind {
                    0..=4 => Op::Insert(x, y),
                    5..=6 => Op::Start(x, y),
                    7 => Op::Fail(x),
                    8 | 9 => Op::Toggle(x),
                    10 | 11 => Op::ToggleMarked(x, y, now),
                    _ => Op::Read,
                },
            );
        proptest::collection::vec(op, 0..len)
    }

    /// One metric's ranked state: a view per site over one cold rank.
    struct Family {
        cold: ColdRank,
        views: Vec<SiteView>,
    }

    /// A grid of [`SITES`] stores driven the way the schedulers drive
    /// theirs, with one [`Family`] per metric reading it.
    struct Grid {
        workload: Workload,
        idx: FileIndex,
        stores: Vec<SiteStore>,
        /// The rank-live set.
        live: TaskPool,
        families: Vec<Family>,
    }

    impl Grid {
        fn new(workload: Workload, cap: usize) -> Self {
            let idx = FileIndex::build(&workload);
            let live = TaskPool::full(workload.task_count());
            let families = METRICS
                .iter()
                .map(|&metric| {
                    let mut cold = ColdRank::new(metric, &idx);
                    let mut views: Vec<SiteView> =
                        (0..SITES).map(|s| SiteView::new(s, &idx, metric)).collect();
                    cold.admit_all(&mut views, &live);
                    Family { cold, views }
                })
                .collect();
            Grid {
                stores: vec![SiteStore::new(cap, EvictionPolicy::Lru); SITES],
                workload,
                idx,
                live,
                families,
            }
        }

        fn evict(&mut self, site: usize, files: &[FileId]) {
            for &e in files {
                let rc = self.stores[site].ref_count(e);
                for fam in &mut self.families {
                    fam.views[site].on_file_evicted(&self.idx, &mut fam.cold, e, rc);
                }
            }
        }

        fn apply(&mut self, op: &Op) {
            let tasks = self.workload.task_count() as u32;
            match *op {
                Op::Insert(s, f) => {
                    let (site, f) = (s as usize % SITES, FileId(f));
                    if !self.stores[site].contains(f) {
                        let evicted = self.stores[site].insert(f);
                        self.evict(site, &evicted);
                        let rc = self.stores[site].ref_count(f);
                        for fam in &mut self.families {
                            fam.views[site].on_file_added(&self.idx, &mut fam.cold, f, rc);
                        }
                    }
                }
                Op::Start(s, t) => {
                    let site = s as usize % SITES;
                    let files: Vec<FileId> = self
                        .workload
                        .task(TaskId(t % tasks))
                        .files()
                        .iter()
                        .copied()
                        .filter(|&f| self.stores[site].contains(f))
                        .collect();
                    for &f in &files {
                        self.stores[site].record_task_reference(f);
                    }
                    // Only a reference-tracking view is told, as in the
                    // schedulers.
                    for fam in &mut self.families {
                        let view = &mut fam.views[site];
                        if view.tracks_references() {
                            view.on_files_referenced(&self.idx, &fam.cold, &files);
                        }
                    }
                }
                Op::Fail(s) => {
                    let site = s as usize % SITES;
                    let lost = self.stores[site].fail();
                    self.evict(site, &lost);
                }
                Op::Toggle(t) => self.toggle(TaskId(t % tasks)),
                Op::ToggleMarked(f, k, requeue) => {
                    // Marks are per family; the Combined family's site
                    // rank sees the most of them (references mark too).
                    let marks = self.families[2].views[f as usize % SITES]
                        .rank()
                        .pending_marks();
                    if !marks.is_empty() {
                        let t = TaskId(marks[k as usize % marks.len()]);
                        if self.live.contains(t) {
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

        fn toggle(&mut self, t: TaskId) {
            let now_live = !self.live.contains(t);
            if now_live {
                self.live.insert(t);
            } else {
                self.live.remove(t);
            }
            for fam in &mut self.families {
                let changed = if now_live {
                    fam.cold.insert(&mut fam.views, t)
                } else {
                    fam.cold.remove(&mut fam.views, t)
                };
                assert!(changed);
            }
        }

        fn assert_consistent(&self) {
            for fam in &self.families {
                fam.cold.assert_consistent(|t| self.live.contains(t));
                for (view, store) in fam.views.iter().zip(&self.stores) {
                    view.assert_consistent(&self.idx, &fam.cold, &self.workload, store);
                    if view.tracks_references() {
                        let (total_ref, total_rest) = view.combined_totals(&fam.cold);
                        let (naive_ref, naive_rest) = self.naive_totals(store);
                        assert_eq!(total_ref, naive_ref, "totalRef");
                        assert_eq!(total_rest.to_bits(), naive_rest.to_bits(), "totalRest");
                    }
                }
            }
        }

        /// The `combined` normalisers at `store`, recomputed from scratch
        /// over the rank-live tasks.
        fn naive_totals(&self, store: &SiteStore) -> (u64, f64) {
            let mut total_ref = 0;
            let mut counts = vec![0u32; self.idx.max_task_size() as usize + 1];
            for t in self.live.iter() {
                let files = self.workload.task(t).files();
                total_ref += store.overlap_ref_sum(files);
                counts[files.len() - store.overlap(files)] += 1;
            }
            (total_ref, total_rest_from_counts(counts))
        }

        /// Every site's ranked reads against the naive scan: `pick_ranked`
        /// for every metric at n ∈ {1, 2, 3} (same RNG seed on both sides),
        /// and `top_overlap_where` under a `keep` filter that varies with
        /// `salt`. Re-checks consistency afterwards (the reads apply the
        /// marks).
        fn check_reads(&mut self, seed: u64, salt: u32) {
            for (fam, &metric) in self.families.iter_mut().zip(&METRICS) {
                for (s, view) in fam.views.iter_mut().enumerate() {
                    let store = &self.stores[s];
                    let weights =
                        crate::weight::weigh_all_naive(metric, &self.workload, &self.live, store);
                    for n in [1, 2, 3] {
                        let chooser = ChooseTask::new(n);
                        let draw = seed ^ u64::from(salt) << 8 ^ (s as u64) << 4 ^ n as u64;
                        let naive = chooser.pick(&weights, &mut StdRng::seed_from_u64(draw));
                        let ranked =
                            view.pick_ranked(&fam.cold, &chooser, &mut StdRng::seed_from_u64(draw));
                        prop_assert_eq!(naive, ranked, "{} n {} site {}", metric, n, s);
                    }
                    prop_assert!(view.rank().pending_marks().is_empty());
                    if metric != WeightMetric::Overlap {
                        continue;
                    }
                    let keep = |t: TaskId| !(t.0 + salt).is_multiple_of(3);
                    let mut naive: Option<(TaskId, usize)> = None;
                    for t in self.live.iter().filter(|&t| keep(t)) {
                        let overlap = store.overlap(self.workload.task(t).files());
                        if naive.is_none_or(|(_, best)| overlap > best) {
                            naive = Some((t, overlap));
                        }
                    }
                    let ranked = view.top_overlap_where(&fam.cold, keep);
                    prop_assert_eq!(naive.map(|(t, _)| t), ranked, "top overlap site {}", s);
                }
            }
            self.assert_consistent();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The cached counters, the sparse membership (site ranks hold
        /// exactly the rank-live tasks with overlap there, the cold rank
        /// exactly the rank-live set), the per-task site lists and the
        /// `Combined` normalisers stay equal to ground truth after every
        /// storage or membership op at every site — with no read in
        /// between, so marks pile up.
        #[test]
        fn view_counters_match_store(
            workload in arb_workload(),
            ops in arb_ops(60),
            cap in 1usize..8,
        ) {
            let mut grid = Grid::new(workload, cap);
            for op in &ops {
                grid.apply(op);
                grid.assert_consistent();
            }
        }

        /// After every op, each site's ranked picks (all three metrics,
        /// n ∈ {1, 2, 3}) and `top_overlap_where` make the naive scan's
        /// choice with the same RNG draws.
        #[test]
        fn ranked_pick_matches_naive_scan(
            workload in arb_workload(),
            ops in arb_ops(60),
            cap in 1usize..8,
            seed in 0u64..8,
        ) {
            let mut grid = Grid::new(workload, cap);
            grid.check_reads(seed, 0);
            for (i, op) in ops.iter().enumerate() {
                grid.apply(op);
                grid.check_reads(seed, i as u32 + 1);
            }
        }

        /// Deferred re-filing under bursts: many storage events, and
        /// membership flips of marked tasks, between two reads. Every read
        /// still matches the naive scan and leaves every rank consistent.
        /// Between reads the marks pile up over stale filings, and the
        /// counters, mark lists and `combined` normalisers stay exact.
        #[test]
        fn burst_ranked_pick_matches_naive_scan(
            workload in arb_workload(),
            ops in arb_ops(100),
            cap in 1usize..8,
            seed in 0u64..8,
        ) {
            let mut grid = Grid::new(workload, cap);
            for (i, op) in ops.iter().chain([&Op::Read]).enumerate() {
                grid.apply(op);
                grid.assert_consistent();
                if matches!(op, Op::Read) {
                    grid.check_reads(seed, i as u32);
                }
            }
        }

        /// The same bursts with large stores and a requeue after every
        /// removal of a marked task: a task's overlap spreads over several
        /// sites, so membership changes fan out to more than one site rank.
        #[test]
        fn burst_top_overlap_matches_naive_scan(
            workload in arb_workload(),
            ops in arb_ops(100),
            seed in 0u64..8,
        ) {
            let mut grid = Grid::new(workload, 12);
            for (i, op) in ops.iter().chain([&Op::Read]).enumerate() {
                let op = match *op {
                    Op::ToggleMarked(f, k, _) => Op::ToggleMarked(f, k, true),
                    ref other => other.clone(),
                };
                grid.apply(&op);
                if matches!(op, Op::Read) {
                    grid.check_reads(seed, i as u32);
                }
            }
        }
    }
}
