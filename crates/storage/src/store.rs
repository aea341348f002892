//! Capacity-bounded site storage with pinning and reference tracking.

use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use gridsched_workload::FileId;

use crate::fileset::FileSet;
use crate::policy::EvictionPolicy;

/// Counters describing a store's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Files inserted (network arrivals or replication pushes).
    pub insertions: u64,
    /// Files evicted by the replacement policy.
    pub evictions: u64,
    /// Inserts that had to exceed capacity because every resident file was
    /// pinned.
    pub overflow_inserts: u64,
    /// Highest number of resident files ever observed.
    pub max_resident: usize,
}

/// End-of-list marker for the intrusive eviction list.
const NIL: u32 = u32::MAX;

/// Per-file bookkeeping, one slab slot per file ever inserted or
/// referenced at the site.
#[derive(Debug, Clone, Copy)]
struct Node {
    file: FileId,
    /// Neighbours in the LRU/FIFO eviction list (`NIL` at the ends, and
    /// while the file is not resident).
    prev: u32,
    next: u32,
    /// Number of active pins (batch requests / executing tasks).
    pins: u32,
    /// `r_i`: past task references; survives eviction.
    refs: u32,
    /// Use count while resident (LFU only).
    freq: u64,
    /// Insertion sequence number, [`StoreStats::insertions`] at insert
    /// time (LFU tie-break).
    inserted: u64,
    /// Position stamp in the LRU/FIFO list, assigned at every append:
    /// stamps ascend from head to tail.
    stamp: u64,
}

/// Multiplicative hasher for the `FileId → slot` index. File ids are dense
/// small integers, so one multiply by an odd constant spreads them over
/// both the low (bucket) and high (tag) bits of the hash.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type SlotIndex = HashMap<FileId, u32, BuildHasherDefault<IdHasher>>;

/// The local storage of one site's data server.
///
/// Holds up to `capacity` equally-sized files; evicts per
/// [`EvictionPolicy`] when full, never evicting **pinned** files; tracks
/// `r_i` — the number of past task references of each file at this site —
/// which survives eviction (it is scheduler bookkeeping, not cache state).
///
/// # Layout and cost
///
/// Every file ever inserted or referenced at the site owns one slot in a
/// node slab holding its pins, `r_i` and eviction-order links. A single
/// `FileId → slot` index (a multiplicative integer hash) is the only hash
/// probe per call, and a dense [`FileSet`] bitset answers membership.
///
/// * **LRU / FIFO** keep resident files in a doubly linked list over slab
///   slots, oldest at the head: insert appends, an LRU touch moves the
///   file to the tail and a FIFO touch leaves it. Insert and touch are
///   O(1).
/// * **LFU** keeps an ordered set keyed by (use count, insertion order),
///   so a touch is O(log n).
///
/// Eviction takes the first unpinned file in that order. Under LRU/FIFO
/// a first-unpinned cursor remembers how far the pinned files at the head
/// of the list reach (every file before it is pinned), so files pinned by
/// running tasks are skipped once, not on every eviction; an unpin before
/// the cursor (told apart by the files' list stamps) moves it back. LFU
/// costs O(1 + pinned files skipped) per eviction. Memory is proportional
/// to the files the site has touched — the same bound as `r_i` itself —
/// and never to the size of the file universe.
///
/// # Example
///
/// ```
/// use gridsched_storage::{EvictionPolicy, SiteStore};
/// use gridsched_workload::FileId;
///
/// let mut store = SiteStore::new(2, EvictionPolicy::Lru);
/// store.insert(FileId(0));
/// store.insert(FileId(1));
/// store.touch(FileId(0));               // 0 is now more recent than 1
/// let evicted = store.insert(FileId(2)); // evicts 1
/// assert_eq!(evicted, vec![FileId(1)]);
/// assert!(store.contains(FileId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct SiteStore {
    capacity: usize,
    policy: EvictionPolicy,
    nodes: Vec<Node>,
    slots: SlotIndex,
    /// Dense residency bitset — the hot-path membership structure.
    resident: FileSet,
    /// Ends of the LRU/FIFO eviction list (unused under LFU).
    head: u32,
    tail: u32,
    /// First-unpinned cursor into the LRU/FIFO list: every file before it
    /// is pinned (`NIL` when every listed file is).
    cursor: u32,
    /// Stamp of the next list append.
    next_stamp: u64,
    /// LFU eviction order: `(freq, inserted, slot)` (empty otherwise).
    by_freq: BTreeSet<(u64, u64, u32)>,
    stats: StoreStats,
}

impl SiteStore {
    /// Creates an empty store holding at most `capacity` files.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, policy: EvictionPolicy) -> Self {
        assert!(capacity > 0, "storage capacity must be positive");
        SiteStore {
            capacity,
            policy,
            nodes: Vec::new(),
            slots: SlotIndex::default(),
            resident: FileSet::new(),
            head: NIL,
            tail: NIL,
            cursor: NIL,
            next_stamp: 0,
            by_freq: BTreeSet::new(),
            stats: StoreStats::default(),
        }
    }

    /// The configured capacity in files.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The replacement policy.
    #[must_use]
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Number of resident files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether no files are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Whether `file` is resident (one bitset probe).
    #[must_use]
    pub fn contains(&self, file: FileId) -> bool {
        self.resident.contains(file)
    }

    /// The paper's **overlap cardinality** `|F_t|`: how many of `files` are
    /// resident.
    #[must_use]
    pub fn overlap(&self, files: &[FileId]) -> usize {
        files.iter().filter(|f| self.contains(**f)).count()
    }

    /// The files from `files` that are *not* resident (the batch request a
    /// data server sends to the external file server).
    #[must_use]
    pub fn missing(&self, files: &[FileId]) -> Vec<FileId> {
        files
            .iter()
            .copied()
            .filter(|f| !self.contains(*f))
            .collect()
    }

    /// `r_i` — past task references of `file` at this site (0 if never
    /// referenced; survives eviction).
    #[must_use]
    pub fn ref_count(&self, file: FileId) -> u32 {
        self.slots
            .get(&file)
            .map_or(0, |&slot| self.nodes[slot as usize].refs)
    }

    /// Sum of `r_i` over the *resident* subset of `files` — `ref_t` in the
    /// paper's combined metric.
    #[must_use]
    pub fn overlap_ref_sum(&self, files: &[FileId]) -> u64 {
        files
            .iter()
            .filter(|f| self.contains(**f))
            .map(|f| u64::from(self.ref_count(*f)))
            .sum()
    }

    /// The slot of `file`, allocating a fresh node on first sight.
    fn slot_or_new(&mut self, file: FileId) -> u32 {
        let nodes = &mut self.nodes;
        *self.slots.entry(file).or_insert_with(|| {
            let slot = u32::try_from(nodes.len()).expect("fewer than 2^32 files per site");
            nodes.push(Node {
                file,
                prev: NIL,
                next: NIL,
                pins: 0,
                refs: 0,
                freq: 0,
                inserted: 0,
                stamp: 0,
            });
            slot
        })
    }

    /// The slot of a resident `file`.
    fn resident_slot(&self, file: FileId, op: &str) -> u32 {
        assert!(self.contains(file), "{op}: file {file} not resident");
        self.slots[&file]
    }

    fn push_back(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        node.stamp = self.next_stamp;
        self.next_stamp += 1;
        if self.cursor == NIL {
            // Every file already listed is pinned.
            self.cursor = slot;
        }
        match self.tail {
            NIL => self.head = slot,
            tail => self.nodes[tail as usize].next = slot,
        }
        self.tail = slot;
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if self.cursor == slot {
            self.cursor = next;
        }
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn lfu_key(&self, slot: u32) -> (u64, u64, u32) {
        let node = &self.nodes[slot as usize];
        (node.freq, node.inserted, slot)
    }

    /// Drops a resident, unpinned file from the eviction order and the
    /// residency set.
    fn remove_resident(&mut self, slot: u32) {
        if self.policy == EvictionPolicy::Lfu {
            self.by_freq.remove(&self.lfu_key(slot));
        } else {
            self.unlink(slot);
        }
        self.resident.remove(self.nodes[slot as usize].file);
    }

    /// Inserts `file`, evicting per policy if the store is full. Returns the
    /// evicted files (empty if there was room or the file was already
    /// resident).
    ///
    /// If every resident file is pinned, the store *overflows* (the insert
    /// succeeds beyond capacity and is counted in
    /// [`StoreStats::overflow_inserts`]); the data server cannot drop files
    /// an executing task still needs.
    pub fn insert(&mut self, file: FileId) -> Vec<FileId> {
        self.insert_slot(file).1
    }

    /// [`insert`](Self::insert) followed by [`pin`](Self::pin), with one
    /// index lookup for both. Returns the evicted files and `file`'s `r_i`
    /// (what [`ref_count`](Self::ref_count) would read).
    pub fn insert_pinned(&mut self, file: FileId) -> (Vec<FileId>, u32) {
        let (slot, evicted) = self.insert_slot(file);
        let node = &mut self.nodes[slot as usize];
        node.pins += 1;
        (evicted, node.refs)
    }

    /// The body of [`insert`](Self::insert), also returning `file`'s slot.
    fn insert_slot(&mut self, file: FileId) -> (u32, Vec<FileId>) {
        if self.contains(file) {
            let slot = self.slots[&file];
            self.touch_slot(slot);
            return (slot, Vec::new());
        }
        let mut evicted = Vec::new();
        while self.len() >= self.capacity {
            match self.evict_one() {
                Some(f) => evicted.push(f),
                None => {
                    self.stats.overflow_inserts += 1;
                    break;
                }
            }
        }
        let slot = self.slot_or_new(file);
        let node = &mut self.nodes[slot as usize];
        node.freq = 0;
        node.inserted = self.stats.insertions;
        if self.policy == EvictionPolicy::Lfu {
            self.by_freq.insert(self.lfu_key(slot));
        } else {
            self.push_back(slot);
        }
        self.resident.insert(file);
        self.stats.insertions += 1;
        self.stats.max_resident = self.stats.max_resident.max(self.len());
        (slot, evicted)
    }

    /// Evicts the policy's best victim among unpinned files. Returns `None`
    /// if everything is pinned.
    fn evict_one(&mut self) -> Option<FileId> {
        let slot = if self.policy == EvictionPolicy::Lfu {
            self.by_freq
                .iter()
                .map(|&(_, _, slot)| slot)
                .find(|&slot| self.nodes[slot as usize].pins == 0)?
        } else {
            while self.cursor != NIL && self.nodes[self.cursor as usize].pins > 0 {
                self.cursor = self.nodes[self.cursor as usize].next;
            }
            if self.cursor == NIL {
                return None;
            }
            self.cursor
        };
        self.remove_resident(slot);
        self.stats.evictions += 1;
        Some(self.nodes[slot as usize].file)
    }

    /// Marks `file` as used now (updates LRU recency / LFU frequency). No-op
    /// for non-resident files.
    pub fn touch(&mut self, file: FileId) {
        if self.policy == EvictionPolicy::Fifo || !self.contains(file) {
            return;
        }
        let slot = self.slots[&file];
        self.touch_slot(slot);
    }

    /// [`touch`](Self::touch) for a resident file's slot.
    fn touch_slot(&mut self, slot: u32) {
        match self.policy {
            EvictionPolicy::Lru => {
                if self.tail != slot {
                    self.unlink(slot);
                    self.push_back(slot);
                }
            }
            EvictionPolicy::Fifo => {} // insertion order never changes
            EvictionPolicy::Lfu => {
                self.by_freq.remove(&self.lfu_key(slot));
                self.nodes[slot as usize].freq += 1;
                self.by_freq.insert(self.lfu_key(slot));
            }
        }
    }

    /// Records that a task at this site referenced `file` (increments `r_i`)
    /// and touches it.
    pub fn record_task_reference(&mut self, file: FileId) {
        let slot = self.slot_or_new(file);
        self.nodes[slot as usize].refs += 1;
        if self.contains(file) {
            self.touch_slot(slot);
        }
    }

    /// Pins `file` against eviction. Pins nest (two batch requests may pin
    /// the same file).
    ///
    /// # Panics
    ///
    /// Panics if `file` is not resident — the caller must insert before
    /// pinning.
    pub fn pin(&mut self, file: FileId) {
        let slot = self.resident_slot(file, "pin");
        self.nodes[slot as usize].pins += 1;
    }

    /// Releases one pin on `file`.
    ///
    /// # Panics
    ///
    /// Panics if `file` is not resident or not pinned.
    pub fn unpin(&mut self, file: FileId) {
        let slot = self.resident_slot(file, "unpin");
        let node = &mut self.nodes[slot as usize];
        assert!(node.pins > 0, "unpin: file {file} not pinned");
        node.pins -= 1;
        if node.pins == 0
            && self.policy != EvictionPolicy::Lfu
            && (self.cursor == NIL || node.stamp < self.nodes[self.cursor as usize].stamp)
        {
            // Freed before the cursor: the first unpinned file may be this one.
            self.cursor = slot;
        }
    }

    /// Number of currently pinned files.
    #[must_use]
    pub fn pinned_count(&self) -> usize {
        // Only resident files can hold pins.
        self.nodes.iter().filter(|n| n.pins > 0).count()
    }

    /// A data-server outage: every **unpinned** resident file is lost.
    ///
    /// Pinned files survive — they are held in memory by executions in
    /// progress, not only on the failed server's disk. Reference counts
    /// (`r_i`) survive too: they are scheduler bookkeeping, not cache
    /// state. Lost files are *not* counted as policy evictions in
    /// [`StoreStats`] (the caller accounts them separately).
    ///
    /// Returns the lost files in ascending id order (deterministic, so
    /// downstream scheduler notifications are reproducible).
    pub fn fail(&mut self) -> Vec<FileId> {
        let lost: Vec<(FileId, u32)> = self
            .resident
            .iter()
            .map(|f| (f, self.slots[&f]))
            .filter(|&(_, slot)| self.nodes[slot as usize].pins == 0)
            .collect();
        for &(_, slot) in &lost {
            self.remove_resident(slot);
        }
        lost.into_iter().map(|(f, _)| f).collect()
    }

    /// Iterates over resident files in ascending id order.
    pub fn resident(&self) -> impl Iterator<Item = FileId> + '_ {
        self.resident.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileId {
        FileId(i)
    }

    #[test]
    fn insert_and_lookup() {
        let mut s = SiteStore::new(10, EvictionPolicy::Lru);
        assert!(s.insert(f(1)).is_empty());
        assert!(s.contains(f(1)));
        assert!(!s.contains(f(2)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.overlap(&[f(1), f(2), f(3)]), 1);
        assert_eq!(s.missing(&[f(1), f(2)]), vec![f(2)]);
    }

    #[test]
    fn insert_pinned_matches_insert_then_ref_count_then_pin() {
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
            EvictionPolicy::Lfu,
        ] {
            let mut a = SiteStore::new(3, policy);
            let mut b = SiteStore::new(3, policy);
            for store in [&mut a, &mut b] {
                store.record_task_reference(f(4));
                store.record_task_reference(f(4));
                store.insert(f(1));
                store.pin(f(1));
            }
            // Fresh files (one referenced before, one evicting), a resident
            // one (a touch) and a file pinned twice.
            for file in [f(4), f(2), f(5), f(2), f(6), f(1)] {
                let (evicted, refs) = a.insert_pinned(file);
                assert_eq!(evicted, b.insert(file), "{policy:?} {file}");
                assert_eq!(refs, b.ref_count(file));
                b.pin(file);
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{policy:?} {file}");
            }
            assert_eq!(a.ref_count(f(4)), 2);
            assert_eq!(a.pinned_count(), 5, "pinned files overflow the store");
        }
    }

    #[test]
    fn reinsert_is_touch_not_duplicate() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lru);
        s.insert(f(1));
        s.insert(f(2));
        s.insert(f(1)); // refresh 1
        let ev = s.insert(f(3));
        assert_eq!(ev, vec![f(2)], "2 is now least recent");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = SiteStore::new(3, EvictionPolicy::Lru);
        s.insert(f(1));
        s.insert(f(2));
        s.insert(f(3));
        s.touch(f(1));
        let ev = s.insert(f(4));
        assert_eq!(ev, vec![f(2)]);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut s = SiteStore::new(3, EvictionPolicy::Fifo);
        s.insert(f(1));
        s.insert(f(2));
        s.insert(f(3));
        s.touch(f(1));
        s.touch(f(1));
        let ev = s.insert(f(4));
        assert_eq!(
            ev,
            vec![f(1)],
            "FIFO evicts oldest insert regardless of use"
        );
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut s = SiteStore::new(3, EvictionPolicy::Lfu);
        s.insert(f(1));
        s.insert(f(2));
        s.insert(f(3));
        s.touch(f(1));
        s.touch(f(1));
        s.touch(f(2));
        let ev = s.insert(f(4));
        assert_eq!(ev, vec![f(3)], "3 has freq 0");
    }

    #[test]
    fn lfu_ties_break_by_age() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lfu);
        s.insert(f(1));
        s.insert(f(2));
        let ev = s.insert(f(3));
        assert_eq!(ev, vec![f(1)], "equal freq → oldest goes");
    }

    #[test]
    fn pinned_files_survive() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lru);
        s.insert(f(1));
        s.insert(f(2));
        s.pin(f(1));
        let ev = s.insert(f(3));
        assert_eq!(ev, vec![f(2)], "pinned 1 must not be evicted");
        assert!(s.contains(f(1)));
    }

    #[test]
    fn all_pinned_overflows() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lru);
        s.insert(f(1));
        s.insert(f(2));
        s.pin(f(1));
        s.pin(f(2));
        let ev = s.insert(f(3));
        assert!(ev.is_empty());
        assert_eq!(s.len(), 3, "overflow beyond capacity");
        assert_eq!(s.stats().overflow_inserts, 1);
        // After unpinning, the next insert shrinks back.
        s.unpin(f(1));
        s.unpin(f(2));
        let ev = s.insert(f(4));
        assert_eq!(ev.len(), 2, "evicts down to capacity");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn pins_nest() {
        let mut s = SiteStore::new(1, EvictionPolicy::Lru);
        s.insert(f(1));
        s.pin(f(1));
        s.pin(f(1));
        s.unpin(f(1));
        // still pinned once
        let ev = s.insert(f(2));
        assert!(ev.is_empty());
        assert_eq!(s.len(), 2);
        s.unpin(f(1));
        assert_eq!(s.pinned_count(), 0);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn pin_missing_panics() {
        let mut s = SiteStore::new(1, EvictionPolicy::Lru);
        s.pin(f(1));
    }

    #[test]
    #[should_panic(expected = "not pinned")]
    fn unpin_unpinned_panics() {
        let mut s = SiteStore::new(1, EvictionPolicy::Lru);
        s.insert(f(1));
        s.unpin(f(1));
    }

    #[test]
    fn reference_counts_survive_eviction() {
        let mut s = SiteStore::new(1, EvictionPolicy::Lru);
        s.insert(f(1));
        s.record_task_reference(f(1));
        s.record_task_reference(f(1));
        assert_eq!(s.ref_count(f(1)), 2);
        s.insert(f(2)); // evicts 1
        assert!(!s.contains(f(1)));
        assert_eq!(s.ref_count(f(1)), 2, "r_i survives eviction");
    }

    #[test]
    fn overlap_ref_sum_counts_only_resident() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lru);
        s.insert(f(1));
        s.insert(f(2));
        s.record_task_reference(f(1));
        s.record_task_reference(f(2));
        s.record_task_reference(f(2));
        s.insert(f(3)); // evicts 1
        assert_eq!(
            s.overlap_ref_sum(&[f(1), f(2), f(3)]),
            2,
            "only resident 2 counts"
        );
    }

    #[test]
    fn stats_track_behaviour() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lru);
        s.insert(f(1));
        s.insert(f(2));
        s.insert(f(3));
        let st = s.stats();
        assert_eq!(st.insertions, 3);
        assert_eq!(st.evictions, 1);
        assert_eq!(st.max_resident, 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SiteStore::new(0, EvictionPolicy::Lru);
    }
}

/// The pre-slab store — `HashMap` metadata, a `BTreeSet` eviction order and
/// a `HashMap` of reference counts — kept as the reference model that
/// [`SiteStore`] must match operation for operation.
#[cfg(test)]
mod model {
    use std::collections::{BTreeSet, HashMap};

    use super::*;

    #[derive(Debug, Clone, Copy)]
    struct Entry {
        key: (u64, u64),
        pins: u32,
        freq: u64,
        inserted: u64,
    }

    #[derive(Debug)]
    pub(super) struct ModelStore {
        capacity: usize,
        policy: EvictionPolicy,
        entries: HashMap<FileId, Entry>,
        order: BTreeSet<((u64, u64), FileId)>,
        refs: HashMap<FileId, u32>,
        tick: u64,
        stats: StoreStats,
    }

    impl ModelStore {
        pub(super) fn new(capacity: usize, policy: EvictionPolicy) -> Self {
            ModelStore {
                capacity,
                policy,
                entries: HashMap::new(),
                order: BTreeSet::new(),
                refs: HashMap::new(),
                tick: 0,
                stats: StoreStats::default(),
            }
        }

        pub(super) fn len(&self) -> usize {
            self.entries.len()
        }

        pub(super) fn stats(&self) -> StoreStats {
            self.stats
        }

        pub(super) fn contains(&self, file: FileId) -> bool {
            self.entries.contains_key(&file)
        }

        pub(super) fn ref_count(&self, file: FileId) -> u32 {
            self.refs.get(&file).copied().unwrap_or(0)
        }

        pub(super) fn pinned_count(&self) -> usize {
            self.entries.values().filter(|e| e.pins > 0).count()
        }

        pub(super) fn resident(&self) -> BTreeSet<FileId> {
            self.entries.keys().copied().collect()
        }

        fn next_tick(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        pub(super) fn insert(&mut self, file: FileId) -> Vec<FileId> {
            if self.contains(file) {
                self.touch(file);
                return Vec::new();
            }
            let mut evicted = Vec::new();
            while self.entries.len() >= self.capacity {
                match self.evict_one() {
                    Some(f) => evicted.push(f),
                    None => {
                        self.stats.overflow_inserts += 1;
                        break;
                    }
                }
            }
            let tick = self.next_tick();
            let key = match self.policy {
                EvictionPolicy::Lru | EvictionPolicy::Fifo => (tick, 0),
                EvictionPolicy::Lfu => (0, tick),
            };
            let entry = Entry {
                key,
                pins: 0,
                freq: 0,
                inserted: tick,
            };
            self.entries.insert(file, entry);
            self.order.insert((key, file));
            self.stats.insertions += 1;
            self.stats.max_resident = self.stats.max_resident.max(self.entries.len());
            evicted
        }

        fn evict_one(&mut self) -> Option<FileId> {
            let victim = *self.order.iter().find(|(_, f)| self.entries[f].pins == 0)?;
            self.order.remove(&victim);
            self.entries.remove(&victim.1);
            self.stats.evictions += 1;
            Some(victim.1)
        }

        pub(super) fn touch(&mut self, file: FileId) {
            let tick = self.next_tick();
            let policy = self.policy;
            let Some(entry) = self.entries.get_mut(&file) else {
                return;
            };
            entry.freq += 1;
            let new_key = match policy {
                EvictionPolicy::Lru => (tick, 0),
                EvictionPolicy::Fifo => entry.key,
                EvictionPolicy::Lfu => (entry.freq, entry.inserted),
            };
            if new_key != entry.key {
                let old = (entry.key, file);
                entry.key = new_key;
                self.order.remove(&old);
                self.order.insert((new_key, file));
            }
        }

        pub(super) fn record_task_reference(&mut self, file: FileId) {
            *self.refs.entry(file).or_insert(0) += 1;
            self.touch(file);
        }

        pub(super) fn pin(&mut self, file: FileId) {
            self.entries.get_mut(&file).expect("resident").pins += 1;
        }

        pub(super) fn unpin(&mut self, file: FileId) {
            let entry = self.entries.get_mut(&file).expect("resident");
            assert!(entry.pins > 0);
            entry.pins -= 1;
        }

        pub(super) fn fail(&mut self) -> Vec<FileId> {
            let mut lost: Vec<FileId> = self
                .entries
                .iter()
                .filter(|(_, e)| e.pins == 0)
                .map(|(&f, _)| f)
                .collect();
            lost.sort_unstable();
            for &f in &lost {
                let entry = self.entries.remove(&f).expect("collected above");
                self.order.remove(&(entry.key, f));
            }
            lost
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::model::ModelStore;
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32),
        Touch(u32),
        Reference(u32),
        PinCycle(u32),
    }

    fn arb_policy() -> impl Strategy<Value = EvictionPolicy> {
        prop_oneof![
            Just(EvictionPolicy::Lru),
            Just(EvictionPolicy::Fifo),
            Just(EvictionPolicy::Lfu)
        ]
    }

    fn arb_ops() -> impl Strategy<Value = (usize, EvictionPolicy, Vec<Op>)> {
        let op = prop_oneof![
            (0u32..50).prop_map(Op::Insert),
            (0u32..50).prop_map(Op::Touch),
            (0u32..50).prop_map(Op::Reference),
            (0u32..50).prop_map(Op::PinCycle),
        ];
        (
            1usize..20,
            arb_policy(),
            proptest::collection::vec(op, 0..200),
        )
    }

    /// Operations of the differential test. Pins are *held* across
    /// operations (released by a later `Unpin`), so evictions must skip
    /// pinned heads and inserts can overflow.
    #[derive(Debug, Clone)]
    enum DiffOp {
        Insert(u32),
        Touch(u32),
        Reference(u32),
        Pin(u32),
        /// Releases the `n % held`-th held pin.
        Unpin(usize),
        Fail,
    }

    /// File universe of the differential test: a few times the capacity.
    const UNIVERSE: u32 = 24;

    fn arb_diff_ops() -> impl Strategy<Value = (usize, EvictionPolicy, Vec<DiffOp>)> {
        // Inserts are listed twice: they are what forces evictions.
        let op = prop_oneof![
            (0..UNIVERSE).prop_map(DiffOp::Insert),
            (0..UNIVERSE).prop_map(DiffOp::Insert),
            (0..UNIVERSE).prop_map(DiffOp::Touch),
            (0..UNIVERSE).prop_map(DiffOp::Reference),
            (0..UNIVERSE).prop_map(DiffOp::Pin),
            (0usize..64).prop_map(DiffOp::Unpin),
            Just(DiffOp::Fail),
        ];
        (
            1usize..8,
            arb_policy(),
            proptest::collection::vec(op, 0..300),
        )
    }

    proptest! {
        #[test]
        fn capacity_respected_without_pins((cap, policy, ops) in arb_ops()) {
            let mut s = SiteStore::new(cap, policy);
            for op in ops {
                match op {
                    Op::Insert(x) => { s.insert(FileId(x)); }
                    Op::Touch(x) => s.touch(FileId(x)),
                    Op::Reference(x) => s.record_task_reference(FileId(x)),
                    Op::PinCycle(x) => {
                        if s.contains(FileId(x)) {
                            s.pin(FileId(x));
                            s.unpin(FileId(x));
                        }
                    }
                }
                // No pins held across ops → never exceeds capacity.
                prop_assert!(s.len() <= cap, "len {} > cap {}", s.len(), cap);
                prop_assert_eq!(s.pinned_count(), 0);
            }
        }
    }

    /// Pin-heavy variant of [`arb_diff_ops`]: most resident files stay
    /// pinned, so pinned runs pile up at the head of the eviction list and
    /// unpins land before and after the first-unpinned cursor.
    fn arb_pin_heavy_ops() -> impl Strategy<Value = (usize, EvictionPolicy, Vec<DiffOp>)> {
        let op = prop_oneof![
            (0..UNIVERSE).prop_map(DiffOp::Insert),
            (0..UNIVERSE).prop_map(DiffOp::Insert),
            (0..UNIVERSE).prop_map(DiffOp::Insert),
            (0..UNIVERSE).prop_map(DiffOp::Pin),
            (0..UNIVERSE).prop_map(DiffOp::Pin),
            (0..UNIVERSE).prop_map(DiffOp::Pin),
            (0..UNIVERSE).prop_map(DiffOp::Pin),
            (0usize..64).prop_map(DiffOp::Unpin),
            (0usize..64).prop_map(DiffOp::Unpin),
            (0..UNIVERSE).prop_map(DiffOp::Touch),
            (0..UNIVERSE).prop_map(DiffOp::Reference),
        ];
        (
            2usize..10,
            arb_policy(),
            proptest::collection::vec(op, 0..400),
        )
    }

    /// Applies `ops` to a [`SiteStore`] and the [`ModelStore`] and checks
    /// that every observable agrees after each one.
    fn check_against_model(cap: usize, policy: EvictionPolicy, ops: Vec<DiffOp>) {
        let mut s = SiteStore::new(cap, policy);
        let mut m = ModelStore::new(cap, policy);
        let mut held: Vec<FileId> = Vec::new();
        for op in ops {
            match op {
                DiffOp::Insert(x) => {
                    prop_assert_eq!(s.insert(FileId(x)), m.insert(FileId(x)));
                }
                DiffOp::Touch(x) => {
                    s.touch(FileId(x));
                    m.touch(FileId(x));
                }
                DiffOp::Reference(x) => {
                    s.record_task_reference(FileId(x));
                    m.record_task_reference(FileId(x));
                }
                DiffOp::Pin(x) => {
                    if m.contains(FileId(x)) {
                        s.pin(FileId(x));
                        m.pin(FileId(x));
                        held.push(FileId(x));
                    }
                }
                DiffOp::Unpin(n) => {
                    if !held.is_empty() {
                        let f = held.swap_remove(n % held.len());
                        s.unpin(f);
                        m.unpin(f);
                    }
                }
                DiffOp::Fail => prop_assert_eq!(s.fail(), m.fail()),
            }
            prop_assert_eq!(s.len(), m.len());
            prop_assert_eq!(s.stats(), m.stats());
            prop_assert_eq!(s.pinned_count(), m.pinned_count());
            for x in 0..UNIVERSE {
                let f = FileId(x);
                prop_assert_eq!(s.contains(f), m.contains(f), "contains {}", f);
                prop_assert_eq!(s.ref_count(f), m.ref_count(f), "ref_count {}", f);
            }
            // `resident()` yields ascending ids.
            let resident: Vec<FileId> = s.resident().collect();
            let expected: Vec<FileId> = m.resident().into_iter().collect();
            prop_assert_eq!(resident, expected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn matches_reference_model((cap, policy, ops) in arb_diff_ops()) {
            check_against_model(cap, policy, ops);
        }

        #[test]
        fn matches_reference_model_when_pins_pile_up((cap, policy, ops) in arb_pin_heavy_ops()) {
            check_against_model(cap, policy, ops);
        }
    }
}
