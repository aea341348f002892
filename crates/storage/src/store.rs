//! Capacity-bounded site storage with pinning and reference tracking.

use std::collections::BTreeSet;

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

/// End-of-list marker for the intrusive eviction list, and the empty entry
/// of the slot index.
const NIL: u32 = u32::MAX;

/// File ids per page of the slot index.
const PAGE: usize = 64;

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
    /// Position stamp in the LRU/FIFO list, assigned at every append:
    /// stamps ascend from head to tail.
    stamp: u64,
}

/// A file's LFU order, kept beside its [`Node`] by an LFU store only.
#[derive(Debug, Clone, Copy, Default)]
struct LfuEntry {
    /// Use count while resident.
    freq: u64,
    /// Insertion sequence number, [`StoreStats::insertions`] at insert
    /// time (the tie-break).
    inserted: u64,
}

/// The `FileId → slot` index. File ids are dense, so the index is a
/// directory with one entry per [`PAGE`] consecutive ids, pointing at a
/// page of their slots (`NIL` where an id has none); a page is allocated
/// the first time one of its ids is touched.
#[derive(Debug, Clone, Default)]
struct SlotIndex {
    pages: Vec<Option<Box<[u32; PAGE]>>>,
}

impl SlotIndex {
    /// The slot of `file`, if it has one.
    fn get(&self, file: FileId) -> Option<u32> {
        let id = file.index();
        let page = self.pages.get(id / PAGE)?.as_ref()?;
        let slot = page[id % PAGE];
        (slot != NIL).then_some(slot)
    }

    /// The slot entry of `file` (`NIL` if it has none), allocating its page
    /// on first touch.
    fn entry(&mut self, file: FileId) -> &mut u32 {
        let id = file.index();
        let d = id / PAGE;
        if d >= self.pages.len() {
            self.pages.resize(d + 1, None);
        }
        &mut self.pages[d].get_or_insert_with(|| Box::new([NIL; PAGE]))[id % PAGE]
    }
}

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
/// node slab holding its pins, `r_i` and eviction-order links (32 bytes).
/// Slots are numbered in first-touch order. A paged index finds a file's
/// slot with two loads and no hashing: a directory entry per 64
/// consecutive ids points at a page of those ids' slots, and a page is
/// allocated the first time one of its ids is touched. A dense
/// [`FileSet`] bitset answers membership.
///
/// * **LRU / FIFO** keep resident files in a doubly linked list over slab
///   slots, oldest at the head: insert appends, an LRU touch moves the
///   file to the tail and a FIFO touch leaves it. Insert and touch are
///   O(1).
/// * **LFU** keeps an ordered set keyed by (use count, insertion order),
///   so a touch is O(log n). The two keys live in a side table beside the
///   slab that only an LFU store fills.
///
/// Eviction takes the first unpinned file in that order. Under LRU/FIFO
/// a first-unpinned cursor remembers how far the pinned files at the head
/// of the list reach (every file before it is pinned), so files pinned by
/// running tasks are skipped once, not on every eviction; an unpin before
/// the cursor (told apart by the files' list stamps) moves it back. LFU
/// costs O(1 + pinned files skipped) per eviction.
///
/// Memory is the slab, proportional to the files the site has touched
/// (the same bound as `r_i` itself), plus the index: 256 bytes per
/// touched page and one 8-byte page pointer per 64 ids up to the highest
/// id touched, the same as the residency bitset's 8 bytes per 64 ids.
/// Coadd files cluster in id space, so a site touches few pages.
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
    /// LFU keys, one per slab slot (empty otherwise).
    lfu: Vec<LfuEntry>,
    /// LFU eviction order: `(freq, inserted, slot)` (empty otherwise).
    by_freq: BTreeSet<(u64, u64, u32)>,
    /// The files the latest insert evicted, with their `r_i`, in eviction
    /// order (reused across inserts).
    evicted: Vec<(FileId, u32)>,
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
            lfu: Vec::new(),
            by_freq: BTreeSet::new(),
            evicted: Vec::new(),
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
            .get(file)
            .map_or(0, |slot| self.nodes[slot as usize].refs)
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
        let entry = self.slots.entry(file);
        if *entry == NIL {
            *entry = u32::try_from(self.nodes.len()).expect("fewer than 2^32 files per site");
            self.nodes.push(Node {
                file,
                prev: NIL,
                next: NIL,
                pins: 0,
                refs: 0,
                stamp: 0,
            });
            if self.policy == EvictionPolicy::Lfu {
                self.lfu.push(LfuEntry::default());
            }
        }
        *entry
    }

    /// The slot of a resident `file`.
    fn resident_slot(&self, file: FileId, op: &str) -> u32 {
        assert!(self.contains(file), "{op}: file {file} not resident");
        self.slot_of_resident(file)
    }

    /// [`resident_slot`](Self::resident_slot) for a file known resident.
    fn slot_of_resident(&self, file: FileId) -> u32 {
        self.slots.get(file).expect("a resident file has a slot")
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
        let entry = self.lfu[slot as usize];
        (entry.freq, entry.inserted, slot)
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
        self.insert_slot(file);
        self.evicted_files()
    }

    /// [`insert`](Self::insert) followed by [`pin`](Self::pin), with one
    /// index lookup for both. Returns the evicted files and `file`'s `r_i`
    /// (what [`ref_count`](Self::ref_count) would read).
    pub fn insert_pinned(&mut self, file: FileId) -> (Vec<FileId>, u32) {
        let refs = self.admit_pinned(file);
        (self.evicted_files(), refs)
    }

    /// [`insert`](Self::insert) without building the list of evicted
    /// files: they stay readable, with their `r_i`, through
    /// [`evicted`](Self::evicted) until the next insert. Returns `file`'s
    /// `r_i` (what [`ref_count`](Self::ref_count) would read), from the
    /// same index lookup.
    pub fn admit(&mut self, file: FileId) -> u32 {
        let slot = self.insert_slot(file);
        self.nodes[slot as usize].refs
    }

    /// [`admit`](Self::admit) followed by [`pin`](Self::pin), with one
    /// index lookup for both.
    pub fn admit_pinned(&mut self, file: FileId) -> u32 {
        let slot = self.insert_slot(file);
        let node = &mut self.nodes[slot as usize];
        node.pins += 1;
        node.refs
    }

    /// The files the latest insert (any of [`insert`](Self::insert),
    /// [`insert_pinned`](Self::insert_pinned), [`admit`](Self::admit) and
    /// [`admit_pinned`](Self::admit_pinned)) evicted, each with its `r_i`,
    /// in eviction order.
    #[must_use]
    pub fn evicted(&self) -> &[(FileId, u32)] {
        &self.evicted
    }

    fn evicted_files(&self) -> Vec<FileId> {
        self.evicted.iter().map(|&(file, _)| file).collect()
    }

    /// The body of every insert: fills [`SiteStore::evicted`] and returns
    /// `file`'s slot.
    fn insert_slot(&mut self, file: FileId) -> u32 {
        self.evicted.clear();
        if self.contains(file) {
            let slot = self.slot_of_resident(file);
            self.touch_slot(slot);
            return slot;
        }
        while self.len() >= self.capacity {
            if !self.evict_one() {
                self.stats.overflow_inserts += 1;
                break;
            }
        }
        let slot = self.slot_or_new(file);
        if self.policy == EvictionPolicy::Lfu {
            self.lfu[slot as usize] = LfuEntry {
                freq: 0,
                inserted: self.stats.insertions,
            };
            self.by_freq.insert(self.lfu_key(slot));
        } else {
            self.push_back(slot);
        }
        self.resident.insert(file);
        self.stats.insertions += 1;
        self.stats.max_resident = self.stats.max_resident.max(self.len());
        slot
    }

    /// Evicts the policy's best victim among unpinned files onto
    /// [`SiteStore::evicted`]. Returns `false` if everything is pinned.
    fn evict_one(&mut self) -> bool {
        let slot = if self.policy == EvictionPolicy::Lfu {
            let Some(slot) = self
                .by_freq
                .iter()
                .map(|&(_, _, slot)| slot)
                .find(|&slot| self.nodes[slot as usize].pins == 0)
            else {
                return false;
            };
            slot
        } else {
            while self.cursor != NIL && self.nodes[self.cursor as usize].pins > 0 {
                self.cursor = self.nodes[self.cursor as usize].next;
            }
            if self.cursor == NIL {
                return false;
            }
            self.cursor
        };
        self.remove_resident(slot);
        self.stats.evictions += 1;
        let node = &self.nodes[slot as usize];
        self.evicted.push((node.file, node.refs));
        true
    }

    /// Marks `file` as used now (updates LRU recency / LFU frequency). No-op
    /// for non-resident files.
    pub fn touch(&mut self, file: FileId) {
        if self.policy == EvictionPolicy::Fifo || !self.contains(file) {
            return;
        }
        let slot = self.slot_of_resident(file);
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
                self.lfu[slot as usize].freq += 1;
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
            .map(|f| (f, self.slot_of_resident(f)))
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
            let mut c = SiteStore::new(3, policy);
            for store in [&mut a, &mut b, &mut c] {
                store.record_task_reference(f(4));
                store.record_task_reference(f(4));
                store.record_task_reference(f(1));
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
                assert_eq!(c.admit_pinned(file), refs);
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{policy:?} {file}");
                assert_eq!(format!("{a:?}"), format!("{c:?}"), "{policy:?} {file}");
                let with_refs: Vec<(FileId, u32)> =
                    evicted.iter().map(|&e| (e, b.ref_count(e))).collect();
                assert_eq!(c.evicted(), with_refs, "{policy:?} {file}");
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

    #[test]
    fn admit_hands_back_evictions_with_their_refs() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lru);
        s.record_task_reference(f(1));
        s.record_task_reference(f(1));
        s.record_task_reference(f(3));
        assert_eq!(s.admit(f(1)), 2);
        assert_eq!(s.admit(f(2)), 0);
        assert!(s.evicted().is_empty());
        assert_eq!(s.admit(f(3)), 1);
        assert_eq!(s.evicted(), [(f(1), 2)]);
        s.touch(f(2));
        assert_eq!(s.evicted(), [(f(1), 2)], "kept until the next insert");
        // Re-admitting a resident file is a touch: nothing evicted.
        assert_eq!(s.admit(f(3)), 1);
        assert!(s.evicted().is_empty());
    }

    #[test]
    fn a_file_on_an_untouched_page_is_absent() {
        let mut s = SiteStore::new(4, EvictionPolicy::Lru);
        s.insert(f(5));
        s.record_task_reference(f(5));
        // Same page as f5 but never touched; a page never allocated inside
        // the directory; a page beyond it.
        for file in [f(6), f(64), f(127), f(100_000)] {
            assert!(!s.contains(file), "{file}");
            assert_eq!(s.ref_count(file), 0, "{file}");
        }
        assert_eq!(s.ref_count(f(5)), 1);
    }

    #[test]
    #[should_panic(expected = "pin: file f100000 not resident")]
    fn pin_on_an_untouched_page_panics() {
        let mut s = SiteStore::new(4, EvictionPolicy::Lru);
        s.insert(f(5));
        s.pin(f(100_000));
    }

    #[test]
    #[should_panic(expected = "unpin: file f130 not resident")]
    fn unpin_on_an_untouched_page_panics() {
        let mut s = SiteStore::new(4, EvictionPolicy::Lru);
        s.insert(f(200));
        s.unpin(f(130));
    }

    #[test]
    fn refs_survive_eviction_on_a_page_a_neighbour_allocated() {
        for policy in EvictionPolicy::ALL {
            let mut s = SiteStore::new(1, policy);
            s.insert(f(128)); // allocates the page of ids 128..192
            s.record_task_reference(f(129));
            s.record_task_reference(f(129));
            s.insert(f(129)); // evicts 128
            s.insert(f(7)); // evicts 129
            assert!(!s.contains(f(129)), "{policy:?}");
            assert_eq!(s.ref_count(f(129)), 2, "{policy:?}");
            assert_eq!(s.ref_count(f(128)), 0, "{policy:?}");
            assert_eq!(s.insert_pinned(f(129)), (vec![f(7)], 2), "{policy:?}");
        }
    }

    #[test]
    fn node_fits_in_32_bytes() {
        assert!(std::mem::size_of::<Node>() <= 32);
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
    /// Operations name a file by its index in the universe.
    const UNIVERSE: u32 = 24;

    /// The dense universe: ids `0..UNIVERSE`, all on one index page.
    fn dense_universe() -> Vec<FileId> {
        (0..UNIVERSE).map(FileId).collect()
    }

    /// A sparse universe over many index pages: both sides of
    /// `UNIVERSE / 2` page boundaries (`64k − 1` and `64k`), near the start
    /// of the id space and at ids ≥ 100,000.
    fn arb_sparse_universe() -> impl Strategy<Value = Vec<FileId>> {
        let boundary = prop_oneof![
            (1u32..16).prop_map(|k| 64 * k),
            (1563u32..1600).prop_map(|k| 64 * k),
        ];
        proptest::collection::vec(boundary, UNIVERSE as usize / 2).prop_map(|bounds| {
            bounds
                .into_iter()
                .flat_map(|b| [FileId(b - 1), FileId(b)])
                .collect()
        })
    }

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

    /// Applies `ops` over `universe` to a [`SiteStore`] and the
    /// [`ModelStore`] and checks that every observable agrees after each
    /// one.
    fn check_against_model(
        cap: usize,
        policy: EvictionPolicy,
        ops: Vec<DiffOp>,
        universe: &[FileId],
    ) {
        let mut s = SiteStore::new(cap, policy);
        let mut m = ModelStore::new(cap, policy);
        let mut held: Vec<FileId> = Vec::new();
        for op in ops {
            match op {
                DiffOp::Insert(x) => {
                    let file = universe[x as usize];
                    let evicted = m.insert(file);
                    prop_assert_eq!(s.insert(file), evicted.clone());
                    let with_refs: Vec<(FileId, u32)> =
                        evicted.into_iter().map(|e| (e, m.ref_count(e))).collect();
                    prop_assert_eq!(s.evicted(), with_refs);
                }
                DiffOp::Touch(x) => {
                    s.touch(universe[x as usize]);
                    m.touch(universe[x as usize]);
                }
                DiffOp::Reference(x) => {
                    s.record_task_reference(universe[x as usize]);
                    m.record_task_reference(universe[x as usize]);
                }
                DiffOp::Pin(x) => {
                    let file = universe[x as usize];
                    if m.contains(file) {
                        s.pin(file);
                        m.pin(file);
                        held.push(file);
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
            for &f in universe {
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
            check_against_model(cap, policy, ops, &dense_universe());
        }

        #[test]
        fn matches_reference_model_when_pins_pile_up((cap, policy, ops) in arb_pin_heavy_ops()) {
            check_against_model(cap, policy, ops, &dense_universe());
        }
    }

    proptest! {
        // Fewer cases: every check walks a residency bitset over ~1,600
        // words here.
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_reference_model_over_sparse_ids(
            (cap, policy, ops) in arb_diff_ops(),
            universe in arb_sparse_universe(),
        ) {
            check_against_model(cap, policy, ops, &universe);
        }

        #[test]
        fn matches_reference_model_when_pins_pile_up_over_sparse_ids(
            (cap, policy, ops) in arb_pin_heavy_ops(),
            universe in arb_sparse_universe(),
        ) {
            check_against_model(cap, policy, ops, &universe);
        }
    }
}
