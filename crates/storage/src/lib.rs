//! # gridsched-storage — site data-server storage
//!
//! Every grid site in the paper's system model has **one data server** with
//! a capacity-bounded local storage (measured in number of equally-sized
//! files, Table 1: 6,000 by default). The storage must:
//!
//! * answer overlap queries (`|F_t|` — how many of a task's files are
//!   already local) for the scheduler,
//! * evict files when full ("since a storage is usually limited in size, it
//!   has to replace files at some point of time", §3.1) — we provide LRU
//!   (default), FIFO and LFU policies,
//! * never evict files *pinned* by an in-flight batch request or an
//!   executing task (a worker "can start executing a task only when all the
//!   files necessary for the task are present in the local data storage"),
//! * track `r_i`, the number of **past task references** of each file at
//!   this site — the `combined` metric's input. Reference counts survive
//!   eviction (they are bookkeeping, not cache state).
//!
//! [`SiteStore`] implements all of this with O(1) LRU/FIFO insert and
//! touch (an intrusive list over a per-site node slab; LFU uses an ordered
//! set) and evictions that cost O(pinned files skipped); residency lives
//! in a dense [`FileSet`] bitset (FileIds are dense `u32`s) so membership
//! probes are a shift-and-mask and overlap queries can use AND+popcount
//! via [`FileMask`]. [`ImageVault`] holds the checkpoint images the
//! checkpoint/restart subsystem parks beside the file cache — task-private
//! blobs that never enter the replacement policy but are lost with the
//! server when it fails.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fileset;
pub mod images;
pub mod policy;
pub mod store;

pub use fileset::{FileMask, FileSet};
pub use images::{CheckpointImage, ImageVault};
pub use policy::EvictionPolicy;
pub use store::{SiteStore, StoreStats};
