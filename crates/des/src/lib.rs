//! # gridsched-des — discrete-event simulation kernel
//!
//! A small, deterministic discrete-event simulation (DES) kernel used by the
//! grid simulator in `gridsched-sim`. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — totally-ordered simulation timestamps
//!   (seconds, `f64` under the hood, NaN-free by construction),
//! * [`EventQueue`] — a cancellable priority queue of timestamped events with
//!   stable FIFO ordering for simultaneous events (O(1), hash-free
//!   cancellation through slot-checked handles), plus one *armed* event
//!   kept outside the heap for an owner that re-aims a single pending
//!   event after every state change; arming dispatches exactly as a cancel
//!   plus a push would, so it changes no dispatch order,
//! * [`Schedule`] — a thin driver that owns the queue and the clock and
//!   enforces time monotonicity,
//! * [`rng`] — seed-derivation helpers so every simulation component gets an
//!   independent, reproducible random stream from one master seed.
//!
//! The kernel replaces the role SimGrid plays in the paper *"New
//! Worker-Centric Scheduling Strategies for Data-Intensive Grid
//! Applications"* (MIDDLEWARE 2007): it is the substrate on which the
//! flow-level network model and the grid application model execute.
//!
//! ## Example
//!
//! ```
//! use gridsched_des::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::from_secs(2.0), "second");
//! let h = q.push(SimTime::from_secs(1.0), "first");
//! q.push(SimTime::from_secs(3.0), "third");
//! q.cancel(h);
//! let (t, ev) = q.pop().expect("queue is non-empty");
//! assert_eq!(ev, "second");
//! assert_eq!(t, SimTime::from_secs(2.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod rng;
pub mod schedule;
pub mod time;

pub use queue::{EventHandle, EventQueue};
pub use schedule::Schedule;
pub use time::{SimDuration, SimTime};
