//! # gridsched-net — flow-level network simulation
//!
//! Reimplements the network model the paper inherits from SimGrid: a
//! **fluid, flow-level** model in which every active transfer (flow) crosses
//! a fixed route of links, and link bandwidth is divided among concurrent
//! flows by **max–min fairness**. A transfer of `S` bytes over a route with
//! total propagation latency `L` finishes after `L + S / rate(t)` where the
//! rate is the (time-varying) max–min share of the flow.
//!
//! * [`fair::max_min_rates`] — the progressive-filling specification,
//! * [`fair::MaxMinSolver`] — its bit-identical hot-path implementation
//!   (incremental flow registration, no per-recompute allocation),
//! * [`NetSim`] — the stateful engine: start/cancel/finish flows and query
//!   the next completion instant. Each flow carries a caller tag (the grid
//!   simulator tags it with what the transfer is for), and the flow table
//!   is a dense array with a slot table — no hashing, no ordered map.
//!   Bytes drain per **rate epoch**: a flow keeps the bytes it had left
//!   when its current rate took effect, and `remaining(t) = bytes_at_epoch
//!   − rate · (t − max(epoch, start))` is evaluated only by a cancel, a
//!   finish's drained-check, or a solve that changes that flow's rate
//!   (which re-bases it at that instant). Completion instants are cached
//!   per flow and kept in a min-heap keyed by `(eta, creation ordinal)`,
//!   and no clock advance visits every flow. A file hop costs one heap
//!   re-key and no solver call: a finished flow's solver slot is held,
//!   and a successor on the same route takes it over (see [`engine`]).
//!
//! The engine is deliberately decoupled from the event queue: the caller
//! (the grid simulator) owns the clock, asks [`NetSim::next_completion`]
//! after every change, and schedules/cancels a single DES event for it.
//!
//! ```
//! use gridsched_des::SimTime;
//! use gridsched_net::NetSim;
//! use gridsched_topology::EdgeId;
//!
//! // One link of 10 bytes/s; a 100-byte flow with 2s latency.
//! let mut net = NetSim::new(vec![10.0]);
//! let f = net.start_flow(SimTime::ZERO, &[EdgeId(0)], 100.0, 2.0, ());
//! let (t, id) = net.next_completion().expect("one active flow");
//! assert_eq!(id, f);
//! assert!((t.as_secs() - 12.0).abs() < 1e-9); // 2s latency + 100/10
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fair;
#[cfg(test)]
mod reference;

pub use engine::{FlowId, NetSim};
