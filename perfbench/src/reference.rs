//! A fixed reference computation that gauges the host's current speed.
//!
//! Shared hosts drift: over minutes the fastest a simulation can run moves
//! by a third or more, in both directions. The benchmark therefore times
//! this kernel next to every simulation and reports simulation time in
//! units of the kernel's time. The kernel's code and inputs never change,
//! so only the host moves it.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

use crate::workloads::mix;

/// A small event loop shaped like a simulation's: a binary heap of pending
/// events, per-entity rate updates in floating point and a hash table of
/// accumulated load (a few milliseconds on a current x86 core).
pub fn kernel() -> u64 {
    const PENDING: u64 = 2_000;
    const STEPS: u64 = 20_000;
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..PENDING)
        .map(|id| Reverse((mix(id, 1) % 1_000_000, id)))
        .collect();
    let mut rates = vec![1.0f64; PENDING as usize];
    let mut load: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0u64;
    for step in 0..STEPS {
        let Reverse((at, id)) = heap.pop().expect("heap keeps PENDING events");
        let rate = &mut rates[id as usize];
        *rate = (*rate * 0.75 + (step % 7) as f64 * 0.25).max(0.1);
        *load.entry(mix(step, id) % 50_000).or_insert(0.0) += *rate;
        heap.push(Reverse((
            at + (1_000.0 / *rate) as u64 + mix(step, 2) % 1_000,
            id,
        )));
        acc = acc.wrapping_add(at);
    }
    black_box(acc ^ load.len() as u64)
}
