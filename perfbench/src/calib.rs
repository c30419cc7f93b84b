//! Host-speed calibration.
//!
//! On a shared host the speed of one core drifts by up to 1.8x over
//! minutes with other tenants' load: several times the bound a run's
//! timings must hold between two sets of runs. A fixed reference loop,
//! timed in slices between the simulator's points, tracks that drift
//! (correlation 0.79 to 0.92 with pass time on a 2-vCPU Xeon KVM guest),
//! so the end-to-end timings are reported at the reference speed:
//! measured seconds times (reference slice time ÷ measured slice time).
//! The loop uses only the standard library, so no change to the
//! simulator can change it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Reference-loop slices run before each point.
pub const SLICES_PER_POINT: usize = 3;

/// One slice's time on a 2-vCPU Xeon KVM guest under load (rustc 1.95;
/// 13 ms when that host is quiet). It sets the scale of the reported
/// seconds only; comparisons do not depend on it.
const REFERENCE_SLICE_S: f64 = 0.019;

/// Timers in the reference loop's heap.
const TIMERS: u32 = 20_000;
/// Pop/push steps per slice.
const STEPS: usize = 120_000;

/// Host seconds taken by `n` slices of the reference loop.
pub fn slices(n: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(reference_loop());
    }
    start.elapsed().as_secs_f64()
}

/// `seconds` measured while `n` slices took `slice_s` in all, scaled to
/// the reference speed.
pub fn at_reference(seconds: f64, slice_s: f64, n: usize) -> f64 {
    seconds * REFERENCE_SLICE_S * n as f64 / slice_s
}

/// A small discrete-event loop, the simulator's hot path in outline: pop
/// the earliest timer, update its entity's state in a hash map, re-arm it.
/// Always the same work.
fn reference_loop() -> u64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut timers = BinaryHeap::with_capacity(TIMERS as usize);
    let mut state: HashMap<u32, u64> = HashMap::with_capacity(TIMERS as usize);
    for id in 0..TIMERS {
        let r = next();
        timers.push(Reverse((r % 1_000_000, id)));
        state.insert(id, r);
    }
    let mut acc = 0;
    for _ in 0..STEPS {
        let Reverse((now, id)) = timers.pop().expect("the heap never empties");
        let r = next();
        let s = state.entry(id).or_insert(0);
        *s = s.wrapping_add(r);
        acc ^= *s;
        timers.push(Reverse((now + r % 1_000_000, id)));
    }
    acc
}
