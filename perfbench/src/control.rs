//! The host-speed control.
//!
//! A shared host runs the same code at different speeds from one minute
//! to the next: a neighbour on the sibling hyperthread, memory
//! bandwidth, clock frequency. On the 2-vCPU Xeon this benchmark was
//! tuned on, every engine mode slowed by the same 10-25% at once, for
//! seconds to minutes at a time, so two sets of runs of the same code
//! could differ by more than any useful bound.
//!
//! The control is a fixed unit of work that lives here, in the
//! benchmark, so no change to the program moves it: dependent loads
//! over an L2-sized working set, then sorting (data-dependent
//! branches). The run times the unit before and after each job's turn
//! and scales the turn's wall time by [`scale`] of their mean, which
//! reads it at the speed of a host that runs the unit in
//! [`REFERENCE_S`].
//!
//! The unit reacts to the host's state more strongly than the engine
//! does. Over 10 runs of `steady` and `overload` (about 1,000 job
//! turns), a turn's flow rate moved as the unit's speed to the power
//! 0.4-1.0 depending on the mode (median 0.6), so the scale is the
//! unit's speed to the power [`ELASTICITY`].

use std::hint::black_box;
use std::time::Instant;

use crate::util::{derive_seed, quantile};

/// Seconds the unit takes on the reference host (the Xeon above, in
/// its fast state). Timed figures are reported at this speed.
pub const REFERENCE_S: f64 = 0.001;

/// How strongly the engine's speed follows the unit's (see above).
pub const ELASTICITY: f64 = 0.6;

/// Entries of the pointer-chasing cycle (64 KiB of `u32`).
const CHAIN: usize = 1 << 14;
/// Dependent loads per unit.
const CHASE_STEPS: usize = 200_000;
/// Keys sorted per sort, and sorts per unit.
const SORT_KEYS: usize = 8_192;
const SORTS: usize = 4;
/// Tries per measurement; the median counts, so one preempted try
/// does not.
const TRIES: usize = 5;

/// Factor that turns wall seconds into reference seconds, given the
/// unit's time `unit_s` around them.
pub fn scale(unit_s: f64) -> f64 {
    (REFERENCE_S / unit_s).powf(ELASTICITY)
}

/// The unit's fixed inputs, built once.
pub struct Control {
    chain: Vec<u32>,
    keys: Vec<u64>,
    scratch: Vec<u64>,
}

impl Control {
    pub fn new() -> Control {
        // Sattolo's shuffle: one cycle through every entry, so the chase
        // never settles into a short loop.
        let mut chain: Vec<u32> = (0..CHAIN as u32).collect();
        for i in (1..CHAIN).rev() {
            let j = (derive_seed(i as u64, 0xC0) % i as u64) as usize;
            chain.swap(i, j);
        }
        let keys: Vec<u64> = (0..SORT_KEYS as u64)
            .map(|i| derive_seed(i, 0xC1))
            .collect();
        let scratch = keys.clone();
        Control {
            chain,
            keys,
            scratch,
        }
    }

    /// Seconds the unit takes now.
    pub fn unit_s(&mut self) -> f64 {
        let mut tries: Vec<f64> = (0..TRIES)
            .map(|_| {
                let t = Instant::now();
                black_box(self.unit());
                t.elapsed().as_secs_f64()
            })
            .collect();
        quantile(&mut tries, 0.5)
    }

    fn unit(&mut self) -> u64 {
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.chain[at as usize];
        }
        let mut sum = u64::from(at);
        for _ in 0..SORTS {
            self.scratch.copy_from_slice(&self.keys);
            self.scratch.sort_unstable();
            sum ^= black_box(&self.scratch)[SORT_KEYS / 2];
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_scales_by_one() {
        assert!((scale(REFERENCE_S) - 1.0).abs() < 1e-12);
        // A host slower than the reference reads its wall seconds as
        // fewer reference seconds.
        assert!(scale(2.0 * REFERENCE_S) < 1.0);
        assert!(Control::new().unit_s() > 0.0);
    }
}
