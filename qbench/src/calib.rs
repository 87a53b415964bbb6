//! Host-speed calibration for the end-to-end times.
//!
//! On a shared virtual machine the host's speed drifts by itself: over an
//! hour the same workload's median call time moved by more than 30 % with
//! no change to the code, while a fixed kernel timed next to it moved by
//! nearly the same factor. So the untraced run times this kernel around
//! every set-up and every step, and scales each measured time by
//! [`NOMINAL_SECS`] over the kernel's time at that moment: a reported time
//! is the time the call would take on a host where the kernel takes
//! [`NOMINAL_SECS`]. The kernel is the benchmark's own code, so a change to
//! the library never changes it.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the kernel's table: 64 MiB, past L2 and into L3 or memory,
/// like the engine's state and sample arrays.
const TABLE: usize = 8 << 20;
/// Random reads per kernel pass.
const READS: u64 = 1_500_000;
/// The kernel time that reported times are scaled to.
pub const NOMINAL_SECS: f64 = 0.015;
/// Resident size of the table, which peak-memory readings leave out.
pub const TABLE_MB: f64 = (TABLE * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0);

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^ (x >> 33)
}

/// The calibration kernel: hashed random reads over a fixed table, the
/// access pattern of a pull round.
pub struct Calibration {
    table: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Self {
        Calibration {
            table: (0..TABLE as u64).map(mix).collect(),
        }
    }

    /// Wall seconds of one kernel pass.
    pub fn time(&self) -> f64 {
        let start = Instant::now();
        let mask = TABLE - 1;
        let mut sum = 0u64;
        for i in 0..READS {
            sum = sum.wrapping_add(self.table[mix(i) as usize & mask]);
        }
        black_box(sum);
        start.elapsed().as_secs_f64()
    }
}

/// The factor that scales a time measured between kernel passes of
/// `before` and `after` seconds to the nominal host speed.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_SECS / (0.5 * (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_at_nominal_speed_and_inverse_to_kernel_time() {
        assert_eq!(scale(NOMINAL_SECS, NOMINAL_SECS), 1.0);
        assert!((scale(2.0 * NOMINAL_SECS, 2.0 * NOMINAL_SECS) - 0.5).abs() < 1e-12);
        assert!((scale(NOMINAL_SECS, 3.0 * NOMINAL_SECS) - 0.5).abs() < 1e-12);
    }
}
