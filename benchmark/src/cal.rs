//! Host-speed calibration.
//!
//! A shared sandbox host runs faster and slower from one minute to the
//! next. A fixed kernel that the benchmark owns — cache-missing
//! read-modify-writes over an 8 MiB buffer, then 200 000 small `String`
//! allocations — is timed before and after every timed repetition, and each
//! calibrated metric is scaled by `CAL_NOMINAL_S / mean(the two kernel
//! times)`. A repetition that ran while the host was 20 % slow is thereby
//! reported as if the host had run at its nominal speed.
//!
//! The kernel makes two passes: one on the calling thread alone, then one
//! on as many threads as the engine uses by default, all at once. The
//! workloads are partly serial and partly parallel, and a host can lose
//! speed per core (a neighbour thrashing the cache) or lose a core (two
//! virtual CPUs scheduled onto one physical core): the first pass sees
//! only the former, the second sees both. The kernel's time is the mean of
//! the two passes. Measured on the reference host over 12 runs per
//! workload, the run-to-run spread of `rep_s` was 10–13 % raw, 4–10 %
//! scaled by the first pass alone, 6 % by the second alone, and 3–4 % by
//! their mean.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host at the time the benchmark was
/// defined. Fixed: changing it rescales every calibrated metric.
pub const CAL_NOMINAL_S: f64 = 0.036;

const BUF_WORDS: usize = 1 << 20; // 8 MiB of u64
const RMW_STEPS: usize = 7_000_000;
const SMALL_STRINGS: usize = 200_000;

/// One thread's pass: the read-modify-writes over its own buffer, then the
/// allocations.
fn pass(buf: &mut [u64]) {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..RMW_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (BUF_WORDS - 1);
        buf[i] = buf[i].wrapping_mul(31).wrapping_add(x);
    }
    black_box(&*buf);
    let mut total = 0usize;
    for i in 0..SMALL_STRINGS {
        let s = black_box(i).to_string();
        total += black_box(s).len();
    }
    black_box(total);
}

/// The calibration kernel and its buffers, one per thread.
pub struct Calibrator {
    bufs: Vec<Vec<u64>>,
}

impl Calibrator {
    /// Allocates the buffers (once per process): as many as the engine's
    /// default worker count, the host's cores capped at 8.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        Calibrator {
            bufs: (0..threads)
                .map(|_| (0..BUF_WORDS as u64).collect())
                .collect(),
        }
    }

    /// Runs both passes and returns the mean of their wall-clock seconds.
    pub fn run(&mut self) -> f64 {
        let (mine, others) = self.bufs.split_first_mut().expect("at least one thread");
        let t0 = Instant::now();
        pass(mine);
        let alone = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for buf in others {
                scope.spawn(|| pass(buf));
            }
            pass(mine);
        });
        let together = t0.elapsed().as_secs_f64();
        (alone + together) / 2.0
    }
}

/// The factor a raw time is multiplied by, given the kernel times that
/// bracket it. Non-positive kernel times (never measured) leave the value
/// unscaled.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    let mean = (before_s + after_s) / 2.0;
    if mean > 0.0 {
        CAL_NOMINAL_S / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_nominal_speed() {
        // Host at nominal speed: unchanged.
        assert_eq!(factor(CAL_NOMINAL_S, CAL_NOMINAL_S), 1.0);
        // Host twice as slow during the repetition: the raw time is halved.
        assert!((factor(2.0 * CAL_NOMINAL_S, 2.0 * CAL_NOMINAL_S) - 0.5).abs() < 1e-12);
        // Bracketing times are averaged.
        let f = factor(0.5 * CAL_NOMINAL_S, 1.5 * CAL_NOMINAL_S);
        assert!((f - 1.0).abs() < 1e-12);
        // A 3.0 s repetition on a host 25 % slow reads as 2.4 s.
        let f = factor(1.25 * CAL_NOMINAL_S, 1.25 * CAL_NOMINAL_S);
        assert!((3.0 * f - 2.4).abs() < 1e-12);
        // Degenerate input leaves the value alone.
        assert_eq!(factor(0.0, 0.0), 1.0);
    }

    #[test]
    fn kernel_takes_measurable_time() {
        let mut c = Calibrator::new();
        assert!(c.run() > 0.0);
    }
}
