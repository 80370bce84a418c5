//! Host-speed calibration.
//!
//! A shared host runs in phases: for minutes at a time every cell can take
//! 1.3–1.7× longer, so no statistic taken inside one run can cancel it. A
//! fixed reference kernel, timed alongside the cells, slows down in the
//! same phases. Host times are reported scaled by `NOMINAL_MS / kernel`,
//! that is, in milliseconds of a host running at the speed where the
//! kernel takes `NOMINAL_MS`. The kernel is the benchmark's own code, so a
//! change to the simulator cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the 2-vCPU host the benchmark was defined on, in a quiet
/// phase.
pub const NOMINAL_MS: f64 = 2.6;

const WORDS: usize = 1 << 17;

/// The reference kernel: fill 1 MiB with xorshift words and sort it. The
/// buffer is allocated once, so the kernel's cost does not depend on the
/// allocator state the simulator leaves behind.
pub struct Kernel {
    buf: Vec<u64>,
}

impl Kernel {
    pub fn new() -> Self {
        Kernel {
            buf: vec![0; WORDS],
        }
    }

    /// Runs the kernel once and returns its host time in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for w in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        self.buf.sort_unstable();
        black_box(self.buf[WORDS / 2]);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Factor that turns a host time measured while the kernel took
/// `kernel_ms` into nominal-speed time.
pub fn scale(kernel_ms: f64) -> f64 {
    if kernel_ms > 0.0 {
        NOMINAL_MS / kernel_ms
    } else {
        1.0
    }
}
