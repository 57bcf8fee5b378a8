//! Host probes and process memory readings.
//!
//! The probes do fixed work that no change to the repository can touch,
//! so a shift in their times between two result sets is machine drift,
//! not a code change.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the pointer-chase buffer (u32 each: 32 MiB, several times
/// a typical last-level cache).
const CHASE_ENTRIES: usize = 1 << 23;
const CHASE_STEPS: usize = 1 << 20;
const CPU_STEPS: u64 = 50_000_000;
const PROBE_REPS: usize = 3;

/// Median seconds of a fixed integer (xorshift) loop.
pub fn cpu_probe_s() -> f64 {
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let start = Instant::now();
            let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
            for _ in 0..CPU_STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::report::median(&times)
}

/// Median seconds of a dependent random walk through a 32 MiB single-cycle
/// permutation (one cache miss per step).
pub fn mem_probe_s() -> f64 {
    // Sattolo's algorithm with a fixed xorshift stream: one cycle through
    // every entry, identical on every run.
    let mut next: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
    let mut state: u64 = 0x2545_F491_4F6C_DD1D;
    for i in (1..CHASE_ENTRIES).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let start = Instant::now();
            let mut at = black_box(0usize);
            for _ in 0..CHASE_STEPS {
                at = next[at] as usize;
            }
            black_box(at);
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::report::median(&times)
}

/// Peak resident set (`VmHWM`) in MB; 0 where procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next
/// [`peak_rss_mb`] reading covers only what ran in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
