//! Environment stamp: what machine and toolchain a number came from, and the
//! calibration loop that tells a drifting box from a changed program: as a
//! reading per run, and as slices beside every timed operation that scale
//! its time to one reference speed.

use std::time::{Duration, Instant};

/// Iterations of the calibration loop (≈ 0.1 s on the 2-core reference box).
const CALIB_ITERS: u64 = 50_000_000;

/// Steps of one calibration slice (80–100 µs on the reference box).
const SLICE_STEPS: u64 = 40_000;

/// What a slice takes at reference speed: 500 million steps a second, the
/// reference box with no neighbour on its core.
const REFERENCE_SLICE_NS: f64 = 80_000.0;

/// `steps` steps of a fixed integer-hash chain. It touches no memory and
/// calls no library code, so what moves its time is the box, not the program.
fn spin(steps: u64) -> Duration {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..steps {
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed()
}

/// Millions of steps per second over the calibration loop: a pair of runs
/// whose calibration differs by more than 5 % is *unresolved*, not a result.
pub fn calibrate_mops() -> f64 {
    CALIB_ITERS as f64 / 1e6 / spin(CALIB_ITERS).as_secs_f64()
}

/// One calibration slice, in ns: how fast this core is right now. Timed
/// operations are bracketed by slices and scaled with [`to_reference`].
pub fn slice_ns() -> u64 {
    spin(SLICE_STEPS).as_nanos() as u64
}

/// The factor that turns wall time measured among `slices` into time at
/// reference speed. The box runs a core at one of a few clock levels and
/// holds a level for a second or more (README.md, *Noise*); the slices taken
/// around an operation say which level it met. The fastest of them is taken
/// because a slice can be interrupted but cannot run faster than the core,
/// and because the error that leaves — an operation next to a change of
/// level counted as if it had run at the faster one — only makes that
/// repetition read worse, and a best-of-repetitions never picks it.
pub fn to_reference(slices: &[u64]) -> f64 {
    let fastest = slices.iter().copied().min().unwrap_or(0).max(1);
    REFERENCE_SLICE_NS / fastest as f64
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `rustc -V`, or `unknown` when no compiler is on the path at run time.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; `none`
/// outside a repository (the acceptance checkout is a plain directory).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.clone()),
        None => head,
    }
}

/// The stamp every output carries, as a JSON object.
pub fn stamp_json(workload: &str, seed: u64, calib_before: f64, calib_after: f64) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"nproc\":{},\"commit\":\"{}\",\
         \"rustc\":\"{}\",\"calib_mops_before\":{calib_before:.1},\
         \"calib_mops_after\":{calib_after:.1}}}",
        nproc(),
        git_commit(),
        rustc_version()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_scale_follows_the_fastest_slice() {
        assert_eq!(to_reference(&[100_000, 80_000, 160_000]), 1.0);
        assert_eq!(to_reference(&[40_000]), 2.0);
        assert_eq!(to_reference(&[160_000, 160_000]), 0.5);
        assert!(to_reference(&[]).is_finite());
    }
}
