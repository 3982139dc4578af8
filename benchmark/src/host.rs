//! Host facts recorded with every result.

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process so far, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 x i64 each)
    // followed by fourteen `long` fields, `ru_maxrss` (KiB) first.
    const RUSAGE_SELF: i32 = 0;
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of exactly
    // `sizeof(struct rusage)` bytes on 64-bit Linux, and `getrusage`
    // writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage[4] as f64 / 1024.0
    } else {
        0.0
    }
}

/// Peak resident set of this process so far, in MiB (not measured on
/// this target).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mb() -> f64 {
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
