//! Process resource readings from `/proc/self`.

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process, all threads, in seconds.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("missing CPU field {i} in /proc/self/stat"))
    };
    // utime and stime are fields 14 and 15: indices 11 and 12 here.
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Resets `VmHWM` to the current resident set, so the next reading is
/// the peak since now rather than since the process started.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM via /proc/self/clear_refs: {e}"))
}

/// Returns free heap memory in every malloc arena to the kernel, so
/// memory a finished set-up freed does not linger in whichever arena it
/// happened to use and inflate the next phase's resident set by chance.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes a byte count, touches only free
    // chunks under each arena's lock, and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// No-op where the allocator is not glibc's.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_memory() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn peak_rss_resets_below_an_earlier_peak() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let before = peak_rss_mb().unwrap();
        drop(big);
        release_free_memory();
        reset_peak_rss().unwrap();
        assert!(peak_rss_mb().unwrap() < before - 32.0);
    }
}
