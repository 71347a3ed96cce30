//! Order statistics, timing of repeated closures, and the `/proc`
//! readers behind the memory metrics.

use std::time::Instant;

/// Median (mean of the two middle values for an even count). Panics on
/// an empty slice: every caller holds at least one sample by then.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of
/// the samples at or below it (`q` in `(0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds taken by `f`, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Median seconds of `reps` calls of `f` (a kernel row).
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).0).collect();
    median(&samples)
}

/// SplitMix64 step: how `--seed` fans out into generator and run seeds.
/// The benchmark's own copy, so its inputs stay the same whatever the
/// program does to its generators.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// This process's resident-set high-water mark, KiB.
pub fn vm_hwm_kib() -> f64 {
    status_kib("VmHWM:")
}

/// This process's current resident set, KiB.
pub fn vm_rss_kib() -> f64 {
    status_kib("VmRSS:")
}

/// Bytes this process has passed to `write`-family calls so far.
pub fn written_bytes() -> f64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .find_map(|line| line.strip_prefix("wchar:"))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.8), 40.0); // ten samples beyond it
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&[7.0], 0.8), 7.0);
        assert_eq!(percentile(&[2.0, 9.0, 4.0, 6.0, 8.0], 0.8), 8.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        if cfg!(target_os = "linux") {
            // The high-water mark is read second: it bounds any earlier reading.
            let rss = vm_rss_kib();
            assert!(rss > 0.0 && vm_hwm_kib() >= rss);
        }
    }
}
