//! The benchmark's own metric math: percentiles with the support rule,
//! ratio bases, self time from spans, and tracing overhead.

/// Samples that must lie beyond a percentile for it to be reported as
/// measured rather than extrapolated.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// Whether `n` samples support the `q`-quantile (at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it).
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= MIN_SAMPLES_BEYOND
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `q`-quantile of `samples` (reordered in place); 0 when
/// empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let idx = nearest_rank(samples.len(), q) - 1;
    *samples.select_nth_unstable(idx).1
}

/// Median of a list of measurements (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// `num / base`, 0 when nothing was counted in the base. Every per-op,
/// per-write, per-user-byte and per-scanned-pair figure goes through
/// this, with the base named at the call site.
pub fn ratio(num: f64, base: f64) -> f64 {
    if base > 0.0 {
        num / base
    } else {
        0.0
    }
}

/// User bytes a window wrote: key plus value bytes per acknowledged write.
pub fn user_bytes(writes: u64, key_len: usize, value_len: usize) -> f64 {
    writes as f64 * (key_len + value_len) as f64
}

/// A layer's self time: its span minus the part of it the next layer's
/// span covers. Probes call the layers' entries one after another, so a
/// child can outlast its parent; it then covers all of it.
pub fn self_time(span_ns: u64, child_ns: u64) -> u64 {
    span_ns - child_ns.min(span_ns)
}

/// Throughput lost to tracing, as a fraction of untraced throughput.
pub fn trace_overhead(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    ratio(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut s, 0.5), 50);
        assert_eq!(quantile(&mut s, 0.99), 99);
        assert_eq!(quantile(&mut s, 1.0), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn ratio_bases() {
        // Per op: 1200 round trips over 400 ops.
        assert_eq!(ratio(1200.0, 400.0), 3.0);
        // Per write: 50 flushes over 25 writes.
        assert_eq!(ratio(50.0, 25.0), 2.0);
        // Per user byte: 10 writes of an 8-B key and a 128-B value.
        assert_eq!(user_bytes(10, 8, 128), 1360.0);
        assert_eq!(ratio(2720.0, user_bytes(10, 8, 128)), 2.0);
        // Per scanned pair: a workload without scans has no base.
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(57_000.0, 50.0), 1140.0);
    }

    #[test]
    fn self_time_is_span_minus_child() {
        assert_eq!(self_time(10_000, 7_500), 2_500);
        assert_eq!(self_time(7_500, 7_500), 0);
        // A child that outlasted its parent covers all of it.
        assert_eq!(self_time(5_000, 6_000), 0);
    }

    #[test]
    fn trace_overhead_is_a_fraction_of_untraced() {
        assert!((trace_overhead(100_000.0, 90_000.0) - 0.1).abs() < 1e-12);
        assert!((trace_overhead(100_000.0, 102_000.0) + 0.02).abs() < 1e-12);
        assert_eq!(trace_overhead(0.0, 5.0), 0.0);
    }
}
