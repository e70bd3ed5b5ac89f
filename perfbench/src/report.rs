//! Statistics, process readings and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A smoothed `q`-quantile: the mean of the samples ranked within
/// `width` (a share of the sample count) of the quantile's rank. Commit
/// latencies cluster by the number of ticks a write waited, and where a
/// quantile falls between two clusters the plain quantile jumps from one
/// to the other as their shares shift by a sample; the mean over a band
/// of ranks moves in proportion instead.
pub fn band_quantile(values: &[f64], q: f64, width: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = (sorted.len() - 1) as f64;
    let lo = ((q - width).max(0.0) * last).round() as usize;
    let hi = ((q + width).min(1.0) * last).round() as usize;
    let band = &sorted[lo..=hi];
    band.iter().sum::<f64>() / band.len() as f64
}

/// The mean of `values` less the `trim` share of them at each end (the
/// count dropped is rounded down); 0 for no values.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (trim * sorted.len() as f64) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    ratio(kept.iter().sum(), kept.len() as f64)
}

/// The `q`-quantile of whole-tick counts, read as the grouped-data
/// quantile: a count `k` stands for the unit interval `[k - 0.5, k + 0.5)`
/// and the quantile is interpolated inside the interval it falls in. It
/// moves smoothly as the share of each count shifts, where the plain
/// quantile would jump by whole ticks.
pub fn tick_quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let target = q * sorted.len() as f64;
    let mut below = 0;
    while below < sorted.len() {
        let k = sorted[below];
        let upto = below + sorted[below..].partition_point(|&v| v <= k);
        if upto as f64 >= target {
            return k - 0.5 + (target - below as f64) / (upto - below) as f64;
        }
        below = upto;
    }
    sorted[sorted.len() - 1] + 0.5
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// High-water resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// User plus system CPU seconds of this process, from `/proc/self/stat`
/// (in clock ticks of 1/100 s, Linux's `USER_HZ`).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The result line: one JSON object.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }

    #[test]
    fn band_quantiles_move_smoothly_between_clusters() {
        assert_eq!(band_quantile(&[], 0.5, 0.05), 0.0);
        let ramp: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(band_quantile(&ramp, 0.5, 0.05), 50.0);
        let p99 = band_quantile(&ramp, 0.99, 0.005);
        assert!((98.5..=99.5).contains(&p99), "{p99}");
        // Two clusters, 10 and 20, with the median between them: moving
        // one sample across moves the band mean by a small step only.
        let split = |low: usize| {
            let mut v = vec![10.0; low];
            v.resize(1000, 20.0);
            band_quantile(&v, 0.5, 0.05)
        };
        let (a, b) = (split(499), split(501));
        assert!((a - b).abs() < 0.5, "{a} {b}");
        assert!(a > 10.0 && a < 20.0);
    }

    #[test]
    fn trimmed_means_drop_both_ends() {
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
        assert_eq!(trimmed_mean(&[2.0, 4.0], 0.1), 3.0);
        // One outlier in ten is dropped, with the lowest value.
        let mut v = vec![1.0, 5.0, 5.0, 5.0, 5.0, 6.0, 6.0, 6.0, 6.0, 1000.0];
        assert_eq!(trimmed_mean(&v, 0.1), 5.5);
        v.reverse();
        assert_eq!(trimmed_mean(&v, 0.1), 5.5);
    }

    #[test]
    fn tick_quantiles_interpolate_inside_the_count() {
        assert_eq!(tick_quantile(&[], 0.5), 0.0);
        assert_eq!(tick_quantile(&[4.0, 4.0], 0.5), 4.0);
        // Half the samples at 4, half at 5: the median is the boundary.
        assert_eq!(tick_quantile(&[4.0, 5.0, 4.0, 5.0], 0.5), 4.5);
        // Three quarters at 4: the median sits two thirds into 4's bin.
        let v = tick_quantile(&[4.0, 4.0, 4.0, 5.0], 0.5);
        assert!((v - (3.5 + 2.0 / 3.0)).abs() < 1e-12, "{v}");
        assert_eq!(tick_quantile(&[6.0; 100], 0.99), 6.49);
    }

    #[test]
    fn json_line_has_the_fixed_keys() {
        let line = json_line(
            true,
            3,
            0,
            &[Metric {
                name: "a_ms",
                unit: "ms",
                value: 1.5,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > 0.0, "{x}");
    }
}
