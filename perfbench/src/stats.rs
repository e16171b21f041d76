//! Order statistics and host-resource readings.

/// The median (mean of the two middle values for an even count); NaN when
/// `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `pct`-th percentile of `values` (NaN when empty).
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (f64::from(pct) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile that leaves at least ten of `per_pass`
/// samples beyond it. Fixed by the per-pass point count, so runs with
/// different pass counts report the same percentile.
pub fn tail_percentile(per_pass: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&p| per_pass as f64 * f64::from(100 - p) / 100.0 >= 10.0)
        .unwrap_or(50)
}

/// The process's peak resident set (`VmHWM`) in MiB, or NaN when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90), 90.0);
        assert_eq!(percentile(&hundred, 100), 100.0);
        assert_eq!(tail_percentile(75), 86);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(5), 50);
    }
}
