//! Order statistics over per-repetition samples, and the rule that turns
//! two sets of runs into a verdict.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method) exactly, so a spread computed here
//! matches one computed by any script that reads the result lines.

/// The median of `values` (mean of the two middle values for an even
/// count). Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them. Needs at least two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (rates).
    Higher,
    /// Smaller values are better (times, memory).
    Lower,
}

impl Better {
    /// Parses the `"better"` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// The verdict on one metric of one workload, parent runs against change
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Regressed,
    /// Every change run beats every parent run, or the medians differ in
    /// the change's favour by more than the parent's own spread.
    Improved,
    /// Within the bound, and the difference is inside the parent's
    /// spread — or the spread is wider than the bound, so "unchanged"
    /// cannot be claimed.
    Unresolved,
    /// Within the bound, and the parent's spread is tight enough to say
    /// so.
    Unchanged,
}

/// Judges `new` runs against `base` runs of one metric.
///
/// * worse than the parent's median by more than `bound` (a share of the
///   parent median) → [`Verdict::Regressed`];
/// * every change run better than every parent run, or the medians apart
///   in the change's favour by more than the parent's interquartile
///   distance → [`Verdict::Improved`];
/// * otherwise [`Verdict::Unchanged`] when the parent's spread is within
///   the bound, else [`Verdict::Unresolved`].
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let (q1, base_median, q3) = quartiles(base)?;
    let new_median = median(new)?;
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    // Positive means the change is better.
    let gain = sign * (new_median - base_median);
    if base_median != 0.0 && -gain / base_median.abs() > bound {
        return Some(Verdict::Regressed);
    }
    let all_better = new
        .iter()
        .all(|&v| base.iter().all(|&b| sign * (v - b) > 0.0));
    if all_better || gain > q3 - q1 {
        return Some(Verdict::Improved);
    }
    let base_spread = spread(base)?;
    Some(if base_spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 20% slower on a higher-is-better metric with a 10% bound.
        let slow = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(
            judge(&base, &slow, Better::Higher, 0.1),
            Some(Verdict::Regressed)
        );
        let fast = [110.0, 111.0, 109.0, 110.5, 109.5];
        assert_eq!(
            judge(&base, &fast, Better::Higher, 0.1),
            Some(Verdict::Improved)
        );
        // The same numbers read the other way round for a time.
        assert_eq!(
            judge(&base, &fast, Better::Lower, 0.05),
            Some(Verdict::Regressed)
        );
        let same = [100.2, 99.8, 100.1, 99.9, 100.0];
        assert_eq!(
            judge(&base, &same, Better::Higher, 0.1),
            Some(Verdict::Unchanged)
        );
        // A parent whose own spread exceeds the bound cannot vouch for
        // "unchanged".
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            judge(&noisy, &noisy, Better::Higher, 0.1),
            Some(Verdict::Unresolved)
        );
    }
}
