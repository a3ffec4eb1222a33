//! Order statistics shared by `run` (per-run percentiles) and `compare`
//! (medians, quartiles and verdicts across runs).

/// Nearest-rank percentile of `values`, `p` in (0, 100]. `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples above its nearest rank, so a tail figure never rests on a
/// handful of points. `None` when even the median lacks ten samples beyond.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0].into_iter().find(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
}

/// Median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match the
/// ones computed from the same numbers in Python. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (x[0], x[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, memory, cost).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// Outcome of comparing one metric across two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new side wins at least nine tenths of all pairs, and the medians
    /// differ by more than the base side's own quartile spread.
    Improved,
    /// Neither improved nor worse than the bound.
    Unchanged,
    /// The new median is worse than the base median by more than the bound.
    Regressed,
    /// The base runs spread wider than the bound, so "unchanged" cannot be
    /// told apart from a regression.
    Unresolved,
}

impl Verdict {
    /// Lower-case name as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the acceptance rules to one metric: `bound` is the share of the
/// base median by which the new median may get worse.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    if base.is_empty() || new.is_empty() {
        return Verdict::Unresolved;
    }
    let (mb, mn) = (median(base), median(new));
    let (q1, q3) = quartiles(base);
    let wins = |b: f64, n: f64| match better {
        Better::Lower => n < b,
        Better::Higher => n > b,
    };
    let pairs = (base.len() * new.len()) as f64;
    let won = base
        .iter()
        .flat_map(|&b| new.iter().map(move |&n| (b, n)))
        .filter(|&(b, n)| wins(b, n))
        .count() as f64;
    if won >= 0.9 * pairs && (mn - mb).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let scale = mb.abs().max(f64::MIN_POSITIVE);
    if (q3 - q1) / scale > bound {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => (mn - mb) / scale,
        Better::Higher => (mb - mn) / scale,
    };
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Unsorted input is fine.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(20_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same distribution: unchanged.
        let same = [100.2, 99.8, 100.1, 99.9, 100.0];
        assert_eq!(
            verdict(&base, &same, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // Clearly faster: improved.
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(
            verdict(&base, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        // 20% slower with a 10% bound: regressed.
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            verdict(&base, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        // 5% slower with a 10% bound: within the bound.
        let bit_slower = [105.0, 106.0, 104.0, 105.5, 104.5];
        assert_eq!(
            verdict(&base, &bit_slower, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &faster, Better::Higher, 0.1),
            Verdict::Regressed
        );
        // A base spread wider than the bound leaves the call unresolved.
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(
            verdict(&noisy, &same, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&[], &same, Better::Lower, 0.1), Verdict::Unresolved);
    }
}
