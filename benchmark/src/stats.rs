//! Medians, quartiles and the regression rule `compare` applies.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (time, memory).
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

impl serde::Serialize for Better {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_owned())
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) — the
/// rule the acceptance driver uses for a metric's spread. `None` below
/// two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds against a metric's bound. 0 when undefined.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// How run set B stands against run set A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than A's own spread.
    Better,
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Either side's spread is wider than the bound, so a difference of
    /// one bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// The word `compare` prints.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classify B against A. `bound` is the share of A's median by which
/// the metric may worsen. The rule is the choosing-metrics guide's:
/// worse by more than the bound is a regression; when the run-to-run
/// spread exceeds the bound the pair is unresolved, unless every run of
/// B reads better than every run of A.
pub fn classify(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return if mb == ma {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        };
    }
    // Signed worsening of B relative to A, as a share of A's median.
    let worse_by = match better {
        Better::Higher => (ma - mb) / ma.abs(),
        Better::Lower => (mb - ma) / ma.abs(),
    };
    let all_b_better = match better {
        Better::Higher => min(b) > max(a),
        Better::Lower => max(b) < min(a),
    };
    if spread(a) > bound || spread(b) > bound {
        return if all_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > spread(a) && all_b_better {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.0, 6.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn bound_classification() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput 5 % lower against an 8 % bound: within.
        let b = [95.0, 96.0, 94.0, 95.5, 94.5];
        assert_eq!(classify(&a, &b, Better::Higher, 0.08), Verdict::WithinBound);
        // 15 % lower: regressed.
        let c = [85.0, 86.0, 84.0, 85.5, 84.5];
        assert_eq!(classify(&a, &c, Better::Higher, 0.08), Verdict::Regressed);
        // The same numbers are an improvement when lower is better.
        assert_eq!(classify(&a, &c, Better::Lower, 0.08), Verdict::Better);
        // Every run higher: better.
        let d = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(classify(&a, &d, Better::Higher, 0.08), Verdict::Better);
        // A spread wider than the bound resolves nothing...
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        assert_eq!(
            classify(&a, &noisy, Better::Higher, 0.08),
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        let noisy_fast = [200.0, 300.0, 250.0, 150.0, 400.0];
        assert_eq!(
            classify(&a, &noisy_fast, Better::Higher, 0.08),
            Verdict::Better
        );
        // Equal sets sit within the bound.
        assert_eq!(classify(&a, &a, Better::Lower, 0.1), Verdict::WithinBound);
    }
}
