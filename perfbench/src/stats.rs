//! Order statistics for repeated measurements.

/// A distribution reduced to its median, quartiles and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the median, or the named percentile for a
    /// latency percentile metric.
    pub value: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// A single measured value (quartiles collapse onto it).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Median and quartiles of `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let sorted = sorted(values)?;
        let (q1, median, q3) = quartiles(&sorted);
        Some(Summary {
            value: median,
            q1,
            q3,
            n: sorted.len(),
        })
    }

    /// The `p`-th percentile of `values` (linear interpolation between
    /// closest ranks) with the quartiles of the same samples.
    pub fn percentile(values: &[f64], p: f64) -> Option<Summary> {
        let sorted = sorted(values)?;
        let (q1, _, q3) = quartiles(&sorted);
        Some(Summary {
            value: percentile_sorted(&sorted, p),
            q1,
            q3,
            n: sorted.len(),
        })
    }
}

fn sorted(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v)
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so the benchmark's spreads read the
/// same as an outside recomputation from its values.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Linear-interpolation percentile of ascending `sorted`, `p` in 0..=100.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.value, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.value, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(Summary::percentile(&v, 99.0).unwrap().value, 99.0);
        assert_eq!(percentile_sorted(&[1.0, 3.0], 50.0), 2.0);
        assert!(Summary::of(&[]).is_none());
    }
}
