//! Order statistics for the ledger: medians, nearest-rank percentiles
//! with the "ten samples beyond" reporting rule, and the quartile
//! spread the compare mode and the benchmark contract both use.

/// Samples a percentile must leave above it before it is trusted.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for even counts); 0 for an
/// empty slice so a missing layer reads as "no time", never a panic.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// 1-based nearest-rank index of percentile `p` among `n` samples:
/// `ceil(p/100 · n)`, at least 1.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile; 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    v[nearest_rank(v.len(), p) - 1]
}

/// Samples strictly above the nearest-rank position of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// The reporting rule: a percentile stands on its own only with at
/// least [`MIN_BEYOND`] samples beyond it; below that the ledger still
/// prints the value but marks it indicative.
pub fn reportable(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Quartiles by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` defaults to, so spreads computed
/// here match the ones the benchmark contract is judged by.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        _ => [1usize, 2, 3].map(|i| {
            // Position i·(n+1)/4 in 1-based ranks; like Python, the
            // rank is clamped to the data but the offset is not, so
            // tiny samples extrapolate past their ends.
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        }),
    }
}

/// Five-number summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (all zeros when empty).
    pub fn of(samples: &[f64]) -> Self {
        let v = sorted(samples);
        let [q1, _, q3] = quartiles(&v);
        Summary {
            n: v.len(),
            min: v.first().copied().unwrap_or(0.0),
            q1,
            median: median(&v),
            q3,
            max: v.last().copied().unwrap_or(0.0),
        }
    }

    /// Quartile spread as a share of the median (0 when the median is).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_pins() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // ceil(0.5·10) = 5th, ceil(0.9·10) = 9th, ceil(0.91·10) = 10th.
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of the input does not matter; one sample is every percentile.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), 5.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // p90 of 100 sits at rank 90: exactly 10 beyond.
        assert_eq!(beyond(100, 90.0), 10);
        assert!(reportable(100, 90.0));
        assert!(!reportable(99, 90.0));
        // p50 needs 20 samples (rank 10, 10 beyond); 19 is one short.
        assert!(reportable(20, 50.0));
        assert!(!reportable(19, 50.0));
        assert!(!reportable(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn summary_and_spread() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.min, s.max, s.median), (10, 1.0, 10.0, 5.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[]).spread(), 0.0);
    }
}
