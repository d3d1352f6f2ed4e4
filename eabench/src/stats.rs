//! Exact order statistics over raw samples.
//!
//! Every latency the benchmark reports is computed here from the full
//! list of measured samples (nearest-rank percentiles), never from a
//! bucketed histogram, so a reported value is always one that was
//! actually observed.

/// Percentiles the tail report may use, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples beyond a tail percentile needed before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// The median, the highest ladder percentile with at least
/// [`MIN_BEYOND`] samples above its rank, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "samples must not be NaN"
        );
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// 1-based nearest rank of percentile `p` among `n` samples.
    fn rank(p: f64, n: usize) -> usize {
        // The epsilon keeps decimal percentiles such as 99.9 from rounding
        // one rank up.
        (p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize
    }

    /// Nearest-rank percentile (`0 < p <= 100`); `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let r = Self::rank(p, self.sorted.len()).min(self.sorted.len());
        Some(self.sorted[r - 1])
    }

    /// Samples strictly after the nearest rank of `p`.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.sorted.len();
        n.saturating_sub(Self::rank(p, n))
    }

    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Median plus the highest trustworthy tail percentile. `None` when
    /// even the median lacks [`MIN_BEYOND`] samples beyond it.
    pub fn summary(&self) -> Option<Summary> {
        let tail_pct = TAIL_LADDER
            .iter()
            .copied()
            .find(|&p| self.beyond(p) >= MIN_BEYOND)?;
        Some(Summary {
            count: self.sorted.len(),
            p50: self.percentile(50.0)?,
            tail_pct,
            tail: self.percentile(tail_pct)?,
        })
    }
}

/// Median of a small list (the mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("values are not NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_of_one_to_a_thousand() {
        let s = Samples::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.percentile(50.0), Some(500.0));
        assert_eq!(s.percentile(99.0), Some(990.0));
        assert_eq!(s.percentile(99.9), Some(999.0));
        assert_eq!(s.percentile(100.0), Some(1000.0));
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.beyond(99.9), 1);
        assert_eq!(s.mean(), Some(500.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let s = Samples::new((1..=1000).map(f64::from).collect());
        let sum = s.summary().unwrap();
        assert_eq!(sum.count, 1000);
        assert_eq!(sum.p50, 500.0);
        assert_eq!(sum.tail_pct, 99.0);
        assert_eq!(sum.tail, 990.0);

        let s = Samples::new((1..=999).map(f64::from).collect());
        let sum = s.summary().unwrap();
        assert_eq!(sum.tail_pct, 95.0);
        assert_eq!(sum.tail, 950.0);

        let s = Samples::new((1..=20_000).map(f64::from).collect());
        assert_eq!(s.summary().unwrap().tail_pct, 99.9);
    }

    #[test]
    fn too_few_samples_have_no_summary() {
        assert!(Samples::new((1..=19).map(f64::from).collect())
            .summary()
            .is_none());
        assert!(Samples::new(Vec::new()).percentile(50.0).is_none());
        let s = Samples::new((1..=21).map(f64::from).collect());
        assert_eq!(s.summary().unwrap().tail_pct, 50.0);
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
