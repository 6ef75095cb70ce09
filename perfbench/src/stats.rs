//! Order statistics and ratios, with the reporting rules the benchmark
//! applies to every metric.

/// Tail percentiles are only reported with at least this many samples
/// strictly beyond them, so a single outlier cannot set the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`.
/// `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median; for an even count, the mean of the two middle samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail percentile that has enough samples beyond it to mean something.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The whole percentile reported (at most `cap`).
    pub pct: u32,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// The highest whole percentile `<= cap` with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its nearest rank, or `None`
/// when even the median has fewer than that beyond it.
pub fn tail(samples: &[f64], cap: u32) -> Option<Tail> {
    let n = samples.len();
    (50..=cap).rev().find_map(|pct| {
        let rank = (f64::from(pct) / 100.0 * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: percentile(samples, f64::from(pct)).expect("non-empty"),
            samples: n,
        })
    })
}

/// A ratio that keeps its base, so a reader can tell 1/2 from 5000/10000.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator count or quantity.
    pub part: f64,
    /// Denominator: what the ratio is a share of.
    pub base: f64,
}

impl Ratio {
    /// `part / base`; 0 when the base is empty.
    pub fn value(&self) -> f64 {
        if self.base > 0.0 {
            self.part / self.base
        } else {
            0.0
        }
    }
}

/// The geometric mean of positive values; `None` if empty or any value
/// is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&ramp(100), 99.0), Some(99.0));
        assert_eq!(percentile(&ramp(100), 100.0), Some(100.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 sits at rank 990 with exactly 10 beyond.
        let t = tail(&ramp(1000), 99).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99, 990.0, 1000));
        // One sample fewer leaves only 9 beyond p99, so p98 is reported.
        assert_eq!(tail(&ramp(999), 99).unwrap().pct, 98);
        // 150 samples: p93 has rank 140 (10 beyond), p94 has rank 141.
        let t = tail(&ramp(150), 99).unwrap();
        assert_eq!((t.pct, t.value), (93, 140.0));
        // Every reported tail really has >= 10 samples beyond its rank.
        for n in [20usize, 37, 150, 999, 1000, 5000] {
            let t = tail(&ramp(n), 99).unwrap();
            let beyond = ramp(n).iter().filter(|&&v| v > t.value).count();
            assert!(
                beyond >= TAIL_MIN_BEYOND,
                "n={n} p{} beyond={beyond}",
                t.pct
            );
        }
        // Too few samples for even the median: no tail at all.
        assert_eq!(tail(&ramp(19), 99), None);
        assert_eq!(tail(&[], 99), None);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio {
            part: 3.0,
            base: 4.0,
        };
        assert_eq!(r.value(), 0.75);
        assert_eq!(
            Ratio {
                part: 0.0,
                base: 0.0
            }
            .value(),
            0.0
        );
    }

    #[test]
    fn geomean_of_positives() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
