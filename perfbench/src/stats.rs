//! Order statistics for the reported timings.

use std::collections::BTreeMap;

/// Percentile rungs a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// Linearly interpolated quantile `q` in `[0, 1]` of `xs` (the "inclusive"
/// method: `q = 0` is the minimum, `q = 1` the maximum). `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `xs`; `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(f64::NAN)
}

/// Median of the samples of each name.
pub fn median_by_name(xs: &[(String, f64)]) -> BTreeMap<String, f64> {
    let mut by: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (name, x) in xs {
        by.entry(name.clone()).or_default().push(*x);
    }
    by.into_iter().map(|(name, v)| (name, median(&v))).collect()
}

/// The tail a timing distribution is reported at: the highest percentile
/// on [`TAIL_LADDER`] with at least [`TAIL_MIN_BEYOND`] samples beyond it.
/// The percentile moves only at fixed sample counts (40, 100, 200, 1000,
/// 10000), so runs of similar length report the same rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `90.0`.
    pub percentile: f64,
    /// The interpolated value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Selects the [`Tail`] of `xs`. With fewer than twenty samples not even
/// the median has ten beyond it; the median is reported and `samples`
/// says why.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len() as f64;
    let percentile = TAIL_LADDER
        .iter()
        .copied()
        // The tolerance keeps e.g. 100 * (1 - 0.9) on the p90 rung.
        .rfind(|p| n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9)
        .unwrap_or(TAIL_LADDER[0]);
    Some(Tail {
        percentile,
        value: quantile(xs, percentile / 100.0)?,
        samples: xs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.5));
        assert_eq!(quantile(&[5.0], 0.9), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&ramp(11)), 6.0);
    }

    #[test]
    fn tail_is_the_highest_rung_with_ten_samples_beyond() {
        // 39 samples: p75 would leave 9.75 beyond, so the median it is.
        assert_eq!(tail(&ramp(39)).unwrap().percentile, 50.0);
        // Exactly ten beyond p75 at 40 samples.
        assert_eq!(tail(&ramp(40)).unwrap().percentile, 75.0);
        assert_eq!(tail(&ramp(99)).unwrap().percentile, 75.0);
        assert_eq!(tail(&ramp(100)).unwrap().percentile, 90.0);
        assert_eq!(tail(&ramp(199)).unwrap().percentile, 90.0);
        assert_eq!(tail(&ramp(200)).unwrap().percentile, 95.0);
        assert_eq!(tail(&ramp(1000)).unwrap().percentile, 99.0);
        assert_eq!(tail(&ramp(10_000)).unwrap().percentile, 99.9);
    }

    #[test]
    fn tail_value_leaves_at_least_ten_samples_strictly_above() {
        for n in [20, 40, 57, 100, 130, 200, 999, 1000] {
            let xs = ramp(n);
            let t = tail(&xs).unwrap();
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert!(
                beyond >= 10,
                "n={n}: only {beyond} samples beyond p{}",
                t.percentile
            );
            assert_eq!(t.samples, n);
        }
    }

    #[test]
    fn median_by_name_summarises_each_name_on_its_own() {
        let xs: Vec<(String, f64)> = [("b", 4.0), ("a", 1.0), ("b", 2.0), ("a", 3.0), ("b", 9.0)]
            .iter()
            .map(|(n, x)| (n.to_string(), *x))
            .collect();
        let m = median_by_name(&xs);
        assert_eq!(
            m.into_iter().collect::<Vec<_>>(),
            [("a".to_string(), 2.0), ("b".to_string(), 4.0)]
        );
    }

    #[test]
    fn tiny_samples_fall_back_to_the_median() {
        let t = tail(&ramp(5)).unwrap();
        assert_eq!((t.percentile, t.value), (50.0, 3.0));
        assert!(tail(&[]).is_none());
    }
}
