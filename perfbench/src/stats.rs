//! Percentiles with the reporting rule the benchmark applies to tails,
//! and the small summaries the report prints.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// One nearest-rank percentile together with the counts that decide
/// whether it may be reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile's value, in the unit of the samples.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

impl Pct {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond it.
    pub fn reportable(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile at `per_mille`/1000 (990 is p99). Integer rank
/// arithmetic keeps p99 of 1000 samples at rank 990 exactly. `None` for
/// no samples.
pub fn pct(xs: &[f64], per_mille: usize) -> Option<Pct> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((per_mille * n).div_ceil(1000)).clamp(1, n);
    Some(Pct {
        value: v[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// The highest of p99, p98, p95, p90 and p50 that has at least
/// [`MIN_BEYOND`] samples beyond it, with its per-mille level; falls back
/// to the median when even that has too few.
pub fn highest_reportable(xs: &[f64]) -> Option<(usize, Pct)> {
    let levels = [990, 980, 950, 900, 500];
    for level in levels {
        let p = pct(xs, level)?;
        if p.reportable() {
            return Some((level, p));
        }
    }
    pct(xs, 500).map(|p| (500, p))
}

/// Median (nearest rank); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    pct(xs, 500).map_or(0.0, |p| p.value)
}

/// Geometric mean; 0 for no samples.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_and_states_its_count() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let p = pct(&xs, 990).expect("samples");
        assert_eq!((p.n, p.beyond), (999, 9));
        assert!(!p.reportable(), "999 samples leave only 9 beyond p99");

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = pct(&xs, 990).expect("samples");
        assert_eq!((p.value, p.n, p.beyond), (990.0, 1000, 10));
        assert!(p.reportable());
    }

    #[test]
    fn highest_reportable_steps_down_until_ten_lie_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (level, p) = highest_reportable(&xs).expect("samples");
        assert_eq!(level, 950, "p98 of 200 leaves 4 beyond, p95 leaves 10");
        assert_eq!(p.beyond, 10);
        let (level, _) = highest_reportable(&[1.0, 2.0, 3.0]).expect("samples");
        assert_eq!(level, 500);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }
}
