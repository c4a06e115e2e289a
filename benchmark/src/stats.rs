//! Order statistics over small samples.

/// Linear-interpolated quantile `q` in `[0, 1]` (numpy's default, "type 7").
/// Panics on an empty sample: every caller has at least one unit.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile the sample supports: one with at least ten
/// samples beyond it, at most p95 and at least the median. With fewer than
/// 20 samples that is the median itself: the slowest of a handful of units
/// says more about the host than about the program.
pub fn tail(values: &[f64]) -> f64 {
    let supported = 1.0 - 10.0 / values.len() as f64;
    quantile(values, supported.clamp(0.5, 0.95))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_and_clamps() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.25), 20.0);
        assert!((quantile(&v, 0.9) - 46.0).abs() < 1e-12);
        assert_eq!(quantile(&v, 2.0), 50.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(
            tail(&few),
            3.0,
            "a handful of units supports only the median"
        );
        let forty: Vec<f64> = (0..=40).map(f64::from).collect();
        assert!((tail(&forty) - 40.0 * (1.0 - 10.0 / 41.0)).abs() < 1e-9);
        let many: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert!((tail(&many) - 950.0).abs() < 1e-9, "capped at p95");
    }
}
