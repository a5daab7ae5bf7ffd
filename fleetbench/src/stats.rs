//! Small statistics helpers shared by the run and its report.

use std::collections::BTreeMap;

/// The `q`-quantile (0–1) of `xs` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The median over window slices of each slice's `q`-quantile: host
/// timings taken this way ignore a slow phase of the host that covers less
/// than half of the window. `samples` are `(slice, value)` pairs.
pub fn slice_quantile(samples: &[(usize, f64)], q: f64) -> f64 {
    let mut by_slice: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(k, v) in samples {
        by_slice.entry(k).or_default().push(v);
    }
    let per_slice: Vec<f64> = by_slice.values().map(|v| quantile(v, q)).collect();
    median(&per_slice)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn slice_quantile_ignores_a_slow_minority() {
        let samples = [(0, 1.0), (0, 3.0), (1, 2.0), (2, 50.0)];
        assert_eq!(slice_quantile(&samples, 0.5), 2.0);
    }
}
