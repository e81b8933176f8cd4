//! Order statistics for host timings.

/// The median of `xs` (the mean of the middle two for an even count), or
/// zero for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a percentile `p` needs so that at least ten lie beyond it.
pub fn samples_for_tail(p: f64) -> u64 {
    (10.0 / (1.0 - p)).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_for_tail(0.99), 1_000);
        assert_eq!(samples_for_tail(0.999), 10_000);
        assert_eq!(samples_for_tail(0.5), 20);
    }
}
