//! Order statistics over latency samples.

/// The samples sorted ascending (NaN-free input assumed).
#[must_use]
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `pct`-th percentile, interpolated linearly between the two
/// closest ranks (so the 50th is the median); `0.0` for no samples.
#[must_use]
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = pct / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median; `0.0` for no samples.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Samples a reported tail percentile should have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The lowest percentile a tail reports.
pub const TAIL_FLOOR: f64 = 90.0;

/// The tail of the samples, with the percentile it sits at: the highest
/// percentile with [`TAIL_BEYOND`] samples beyond it (`100 * (n -
/// TAIL_BEYOND) / n`), but never below [`TAIL_FLOOR`]. Under 100
/// samples the floor leaves fewer than ten beyond it. Without the floor
/// a tail of fewer than 21 samples would sit at or below the median, and
/// a run that fits one op more would jump from the maximum to the
/// minimum; with it, the tail moves smoothly with the sample count.
#[must_use]
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    let beyond = 100.0 * n.saturating_sub(TAIL_BEYOND) as f64 / n.max(1) as f64;
    let pct = beyond.max(TAIL_FLOOR);
    (percentile(xs, pct), pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_or_sits_at_the_floor() {
        let close = |got: f64, want: f64| assert!((got - want).abs() < 1e-9, "{got} != {want}");
        let big: Vec<f64> = (1..=200).map(f64::from).collect();
        let (value, pct) = tail(&big);
        close(pct, 95.0);
        assert_eq!(big.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        close(tail(&hundred).1, 90.0);
        close(tail(&hundred).0, 90.1);
        close(tail(&[5.0, 7.0]).0, 6.8);
        close(tail(&[4.0]).0, 4.0);
        close(tail(&[]).0, 0.0);
        // One sample more barely moves it.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        close(tail(&ten).0, 9.1);
        close(tail(&eleven).0, 10.0);
    }
}
