//! Order statistics and bound comparison shared by the harness, the
//! repeat check and the self-tests.

/// Median of `values` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some((v[(n - 1) / 2] + v[n / 2]) / 2.0)
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values`.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The `rank`-th best of `values` (1 = the best), but never one from
/// the worse half: with fewer than `2 * rank - 1` values it is the
/// (upper) median. `None` for an empty slice.
pub fn nth_best(values: &[f64], rank: usize, higher_is_better: bool) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let rank = rank.clamp(1, v.len().div_ceil(2).max(1));
    v.get(rank - 1).copied()
}

/// The percentile ladder a timing is reported on, in per mille.
const TAIL_LADDER: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten of `samples` beyond it — the tail a sample count can support
/// (choosing-metrics §1). `None` below twenty samples, where even the
/// median has fewer than ten on each side.
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&q| samples as u64 * (1000 - q) >= 10 * 1000)
        .map(|&q| q as f64 / 1000.0)
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative when it is better).
pub fn worsening(base: f64, new: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        base - new
    } else {
        new - base
    };
    delta / base.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nth_best_follows_the_direction_and_clamps() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(nth_best(&v, 1, false), Some(1.0));
        assert_eq!(nth_best(&v, 3, false), Some(3.0));
        assert_eq!(nth_best(&v, 3, true), Some(3.0));
        assert_eq!(nth_best(&v, 2, true), Some(4.0));
        // Too few values for the rank: the median, not the worst.
        assert_eq!(nth_best(&v, 9, false), Some(3.0));
        assert_eq!(nth_best(&[7.0, 9.0, 8.0], 3, false), Some(8.0));
        assert_eq!(nth_best(&[7.0, 9.0], 3, true), Some(9.0));
        assert_eq!(nth_best(&[7.0], 3, true), Some(7.0));
        assert_eq!(nth_best(&[], 3, true), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[], 0.95), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(12), None);
        assert_eq!(supported_tail(20), Some(0.50));
        assert_eq!(supported_tail(50), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn bounds_follow_the_metric_direction() {
        // Lower is better: 10 % slower breaks a 5 % bound, not a 10 % one.
        assert!(worsening(100.0, 110.0, false) > 0.05);
        assert!(worsening(100.0, 110.0, false) <= 0.10);
        assert!(worsening(100.0, 50.0, false) <= 0.0);
        // Higher is better: a drop is the bad direction.
        assert!(worsening(100.0, 89.0, true) > 0.10);
        assert!(worsening(100.0, 200.0, true) <= 0.0);
        // A zero bound admits only "no worse".
        assert!(worsening(0.25, 0.25, false) <= 0.0);
        assert!(worsening(0.25, 0.2500001, false) > 0.0);
    }
}
