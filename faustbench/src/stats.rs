//! Estimators. The one that matters is [`quiet_floor`].

/// The quantile of per-segment costs taken as the floor.
const QUIET: f64 = 0.05;

/// A segment counts as disturbed when it is this much slower than the
/// quiet floor.
const DISTURBED: f64 = 1.15;

/// Sorts and returns the `q`-quantile (nearest rank, `q` in `0..=1`).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    values.sort_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * q).floor() as usize]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The 5th-percentile-lowest of per-segment costs (times, latencies).
///
/// Every segment of a run does identical work, and what a neighbour on
/// the box adds to a segment is never negative, so the low end of the
/// distribution is what the code costs and the rest is the machine. On
/// this box the machine has two states — alone on the core, or sharing
/// it and about 1.65× slower for seconds at a time — and the slow state
/// can hold for four fifths of a run. Over six 20 s windows of such a
/// stretch the minimum of 30 ms segments spread 2.8 %, the 2nd
/// percentile 3.4 %, the 5th 4.3 %, the 10th 8.2 % and the median
/// 5.8 %. The 5th rather than the minimum, so that with a few hundred
/// segments at least ten lie below the estimate and no single segment
/// sets the result.
pub fn quiet_floor(costs: &[f64]) -> f64 {
    quantile(&mut costs.to_vec(), QUIET)
}

/// Share of segments slower than [`DISTURBED`] × the quiet floor.
pub fn disturbed_share(costs: &[f64]) -> f64 {
    let floor = quiet_floor(costs) * DISTURBED;
    costs.iter().filter(|c| **c > floor).count() as f64 / costs.len() as f64
}

/// Nearest-rank percentile of integer samples, sorting in place.
pub fn percentile_u64(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[((samples.len() - 1) as f64 * p).floor() as usize]
}

/// `(max − min) / median`, the spread `--selfcheck` holds against a bound.
pub fn relative_range(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let mid = median(&mut v);
    if mid == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / mid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SplitMix64;

    #[test]
    fn quiet_floor_returns_the_floor_when_30_percent_of_segments_are_inflated() {
        let mut rng = SplitMix64::new(42);
        let floor = 1000.0;
        let mut series: Vec<f64> = (0..64)
            .map(|i| {
                let jitter = (rng.next_u64() % 100) as f64 / 100.0 * 4.0; // ≤ 0.4 %
                if i % 10 < 3 {
                    floor * (1.2 + (rng.next_u64() % 80) as f64 / 100.0) // +20…100 %
                } else {
                    floor + jitter
                }
            })
            .collect();
        let got = quiet_floor(&series);
        assert!((got - floor).abs() <= 4.0, "{got}");
        // The mean is off by tens of percent on the same series.
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        assert!(mean > floor * 1.15, "{mean}");
        let share = disturbed_share(&series);
        assert!((0.25..=0.35).contains(&share), "{share}");
        // Order must not matter.
        series.reverse();
        assert_eq!(quiet_floor(&series), got);
    }

    #[test]
    fn percentiles_and_ranges() {
        let mut s = vec![5u64, 1, 4, 2, 3];
        assert_eq!(percentile_u64(&mut s, 0.5), 3);
        assert_eq!(percentile_u64(&mut s, 1.0), 5);
        assert_eq!(percentile_u64(&mut [], 0.5), 0);
        assert_eq!(relative_range(&[9.0, 10.0, 11.0]), 0.2);
    }
}
