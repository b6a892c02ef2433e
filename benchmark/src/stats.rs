//! Order statistics: medians, quartiles, the tail-percentile rule and the
//! covered length of a set of time intervals.

use std::time::{Duration, Instant};

/// The median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile by the "exclusive" method — the same numbers
/// Python's `statistics.quantiles(xs, n=4)` gives (one sample is its own
/// quartiles, where Python refuses).
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Candidate tail percentiles, in per-mille.
const TAIL_LADDER: [u64; 3] = [500, 900, 990];

/// The highest percentile of the ladder p50/p90/p99 that still has at
/// least ten samples beyond it, as `(percentile, nearest-rank value)`.
/// With too few samples for even the median (Table 1's five tests) it is
/// the slowest sample, reported as percentile 100. `None` without samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len() as u64;
    let ladder = TAIL_LADDER.iter().rev().find_map(|&pm| {
        let rank = (pm * n).div_ceil(1000).max(1);
        (n >= rank + 10).then(|| (pm as f64 / 10.0, s[rank as usize - 1]))
    });
    ladder.or_else(|| s.last().map(|&max| (100.0, max)))
}

/// Total time covered by at least one interval (overlaps counted once).
pub fn covered(intervals: &[(Instant, Instant)]) -> Duration {
    let mut spans = intervals.to_vec();
    spans.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Instant, Instant)> = None;
    for (start, end) in spans {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // two points extrapolate: [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 170 kill-matrix cells: p90 (rank 153, 17 beyond), not p99.
        let cells: Vec<f64> = (1..=170).map(f64::from).collect();
        assert_eq!(tail(&cells), Some((90.0, 153.0)));
        // 999 samples: p99 has only nine beyond (rank 990), so p90.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&short), Some((90.0, 900.0)));
        // 1000 samples: p99 (rank 990, ten beyond). The ladder stops at
        // p99, so 49152 fuzz execs also give p99.
        let execs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&execs), Some((99.0, 990.0)));
        let many: Vec<f64> = (1..=49152).map(f64::from).collect();
        assert_eq!(tail(&many), Some((99.0, 48661.0)));
        // 20 samples: the median has exactly ten beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        // Five Table 1 tests: the slowest one.
        assert_eq!(tail(&[1.0, 5.0, 3.0, 4.0, 2.0]), Some((100.0, 5.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn covered_counts_overlaps_once() {
        let t = Instant::now();
        let ms = |n: u64| t + Duration::from_millis(n);
        assert_eq!(covered(&[]), Duration::ZERO);
        let spans = [
            (ms(10), ms(20)),
            (ms(0), ms(5)),
            (ms(15), ms(30)),
            (ms(30), ms(31)),
        ];
        assert_eq!(covered(&spans), Duration::from_millis(5 + 21));
    }
}
