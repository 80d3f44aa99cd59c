//! Order statistics with the sample-count rule, and the robust
//! summaries the end-to-end metrics are built from.

/// The `q`-quantile (nearest rank on the sorted sample) — but only
/// when at least `MIN_BEYOND` samples lie beyond it, so a printed p99
/// is never decided by one or two outliers. `sorted` must be ascending.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    const MIN_BEYOND: usize = 10;
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    (sorted.len() - 1 - idx >= MIN_BEYOND || q <= 0.5).then(|| sorted[idx])
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &mut [u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2] as f64
    } else {
        (values[n / 2 - 1] as f64 + values[n / 2] as f64) / 2.0
    }
}

/// Median of an unsorted float sample (0 when empty).
pub fn median_f(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The statistic of each of `SEGMENTS` consecutive equal-count slices
/// of a run, reduced to the slice a quarter of the way from the best
/// to the worst. Interference from the box (a neighbour, a host-side
/// stall, writeback) comes in phases of a second or a few and only
/// ever slows a slice down, so the quiet quartile repeats from run to
/// run where the whole-run figure, and even the median slice, follow
/// the phases; it stays put until three quarters of a run are
/// disturbed. `best` orders two slice statistics best-first. Runs too
/// short to slice are summarised whole.
pub fn quiet_segment<T>(
    samples: &[T],
    stat: impl Fn(&[T]) -> f64,
    best: impl Fn(&f64, &f64) -> std::cmp::Ordering,
) -> f64 {
    const SEGMENTS: usize = 20;
    const MIN_PER_SEGMENT: usize = 50;
    if samples.len() < SEGMENTS * MIN_PER_SEGMENT {
        return stat(samples);
    }
    let mut per: Vec<f64> = (0..SEGMENTS)
        .map(|s| {
            let lo = samples.len() * s / SEGMENTS;
            let hi = samples.len() * (s + 1) / SEGMENTS;
            stat(&samples[lo..hi])
        })
        .collect();
    per.sort_by(best);
    per[SEGMENTS / 4]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (exclusive method), so the spread this tool prints is the one
/// the acceptance check computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // position i·(n+1)/4 on the 1-based sorted sample; clamping
        // the index makes the ends extrapolate, as Python does
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = (pos as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// Inter-quartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sample: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&sample, 0.5), Some(500));
        // 1000 samples: p99 has 10 beyond it, p999 has 1
        assert_eq!(percentile(&sample, 0.99), Some(989));
        assert_eq!(percentile(&sample, 0.999), None);
        let big: Vec<u64> = (0..20_000).collect();
        assert!(percentile(&big, 0.999).is_some());
        assert_eq!(percentile(&[], 0.5), None);
        // a median is always printable
        assert_eq!(percentile(&[7, 9, 11], 0.5), Some(9));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [5, 1, 9]), 5.0);
        assert_eq!(median(&mut [4, 2]), 3.0);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median_f(&mut [1.0, 4.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quiet_segment_ignores_disturbed_slices() {
        let mean = |x: &[u64]| x.iter().sum::<u64>() as f64 / x.len() as f64;
        // 2000 samples at 10, with 14 of the 20 slices disturbed
        let mut s = vec![10u64; 2000];
        for v in &mut s[300..1700] {
            *v = 1000;
        }
        assert_eq!(quiet_segment(&s, mean, f64::total_cmp), 10.0);
        assert!(mean(&s) > 500.0);
        // a statistic where higher is better orders the other way
        let rate = |x: &[u64]| 1000.0 / mean(x);
        assert_eq!(quiet_segment(&s, rate, |a, b| b.total_cmp(a)), 100.0);
        // it is a quartile, not the best slice: a lucky slice or four
        // do not set the figure
        let mut lucky = vec![10u64; 2000];
        for v in &mut lucky[0..400] {
            *v = 1;
        }
        assert_eq!(quiet_segment(&lucky, mean, f64::total_cmp), 10.0);
        // short runs fall back to the whole sample
        assert_eq!(quiet_segment(&s[..100], mean, f64::total_cmp), 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
