//! The benchmark's own metric arithmetic: percentiles and their sample
//! support, failure shares, growth ratios, and medians. Pure functions of
//! the readings, so the unit tests below pin down every definition.

use fgmon_sim::Histogram;

use crate::probe::Counters;

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_TAIL: u64 = 10;

/// Samples strictly beyond the nearest-rank `pct`-th percentile of `n`.
pub fn samples_beyond(n: u64, pct: u64) -> u64 {
    n - (pct * n).div_ceil(100)
}

/// Does a sample of `n` support a `pct`-th percentile?
pub fn supports(n: u64, pct: u64) -> bool {
    samples_beyond(n, pct) >= MIN_TAIL
}

/// `q`-quantile of a log-bucketed histogram, interpolated linearly inside
/// the bucket that holds it (assuming that bucket's samples are spread
/// evenly over its range) instead of reading the bucket's upper edge.
/// Exact at the minimum and maximum; 0 for an empty histogram.
pub fn quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    // Value the histogram reports for the sample of 1-based rank `r`:
    // the upper edge of that sample's bucket (clamped to min..=max).
    let at = |r: u64| h.quantile((r as f64 - 0.5) / n as f64);
    let upper = at(rank);
    let first = first_rank(1, rank, |r| at(r) >= upper);
    let last = first_rank(rank, n + 1, |r| at(r) > upper) - 1;
    let lower = bucket_floor(upper).max(h.min());
    let within = (rank - first) as f64 + 0.5;
    lower as f64 + (upper - lower) as f64 * within / (last - first + 1) as f64
}

/// Smallest `r` in `lo..hi` with `pred(r)`, or `hi` if none (`pred` must
/// be monotone: false then true).
fn first_rank(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Lower edge of the histogram bucket holding `v`: values are bucketed by
/// power of two with 16 linear sub-buckets per octave, and values below 16
/// each have their own bucket.
fn bucket_floor(v: u64) -> u64 {
    if v < 16 {
        return v;
    }
    let shift = 63 - v.leading_zeros() - 4;
    (v >> shift) << shift
}

/// Nearest-rank `pct`-th percentile of raw samples (sorts them).
pub fn sample_percentile(samples: &mut [u64], pct: u64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let n = samples.len() as u64;
    let rank = (pct * n).div_ceil(100).max(1);
    samples[(rank - 1) as usize]
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of the served tenant's monitor poll attempts (first tries plus
/// retries) that neither timed out nor were denied. An abandoned poll cycle
/// is counted once, by its last attempt's timeout. The hostile tenant's
/// rate-limited and shed posts are not the served tenant's attempts and
/// never enter this share.
pub fn poll_ok_share(c: &Counters) -> f64 {
    let attempts = c.polls + c.retries;
    if attempts == 0 {
        return 0.0;
    }
    1.0 - (c.timed_out + c.denied) as f64 / attempts as f64
}

/// Host cost per event of the last chunk over that of the first, skipping
/// chunks that processed no events. `chunks` holds `(host_ns, events)`.
pub fn ns_per_event_growth(chunks: &[(u64, u64)]) -> f64 {
    let mut costs = chunks
        .iter()
        .filter(|&&(_, events)| events > 0)
        .map(|&(ns, events)| ns as f64 / events as f64);
    let Some(first) = costs.next() else {
        return 0.0;
    };
    let last = costs.next_back().unwrap_or(first);
    ratio(last, first)
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean over cells of each cell's median value. `samples` holds
/// `(cell, value)` pairs, any number per cell.
pub fn mean_of_cell_medians(samples: &[(u32, f64)]) -> f64 {
    let mut cells = std::collections::BTreeMap::<u32, Vec<f64>>::new();
    for &(cell, v) in samples {
        cells.entry(cell).or_default().push(v);
    }
    let medians: f64 = cells.values().map(|v| median(v)).sum();
    ratio(medians, cells.len() as f64)
}

/// Busiest back-end's forwarded requests over the mean.
pub fn load_imbalance(per_backend: &[u64]) -> f64 {
    let total: u64 = per_backend.iter().sum();
    let max = per_backend.iter().copied().max().unwrap_or(0);
    ratio(max as f64 * per_backend.len() as f64, total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::new();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 99), 10);
        assert!(supports(1000, 99));
        assert_eq!(samples_beyond(999, 99), 9);
        assert!(!supports(999, 99));
        assert!(supports(20, 50));
        assert!(!supports(0, 50));
    }

    #[test]
    fn interpolated_quantile_tracks_uniform_samples() {
        let h = hist(1_000_000..2_000_000);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let want = 1_000_000.0 + q * 1_000_000.0;
            let got = quantile(&h, q);
            assert!((got - want).abs() / want < 0.01, "q={q}: {got} vs {want}");
        }
        // The bucket edge it refines is up to one sub-bucket (1/16) off.
        let edge = h.quantile(0.5) as f64;
        assert!((edge - 1_500_000.0).abs() > (quantile(&h, 0.5) - 1_500_000.0).abs());
    }

    #[test]
    fn interpolated_quantile_is_monotone_and_exact_for_an_atom() {
        let h = hist((0..5000).map(|i| 30_000 + (i * 7919) % 90_000));
        let mut prev = 0.0;
        for i in 1..100 {
            let v = quantile(&h, i as f64 / 100.0);
            assert!(v >= prev, "quantile went down at {i}%");
            prev = v;
        }
        let atom = hist(std::iter::repeat_n(21_000, 500));
        assert_eq!(quantile(&atom, 0.5), 21_000.0);
        assert_eq!(quantile(&atom, 0.99), 21_000.0);
        assert_eq!(quantile(&Histogram::new(), 0.5), 0.0);
    }

    #[test]
    fn sample_percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(sample_percentile(&mut v, 99), 990);
        assert_eq!(sample_percentile(&mut v, 50), 500);
        assert_eq!(sample_percentile(&mut [], 99), 0);
    }

    #[test]
    fn poll_share_counts_attempts_and_ignores_hostile_drops() {
        let served = Counters {
            polls: 100,
            retries: 10,
            timed_out: 11,
            gave_up: 3,
            replies: 99,
            ..Default::default()
        };
        assert!((poll_ok_share(&served) - 0.9).abs() < 1e-12);
        let flooded = Counters {
            tenant1_rate_limited: 1_000_000,
            tenant1_contention_dropped: 50_000,
            dropped: 7,
            ..served.clone()
        };
        assert_eq!(poll_ok_share(&flooded), poll_ok_share(&served));
        let denied = Counters {
            denied: 11,
            ..served
        };
        assert!((poll_ok_share(&denied) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn growth_compares_last_chunk_with_first() {
        let flat = [(1_000, 10), (1_010, 10), (990, 10)];
        assert!((ns_per_event_growth(&flat) - 0.99).abs() < 1e-12);
        let leaking = [(100, 1), (0, 0), (200, 1), (300, 1), (0, 0)];
        assert_eq!(ns_per_event_growth(&leaking), 3.0);
        assert_eq!(ns_per_event_growth(&[(5, 1)]), 1.0);
        assert_eq!(ns_per_event_growth(&[]), 0.0);
    }

    #[test]
    fn host_time_is_the_mean_of_each_cells_median_repeat() {
        let samples = [(0, 3.0), (1, 5.0), (0, 1.0), (1, 7.0), (0, 2.0), (0, 9.0)];
        assert_eq!(mean_of_cell_medians(&samples), 4.25);
        assert_eq!(mean_of_cell_medians(&[(4, 0.5)]), 0.5);
        assert_eq!(mean_of_cell_medians(&[]), 0.0);
    }

    #[test]
    fn median_and_imbalance() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(load_imbalance(&[10, 10, 10, 10]), 1.0);
        assert_eq!(load_imbalance(&[40, 0, 0, 0]), 4.0);
        assert_eq!(load_imbalance(&[]), 0.0);
    }
}
