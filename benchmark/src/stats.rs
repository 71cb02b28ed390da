//! Order statistics for timing samples, and the reporting rule: a timing is
//! printed as its median, the highest percentile that still has at least
//! ten samples beyond it, and the sample count.

use std::fmt;

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both are bugs in the caller.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// How a vector of timing samples (batch means, per-block percentiles,
/// repeats of one run) becomes the one number that is reported.
///
/// The host only ever *adds* time to single-threaded work — a hypervisor
/// that parks the CPU, an interrupt — so the undisturbed cost sits at the
/// low end of the samples. With threads sharing a structure it can also
/// *remove* time: while one worker is off its CPU the others run
/// uncontended, several times faster than the workload states; a sample
/// below half the median is such a batch and is dropped first. Measured on
/// the two-CPU host this was written on, these estimates repeat from run
/// to run three to ten times better than the plain median or mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimate {
    /// The plain median (set-up time).
    Median,
    /// The mean of the kept samples ranked from their 10th to their 40th
    /// percentile: the undisturbed cost, smoothed.
    Undisturbed,
    /// Mutex shared by threads: the mean of the kept samples. A contended
    /// mutex moves between a convoy regime and an alternating one with the
    /// same throughput but medians 40 % apart, so only the mean is steady.
    SharedMean,
}

impl Estimate {
    pub fn of(self, samples: &[f64]) -> f64 {
        assert!(!samples.is_empty(), "estimate of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        if self == Estimate::Median {
            return median(&sorted);
        }
        let floor = sorted[sorted.len() / 2] / 2.0;
        let kept = &sorted[sorted.partition_point(|&sample| sample < floor)..];
        let part = match self {
            Estimate::Undisturbed => {
                let from = kept.len() / 10;
                &kept[from..(kept.len() * 2).div_ceil(5).max(from + 1)]
            }
            _ => kept,
        };
        part.iter().sum::<f64>() / part.len() as f64
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `fraction` of the samples at or below it.
pub fn percentile_sorted<T: Copy>(sorted: &[T], fraction: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (fraction * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, as (label, fraction).
const TAIL_LADDER: [(&str, f64); 5] = [
    ("p90", 0.9),
    ("p99", 0.99),
    ("p99.9", 0.999),
    ("p99.99", 0.9999),
    ("p99.999", 0.99999),
];

/// The highest ladder percentile with at least ten samples beyond it, or
/// `None` when even p90 has fewer (under 100 samples).
pub fn tail_percentile(count: usize) -> Option<(&'static str, f64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|(_, fraction)| count as f64 * (1.0 - fraction) >= 10.0 - 1e-9)
        .copied()
}

/// A timing as it is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub tail: Option<(&'static str, f64)>,
    pub count: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        Self {
            median: median(&sorted),
            tail: tail_percentile(sorted.len())
                .map(|(label, fraction)| (label, percentile_sorted(&sorted, fraction))),
            count: sorted.len(),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "median {:.2}", self.median)?;
        if let Some((label, value)) = self.tail {
            write!(f, ", {label} {value:.2}")?;
        }
        write!(f, ", n = {}", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn undisturbed_is_the_mean_of_the_tenth_to_fortieth_percentile() {
        let samples: Vec<f64> = (100..200).rev().map(f64::from).collect();
        assert_eq!(Estimate::Undisturbed.of(&samples), 124.5);
        assert_eq!(Estimate::Undisturbed.of(&[7.0]), 7.0);
        assert_eq!(Estimate::Undisturbed.of(&[9.0, 5.0]), 5.0);
        // A slow third of the samples moves nothing.
        let mut disturbed = samples.clone();
        disturbed.extend((0..50).map(|_| 1e6));
        assert!(Estimate::Undisturbed.of(&disturbed) < 140.0);
        assert_eq!(Estimate::Median.of(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn batches_a_peer_sat_out_are_dropped_first() {
        // Ten batches near 300 ns/op, three a peer sat out, one stall.
        let mut samples = vec![50.0, 52.0, 55.0, 900.0];
        samples.extend((0..10).map(|i| 296.0 + f64::from(i)));
        assert_eq!(Estimate::SharedMean.of(&samples), (3005.0 + 900.0) / 11.0);
        // Of the eleven kept samples, ranks 1 ..< 5: 297, 298, 299, 300.
        assert_eq!(Estimate::Undisturbed.of(&samples), 298.5);
        assert_eq!(Estimate::SharedMean.of(&[4.0]), 4.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), 50);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100);
        assert_eq!(percentile_sorted(&[7u32], 0.99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100).map(|t| t.0), Some("p90"));
        assert_eq!(tail_percentile(999).map(|t| t.0), Some("p90"));
        assert_eq!(tail_percentile(1_000).map(|t| t.0), Some("p99"));
        assert_eq!(tail_percentile(10_000).map(|t| t.0), Some("p99.9"));
        assert_eq!(tail_percentile(50_000_000).map(|t| t.0), Some("p99.999"));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let summary = Summary::of(&samples);
        assert_eq!(summary.median, 500.5);
        assert_eq!(summary.tail, Some(("p99", 990.0)));
        assert_eq!(summary.to_string(), "median 500.50, p99 990.00, n = 1000");
    }
}
