//! Sample statistics: medians, smoothed percentiles, the percentile rule,
//! and failure counting.

/// Minimum samples per timed phase: enough that ten of them lie beyond
/// the 90th percentile, so `op_p90_ms` is always reportable.
pub const MIN_SAMPLES: usize = 100;

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// The percentile ladder the rule chooses from.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Half-width of the rank window [`smoothed_percentile`] averages, as a
/// share of the sample count.
const SMOOTH: f64 = 0.025;

/// Percentile `p` of ascending `sorted`, smoothed: the mean of the order
/// statistics within ±2.5% of the sample count around the nearest rank
/// (the window shrinks symmetrically near either end). A mix of
/// operations with different costs leaves gaps in the latency
/// distribution; the bare nearest rank jumps across such a gap when noise
/// reorders a few samples, the window average moves smoothly.
pub fn smoothed_percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let r = rank(n, p) - 1;
    let h = ((SMOOTH * n as f64).round() as usize).min(r).min(n - 1 - r);
    let window = &sorted[r - h..=r + h];
    window.iter().sum::<f64>() / window.len() as f64
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// The highest percentile of the ladder with at least [`BEYOND`] of `n`
/// samples above its rank, or `None` when even the median has fewer.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= rank(n, p) + BEYOND)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Attempted and failed operations of a phase. An operation fails when it
/// returns an error or a wrong answer; operations a backend does not
/// support (Table II) are never in the mix, so they are never attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
}

impl Tally {
    /// Count one operation whose answer was `correct`.
    pub fn record(&mut self, correct: bool) {
        self.attempted += 1;
        self.failed += u64::from(!correct);
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(5), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(MIN_SAMPLES), Some(90.0));
    }

    #[test]
    fn smoothed_percentiles_average_a_rank_window() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(smoothed_percentile(&[3.0], 90.0), 3.0);
        assert_eq!(smoothed_percentile(&v, 50.0), 50.0);
        assert_eq!(smoothed_percentile(&v, 90.0), 90.0);
        assert_eq!(smoothed_percentile(&v, 100.0), 100.0);
        // A gap at the median (nearest rank: 1.0): the window straddles it.
        let gap: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 3.0 }).collect();
        assert_eq!(smoothed_percentile(&gap, 50.0), 13.0 / 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn errors_and_wrong_answers_both_count_as_failures() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.ok_ratio(), 0.75);
    }
}
