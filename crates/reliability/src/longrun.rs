//! Long-run (limit-average) statistics of reliability-abstract traces.
//!
//! §2 defines the reliability-based abstraction of a trace — a 0/1 sequence
//! per communicator — and the *limit-average* value
//! `limavg(τ) = lim (1/n) Σ Z_i`. Proposition 1 rests on the strong law of
//! large numbers: the empirical average of independent update outcomes
//! converges almost surely to the per-update success probability. These
//! helpers quantify that convergence for finite simulated traces via
//! Hoeffding bounds.

use logrel_core::Reliability;

/// The empirical average of a finite 0/1 prefix (an estimate of the
/// limit-average).
///
/// Returns 0 for an empty trace.
///
/// # Example
///
/// ```
/// use logrel_reliability::limit_average;
///
/// assert_eq!(limit_average(&[true, true, false, true]), 0.75);
/// ```
pub fn limit_average(bits: &[bool]) -> f64 {
    if bits.is_empty() {
        return 0.0;
    }
    bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64
}

/// The running-average series `(1/n) Σ_{i<n} bits[i]` for `n = 1..=len`,
/// useful for convergence plots (experiment E7).
pub fn running_average(bits: &[bool]) -> Vec<f64> {
    let mut out = Vec::with_capacity(bits.len());
    let mut count = 0usize;
    for (n, &b) in bits.iter().enumerate() {
        count += usize::from(b);
        out.push(count as f64 / (n + 1) as f64);
    }
    out
}

/// The two-sided Hoeffding deviation `ε` such that the empirical mean of
/// `n` independent `[0, 1]` samples is within `ε` of its expectation with
/// probability at least `confidence`:
/// `ε = sqrt(ln(2 / (1 − confidence)) / (2 n))`.
///
/// # Panics
///
/// Panics if `n == 0` or `confidence` is not in `(0, 1)`.
pub fn hoeffding_epsilon(n: usize, confidence: f64) -> f64 {
    assert!(n > 0, "need at least one sample");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    let delta = 1.0 - confidence;
    ((2.0 / delta).ln() / (2.0 * n as f64)).sqrt()
}

/// A fixed-capacity sliding window over a 0/1 sample stream with O(1)
/// mean queries — the statistic behind the online LRC monitor: the
/// windowed average of recent update outcomes estimates the *current*
/// per-update success probability, while [`hoeffding_epsilon`] over the
/// window length bounds how far that estimate may stray.
#[derive(Debug, Clone)]
pub struct SlidingMean {
    ring: Vec<bool>,
    next: usize,
    filled: usize,
    ones: usize,
}

impl SlidingMean {
    /// An empty window of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingMean {
            ring: vec![false; capacity],
            next: 0,
            filled: 0,
            ones: 0,
        }
    }

    /// Pushes one sample, evicting the oldest once the window is full.
    pub fn push(&mut self, bit: bool) {
        if self.filled == self.ring.len() {
            self.ones -= usize::from(self.ring[self.next]);
        } else {
            self.filled += 1;
        }
        self.ring[self.next] = bit;
        self.ones += usize::from(bit);
        self.next = (self.next + 1) % self.ring.len();
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// `true` before the first sample.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// The mean of the samples currently in the window (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.filled == 0 {
            return 0.0;
        }
        self.ones as f64 / self.filled as f64
    }
}

/// Verdict of an empirical long-run reliability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LongRunVerdict {
    /// The empirical mean exceeds the LRC by more than the confidence
    /// radius: the trace statistically meets the constraint.
    Meets,
    /// The empirical mean falls short of the LRC by more than the
    /// confidence radius: the trace statistically violates the constraint.
    Violates,
    /// The LRC lies inside the confidence interval; more samples are
    /// needed.
    Inconclusive,
}

/// Statistically compares a finite abstract trace against an LRC at the
/// given confidence level.
///
/// # Example
///
/// ```
/// use logrel_core::Reliability;
/// use logrel_reliability::{empirical_check, LongRunVerdict};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bits = vec![true; 10_000];
/// let lrc = Reliability::new(0.9)?;
/// assert_eq!(empirical_check(&bits, lrc, 0.99), LongRunVerdict::Meets);
/// # Ok(())
/// # }
/// ```
pub fn empirical_check(bits: &[bool], lrc: Reliability, confidence: f64) -> LongRunVerdict {
    if bits.is_empty() {
        return LongRunVerdict::Inconclusive;
    }
    let mean = limit_average(bits);
    let eps = hoeffding_epsilon(bits.len(), confidence);
    if mean - eps >= lrc.get() {
        LongRunVerdict::Meets
    } else if mean + eps < lrc.get() {
        LongRunVerdict::Violates
    } else {
        LongRunVerdict::Inconclusive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    #[test]
    fn limit_average_basics() {
        assert_eq!(limit_average(&[]), 0.0);
        assert_eq!(limit_average(&[true]), 1.0);
        assert_eq!(limit_average(&[false, false]), 0.0);
        assert_eq!(limit_average(&[true, false]), 0.5);
    }

    #[test]
    fn running_average_converges_to_limit_average() {
        let bits = [true, false, true, true];
        let series = running_average(&bits);
        assert_eq!(series, vec![1.0, 0.5, 2.0 / 3.0, 0.75]);
        assert_eq!(*series.last().unwrap(), limit_average(&bits));
    }

    #[test]
    fn hoeffding_shrinks_with_samples() {
        let e1 = hoeffding_epsilon(100, 0.95);
        let e2 = hoeffding_epsilon(10_000, 0.95);
        assert!(e2 < e1);
        assert!((e1 / e2 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn hoeffding_grows_with_confidence() {
        assert!(hoeffding_epsilon(100, 0.999) > hoeffding_epsilon(100, 0.9));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn hoeffding_rejects_zero_samples() {
        hoeffding_epsilon(0, 0.95);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn hoeffding_rejects_bad_confidence() {
        hoeffding_epsilon(10, 1.0);
    }

    #[test]
    fn empirical_check_clear_cases() {
        let good = vec![true; 100_000];
        assert_eq!(empirical_check(&good, r(0.99), 0.99), LongRunVerdict::Meets);
        let bad = vec![false; 100_000];
        assert_eq!(
            empirical_check(&bad, r(0.5), 0.99),
            LongRunVerdict::Violates
        );
        assert_eq!(
            empirical_check(&[], r(0.5), 0.99),
            LongRunVerdict::Inconclusive
        );
    }

    #[test]
    fn empirical_check_borderline_is_inconclusive() {
        // mean exactly at the LRC with few samples.
        let bits = [true, false, true, false];
        assert_eq!(
            empirical_check(&bits, r(0.5), 0.99),
            LongRunVerdict::Inconclusive
        );
    }

    #[test]
    fn sliding_mean_tracks_window() {
        let mut w = SlidingMean::new(3);
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        w.push(true);
        assert_eq!((w.len(), w.mean()), (1, 1.0));
        w.push(false);
        w.push(true);
        assert_eq!(w.len(), 3);
        assert!((w.mean() - 2.0 / 3.0).abs() < 1e-12);
        // Evicts the oldest (true): window is now [false, true, true].
        w.push(true);
        assert!((w.mean() - 2.0 / 3.0).abs() < 1e-12);
        // Evicts false: [true, true, true].
        w.push(true);
        assert_eq!(w.mean(), 1.0);
        assert_eq!(w.len(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn sliding_mean_rejects_zero_capacity() {
        SlidingMean::new(0);
    }

    proptest! {
        #[test]
        fn sliding_mean_matches_naive_window(
            bits in proptest::collection::vec(any::<bool>(), 1..300),
            cap in 1usize..32
        ) {
            let mut w = SlidingMean::new(cap);
            for (i, &b) in bits.iter().enumerate() {
                w.push(b);
                let lo = (i + 1).saturating_sub(cap);
                let naive = limit_average(&bits[lo..=i]);
                prop_assert!((w.mean() - naive).abs() < 1e-12);
                prop_assert_eq!(w.len(), i + 1 - lo);
            }
        }

        #[test]
        fn running_average_stays_in_unit_interval(
            bits in proptest::collection::vec(any::<bool>(), 1..200)
        ) {
            for v in running_average(&bits) {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }

        #[test]
        fn verdicts_are_consistent_with_means(
            bits in proptest::collection::vec(any::<bool>(), 1..500),
            lrc in 0.01f64..1.0
        ) {
            let mean = limit_average(&bits);
            match empirical_check(&bits, r(lrc), 0.95) {
                LongRunVerdict::Meets => prop_assert!(mean >= lrc),
                LongRunVerdict::Violates => prop_assert!(mean < lrc),
                LongRunVerdict::Inconclusive => {}
            }
        }
    }
}
