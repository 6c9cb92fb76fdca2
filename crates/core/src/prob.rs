//! Reliability values and their combination.
//!
//! The paper uses numbers in `(0, 1]` both for *logical reliability
//! constraints* (LRCs, `µ_c`) and for *singular reliability guarantees*
//! (SRGs, `λ_c`) and host/sensor reliabilities. [`Reliability`] enforces the
//! interval invariant at construction and offers the two combinators the
//! reliability analysis is built from:
//!
//! * [`Reliability::series`] — all blocks must work: `Π r_i`;
//! * [`Reliability::parallel`] — at least one block must work:
//!   `1 − Π (1 − r_i)`.

use crate::error::CoreError;
use std::fmt;

/// A reliability (probability of correct operation) in the half-open
/// interval `(0, 1]`.
///
/// # Example
///
/// ```
/// use logrel_core::Reliability;
///
/// # fn main() -> Result<(), logrel_core::CoreError> {
/// let host = Reliability::new(0.999)?;
/// // Replicating a task on two such hosts (parallel block):
/// let replicated = Reliability::parallel([host, host])?;
/// assert!((replicated.get() - 0.999_999).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Reliability(f64);

impl Reliability {
    /// Perfect reliability.
    pub const ONE: Reliability = Reliability(1.0);

    /// Creates a reliability value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidReliability`] unless `value` is finite
    /// and `0 < value <= 1`.
    pub fn new(value: f64) -> Result<Self, CoreError> {
        if value.is_finite() && value > 0.0 && value <= 1.0 {
            Ok(Reliability(value))
        } else {
            Err(CoreError::InvalidReliability { value })
        }
    }

    /// Returns the inner probability.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Probability of failure, `1 − r`, in `[0, 1)`.
    pub fn failure(self) -> f64 {
        1.0 - self.0
    }

    /// Series combination: every component must be reliable.
    ///
    /// Returns [`Reliability::ONE`] for an empty iterator (an empty series
    /// block never fails).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidReliability`] if the product underflows
    /// to exactly `0` (possible only for pathological inputs).
    pub fn series<I: IntoIterator<Item = Reliability>>(items: I) -> Result<Self, CoreError> {
        let p = items.into_iter().fold(1.0_f64, |acc, r| acc * r.0);
        Reliability::new(p)
    }

    /// Parallel combination: at least one component must be reliable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidReliability`] for an empty iterator (an
    /// empty parallel block always fails, which is outside `(0, 1]`).
    pub fn parallel<I: IntoIterator<Item = Reliability>>(items: I) -> Result<Self, CoreError> {
        let mut any = false;
        let q = items.into_iter().fold(1.0_f64, |acc, r| {
            any = true;
            acc * (1.0 - r.0)
        });
        if !any {
            return Err(CoreError::InvalidReliability { value: 0.0 });
        }
        Reliability::new(1.0 - q)
    }

    /// Returns `true` if this reliability meets the constraint `other`
    /// (i.e. `self >= other`), with the tolerance of [`meets`].
    pub fn meets(self, constraint: Reliability) -> bool {
        meets(self.0, constraint.0)
    }

    /// The pointwise minimum of two reliabilities.
    pub fn min(self, other: Reliability) -> Reliability {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The pointwise maximum of two reliabilities.
    pub fn max(self, other: Reliability) -> Reliability {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Reliability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Reliability> for f64 {
    fn from(r: Reliability) -> f64 {
        r.0
    }
}

/// Proposition 1's check of an achieved reliability against a required
/// one, `achieved ≥ required`, with a tiny tolerance (`1e-12`) for
/// floating-point round-off in long series products: the one tolerance of
/// [`Reliability::meets`], the reliability verdict and the analysis
/// report.
pub fn meets(achieved: f64, required: f64) -> bool {
    achieved + 1e-12 >= required
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    #[test]
    fn construction_validates_interval() {
        assert!(Reliability::new(0.0).is_err());
        assert!(Reliability::new(-0.1).is_err());
        assert!(Reliability::new(1.0 + 1e-9).is_err());
        assert!(Reliability::new(f64::NAN).is_err());
        assert!(Reliability::new(f64::INFINITY).is_err());
        assert!(Reliability::new(1.0).is_ok());
        assert!(Reliability::new(1e-300).is_ok());
    }

    #[test]
    fn series_multiplies() {
        let s = Reliability::series([r(0.9), r(0.9)]).unwrap();
        assert!((s.get() - 0.81).abs() < 1e-12);
    }

    #[test]
    fn empty_series_is_one() {
        assert_eq!(Reliability::series([]).unwrap(), Reliability::ONE);
    }

    #[test]
    fn parallel_of_two_hosts_matches_paper_intro() {
        // §1: two hosts with SRG 0.8 give 1 - 0.2*0.2 = 0.96 >= 0.9.
        let p = Reliability::parallel([r(0.8), r(0.8)]).unwrap();
        assert!((p.get() - 0.96).abs() < 1e-12);
        assert!(p.meets(r(0.9)));
    }

    #[test]
    fn empty_parallel_is_error() {
        assert!(Reliability::parallel([]).is_err());
    }

    #[test]
    fn meets_has_tolerance() {
        let a = Reliability::series(std::iter::repeat_n(r(0.999_999_999), 10)).unwrap();
        // a is analytically >= 0.99999999 but products accumulate error.
        assert!(a.meets(a));
    }

    #[test]
    fn min_max() {
        assert_eq!(r(0.5).min(r(0.7)), r(0.5));
        assert_eq!(r(0.5).max(r(0.7)), r(0.7));
    }

    proptest! {
        #[test]
        fn series_never_exceeds_components(a in 0.01f64..=1.0, b in 0.01f64..=1.0) {
            let s = Reliability::series([r(a), r(b)]).unwrap();
            prop_assert!(s.get() <= a + 1e-15);
            prop_assert!(s.get() <= b + 1e-15);
        }

        #[test]
        fn parallel_never_below_components(a in 0.01f64..=1.0, b in 0.01f64..=1.0) {
            let p = Reliability::parallel([r(a), r(b)]).unwrap();
            prop_assert!(p.get() + 1e-15 >= a);
            prop_assert!(p.get() + 1e-15 >= b);
            prop_assert!(p.get() <= 1.0);
        }

        #[test]
        fn parallel_is_commutative(a in 0.01f64..=1.0, b in 0.01f64..=1.0) {
            let p1 = Reliability::parallel([r(a), r(b)]).unwrap();
            let p2 = Reliability::parallel([r(b), r(a)]).unwrap();
            prop_assert!((p1.get() - p2.get()).abs() < 1e-15);
        }
    }
}
