//! Integer logical time.
//!
//! The paper's semantics generates time instants "through clock interrupts"
//! as harmonic fractions of all communicator periods; we model an instant as
//! a [`Tick`] — a `u64` count of a global base tick — and a period as a
//! strictly positive number of ticks ([`Period`]).

use crate::error::CoreError;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A logical time instant, counted in global base ticks.
///
/// # Example
///
/// ```
/// use logrel_core::Tick;
///
/// let t = Tick::new(3) + 5;
/// assert_eq!(t, Tick::new(8));
/// assert_eq!(t.as_u64(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(u64);

impl Tick {
    /// The origin of logical time.
    pub const ZERO: Tick = Tick(0);

    /// Creates a tick from a raw count.
    pub const fn new(ticks: u64) -> Self {
        Tick(ticks)
    }

    /// Returns the raw tick count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns `true` if this instant is a multiple of `period`, i.e. an
    /// access instant of a communicator with that period.
    pub fn is_multiple_of(self, period: Period) -> bool {
        self.0.is_multiple_of(period.as_u64())
    }

    /// Returns the instant of instance `instance` of a communicator with
    /// period `period` (`period * instance`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TimeOverflow`] if the product overflows `u64`.
    pub fn of_instance(period: Period, instance: u64) -> Result<Tick, CoreError> {
        period
            .as_u64()
            .checked_mul(instance)
            .map(Tick)
            .ok_or(CoreError::TimeOverflow {
                context: format!("computing instant of instance {instance} with period {period}"),
            })
    }

    /// Saturating subtraction of a tick count.
    pub fn saturating_sub(self, rhs: u64) -> Tick {
        Tick(self.0.saturating_sub(rhs))
    }

}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add<u64> for Tick {
    type Output = Tick;
    fn add(self, rhs: u64) -> Tick {
        Tick(self.0 + rhs)
    }
}

impl AddAssign<u64> for Tick {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Tick> for Tick {
    type Output = u64;
    /// The duration between two instants, in ticks.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Tick) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for Tick {
    fn from(v: u64) -> Self {
        Tick(v)
    }
}

/// A strictly positive accessibility period, in ticks.
///
/// # Example
///
/// ```
/// use logrel_core::Period;
///
/// # fn main() -> Result<(), logrel_core::CoreError> {
/// let p = Period::new(100)?;
/// let q = Period::new(500)?;
/// assert_eq!(p.lcm(q)?.as_u64(), 500);
/// assert!(Period::new(0).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Period(u64);

impl Period {
    /// Creates a period from a tick count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroPeriod`] if `ticks` is zero.
    pub const fn new(ticks: u64) -> Result<Self, CoreError> {
        if ticks == 0 {
            Err(CoreError::ZeroPeriod)
        } else {
            Ok(Period(ticks))
        }
    }

    /// Returns the raw tick count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Least common multiple of two periods.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TimeOverflow`] if the lcm overflows `u64`.
    pub fn lcm(self, other: Period) -> Result<Period, CoreError> {
        let g = gcd(self.0, other.0);
        (self.0 / g)
            .checked_mul(other.0)
            .map(Period)
            .ok_or(CoreError::TimeOverflow {
                context: format!("lcm of periods {} and {}", self.0, other.0),
            })
    }

    /// Number of whole periods in one round of length `round`, i.e. the
    /// largest admissible instance number `round / period` when `period`
    /// divides `round`.
    pub fn instances_per(self, round: Period) -> u64 {
        round.as_u64() / self.0
    }
}

impl fmt::Display for Period {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Greatest common divisor (Euclid). `gcd(0, x) = x`.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple of a non-empty iterator of periods.
///
/// # Errors
///
/// Returns [`CoreError::TimeOverflow`] on overflow. Returns
/// [`CoreError::ZeroPeriod`] if the iterator is empty.
pub fn lcm_all<I: IntoIterator<Item = Period>>(periods: I) -> Result<Period, CoreError> {
    let mut it = periods.into_iter();
    let first = it.next().ok_or(CoreError::ZeroPeriod)?;
    it.try_fold(first, |acc, p| acc.lcm(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(8, 12), 4);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
    }

    #[test]
    fn lcm_of_fig1_periods_is_twelve() {
        let ps = [2u64, 3, 4, 2]
            .iter()
            .map(|&p| Period::new(p).unwrap())
            .collect::<Vec<_>>();
        assert_eq!(lcm_all(ps).unwrap().as_u64(), 12);
    }

    #[test]
    fn lcm_overflow_is_reported() {
        let a = Period::new(u64::MAX - 1).unwrap();
        let b = Period::new(u64::MAX - 2).unwrap();
        assert!(matches!(a.lcm(b), Err(CoreError::TimeOverflow { .. })));
    }

    #[test]
    fn zero_period_rejected() {
        assert_eq!(Period::new(0).unwrap_err(), CoreError::ZeroPeriod);
    }

    #[test]
    fn tick_of_instance() {
        let p = Period::new(4).unwrap();
        assert_eq!(Tick::of_instance(p, 2).unwrap(), Tick::new(8));
        assert!(Tick::of_instance(p, u64::MAX).is_err());
    }

    #[test]
    fn tick_multiples() {
        let p = Period::new(3).unwrap();
        assert!(Tick::new(0).is_multiple_of(p));
        assert!(Tick::new(9).is_multiple_of(p));
        assert!(!Tick::new(10).is_multiple_of(p));
    }

    #[test]
    fn instances_per_round() {
        let p = Period::new(100).unwrap();
        let round = Period::new(500).unwrap();
        assert_eq!(p.instances_per(round), 5);
    }

    proptest! {
        #[test]
        fn gcd_divides_both(a in 1u64..1_000_000, b in 1u64..1_000_000) {
            let g = gcd(a, b);
            prop_assert_eq!(a % g, 0);
            prop_assert_eq!(b % g, 0);
        }

        #[test]
        fn lcm_is_common_multiple(a in 1u64..10_000, b in 1u64..10_000) {
            let l = Period::new(a).unwrap().lcm(Period::new(b).unwrap()).unwrap();
            prop_assert_eq!(l.as_u64() % a, 0);
            prop_assert_eq!(l.as_u64() % b, 0);
            // minimality: l/a and b/gcd coincide
            prop_assert_eq!(l.as_u64(), a / gcd(a, b) * b);
        }
    }
}
