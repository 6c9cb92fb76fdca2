//! Interval SRG evaluation with outward directed rounding.
//!
//! [`crate::srg::compute_srgs`] evaluates the §3 induction in point `f64`
//! arithmetic, so the Proposition 1 check `λ_c ≥ µ_c` is a rounding error
//! away from certifying an unreliable spec. This module runs the one
//! induction of [`crate::srg`] with [`Interval`]s as its carrier, whose
//! endpoints are widened *outward* after every floating-point operation:
//! IEEE-754 round-to-nearest is off by at most half an ulp, so stepping
//! one ulp down on the lower endpoint and one ulp up on the upper
//! endpoint after each multiplication/complement keeps the true
//! real-arithmetic value — and, by monotonicity of rounding, every
//! faithfully computed point value — inside the enclosure.
//!
//! Because the whole induction is monotone nondecreasing in every host,
//! sensor and broadcast reliability, endpoint propagation is exact at the
//! real-arithmetic level: the lower endpoint of an SRG is the SRG of the
//! lower-corner architecture. [`compute_degraded_srgs`] exploits this to
//! certify robustly over a uniform reliability box `r ∈ [r − δ, r]` by
//! evaluating the single lower corner (the "monotone lower corner"
//! argument; see DESIGN.md §13).
//!
//! An LRC check against an enclosure returns a three-valued
//! [`CertStatus`]: `lo ≥ µ` certifies, `hi < µ` refutes, anything else is
//! indeterminate. Note that certification is *strict* — unlike
//! [`logrel_core::Reliability::meets`] there is no `1e-12` tolerance,
//! because the enclosure already absorbs all rounding slop soundly.

use crate::error::ReliabilityError;
use crate::srg::{Carrier, SrgPlan, Srgs};
use logrel_core::{Architecture, CoreError, Implementation, Specification};
use std::borrow::Borrow;
use std::fmt;

/// Rounds a lower endpoint outward (towards `0`) by one ulp.
fn down(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x.next_down().max(0.0)
    }
}

/// Rounds an upper endpoint outward (towards `1`) by one ulp.
fn up(x: f64) -> f64 {
    if x >= 1.0 {
        1.0
    } else {
        x.next_up().min(1.0)
    }
}

/// `a · b` rounded towards `0`. Exact (no widening) when a factor is `1`
/// or the product is `0`.
fn mul_down(a: f64, b: f64) -> f64 {
    let p = a * b;
    if a == 1.0 || b == 1.0 || p == 0.0 {
        p
    } else {
        down(p)
    }
}

/// `a · b` rounded towards `1`.
fn mul_up(a: f64, b: f64) -> f64 {
    let p = a * b;
    if a == 1.0 || b == 1.0 || p == 0.0 {
        p
    } else {
        up(p)
    }
}

/// `1 − x` rounded towards `0`. Exact for `x ∈ {0} ∪ [1/2, 1]` (Sterbenz).
fn one_minus_down(x: f64) -> f64 {
    let d = 1.0 - x;
    if x >= 0.5 || x == 0.0 {
        d
    } else {
        down(d)
    }
}

/// `1 − x` rounded towards `1`.
fn one_minus_up(x: f64) -> f64 {
    let d = 1.0 - x;
    if x >= 0.5 || x == 0.0 {
        d
    } else {
        up(d)
    }
}

/// A closed reliability enclosure `[lo, hi] ⊆ [0, 1]`.
///
/// Unlike [`logrel_core::Reliability`] the endpoints may be `0`: a degraded
/// box corner can reach zero reliability, and soundness (not the paper's
/// `(0, 1]` invariant) is the contract here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The degenerate enclosure of a single point.
    pub fn point(x: f64) -> Interval {
        debug_assert!((0.0..=1.0).contains(&x), "reliability out of range: {x}");
        Interval { lo: x, hi: x }
    }

    /// The uniform-degradation box `[max(0, r − δ), r]` used by robust
    /// certification; the lower endpoint is widened outward so the real
    /// value `r − δ` stays inside.
    pub fn degraded(r: f64, delta: f64) -> Interval {
        debug_assert!(delta >= 0.0, "negative degradation: {delta}");
        let lo = if delta == 0.0 { r } else { down(r - delta) };
        Interval {
            lo: lo.max(0.0),
            hi: r,
        }
    }

    /// Lower endpoint.
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// Enclosure width `hi − lo`.
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `x` lies inside the enclosure.
    pub fn contains(self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Interval complement `1 − x` (antitone: endpoints swap).
    pub fn one_minus(self) -> Interval {
        Interval {
            lo: one_minus_down(self.hi),
            hi: one_minus_up(self.lo),
        }
    }

    /// Series combination `Π r_i`, mirroring
    /// [`logrel_core::Reliability::series`] (empty product is exactly `1`).
    pub fn series<I: IntoIterator<Item = Interval>>(items: I) -> Interval {
        items
            .into_iter()
            .fold(Interval { lo: 1.0, hi: 1.0 }, |acc, r| acc * r)
    }

    /// Parallel combination `1 − Π (1 − r_i)`, mirroring
    /// [`logrel_core::Reliability::parallel`].
    ///
    /// # Errors
    ///
    /// Returns the same [`CoreError::InvalidReliability`] as the point
    /// combinator for an empty iterator.
    pub fn parallel<I: IntoIterator<Item = Interval>>(items: I) -> Result<Interval, CoreError> {
        let mut any = false;
        let q = items
            .into_iter()
            .fold(Interval { lo: 1.0, hi: 1.0 }, |acc, r| {
                any = true;
                acc * r.one_minus()
            });
        if !any {
            return Err(CoreError::InvalidReliability { value: 0.0 });
        }
        // acc tracked Π(1 − r): its lo came from the *his* of the items,
        // so the complement swap in `one_minus` restores the orientation.
        Ok(q.one_minus())
    }

    /// Three-valued LRC check of this enclosure against the constraint `µ`.
    pub fn certify(self, mu: f64) -> CertStatus {
        if self.lo >= mu {
            CertStatus::Certified
        } else if self.hi < mu {
            CertStatus::Refuted
        } else {
            CertStatus::Indeterminate
        }
    }
}

/// Interval product (both operands in `[0, 1]`, so monotone in both).
impl std::ops::Mul for Interval {
    type Output = Interval;

    fn mul(self, other: Interval) -> Interval {
        Interval {
            lo: mul_down(self.lo, other.lo),
            hi: mul_up(self.hi, other.hi),
        }
    }
}

impl Carrier for Interval {
    fn one() -> Self {
        Interval::point(1.0)
    }

    fn series<B: Borrow<Self>>(items: impl IntoIterator<Item = B>) -> Result<Self, CoreError> {
        Ok(Interval::series(items.into_iter().map(|i| *i.borrow())))
    }

    fn parallel<B: Borrow<Self>>(items: impl IntoIterator<Item = B>) -> Result<Self, CoreError> {
        Interval::parallel(items.into_iter().map(|i| *i.borrow()))
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// Outcome of checking a certified enclosure against an LRC.
///
/// The variant order is severity order (worst first), so the `Ord` minimum
/// over a set of checks is the overall verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CertStatus {
    /// `hi < µ`: even the most optimistic rounding cannot meet the LRC.
    Refuted,
    /// `lo < µ ≤ hi`: the enclosure straddles the constraint; neither
    /// verdict is sound.
    Indeterminate,
    /// `lo ≥ µ`: the LRC holds for every value the true SRG can take.
    Certified,
}

impl CertStatus {
    /// Upper-case rendering used by reports and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            CertStatus::Certified => "CERTIFIED",
            CertStatus::Refuted => "REFUTED",
            CertStatus::Indeterminate => "INDETERMINATE",
        }
    }
}

impl fmt::Display for CertStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Sound enclosures of every task reliability and communicator SRG.
pub type IntervalSrgReport = Srgs<Interval>;

/// Interval mirror of [`crate::srg::compute_srgs`]: every endpoint pair
/// soundly encloses both the true real-arithmetic SRG and the point-`f64`
/// value the plain analysis computes.
///
/// # Errors
///
/// Same conditions as [`crate::srg::compute_srgs`].
pub fn compute_interval_srgs(
    spec: &Specification,
    arch: &Architecture,
    imp: &Implementation,
) -> Result<IntervalSrgReport, ReliabilityError> {
    interval_srgs(&SrgPlan::compile(spec, imp)?, arch, None)
}

/// Robust variant: every host and sensor reliability `r` is replaced by
/// the degradation box `[r − δ, r]` before the induction runs. A
/// [`CertStatus::Certified`] verdict on the result certifies the LRC for
/// *every* architecture in the box at once (monotone lower corner). The
/// broadcast reliability is left at its declared point value — the box
/// models component wear, not channel wear.
///
/// # Errors
///
/// Same conditions as [`crate::srg::compute_srgs`].
pub fn compute_degraded_srgs(
    spec: &Specification,
    arch: &Architecture,
    imp: &Implementation,
    delta: f64,
) -> Result<IntervalSrgReport, ReliabilityError> {
    interval_srgs(&SrgPlan::compile(spec, imp)?, arch, Some(delta))
}

/// The §3 induction over enclosures: a declared host or sensor
/// reliability `r` enters as the point `r`, or, given `delta`, as the
/// degradation box `[r − δ, r]`.
///
/// # Errors
///
/// Same conditions as [`crate::srg::compute_srgs`].
pub(crate) fn interval_srgs(
    plan: &SrgPlan,
    arch: &Architecture,
    delta: Option<f64>,
) -> Result<IntervalSrgReport, ReliabilityError> {
    let leaf = |r: f64| match delta {
        Some(d) => Interval::degraded(r, d),
        None => Interval::point(r),
    };
    let brel = Interval::point(arch.broadcast_reliability().get());
    plan.run(
        |_, h| Ok(leaf(arch.host(h).reliability().get()) * brel),
        |s| leaf(arch.sensor(s).reliability().get()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval { lo, hi }
    }

    #[test]
    fn point_and_accessors() {
        let p = Interval::point(0.9);
        assert_eq!(p.lo(), 0.9);
        assert_eq!(p.hi(), 0.9);
        assert_eq!(p.width(), 0.0);
        assert!(p.contains(0.9));
        assert!(!p.contains(0.91));
    }

    #[test]
    fn degraded_box_encloses_both_corners() {
        let b = Interval::degraded(0.99, 0.01);
        assert!(b.lo() <= 0.98);
        assert_eq!(b.hi(), 0.99);
        let clamped = Interval::degraded(0.3, 0.5);
        assert_eq!(clamped.lo(), 0.0);
        // δ = 0 keeps the point exactly.
        assert_eq!(Interval::degraded(0.7, 0.0), Interval::point(0.7));
    }

    #[test]
    fn mul_widens_outward() {
        let a = Interval::point(0.9);
        let p = a * a;
        let exact = 0.9 * 0.9;
        assert!(p.lo() < exact && exact < p.hi());
        assert!(p.width() < 1e-15);
    }

    #[test]
    fn mul_by_one_is_exact() {
        let a = Interval::point(0.123_456_789);
        assert_eq!(a * Interval::point(1.0), a);
    }

    #[test]
    fn one_minus_swaps_and_encloses() {
        let a = iv(0.2, 0.3);
        let c = a.one_minus();
        assert!(c.lo() <= 0.7 && 0.7 <= c.hi());
        assert!(c.lo() <= 0.8 && 0.8 <= c.hi());
        // Sterbenz range: exact for operands ≥ 1/2.
        let b = iv(0.5, 0.75).one_minus();
        assert_eq!(b, iv(0.25, 0.5));
    }

    #[test]
    fn empty_series_is_exact_one() {
        assert_eq!(Interval::series([]), Interval::point(1.0));
    }

    #[test]
    fn empty_parallel_is_error() {
        assert!(Interval::parallel([]).is_err());
    }

    #[test]
    fn parallel_of_two_hosts_matches_paper_intro() {
        // §1: two hosts at 0.8 give 1 − 0.04 = 0.96.
        let p = Interval::parallel([Interval::point(0.8); 2]).unwrap();
        assert!(p.contains(0.96));
        assert!(p.width() < 1e-15);
    }

    #[test]
    fn certify_is_three_valued_and_strict() {
        assert_eq!(iv(0.95, 0.96).certify(0.9), CertStatus::Certified);
        assert_eq!(iv(0.95, 0.96).certify(0.97), CertStatus::Refuted);
        assert_eq!(iv(0.95, 0.96).certify(0.955), CertStatus::Indeterminate);
        // Boundary cases: lo == µ certifies, hi == µ is indeterminate.
        assert_eq!(iv(0.9, 0.91).certify(0.9), CertStatus::Certified);
        assert_eq!(iv(0.89, 0.9).certify(0.9), CertStatus::Indeterminate);
    }

    #[test]
    fn status_ordering_puts_worst_first() {
        assert!(CertStatus::Refuted < CertStatus::Indeterminate);
        assert!(CertStatus::Indeterminate < CertStatus::Certified);
        assert_eq!(CertStatus::Certified.to_string(), "CERTIFIED");
    }

    #[test]
    fn display_renders_endpoints() {
        assert_eq!(iv(0.25, 0.5).to_string(), "[0.25, 0.5]");
    }

    proptest! {
        /// The interval combinators enclose the point combinators for any
        /// operand: the invariant the whole module exists for.
        #[test]
        fn interval_ops_enclose_point_ops(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let (pa, pb) = (Interval::point(a), Interval::point(b));
            prop_assert!((pa * pb).contains(a * b));
            prop_assert!(pa.one_minus().contains(1.0 - a));
            let par = Interval::parallel([pa, pb]).unwrap();
            prop_assert!(par.contains(1.0 - (1.0 - a) * (1.0 - b)));
            let ser = Interval::series([pa, pb]);
            prop_assert!(ser.contains(a * b));
        }

        /// Widening never explodes: a two-operand product stays within a
        /// few ulps of the exact value.
        #[test]
        fn widening_is_tight(a in 0.01f64..=1.0, b in 0.01f64..=1.0) {
            let p = Interval::point(a) * Interval::point(b);
            prop_assert!(p.width() <= 4.0 * f64::EPSILON);
        }
    }
}
