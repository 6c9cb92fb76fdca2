//! Symbolic SRGs: exact polynomial expressions over component symbols.
//!
//! The one induction of [`crate::srg`] runs with a polynomial [`Poly`] as
//! its carrier, over one symbol per *replica unit* (`task@host`, carrying
//! the derated reliability `hrel · brel`) and per *sensor*. This symbol
//! granularity is that of the components
//! [`crate::importance::architecture_importance`] ranks.
//!
//! Two subtleties the polynomial view makes explicit:
//!
//! * Like the paper's induction (and the RBD expansion it mirrors), inputs
//!   reaching a task along several paths are treated as independent — a
//!   shared replica symbol then appears with exponent > 1, and the
//!   polynomial is *not* multilinear. [`Poly::is_multilinear`] reports
//!   this; DESIGN.md §13 discusses the consequences.
//! * Because of possible higher powers, Birnbaum importance is defined as
//!   the pinned difference `f(x := 1) − f(x := 0)` ([`pinned_birnbaum`]),
//!   which coincides with `∂f/∂x` exactly when the polynomial is
//!   multilinear in `x`.
//!
//! Certification needs the polynomials themselves only for its
//! degradation margins. Which symbols an SRG depends on, and whether it is
//! multilinear, come from the cheaper `Support` carrier, and Birnbaum
//! importance from pinned runs of the plan in `f64`
//! ([`crate::importance`]); the tests hold both to the polynomials.

use crate::error::ReliabilityError;
use crate::srg::{Carrier, SrgPlan, Srgs};
use logrel_core::{
    Architecture, CommunicatorId, CoreError, HostId, Implementation, SensorId, Specification,
    TaskId,
};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};

/// A reliability symbol: one replica unit or one sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sym {
    /// The replica of `task` on `host`, valued at `hrel(host) · brel`.
    Replica(TaskId, HostId),
    /// A sensor, valued at `srel`.
    Sensor(SensorId),
}

impl Sym {
    /// The component name used by diagnostics and importance rankings:
    /// `task@host` for a replica, the sensor's name for a sensor.
    pub fn label(self, spec: &Specification, arch: &Architecture) -> String {
        match self {
            Sym::Replica(t, h) => {
                format!("{}@{}", spec.task(t).name(), arch.host(h).name())
            }
            Sym::Sensor(s) => arch.sensor(s).name().to_owned(),
        }
    }
}

/// A monomial: symbol → exponent (empty map is the constant monomial).
pub type Monomial = BTreeMap<Sym, u32>;

/// A polynomial with `f64` coefficients over [`Sym`] variables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Poly {
    terms: BTreeMap<Monomial, f64>,
}

impl Poly {
    /// The zero polynomial.
    fn zero() -> Poly {
        Poly::default()
    }

    /// A constant polynomial.
    fn constant(c: f64) -> Poly {
        let mut terms = BTreeMap::new();
        if c != 0.0 {
            terms.insert(Monomial::new(), c);
        }
        Poly { terms }
    }

    /// The polynomial `x` for a single symbol.
    fn var(sym: Sym) -> Poly {
        let mut m = Monomial::new();
        m.insert(sym, 1);
        Poly {
            terms: BTreeMap::from([(m, 1.0)]),
        }
    }

    fn insert_term(terms: &mut BTreeMap<Monomial, f64>, m: Monomial, c: f64) {
        use std::collections::btree_map::Entry;
        // Exact-zero coefficients are dropped so the representation stays
        // canonical and `PartialEq` is meaningful.
        match terms.entry(m) {
            Entry::Vacant(v) => {
                if c != 0.0 {
                    v.insert(c);
                }
            }
            Entry::Occupied(mut o) => {
                let sum = o.get() + c;
                if sum == 0.0 {
                    o.remove();
                } else {
                    *o.get_mut() = sum;
                }
            }
        }
    }

    /// Polynomial sum.
    fn add(&self, other: &Poly) -> Poly {
        let mut terms = self.terms.clone();
        for (m, &c) in &other.terms {
            Poly::insert_term(&mut terms, m.clone(), c);
        }
        Poly { terms }
    }

    /// Scalar multiple.
    fn scale(&self, k: f64) -> Poly {
        if k == 0.0 {
            return Poly::zero();
        }
        Poly {
            terms: self.terms.iter().map(|(m, c)| (m.clone(), c * k)).collect(),
        }
    }

    /// Polynomial product.
    fn mul(&self, other: &Poly) -> Poly {
        let mut terms = BTreeMap::new();
        for (ma, &ca) in &self.terms {
            for (mb, &cb) in &other.terms {
                let mut m = ma.clone();
                for (&s, &e) in mb {
                    *m.entry(s).or_insert(0) += e;
                }
                Poly::insert_term(&mut terms, m, ca * cb);
            }
        }
        Poly { terms }
    }

    /// `1 − p`.
    fn one_minus(&self) -> Poly {
        Poly::constant(1.0).add(&self.scale(-1.0))
    }

    /// Series combination `Π p_i` (empty product is `1`).
    fn series<B: Borrow<Poly>>(items: impl IntoIterator<Item = B>) -> Poly {
        items
            .into_iter()
            .fold(Poly::constant(1.0), |acc, p| acc.mul(p.borrow()))
    }

    /// Parallel combination `1 − Π (1 − p_i)`.
    fn parallel<B: Borrow<Poly>>(items: impl IntoIterator<Item = B>) -> Poly {
        items
            .into_iter()
            .fold(Poly::constant(1.0), |acc, p| {
                acc.mul(&p.borrow().one_minus())
            })
            .one_minus()
    }

    /// Evaluates under an assignment of symbol values.
    pub fn eval(&self, assign: &impl Fn(Sym) -> f64) -> f64 {
        self.terms
            .iter()
            .map(|(m, c)| {
                c * m
                    .iter()
                    .map(|(&s, &e)| assign(s).powi(e as i32))
                    .product::<f64>()
            })
            .sum()
    }

    /// Substitutes a constant for one symbol, eliminating it.
    fn substitute(&self, sym: Sym, value: f64) -> Poly {
        let mut terms = BTreeMap::new();
        for (m, &c) in &self.terms {
            let mut m = m.clone();
            let coeff = match m.remove(&sym) {
                Some(e) => c * value.powi(e as i32),
                None => c,
            };
            if coeff != 0.0 {
                Poly::insert_term(&mut terms, m, coeff);
            }
        }
        Poly { terms }
    }

    /// All symbols occurring with a non-zero coefficient.
    pub fn symbols(&self) -> BTreeSet<Sym> {
        self.terms.keys().flat_map(|m| m.keys().copied()).collect()
    }

    /// Whether every symbol occurs with exponent ≤ 1 — the condition under
    /// which box extrema lie exactly at corners and the pinned Birnbaum
    /// difference equals the partial derivative.
    pub fn is_multilinear(&self) -> bool {
        self.terms.keys().all(|m| m.values().all(|&e| e <= 1))
    }
}

impl Carrier for Poly {
    fn one() -> Self {
        Poly::constant(1.0)
    }

    fn series<B: Borrow<Self>>(items: impl IntoIterator<Item = B>) -> Result<Self, CoreError> {
        Ok(Poly::series(items))
    }

    fn parallel<B: Borrow<Self>>(items: impl IntoIterator<Item = B>) -> Result<Self, CoreError> {
        Ok(Poly::parallel(items))
    }
}

/// Birnbaum importance as the pinned difference `f(x := 1) − f(x := 0)`,
/// the measure [`crate::importance`] takes by pinned runs of the plan,
/// even when the polynomial is not multilinear in `sym`.
pub fn pinned_birnbaum(poly: &Poly, sym: Sym, assign: &impl Fn(Sym) -> f64) -> f64 {
    poly.substitute(sym, 1.0).eval(assign) - poly.substitute(sym, 0.0).eval(assign)
}

/// The standard assignment: a replica symbol is worth `hrel · brel`, a
/// sensor symbol `srel`.
pub fn standard_assignment(arch: &Architecture) -> impl Fn(Sym) -> f64 + '_ {
    let brel = arch.broadcast_reliability().get();
    move |sym| match sym {
        Sym::Replica(_, h) => arch.host(h).reliability().get() * brel,
        Sym::Sensor(s) => arch.sensor(s).reliability().get(),
    }
}

/// Symbolic SRG expressions for every task and communicator.
pub type SymbolicSrgReport = Srgs<Poly>;

impl SymbolicSrgReport {
    /// The symbolic `λ_t`.
    pub fn task(&self, t: TaskId) -> &Poly {
        &self.tasks()[t.index()]
    }

    /// The symbolic `λ_c`.
    pub fn communicator(&self, c: CommunicatorId) -> &Poly {
        &self.communicators()[c.index()]
    }
}

/// Runs the §3 induction symbolically. Only the *structure* (mappings,
/// bindings, failure models) is consulted; architecture reliabilities
/// enter later through an assignment such as [`standard_assignment`].
///
/// # Errors
///
/// Same conditions as [`crate::srg::compute_srgs`].
pub fn compute_symbolic_srgs(
    spec: &Specification,
    imp: &Implementation,
) -> Result<SymbolicSrgReport, ReliabilityError> {
    symbolic_srgs(&SrgPlan::compile(spec, imp)?)
}

/// [`compute_symbolic_srgs`] over an already compiled plan.
pub(crate) fn symbolic_srgs(plan: &SrgPlan) -> Result<SymbolicSrgReport, ReliabilityError> {
    plan.run(
        |t, h| Ok(Poly::var(Sym::Replica(t, h))),
        |s| Poly::var(Sym::Sensor(s)),
    )
}

/// What an SRG's polynomial depends on, without expanding it: its symbols
/// ([`Poly::symbols`]) and whether one of them occurs with an exponent
/// above 1 (`!`[`Poly::is_multilinear`]).
///
/// A product raises a symbol's exponent above 1 exactly when an operand
/// already does or two operands share the symbol; `1 − p` keeps every
/// exponent of a non-constant `p`. The only constant an SRG can take is
/// `1` — a constant communicator, or a block absorbed by one — and a
/// constant-one operand of a parallel block makes the block `1`, dropping
/// every symbol of the other operands, as in [`Poly`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Support {
    /// The symbols the SRG depends on; empty for the constant `1`.
    pub(crate) symbols: BTreeSet<Sym>,
    /// Whether some symbol occurs with an exponent above 1.
    pub(crate) shared: bool,
}

impl Support {
    /// The support of the single symbol `sym`.
    fn var(sym: Sym) -> Support {
        Support {
            symbols: BTreeSet::from([sym]),
            shared: false,
        }
    }

    /// The support of the product of `self` and `other`.
    fn join(&mut self, other: &Support) {
        self.shared |= other.shared || !self.symbols.is_disjoint(&other.symbols);
        self.symbols.extend(other.symbols.iter().copied());
    }
}

impl Carrier for Support {
    fn one() -> Self {
        Support::default()
    }

    fn series<B: Borrow<Self>>(items: impl IntoIterator<Item = B>) -> Result<Self, CoreError> {
        let mut out = Support::default();
        for item in items {
            out.join(item.borrow());
        }
        Ok(out)
    }

    /// Rejects an empty block, as the point carrier does.
    fn parallel<B: Borrow<Self>>(items: impl IntoIterator<Item = B>) -> Result<Self, CoreError> {
        let mut out = Support::default();
        let (mut any, mut one) = (false, false);
        for item in items {
            let item = item.borrow();
            any = true;
            one |= item.symbols.is_empty();
            out.join(item);
        }
        if !any {
            return Err(CoreError::InvalidReliability { value: 0.0 });
        }
        Ok(if one { Support::default() } else { out })
    }
}

/// The [`Support`] of every task and communicator SRG.
pub(crate) fn support_srgs(plan: &SrgPlan) -> Result<Srgs<Support>, ReliabilityError> {
    plan.run(
        |t, h| Ok(Support::var(Sym::Replica(t, h))),
        |s| Support::var(Sym::Sensor(s)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> Sym {
        Sym::Sensor(SensorId::new(i))
    }

    impl Poly {
        /// The exact partial derivative `∂p/∂sym`: the oracle the pinned
        /// Birnbaum measure is compared against.
        fn partial(&self, sym: Sym) -> Poly {
            let mut terms = BTreeMap::new();
            for (m, &c) in &self.terms {
                let mut m = m.clone();
                if let Some(e) = m.remove(&sym) {
                    if e > 1 {
                        m.insert(sym, e - 1);
                    }
                    Poly::insert_term(&mut terms, m, c * f64::from(e));
                }
            }
            Poly { terms }
        }
    }

    #[test]
    fn constant_and_var_round_trip() {
        let assign = |_: Sym| 0.5;
        assert_eq!(Poly::constant(3.0).eval(&assign), 3.0);
        assert_eq!(Poly::var(s(0)).eval(&assign), 0.5);
        assert_eq!(Poly::zero().eval(&assign), 0.0);
    }

    #[test]
    fn arithmetic_matches_numeric_evaluation() {
        let x = Poly::var(s(0));
        let y = Poly::var(s(1));
        let expr = x.mul(&y).add(&x.one_minus().scale(0.25));
        let assign = |sym: Sym| if sym == s(0) { 0.9 } else { 0.8 };
        let expect = 0.9 * 0.8 + (1.0 - 0.9) * 0.25;
        assert!((expr.eval(&assign) - expect).abs() < 1e-15);
    }

    #[test]
    fn cancelling_terms_are_removed() {
        let x = Poly::var(s(0));
        let zero = x.add(&x.scale(-1.0));
        assert_eq!(zero, Poly::zero());
        assert!(zero.terms.is_empty());
    }

    #[test]
    fn partial_derivative_is_exact() {
        // p = x²y + 2x: ∂p/∂x = 2xy + 2, ∂p/∂y = x².
        let x = Poly::var(s(0));
        let y = Poly::var(s(1));
        let p = x.mul(&x).mul(&y).add(&x.scale(2.0));
        let assign = |sym: Sym| if sym == s(0) { 0.5 } else { 0.25 };
        assert!((p.partial(s(0)).eval(&assign) - (2.0 * 0.5 * 0.25 + 2.0)).abs() < 1e-15);
        assert!((p.partial(s(1)).eval(&assign) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn substitute_eliminates_symbol() {
        let x = Poly::var(s(0));
        let y = Poly::var(s(1));
        let p = x.mul(&x).mul(&y);
        let q = p.substitute(s(0), 0.5);
        assert!(!q.symbols().contains(&s(0)));
        assert!((q.eval(&|_| 0.8) - 0.25 * 0.8).abs() < 1e-15);
        // Substituting zero kills every term containing the symbol.
        assert_eq!(p.substitute(s(0), 0.0), Poly::zero());
    }

    #[test]
    fn multilinearity_detection() {
        let x = Poly::var(s(0));
        let y = Poly::var(s(1));
        assert!(x.mul(&y).is_multilinear());
        assert!(!x.mul(&x).is_multilinear());
    }

    #[test]
    fn pinned_birnbaum_on_multilinear_equals_partial() {
        // Parallel pair: f = 1 − (1−x)(1−y); ∂f/∂x = 1 − y.
        let f = Poly::parallel(&[Poly::var(s(0)), Poly::var(s(1))]);
        assert!(f.is_multilinear());
        let assign = |sym: Sym| if sym == s(0) { 0.9 } else { 0.8 };
        let b = pinned_birnbaum(&f, s(0), &assign);
        let d = f.partial(s(0)).eval(&assign);
        assert!((b - d).abs() < 1e-15);
        assert!((b - 0.2).abs() < 1e-15);
    }

    #[test]
    fn pinned_birnbaum_on_square_differs_from_partial() {
        // f = x²: pinned difference is 1 − 0 = 1, derivative is 2x.
        let x = Poly::var(s(0));
        let f = x.mul(&x);
        let assign = |_: Sym| 0.9;
        assert!((pinned_birnbaum(&f, s(0), &assign) - 1.0).abs() < 1e-15);
        assert!((f.partial(s(0)).eval(&assign) - 1.8).abs() < 1e-15);
    }

    #[test]
    fn series_parallel_match_numeric_identities() {
        let polys: Vec<Poly> = (0..3).map(|i| Poly::var(s(i))).collect();
        let assign = |sym: Sym| match sym {
            Sym::Sensor(id) => [0.9, 0.8, 0.7][id.index()],
            Sym::Replica(..) => unreachable!(),
        };
        let ser = Poly::series(&polys).eval(&assign);
        assert!((ser - 0.9 * 0.8 * 0.7).abs() < 1e-15);
        let par = Poly::parallel(&polys).eval(&assign);
        assert!((par - (1.0 - 0.1 * 0.2 * 0.3)).abs() < 1e-15);
    }
}
