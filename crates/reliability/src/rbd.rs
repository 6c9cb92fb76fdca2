//! Reliability block diagrams (RBDs).
//!
//! The paper situates its analysis "closest to that of RBDs, where systems
//! are modeled as networks with AND/OR junctions: an OR junction works
//! reliably when any of its inputs is reliable, and an AND junction requires
//! that all inputs be reliable". [`Block`] is that model: independent units
//! composed by series (AND), parallel (OR) and k-of-n voting junctions.

use crate::error::ReliabilityError;
use logrel_core::Reliability;
use std::fmt;

/// A node of a reliability block diagram.
///
/// # Example
///
/// ```
/// use logrel_core::Reliability;
/// use logrel_reliability::Block;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let host = Block::unit(Reliability::new(0.8)?);
/// // Two replicated hosts feeding one actuator:
/// let system = Block::series(vec![
///     Block::parallel(vec![host.clone(), host])?,
///     Block::unit(Reliability::new(0.99)?),
/// ]);
/// assert!((system.reliability()?.get() - 0.96 * 0.99).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// An atomic component with a fixed reliability.
    Unit {
        /// Optional component label for reporting.
        name: Option<String>,
        /// The component's reliability.
        reliability: Reliability,
    },
    /// AND junction: works iff every child works. An empty series works
    /// vacuously.
    Series(Vec<Block>),
    /// OR junction: works iff at least one child works. Must be non-empty.
    Parallel(Vec<Block>),
    /// Voting junction: works iff at least `k` of the children work.
    KOfN {
        /// Required number of working children.
        k: usize,
        /// The voted children.
        children: Vec<Block>,
    },
}

impl Block {
    /// An anonymous unit.
    pub fn unit(reliability: Reliability) -> Block {
        Block::Unit {
            name: None,
            reliability,
        }
    }

    /// A labelled unit.
    pub fn named_unit(name: impl Into<String>, reliability: Reliability) -> Block {
        Block::Unit {
            name: Some(name.into()),
            reliability,
        }
    }

    /// A series (AND) junction.
    pub fn series(children: Vec<Block>) -> Block {
        Block::Series(children)
    }

    /// A parallel (OR) junction.
    ///
    /// # Errors
    ///
    /// Returns [`ReliabilityError::Structure`] for an empty child list (an
    /// empty OR junction never works).
    pub fn parallel(children: Vec<Block>) -> Result<Block, ReliabilityError> {
        if children.is_empty() {
            return Err(ReliabilityError::Structure {
                detail: "empty parallel junction".to_owned(),
            });
        }
        Ok(Block::Parallel(children))
    }

    /// A k-of-n voting junction.
    ///
    /// # Errors
    ///
    /// Returns [`ReliabilityError::Structure`] if `k > children.len()`.
    pub fn k_of_n(k: usize, children: Vec<Block>) -> Result<Block, ReliabilityError> {
        if k > children.len() {
            return Err(ReliabilityError::Structure {
                detail: format!("{k}-of-{} voting junction", children.len()),
            });
        }
        Ok(Block::KOfN { k, children })
    }

    /// The probability that the block works, assuming all units fail
    /// independently.
    pub fn probability(&self) -> f64 {
        match self {
            Block::Unit { reliability, .. } => reliability.get(),
            Block::Series(children) => children.iter().map(Block::probability).product(),
            Block::Parallel(children) => {
                1.0 - children
                    .iter()
                    .map(|c| 1.0 - c.probability())
                    .product::<f64>()
            }
            Block::KOfN { k, children } => {
                // DP over "probability that exactly j of the first i
                // children work".
                let mut dist = vec![1.0_f64];
                for c in children {
                    let p = c.probability();
                    let mut next = vec![0.0; dist.len() + 1];
                    for (j, &q) in dist.iter().enumerate() {
                        next[j] += q * (1.0 - p);
                        next[j + 1] += q * p;
                    }
                    dist = next;
                }
                dist.iter().skip(*k).sum()
            }
        }
    }

    /// The block reliability as a validated [`Reliability`].
    ///
    /// # Errors
    ///
    /// Returns [`ReliabilityError::Core`] if the probability is outside
    /// `(0, 1]` — e.g. a voting junction that can never be satisfied, or a
    /// series product that underflows to zero.
    pub fn reliability(&self) -> Result<Reliability, ReliabilityError> {
        // Guard against tiny positive round-off above 1.
        let p = self.probability().min(1.0);
        Reliability::new(p).map_err(Into::into)
    }

    /// The number of atomic units in the diagram.
    pub fn unit_count(&self) -> usize {
        match self {
            Block::Unit { .. } => 1,
            Block::Series(cs) | Block::Parallel(cs) | Block::KOfN { children: cs, .. } => {
                cs.iter().map(Block::unit_count).sum()
            }
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Block::Unit { name, reliability } => match name {
                Some(n) => write!(f, "{n}[{}]", reliability.get()),
                None => write!(f, "[{}]", reliability.get()),
            },
            Block::Series(cs) => {
                write!(f, "series(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Block::Parallel(cs) => {
                write!(f, "parallel(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Block::KOfN { k, children } => {
                write!(f, "{k}-of-{}(", children.len())?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
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
    fn unit_probability_is_its_reliability() {
        assert_eq!(Block::unit(r(0.7)).probability(), 0.7);
    }

    #[test]
    fn series_and_parallel_basics() {
        let s = Block::series(vec![Block::unit(r(0.9)), Block::unit(r(0.8))]);
        assert!((s.probability() - 0.72).abs() < 1e-12);
        let p = Block::parallel(vec![Block::unit(r(0.9)), Block::unit(r(0.8))]).unwrap();
        assert!((p.probability() - 0.98).abs() < 1e-12);
    }

    #[test]
    fn empty_series_works_vacuously() {
        assert_eq!(Block::series(vec![]).probability(), 1.0);
    }

    #[test]
    fn empty_parallel_rejected() {
        assert!(Block::parallel(vec![]).is_err());
    }

    #[test]
    fn k_of_n_matches_binomial() {
        // 2-of-3 with p = 0.9 each: 3 * 0.81 * 0.1 + 0.729 = 0.972.
        let b = Block::k_of_n(2, vec![Block::unit(r(0.9)); 3]).unwrap();
        assert!((b.probability() - 0.972).abs() < 1e-12);
    }

    #[test]
    fn zero_of_n_always_works() {
        let b = Block::k_of_n(0, vec![Block::unit(r(0.1))]).unwrap();
        assert_eq!(b.probability(), 1.0);
    }

    #[test]
    fn k_greater_than_n_rejected() {
        assert!(Block::k_of_n(3, vec![Block::unit(r(0.5)); 2]).is_err());
    }

    #[test]
    fn one_of_n_equals_parallel_and_n_of_n_equals_series() {
        let units = vec![Block::unit(r(0.8)), Block::unit(r(0.6)), Block::unit(r(0.9))];
        let one = Block::k_of_n(1, units.clone()).unwrap().probability();
        let par = Block::parallel(units.clone()).unwrap().probability();
        assert!((one - par).abs() < 1e-12);
        let all = Block::k_of_n(3, units.clone()).unwrap().probability();
        let ser = Block::series(units).probability();
        assert!((all - ser).abs() < 1e-12);
    }

    #[test]
    fn unit_count_and_display() {
        let b = Block::series(vec![
            Block::named_unit("a", r(0.9)),
            Block::parallel(vec![Block::unit(r(0.8)), Block::unit(r(0.8))]).unwrap(),
        ]);
        assert_eq!(b.unit_count(), 3);
        let s = b.to_string();
        assert!(s.contains("series") && s.contains("parallel") && s.contains('a'));
        let v = Block::k_of_n(1, vec![Block::unit(r(0.5))]).unwrap();
        assert!(v.to_string().contains("1-of-1"));
    }

    #[test]
    fn reliability_clamps_roundoff() {
        let many = Block::parallel(vec![Block::unit(r(0.999_999_999_999)); 8]).unwrap();
        assert!(many.reliability().is_ok());
    }

    proptest! {
        #[test]
        fn series_below_min_parallel_above_max(
            a in 0.05f64..1.0, b in 0.05f64..1.0
        ) {
            let ua = Block::unit(r(a));
            let ub = Block::unit(r(b));
            let s = Block::series(vec![ua.clone(), ub.clone()]).probability();
            let p = Block::parallel(vec![ua, ub]).unwrap().probability();
            prop_assert!(s <= a.min(b) + 1e-12);
            prop_assert!(p + 1e-12 >= a.max(b));
        }

        #[test]
        fn k_of_n_is_monotone_in_k(
            p in 0.05f64..1.0, n in 1usize..6
        ) {
            let units = vec![Block::unit(r(p)); n];
            let mut last = 1.0 + 1e-12;
            for k in 0..=n {
                let q = Block::k_of_n(k, units.clone()).unwrap().probability();
                prop_assert!(q <= last + 1e-12);
                last = q;
            }
        }
    }
}
