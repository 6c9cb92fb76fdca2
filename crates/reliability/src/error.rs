//! Errors of the reliability analysis.

use logrel_core::CoreError;
use std::error::Error;
use std::fmt;

/// Errors raised by SRG computation, LRC checking and synthesis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReliabilityError {
    /// A core-model error (invalid reliability value, unknown id, …).
    Core(CoreError),
    /// The communicator-level dependency graph is cyclic and no task with
    /// the independent input failure model cuts the cycle, so the SRG
    /// induction does not terminate (§3, "Specification with memory").
    CyclicDependencies {
        /// Names of the communicators on unresolvable cycles.
        communicators: Vec<String>,
    },
    /// An input communicator has no bound sensor, so its base-case SRG is
    /// undefined.
    UnboundInput {
        /// The unbound communicator's name.
        communicator: String,
    },
    /// Replication synthesis exhausted its search space without satisfying
    /// every LRC.
    Unsatisfiable {
        /// Names of communicators whose LRC could not be met, with the best
        /// achieved SRG.
        unmet: Vec<(String, f64)>,
    },
    /// An ill-formed analysis input (e.g. an exhaustive synthesis space
    /// too large to enumerate).
    Structure {
        /// Explanation of the structural problem.
        detail: String,
    },
}

impl fmt::Display for ReliabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReliabilityError::Core(e) => write!(f, "{e}"),
            ReliabilityError::CyclicDependencies { communicators } => write!(
                f,
                "communicator cycle without an independent-model task through {}",
                communicators.join(", ")
            ),
            ReliabilityError::UnboundInput { communicator } => {
                write!(f, "input communicator `{communicator}` has no sensor")
            }
            ReliabilityError::Unsatisfiable { unmet } => {
                write!(f, "synthesis failed for: ")?;
                for (i, (name, best)) in unmet.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "`{name}` (best SRG {best})")?;
                }
                Ok(())
            }
            ReliabilityError::Structure { detail } => write!(f, "ill-formed structure: {detail}"),
        }
    }
}

impl Error for ReliabilityError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReliabilityError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ReliabilityError {
    fn from(e: CoreError) -> Self {
        ReliabilityError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let errs: Vec<ReliabilityError> = vec![
            CoreError::ZeroPeriod.into(),
            ReliabilityError::CyclicDependencies {
                communicators: vec!["a".into(), "b".into()],
            },
            ReliabilityError::UnboundInput {
                communicator: "s".into(),
            },
            ReliabilityError::Unsatisfiable {
                unmet: vec![("u".into(), 0.9)],
            },
            ReliabilityError::Structure {
                detail: "empty parallel".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn source_chains_core_errors() {
        let e: ReliabilityError = CoreError::ZeroPeriod.into();
        assert!(e.source().is_some());
        let s = ReliabilityError::Structure { detail: "x".into() };
        assert!(s.source().is_none());
    }
}
