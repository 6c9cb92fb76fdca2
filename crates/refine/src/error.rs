//! Refinement violations and errors.

use std::error::Error;
use std::fmt;

/// A single violated refinement constraint, with names for diagnostics.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// κ does not map some refining task.
    KappaNotTotal {
        /// The unmapped refining task.
        task: String,
    },
    /// κ maps two refining tasks to the same refined task.
    KappaNotInjective {
        /// The shared refined task.
        refined: String,
        /// First refining task.
        first: String,
        /// Second refining task.
        second: String,
    },
    /// Constraint (a): the host sets differ.
    HostSetMismatch {
        /// Human-readable difference.
        detail: String,
    },
    /// Constraint (b1): the replication mappings differ.
    MappingMismatch {
        /// The refining task.
        task: String,
    },
    /// Constraint (b2): an execution metric grew.
    MetricIncreased {
        /// "WCET" or "WCTT".
        metric: &'static str,
        /// The refining task.
        task: String,
        /// The host on which the metric grew.
        host: String,
        /// The refining value.
        refining: u64,
        /// The refined value.
        refined: u64,
    },
    /// Constraint (b3): the refining LET is not contained in the refined
    /// one.
    LetNotContained {
        /// The refining task.
        task: String,
        /// `true` if the read time moved earlier, `false` if the write
        /// time moved later.
        read_side: bool,
    },
    /// Constraint (b4): an output LRC of the refining task exceeds the
    /// largest output LRC of the refined task.
    LrcExceeded {
        /// The refining task.
        task: String,
        /// The offending output communicator.
        comm: String,
        /// Its LRC.
        lrc: f64,
        /// The admissible maximum (`None` if the refined task's outputs
        /// declare no LRC at all).
        max: Option<f64>,
    },
    /// Constraint (b5): the input failure model changed.
    ModelChanged {
        /// The refining task.
        task: String,
    },
    /// Constraint (b6): the input communicator sets do not shrink (series)
    /// / grow (parallel) as required.
    InputSetMismatch {
        /// The refining task.
        task: String,
        /// `true` for the series model (subset required), `false` for the
        /// parallel model (superset required).
        subset_required: bool,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::KappaNotTotal { task } => write!(f, "κ does not map task `{task}`"),
            Violation::KappaNotInjective {
                refined,
                first,
                second,
            } => write!(f, "κ maps both `{first}` and `{second}` to `{refined}`"),
            Violation::HostSetMismatch { detail } => write!(f, "host sets differ: {detail}"),
            Violation::MappingMismatch { task } => {
                write!(
                    f,
                    "task `{task}` is mapped to different hosts than its image"
                )
            }
            Violation::MetricIncreased {
                metric,
                task,
                host,
                refining,
                refined,
            } => write!(
                f,
                "{metric} of `{task}` on `{host}` grew from {refined} to {refining}"
            ),
            Violation::LetNotContained { task, read_side } => {
                let side = if *read_side {
                    "reads earlier"
                } else {
                    "writes later"
                };
                write!(f, "task `{task}` {side} than its image")
            }
            Violation::LrcExceeded {
                task,
                comm,
                lrc,
                max,
            } => match max {
                Some(m) => write!(
                    f,
                    "output `{comm}` of `{task}` requires LRC {lrc} > admissible {m}"
                ),
                None => write!(
                    f,
                    "output `{comm}` of `{task}` requires LRC {lrc} but the image's \
                     outputs declare none"
                ),
            },
            Violation::ModelChanged { task } => {
                write!(f, "task `{task}` changed its input failure model")
            }
            Violation::InputSetMismatch {
                task,
                subset_required,
            } => {
                let req = if *subset_required {
                    "a subset"
                } else {
                    "a superset"
                };
                write!(f, "inputs of `{task}` are not {req} of its image's inputs")
            }
        }
    }
}

/// Errors of the refinement checker.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RefineError {
    /// The candidate refinement violates one or more constraints.
    NotARefinement {
        /// All violations found.
        violations: Vec<Violation>,
    },
    /// κ references an unknown task id.
    UnknownTask {
        /// Debug rendering of the id.
        id: String,
    },
}

impl fmt::Display for RefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineError::NotARefinement { violations } => {
                write!(f, "not a refinement: ")?;
                for (i, v) in violations.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
            RefineError::UnknownTask { id } => write!(f, "κ references unknown task {id}"),
        }
    }
}

impl Error for RefineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let vs = vec![
            Violation::KappaNotTotal { task: "t".into() },
            Violation::KappaNotInjective {
                refined: "a".into(),
                first: "x".into(),
                second: "y".into(),
            },
            Violation::HostSetMismatch {
                detail: "h3 missing".into(),
            },
            Violation::MappingMismatch { task: "t".into() },
            Violation::MetricIncreased {
                metric: "WCET",
                task: "t".into(),
                host: "h".into(),
                refining: 5,
                refined: 3,
            },
            Violation::LetNotContained {
                task: "t".into(),
                read_side: true,
            },
            Violation::LetNotContained {
                task: "t".into(),
                read_side: false,
            },
            Violation::LrcExceeded {
                task: "t".into(),
                comm: "c".into(),
                lrc: 0.99,
                max: Some(0.9),
            },
            Violation::LrcExceeded {
                task: "t".into(),
                comm: "c".into(),
                lrc: 0.99,
                max: None,
            },
            Violation::ModelChanged { task: "t".into() },
            Violation::InputSetMismatch {
                task: "t".into(),
                subset_required: true,
            },
        ];
        for v in &vs {
            assert!(!v.to_string().is_empty());
        }
        let e = RefineError::NotARefinement { violations: vs };
        assert!(e.to_string().contains("not a refinement"));
        assert!(!RefineError::UnknownTask { id: "t9".into() }
            .to_string()
            .is_empty());
    }
}
