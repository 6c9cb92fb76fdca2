//! The unified error type of the core model.

use std::error::Error;
use std::fmt;

/// Errors raised while constructing or validating the core model.
///
/// Every variant carries the names involved so that diagnostics remain
/// meaningful after ids have been erased.
///
/// # Example
///
/// ```
/// use logrel_core::{CoreError, Reliability};
///
/// let err = Reliability::new(1.5).unwrap_err();
/// assert!(matches!(err, CoreError::InvalidReliability { .. }));
/// assert!(err.to_string().contains("1.5"));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A reliability value was outside the half-open interval `(0, 1]`.
    InvalidReliability {
        /// The offending value.
        value: f64,
    },
    /// A period was zero (periods must be strictly positive).
    ZeroPeriod,
    /// An arithmetic overflow occurred in period/hyper-period computation.
    TimeOverflow {
        /// Human-readable description of the failing operation.
        context: String,
    },
    /// Two declarations share a name that must be unique.
    DuplicateName {
        /// What kind of entity was duplicated ("communicator", "task", ...).
        kind: &'static str,
        /// The duplicated name.
        name: String,
    },
    /// An id referenced an entity that does not exist.
    UnknownId {
        /// What kind of entity was referenced.
        kind: &'static str,
        /// Debug rendering of the id.
        id: String,
    },
    /// Restriction (1) of §2: a task must read and write at least one
    /// communicator.
    TaskWithoutAccess {
        /// The offending task.
        task: String,
        /// `true` if the input list was empty, `false` if the output list.
        missing_inputs: bool,
    },
    /// Restriction (2) of §2: the read time must be strictly earlier than
    /// the write time.
    ReadNotBeforeWrite {
        /// The offending task.
        task: String,
        /// The computed read time (latest read instant).
        read: u64,
        /// The computed write time (earliest write instant).
        write: u64,
    },
    /// Restriction (3) of §2: no two tasks may write to the same
    /// communicator.
    MultipleWriters {
        /// The communicator with more than one writer.
        communicator: String,
        /// The first writer.
        first: String,
        /// The second writer.
        second: String,
    },
    /// Restriction (4) of §2: a task may not write the same communicator
    /// instance more than once.
    DuplicateInstanceWrite {
        /// The offending task.
        task: String,
        /// The communicator written twice.
        communicator: String,
        /// The duplicated instance number.
        instance: u64,
    },
    /// A communicator access named an instance beyond the round period
    /// (instances range over `0 ..= round_period / period`).
    InstanceOutOfRange {
        /// The offending task.
        task: String,
        /// The accessed communicator.
        communicator: String,
        /// The out-of-range instance number.
        instance: u64,
        /// The maximum admissible instance.
        max: u64,
    },
    /// A default value's type did not match its communicator's type, or the
    /// default list length did not match the input list length.
    DefaultMismatch {
        /// The offending task.
        task: String,
        /// Explanation of the mismatch.
        detail: String,
    },
    /// A task writes a communicator that is fed by the environment
    /// (a sensor-updated input communicator must have no task writer).
    WriteToEnvironment {
        /// The offending task.
        task: String,
        /// The environment communicator.
        communicator: String,
    },
    /// The specification is empty (no tasks).
    EmptySpecification,
    /// An implementation mapped a task to an empty host set.
    EmptyHostSet {
        /// The offending task.
        task: String,
    },
    /// A WCET or WCTT entry required by the implementation is missing.
    MissingExecutionMetric {
        /// "WCET" or "WCTT".
        metric: &'static str,
        /// The task whose metric is missing.
        task: String,
        /// The host whose metric is missing.
        host: String,
    },
    /// An environment (sensor-fed) communicator has no sensor binding.
    UnboundEnvironmentCommunicator {
        /// The unbound communicator.
        communicator: String,
    },
    /// A sensor binding targets a communicator that is written by a task.
    BindingOnTaskCommunicator {
        /// The offending communicator.
        communicator: String,
    },
    /// A time-dependent implementation was built with no phases.
    EmptyTimeDependentImplementation,
}

impl CoreError {
    /// The task the error names, if any: the later of the two writers of a
    /// [`CoreError::MultipleWriters`].
    pub fn task(&self) -> Option<&str> {
        match self {
            CoreError::TaskWithoutAccess { task, .. }
            | CoreError::ReadNotBeforeWrite { task, .. }
            | CoreError::DuplicateInstanceWrite { task, .. }
            | CoreError::InstanceOutOfRange { task, .. }
            | CoreError::DefaultMismatch { task, .. }
            | CoreError::WriteToEnvironment { task, .. }
            | CoreError::EmptyHostSet { task }
            | CoreError::MissingExecutionMetric { task, .. }
            | CoreError::MultipleWriters { second: task, .. } => Some(task),
            _ => None,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidReliability { value } => {
                write!(f, "reliability {value} is outside (0, 1]")
            }
            CoreError::ZeroPeriod => write!(f, "period must be strictly positive"),
            CoreError::TimeOverflow { context } => {
                write!(f, "time arithmetic overflow while {context}")
            }
            CoreError::DuplicateName { kind, name } => {
                write!(f, "duplicate {kind} name `{name}`")
            }
            CoreError::UnknownId { kind, id } => write!(f, "unknown {kind} id {id}"),
            CoreError::TaskWithoutAccess {
                task,
                missing_inputs,
            } => {
                let what = if *missing_inputs { "read" } else { "write" };
                write!(f, "task `{task}` does not {what} any communicator")
            }
            CoreError::ReadNotBeforeWrite { task, read, write } => write!(
                f,
                "task `{task}` has read time {read} not strictly before write time {write}"
            ),
            CoreError::MultipleWriters {
                communicator,
                first,
                second,
            } => write!(
                f,
                "communicator `{communicator}` is written by both `{first}` and `{second}`"
            ),
            CoreError::DuplicateInstanceWrite {
                task,
                communicator,
                instance,
            } => write!(
                f,
                "task `{task}` writes instance {instance} of `{communicator}` more than once"
            ),
            CoreError::InstanceOutOfRange {
                task,
                communicator,
                instance,
                max,
            } => write!(
                f,
                "task `{task}` accesses instance {instance} of `{communicator}` \
                 beyond maximum {max}"
            ),
            CoreError::DefaultMismatch { task, detail } => {
                write!(f, "task `{task}` has mismatched defaults: {detail}")
            }
            CoreError::WriteToEnvironment { task, communicator } => write!(
                f,
                "task `{task}` writes environment communicator `{communicator}`"
            ),
            CoreError::EmptySpecification => write!(f, "specification declares no tasks"),
            CoreError::EmptyHostSet { task } => {
                write!(f, "task `{task}` is mapped to an empty host set")
            }
            CoreError::MissingExecutionMetric { metric, task, host } => {
                write!(f, "missing {metric} for task `{task}` on host `{host}`")
            }
            CoreError::UnboundEnvironmentCommunicator { communicator } => write!(
                f,
                "environment communicator `{communicator}` has no sensor binding"
            ),
            CoreError::BindingOnTaskCommunicator { communicator } => write!(
                f,
                "sensor binding targets task-written communicator `{communicator}`"
            ),
            CoreError::EmptyTimeDependentImplementation => {
                write!(f, "time-dependent implementation has no phases")
            }
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_names_the_blamed_task() {
        let writers = CoreError::MultipleWriters {
            communicator: "c".into(),
            first: "a".into(),
            second: "b".into(),
        };
        assert_eq!(writers.task(), Some("b"));
        let defaults = CoreError::DefaultMismatch {
            task: "d".into(),
            detail: "length".into(),
        };
        assert_eq!(defaults.task(), Some("d"));
        assert_eq!(CoreError::ZeroPeriod.task(), None);
    }

    #[test]
    fn display_is_nonempty_for_every_variant() {
        let variants = vec![
            CoreError::InvalidReliability { value: 2.0 },
            CoreError::ZeroPeriod,
            CoreError::TimeOverflow {
                context: "lcm".into(),
            },
            CoreError::DuplicateName {
                kind: "task",
                name: "t".into(),
            },
            CoreError::UnknownId {
                kind: "host",
                id: "h9".into(),
            },
            CoreError::TaskWithoutAccess {
                task: "t".into(),
                missing_inputs: true,
            },
            CoreError::ReadNotBeforeWrite {
                task: "t".into(),
                read: 5,
                write: 5,
            },
            CoreError::MultipleWriters {
                communicator: "c".into(),
                first: "a".into(),
                second: "b".into(),
            },
            CoreError::DuplicateInstanceWrite {
                task: "t".into(),
                communicator: "c".into(),
                instance: 1,
            },
            CoreError::InstanceOutOfRange {
                task: "t".into(),
                communicator: "c".into(),
                instance: 9,
                max: 4,
            },
            CoreError::DefaultMismatch {
                task: "t".into(),
                detail: "length".into(),
            },
            CoreError::WriteToEnvironment {
                task: "t".into(),
                communicator: "s".into(),
            },
            CoreError::EmptySpecification,
            CoreError::EmptyHostSet { task: "t".into() },
            CoreError::MissingExecutionMetric {
                metric: "WCET",
                task: "t".into(),
                host: "h".into(),
            },
            CoreError::UnboundEnvironmentCommunicator {
                communicator: "s".into(),
            },
            CoreError::BindingOnTaskCommunicator {
                communicator: "c".into(),
            },
            CoreError::EmptyTimeDependentImplementation,
        ];
        for v in variants {
            assert!(!v.to_string().is_empty(), "{v:?}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<CoreError>();
    }
}
