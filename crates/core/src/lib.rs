//! Core model for the DATE'08 paper *Logical Reliability of Interacting
//! Real-Time Tasks*.
//!
//! This crate defines the vocabulary shared by every other `logrel` crate:
//!
//! * [`time`] — integer logical time ([`Tick`]), periods and hyper-periods;
//! * [`prob`] — the [`Reliability`] newtype with the paper's `(0, 1]`
//!   invariant and series/parallel combination;
//! * [`value`] — communicator values including the distinguished
//!   *unreliable* symbol ⊥ ([`Value::Unreliable`]);
//! * [`spec`] — communicator and task declarations, failure models and the
//!   race-free [`Specification`] with its four well-formedness restrictions;
//! * [`graph`] — the specification graph, communicator cycles and the
//!   memory-free check of §3;
//! * [`hash`] — FNV-1a 64, the content hash behind certificate digests,
//!   cache checksums and subspec units;
//! * [`json`] — the one JSON reader, string escaper and number writer
//!   behind every schema the toolchain reads or emits;
//! * [`arch`] — architectures: fail-silent hosts, sensors, WCET/WCTT maps;
//! * [`implmap`] — implementations: replication mappings from tasks to host
//!   sets, sensor bindings, and periodic time-dependent mappings;
//! * [`roundprog`] — the per-round event [`Calendar`] and the compiled
//!   [`RoundProgram`] shared by the simulator and the translation
//!   validator.
//!
//! # Example
//!
//! Build the single-task specification of the paper's Fig. 1 (communicators
//! `c1..c4` with periods 2, 3, 4, 2; task `t` reads the second instances of
//! `c1`, `c2` and updates the third and sixth instances of `c3`, `c4`):
//!
//! ```
//! use logrel_core::prelude::*;
//!
//! # fn main() -> Result<(), logrel_core::CoreError> {
//! let mut b = Specification::builder();
//! let c1 = b.communicator(CommunicatorDecl::new("c1", ValueType::Float, 2)?)?;
//! let c2 = b.communicator(CommunicatorDecl::new("c2", ValueType::Float, 3)?)?;
//! let c3 = b.communicator(CommunicatorDecl::new("c3", ValueType::Float, 4)?)?;
//! let c4 = b.communicator(CommunicatorDecl::new("c4", ValueType::Float, 2)?)?;
//! let t = b.task(
//!     TaskDecl::new("t")
//!         .reads(c1, 1)
//!         .reads(c2, 1)
//!         .writes(c3, 2)
//!         .writes(c4, 5),
//! )?;
//! let spec = b.build()?;
//! assert_eq!(spec.read_time(t), Tick::new(3));
//! assert_eq!(spec.write_time(t), Tick::new(8));
//! assert_eq!(spec.round_period(), Period::new(12)?);
//! # Ok(())
//! # }
//! ```

pub mod arch;
pub mod error;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod implmap;
pub mod json;
pub mod prob;
pub mod roundprog;
pub mod spec;
pub mod time;
pub mod value;

pub use arch::{Architecture, ArchitectureBuilder, HostDecl, SensorDecl};
pub use error::CoreError;
pub use graph::{CommDependencyGraph, CycleReport, SpecGraph, SpecVertex};
pub use hash::{fnv1a, FnvWriter};
pub use ids::{CommunicatorId, HostId, SensorId, TaskId};
pub use implmap::{Implementation, ImplementationBuilder, TimeDependentImplementation};
pub use prob::Reliability;
pub use roundprog::{Calendar, RoundProgram};
pub use spec::{
    CommAccess, CommunicatorDecl, FailureModel, Specification, SpecificationBuilder, TaskDecl,
};
pub use time::{Period, Tick};
pub use value::{Value, ValueType};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::arch::{Architecture, HostDecl, SensorDecl};
    pub use crate::error::CoreError;
    pub use crate::graph::{CommDependencyGraph, SpecGraph};
    pub use crate::ids::{CommunicatorId, HostId, SensorId, TaskId};
    pub use crate::implmap::{Implementation, TimeDependentImplementation};
    pub use crate::prob::Reliability;
    pub use crate::spec::{CommAccess, CommunicatorDecl, FailureModel, Specification, TaskDecl};
    pub use crate::time::{Period, Tick};
    pub use crate::value::{Value, ValueType};
}
