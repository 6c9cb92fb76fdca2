//! Reliability analysis for interacting real-time tasks.
//!
//! This crate implements §3 of the DATE'08 paper *Logical Reliability of
//! Interacting Real-Time Tasks*:
//!
//! * [`srg`] — singular reliability guarantees: the per-iteration
//!   probability λ_c that a communicator update is reliable, computed
//!   inductively from host/sensor reliabilities and input failure models.
//!   The induction is compiled once per specification and implementation
//!   and every other view below is a run of it in its own carrier;
//! * [`analysis`] — the reliability check of Proposition 1 (λ_c ≥ µ_c for
//!   every communicator implies long-run reliability with probability 1),
//!   including periodic time-dependent implementations;
//! * [`longrun`] — limit averages of reliability-abstract traces and
//!   SLLN-style empirical checks with Hoeffding confidence bounds;
//! * [`synthesis`] — replication synthesis: searching for a minimal
//!   replication mapping that satisfies every LRC;
//! * [`interval`] — interval SRG evaluation with outward directed
//!   rounding: sound `[lo, hi]` enclosures and three-valued LRC verdicts;
//! * [`symbolic`] — symbolic SRGs as polynomials over component symbols;
//! * [`importance`] — Birnbaum importance and improvement potential of
//!   each host replica and sensor, by pinned runs of the induction;
//! * [`certify`](mod@certify) — the static certification report
//!   combining them: verdicts, slacks, degradation margins and
//!   bottleneck attribution.
//!
//! The reliability block diagram the paper situates its analysis next to
//! is kept as the test oracle of the induction (`src/oracle.rs`, built
//! only for tests): an independent recursion over the specification whose
//! evaluation and pinned importances the tests compare with the plan's.

// The test oracle (`oracle.rs`) names this crate by its name, so that
// integration tests can include the same file.
#[cfg(test)]
extern crate self as logrel_reliability;

pub mod analysis;
pub mod certify;
pub mod error;
pub mod importance;
pub mod interval;
pub mod longrun;
pub mod mission;
#[cfg(test)]
mod oracle;
#[cfg(test)]
mod oracle_tests;
pub mod srg;
pub mod symbolic;
pub mod synthesis;

pub use analysis::{check, check_time_dependent, LrcViolation, ReliabilityVerdict};
pub use certify::{certify, Certificate, CommCertificate, ComponentMargin, NEAR_THRESHOLD_SLACK};
pub use error::ReliabilityError;
pub use importance::{architecture_importance, ComponentImportance};
pub use interval::{
    compute_degraded_srgs, compute_interval_srgs, CertStatus, Interval, IntervalSrgReport,
};
pub use longrun::{
    empirical_check, hoeffding_epsilon, limit_average, running_average, LongRunVerdict, SlidingMean,
};
pub use srg::{compute_srgs, task_reliability, SrgComputation, SrgReport, Srgs};
pub use symbolic::{
    compute_symbolic_srgs, pinned_birnbaum, standard_assignment, Poly, Sym, SymbolicSrgReport,
};
pub use synthesis::{exhaustive_synthesize, synthesize, SynthesisOptions};
