//! Reliability analysis for interacting real-time tasks.
//!
//! This crate implements §3 of the DATE'08 paper *Logical Reliability of
//! Interacting Real-Time Tasks*:
//!
//! * [`srg`] — singular reliability guarantees: the per-iteration
//!   probability λ_c that a communicator update is reliable, computed
//!   inductively from host/sensor reliabilities and input failure models;
//! * [`analysis`] — the reliability check of Proposition 1 (λ_c ≥ µ_c for
//!   every communicator implies long-run reliability with probability 1),
//!   including periodic time-dependent implementations;
//! * [`rbd`] — reliability block diagrams, the modelling background the
//!   paper builds on (replications in parallel, blocks in series);
//! * [`longrun`] — limit averages of reliability-abstract traces and
//!   SLLN-style empirical checks with Hoeffding confidence bounds;
//! * [`synthesis`] — replication synthesis: searching for a minimal
//!   replication mapping that satisfies every LRC;
//! * [`interval`] — interval SRG evaluation with outward directed
//!   rounding: sound `[lo, hi]` enclosures and three-valued LRC verdicts;
//! * [`symbolic`] — symbolic SRGs as polynomials over component symbols,
//!   with exact derivatives and pinned Birnbaum importance;
//! * [`certify`](mod@certify) — the static certification report
//!   combining the three: verdicts, slacks, degradation margins and
//!   bottleneck attribution.

pub mod analysis;
pub mod certify;
pub mod error;
pub mod importance;
pub mod interval;
pub mod longrun;
pub mod mission;
pub mod rbd;
pub mod srg;
pub mod symbolic;
pub mod synthesis;

pub use analysis::{check, check_time_dependent, LrcViolation, ReliabilityVerdict};
pub use certify::{certify, Certificate, CommCertificate, ComponentMargin, NEAR_THRESHOLD_SLACK};
pub use error::ReliabilityError;
pub use interval::{
    compute_degraded_srgs, compute_interval_srgs, CertStatus, Interval, IntervalSrgReport,
};
pub use symbolic::{
    compute_symbolic_srgs, pinned_birnbaum, standard_assignment, Poly, Sym, SymbolicSrgReport,
};
pub use importance::{architecture_importance, block_importance, ComponentImportance};
pub use longrun::{
    empirical_check, hoeffding_epsilon, limit_average, running_average, LongRunVerdict,
    SlidingMean,
};
pub use rbd::Block;
pub use srg::{
    communicator_block, compute_srgs, task_reliability, SrgComputation, SrgReport, Srgs,
};
pub use synthesis::{exhaustive_synthesize, synthesize, SynthesisOptions};
