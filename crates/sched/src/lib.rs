//! LET schedulability analysis and static schedule generation.
//!
//! §2 of the paper: "The implementation I is schedulable if (all
//! replications of) all tasks complete execution and transmission (of the
//! outputs) between the read and the write time of the respective task."
//!
//! Each task replication `(t, h)` becomes a job on host `h` released at
//! `read_t` with execution budget `wemap(t, h)`; after finishing on the CPU
//! its outputs occupy the shared broadcast bus for `wtmap(t, h)` and the
//! broadcast must complete by `write_t`. This crate checks feasibility
//! constructively:
//!
//! * [`edf`] — per-host preemptive EDF simulation over one round (the
//!   optimal uniprocessor policy, so EDF failing proves infeasibility on
//!   that host);
//! * [`bus`] — non-preemptive earliest-deadline-first dispatch of the
//!   broadcasts on the single shared bus (a sufficient, constructive test);
//! * [`analysis`] — the end-to-end check producing a time-triggered
//!   [`Schedule`] table that the E-machine and the simulator replay.
//!
//! Because every job's release and deadline fall within one round `π_S` and
//! the task set repeats with period `π_S`, a single-round schedule repeats
//! verbatim forever.

pub mod analysis;
pub mod bus;
// The processor-demand criterion is an analytical oracle for the EDF
// simulation, cross-checked by its own unit tests and used by nothing else.
#[cfg(test)]
mod dbf;
pub mod edf;
pub mod error;
pub mod latency;
pub mod schedule;

pub use analysis::{analyze, analyze_time_dependent};
pub use latency::{data_ages, DataAges};
pub use error::SchedError;
pub use schedule::{BusSlot, ExecSlot, Schedule};
