//! The three-tank system (3TS) case study of §4.
//!
//! "The system consists of three tanks tank1, tank2, and tank3, each with
//! an evacuation tap. Tank tank3 is connected to both tank1 and tank2. Two
//! pumps feed water into tank1 and tank2. The controller maintains the
//! level of water in tanks tank1 and tank2 in the presence and absence of
//! perturbations."
//!
//! * [`plant`] — the coupled-tank dynamics (Torricelli flows, RK4
//!   integration), standing in for the physical rig;
//! * [`control`] — the stateless control laws of the six tasks of Fig. 2;
//! * [`htl`] — the program as HTL source text: the Fig. 2 specification
//!   (communicators `s1, s2, r1, r2` at period 500 and `l1, l2, u1, u2`
//!   at period 100), the three-host architecture and the paper's three
//!   mappings (baseline, scenario 1 — controller replication, scenario 2
//!   — sensor replication);
//! * [`system`] — the system compiled from that source by the language
//!   front end, with the ids of its communicators, tasks and hosts;
//! * [`env`](mod@crate::env) — a closed-loop [`Environment`] wiring the plant to the
//!   simulated sensors and pumps;
//! * [`behaviors`] — the task behaviours for the runtime simulator.
//!
//! Numeric note: the OCR of the paper drops the host/sensor reliability
//! and the strict LRC; they are reconstructed as r = 0.999 and µ = 0.998
//! (the only values consistent with the surviving numbers; see
//! EXPERIMENTS.md).
//!
//! [`Environment`]: logrel_sim::Environment

pub mod behaviors;
pub mod control;
pub mod env;
pub mod htl;
pub mod plant;
pub mod system;

pub use env::ThreeTankEnvironment;
pub use plant::{PlantParams, PlantState, ThreeTankPlant};
pub use system::{Scenario, ThreeTankIds, ThreeTankSystem};
