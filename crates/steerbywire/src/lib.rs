//! Steer-by-wire case study — the paper's other motivating domain
//! ("automotive stability controllers").
//!
//! A hand-wheel angle sensor and a vehicle-speed sensor feed a steering
//! command for the road-wheel actuator; a yaw-damping term stabilises the
//! vehicle at speed. The control path is replicated on two ECUs, matching
//! the deployment pattern of the paper's §4 scenario 1.
//!
//! * [`plant`] — a linear single-track (bicycle) lateral-dynamics model
//!   with a first-order steering actuator, integrated with RK4;
//! * [`control`] — the stateless control laws;
//! * [`htl`] — the program as HTL source text: the specification (10 ms
//!   steering loop inside a 50 ms round), the two-ECU + gateway
//!   architecture and the deployments;
//! * [`system`] — the system compiled from that source by the language
//!   front end, with the ids of its communicators, tasks and hosts;
//! * [`env`](mod@crate::env) — the closed-loop environment: a driver lane-change scenario
//!   driving the sensors, the command actuating the rack;
//! * [`behaviors`] — task behaviours for the runtime simulator.

pub mod behaviors;
pub mod control;
pub mod env;
pub mod htl;
pub mod plant;
pub mod system;

pub use env::SteerEnvironment;
pub use plant::{SingleTrackPlant, VehicleParams, VehicleState};
pub use system::{SteerIds, SteerScenario, SteerSystem};
