//! The steer-by-wire specification, architecture and deployments,
//! compiled from the HTL source of [`steer_source`].
//!
//! Timing (one round π_S = 50 ticks, 1 tick = 1 ms):
//!
//! | task      | reads                               | writes     | LET      | model    |
//! |-----------|-------------------------------------|------------|----------|----------|
//! | `filter`  | `angle[0]` @0                       | `filtered[1]` | [0, 10] | series |
//! | `steer`   | `filtered[1]`, `speed[0]`, `yaw[1]` | `cmd[3]`   | [10, 30] | series   |
//! | `monitor` | `cmd[3]` @30                        | `diag[1]`  | [30, 50] | parallel |

use crate::control::SteerGains;
use crate::htl::steer_source;
use logrel_core::{Architecture, CommunicatorId, HostId, Implementation, Specification, TaskId};
use logrel_lang::LangError;

/// Ids of the steer-by-wire communicators, tasks and hosts.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct SteerIds {
    pub angle: CommunicatorId,
    pub speed: CommunicatorId,
    pub yaw: CommunicatorId,
    pub filtered: CommunicatorId,
    pub cmd: CommunicatorId,
    pub diag: CommunicatorId,
    pub filter: TaskId,
    pub steer: TaskId,
    pub monitor: TaskId,
    pub ecu_a: HostId,
    pub ecu_b: HostId,
    pub gateway: HostId,
}

/// Deployment scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteerScenario {
    /// The whole control path on one ECU (monitor on the gateway).
    SingleEcu,
    /// `filter` and `steer` replicated on both ECUs.
    ReplicatedEcus,
}

/// A complete, validated steer-by-wire system.
#[derive(Debug, Clone)]
pub struct SteerSystem {
    /// The specification.
    pub spec: Specification,
    /// The architecture.
    pub arch: Architecture,
    /// The deployment.
    pub imp: Implementation,
    /// All ids.
    pub ids: SteerIds,
    /// The scenario.
    pub scenario: SteerScenario,
    /// Controller gains used by the behaviours.
    pub gains: SteerGains,
}

impl SteerSystem {
    /// Compiles the scenario's [`steer_source`]: the default
    /// reliabilities (ECUs 0.997, gateway 0.9995) and an optional LRC on
    /// the steering command.
    ///
    /// # Errors
    ///
    /// Returns the front end's [`LangError`] if `lrc_cmd` is not a number
    /// in `(0, 1]`.
    pub fn new(scenario: SteerScenario, lrc_cmd: Option<f64>) -> Result<Self, LangError> {
        let sys = logrel_lang::compile(&steer_source(scenario, lrc_cmd))?;
        let comm = |name| {
            sys.spec
                .find_communicator(name)
                .expect("declared in the source")
        };
        let task = |name| sys.spec.find_task(name).expect("declared in the source");
        let host = |name| sys.arch.find_host(name).expect("declared in the source");
        let ids = SteerIds {
            angle: comm("angle"),
            speed: comm("speed"),
            yaw: comm("yaw"),
            filtered: comm("filtered"),
            cmd: comm("cmd"),
            diag: comm("diag"),
            filter: task("filter"),
            steer: task("steer"),
            monitor: task("monitor"),
            ecu_a: host("ecu_a"),
            ecu_b: host("ecu_b"),
            gateway: host("gateway"),
        };
        Ok(SteerSystem {
            spec: sys.spec,
            arch: sys.arch,
            imp: sys.imp,
            ids,
            scenario,
            gains: SteerGains::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_is_50ms_and_lets_match() {
        let sys = SteerSystem::new(SteerScenario::SingleEcu, None).unwrap();
        assert_eq!(sys.spec.round_period().as_u64(), 50);
        assert_eq!(sys.spec.read_time(sys.ids.filter).as_u64(), 0);
        assert_eq!(sys.spec.write_time(sys.ids.filter).as_u64(), 10);
        assert_eq!(sys.spec.read_time(sys.ids.steer).as_u64(), 10);
        assert_eq!(sys.spec.write_time(sys.ids.steer).as_u64(), 30);
        assert_eq!(sys.spec.read_time(sys.ids.monitor).as_u64(), 30);
        assert_eq!(sys.spec.write_time(sys.ids.monitor).as_u64(), 50);
    }

    #[test]
    fn replication_scenario_doubles_the_control_path() {
        let single = SteerSystem::new(SteerScenario::SingleEcu, None).unwrap();
        let duo = SteerSystem::new(SteerScenario::ReplicatedEcus, None).unwrap();
        assert_eq!(single.imp.hosts_of(single.ids.steer).len(), 1);
        assert_eq!(duo.imp.hosts_of(duo.ids.steer).len(), 2);
        assert_eq!(duo.imp.hosts_of(duo.ids.monitor).len(), 1);
    }

    #[test]
    fn invalid_lrc_is_an_error() {
        for scenario in [SteerScenario::SingleEcu, SteerScenario::ReplicatedEcus] {
            for bad in [f64::NAN, 0.0, 1.5] {
                assert!(SteerSystem::new(scenario, Some(bad)).is_err());
            }
        }
    }

    #[test]
    fn replication_meets_a_strict_command_lrc() {
        // λ(cmd) single: 0.997² · sensors ≈ 0.9925 < 0.998;
        // replicated: (1-0.003²)² · sensors ≈ 0.9984 ≥ 0.998.
        let single = SteerSystem::new(SteerScenario::SingleEcu, Some(0.998)).unwrap();
        let duo = SteerSystem::new(SteerScenario::ReplicatedEcus, Some(0.998)).unwrap();
        let v1 = logrel_reliability::check(&single.spec, &single.arch, &single.imp).unwrap();
        let v2 = logrel_reliability::check(&duo.spec, &duo.arch, &duo.imp).unwrap();
        assert!(!v1.is_reliable());
        assert!(
            v2.is_reliable(),
            "λ(cmd) = {}",
            v2.long_run_srg(duo.ids.cmd)
        );
    }

    #[test]
    fn both_scenarios_are_schedulable_with_30ms_actuation_age() {
        for scenario in [SteerScenario::SingleEcu, SteerScenario::ReplicatedEcus] {
            let sys = SteerSystem::new(scenario, None).unwrap();
            logrel_sched::analyze(&sys.spec, &sys.arch, &sys.imp).unwrap();
            let ages = logrel_sched::data_ages(&sys.spec);
            assert_eq!(ages.age(sys.ids.cmd), Some(30));
        }
    }
}
