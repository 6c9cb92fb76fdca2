//! The Fig. 2 specification, architecture and the paper's three mappings,
//! compiled from the HTL source of [`three_tank_source`].
//!
//! Timing (one round π_S = 500 ticks, 1 tick = 1 ms):
//!
//! | task        | reads                | writes     | LET        | model    |
//! |-------------|----------------------|------------|------------|----------|
//! | `read1/2`   | `s1/2[0]` @0         | `l1/2[1]`  | [0, 100]   | parallel |
//! | `t1/2`      | `l1/2[1]` @100       | `u1/2[3]`  | [100, 300] | series   |
//! | `estimate1/2` | `l[1]`@100, `u[3]`@300 | `r1/2[1]` | [300, 500] | series |
//!
//! which matches the paper's reported SRGs: `λ_l = λ_read · λ_s` and
//! `λ_u = λ_t · λ_l`.

use crate::control::ControlGains;
use crate::htl::three_tank_source;
use logrel_core::{Architecture, CommunicatorId, HostId, Implementation, Specification, TaskId};
use logrel_lang::LangError;

/// Ids of every communicator, task and host of the 3TS program.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct ThreeTankIds {
    pub s1: CommunicatorId,
    pub s2: CommunicatorId,
    pub l1: CommunicatorId,
    pub l2: CommunicatorId,
    pub u1: CommunicatorId,
    pub u2: CommunicatorId,
    pub r1: CommunicatorId,
    pub r2: CommunicatorId,
    pub read1: TaskId,
    pub read2: TaskId,
    pub t1: TaskId,
    pub t2: TaskId,
    pub estimate1: TaskId,
    pub estimate2: TaskId,
    pub h1: HostId,
    pub h2: HostId,
    pub h3: HostId,
}

/// The three deployment scenarios of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// t1 → h1, t2 → h2, the rest → h3; one sensor per tank.
    Baseline,
    /// Scenario 1: t1 and t2 replicated on {h1, h2}.
    ReplicatedControllers,
    /// Scenario 2: two sensors per tank (read tasks are model-2).
    ReplicatedSensors,
}

/// A complete, validated 3TS system.
#[derive(Debug, Clone)]
pub struct ThreeTankSystem {
    /// The Fig. 2 specification.
    pub spec: Specification,
    /// The three-host architecture.
    pub arch: Architecture,
    /// The scenario's replication mapping.
    pub imp: Implementation,
    /// All ids.
    pub ids: ThreeTankIds,
    /// The scenario this system realises.
    pub scenario: Scenario,
    /// Control gains used by the behaviours.
    pub gains: ControlGains,
}

impl ThreeTankSystem {
    /// Builds a scenario with the reconstructed paper constants: host and
    /// sensor reliability 0.999 and no LRCs declared.
    ///
    /// # Panics
    ///
    /// Never panics for the fixed constants used here.
    pub fn new(scenario: Scenario) -> Self {
        Self::with_options(scenario, 0.999, None).expect("fixed constants are valid")
    }

    /// Compiles the scenario's [`three_tank_source`] with explicit
    /// host/sensor reliability and an optional LRC on `u1`/`u2`.
    ///
    /// # Errors
    ///
    /// Returns the front end's [`LangError`] if `host_reliability` or
    /// `lrc_u` is not a number in `(0, 1]`.
    pub fn with_options(
        scenario: Scenario,
        host_reliability: f64,
        lrc_u: Option<f64>,
    ) -> Result<Self, LangError> {
        let sys = logrel_lang::compile(&three_tank_source(scenario, host_reliability, lrc_u))?;
        let comm = |name| {
            sys.spec
                .find_communicator(name)
                .expect("declared in the source")
        };
        let task = |name| sys.spec.find_task(name).expect("declared in the source");
        let host = |name| sys.arch.find_host(name).expect("declared in the source");
        let ids = ThreeTankIds {
            s1: comm("s1"),
            s2: comm("s2"),
            l1: comm("l1"),
            l2: comm("l2"),
            u1: comm("u1"),
            u2: comm("u2"),
            r1: comm("r1"),
            r2: comm("r2"),
            read1: task("read1"),
            read2: task("read2"),
            t1: task("t1"),
            t2: task("t2"),
            estimate1: task("estimate1"),
            estimate2: task("estimate2"),
            h1: host("h1"),
            h2: host("h2"),
            h3: host("h3"),
        };
        Ok(ThreeTankSystem {
            spec: sys.spec,
            arch: sys.arch,
            imp: sys.imp,
            ids,
            scenario,
            gains: ControlGains::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::FailureModel;

    #[test]
    fn round_period_is_500() {
        let sys = ThreeTankSystem::new(Scenario::Baseline);
        assert_eq!(sys.spec.round_period().as_u64(), 500);
    }

    #[test]
    fn lets_match_the_figure() {
        let sys = ThreeTankSystem::new(Scenario::Baseline);
        assert_eq!(sys.spec.read_time(sys.ids.read1).as_u64(), 0);
        assert_eq!(sys.spec.write_time(sys.ids.read1).as_u64(), 100);
        assert_eq!(sys.spec.read_time(sys.ids.t1).as_u64(), 100);
        assert_eq!(sys.spec.write_time(sys.ids.t1).as_u64(), 300);
        assert_eq!(sys.spec.read_time(sys.ids.estimate1).as_u64(), 300);
        assert_eq!(sys.spec.write_time(sys.ids.estimate1).as_u64(), 500);
    }

    #[test]
    fn baseline_mapping_matches_the_paper() {
        let sys = ThreeTankSystem::new(Scenario::Baseline);
        assert_eq!(
            sys.imp
                .hosts_of(sys.ids.t1)
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![sys.ids.h1]
        );
        assert_eq!(
            sys.imp
                .hosts_of(sys.ids.t2)
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![sys.ids.h2]
        );
        for t in [
            sys.ids.read1,
            sys.ids.read2,
            sys.ids.estimate1,
            sys.ids.estimate2,
        ] {
            assert_eq!(
                sys.imp.hosts_of(t).iter().copied().collect::<Vec<_>>(),
                vec![sys.ids.h3]
            );
        }
        assert_eq!(sys.imp.sensors_of(sys.ids.s1).len(), 1);
    }

    #[test]
    fn scenario1_replicates_controllers() {
        let sys = ThreeTankSystem::new(Scenario::ReplicatedControllers);
        assert_eq!(sys.imp.hosts_of(sys.ids.t1).len(), 2);
        assert_eq!(sys.imp.hosts_of(sys.ids.t2).len(), 2);
        assert_eq!(sys.imp.sensors_of(sys.ids.s1).len(), 1);
    }

    #[test]
    fn scenario2_replicates_sensors() {
        let sys = ThreeTankSystem::new(Scenario::ReplicatedSensors);
        assert_eq!(sys.imp.hosts_of(sys.ids.t1).len(), 1);
        assert_eq!(sys.imp.sensors_of(sys.ids.s1).len(), 2);
        assert_eq!(sys.imp.sensors_of(sys.ids.s2).len(), 2);
    }

    #[test]
    fn the_spec_is_memory_free() {
        let sys = ThreeTankSystem::new(Scenario::Baseline);
        let g = logrel_core::graph::SpecGraph::new(&sys.spec);
        assert!(g.communicator_cycles().is_memory_free());
    }

    #[test]
    fn lrc_option_is_applied() {
        let sys = ThreeTankSystem::with_options(Scenario::Baseline, 0.999, Some(0.99)).unwrap();
        assert_eq!(sys.spec.communicator(sys.ids.u1).lrc().unwrap().get(), 0.99);
        assert!(sys.spec.communicator(sys.ids.l1).lrc().is_none());
    }

    #[test]
    fn invalid_reliability_or_lrc_is_an_error() {
        for scenario in [
            Scenario::Baseline,
            Scenario::ReplicatedControllers,
            Scenario::ReplicatedSensors,
        ] {
            for bad in [f64::NAN, 0.0, 1.5] {
                assert!(ThreeTankSystem::with_options(scenario, bad, None).is_err());
                assert!(ThreeTankSystem::with_options(scenario, 0.999, Some(bad)).is_err());
            }
        }
    }

    #[test]
    fn failure_models_match_the_paper() {
        let sys = ThreeTankSystem::new(Scenario::Baseline);
        assert_eq!(
            sys.spec.task(sys.ids.read1).failure_model(),
            FailureModel::Parallel
        );
        assert_eq!(
            sys.spec.task(sys.ids.t1).failure_model(),
            FailureModel::Series
        );
        assert_eq!(
            sys.spec.task(sys.ids.estimate1).failure_model(),
            FailureModel::Series
        );
    }
}
