//! The lane-group kernel against its per-call oracle, on the
//! steer-by-wire system under every `.scn` event kind.
//!
//! A group's faults are data — the rates and one scenario timeline — so
//! every draw site is one lockstep loop over the lanes' generators, and
//! there is no second kernel path to compare. The oracle is the reference
//! interpreter over the scenario as a per-call injector
//! (`crates/sim/src/scenario/oracle.rs`, included here by path): every
//! lane of a group run must be the reference run of its seed — trace,
//! counts, final values and the position of its random stream — at
//! widths 1, 7 and 64 and seeds 1 and 7. A group whose lanes carry
//! unequal fault models is rejected.

#[path = "../crates/sim/src/scenario/oracle.rs"]
mod oracle;

use logrel::core::{TimeDependentImplementation, Value};
use logrel::obs::NoopSink;
use logrel::serve::pipeline::Symbols;
use logrel::sim::{
    derive_seed, BehaviorMap, ConstantEnvironment, FaultModel, LaneContext, NoFaults,
    ProbabilisticFaults, Scenario, ScenarioEnvironment, ScenarioFaults, SimConfig, Simulation,
};
use oracle::PerLaneInjector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SPEC: &str = include_str!("../assets/steer_by_wire.htl");
/// Every `.scn` event kind the fuzzer generates, the stuck sensor
/// included.
const EVERY_EVENT: &str = include_str!("assets/scenarios/steer_every_event.scn");
/// The two whole-run kinds: a crash hazard on `ecu_b` and value
/// corruption on `ecu_a`.
const WHOLE_RUN: &str = "hazard host=ecu_b p=0.002\ncorrupt host=ecu_a p=0.05 value=-9\n";
const ROUNDS: u64 = 300;

/// One group run of `width` lanes from `seed` under `scn`, against the
/// reference run of every lane over its own oracle.
fn group_matches_oracle(scn: &str, width: usize, seed: u64) {
    let sys = logrel::lang::compile(SPEC).expect("shipped spec compiles");
    let td = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &td);
    let scenario = Scenario::parse_with(scn, &Symbols(&sys)).expect("parses");
    let (hosts, comms) = (sys.arch.host_count(), sys.spec.communicator_count());
    let base = ProbabilisticFaults::from_architecture(&sys.arch);
    let faults = ScenarioFaults::new(base.clone(), &scenario, hosts, comms).expect("in range");
    let env = || {
        ScenarioEnvironment::new(
            ConstantEnvironment::new(Value::Float(1.0)),
            &scenario,
            comms,
        )
    };
    let seeds: Vec<u64> = (0..width as u64).map(|li| derive_seed(seed, li)).collect();
    let mut lanes: Vec<_> = seeds
        .iter()
        .map(|&seed| LaneContext::plain(seed, faults.clone(), env()))
        .collect();
    let group = sim.run_traced(
        &mut BehaviorMap::new(),
        &mut lanes,
        None,
        &mut NoopSink,
        ROUNDS,
    );
    for (li, (out, &seed)) in group.iter().zip(&seeds).enumerate() {
        let mut oracle = PerLaneInjector::new(base.clone(), &scenario, hosts, comms).unwrap();
        let config = SimConfig {
            rounds: ROUNDS,
            seed,
        };
        let reference =
            sim.run_reference(&mut BehaviorMap::new(), &mut env(), &mut oracle, &config);
        assert_eq!(out, &reference, "lane {li} of {width}, seed {seed}");
        // Where each stream stands: the word after the run's last draw.
        let start = StdRng::seed_from_u64(seed).state();
        let oracle_next = StdRng::from_state(oracle.stream().unwrap_or(start)).next_u64();
        let lane_next = lanes[li].rng().clone().next_u64();
        assert_eq!(lane_next, oracle_next, "lane {li} stream, seed {seed}");
    }
}

#[test]
fn group_runs_match_the_oracle_on_every_event() {
    for scn in [EVERY_EVENT.to_owned(), format!("{EVERY_EVENT}{WHOLE_RUN}")] {
        for width in [1, 7, 64] {
            for seed in [1, 7] {
                group_matches_oracle(&scn, width, seed);
            }
        }
    }
}

/// One fault model per group: lanes under unequal models are rejected
/// before anything runs.
#[test]
fn mixed_fault_models_are_rejected() {
    let sys = logrel::lang::compile(SPEC).expect("shipped spec compiles");
    let td = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &td);
    let models: [Box<dyn FaultModel>; 2] = [
        Box::new(ProbabilisticFaults::from_architecture(&sys.arch)),
        Box::new(NoFaults),
    ];
    let mut lanes: Vec<_> = models
        .into_iter()
        .enumerate()
        .map(|(li, model)| {
            LaneContext::plain(
                li as u64,
                model,
                ConstantEnvironment::new(Value::Float(1.0)),
            )
        })
        .collect();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_bitsliced(&mut BehaviorMap::new(), &mut lanes, ROUNDS)
    }));
    let payload = run
        .err()
        .expect("a group of unequal fault models is rejected");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        message.contains("a lane group runs one fault model, but lane 1's differs"),
        "rejected for another reason: {message}"
    );
}
