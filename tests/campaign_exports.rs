//! Pins the full metrics export of a monitored steer-by-wire campaign.
//!
//! The campaign runs the seed-1 scenario that uses every `.scn` event
//! kind (`tests/assets/scenarios/steer_every_event.scn`) through the
//! service pipeline with a 256-event flight recorder per replication.
//! It raises and clears dozens of LRC alarms, so the digest covers the
//! alarm counters, the recorded events and the alarm-triggered dumps, at
//! 64 lanes (plus a 6-lane tail), at width 3 and at width 1. The
//! digests were computed before the LRC monitor became a lane-group
//! object, so they also pin that change to the old per-lane monitors.

use std::sync::Arc;

use logrel::core::hash::fnv1a;
use logrel::obs::export::to_json_line;
use logrel::obs::{names, NoopSink, Registry};
use logrel::serve::pipeline::{campaign_config, CompiledSpec, Plan, Symbols};
use logrel::sim::{LaneMode, Scenario};

const SPEC: &str = include_str!("../assets/steer_by_wire.htl");
const SCENARIO: &str = include_str!("assets/scenarios/steer_every_event.scn");
const RECORDER: usize = 256;
const REPLICATIONS: u64 = 70;
const ROUNDS: u64 = 300;
const SEED: u64 = 1;

/// The `logrel-metrics-v1` line of the campaign at lane mode `lanes`.
fn export(lanes: LaneMode) -> String {
    let sys = logrel::lang::compile(SPEC).expect("shipped spec compiles");
    let scenario = Scenario::parse_with(SCENARIO, &Symbols(&sys)).expect("scenario parses");
    let compiled = Arc::new(CompiledSpec::new(sys, &mut NoopSink).expect("spec compiles"));
    let config = campaign_config(REPLICATIONS, ROUNDS, SEED, lanes);
    let plan = Plan::new(compiled, scenario, config, RECORDER).expect("campaign plans");
    let mut registry = Registry::with_recorder(RECORDER);
    plan.run_scoped::<Registry>(&mut registry)
        .expect("campaign runs");
    assert!(
        registry.counter(names::ALARM_RAISED) > 0 && registry.counter(names::ALARM_CLEARED) > 0,
        "the scenario must exercise the monitor"
    );
    to_json_line(&registry)
}

#[test]
fn steer_campaign_exports_are_pinned() {
    for (lanes, pinned) in [
        (LaneMode::Auto, 0xbacb_beae_eda8_040a_u64),
        (LaneMode::Width(3), 0xd47c_7d54_6276_eb95),
        (LaneMode::Off, 0x3204_8243_f68e_0d27),
    ] {
        let digest = fnv1a(export(lanes).as_bytes());
        assert_eq!(digest, pinned, "{lanes:?}: digest {digest:#018x}");
    }
}
