//! Extension experiment — crash (permanent) faults: beyond the paper's
//! transient model, hosts may fail and stay silent. Long-run averages are
//! then degenerate (eventually every replica is dead); the meaningful
//! quantity is mission-horizon delivery. This experiment compares the
//! closed-form mission analysis of `logrel-reliability::mission` against
//! the crash-fault simulator for replication degrees 1–3.
//!
//! The trials run as one campaign (`logrel_sim::Campaign`) whose scenario
//! is one `hazard` event per host over no transient faults: per-trial
//! seeds are derived from the base seed, so the reported numbers are
//! independent of the worker count.
//! The simulated fraction counts every update of `u`, the initial one at
//! t = 0 included.
//!
//! Run with: `cargo run -p logrel-bench --bin exp_crash`

use logrel_core::prelude::*;
use logrel_obs::{NoopSink, Registry};
use logrel_reliability::mission::{expected_delivered_fraction, replication_for_mission};
use logrel_sim::{
    BatchConfig, BehaviorMap, Campaign, CampaignConfig, ConstantEnvironment, NoFaults,
    ReplicationContext, Scenario, ScenarioEvent, Simulation,
};

const HAZARD: f64 = 0.002; // per-round crash probability per host
const HORIZON: u64 = 1000; // mission length in rounds
const TRIALS: u64 = 200;

/// Builds a single-task system replicated on `k` hosts.
fn build(k: usize) -> (Specification, Architecture, TimeDependentImplementation) {
    let mut sb = Specification::builder();
    let s = sb
        .communicator(
            CommunicatorDecl::new("s", ValueType::Float, 10)
                .expect("valid")
                .from_sensor(),
        )
        .expect("unique");
    let u = sb
        .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).expect("valid"))
        .expect("unique");
    let t = sb
        .task(TaskDecl::new("ctrl").reads(s, 0).writes(u, 1))
        .expect("valid");
    let spec = sb.build().expect("well-formed");
    let mut ab = Architecture::builder();
    let hosts: Vec<HostId> = (0..k)
        .map(|i| {
            ab.host(HostDecl::new(
                format!("h{i}"),
                // The declared (transient) reliability is irrelevant here;
                // crash hazards are injected separately.
                Reliability::new(1.0 - HAZARD).expect("valid"),
            ))
            .expect("unique")
        })
        .collect();
    let sen = ab
        .sensor(SensorDecl::new("sen", Reliability::ONE))
        .expect("unique");
    ab.wcet_all(t, 1).expect("hosts");
    ab.wctt_all(t, 1).expect("hosts");
    let arch = ab.build();
    let imp = Implementation::builder()
        .assign(t, hosts)
        .bind_sensor(s, sen)
        .build(&spec, &arch)
        .expect("valid");
    (spec, arch, imp.into())
}

fn main() {
    println!(
        "crash faults: per-round hazard {HAZARD}, mission {HORIZON} rounds, {TRIALS} trials\n"
    );
    println!(
        "{:>9} {:>18} {:>18} {:>10}",
        "replicas", "analytic fraction", "simulated", "|diff|"
    );
    for k in 1..=3usize {
        let (spec, arch, imp) = build(k);
        let u = spec.find_communicator("u").expect("declared");
        let analytic = expected_delivered_fraction(k, HAZARD, HORIZON);
        let sim = Simulation::new(&spec, &arch, &imp);
        let config = CampaignConfig {
            batch: BatchConfig {
                replications: TRIALS,
                rounds: HORIZON,
                base_seed: 1000,
                threads: 0,
            },
            ..CampaignConfig::default()
        };
        let hazards = arch
            .host_ids()
            .map(|host| ScenarioEvent::Hazard { host, p: HAZARD })
            .collect();
        let scenario = Scenario::from_events(hazards).expect("valid hazards");
        let report = Campaign::new(&spec, scenario, config, arch.host_count(), 0)
            .and_then(|campaign| {
                campaign.run::<NoopSink, _, _>(
                    &sim,
                    |_trial| ReplicationContext {
                        behaviors: BehaviorMap::new(),
                        environment: ConstantEnvironment::new(Value::Float(1.0)),
                        injector: NoFaults,
                    },
                    &[],
                    &mut Registry::new(),
                )
            })
            .expect("admissible campaign");
        let simulated = report.comms[u.index()].empirical;
        println!(
            "{:>9} {:>18.5} {:>18.5} {:>10.5}",
            k,
            analytic,
            simulated,
            (analytic - simulated).abs()
        );
        assert!(
            (analytic - simulated).abs() < 0.02,
            "mission analysis must track the crash simulator (k = {k})"
        );
    }

    let needed = replication_for_mission(HAZARD, HORIZON, 0.95, 8);
    println!(
        "\nreplication degree needed for 95% expected delivery over the mission: {}",
        needed.map_or("unachievable (≤8)".to_owned(), |k| k.to_string())
    );
    println!("\n✓ closed-form mission reliability matches the crash-fault simulation");
}
