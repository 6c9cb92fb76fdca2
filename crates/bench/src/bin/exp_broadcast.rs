//! Extension experiment — non-perfect atomic broadcast: the paper notes
//! that "less-than-perfect reliable broadcast can be handled readily as
//! long as the broadcast is atomic". We fold a broadcast reliability `brel`
//! into every replication (`hrel · brel`) and sweep it, comparing the
//! analytic SRG of `u1` against fault-injected simulation.
//!
//! Each sweep point runs as a fault-free-scenario campaign
//! (`logrel_sim::Campaign`) of four independently seeded replications
//! whose update counts are pooled, identical at any worker count.
//!
//! Run with: `cargo run -p logrel-bench --bin exp_broadcast`

use logrel_core::{
    Architecture, HostDecl, Reliability, SensorDecl, TimeDependentImplementation, Value,
};
use logrel_obs::{NoopSink, Registry};
use logrel_reliability::compute_srgs;
use logrel_sim::{
    BatchConfig, BehaviorMap, Campaign, CampaignConfig, ConstantEnvironment, ProbabilisticFaults,
    ReplicationContext, Scenario, Simulation,
};
use logrel_threetank::{Scenario as Deployment, ThreeTankSystem};

/// Rebuilds the 3TS architecture with an explicit broadcast reliability.
fn arch_with_broadcast(sys: &ThreeTankSystem, brel: f64) -> Architecture {
    let mut ab = Architecture::builder();
    for h in sys.arch.host_ids() {
        ab.host(HostDecl::new(
            sys.arch.host(h).name(),
            sys.arch.host(h).reliability(),
        ))
        .expect("unique");
    }
    for s in sys.arch.sensor_ids() {
        ab.sensor(SensorDecl::new(
            sys.arch.sensor(s).name(),
            sys.arch.sensor(s).reliability(),
        ))
        .expect("unique");
    }
    for t in sys.spec.task_ids() {
        for h in sys.arch.host_ids() {
            ab.wcet(t, h, sys.arch.wcet(t, h).expect("declared"))
                .expect("valid");
            ab.wctt(t, h, sys.arch.wctt(t, h).expect("declared"))
                .expect("valid");
        }
    }
    ab.broadcast_reliability(Reliability::new(brel).expect("valid"));
    ab.build()
}

fn main() {
    // Scenario 1 at reduced host reliability so effects are visible.
    let sys = ThreeTankSystem::with_options(Deployment::ReplicatedControllers, 0.95, None)
        .expect("valid constants");
    println!(
        "3TS scenario 1 (controllers replicated), host/sensor reliability 0.95,\n\
         sweeping atomic-broadcast reliability\n"
    );
    println!(
        "{:>10} {:>14} {:>14} {:>10}",
        "brel", "analytic λ(u1)", "simulated", "|diff|"
    );
    for brel in [1.0, 0.999, 0.99, 0.95, 0.9] {
        let arch = arch_with_broadcast(&sys, brel);
        let analytic = compute_srgs(&sys.spec, &arch, &sys.imp)
            .expect("memory-free")
            .communicator(sys.ids.u1)
            .get();
        let td = TimeDependentImplementation::from(sys.imp.clone());
        let sim = Simulation::new(&sys.spec, &arch, &td);
        let config = CampaignConfig {
            batch: BatchConfig {
                replications: 4,
                rounds: 7_500,
                base_seed: 9,
                threads: 0,
            },
            ..CampaignConfig::default()
        };
        let report = Campaign::new(&sys.spec, Scenario::new(), config, arch.host_count(), 0)
            .and_then(|campaign| {
                campaign.run::<NoopSink, _, _>(
                    &sim,
                    |_rep| ReplicationContext {
                        behaviors: BehaviorMap::new(),
                        environment: ConstantEnvironment::new(Value::Float(0.3)),
                        injector: ProbabilisticFaults::from_architecture(&arch),
                    },
                    &[],
                    &mut Registry::new(),
                )
            })
            .expect("admissible campaign");
        let mean = report.comms[sys.ids.u1.index()].empirical;
        println!(
            "{:>10} {:>14.6} {:>14.6} {:>10.6}",
            brel,
            analytic,
            mean,
            (mean - analytic).abs()
        );
        assert!(
            (mean - analytic).abs() < 0.012,
            "simulation must track the analysis at brel={brel}"
        );
    }
    println!("\n✓ the broadcast-derated SRGs match fault-injected simulation");
}
