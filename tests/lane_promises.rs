//! The lane-group kernel's two promise paths against its per-lane path.
//!
//! When every lane's injector promises fixed Bernoulli draws
//! (`FaultInjector::bernoulli_rates`) the kernel draws each site for all
//! lanes in one loop, and when every lane's environment promises a
//! constant reading (`Environment::constant_reading`) a sensor update is
//! one value class. Both must change nothing but speed: these tests run
//! the same steer-by-wire units through wrappers that forward every hook
//! but keep the default, unpromised answers, and require equal per-
//! replication statistics, reports and exported metrics lines.

use logrel::core::Value;
use logrel::core::{CommunicatorId, HostId, SensorId, TaskId, Tick, TimeDependentImplementation};
use logrel::obs::export::to_json_line;
use logrel::obs::Registry;
use logrel::serve::pipeline::{campaign_config, replication_context, Symbols};
use logrel::sim::{
    aggregate_campaign, run_campaign_unit, CampaignUnit, ConstantEnvironment, Environment,
    FaultInjector, LaneMode, ProbabilisticFaults, ReplicationContext, Scenario, ScenarioReport,
    Simulation,
};
use rand::rngs::StdRng;

const SPEC: &str = include_str!("../assets/steer_by_wire.htl");
/// Every `.scn` event kind, the stuck sensor included.
const EVERY_EVENT: &str = include_str!("assets/scenarios/steer_every_event.scn");
const ROUNDS: u64 = 300;

/// Forwards every hook of the wrapped injector or environment but the
/// promises, which keep their defaults: no Bernoulli rates, no constant
/// reading.
struct Unpromised<T>(T);

impl<I: FaultInjector> FaultInjector for Unpromised<I> {
    fn host_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
        self.0.host_ok(host, now, rng)
    }
    fn sensor_ok(&mut self, sensor: SensorId, now: Tick, rng: &mut StdRng) -> bool {
        self.0.sensor_ok(sensor, now, rng)
    }
    fn broadcast_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
        self.0.broadcast_ok(host, now, rng)
    }
    fn corrupt(&mut self, host: HostId, now: Tick, outputs: &mut [Value], rng: &mut StdRng) {
        self.0.corrupt(host, now, outputs, rng);
    }
    fn rejoined_at(&self, host: HostId, now: Tick) -> Option<Tick> {
        self.0.rejoined_at(host, now)
    }
    fn corrupts(&self) -> bool {
        self.0.corrupts()
    }
    fn delivers(&self, sender: HostId, receiver: HostId, now: Tick) -> bool {
        self.0.delivers(sender, receiver, now)
    }
    fn partitions(&self) -> bool {
        self.0.partitions()
    }
    fn observe_vote(&mut self, task: TaskId, now: Tick, delivered: &[HostId], total: usize) {
        self.0.observe_vote(task, now, delivered, total);
    }
    fn adaptive(&self) -> bool {
        self.0.adaptive()
    }
}

impl<E: Environment> Environment for Unpromised<E> {
    fn advance(&mut self, now: Tick) {
        self.0.advance(now);
    }
    fn sense(&mut self, comm: CommunicatorId, now: Tick) -> Value {
        self.0.sense(comm, now)
    }
    fn actuate(&mut self, comm: CommunicatorId, value: Value, now: Tick) {
        self.0.actuate(comm, value, now);
    }
    fn is_passive(&self) -> bool {
        self.0.is_passive()
    }
}

/// What one unit produced: per-replication statistics (as their debug
/// rendering, since they are opaque), the report over them, and the
/// metrics line of their sinks merged in replication order.
#[derive(Debug, PartialEq)]
struct UnitOutcome {
    stats: Vec<String>,
    report: ScenarioReport,
    line: String,
}

fn run_unit<I: FaultInjector, E: Environment>(
    width: usize,
    seed: u64,
    setup: impl Fn() -> ReplicationContext<I, E>,
) -> UnitOutcome {
    let sys = logrel::lang::compile(SPEC).expect("shipped spec compiles");
    let td = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &td);
    let scenario = Scenario::parse_with(EVERY_EVENT, &Symbols(&sys)).expect("parses");
    let config = campaign_config(width as u64, ROUNDS, seed, LaneMode::Width(width as u8));
    let hosts = sys.arch.host_count();
    let unit = CampaignUnit {
        first_rep: 0,
        width,
    };
    let per_rep = run_campaign_unit(
        &sim,
        &sys.spec,
        &scenario,
        hosts,
        &config,
        |_rep| setup(),
        |_rep| Registry::with_recorder(256),
        unit,
    )
    .expect("the unit runs");
    let stats = per_rep.iter().map(|(s, _)| format!("{s:?}")).collect();
    let (report, sinks) = aggregate_campaign(&sys.spec, &scenario, hosts, &config, &[], per_rep);
    let mut registry = Registry::with_recorder(256);
    for sink in sinks {
        registry.merge(sink);
    }
    UnitOutcome {
        stats,
        report,
        line: to_json_line(&registry),
    }
}

/// One steer-by-wire unit under every event kind, at widths 1, 7 and
/// 64: the production context (both promises made) against the same
/// context behind [`Unpromised`] wrappers (the per-lane path).
#[test]
fn promised_draws_and_readings_match_the_per_lane_path() {
    let sys = logrel::lang::compile(SPEC).expect("shipped spec compiles");
    let base = replication_context(&sys.arch);
    assert!(base.injector.bernoulli_rates().is_some());
    assert!(base
        .environment
        .constant_reading(CommunicatorId::new(0))
        .is_some());
    assert!(Unpromised(base.injector.clone())
        .bernoulli_rates()
        .is_none());
    assert!(Unpromised(ConstantEnvironment::new(Value::Float(1.0)))
        .constant_reading(CommunicatorId::new(0))
        .is_none());
    for width in [1, 7, 64] {
        for seed in [1, 7] {
            let promised = run_unit(width, seed, || replication_context(&sys.arch));
            let per_lane = run_unit(width, seed, || {
                let base = replication_context(&sys.arch);
                ReplicationContext {
                    behaviors: base.behaviors,
                    environment: Unpromised(base.environment),
                    injector: Unpromised(base.injector),
                }
            });
            assert!(
                promised.report.comms.iter().any(|c| c.alarms_raised > 0),
                "width {width} seed {seed}: the unit must exercise the monitor"
            );
            assert_eq!(promised, per_lane, "width {width} seed {seed}");
        }
    }
}

/// A promise only one lane makes, or lanes making different promises,
/// leave the run on the per-lane path with the same outcome: here the
/// odd lanes keep their promises and the even ones do not.
#[test]
fn mixed_promises_fall_back_to_the_per_lane_path() {
    type Either<T> = Result<T, Unpromised<T>>;
    /// A context whose hooks are one of the two forms, chosen per lane.
    struct Mixed<T>(Either<T>);
    impl<I: FaultInjector> FaultInjector for Mixed<I> {
        fn host_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
            match &mut self.0 {
                Ok(i) => i.host_ok(host, now, rng),
                Err(i) => i.host_ok(host, now, rng),
            }
        }
        fn sensor_ok(&mut self, sensor: SensorId, now: Tick, rng: &mut StdRng) -> bool {
            match &mut self.0 {
                Ok(i) => i.sensor_ok(sensor, now, rng),
                Err(i) => i.sensor_ok(sensor, now, rng),
            }
        }
        fn broadcast_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
            match &mut self.0 {
                Ok(i) => i.broadcast_ok(host, now, rng),
                Err(i) => i.broadcast_ok(host, now, rng),
            }
        }
        fn corrupts(&self) -> bool {
            false
        }
        fn bernoulli_rates(&self) -> Option<logrel::sim::BernoulliRates<'_>> {
            match &self.0 {
                Ok(i) => i.bernoulli_rates(),
                Err(i) => i.bernoulli_rates(),
            }
        }
    }
    let sys = logrel::lang::compile(SPEC).expect("shipped spec compiles");
    let lane = std::cell::Cell::new(0u64);
    let mixed = run_unit(7, 3, || {
        let base = replication_context(&sys.arch);
        let odd = lane.get() % 2 == 1;
        lane.set(lane.get() + 1);
        let injector: Mixed<ProbabilisticFaults> = Mixed(if odd {
            Ok(base.injector)
        } else {
            Err(Unpromised(base.injector))
        });
        ReplicationContext {
            behaviors: base.behaviors,
            environment: base.environment,
            injector,
        }
    });
    let promised = run_unit(7, 3, || replication_context(&sys.arch));
    assert_eq!(mixed, promised);
}
