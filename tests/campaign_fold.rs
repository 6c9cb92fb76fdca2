//! A campaign unit folds its lanes' observation into one sink: the first
//! replication's (see `run_campaign_unit`). These tests check that fold
//! against its definition — the unit's sinks merged in replication order
//! equal, as whole `Registry` values, the sinks of the same replications
//! each run as a one-lane unit (one sink per lane) merged in the same
//! order: counters, gauges, histograms, evictions, the first lane's live
//! ring and the dumps.

use logrel::core::{TimeDependentImplementation, Value};
use logrel::obs::export::to_json_line;
use logrel::obs::{names, FlightRecorder, Registry};
use logrel::serve::pipeline::{campaign_config, replication_context, Symbols};
use logrel::sim::{
    run_campaign_unit, BehaviorMap, Campaign, CampaignError, CampaignUnit, ConstantEnvironment,
    Environment, FaultInjector, LaneMode, ProbabilisticFaults, RepSink, RepStats,
    ReplicationContext, Scenario, Simulation,
};
use proptest::prelude::*;

const SPEC: &str = include_str!("../assets/steer_by_wire.htl");
const EVERY_EVENT: &str = include_str!("assets/scenarios/steer_every_event.scn");
/// The empty scenario: the spec's own transient faults only, which
/// raise no alarm in these runs.
const QUIET: &str = "scn v2\n";
const ROUNDS: u64 = 200;

struct Steer {
    sys: logrel::lang::ElaboratedSystem,
    td: TimeDependentImplementation,
}

impl Steer {
    fn new() -> Self {
        let sys = logrel::lang::compile(SPEC).expect("shipped spec compiles");
        let td = TimeDependentImplementation::from(sys.imp.clone());
        Steer { sys, td }
    }

    /// Runs `unit` under `scenario`, every replication's sink a fresh
    /// registry with a recorder of `capacity` events.
    fn unit(
        &self,
        scenario: &str,
        seed: u64,
        unit: CampaignUnit,
        capacity: usize,
    ) -> Vec<(RepStats, Registry)> {
        self.try_unit(scenario, seed, unit, capacity)
            .expect("the unit runs")
    }

    fn try_unit(
        &self,
        scenario: &str,
        seed: u64,
        unit: CampaignUnit,
        capacity: usize,
    ) -> Result<Vec<(RepStats, Registry)>, CampaignError> {
        let scenario = Scenario::parse_with(scenario, &Symbols(&self.sys)).expect("parses");
        let sim = Simulation::new(&self.sys.spec, &self.sys.arch, &self.td);
        let config = campaign_config(
            unit.first_rep + unit.width as u64,
            ROUNDS,
            seed,
            LaneMode::Auto,
        );
        run_campaign_unit(
            &sim,
            &self.sys.spec,
            &scenario,
            self.sys.arch.host_count(),
            &config,
            |_rep| replication_context(&self.sys.arch),
            |_rep| Registry::fresh(capacity),
            unit,
        )
    }
}

fn merged(mut into: Registry, sinks: impl IntoIterator<Item = Registry>) -> Registry {
    for sink in sinks {
        into.merge(sink);
    }
    into
}

/// Whether the lanes before some lane hold exactly
/// [`FlightRecorder::MAX_DUMPS`] dumps at an instant after which a later
/// lane still dumps: the fold's cap is reached in the middle of the run.
fn cap_reached_mid_run(per_lane: &[Registry]) -> bool {
    let ats = |sink: &Registry| -> Vec<u64> {
        sink.recorder()
            .map_or_else(Vec::new, |r| r.dumps().iter().map(|d| d.at).collect())
    };
    (1..per_lane.len()).any(|k| {
        let mut before: Vec<u64> = per_lane[..k].iter().flat_map(ats).collect();
        before.sort_unstable();
        before
            .get(FlightRecorder::MAX_DUMPS - 1)
            .is_some_and(|&reached| per_lane[k..].iter().flat_map(ats).any(|at| at > reached))
    })
}

/// Runs `unit` folded and lane by lane, checks the fold against the
/// merged one-lane sinks, and returns the one-lane sinks.
fn check_fold(
    steer: &Steer,
    scenario: &str,
    seed: u64,
    unit: CampaignUnit,
    capacity: usize,
) -> Vec<Registry> {
    let folded = steer.unit(scenario, seed, unit, capacity);
    let mut per_lane = Vec::new();
    for rep in unit.first_rep..unit.first_rep + unit.width as u64 {
        let one = CampaignUnit {
            first_rep: rep,
            width: 1,
        };
        let [(stats, sink)]: [_; 1] = steer
            .unit(scenario, seed, one, capacity)
            .try_into()
            .unwrap();
        assert_eq!(stats, folded[per_lane.len()].0, "rep {rep} stats");
        per_lane.push(sink);
    }
    for (rep, (_, sink)) in (unit.first_rep..).zip(&folded).skip(1) {
        assert_eq!(sink, &Registry::fresh(capacity), "rep {rep} left as made");
    }
    for into in [Registry::new(), Registry::with_recorder(256)] {
        let fold = merged(into.clone(), folded.iter().map(|(_, s)| s.clone()));
        let lanes = merged(into, per_lane.iter().cloned());
        assert_eq!(fold, lanes, "{unit:?} under {scenario:?}");
    }
    per_lane
}

/// Every recorder capacity: none, 4 and 256 events.
const CAPACITIES: [usize; 3] = [0, 4, 256];

#[test]
fn folded_units_match_merged_lanes_at_every_width_and_capacity() {
    let steer = Steer::new();
    for width in [1, 3, 64] {
        for capacity in CAPACITIES {
            let unit = CampaignUnit {
                first_rep: 5,
                width,
            };
            let per_lane = check_fold(&steer, EVERY_EVENT, 1, unit, capacity);
            let raised: u64 = per_lane
                .iter()
                .map(|s| s.counter(names::ALARM_RAISED))
                .sum();
            assert!(raised > 0, "the every-event scenario alarms");
            if width == 64 && capacity == 256 {
                assert!(
                    cap_reached_mid_run(&per_lane),
                    "the dump cap is reached mid-run"
                );
            }
            let quiet = check_fold(&steer, QUIET, 1, unit, capacity);
            assert!(quiet.iter().all(|s| s.counter(names::ALARM_RAISED) == 0));
        }
    }
}

/// A unit of width 0 or wider than 64 is diagnosed, not a panic: a
/// service worker handed a malformed unit rejects it and keeps serving.
#[test]
fn bad_unit_widths_are_diagnosed() {
    let steer = Steer::new();
    for width in [0, 65] {
        let unit = CampaignUnit {
            first_rep: 3,
            width,
        };
        assert_eq!(
            steer.try_unit(EVERY_EVENT, 1, unit, 4).err(),
            Some(CampaignError::LaneWidth(width))
        );
    }
}

/// The typed lane contexts the service runs (`replication_context`, by
/// value) and boxed `dyn` contexts are two instantiations of one unit
/// body, and give the same job: equal per-replication stats, report and
/// metrics line on 70 replications, a 64-lane unit and a 6-lane tail.
#[test]
fn typed_and_boxed_contexts_give_the_same_job() {
    let steer = Steer::new();
    let scenario = Scenario::parse_with(EVERY_EVENT, &Symbols(&steer.sys)).expect("parses");
    let sim = Simulation::new(&steer.sys.spec, &steer.sys.arch, &steer.td);
    let config = campaign_config(70, ROUNDS, 7, LaneMode::Auto);
    let hosts = steer.sys.arch.host_count();
    let campaign = Campaign::new(&steer.sys.spec, scenario, config, hosts, 256).expect("plans");
    let widths: Vec<usize> = campaign.units().iter().map(|u| u.width).collect();
    assert_eq!(widths, [64, 6]);
    let boxed = |_rep| -> ReplicationContext<Box<dyn FaultInjector>, Box<dyn Environment>> {
        ReplicationContext {
            behaviors: BehaviorMap::new(),
            environment: Box::new(ConstantEnvironment::new(Value::Float(1.0))),
            injector: Box::new(ProbabilisticFaults::from_architecture(&steer.sys.arch)),
        }
    };
    let typed = |_rep| replication_context(&steer.sys.arch);
    let mut jobs = Vec::new();
    for run_boxed in [false, true] {
        let per_unit: Vec<_> = campaign
            .units()
            .iter()
            .map(|&unit| {
                if run_boxed {
                    campaign.run_unit::<Registry, _, _>(&sim, boxed, unit)
                } else {
                    campaign.run_unit::<Registry, _, _>(&sim, typed, unit)
                }
            })
            .collect();
        let stats: Vec<Vec<RepStats>> = per_unit
            .iter()
            .map(|u| {
                u.as_ref()
                    .expect("the unit runs")
                    .iter()
                    .map(|(s, _)| s.clone())
                    .collect()
            })
            .collect();
        let mut registry = Registry::with_recorder(256);
        let report = campaign
            .finish(&steer.sys.spec, &[], per_unit, &mut registry)
            .expect("the job finishes");
        jobs.push((stats, report, to_json_line(&registry)));
    }
    assert!(jobs[0].2.contains(names::ALARM_RAISED), "the job alarms");
    assert_eq!(jobs[0], jobs[1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fold on random seeds, unit offsets and widths, under either
    /// scenario, with one recorder capacity per unit drawn from 0, 4 and
    /// 256.
    #[test]
    fn folded_units_match_merged_lanes(
        seed in any::<u64>(),
        first_rep in 0u64..1000,
        width in 1usize..=64,
        cap in 0usize..3,
        quiet in any::<bool>(),
    ) {
        let steer = Steer::new();
        let scenario = if quiet { QUIET } else { EVERY_EVENT };
        check_fold(&steer, scenario, seed, CampaignUnit { first_rep, width }, CAPACITIES[cap]);
    }
}
