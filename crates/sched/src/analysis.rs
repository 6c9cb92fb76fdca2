//! The end-to-end schedulability analysis.
//!
//! For each replication `(t, h)` of implementation `I`:
//!
//! 1. a CPU job released at `read_t` with budget `wemap(t, h)` must finish
//!    by `write_t − wtmap(t, h)` on host `h` (preemptive EDF, exact);
//! 2. a bus job ready at the replication's CPU completion with duration
//!    `wtmap(t, h)` must finish by `write_t` (non-preemptive EDF,
//!    sufficient).
//!
//! On success the resulting [`Schedule`] is a witness that can be replayed
//! by the E-machine and the simulator; on failure every missed deadline is
//! reported.

use crate::bus::{self, BusJob};
use crate::edf::{self, CpuJob};
use crate::error::{MissedDeadline, SchedError};
use crate::schedule::Schedule;
use logrel_core::{Architecture, CoreError, Implementation, Specification, Tick};
use std::collections::BTreeMap;

/// Checks schedulability of `imp` and produces the static schedule.
///
/// # Errors
///
/// * [`SchedError::Core`] if a mapped replication lacks a WCET/WCTT
///   declaration (an unvalidated implementation);
/// * [`SchedError::NotSchedulable`] with full diagnostics when any CPU or
///   bus deadline is missed.
///
/// # Example
///
/// ```
/// use logrel_core::prelude::*;
/// use logrel_sched::analyze;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sb = Specification::builder();
/// let s = sb.communicator(
///     CommunicatorDecl::new("s", ValueType::Float, 10)?.from_sensor(),
/// )?;
/// let u = sb.communicator(CommunicatorDecl::new("u", ValueType::Float, 10)?)?;
/// let t = sb.task(TaskDecl::new("ctrl").reads(s, 0).writes(u, 1))?;
/// let spec = sb.build()?;
///
/// let mut ab = Architecture::builder();
/// let h = ab.host(HostDecl::new("h", Reliability::new(0.99)?))?;
/// let sen = ab.sensor(SensorDecl::new("sen", Reliability::ONE))?;
/// ab.wcet(t, h, 6)?;
/// ab.wctt(t, h, 2)?;
/// let arch = ab.build();
/// let imp = Implementation::builder()
///     .assign(t, [h])
///     .bind_sensor(s, sen)
///     .build(&spec, &arch)?;
///
/// let schedule = analyze(&spec, &arch, &imp)?;
/// assert_eq!(schedule.completion(t, h).unwrap().as_u64(), 6);
/// # Ok(())
/// # }
/// ```
pub fn analyze(
    spec: &Specification,
    arch: &Architecture,
    imp: &Implementation,
) -> Result<Schedule, SchedError> {
    // Group CPU jobs by host.
    let mut cpu_jobs: BTreeMap<_, Vec<CpuJob>> = BTreeMap::new();
    for (t, h) in imp.replications() {
        let wcet = arch
            .wcet(t, h)
            .ok_or_else(|| missing_metric("WCET", spec, arch, t, h))?;
        let wctt = arch
            .wctt(t, h)
            .ok_or_else(|| missing_metric("WCTT", spec, arch, t, h))?;
        let write = spec.write_time(t);
        cpu_jobs.entry(h).or_default().push(CpuJob {
            task: t,
            host: h,
            release: spec.read_time(t),
            exec: wcet,
            deadline: write.saturating_sub(wctt),
        });
    }

    let mut misses: Vec<MissedDeadline> = Vec::new();
    let mut host_slots = BTreeMap::new();
    let mut completions: BTreeMap<_, Tick> = BTreeMap::new();
    let task_name = |t| spec.task(t).name().to_owned();
    let host_name = |h| arch.host(h).name().to_owned();

    for (&h, jobs) in &cpu_jobs {
        let outcome = edf::simulate_edf(jobs);
        misses.extend(edf::miss_diagnostics(jobs, &outcome, task_name, host_name));
        for (job, &completion) in jobs.iter().zip(&outcome.completions) {
            completions.insert((job.task, job.host), completion);
        }
        host_slots.insert(h, outcome.slots);
    }

    // Bus jobs become ready at CPU completion.
    let bus_jobs: Vec<BusJob> = imp
        .replications()
        .map(|(t, h)| BusJob {
            task: t,
            host: h,
            ready: completions[&(t, h)],
            duration: arch.wctt(t, h).expect("checked above"),
            deadline: spec.write_time(t),
        })
        .collect();
    let bus_outcome = bus::schedule_bus(&bus_jobs);
    misses.extend(bus::miss_diagnostics(
        &bus_jobs,
        &bus_outcome,
        task_name,
        host_name,
    ));

    if !misses.is_empty() {
        return Err(SchedError::NotSchedulable { misses });
    }
    Ok(Schedule::new(
        spec.round_period(),
        host_slots,
        bus_outcome.slots,
        completions,
    ))
}

/// Checks schedulability of every phase of a periodic time-dependent
/// implementation (each round uses one phase's mapping, so per-phase
/// feasibility suffices). Returns one schedule per phase.
///
/// # Errors
///
/// Same as [`analyze`], raised for the first infeasible phase.
pub fn analyze_time_dependent(
    spec: &Specification,
    arch: &Architecture,
    imp: &logrel_core::TimeDependentImplementation,
) -> Result<Vec<Schedule>, SchedError> {
    imp.phases()
        .iter()
        .map(|phase| analyze(spec, arch, phase))
        .collect()
}

fn missing_metric(
    metric: &'static str,
    spec: &Specification,
    arch: &Architecture,
    t: logrel_core::TaskId,
    h: logrel_core::HostId,
) -> SchedError {
    SchedError::Core(CoreError::MissingExecutionMetric {
        metric,
        task: spec.task(t).name().to_owned(),
        host: arch.host(h).name().to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{
        CommunicatorDecl, HostDecl, HostId, Reliability, SensorDecl, SensorId, TaskDecl,
        ValueType,
    };

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    /// Two tasks in a pipeline over communicators of period 10:
    /// reader: s@0 -> l@1 (LET [0, 10]), ctrl: l@1 -> u@3 (LET [10, 30]).
    fn system(
        wcet_reader: u64,
        wcet_ctrl: u64,
        wctt: u64,
        replicate: bool,
    ) -> Result<Schedule, SchedError> {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let l = sb
            .communicator(CommunicatorDecl::new("l", ValueType::Float, 10).unwrap())
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
            .unwrap();
        let reader = sb
            .task(TaskDecl::new("reader").reads(s, 0).writes(l, 1))
            .unwrap();
        let ctrl = sb.task(TaskDecl::new("ctrl").reads(l, 1).writes(u, 3)).unwrap();
        let spec = sb.build().unwrap();

        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(0.99))).unwrap();
        let h2 = ab.host(HostDecl::new("h2", r(0.99))).unwrap();
        ab.sensor(SensorDecl::new("sen", Reliability::ONE)).unwrap();
        ab.wcet_all(reader, wcet_reader).unwrap();
        ab.wcet_all(ctrl, wcet_ctrl).unwrap();
        ab.wctt_all(reader, wctt).unwrap();
        ab.wctt_all(ctrl, wctt).unwrap();
        let arch = ab.build();

        let mut builder = Implementation::builder()
            .assign(reader, [h1])
            .assign(ctrl, if replicate { vec![h1, h2] } else { vec![h1] })
            .bind_sensor(s, SensorId::new(0));
        if replicate {
            builder = builder.assign(reader, [h2]);
        }
        let imp = builder.build(&spec, &arch).unwrap();
        analyze(&spec, &arch, &imp)
    }

    #[test]
    fn feasible_pipeline_schedules() {
        let sched = system(4, 8, 2, false).unwrap();
        assert_eq!(sched.round().as_u64(), 30);
        // reader completes by 4, ctrl released at 10 finishes by 18.
        assert_eq!(
            sched.completion(logrel_core::TaskId::new(0), HostId::new(0)),
            Some(logrel_core::Tick::new(4))
        );
        assert_eq!(sched.bus_slots().len(), 2);
    }

    #[test]
    fn wcet_exceeding_window_fails_on_cpu() {
        // reader window is [0, 10 - wctt]; wcet 9 with wctt 2 misses.
        let err = system(9, 2, 2, false).unwrap_err();
        let SchedError::NotSchedulable { misses } = err else {
            panic!("expected NotSchedulable");
        };
        assert!(misses.iter().any(|m| m.task == "reader" && !m.on_bus));
    }

    #[test]
    fn bus_contention_between_replicas() {
        // Replicated on both hosts: CPUs are parallel but the bus serialises
        // 4 broadcasts of 2 ticks each. reader replicas both complete at 4
        // and must broadcast by 10: 4+2+2 = 8 <= 10, fine. ctrl replicas
        // complete at 18, broadcast by 30: fine. So still schedulable.
        let sched = system(4, 8, 2, true).unwrap();
        assert_eq!(sched.bus_slots().len(), 4);
        // Bus slots never overlap.
        for w in sched.bus_slots().windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn bus_overload_fails() {
        // WCTT 5: reader replicas complete at 4; broadcasts 4->9 and 9->14;
        // the second misses the write time 10.
        let err = system(4, 4, 5, true).unwrap_err();
        let SchedError::NotSchedulable { misses } = err else {
            panic!("expected NotSchedulable");
        };
        assert!(misses.iter().any(|m| m.on_bus));
    }

    #[test]
    fn utilization_is_consistent() {
        let sched = system(4, 8, 2, false).unwrap();
        // h1 runs 4 + 8 ticks in a round of 30.
        assert!((sched.utilization(HostId::new(0)) - 12.0 / 30.0).abs() < 1e-12);
        // The bus carries 4 ticks of the round.
        let bus_busy: u64 = sched.bus_slots().iter().map(|b| b.end - b.start).sum();
        assert_eq!(bus_busy, 4);
    }

    #[test]
    fn time_dependent_phases_are_checked_individually() {
        use logrel_core::TimeDependentImplementation;
        // Build two phases from the feasible pipeline, one of which is
        // infeasible (ctrl moved next to reader on one host with an
        // impossible WCET is hard to construct via system(); instead use
        // two feasible phases and assert per-phase schedules).
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
            .unwrap();
        let t = sb.task(TaskDecl::new("t").reads(s, 0).writes(u, 1)).unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(0.99))).unwrap();
        let h2 = ab.host(HostDecl::new("h2", r(0.99))).unwrap();
        ab.sensor(SensorDecl::new("sen", Reliability::ONE)).unwrap();
        ab.wcet(t, h1, 4).unwrap();
        ab.wctt(t, h1, 1).unwrap();
        ab.wcet(t, h2, 20).unwrap(); // cannot fit the [0, 10) window
        ab.wctt(t, h2, 1).unwrap();
        let arch = ab.build();
        let p0 = Implementation::builder()
            .assign(t, [h1])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        let p1 = p0.with_assignment(t, [h2]);
        let ok = TimeDependentImplementation::new(vec![p0.clone()]).unwrap();
        assert_eq!(analyze_time_dependent(&spec, &arch, &ok).unwrap().len(), 1);
        let mixed = TimeDependentImplementation::new(vec![p0, p1]).unwrap();
        assert!(matches!(
            analyze_time_dependent(&spec, &arch, &mixed).unwrap_err(),
            SchedError::NotSchedulable { .. }
        ));
    }

    #[test]
    fn missing_metric_is_core_error() {
        // Build a spec/arch pair where the implementation bypasses
        // validation via with_assignment to a host lacking metrics.
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
            .unwrap();
        let t = sb.task(TaskDecl::new("t").reads(s, 0).writes(u, 1)).unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(0.9))).unwrap();
        ab.host(HostDecl::new("h2", r(0.9))).unwrap();
        ab.sensor(SensorDecl::new("sen", Reliability::ONE)).unwrap();
        ab.wcet(t, h1, 1).unwrap();
        ab.wctt(t, h1, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h1])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap()
            .with_assignment(t, [HostId::new(1)]);
        assert!(matches!(
            analyze(&spec, &arch, &imp).unwrap_err(),
            SchedError::Core(CoreError::MissingExecutionMetric { .. })
        ));
    }
}
