//! Non-preemptive broadcast scheduling on the shared bus.
//!
//! Once a replication finishes on its CPU, its outputs are broadcast to all
//! hosts; the broadcast occupies the single shared medium for the
//! replication's WCTT and must complete by the task's write time. Work-
//! conserving non-preemptive EDF dispatch is used: whenever the bus frees
//! up, the ready broadcast with the earliest deadline is sent. This is a
//! *sufficient* feasibility test (non-preemptive EDF is not optimal with
//! arbitrary release times), which errs on the safe side: a schedule it
//! produces is always valid.

use crate::error::MissedDeadline;
use crate::schedule::BusSlot;
use logrel_core::{HostId, TaskId, Tick};

/// A broadcast job on the shared bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusJob {
    /// The broadcasting task.
    pub task: TaskId,
    /// The host that executed the replication.
    pub host: HostId,
    /// Earliest start (the replication's CPU completion).
    pub ready: Tick,
    /// Transmission duration (WCTT); zero-duration jobs are emitted as
    /// empty slots and always meet their deadline if `ready <= deadline`.
    pub duration: u64,
    /// Absolute deadline (the task's write time).
    pub deadline: Tick,
}

/// Result of scheduling the bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusOutcome {
    /// Chronological bus slots, one per job, indexed like the input.
    pub slots: Vec<BusSlot>,
    /// Completion instant per input job.
    pub completions: Vec<Tick>,
    /// Indices of jobs completing after their deadline.
    pub misses: Vec<usize>,
}

impl BusOutcome {
    /// `true` if every broadcast met its deadline.
    pub fn feasible(&self) -> bool {
        self.misses.is_empty()
    }
}

/// Schedules the given broadcasts with work-conserving non-preemptive EDF.
pub fn schedule_bus(jobs: &[BusJob]) -> BusOutcome {
    let n = jobs.len();
    let mut done = vec![false; n];
    let mut completions = vec![Tick::ZERO; n];
    let mut slots_by_job: Vec<Option<BusSlot>> = vec![None; n];
    let mut now = jobs.iter().map(|j| j.ready).min().unwrap_or(Tick::ZERO);
    let mut pending = n;

    while pending > 0 {
        let ready = (0..n)
            .filter(|&i| !done[i] && jobs[i].ready <= now)
            .min_by_key(|&i| (jobs[i].deadline, i));
        let Some(i) = ready else {
            now = jobs
                .iter()
                .enumerate()
                .filter(|(k, _)| !done[*k])
                .map(|(_, j)| j.ready)
                .min()
                .expect("pending jobs exist");
            continue;
        };
        let start = now;
        let end = start + jobs[i].duration;
        slots_by_job[i] = Some(BusSlot {
            task: jobs[i].task,
            host: jobs[i].host,
            start,
            end,
        });
        completions[i] = end;
        done[i] = true;
        pending -= 1;
        now = end;
    }

    let mut slots: Vec<BusSlot> = slots_by_job.into_iter().flatten().collect();
    slots.sort_by_key(|s| (s.start, s.end, s.task, s.host));
    let misses = (0..n)
        .filter(|&i| completions[i] > jobs[i].deadline)
        .collect();
    BusOutcome {
        slots,
        completions,
        misses,
    }
}

/// Converts bus misses into [`MissedDeadline`] diagnostics.
pub fn miss_diagnostics(
    jobs: &[BusJob],
    outcome: &BusOutcome,
    task_name: impl Fn(TaskId) -> String,
    host_name: impl Fn(HostId) -> String,
) -> Vec<MissedDeadline> {
    outcome
        .misses
        .iter()
        .map(|&i| MissedDeadline {
            task: task_name(jobs[i].task),
            host: host_name(jobs[i].host),
            release: jobs[i].ready.as_u64(),
            deadline: jobs[i].deadline.as_u64(),
            completion: Some(outcome.completions[i].as_u64()),
            on_bus: true,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn job(t: u32, ready: u64, duration: u64, deadline: u64) -> BusJob {
        BusJob {
            task: TaskId::new(t),
            host: HostId::new(0),
            ready: Tick::new(ready),
            duration,
            deadline: Tick::new(deadline),
        }
    }

    #[test]
    fn single_broadcast() {
        let out = schedule_bus(&[job(0, 5, 2, 10)]);
        assert!(out.feasible());
        assert_eq!(out.completions, vec![Tick::new(7)]);
    }

    #[test]
    fn earliest_deadline_goes_first() {
        let out = schedule_bus(&[job(0, 0, 3, 20), job(1, 0, 3, 5)]);
        assert!(out.feasible());
        assert_eq!(out.completions[1], Tick::new(3));
        assert_eq!(out.completions[0], Tick::new(6));
    }

    #[test]
    fn no_preemption_once_started() {
        // Job 0 starts at 0 (only ready job); job 1 becomes ready at 1 with
        // a tighter deadline but must wait.
        let out = schedule_bus(&[job(0, 0, 5, 20), job(1, 1, 1, 6)]);
        assert_eq!(out.completions[0], Tick::new(5));
        assert_eq!(out.completions[1], Tick::new(6));
        assert!(out.feasible());
    }

    #[test]
    fn contention_miss_is_reported() {
        let jobs = [job(0, 0, 5, 5), job(1, 0, 5, 6)];
        let out = schedule_bus(&jobs);
        assert!(!out.feasible());
        assert_eq!(out.misses, vec![1]);
        let d = miss_diagnostics(&jobs, &out, |t| t.to_string(), |h| h.to_string());
        assert!(d[0].on_bus);
    }

    #[test]
    fn zero_duration_broadcast() {
        let out = schedule_bus(&[job(0, 4, 0, 4)]);
        assert!(out.feasible());
        assert_eq!(out.completions[0], Tick::new(4));
    }

    #[test]
    fn empty_bus() {
        let out = schedule_bus(&[]);
        assert!(out.feasible());
        assert!(out.slots.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn bus_slots_never_overlap(
            raw in proptest::collection::vec((0u64..20, 0u64..4, 1u64..30), 1..8)
        ) {
            let jobs: Vec<BusJob> = raw
                .iter()
                .enumerate()
                .map(|(i, &(r, dur, d))| job(i as u32, r, dur, r + d))
                .collect();
            let out = schedule_bus(&jobs);
            for w in out.slots.windows(2) {
                prop_assert!(w[0].end <= w[1].start);
            }
            for (i, j) in jobs.iter().enumerate() {
                prop_assert!(out.completions[i] >= j.ready + j.duration);
            }
        }
    }
}
