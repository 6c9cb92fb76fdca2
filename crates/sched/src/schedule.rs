//! Static time-triggered schedule tables.
//!
//! The product of a successful schedulability analysis: per-host execution
//! slots and bus broadcast slots over one round `π_S`, which repeats
//! verbatim. The E-machine code generator and the runtime simulator both
//! replay this table.

use logrel_core::{HostId, Period, TaskId, Tick};
use std::collections::BTreeMap;
use std::fmt;

/// One contiguous execution segment of a task replication on a host's CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExecSlot {
    /// The executing task.
    pub task: TaskId,
    /// The executing host.
    pub host: HostId,
    /// Slot start (inclusive).
    pub start: Tick,
    /// Slot end (exclusive).
    pub end: Tick,
}

/// One broadcast transmission on the shared bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BusSlot {
    /// The broadcasting task.
    pub task: TaskId,
    /// The sending host.
    pub host: HostId,
    /// Transmission start (inclusive).
    pub start: Tick,
    /// Transmission end (exclusive); equals `start` for zero-WCTT jobs.
    pub end: Tick,
}

/// A complete single-round schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    round: Period,
    host_slots: BTreeMap<HostId, Vec<ExecSlot>>,
    bus_slots: Vec<BusSlot>,
    /// CPU completion instant of each replication `(task, host)`.
    completions: BTreeMap<(TaskId, HostId), Tick>,
}

impl Schedule {
    /// Assembles a schedule. Intended for use by
    /// [`crate::analysis::analyze`]; exposed for tests and custom
    /// analyses.
    pub fn new(
        round: Period,
        host_slots: BTreeMap<HostId, Vec<ExecSlot>>,
        bus_slots: Vec<BusSlot>,
        completions: BTreeMap<(TaskId, HostId), Tick>,
    ) -> Self {
        Schedule {
            round,
            host_slots,
            bus_slots,
            completions,
        }
    }

    /// The schedule's repetition period (the specification round π_S).
    pub fn round(&self) -> Period {
        self.round
    }

    /// The execution slots of `host`, chronological.
    pub fn host_slots(&self, host: HostId) -> &[ExecSlot] {
        self.host_slots.get(&host).map_or(&[], Vec::as_slice)
    }

    /// All bus slots, chronological.
    pub fn bus_slots(&self) -> &[BusSlot] {
        &self.bus_slots
    }

    /// The CPU completion instant of replication `(task, host)` within the
    /// round, if it is scheduled.
    pub fn completion(&self, task: TaskId, host: HostId) -> Option<Tick> {
        self.completions.get(&(task, host)).copied()
    }

    /// CPU utilisation of `host` over one round, in `[0, 1]`.
    pub fn utilization(&self, host: HostId) -> f64 {
        let busy: u64 = self
            .host_slots(host)
            .iter()
            .map(|s| s.end - s.start)
            .sum();
        busy as f64 / self.round.as_u64() as f64
    }

    /// Renders a text Gantt chart using the provided name lookups.
    pub fn gantt(
        &self,
        task_name: impl Fn(TaskId) -> String,
        host_name: impl Fn(HostId) -> String,
    ) -> String {
        let mut out = format!("round = {}\n", self.round);
        for (&h, slots) in &self.host_slots {
            out.push_str(&format!("{}: ", host_name(h)));
            for s in slots {
                out.push_str(&format!("[{}..{} {}] ", s.start, s.end, task_name(s.task)));
            }
            out.push('\n');
        }
        out.push_str("bus: ");
        for s in &self.bus_slots {
            out.push_str(&format!(
                "[{}..{} {}@{}] ",
                s.start,
                s.end,
                task_name(s.task),
                host_name(s.host)
            ));
        }
        out.push('\n');
        out
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}",
            self.gantt(|t| t.to_string(), |h| h.to_string())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini() -> Schedule {
        let t = TaskId::new(0);
        let h = HostId::new(0);
        let mut host_slots = BTreeMap::new();
        host_slots.insert(
            h,
            vec![ExecSlot {
                task: t,
                host: h,
                start: Tick::new(0),
                end: Tick::new(3),
            }],
        );
        let bus = vec![BusSlot {
            task: t,
            host: h,
            start: Tick::new(3),
            end: Tick::new(4),
        }];
        let mut completions = BTreeMap::new();
        completions.insert((t, h), Tick::new(3));
        Schedule::new(Period::new(10).unwrap(), host_slots, bus, completions)
    }

    #[test]
    fn accessors() {
        let s = mini();
        let t = TaskId::new(0);
        let h = HostId::new(0);
        assert_eq!(s.round().as_u64(), 10);
        assert_eq!(s.host_slots(h).len(), 1);
        assert_eq!(s.host_slots(HostId::new(5)).len(), 0);
        assert_eq!(s.bus_slots().len(), 1);
        assert_eq!(s.completion(t, h), Some(Tick::new(3)));
        assert_eq!(s.completion(t, HostId::new(9)), None);
    }

    #[test]
    fn utilizations() {
        let s = mini();
        assert!((s.utilization(HostId::new(0)) - 0.3).abs() < 1e-12);
        assert_eq!(s.utilization(HostId::new(7)), 0.0);
        let bus_busy: u64 = s.bus_slots().iter().map(|b| b.end - b.start).sum();
        assert_eq!(bus_busy, 1);
    }

    #[test]
    fn gantt_and_display() {
        let s = mini();
        let text = s.gantt(|_| "ctrl".into(), |_| "hostA".into());
        assert!(text.contains("ctrl") && text.contains("hostA") && text.contains("bus"));
        assert!(s.to_string().contains("round = 10"));
    }
}
