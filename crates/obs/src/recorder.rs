//! The flight recorder: a bounded ring buffer of recent structured
//! events, snapshotted ("dumped") when something goes wrong.
//!
//! The recorder is deliberately small and allocation-free in steady
//! state: pushing an event into a full ring evicts the oldest one. The
//! ring grows to its capacity on demand, so a recorder that never sees
//! an event costs no ring allocation (a campaign unit fills one of its
//! replications' recorders and leaves the others as they came). When
//! an LRC alarm is raised the recorder automatically snapshots the ring
//! into a [`Dump`], so the events *leading up to* the violation are
//! preserved even if the run continues for millions of rounds
//! afterwards. Drivers can also snapshot on demand ([`FlightRecorder::dump_now`])
//! or when a panic unwinds through them.
//!
//! Events carry raw index-space identifiers (task, host and communicator
//! indices from the compiled round program) rather than names — the
//! recorder must not borrow from the specification. Pretty-printers
//! resolve names at render time.

use std::collections::VecDeque;

/// How a vote over delivering replicas resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VoteOutcome {
    /// Every delivering replica agreed on every output position.
    Unanimous,
    /// At least one disagreement, but every output position had a strict
    /// majority value.
    Majority,
    /// Some output position had no strict majority (the vote falls back
    /// to defaults / previous values for that position).
    Tie,
    /// No replica delivered at all.
    Silent,
}

impl VoteOutcome {
    /// Stable lowercase label used by exporters and pretty-printers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            VoteOutcome::Unanimous => "unanimous",
            VoteOutcome::Majority => "majority",
            VoteOutcome::Tie => "tie",
            VoteOutcome::Silent => "silent",
        }
    }
}

/// Why a replica invocation did not deliver into its vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropReason {
    /// The logical task did not execute this instant (failed inputs).
    NotExecuted,
    /// The replica's host failed its availability draw.
    HostDown,
    /// The host was up but the result broadcast was lost.
    Broadcast,
    /// A stateful replica was still warming up after its host rejoined.
    Warmup,
    /// An engaged degradation rule dropped the replica.
    Excluded,
}

impl DropReason {
    /// Stable lowercase label used by exporters and pretty-printers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DropReason::NotExecuted => "not-executed",
            DropReason::HostDown => "host-down",
            DropReason::Broadcast => "broadcast",
            DropReason::Warmup => "warmup",
            DropReason::Excluded => "excluded",
        }
    }
}

/// One structured event in the flight-recorder ring.
///
/// `at` is the logical instant (micro-round clock) at which the event
/// was observed; indices are positions in the compiled round program.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A vote over a task's replicas resolved.
    Vote {
        /// Logical instant of the read.
        at: u64,
        /// Task index in the round program.
        task: usize,
        /// How the vote resolved.
        outcome: VoteOutcome,
        /// Number of replicas that delivered into the vote.
        delivered: usize,
        /// Number of replicas configured for the task.
        replicas: usize,
    },
    /// A replica invocation was dropped from its vote.
    ReplicaDrop {
        /// Logical instant of the read.
        at: u64,
        /// Task index in the round program.
        task: usize,
        /// Host index the replica was placed on.
        host: usize,
        /// Why the replica did not deliver.
        reason: DropReason,
    },
    /// A host was observed transitioning up → down.
    HostDown {
        /// Logical instant of the observation.
        at: u64,
        /// Host index.
        host: usize,
    },
    /// A host was observed transitioning down → up.
    HostUp {
        /// Logical instant of the observation.
        at: u64,
        /// Host index.
        host: usize,
    },
    /// The LRC monitor raised an alarm on a communicator.
    AlarmRaised {
        /// Logical instant at which the window completed.
        at: u64,
        /// Communicator index the alarm concerns.
        comm: usize,
        /// Observed empirical reliability over the window.
        mean: f64,
        /// Hoeffding half-width of the monitor's confidence band.
        epsilon: f64,
        /// The long-run constraint being monitored.
        lrc: f64,
    },
    /// The LRC monitor cleared a previously raised alarm.
    AlarmCleared {
        /// Logical instant at which the window completed.
        at: u64,
        /// Communicator index the alarm concerned.
        comm: usize,
        /// Observed empirical reliability over the window.
        mean: f64,
    },
    /// A degradation rule latched.
    DegraderEngaged {
        /// Logical instant of engagement.
        at: u64,
        /// Index of the rule that engaged.
        rule: usize,
    },
    /// The degrader emitted an E-machine mode-switch event.
    ModeSwitch {
        /// Logical instant of the switch.
        at: u64,
        /// Symbolic mode-event name.
        event: String,
    },
}

impl ObsEvent {
    /// The logical instant the event was observed at.
    #[must_use]
    pub fn at(&self) -> u64 {
        match self {
            ObsEvent::Vote { at, .. }
            | ObsEvent::ReplicaDrop { at, .. }
            | ObsEvent::HostDown { at, .. }
            | ObsEvent::HostUp { at, .. }
            | ObsEvent::AlarmRaised { at, .. }
            | ObsEvent::AlarmCleared { at, .. }
            | ObsEvent::DegraderEngaged { at, .. }
            | ObsEvent::ModeSwitch { at, .. } => *at,
        }
    }

    /// Stable kebab-case tag naming the event variant.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::Vote { .. } => "vote",
            ObsEvent::ReplicaDrop { .. } => "replica-drop",
            ObsEvent::HostDown { .. } => "host-down",
            ObsEvent::HostUp { .. } => "host-up",
            ObsEvent::AlarmRaised { .. } => "alarm-raised",
            ObsEvent::AlarmCleared { .. } => "alarm-cleared",
            ObsEvent::DegraderEngaged { .. } => "degrader-engaged",
            ObsEvent::ModeSwitch { .. } => "mode-switch",
        }
    }
}

/// What caused a [`Dump`] to be taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DumpTrigger {
    /// The LRC monitor raised an alarm on the given communicator index.
    AlarmRaised {
        /// Communicator index the alarm concerned.
        comm: usize,
    },
    /// A driver requested the dump explicitly.
    Manual,
    /// A panic unwound through the driver.
    Panic,
}

impl DumpTrigger {
    /// Stable kebab-case label for exporters.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DumpTrigger::AlarmRaised { .. } => "alarm-raised",
            DumpTrigger::Manual => "manual",
            DumpTrigger::Panic => "panic",
        }
    }
}

/// A snapshot of the flight-recorder ring at a moment of interest.
#[derive(Debug, Clone, PartialEq)]
pub struct Dump {
    /// Logical instant at which the dump was taken.
    pub at: u64,
    /// What triggered the dump.
    pub trigger: DumpTrigger,
    /// The ring contents at the trigger, oldest first.
    pub events: Vec<ObsEvent>,
}

/// Bounded ring buffer of recent [`ObsEvent`]s with automatic dumps.
///
/// Holds at most `capacity` live events; pushing into a full ring evicts
/// the oldest. At most [`FlightRecorder::MAX_DUMPS`] dumps are retained
/// (oldest kept — the first violations are the interesting ones).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<ObsEvent>,
    dumps: Vec<Dump>,
    dropped: u64,
}

impl FlightRecorder {
    /// Maximum number of retained dumps; later triggers are counted but
    /// their snapshots discarded.
    pub const MAX_DUMPS: usize = 8;

    /// Creates a recorder retaining at most `capacity` live events
    /// (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: VecDeque::new(),
            dumps: Vec::new(),
            dropped: 0,
        }
    }

    /// The configured ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events evicted from the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The live ring contents, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.ring.iter()
    }

    /// Dumps taken so far, oldest first.
    #[must_use]
    pub fn dumps(&self) -> &[Dump] {
        &self.dumps
    }

    /// Records an event, evicting the oldest if the ring is full. An
    /// [`ObsEvent::AlarmRaised`] additionally snapshots the ring
    /// (including the alarm event itself) as an automatic dump.
    pub fn push(&mut self, event: ObsEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        let auto = match &event {
            ObsEvent::AlarmRaised { at, comm, .. } => Some((*at, *comm)),
            _ => None,
        };
        self.ring.push_back(event);
        if let Some((at, comm)) = auto {
            self.snapshot(at, DumpTrigger::AlarmRaised { comm });
        }
    }

    /// Takes a manual dump of the current ring contents.
    pub fn dump_now(&mut self, at: u64) {
        self.snapshot(at, DumpTrigger::Manual);
    }

    /// Takes a dump attributed to a panic unwinding through the driver.
    pub fn dump_on_panic(&mut self, at: u64) {
        self.snapshot(at, DumpTrigger::Panic);
    }

    fn snapshot(&mut self, at: u64, trigger: DumpTrigger) {
        if self.dumps.len() < Self::MAX_DUMPS {
            let events = self.ring.iter().cloned().collect();
            self.install_dump(at, trigger, events);
        }
    }

    /// Replaces the live ring by `events` (oldest first, at most
    /// `capacity`) and counts `evicted` more evictions — the state the
    /// ring reaches by being pushed every event of a run one at a time.
    ///
    /// A hook for the simulator's lane-group kernel, which keeps one
    /// event ring per group and rebuilds each lane's recorder from it.
    #[doc(hidden)]
    pub fn install_ring(&mut self, events: VecDeque<ObsEvent>, evicted: u64) {
        debug_assert!(events.len() <= self.capacity);
        self.ring = events;
        self.dropped += evicted;
    }

    /// Retains a dump of `events`, unless [`FlightRecorder::MAX_DUMPS`]
    /// dumps are retained already (the lane-group kernel's counterpart
    /// of an automatic dump; see [`FlightRecorder::install_ring`]).
    #[doc(hidden)]
    pub fn install_dump(&mut self, at: u64, trigger: DumpTrigger, events: Vec<ObsEvent>) {
        if self.dumps.len() < Self::MAX_DUMPS {
            self.dumps.push(Dump {
                at,
                trigger,
                events,
            });
        }
    }

    /// Merges another recorder's dumps into this one (used when
    /// Monte-Carlo batches merge per-replication registries). The other
    /// recorder's live ring is discarded — only dumps survive a merge —
    /// and the retained-dump cap still applies.
    pub fn merge(&mut self, other: FlightRecorder) {
        for dump in other.dumps {
            if self.dumps.len() >= Self::MAX_DUMPS {
                break;
            }
            self.dumps.push(dump);
        }
        self.dropped += other.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_down(at: u64) -> ObsEvent {
        ObsEvent::HostDown { at, host: 0 }
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let mut rec = FlightRecorder::new(3);
        for at in 0..5 {
            rec.push(host_down(at));
        }
        let ats: Vec<u64> = rec.events().map(ObsEvent::at).collect();
        assert_eq!(ats, vec![2, 3, 4]);
        assert_eq!(rec.dropped(), 2);
    }

    #[test]
    fn alarm_raised_auto_dumps_including_itself() {
        let mut rec = FlightRecorder::new(8);
        rec.push(host_down(10));
        rec.push(ObsEvent::AlarmRaised {
            at: 20,
            comm: 3,
            mean: 0.5,
            epsilon: 0.1,
            lrc: 0.9,
        });
        assert_eq!(rec.dumps().len(), 1);
        let dump = &rec.dumps()[0];
        assert_eq!(dump.at, 20);
        assert_eq!(dump.trigger, DumpTrigger::AlarmRaised { comm: 3 });
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events[1].kind(), "alarm-raised");
    }

    #[test]
    fn dumps_are_capped_at_max() {
        let mut rec = FlightRecorder::new(2);
        for at in 0..20 {
            rec.dump_now(at);
        }
        assert_eq!(rec.dumps().len(), FlightRecorder::MAX_DUMPS);
        assert_eq!(rec.dumps()[0].at, 0);
    }

    #[test]
    fn merge_carries_dumps_not_ring() {
        let mut a = FlightRecorder::new(4);
        a.push(host_down(1));
        let mut b = FlightRecorder::new(4);
        b.push(host_down(2));
        b.dump_now(3);
        a.merge(b);
        assert_eq!(a.dumps().len(), 1);
        assert_eq!(a.events().count(), 1);
    }
}
