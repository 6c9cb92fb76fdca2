//! Lane-group observation: the counters, the vote histogram and the
//! flight-recorder events of a group run, kept once per group and
//! reported to the group's one sink.
//!
//! The kernel ([`crate::bitslice`]) already holds each replica's draw
//! outcomes as lane masks — host up, broadcast delivered, warm, excluded
//! — so [`GroupObs`] counts with [`MaskTally`]s over those masks instead
//! of bumping per-lane counters, and writes the totals to the sink once,
//! at the end of the run.
//!
//! One sink observes every lane of the group. It ends up as the lanes'
//! one-lane sinks merged in lane order would: lane 0's sink is the one
//! handed in, continued from whatever it held before the run, and every
//! other lane's is an empty sink of the same shape. So the group builds
//! only what survives that merge, and a width-1 run is a one-lane run.
//!
//! Events take the same route. Each task read pushes one record into a
//! single group ring ([`GroupRing`]): the instant, the task, the
//! executing lanes, the lanes on which a replica made an event of its
//! own and, only when there are any, each replica's host and masks (plus
//! the vote outcome masks on the corrupting path). What the group
//! monitor fires for one lane — alarm transitions, engaged degradation
//! rules and their mode switches — reaches the ring verbatim, tagged with
//! its lane, through [`GroupObs::fired`]. A lane's flight recorder is
//! rebuilt from the ring only where someone can look at it: for each of
//! its alarms (the automatic dump, while the lanes up to it hold fewer
//! than [`FlightRecorder::MAX_DUMPS`] dumps), and, for lane 0, whose
//! ring the merged registry keeps, at the end of the run or when a panic
//! unwinds through the kernel.
//!
//! Every task read gives every lane at least one event, its vote, so the
//! last `c` task records (and the verbatim events after the oldest of
//! them) hold each lane's last `c` events. An alarm's dump is built from
//! the ring as it stood at the alarm, but only when the ring is about to
//! drop a record the dump needs, or at the end of the run: by then a
//! later alarm on a lower lane may have pushed it past the cap, and it is
//! dropped unbuilt ([`GroupObs::settle`]). So the ring keeps twice as
//! many records as the recorder holds events.

use crate::bitslice::MaskTally;
use crate::monitor::{AlarmKind, Fired};
use logrel_obs::{
    names, DropReason, Dump, DumpTrigger, FlightRecorder, MetricsSink, ObsEvent, VoteOutcome,
};
use std::cell::Cell;
use std::collections::VecDeque;

// Keys of `GroupObs::counts`. `PER_VOTE + k` counts the votes with
// exactly `k` delivering replicas; the replica-ok and the unanimous and
// silent vote counts follow from those and the number of reads.
const DROP_SILENT: usize = 0;
const DROP_HOST: usize = 1;
const DROP_BROADCAST: usize = 2;
const DROP_WARMUP: usize = 3;
const DROP_EXCLUDED: usize = 4;
const BROADCAST_FAIL: usize = 5;
const HOST_UP: usize = 6;
const HOST_DOWN: usize = 7;
const VOTE_MAJORITY: usize = 8;
const VOTE_TIE: usize = 9;
const ALARM_RAISED: usize = 10;
const ALARM_CLEARED: usize = 11;
const DEGRADER_ENGAGED: usize = 12;
const MODE_SWITCH: usize = 13;
const PER_VOTE: usize = 14;

/// The counters a group tallies, by key.
const TALLIED: [(&str, usize); 10] = [
    (names::REPLICA_DROP_SILENT, DROP_SILENT),
    (names::REPLICA_DROP_HOST, DROP_HOST),
    (names::REPLICA_DROP_BROADCAST, DROP_BROADCAST),
    (names::REPLICA_DROP_WARMUP, DROP_WARMUP),
    (names::REPLICA_DROP_EXCLUDED, DROP_EXCLUDED),
    (names::BROADCAST_FAIL, BROADCAST_FAIL),
    (names::HOST_UP_TRANSITIONS, HOST_UP),
    (names::HOST_DOWN_TRANSITIONS, HOST_DOWN),
    (names::VOTE_MAJORITY, VOTE_MAJORITY),
    (names::VOTE_TIE, VOTE_TIE),
];

/// One replica of one task read, as lane masks of its draw outcomes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplicaMasks {
    /// Host index the replica runs on.
    pub host: usize,
    /// Lanes whose host-availability draw succeeded.
    pub host_ok: u64,
    /// Lanes whose broadcast reached the whole audience.
    pub bc_ok: u64,
    /// Lanes on which the (stateful) replica is warm.
    pub warm: u64,
    /// Lanes on which an engaged degradation rule drops the replica.
    pub excluded: u64,
}

/// A replica as recorded: its masks and the lanes on which its host's
/// up/down state flipped at this draw.
#[derive(Debug, Clone, Copy)]
struct Replica {
    masks: ReplicaMasks,
    transitions: u64,
}

impl Replica {
    /// The lanes on which the replica delivered, of a read executing on
    /// `exec`.
    #[inline]
    fn delivered(&self, exec: u64) -> u64 {
        let m = &self.masks;
        exec & m.host_ok & m.bc_ok & m.warm & !m.excluded
    }

    /// Why the replica did not deliver on lane `bit` of a read executing
    /// on `exec`, or `None` when it delivered.
    fn drop_reason(&self, exec: u64, bit: u64) -> Option<DropReason> {
        let m = &self.masks;
        if exec & bit == 0 {
            Some(DropReason::NotExecuted)
        } else if m.host_ok & bit == 0 {
            Some(DropReason::HostDown)
        } else if m.bc_ok & bit == 0 {
            Some(DropReason::Broadcast)
        } else if m.warm & bit == 0 {
            Some(DropReason::Warmup)
        } else if m.excluded & bit != 0 {
            Some(DropReason::Excluded)
        } else {
            None
        }
    }

    /// Lane `bit`'s events of this replica, newest first — its drop,
    /// then its host's transition — into `push`.
    fn lane_events_rev(
        &self,
        at: u64,
        task: usize,
        exec: u64,
        bit: u64,
        mut push: impl FnMut(ObsEvent),
    ) {
        let host = self.masks.host;
        match self.drop_reason(exec, bit) {
            // A not-executed logical task is a property of the vote, not
            // of any single replica: its vote records it as `silent`.
            None | Some(DropReason::NotExecuted) => {}
            Some(reason) => push(ObsEvent::ReplicaDrop {
                at,
                task,
                host,
                reason,
            }),
        }
        if self.transitions & bit != 0 {
            push(if self.masks.host_ok & bit != 0 {
                ObsEvent::HostUp { at, host }
            } else {
                ObsEvent::HostDown { at, host }
            });
        }
    }
}

/// One task read in the ring. Its replicas follow in
/// [`GroupRing::replicas`] when it is noisy on some lane; on a quiet lane
/// every replica delivered if the task executed there, and none did if
/// it did not.
#[derive(Debug)]
struct Read {
    at: u64,
    task: usize,
    replicas: usize,
    exec: u64,
    /// Lanes on which some replica makes an event of its own (a drop or
    /// a host transition); on the other lanes the read's one event is
    /// its vote.
    noisy: u64,
    /// The corrupting path's majority and tie votes; every other
    /// delivering lane's vote is unanimous.
    majority: u64,
    tie: u64,
}

impl Read {
    /// The number of replicas the ring keeps for this read.
    fn stored(&self) -> usize {
        if self.noisy == 0 {
            0
        } else {
            self.replicas
        }
    }

    /// Lane `lane`'s vote event of this read, whose replicas are
    /// `replicas`.
    fn vote<'r>(&self, replicas: impl Iterator<Item = &'r Replica>, lane: usize) -> ObsEvent {
        let bit = 1u64 << lane;
        let delivered = if self.noisy & bit != 0 {
            replicas
                .filter(|rep| rep.delivered(self.exec) & bit != 0)
                .count()
        } else if self.exec & bit != 0 {
            self.replicas
        } else {
            0
        };
        let outcome = if delivered == 0 {
            VoteOutcome::Silent
        } else if self.majority & bit != 0 {
            VoteOutcome::Majority
        } else if self.tie & bit != 0 {
            VoteOutcome::Tie
        } else {
            VoteOutcome::Unanimous
        };
        ObsEvent::Vote {
            at: self.at,
            task: self.task,
            outcome,
            delivered,
            replicas: self.replicas,
        }
    }
}

#[derive(Debug)]
enum Entry {
    Read(Read),
    /// An event made outside the kernel for one lane.
    Verbatim {
        lane: usize,
        event: ObsEvent,
    },
}

/// A position in a [`GroupRing`]: the entries and replicas pushed before
/// it, counted from the start of the run.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    entries: u64,
    replicas: u64,
    reads: u64,
}

/// The event ring of a lane group: at least the last `keep` task reads
/// (twice the recorder capacity, see [`GroupRing::set_keep`]),
/// and the verbatim events since the oldest of them, oldest first.
#[derive(Debug, Default)]
struct GroupRing {
    keep: usize,
    /// Reads held beyond `keep` until the oldest are dropped in one go,
    /// which keeps the cost per read constant.
    slack: usize,
    entries: VecDeque<Entry>,
    /// The replicas the reads in `entries` keep, in order, after the first
    /// `evicted` (those of reads already dropped).
    replicas: Vec<Replica>,
    evicted: usize,
    reads: usize,
    /// What was dropped from the front so far: entries, replicas (from
    /// `replicas` itself) and reads.
    dropped: Mark,
}

impl GroupRing {
    /// Sets the number of reads to keep: twice the largest recorder
    /// capacity, the live ring's and as many again for the alarm dumps
    /// waiting to be built (see [`GroupObs::settle`]). Call it on an
    /// empty ring: it takes over the storage of the last ring dropped on
    /// this thread, if any.
    fn set_keep(&mut self, capacity: usize) {
        debug_assert!(self.entries.is_empty() && self.replicas.is_empty());
        self.keep = 2 * capacity;
        self.slack = (capacity / 8).max(1);
        if let Some((entries, replicas)) = SPARE_RING.try_with(Cell::take).ok().flatten() {
            self.entries = entries;
            self.replicas = replicas;
        }
        // Room for the reads and a few verbatim events among them.
        self.entries.reserve(self.keep + 2 * self.slack);
    }

    /// The position after the last entry.
    fn mark(&self) -> Mark {
        Mark {
            entries: self.dropped.entries + self.entries.len() as u64,
            replicas: self.dropped.replicas + self.replicas.len() as u64,
            reads: self.dropped.reads + self.reads as u64,
        }
    }

    /// When pushing the next read drops the oldest reads, the first read
    /// the ring keeps after it.
    fn front_after_push(&self) -> Option<u64> {
        (self.reads == self.keep + self.slack).then(|| self.dropped.reads + self.slack as u64 + 1)
    }

    fn push_read(&mut self, read: Read, replicas: &[Replica]) {
        if self.reads == self.keep + self.slack {
            // `keep` reads remain with this one.
            self.evict(self.slack + 1);
        }
        self.replicas.extend_from_slice(&replicas[..read.stored()]);
        self.entries.push_back(Entry::Read(read));
        self.reads += 1;
    }

    /// Drops the oldest `count` reads and the verbatim events before the
    /// next one, which are older than every lane's last `keep` events.
    fn evict(&mut self, count: usize) {
        let (mut reads, mut replicas) = (0, 0);
        let cut = self
            .entries
            .iter()
            .position(|entry| match entry {
                Entry::Read(_) if reads == count => true,
                Entry::Read(read) => {
                    reads += 1;
                    replicas += read.stored();
                    false
                }
                Entry::Verbatim { .. } => false,
            })
            .unwrap_or(self.entries.len());
        self.entries.drain(..cut);
        self.reads -= reads;
        self.evicted += replicas;
        self.dropped.entries += cut as u64;
        self.dropped.reads += reads as u64;
        if self.evicted > self.replicas.len() / 2 {
            self.replicas.drain(..self.evicted);
            self.dropped.replicas += self.evicted as u64;
            self.evicted = 0;
        }
    }

    fn push_verbatim(&mut self, lane: usize, event: ObsEvent) {
        self.entries.push_back(Entry::Verbatim { lane, event });
    }

    /// Lane `lane`'s last `count` events (fewer if the ring holds fewer),
    /// oldest first.
    fn tail(&self, lane: usize, count: usize) -> Vec<ObsEvent> {
        let mut tails = self.tails(&[(lane, count, self.mark())]);
        tails.pop().unwrap_or_default()
    }

    /// For each `(lane, count, mark)` of `wanted`, lane `lane`'s last
    /// `count` events before `mark` (fewer if the ring holds fewer),
    /// oldest first, all in one walk back from the last mark. A lane's
    /// events are made newest first: a read's vote, then its replicas'
    /// events from the last replica back. A tail is complete at its
    /// `count`th read back at the latest, since every read gives every
    /// lane an event.
    fn tails(&self, wanted: &[(usize, usize, Mark)]) -> Vec<Vec<ObsEvent>> {
        let mut tails: Vec<Vec<ObsEvent>> = wanted
            .iter()
            .map(|&(_, count, _)| Vec::with_capacity(count))
            .collect();
        let mut open = wanted.iter().filter(|&&(_, count, _)| count > 0).count();
        let Some(last) = wanted
            .iter()
            .map(|&(_, _, mark)| mark)
            .max_by_key(|m| m.entries)
        else {
            return tails;
        };
        let mut end = (last.replicas - self.dropped.replicas) as usize;
        let entries = (last.entries - self.dropped.entries) as usize;
        for (i, entry) in self.entries.range(..entries).enumerate().rev() {
            if open == 0 {
                break;
            }
            let index = self.dropped.entries + i as u64;
            let replicas = match entry {
                Entry::Read(read) => {
                    let start = end - read.stored();
                    end = start;
                    &self.replicas[start..start + read.stored()]
                }
                Entry::Verbatim { .. } => &[],
            };
            for (&(lane, count, mark), events) in wanted.iter().zip(&mut tails) {
                if index >= mark.entries || events.len() >= count {
                    continue;
                }
                match entry {
                    Entry::Verbatim { lane: l, event } => {
                        if *l == lane {
                            events.push(event.clone());
                        }
                    }
                    Entry::Read(read) => {
                        events.push(read.vote(replicas.iter(), lane));
                        let bit = 1u64 << lane;
                        if read.noisy & bit != 0 {
                            for rep in replicas.iter().rev() {
                                rep.lane_events_rev(read.at, read.task, read.exec, bit, |event| {
                                    if events.len() < count {
                                        events.push(event);
                                    }
                                });
                            }
                        }
                    }
                }
                if events.len() >= count {
                    open -= 1;
                }
            }
        }
        for events in &mut tails {
            events.reverse();
        }
        tails
    }
}

impl Drop for GroupRing {
    /// Leaves the ring's storage, emptied, for the next group run on this
    /// thread.
    fn drop(&mut self) {
        if self.keep == 0 {
            return;
        }
        let mut entries = std::mem::take(&mut self.entries);
        let mut replicas = std::mem::take(&mut self.replicas);
        entries.clear();
        replicas.clear();
        let _ = SPARE_RING.try_with(|spare| spare.set(Some((entries, replicas))));
    }
}

thread_local! {
    /// The storage of the last recording group ring dropped on this
    /// thread, for the next one. A campaign runs unit after unit on a
    /// thread, and a unit's ring is tens of kilobytes: freeing it at the
    /// end of each unit and allocating it again at the start of the next
    /// made the allocator give the top of the heap back and fault it in
    /// again, about 7% of a 64-lane steer-by-wire unit with a registry.
    static SPARE_RING: Cell<Option<(VecDeque<Entry>, Vec<Replica>)>> = const { Cell::new(None) };
}

/// An alarm dump waiting to be built: lane `lane`'s `index`th, of its
/// last `kept` events before `mark`.
#[derive(Debug)]
struct PendingDump {
    lane: usize,
    index: usize,
    at: u64,
    comm: usize,
    kept: usize,
    mark: Mark,
}

/// The observation state of one lane-group run: counters and the vote
/// histogram as [`MaskTally`]s, each host's up mask, the group event
/// ring and the alarm dumps built so far. See the module docs.
#[derive(Debug)]
pub(crate) struct GroupObs {
    all: u64,
    /// Whether the sink is enabled, and whether it carries a flight
    /// recorder, of `capacity` events.
    enabled: bool,
    recording: bool,
    capacity: usize,
    counts: MaskTally,
    /// Task reads tallied so far.
    reads: u64,
    /// Per lane: events that reached the ring verbatim.
    verbatim: Vec<u64>,
    /// Per lane: the dumps its one-lane recorder holds, those built in
    /// this run, which reach the sink's recorder in lane order, and those
    /// waiting to be built, in firing order.
    held: Vec<usize>,
    dumps: Vec<Vec<Dump>>,
    pending: VecDeque<PendingDump>,
    /// Per host: the lanes that last saw it up.
    host_up: Vec<u64>,
    /// The open task read: instant, task, executing lanes, and the
    /// replicas drawn so far.
    at: u64,
    task: usize,
    exec: u64,
    /// The lanes on which a replica of the open read made an event of
    /// its own (see [`Read::noisy`]).
    noisy: u64,
    open: Vec<Replica>,
    /// Scratch: `exactly[k]` = lanes on which exactly `k` replicas
    /// delivered.
    exactly: Vec<u64>,
    ring: GroupRing,
}

impl GroupObs {
    /// The observation state of a group of `lanes` lanes reporting to
    /// `sink`, on `hosts` hosts with tasks of at most `max_replicas`
    /// replicas. Lane 0 continues the sink's recorder: its events from
    /// before the run enter the ring first, and its dumps count toward
    /// the cap.
    pub(crate) fn new<M: MetricsSink + ?Sized>(
        sink: &mut M,
        lanes: usize,
        hosts: usize,
        max_replicas: usize,
    ) -> Self {
        let all = u64::MAX >> (64 - lanes);
        let mut obs = GroupObs {
            all,
            enabled: sink.enabled(),
            recording: false,
            capacity: 0,
            counts: MaskTally::new(0, lanes),
            reads: 0,
            verbatim: vec![0; lanes],
            held: vec![0; lanes],
            dumps: (0..lanes).map(|_| Vec::new()).collect(),
            pending: VecDeque::new(),
            host_up: Vec::new(),
            at: 0,
            task: 0,
            exec: 0,
            noisy: 0,
            open: Vec::with_capacity(max_replicas),
            exactly: vec![0; max_replicas + 1],
            ring: GroupRing::default(),
        };
        if !obs.enabled {
            return obs;
        }
        obs.counts = MaskTally::new(PER_VOTE + max_replicas + 1, lanes);
        obs.host_up = vec![all; hosts];
        if let Some(rec) = sink.flight_recorder() {
            obs.recording = true;
            obs.capacity = rec.capacity();
            obs.held[0] = rec.dumps().len();
            obs.ring.set_keep(obs.capacity);
            for event in rec.events() {
                obs.ring.push_verbatim(0, event.clone());
                obs.verbatim[0] += 1;
            }
        }
        obs
    }

    /// Whether the sink is enabled.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens the read of task `task` at `at`, which executes on `exec`.
    #[inline]
    pub(crate) fn begin_read(&mut self, at: u64, task: usize, exec: u64) {
        self.at = at;
        self.task = task;
        self.exec = exec;
        self.noisy = 0;
        self.open.clear();
    }

    /// Tallies the next replica of the open read.
    #[inline]
    pub(crate) fn replica(&mut self, masks: ReplicaMasks) {
        let all = self.all;
        let exec = self.exec;
        let up = &mut self.host_up[masks.host];
        let transitions = *up ^ masks.host_ok;
        *up = masks.host_ok;
        let rep = Replica { masks, transitions };
        let noisy = transitions | (exec & !rep.delivered(exec));
        self.open.push(rep);
        if noisy == 0 && exec == all {
            // The common case: delivered on every lane, which the vote
            // counts.
            return;
        }
        self.noisy |= noisy;
        let reached = exec & masks.host_ok & masks.bc_ok;
        let c = &mut self.counts;
        c.add(DROP_SILENT, all & !exec, all);
        c.add(DROP_HOST, exec & !masks.host_ok, all);
        c.add(DROP_BROADCAST, exec & masks.host_ok & !masks.bc_ok, all);
        c.add(DROP_WARMUP, reached & !masks.warm, all);
        c.add(DROP_EXCLUDED, reached & masks.warm & masks.excluded, all);
        c.add(BROADCAST_FAIL, masks.host_ok & !masks.bc_ok, all);
        c.add(HOST_UP, transitions & masks.host_ok, all);
        c.add(HOST_DOWN, transitions & !masks.host_ok, all);
    }

    /// Closes the open read: tallies its vote — unanimous wherever a
    /// replica delivered, but for the corrupting path's (majority, tie)
    /// `outcomes` — and records it in the ring. The number of delivering
    /// replicas on each lane goes to the vote histogram's tallies.
    #[inline]
    pub(crate) fn vote(&mut self, outcomes: Option<[u64; 2]>) {
        let all = self.all;
        let exec = self.exec;
        let n = self.open.len();
        if self.noisy == 0 {
            // The common case: every replica delivered wherever the task
            // executed.
            self.counts.add(PER_VOTE + n, exec, all);
            if n > 0 {
                self.counts.add(PER_VOTE, all & !exec, all);
            }
        } else {
            // `exactly[k]`: the lanes on which exactly `k` replicas
            // delivered.
            let exactly = &mut self.exactly[..=n];
            exactly[0] = all;
            for (i, rep) in self.open.iter().enumerate() {
                let ok = rep.delivered(exec);
                exactly[i + 1] = 0;
                for k in (1..=i + 1).rev() {
                    exactly[k] = (exactly[k] & !ok) | (exactly[k - 1] & ok);
                }
                exactly[0] &= !ok;
            }
            for (k, &mask) in exactly.iter().enumerate() {
                self.counts.add(PER_VOTE + k, mask, all);
            }
        }
        if let Some([majority, tie]) = outcomes {
            self.counts.add(VOTE_MAJORITY, majority, all);
            self.counts.add(VOTE_TIE, tie, all);
        }
        self.reads += 1;
        if self.recording {
            let [majority, tie] = outcomes.unwrap_or_default();
            let read = Read {
                at: self.at,
                task: self.task,
                replicas: n,
                exec,
                noisy: self.noisy,
                majority,
                tie,
            };
            // A waiting dump reaches back at most `capacity` reads, which
            // the ring holds until it drops reads.
            if let Some(front) = self.ring.front_after_push() {
                self.settle(front);
            }
            self.ring.push_read(read, &self.open);
        }
        self.open.clear();
    }

    /// Takes what the group monitor fired on lane `lane`: its counters
    /// are tallied, and its events go the way of [`GroupObs::event`] — an
    /// alarm transition's, or an engaged rule's followed by its mode
    /// switch, if any.
    pub(crate) fn fired<M: MetricsSink + ?Sized>(
        &mut self,
        lane: usize,
        fired: Fired<'_>,
        sink: &mut M,
    ) {
        if !self.enabled {
            return;
        }
        let bit = 1u64 << lane;
        match fired {
            Fired::Alarm(alarm) => {
                let key = match alarm.kind {
                    AlarmKind::Raised => ALARM_RAISED,
                    AlarmKind::Cleared => ALARM_CLEARED,
                };
                self.counts.add(key, bit, self.all);
                self.event(lane, &alarm.event(), sink);
            }
            Fired::Engaged {
                rule,
                at,
                mode_switch,
            } => {
                let at = at.as_u64();
                self.counts.add(DEGRADER_ENGAGED, bit, self.all);
                self.event(lane, &ObsEvent::DegraderEngaged { at, rule }, sink);
                if let Some(event) = mode_switch {
                    self.counts.add(MODE_SWITCH, bit, self.all);
                    let event = event.to_string();
                    self.event(lane, &ObsEvent::ModeSwitch { at, event }, sink);
                }
            }
        }
    }

    /// Takes `event`, fired by the monitor for lane `lane`: into the ring
    /// when the sink records, else straight to the sink. An alarm gives
    /// the lane a dump, unless the lanes up to it already hold
    /// [`FlightRecorder::MAX_DUMPS`] dumps: the merged registry keeps only
    /// the first that many, in lane order. The dump waits to be built
    /// ([`GroupObs::settle`]), since a later alarm on a lower lane may
    /// still push it past the cap.
    fn event<M: MetricsSink + ?Sized>(&mut self, lane: usize, event: &ObsEvent, sink: &mut M) {
        if !self.recording {
            sink.event(event);
            return;
        }
        self.ring.push_verbatim(lane, event.clone());
        self.verbatim[lane] += 1;
        if let ObsEvent::AlarmRaised { at, comm, .. } = *event {
            if self.held[..=lane].iter().sum::<usize>() < FlightRecorder::MAX_DUMPS {
                let (_, kept) = self.events(lane);
                self.pending.push_back(PendingDump {
                    lane,
                    index: self.held[lane],
                    at,
                    comm,
                    kept,
                    mark: self.ring.mark(),
                });
                self.held[lane] += 1;
            }
        }
    }

    /// Builds or drops the waiting dumps, oldest first, up to the last
    /// one whose events reach back before read `front` — the ring is
    /// about to drop the reads before it. A dump is built only if it is
    /// still among the first [`FlightRecorder::MAX_DUMPS`] in lane order;
    /// otherwise the merged registry would drop it, and it is dropped
    /// here unbuilt. `front = u64::MAX` settles every waiting dump.
    fn settle(&mut self, front: u64) {
        let Some(due) = self
            .pending
            .iter()
            .rposition(|dump| dump.mark.reads.saturating_sub(dump.kept as u64) < front)
        else {
            return;
        };
        let held = &self.held;
        let built: Vec<PendingDump> = self
            .pending
            .drain(..=due)
            .filter(|dump| {
                let ahead: usize = held[..dump.lane].iter().sum();
                ahead + dump.index < FlightRecorder::MAX_DUMPS
            })
            .collect();
        let wanted: Vec<_> = built.iter().map(|d| (d.lane, d.kept, d.mark)).collect();
        for (dump, events) in built.iter().zip(self.ring.tails(&wanted)) {
            self.dumps[dump.lane].push(Dump {
                at: dump.at,
                trigger: DumpTrigger::AlarmRaised { comm: dump.comm },
                events,
            });
        }
    }

    /// Writes the group's totals to `sink` once the run is over:
    /// `kernel` (the counts the kernel keeps, summed over the lanes), the
    /// tallied counters and the vote histogram — nonzero totals only, so
    /// the registry has an entry exactly where per-event counting would
    /// have made one — and then everything [`GroupObs::restore`] writes.
    ///
    /// The totals are the sums of the lanes': counters and histogram
    /// buckets add, and the histogram's sum is a sum of integers (exact
    /// in `f64`).
    pub(crate) fn flush<M: MetricsSink + ?Sized>(
        &mut self,
        sink: &mut M,
        kernel: [(&'static str, u64); 5],
    ) {
        let sum = |key| self.counts.sum(key, self.all);
        let per_vote: Vec<u64> = (0..self.exactly.len()).map(|k| sum(PER_VOTE + k)).collect();
        let ok = per_vote
            .iter()
            .enumerate()
            .map(|(k, &n)| k as u64 * n)
            .sum();
        let silent = per_vote[0];
        let votes = self.reads * u64::from(self.all.count_ones());
        let unanimous = votes - silent - sum(VOTE_MAJORITY) - sum(VOTE_TIE);
        let drops = (DROP_SILENT..=DROP_EXCLUDED).map(sum).sum();
        let counters = kernel
            .into_iter()
            .chain([
                (names::REPLICA_OK, ok),
                (names::REPLICA_DROP, drops),
                (names::VOTE_UNANIMOUS, unanimous),
                (names::VOTE_SILENT, silent),
            ])
            .chain(TALLIED.iter().map(|&(name, key)| (name, sum(key))));
        for (name, v) in counters {
            if v != 0 {
                sink.add(name, v);
            }
        }
        for (k, &count) in per_vote.iter().enumerate() {
            if count != 0 {
                sink.observe_n(names::REPLICAS_PER_VOTE, k as f64, count);
            }
        }
        self.restore(sink);
    }

    /// Writes the state per-event observation keeps current, so a panic
    /// unwinding through the kernel leaves it behind too: the monitor's
    /// counters, the last lane's hosts-up gauge (a merge keeps the last
    /// gauge) and, when the sink records, the recorder state that
    /// survives the merge of the one-lane sinks — lane 0's rebuilt ring,
    /// every lane's evictions, and the alarm dumps in lane order (the
    /// recorder keeps the first [`FlightRecorder::MAX_DUMPS`]).
    fn restore<M: MetricsSink + ?Sized>(&mut self, sink: &mut M) {
        for (name, key) in [
            (names::ALARM_RAISED, ALARM_RAISED),
            (names::ALARM_CLEARED, ALARM_CLEARED),
            (names::DEGRADER_ENGAGED, DEGRADER_ENGAGED),
            (names::MODE_SWITCH, MODE_SWITCH),
        ] {
            let v = self.counts.sum(key, self.all);
            if v != 0 {
                sink.add(name, v);
            }
        }
        let last = 1u64 << (63 - self.all.leading_zeros());
        let up = self.host_up.iter().filter(|&&m| m & last != 0).count();
        sink.set_gauge(names::HOSTS_UP, up as f64);
        if !self.recording {
            return;
        }
        let Some(rec) = sink.flight_recorder() else {
            return;
        };
        let evicted = (0..self.verbatim.len())
            .map(|lane| {
                let (events, kept) = self.events(lane);
                events - kept as u64
            })
            .sum();
        let (_, kept) = self.events(0);
        rec.install_ring(self.ring.tail(0, kept).into(), evicted);
        self.settle(u64::MAX);
        for dump in self.dumps.iter_mut().flat_map(std::mem::take) {
            rec.install_dump(dump.at, dump.trigger, dump.events);
        }
    }

    /// Lane `lane`'s events so far, and how many of the last of them its
    /// recorder holds.
    fn events(&self, lane: usize) -> (u64, usize) {
        let get = |key| self.counts.get(key, lane);
        let events = self.reads
            + (DROP_HOST..=DROP_EXCLUDED).map(get).sum::<u64>()
            + get(HOST_UP)
            + get(HOST_DOWN)
            + self.verbatim[lane];
        (events, events.min(self.capacity as u64) as usize)
    }

    /// Moves the open read's replica events — a panic cut the read short
    /// before its vote — into the ring as verbatim events, where the
    /// tallies already count them.
    fn close_unwound_read(&mut self) {
        if self.recording {
            for lane in 0..self.verbatim.len() {
                let bit = 1u64 << lane;
                let mut events = VecDeque::new();
                for rep in self.open.iter().rev() {
                    rep.lane_events_rev(self.at, self.task, self.exec, bit, |e| {
                        events.push_front(e)
                    });
                }
                for event in events {
                    self.ring.push_verbatim(lane, event);
                }
            }
        }
        self.open.clear();
    }

    /// [`GroupObs::restore`] to `sink`, after a panic interrupted the run.
    pub(crate) fn unwind<M: MetricsSink + ?Sized>(&mut self, sink: &mut M) {
        self.close_unwound_read();
        self.restore(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_obs::Registry;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random lane mask over `all`: full with probability `1 - noise`,
    /// else empty, near-full or random.
    fn mask(rng: &mut StdRng, all: u64, noise: f64) -> u64 {
        if !rng.gen_bool(noise) {
            return all;
        }
        match rng.gen_range(0..3) {
            0 => 0,
            1 => all & !(1 << rng.gen_range(0..all.count_ones())),
            _ => all & rng.gen::<u64>(),
        }
    }

    /// One step of a group run as the kernel drives [`GroupObs`].
    enum Step {
        Read {
            at: u64,
            task: usize,
            exec: u64,
            replicas: Vec<ReplicaMasks>,
            outcomes: Option<[u64; 2]>,
        },
        Event(usize, ObsEvent),
    }

    /// Whether replica `r` delivers on lane `bit` of a read on `exec`.
    fn delivers(r: &ReplicaMasks, exec: u64, bit: u64) -> bool {
        exec & r.host_ok & r.bc_ok & r.warm & !r.excluded & bit != 0
    }

    fn random_steps(
        rng: &mut StdRng,
        width: usize,
        len: usize,
        noise: f64,
        corrupting: bool,
    ) -> Vec<Step> {
        let all = if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        (0..len as u64)
            .map(|i| {
                if rng.gen_bool(0.1) {
                    let at = i * 10;
                    let event = match rng.gen_range(0..4) {
                        0 => ObsEvent::AlarmRaised {
                            at,
                            comm: rng.gen_range(0..3),
                            mean: 0.5,
                            epsilon: 0.25,
                            lrc: 0.9,
                        },
                        1 => ObsEvent::AlarmCleared {
                            at,
                            comm: rng.gen_range(0..3),
                            mean: 0.95,
                        },
                        2 => ObsEvent::DegraderEngaged { at, rule: 1 },
                        _ => ObsEvent::ModeSwitch {
                            at,
                            event: "7".into(),
                        },
                    };
                    return Step::Event(rng.gen_range(0..width), event);
                }
                let exec = mask(rng, all, noise);
                let replicas: Vec<ReplicaMasks> = (0..rng.gen_range(1..=4))
                    .map(|_| ReplicaMasks {
                        host: rng.gen_range(0..3),
                        host_ok: mask(rng, all, noise),
                        bc_ok: mask(rng, all, noise),
                        warm: mask(rng, all, noise),
                        excluded: !mask(rng, all, noise) & all,
                    })
                    .collect();
                // Each delivering lane's vote: unanimous, majority or tie.
                let outcomes = corrupting.then(|| {
                    let mut outcomes = [0; 2];
                    for lane in 0..width {
                        let bit = 1 << lane;
                        let slot = rng.gen_range(0..3);
                        if slot < 2 && replicas.iter().any(|r| delivers(r, exec, bit)) {
                            outcomes[slot] |= bit;
                        }
                    }
                    outcomes
                });
                Step::Read {
                    at: i * 10,
                    task: rng.gen_range(0..5),
                    exec,
                    replicas,
                    outcomes,
                }
            })
            .collect()
    }

    /// One lane's own sink, fed event by event: the events go to `sink`
    /// as they happen (its recorder dumps at each alarm), and the counters
    /// wait in `counters` for the end of a completed run.
    struct LaneOracle {
        sink: Registry,
        counters: Registry,
        host_up: [bool; 3],
    }

    impl LaneOracle {
        fn new(sink: Registry) -> Self {
            LaneOracle {
                sink,
                counters: Registry::new(),
                host_up: [true; 3],
            }
        }

        fn push(&mut self, event: ObsEvent) {
            self.sink.event(&event);
        }

        fn replica(&mut self, at: u64, task: usize, exec: u64, r: &ReplicaMasks, bit: u64) -> bool {
            let host_ok = r.host_ok & bit != 0;
            let bc_ok = r.bc_ok & bit != 0;
            if self.host_up[r.host] != host_ok {
                self.host_up[r.host] = host_ok;
                let host = r.host;
                if host_ok {
                    self.counters.inc(names::HOST_UP_TRANSITIONS);
                    self.push(ObsEvent::HostUp { at, host });
                } else {
                    self.counters.inc(names::HOST_DOWN_TRANSITIONS);
                    self.push(ObsEvent::HostDown { at, host });
                }
            }
            if host_ok && !bc_ok {
                self.counters.inc(names::BROADCAST_FAIL);
            }
            let (name, reason) = if exec & bit == 0 {
                (names::REPLICA_DROP_SILENT, DropReason::NotExecuted)
            } else if !host_ok {
                (names::REPLICA_DROP_HOST, DropReason::HostDown)
            } else if !bc_ok {
                (names::REPLICA_DROP_BROADCAST, DropReason::Broadcast)
            } else if r.warm & bit == 0 {
                (names::REPLICA_DROP_WARMUP, DropReason::Warmup)
            } else if r.excluded & bit != 0 {
                (names::REPLICA_DROP_EXCLUDED, DropReason::Excluded)
            } else {
                self.counters.inc(names::REPLICA_OK);
                return true;
            };
            self.counters.inc(names::REPLICA_DROP);
            self.counters.inc(name);
            if reason != DropReason::NotExecuted {
                let host = r.host;
                self.push(ObsEvent::ReplicaDrop {
                    at,
                    task,
                    host,
                    reason,
                });
            }
            false
        }

        /// The lane's sink at the end of the run: the counters of a
        /// completed run (an unwound one writes none of the kernel's) and
        /// the hosts-up gauge.
        fn finish(mut self, completed: bool) -> Registry {
            if completed {
                self.sink.merge(self.counters);
            }
            let ups = self.host_up.iter().filter(|&&up| up).count();
            self.sink.set_gauge(names::HOSTS_UP, ups as f64);
            self.sink
        }
    }

    /// A panic after the replicas `.1` of one more read on `.0` were
    /// drawn.
    type Unwound = Option<(u64, Vec<ReplicaMasks>)>;

    fn random_unwound(rng: &mut StdRng, width: usize, noise: f64) -> Unwound {
        let all = if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        let exec = mask(rng, all, noise);
        let replicas = (0..rng.gen_range(0..=3))
            .map(|_| ReplicaMasks {
                host: rng.gen_range(0..3),
                host_ok: mask(rng, all, 0.3),
                bc_ok: mask(rng, all, 0.3),
                warm: all,
                excluded: 0,
            })
            .collect();
        Some((exec, replicas))
    }

    /// Drives the steps of a group run of `width` lanes reporting to
    /// `sink`, as the kernel does.
    fn drive(steps: &[Step], width: usize, sink: &mut Registry) -> GroupObs {
        let mut obs = GroupObs::new(sink, width, 3, 4);
        for step in steps {
            match step {
                Step::Read {
                    at,
                    task,
                    exec,
                    replicas,
                    outcomes,
                } => {
                    obs.begin_read(*at, *task, *exec);
                    for r in replicas {
                        obs.replica(*r);
                    }
                    obs.vote(*outcomes);
                }
                Step::Event(lane, event) => obs.event(*lane, event, sink),
            }
        }
        obs
    }

    /// Ends a driven run: flushed, or unwound by a panic.
    fn finish(mut obs: GroupObs, sink: &mut Registry, unwound: &Unwound) {
        match unwound {
            Some((exec, replicas)) => {
                obs.begin_read(1 << 40, 0, *exec);
                for r in replicas {
                    obs.replica(*r);
                }
                obs.unwind(sink);
            }
            None => obs.flush(sink, [(names::ROUNDS, 0); 5]),
        }
    }

    /// No recorder, or one of capacity 1, 2, 7 or 256, possibly holding
    /// events and alarm dumps from before the run.
    fn random_sink(rng: &mut StdRng) -> Registry {
        let mut sink = match rng.gen_range(0..5) {
            0 => Registry::new(),
            k => Registry::with_recorder([1, 2, 7, 256][k - 1]),
        };
        for at in 0..rng.gen_range(0..3) {
            sink.event(&ObsEvent::HostUp { at, host: 9 });
        }
        if rng.gen_bool(0.2) {
            for at in 0..rng.gen_range(1..=FlightRecorder::MAX_DUMPS) as u64 {
                sink.event(&alarm(at));
            }
        }
        sink
    }

    fn alarm(at: u64) -> ObsEvent {
        ObsEvent::AlarmRaised {
            at,
            comm: 0,
            mean: 0.5,
            epsilon: 0.25,
            lrc: 0.9,
        }
    }

    /// Runs `steps` over `width` lanes reporting to a copy of `sink`, and
    /// checks the one contract against the per-event oracle: the group
    /// sink equals, as a whole `Registry`, the lanes' own sinks merged in
    /// lane order — lane 0's continuing `sink`, every other lane's an
    /// empty sink of its shape, each fed its lane's events one at a time.
    fn check_against_lane_oracles(
        steps: &[Step],
        width: usize,
        sink: &Registry,
        unwound: &Unwound,
    ) {
        let mut group = sink.clone();
        let obs = drive(steps, width, &mut group);
        finish(obs, &mut group, unwound);

        let empty = match sink.recorder() {
            Some(rec) => Registry::with_recorder(rec.capacity()),
            None => Registry::new(),
        };
        let mut oracles: Vec<LaneOracle> = (0..width)
            .map(|lane| {
                LaneOracle::new(if lane == 0 {
                    sink.clone()
                } else {
                    empty.clone()
                })
            })
            .collect();
        for step in steps {
            match step {
                Step::Read {
                    at,
                    task,
                    exec,
                    replicas,
                    outcomes,
                } => {
                    for (lane, oracle) in oracles.iter_mut().enumerate() {
                        let bit = 1 << lane;
                        let delivered = replicas
                            .iter()
                            .filter(|r| oracle.replica(*at, *task, *exec, r, bit))
                            .count();
                        let outcome = match outcomes {
                            _ if delivered == 0 => VoteOutcome::Silent,
                            Some([m, _]) if m & bit != 0 => VoteOutcome::Majority,
                            Some([_, t]) if t & bit != 0 => VoteOutcome::Tie,
                            _ => VoteOutcome::Unanimous,
                        };
                        let name = match outcome {
                            VoteOutcome::Unanimous => names::VOTE_UNANIMOUS,
                            VoteOutcome::Majority => names::VOTE_MAJORITY,
                            VoteOutcome::Tie => names::VOTE_TIE,
                            VoteOutcome::Silent => names::VOTE_SILENT,
                        };
                        oracle.counters.inc(name);
                        oracle
                            .counters
                            .observe(names::REPLICAS_PER_VOTE, delivered as f64);
                        oracle.push(ObsEvent::Vote {
                            at: *at,
                            task: *task,
                            outcome,
                            delivered,
                            replicas: replicas.len(),
                        });
                    }
                }
                Step::Event(lane, event) => oracles[*lane].push(event.clone()),
            }
        }
        if let Some((exec, replicas)) = unwound {
            for r in replicas {
                for (lane, oracle) in oracles.iter_mut().enumerate() {
                    oracle.replica(1 << 40, 0, *exec, r, 1 << lane);
                }
            }
        }
        let mut lanes = oracles.into_iter().map(|o| o.finish(unwound.is_none()));
        let mut merged = lanes.next().expect("one lane at least");
        for lane in lanes {
            merged.merge(lane);
        }
        assert_eq!(group, merged, "width {width}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The group sink — counters, the vote histogram, the hosts-up
        /// gauge, lane 0's live ring, the evictions and the dumps — against
        /// the lanes' own sinks fed every event one at a time and merged
        /// in lane order, at widths 1, 7, 64 and any other, after a
        /// completed run or after a panic cut the last read short.
        #[test]
        fn group_ring_matches_per_lane_recorders(
            seed in any::<u64>(),
            width in prop_oneof![Just(1usize), Just(7usize), Just(64usize), 1usize..=64],
            len in 0usize..=700,
            corrupting in any::<bool>(),
            unwound in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Quiet runs give lanes long stretches of reads whose only
            // event is the vote, where the ring must keep exactly as many
            // reads as the recorder holds events.
            let noise = [0.0, 0.01, 0.3][rng.gen_range(0..3)];
            let steps = random_steps(&mut rng, width, len, noise, corrupting);
            let sink = random_sink(&mut rng);
            let unwound = if unwound { random_unwound(&mut rng, width, noise) } else { None };
            check_against_lane_oracles(&steps, width, &sink, &unwound);
        }
    }

    /// The dump cap's edge: lane 1 alarms early, lane 0 reaches exactly
    /// [`FlightRecorder::MAX_DUMPS`] dumps in the middle of the run, and
    /// later alarms on lanes 1 and 2 get no dump. Lane 1's early dump,
    /// pushed past the cap by lane 0's, is dropped unbuilt — the group
    /// sink still equals the merged lane sinks, which keep lane 0's dumps
    /// only.
    #[test]
    fn group_dumps_stop_at_the_cap() {
        let read = |at| Step::Read {
            at,
            task: 0,
            exec: 0b111,
            replicas: vec![ReplicaMasks {
                host: 0,
                host_ok: 0b111,
                bc_ok: 0b111,
                warm: 0b111,
                excluded: 0,
            }],
            outcomes: None,
        };
        let mut steps = vec![read(0), Step::Event(1, alarm(0))];
        for at in 1..=FlightRecorder::MAX_DUMPS as u64 {
            steps.push(read(at * 10));
            steps.push(Step::Event(0, alarm(at * 10)));
        }
        steps.push(Step::Event(2, alarm(100)));
        steps.push(Step::Event(1, alarm(100)));
        let sink = Registry::with_recorder(4);
        check_against_lane_oracles(&steps, 3, &sink, &None);

        let mut group = sink.clone();
        let mut obs = drive(&steps, 3, &mut group);
        obs.settle(u64::MAX);
        let built: Vec<usize> = obs.dumps.iter().map(Vec::len).collect();
        assert_eq!(built, [FlightRecorder::MAX_DUMPS, 0, 0]);
        finish(obs, &mut group, &None);
        let dumps = group.recorder().unwrap().dumps();
        assert!(dumps
            .iter()
            .all(|d| d.events.last().is_some_and(|e| e.at() >= 10)));
    }
}
