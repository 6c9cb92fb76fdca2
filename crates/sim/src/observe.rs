//! Lane-group observation: the counters, the vote histogram and the
//! flight-recorder events of a group run, kept once per group.
//!
//! The kernel ([`crate::bitslice`]) already holds each replica's draw
//! outcomes as lane masks — host up, broadcast delivered, warm, excluded
//! — so [`GroupObs`] counts with [`MaskTally`]s over those masks instead
//! of bumping per-lane counters, and writes the totals to the sinks once,
//! at the end of the run.
//!
//! A sink observes a *set* of lanes ([`LaneSets`]). On the public entry
//! points every lane's sink observes that lane alone. A campaign unit is
//! one set: one sink receives the totals summed over its lanes, and ends
//! up as the lanes' singleton sinks merged in lane order would — so the
//! group builds only what survives that merge.
//!
//! Events take the same route. Each task read pushes one record into a
//! single group ring ([`GroupRing`]): the instant, the task, the
//! executing lanes, the lanes on which a replica made an event of its
//! own and, only when there are any, each replica's host and masks (plus
//! the vote outcome masks on the corrupting path). What the group
//! monitor fires for one lane — alarm transitions, engaged degradation
//! rules and their mode switches — reaches the ring verbatim, tagged with
//! its lane, through [`GroupObs::fired`]. A lane's flight recorder is
//! rebuilt from the ring only where someone can look at it: at each of
//! its alarms (the automatic dump, while the lanes of its set up to it
//! hold fewer than [`FlightRecorder::MAX_DUMPS`] dumps), and at the end
//! of the run or when a panic unwinds through the kernel — for the one
//! recording lane whose ring a set's sink keeps.
//!
//! Every task read gives every lane at least one event, its vote, so the
//! last `c` task records (and the verbatim events after the oldest of
//! them) hold each lane's last `c` events: the ring keeps at least as
//! many records as the largest recorder holds events.

use crate::bitslice::MaskTally;
use crate::monitor::{AlarmKind, Fired};
use logrel_obs::{
    names, DropReason, Dump, DumpTrigger, FlightRecorder, MetricsSink, ObsEvent, VoteOutcome,
};
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

/// The event ring of a lane group: at least the last `keep` task reads,
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
}

impl GroupRing {
    /// Sets the number of reads to keep: the largest recorder capacity.
    fn set_keep(&mut self, keep: usize) {
        self.keep = keep;
        self.slack = (keep / 8).max(1);
        // Room for the reads and a few verbatim events among them.
        self.entries.reserve(keep + 2 * self.slack);
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
        if self.evicted > self.replicas.len() / 2 {
            self.replicas.drain(..self.evicted);
            self.evicted = 0;
        }
    }

    fn push_verbatim(&mut self, lane: usize, event: ObsEvent) {
        self.entries.push_back(Entry::Verbatim { lane, event });
    }

    /// Lane `lane`'s last `count` events (fewer if the ring holds fewer),
    /// oldest first: made newest first, walking back from the newest
    /// entry — a read's vote, then its replicas' events from the last
    /// replica back.
    fn tail(&self, lane: usize, count: usize) -> VecDeque<ObsEvent> {
        let bit = 1u64 << lane;
        let mut events = VecDeque::with_capacity(count);
        let mut end = self.replicas.len();
        for entry in self.entries.iter().rev() {
            if events.len() >= count {
                break;
            }
            match entry {
                Entry::Verbatim { lane: l, event } => {
                    if *l == lane {
                        events.push_front(event.clone());
                    }
                }
                Entry::Read(read) => {
                    let start = end - read.stored();
                    let replicas = &self.replicas[start..end];
                    end = start;
                    events.push_front(read.vote(replicas.iter(), lane));
                    if read.noisy & bit != 0 {
                        for rep in replicas.iter().rev() {
                            rep.lane_events_rev(read.at, read.task, read.exec, bit, |event| {
                                if events.len() < count {
                                    events.push_front(event);
                                }
                            });
                        }
                    }
                }
            }
        }
        events
    }
}

/// Which lanes each sink of a group run observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneSets {
    /// Every lane's sink observes that lane alone: the public entry
    /// points, whose callers read each lane's sink.
    Singletons,
    /// One sink observes every lane — the first recording lane's, else
    /// the first observed lane's — and ends up as the registry the
    /// lanes' singleton sinks merge into, in lane order. Every other sink
    /// is left as it came. A campaign unit's sets (see
    /// [`GroupObs::flush`]).
    Whole,
}

/// The observation state of one lane-group run: counters and the vote
/// histogram as [`MaskTally`]s, each host's up mask, the group event
/// ring and the alarm dumps built so far. See the module docs.
#[derive(Debug)]
pub(crate) struct GroupObs {
    sets: LaneSets,
    all: u64,
    /// Lanes whose sink is enabled.
    observed: u64,
    /// Lanes whose sink carries a flight recorder, and each lane's
    /// recorder capacity.
    recording: u64,
    capacity: Vec<usize>,
    counts: MaskTally,
    /// Task reads tallied so far.
    reads: u64,
    /// Per lane: events that reached the ring verbatim.
    verbatim: Vec<u64>,
    /// Per lane: the dumps its recorder holds, and those built in this
    /// run, which reach the recorder with the rest of the lane's state.
    held: Vec<usize>,
    dumps: Vec<Vec<Dump>>,
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

/// The lanes of `mask`, in order.
fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

impl GroupObs {
    /// The observation state of a group over `sinks` (one per lane), on
    /// `hosts` hosts with tasks of at most `max_replicas` replicas, each
    /// sink observing `sets`. A recorder's events from before the run
    /// enter the ring first, so its rebuilt ring continues them.
    pub(crate) fn new<'m, M: MetricsSink + 'm>(
        sinks: impl ExactSizeIterator<Item = &'m mut M>,
        hosts: usize,
        max_replicas: usize,
        sets: LaneSets,
    ) -> Self {
        let n = sinks.len();
        let all = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let mut obs = GroupObs {
            sets,
            all,
            observed: 0,
            recording: 0,
            capacity: vec![0; n],
            counts: MaskTally::new(0, n),
            reads: 0,
            verbatim: vec![0; n],
            held: vec![0; n],
            dumps: (0..n).map(|_| Vec::new()).collect(),
            host_up: Vec::new(),
            at: 0,
            task: 0,
            exec: 0,
            noisy: 0,
            open: Vec::with_capacity(max_replicas),
            exactly: vec![0; max_replicas + 1],
            ring: GroupRing::default(),
        };
        for (lane, sink) in sinks.enumerate() {
            if !sink.enabled() {
                continue;
            }
            obs.observed |= 1 << lane;
            if let Some(rec) = sink.flight_recorder() {
                obs.recording |= 1 << lane;
                obs.capacity[lane] = rec.capacity();
                obs.held[lane] = rec.dumps().len();
                for event in rec.events() {
                    obs.ring.push_verbatim(lane, event.clone());
                    obs.verbatim[lane] += 1;
                }
            }
        }
        if obs.observed != 0 {
            obs.counts = MaskTally::new(PER_VOTE + max_replicas + 1, n);
            obs.host_up = vec![all; hosts];
            obs.ring
                .set_keep(obs.capacity.iter().copied().max().unwrap_or(0));
        }
        obs
    }

    /// Whether any lane is observed.
    pub(crate) fn enabled(&self) -> bool {
        self.observed != 0
    }

    /// The lanes lane `lane`'s sink observes (none when another lane's
    /// sink observes them, or the lane is not observed).
    fn set(&self, lane: usize) -> u64 {
        let first = match self.recording {
            0 => self.observed,
            recording => recording,
        };
        match self.sets {
            LaneSets::Singletons => self.observed & 1 << lane,
            LaneSets::Whole if first.trailing_zeros() as usize == lane => self.observed,
            LaneSets::Whole => 0,
        }
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
        if self.recording != 0 {
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
            self.ring.push_read(read, &self.open);
        }
        self.open.clear();
    }

    /// Takes what the group monitor fired on lane `lane`, whose sink is
    /// `sink`: its counters are tallied for the lane's set, and its
    /// events go the way of [`GroupObs::event`] — an alarm transition's,
    /// or an engaged rule's followed by its mode switch, if any.
    pub(crate) fn fired<M: MetricsSink + ?Sized>(
        &mut self,
        lane: usize,
        fired: Fired<'_>,
        sink: &mut M,
    ) {
        let bit = 1u64 << lane;
        if self.observed & bit == 0 {
            return;
        }
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

    /// Takes `event`, fired by the monitor for lane `lane` whose sink is
    /// `sink`: into the ring when the lane records, else to the sink
    /// when the sink observes the lane alone (a recorder-less lane of a
    /// whole-group set keeps no events, as a recorder-less registry
    /// keeps none). An alarm builds the lane's dump from the ring, unless
    /// the lanes of its set up to it already hold
    /// [`FlightRecorder::MAX_DUMPS`] dumps: the set's registry keeps only
    /// the first that many, in lane order.
    fn event<M: MetricsSink + ?Sized>(&mut self, lane: usize, event: &ObsEvent, sink: &mut M) {
        if self.recording & (1 << lane) == 0 {
            if self.sets == LaneSets::Singletons {
                sink.event(event);
            }
            return;
        }
        self.ring.push_verbatim(lane, event.clone());
        self.verbatim[lane] += 1;
        if let ObsEvent::AlarmRaised { at, comm, .. } = *event {
            // The lanes of its set up to this one.
            let upto = match self.sets {
                LaneSets::Singletons => 1 << lane,
                LaneSets::Whole => self.observed & (u64::MAX >> (63 - lane)),
            };
            let held: usize = lanes_of(upto).map(|l| self.held[l]).sum();
            if held < FlightRecorder::MAX_DUMPS {
                let (_, kept) = self.events(lane);
                self.dumps[lane].push(Dump {
                    at,
                    trigger: DumpTrigger::AlarmRaised { comm },
                    events: self.ring.tail(lane, kept).into(),
                });
                self.held[lane] += 1;
            }
        }
    }

    /// Writes each set's totals to the sink observing it once the run is
    /// over: `kernel(set)` (the counts the group keeps for every lane,
    /// summed over the set), the tallied counters and the vote histogram
    /// — nonzero totals only, so the registry has an entry exactly where
    /// per-event counting would have made one — and then everything
    /// [`GroupObs::restore`] writes.
    ///
    /// A set's totals are the sums of its lanes': counters and histogram
    /// buckets add, the histogram's sum is a sum of integers (exact in
    /// `f64`), and gauges take the last lane's value — so a whole-group
    /// sink ends up as its lanes' singleton sinks merged in lane order.
    pub(crate) fn flush<'m, M: MetricsSink + 'm>(
        &mut self,
        sinks: impl Iterator<Item = &'m mut M>,
        kernel: impl Fn(u64) -> [(&'static str, u64); 5],
    ) {
        for (lane, sink) in sinks.enumerate() {
            let set = self.set(lane);
            if set == 0 {
                continue;
            }
            let sum = |key| self.counts.sum(key, set);
            let per_vote: Vec<u64> = (0..self.exactly.len()).map(|k| sum(PER_VOTE + k)).collect();
            let ok = per_vote
                .iter()
                .enumerate()
                .map(|(k, &n)| k as u64 * n)
                .sum();
            let silent = per_vote[0];
            let votes = self.reads * u64::from(set.count_ones());
            let unanimous = votes - silent - sum(VOTE_MAJORITY) - sum(VOTE_TIE);
            let drops = (DROP_SILENT..=DROP_EXCLUDED).map(sum).sum();
            let counters = kernel(set)
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
            self.restore(lane, set, sink);
        }
    }

    /// Writes the state per-event observation keeps current, so a panic
    /// unwinding through the kernel leaves it behind too, for the lanes
    /// `set` to lane `lane`'s sink `sink`: the monitor's counters, the last
    /// lane's hosts-up gauge and, when the set records, the recorder
    /// state that survives a merge of the set's singleton sinks — the
    /// first recording lane's (this sink's) rebuilt ring, every recording
    /// lane's evictions, and their alarm dumps in lane order (the
    /// recorder keeps the first [`FlightRecorder::MAX_DUMPS`]).
    fn restore<M: MetricsSink + ?Sized>(&mut self, lane: usize, set: u64, sink: &mut M) {
        for (name, key) in [
            (names::ALARM_RAISED, ALARM_RAISED),
            (names::ALARM_CLEARED, ALARM_CLEARED),
            (names::DEGRADER_ENGAGED, DEGRADER_ENGAGED),
            (names::MODE_SWITCH, MODE_SWITCH),
        ] {
            let v = self.counts.sum(key, set);
            if v != 0 {
                sink.add(name, v);
            }
        }
        let last = 1u64 << (63 - set.leading_zeros());
        let up = self.host_up.iter().filter(|&&m| m & last != 0).count();
        sink.set_gauge(names::HOSTS_UP, up as f64);
        let recording = self.recording & set;
        if recording == 0 {
            return;
        }
        debug_assert_eq!(recording.trailing_zeros() as usize, lane);
        let Some(rec) = sink.flight_recorder() else {
            return;
        };
        let evicted = lanes_of(recording)
            .map(|l| {
                let (events, kept) = self.events(l);
                events - kept as u64
            })
            .sum();
        let (_, kept) = self.events(lane);
        rec.install_ring(self.ring.tail(lane, kept), evicted);
        for l in lanes_of(recording) {
            for dump in std::mem::take(&mut self.dumps[l]) {
                rec.install_dump(dump.at, dump.trigger, dump.events);
            }
        }
    }

    /// Recording lane `lane`'s events so far, and how many of the last of
    /// them its recorder holds.
    fn events(&self, lane: usize) -> (u64, usize) {
        let get = |key| self.counts.get(key, lane);
        let events = self.reads
            + (DROP_HOST..=DROP_EXCLUDED).map(get).sum::<u64>()
            + get(HOST_UP)
            + get(HOST_DOWN)
            + self.verbatim[lane];
        (events, events.min(self.capacity[lane] as u64) as usize)
    }

    /// Moves the open read's replica events — a panic cut the read short
    /// before its vote — into the ring as verbatim events, where the
    /// tallies already count them.
    fn close_unwound_read(&mut self) {
        for lane in lanes_of(self.recording) {
            let bit = 1u64 << lane;
            let mut events = VecDeque::new();
            for rep in self.open.iter().rev() {
                rep.lane_events_rev(self.at, self.task, self.exec, bit, |e| events.push_front(e));
            }
            for event in events {
                self.ring.push_verbatim(lane, event);
            }
        }
        self.open.clear();
    }

    /// [`GroupObs::restore`] for every set of `sinks`, after a panic
    /// interrupted the run.
    pub(crate) fn unwind<'m, M: MetricsSink + 'm>(
        &mut self,
        sinks: impl Iterator<Item = &'m mut M>,
    ) {
        self.close_unwound_read();
        for (lane, sink) in sinks.enumerate() {
            let set = self.set(lane);
            if set != 0 {
                self.restore(lane, set, sink);
            }
        }
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

    /// The events and counters one lane's own sink receives when the
    /// kernel observes it event by event.
    struct LaneOracle {
        recorder: Option<FlightRecorder>,
        host_up: [bool; 3],
        counters: Registry,
    }

    impl LaneOracle {
        fn push(&mut self, event: ObsEvent) {
            if let Some(rec) = &mut self.recorder {
                rec.push(event);
            }
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

    /// Drives a group run of `steps` over `sinks`, each observing `sets`,
    /// as the kernel does: flushed at the end, or unwound by a panic.
    fn drive(steps: &[Step], sinks: &mut [Registry], sets: LaneSets, unwound: &Unwound) {
        let mut obs = GroupObs::new(sinks.iter_mut(), 3, 4, sets);
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
                Step::Event(lane, event) => obs.event(*lane, event, &mut sinks[*lane]),
            }
        }
        match unwound {
            Some((exec, replicas)) => {
                obs.begin_read(1 << 40, 0, *exec);
                for r in replicas {
                    obs.replica(*r);
                }
                obs.unwind(sinks.iter_mut());
            }
            None => obs.flush(sinks.iter_mut(), |_| [(names::ROUNDS, 0); 5]),
        }
    }

    /// Per lane: no recorder, or one of capacity 1, 2, 7 or 256 up to a
    /// random largest, possibly holding events from before the run.
    fn random_sinks(rng: &mut StdRng, width: usize) -> Vec<Registry> {
        let capacities = [1, 2, 7, 256];
        let largest = rng.gen_range(0..capacities.len());
        (0..width)
            .map(|_| {
                let capacity = match rng.gen_range(0..5) {
                    0 => 0,
                    1 | 2 => capacities[largest],
                    _ => capacities[rng.gen_range(0..=largest)],
                };
                let mut sink = if capacity == 0 {
                    Registry::new()
                } else {
                    Registry::with_recorder(capacity)
                };
                for at in 0..rng.gen_range(0..3) {
                    sink.event(&ObsEvent::HostUp { at, host: 9 });
                }
                sink
            })
            .collect()
    }

    /// `sinks` merged in order into `into`.
    fn merged(mut into: Registry, sinks: Vec<Registry>) -> Registry {
        for sink in sinks {
            into.merge(sink);
        }
        into
    }

    /// A whole-group run of `steps` against the same run's singleton
    /// sinks merged in lane order: equal registries — counters, gauges,
    /// histograms, the first recording lane's live ring, the evictions
    /// and the dumps — merged into an empty registry and into one with a
    /// recorder of its own, and every sink but the observing one left as
    /// it came.
    fn check_whole_matches_singletons(steps: &[Step], sinks: &[Registry], unwound: &Unwound) {
        let mut singletons = sinks.to_vec();
        drive(steps, &mut singletons, LaneSets::Singletons, unwound);
        let mut whole = sinks.to_vec();
        drive(steps, &mut whole, LaneSets::Whole, unwound);
        let target = whole
            .iter()
            .position(|s| s.recorder().is_some())
            .unwrap_or(0);
        for (lane, (after, before)) in whole.iter().zip(sinks).enumerate() {
            if lane != target {
                assert_eq!(after, before, "lane {} sink left as it came", lane);
            }
        }
        for into in [Registry::new(), Registry::with_recorder(5)] {
            assert_eq!(
                merged(into.clone(), whole.clone()),
                merged(into, singletons.clone())
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The group ring, rebuilt per lane, against plain per-lane
        /// flight recorders fed every event one at a time: equal dumps,
        /// live rings, eviction counts, counters and hosts-up gauges on
        /// every lane — after a completed run, or after a panic cut the
        /// last read short.
        #[test]
        fn group_ring_matches_per_lane_recorders(
            seed in any::<u64>(),
            width in 1usize..=64,
            len in 0usize..=700,
            corrupting in any::<bool>(),
            unwound in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Quiet runs give lanes long stretches of reads whose only
            // event is the vote, where the ring must keep exactly as many
            // reads as the largest recorder holds events.
            let noise = [0.0, 0.01, 0.3][rng.gen_range(0..3)];
            let steps = random_steps(&mut rng, width, len, noise, corrupting);
            let mut sinks = random_sinks(&mut rng, width);
            let unwound = if unwound { random_unwound(&mut rng, width, noise) } else { None };
            let mut oracles: Vec<_> = sinks
                .iter()
                .map(|sink| {
                    let recorder = sink.recorder().cloned();
                    LaneOracle { recorder, host_up: [true; 3], counters: Registry::new() }
                })
                .collect();
            drive(&steps, &mut sinks, LaneSets::Singletons, &unwound);

            for step in &steps {
                match step {
                    Step::Read { at, task, exec, replicas, outcomes } => {
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
                            oracle.counters.observe(names::REPLICAS_PER_VOTE, delivered as f64);
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
            if let Some((exec, replicas)) = &unwound {
                for r in replicas {
                    for (lane, oracle) in oracles.iter_mut().enumerate() {
                        oracle.replica(1 << 40, 0, *exec, r, 1 << lane);
                    }
                }
            }

            for (lane, (sink, oracle)) in sinks.iter().zip(&oracles).enumerate() {
                let ups = oracle.host_up.iter().filter(|&&up| up).count();
                prop_assert_eq!(sink.gauge(names::HOSTS_UP), Some(ups as f64), "lane {}", lane);
                if unwound.is_none() {
                    let counters: Vec<_> = sink.counters().collect();
                    let expected: Vec<_> = oracle.counters.counters().collect();
                    prop_assert_eq!(counters, expected, "lane {} counters", lane);
                    prop_assert_eq!(
                        sink.histogram(names::REPLICAS_PER_VOTE),
                        oracle.counters.histogram(names::REPLICAS_PER_VOTE),
                        "lane {} histogram", lane
                    );
                }
                let (Some(rec), Some(expected)) = (sink.recorder(), &oracle.recorder) else {
                    prop_assert!(sink.recorder().is_none() && oracle.recorder.is_none());
                    continue;
                };
                prop_assert_eq!(rec.dumps(), expected.dumps(), "lane {} dumps", lane);
                prop_assert_eq!(
                    rec.events().collect::<Vec<_>>(),
                    expected.events().collect::<Vec<_>>(),
                    "lane {} live ring", lane
                );
                prop_assert_eq!(rec.dropped(), expected.dropped(), "lane {} evictions", lane);
            }
        }

        /// One sink observing the whole group equals the group's
        /// singleton sinks merged in lane order, at every width, over
        /// recorder capacities that differ lane by lane, after a
        /// completed or an unwound run.
        #[test]
        fn whole_group_sink_matches_merged_singletons(
            seed in any::<u64>(),
            width in 1usize..=64,
            len in 0usize..=700,
            corrupting in any::<bool>(),
            unwound in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let noise = [0.0, 0.01, 0.3][rng.gen_range(0..3)];
            let steps = random_steps(&mut rng, width, len, noise, corrupting);
            let sinks = random_sinks(&mut rng, width);
            let unwound = if unwound { random_unwound(&mut rng, width, noise) } else { None };
            check_whole_matches_singletons(&steps, &sinks, &unwound);
        }
    }

    /// The dump cap's edge: lane 1 dumps early, lane 0 reaches exactly
    /// [`FlightRecorder::MAX_DUMPS`] dumps in the middle of the run, and
    /// later alarms on lanes 1 and 2 are never built — the whole-group
    /// sink still equals the merged singletons, which keep lane 0's dumps
    /// only.
    #[test]
    fn whole_group_dumps_stop_at_the_cap() {
        let alarm = |at| ObsEvent::AlarmRaised {
            at,
            comm: 0,
            mean: 0.5,
            epsilon: 0.25,
            lrc: 0.9,
        };
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
        let sinks = vec![Registry::with_recorder(4); 3];
        check_whole_matches_singletons(&steps, &sinks, &None);

        let mut whole = sinks.clone();
        let mut obs = GroupObs::new(whole.iter_mut(), 3, 4, LaneSets::Whole);
        for step in &steps {
            match step {
                Step::Read {
                    at,
                    task,
                    exec,
                    replicas,
                    outcomes,
                } => {
                    obs.begin_read(*at, *task, *exec);
                    obs.replica(replicas[0]);
                    obs.vote(*outcomes);
                }
                Step::Event(lane, event) => obs.event(*lane, event, &mut whole[*lane]),
            }
        }
        let built: Vec<usize> = obs.dumps.iter().map(Vec::len).collect();
        assert_eq!(built, [FlightRecorder::MAX_DUMPS, 1, 0]);
        obs.flush(whole.iter_mut(), |_| [(names::ROUNDS, 0); 5]);
        let dumps = whole[0].recorder().unwrap().dumps();
        assert!(dumps
            .iter()
            .all(|d| d.events.last().is_some_and(|e| e.at() >= 10)));
    }
}
