//! Online LRC monitoring and graceful degradation.
//!
//! The static analysis of §3 certifies `λ_c ≥ µ_c` *a priori*; this
//! module provides the runtime counterpart argued for by probabilistic
//! assume/guarantee contracts: the [`LrcMonitor`] sees every
//! communicator update as the kernel records it, maintains a
//! per-communicator sliding window of the 0/1 reliability abstraction
//! and raises a structured [`Alarm`] when the windowed mean is
//! *statistically confidently* below the declared LRC (Hoeffding band
//! entirely under µ_c), clearing it once the mean itself recovers to
//! µ_c — a natural hysteresis, since clearing needs the plain mean while
//! raising needs mean + ε to fall short.
//!
//! One monitor watches a whole lane group: the lanes share the update
//! instants, so each window is one ring of reliable-lane masks, and the
//! lanes' counts of reliable updates in the window are bit planes, one
//! word per bit of the count. Every predicate is monotone in the count,
//! so it is one integer cut per window length (`WindowCuts`), and an
//! update evaluates all lanes at once by comparing the planes with the
//! cuts. A one-lane run is a group of width 1.
//!
//! Degradation rules ride on the monitor ([`LrcMonitor::with_rules`])
//! and turn its alarms into scripted responses: drop a flaky replica
//! from the vote (the kernel reads one mask per replica of the lanes
//! that dropped it), or emit an HTL mode switch event for a
//! degraded-rate mode (consumed by an E-machine [`Platform::event`]
//! feed).
//!
//! [`Platform::event`]: logrel_emachine::Platform

use logrel_core::{CommunicatorId, HostId, Specification, TaskId, Tick};
use logrel_obs::ObsEvent;
use logrel_reliability::hoeffding_epsilon;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Configuration of the online monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Sliding-window length, in communicator updates.
    pub window: usize,
    /// Confidence level of the Hoeffding band (in `(0, 1)`).
    pub confidence: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window: 200,
            confidence: 0.99,
        }
    }
}

/// Whether an alarm was raised or cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlarmKind {
    /// The windowed mean fell confidently below the LRC.
    Raised,
    /// The windowed mean recovered to the LRC.
    Cleared,
}

/// One monitor alarm transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alarm {
    /// The communicator whose LRC is concerned.
    pub comm: CommunicatorId,
    /// Update instant at which the transition fired.
    pub at: Tick,
    /// Raised or cleared.
    pub kind: AlarmKind,
    /// Windowed mean at the transition.
    pub mean: f64,
    /// Hoeffding deviation for the window length at the transition.
    pub epsilon: f64,
    /// The declared LRC µ_c.
    pub lrc: f64,
}

/// One lane's verdicts on one LRC communicator.
#[derive(Debug, Clone, Default)]
struct LaneVerdicts {
    first_violation: Option<Tick>,
    /// First instant the full-window mean dipped below µ_c by at least
    /// *half* the Hoeffding band — the ground-truth violation the alarm
    /// is supposed to catch. The half-band margin keeps single-failure
    /// noise out: for tight constraints (µ_c > 1 − 1/window) a lone
    /// failed update already puts the plain mean under µ_c, which would
    /// make every finite run a "violation". A dip the monitor never
    /// alarmed on within one window is a monitor miss (the fuzzer's
    /// headline objective).
    first_dip: Option<Tick>,
    /// Update index of `first_dip`.
    dip_update: Option<u64>,
    /// Update index of the first raised alarm.
    alarm_update: Option<u64>,
}

/// The monitor's predicates on a window of `n` updates, `ones` of them
/// reliable, as integer cuts on `ones`, for every length `n` up to a full
/// window, with the Hoeffding band ε(n).
///
/// Each predicate evaluates the monitor's float expression itself — the
/// mean `ones as f64 / n as f64`, plus ε or ε/2, against µ — and each is
/// monotone in `ones`: a correctly rounded division and a correctly
/// rounded sum never decrease when an operand grows. So "raise" (`mean +
/// ε < µ`) and "dip" (`mean + ε/2 < µ`) hold exactly for `ones` below
/// their cut, and "clear" (`mean >= µ`) exactly for `ones` at or above
/// its cut: each cut is the first `ones` in `0..=n` on which the float
/// predicate flips, found by evaluating it.
#[derive(Debug)]
struct WindowCuts {
    /// Per length `n` (at `n − 1`): ε(n) and the raise and clear cuts.
    epsilon: Vec<f64>,
    raise: Vec<u64>,
    clear: Vec<u64>,
    /// The dip cut of a full window (a dip needs a full window).
    dip: u64,
}

impl WindowCuts {
    /// The cuts of `lrc` over windows of `window` updates at
    /// `confidence`, computed once per process and shared: every
    /// campaign unit builds its monitor anew, and its windows fill
    /// through every length.
    fn shared(lrc: f64, window: usize, confidence: f64) -> Arc<WindowCuts> {
        /// Past this many distinct keys the cache starts over, so a
        /// long-running service does not grow it without bound.
        const CAPACITY: usize = 64;
        type Key = (u64, usize, u64);
        static CACHE: Mutex<Vec<(Key, Arc<WindowCuts>)>> = Mutex::new(Vec::new());
        let key = (lrc.to_bits(), window, confidence.to_bits());
        // Every update below leaves the cache valid (a key is pushed with
        // its finished cuts, or the cache is emptied), so a panic in
        // another thread cannot have left it half-updated.
        let mut cache = CACHE
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some((_, cuts)) = cache.iter().find(|(k, _)| *k == key) {
            return Arc::clone(cuts);
        }
        let cuts = Arc::new(WindowCuts::new(lrc, window, confidence));
        if cache.len() == CAPACITY {
            cache.clear();
        }
        cache.push((key, Arc::clone(&cuts)));
        cuts
    }

    fn new(lrc: f64, window: usize, confidence: f64) -> Self {
        let mut cuts = WindowCuts {
            epsilon: Vec::with_capacity(window),
            raise: Vec::with_capacity(window),
            clear: Vec::with_capacity(window),
            dip: 0,
        };
        for n in 1..=window {
            let epsilon = hoeffding_epsilon(n, confidence);
            let mean = |ones: u64| ones as f64 / n as f64;
            // The estimate `(µ − ε)·n` lands within a step or two of the
            // exact cut; `flip` walks from it to the cut itself.
            cuts.raise.push(flip(n, (lrc - epsilon) * n as f64, |k| {
                mean(k) + epsilon < lrc
            }));
            cuts.clear.push(flip(n, lrc * n as f64, |k| mean(k) < lrc));
            if n == window {
                cuts.dip = flip(n, (lrc - epsilon / 2.0) * n as f64, |k| {
                    mean(k) + epsilon / 2.0 < lrc
                });
            }
            cuts.epsilon.push(epsilon);
        }
        cuts
    }
}

/// The number of `ones` in `0..=n` on which `holds` is true, for a
/// `holds` that is true on a prefix of `0..=n`, starting the walk at the
/// estimate `guess`.
fn flip(n: usize, guess: f64, holds: impl Fn(u64) -> bool) -> u64 {
    let n = n as u64;
    // Saturating: a NaN or negative guess starts at 0.
    let mut k = (guess.ceil() as u64).min(n + 1);
    while k > 0 && !holds(k - 1) {
        k -= 1;
    }
    while k <= n && holds(k) {
        k += 1;
    }
    k
}

/// The lanes of `lanes` whose bit-sliced count (`planes[b]` holds bit
/// `b` of every lane's count) is below `cut`: a comparison from the top
/// bit down, over the lanes whose count equals `cut` on the bits so far.
#[inline(always)]
fn count_below(planes: &[u64], cut: u64, lanes: u64) -> u64 {
    if cut.checked_shr(planes.len() as u32).unwrap_or(0) != 0 {
        // Above every count the planes can hold.
        return lanes;
    }
    let (mut below, mut equal) = (0, lanes);
    for (b, &plane) in planes.iter().enumerate().rev() {
        if equal == 0 {
            break;
        }
        if cut >> b & 1 != 0 {
            below |= equal & !plane;
            equal &= plane;
        } else {
            equal &= !plane;
        }
    }
    below
}

/// Lane `lane`'s count in the bit planes `planes`.
fn lane_count(planes: &[u64], lane: usize) -> u64 {
    planes
        .iter()
        .enumerate()
        .fold(0, |count, (b, &plane)| count | (plane >> lane & 1) << b)
}

/// One LRC communicator's window, shared by the whole lane group: every
/// lane sees the same update instants, so one ring of reliable-lane
/// masks replaces a ring of bits per lane, and bit planes of the lanes'
/// counts replace a count per lane.
#[derive(Debug, Clone)]
struct CommWindow {
    lrc: f64,
    cuts: Arc<WindowCuts>,
    /// The reliable-lane masks of the last `window` updates; once the
    /// window is full, the oldest sits at `next`.
    ring: Vec<u64>,
    next: usize,
    /// Reliable updates in each lane's window, bit-sliced: plane `b`
    /// holds bit `b` of every lane's count, and there are enough planes
    /// for a full window's count.
    ones: Vec<u64>,
    /// Masks in `ring`: the window length seen by every lane.
    filled: usize,
    /// While the window fills: the lanes that have seen an unreliable
    /// update. The others hold only reliable updates, so their mean is 1.
    faulted: u64,
    /// Updates observed so far (the clock `dip_update` and
    /// `alarm_update` are measured on).
    updates: u64,
    /// Lanes with a raised, not yet cleared alarm.
    active: u64,
    /// Lanes whose first dip has been seen.
    dipped: u64,
    /// Per lane.
    lanes: Vec<LaneVerdicts>,
}

/// The lanes of `mask`, lowest first.
fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let li = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            li
        })
    })
}

/// The online LRC monitor of a lane group of 1..=64 replications: one
/// sliding window per communicator carrying a long-run constraint,
/// shared by every lane, plus the group's degradation rules.
///
/// [`LrcMonitor::new`] builds the one-lane monitor that
/// [`Simulation::run_observed`] takes; [`LrcMonitor::with_lanes`] builds
/// the group form that [`Simulation::run_monitored`] feeds one
/// reliable-lane mask per communicator update. A lane's alarms, verdicts
/// and engagements are exactly those of a one-lane monitor fed that
/// lane's updates.
///
/// [`Simulation::run_observed`]: crate::Simulation::run_observed
/// [`Simulation::run_monitored`]: crate::Simulation::run_monitored
#[derive(Debug, Clone)]
pub struct LrcMonitor {
    config: MonitorConfig,
    /// The group's lanes.
    all_mask: u64,
    /// Indexed by communicator; `None` for communicators without an LRC.
    windows: Vec<Option<CommWindow>>,
    /// Per lane: alarm transitions, in firing order.
    alarms: Vec<Vec<Alarm>>,
    /// Degradation rules, in rule order.
    rules: Vec<DegradationRule>,
    /// Per rule, per lane (`rule * width + lane`): the engagement
    /// instant.
    engaged: Vec<Option<Tick>>,
    /// Per lane: mode-switch events, in firing order.
    mode_events: Vec<Vec<(Tick, u32)>>,
    /// Per task, per host: the lanes on which an engaged rule drops the
    /// replica. A row ends at the last host a rule may drop.
    dropped: Vec<Vec<u64>>,
}

/// What one update fired on one lane, in firing order: an alarm
/// transition, then each rule a raised alarm engaged, in rule order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fired<'a> {
    Alarm(&'a Alarm),
    Engaged {
        rule: usize,
        at: Tick,
        /// The mode-switch event the rule emits, if it is one.
        mode_switch: Option<u32>,
    },
}

impl LrcMonitor {
    /// A one-lane monitor over every communicator of `spec` that
    /// declares an LRC.
    pub fn new(spec: &Specification, config: MonitorConfig) -> Self {
        LrcMonitor::with_lanes(spec, config, 1)
    }

    /// A monitor of a group of `lanes` replications over every
    /// communicator of `spec` that declares an LRC.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=64`, the window is empty or
    /// the confidence is outside `(0, 1)`.
    pub fn with_lanes(spec: &Specification, config: MonitorConfig, lanes: usize) -> Self {
        assert!(config.window > 0, "window must be positive");
        assert!(
            config.confidence > 0.0 && config.confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        assert!(
            (1..=64).contains(&lanes),
            "monitor needs 1..=64 lanes, got {lanes}"
        );
        // Enough planes for a count of a full window.
        let planes = (usize::BITS - config.window.leading_zeros()) as usize;
        LrcMonitor {
            config,
            all_mask: u64::MAX >> (64 - lanes),
            windows: spec
                .communicator_ids()
                .map(|c| {
                    spec.communicator(c).lrc().map(|lrc| CommWindow {
                        lrc: lrc.get(),
                        cuts: WindowCuts::shared(lrc.get(), config.window, config.confidence),
                        ring: vec![0; config.window],
                        next: 0,
                        ones: vec![0; planes],
                        filled: 0,
                        faulted: 0,
                        updates: 0,
                        active: 0,
                        dipped: 0,
                        lanes: vec![LaneVerdicts::default(); lanes],
                    })
                })
                .collect(),
            alarms: vec![Vec::new(); lanes],
            rules: Vec::new(),
            engaged: Vec::new(),
            mode_events: vec![Vec::new(); lanes],
            dropped: vec![Vec::new(); spec.task_count()],
        }
    }

    /// The monitor with degradation `rules`. On each lane, a rule
    /// *engages* at its communicator's first raised alarm and stays
    /// engaged (latched) — degraded configurations are not automatically
    /// re-upgraded, matching the operational practice of requiring
    /// explicit re-admission of a flaky replica.
    ///
    /// # Errors
    ///
    /// A rule that can never act: one on a communicator without an LRC,
    /// which never alarms, or a [`Response::DropReplica`] of a task that
    /// is not in the spec.
    pub fn with_rules(mut self, rules: Vec<DegradationRule>) -> Result<Self, RuleError> {
        for rule in &rules {
            if !matches!(self.windows.get(rule.comm.index()), Some(Some(_))) {
                return Err(RuleError::NoLrc(rule.comm));
            }
            if let Response::DropReplica { task, host } = rule.response {
                let Some(row) = self.dropped.get_mut(task.index()) else {
                    return Err(RuleError::UnknownTask(task));
                };
                if row.len() <= host.index() {
                    row.resize(host.index() + 1, 0);
                }
            }
        }
        self.engaged = vec![None; rules.len() * self.width()];
        self.rules = rules;
        Ok(self)
    }

    /// The monitor's configuration.
    pub fn config(&self) -> MonitorConfig {
        self.config
    }

    /// The number of lanes the monitor watches.
    pub fn width(&self) -> usize {
        self.alarms.len()
    }

    /// Lane `lane`'s alarms, verdicts and engagements.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.width()`.
    pub fn lane(&self, lane: usize) -> MonitorLane<'_> {
        assert!(lane < self.width(), "lane {lane} out of {}", self.width());
        MonitorLane {
            monitor: self,
            lane,
        }
    }

    /// Per host, the lanes on which an engaged rule drops `task`'s
    /// replica; hosts past the end of the row are dropped nowhere.
    #[inline]
    pub(crate) fn dropped(&self, task: usize) -> &[u64] {
        &self.dropped[task]
    }

    /// One update of `comm` at `now` on every lane: `reliable` is the
    /// mask of lanes whose new value is reliable. Calls `fired(lane,
    /// what)` for each alarm transition the update causes, in lane
    /// order — a lane fires at most one per update — and, after a raised
    /// alarm, for each rule of `comm` it engages on that lane.
    ///
    /// The lanes' counts move by one bit-plane add of the lanes that
    /// gained a reliable update and one subtract of those that lost one,
    /// and the predicates are comparisons of the planes with the window
    /// length's cuts. Two rules skip updates whose verdicts cannot move:
    ///
    /// - While the window fills, only the lanes that have seen an
    ///   unreliable update are evaluated. Nothing is evicted yet, so any
    ///   other lane's window holds only reliable updates and its mean is
    ///   1: no dip or raise fires (both need mean < µ ≤ 1), and no clear
    ///   either, since a raise never fired on it.
    /// - Once the window is full, ε is the constant band of a full
    ///   window, and only the lanes whose new bit differs from the
    ///   evicted one are evaluated. Every other lane keeps its count and
    ///   so its mean, and its predicates are at a fixed point: a raise
    ///   leaves mean < µ, so no clear can follow at the same mean; a clear
    ///   leaves mean ≥ µ, so no raise can follow; a dip latches. The rule
    ///   needs the window to have been full *before* the push, so that
    ///   the lane's last evaluation saw the same length and band.
    ///
    /// An alarm's mean is computed from its lane's count when it fires.
    pub(crate) fn observe_lanes(
        &mut self,
        comm: CommunicatorId,
        now: Tick,
        reliable: u64,
        mut fired: impl FnMut(usize, Fired<'_>),
    ) {
        let width = self.alarms.len();
        let all = self.all_mask;
        let Some(w) = &mut self.windows[comm.index()] else {
            return;
        };
        let reliable = reliable & all;
        let was_full = w.filled == w.ring.len();
        let evicted = if was_full {
            w.ring[w.next]
        } else {
            w.filled += 1;
            0
        };
        w.ring[w.next] = reliable;
        w.next += 1;
        if w.next == w.ring.len() {
            w.next = 0;
        }
        w.updates += 1;
        let changed = reliable ^ evicted;
        if changed != 0 {
            // Add one on the lanes that gained a reliable update, then
            // take one off those that lost one, plane by plane.
            let (mut carry, mut borrow) = (changed & reliable, changed & evicted);
            for plane in &mut w.ones {
                let (p, up, down) = (*plane, carry, borrow);
                *plane = p ^ up ^ down;
                carry = p & up;
                borrow = !p & down;
            }
        }
        let evaluate = if was_full {
            changed
        } else {
            w.faulted |= !reliable & all;
            w.faulted
        };
        if evaluate == 0 {
            return;
        }
        let n = w.filled;
        let cuts = &*w.cuts;
        if n == w.ring.len() {
            // The full-window mean is under µ_c by half the band: a
            // ground-truth violation, whether or not the full band makes
            // it confident enough to alarm.
            let dips = count_below(&w.ones, cuts.dip, evaluate & !w.dipped);
            w.dipped |= dips;
            for li in lanes_of(dips) {
                let lane = &mut w.lanes[li];
                lane.first_dip = Some(now);
                lane.dip_update = Some(w.updates);
            }
        }
        // Even the optimistic end of the confidence band is below µ_c:
        // the violation is statistically confident. A raised alarm clears
        // once the mean itself recovers to µ_c.
        let (idle, active) = (evaluate & !w.active, evaluate & w.active);
        let raises = count_below(&w.ones, cuts.raise[n - 1], idle);
        let clears = active & !count_below(&w.ones, cuts.clear[n - 1], active);
        w.active ^= raises | clears;
        let epsilon = cuts.epsilon[n - 1];
        for li in lanes_of(raises | clears) {
            let bit = 1u64 << li;
            let kind = if raises & bit != 0 {
                let lane = &mut w.lanes[li];
                lane.alarm_update.get_or_insert(w.updates);
                lane.first_violation.get_or_insert(now);
                AlarmKind::Raised
            } else {
                AlarmKind::Cleared
            };
            let alarm = Alarm {
                comm,
                at: now,
                kind,
                mean: lane_count(&w.ones, li) as f64 / n as f64,
                epsilon,
                lrc: w.lrc,
            };
            self.alarms[li].push(alarm);
            fired(li, Fired::Alarm(&alarm));
            if kind == AlarmKind::Cleared {
                continue;
            }
            for (i, rule) in self.rules.iter().enumerate() {
                let engaged = &mut self.engaged[i * width + li];
                if rule.comm != comm || engaged.is_some() {
                    continue;
                }
                *engaged = Some(now);
                let mode_switch = match rule.response {
                    Response::DropReplica { task, host } => {
                        let row = self.dropped.get_mut(task.index());
                        if let Some(lanes) = row.and_then(|row| row.get_mut(host.index())) {
                            *lanes |= bit;
                        }
                        None
                    }
                    Response::ModeSwitch { event } => {
                        self.mode_events[li].push((now, event));
                        Some(event)
                    }
                };
                fired(
                    li,
                    Fired::Engaged {
                        rule: i,
                        at: now,
                        mode_switch,
                    },
                );
            }
        }
    }

    fn verdicts(&self, comm: CommunicatorId, lane: usize) -> Option<(&CommWindow, &LaneVerdicts)> {
        self.windows[comm.index()]
            .as_ref()
            .map(|w| (w, &w.lanes[lane]))
    }
}

/// One lane of an [`LrcMonitor`]: the alarms, verdicts and engagements a
/// one-lane monitor fed that lane's updates would hold.
#[derive(Debug, Clone, Copy)]
pub struct MonitorLane<'a> {
    monitor: &'a LrcMonitor,
    lane: usize,
}

impl<'a> MonitorLane<'a> {
    /// All alarm transitions of the lane so far, in firing order.
    pub fn alarms(&self) -> &'a [Alarm] {
        &self.monitor.alarms[self.lane]
    }

    /// Is an alarm currently active for `comm`?
    pub fn active(&self, comm: CommunicatorId) -> bool {
        self.monitor
            .verdicts(comm, self.lane)
            .is_some_and(|(w, _)| w.active >> self.lane & 1 != 0)
    }

    /// The instant of the first raised alarm for `comm`, if any — the
    /// "time to first LRC violation" statistic of the campaign report.
    pub fn first_violation(&self, comm: CommunicatorId) -> Option<Tick> {
        self.monitor
            .verdicts(comm, self.lane)
            .and_then(|(_, v)| v.first_violation)
    }

    /// The first instant the full-window mean for `comm` dipped below
    /// µ_c by at least half the Hoeffding band, if it ever did — the
    /// empirical µ-violation the alarm is supposed to catch. When
    /// `first_dip` is `Some` and [`MonitorLane::dip_alarmed`] is `false`,
    /// the monitor *missed* the violation.
    pub fn first_dip(&self, comm: CommunicatorId) -> Option<Tick> {
        self.monitor
            .verdicts(comm, self.lane)
            .and_then(|(_, v)| v.first_dip)
    }

    /// Whether the dip on `comm` was caught: an alarm was raised no
    /// later than one full window of updates after [`first_dip`]. Under
    /// a monotone decay the dip threshold (half band) is necessarily
    /// crossed a few updates before the alarm threshold (full band), so
    /// a promptly trailing alarm still counts as catching the violation;
    /// only a monitor that stayed silent for a whole further window — or
    /// forever — has missed it. `false` when there was no dip.
    ///
    /// [`first_dip`]: MonitorLane::first_dip
    pub fn dip_alarmed(&self, comm: CommunicatorId) -> bool {
        let window = self.monitor.config.window as u64;
        self.monitor
            .verdicts(comm, self.lane)
            .is_some_and(|(_, v)| match (v.dip_update, v.alarm_update) {
                (Some(d), Some(a)) => a <= d + window,
                _ => false,
            })
    }

    /// The engagement instant of rule `rule`, if it fired.
    pub fn engaged_at(&self, rule: usize) -> Option<Tick> {
        self.monitor.engaged[rule * self.monitor.width() + self.lane]
    }

    /// Mode-switch events emitted so far, as `(instant, event)` pairs —
    /// feed these to a modal E-machine's `Platform::event`.
    pub fn mode_events(&self) -> &'a [(Tick, u32)] {
        &self.monitor.mode_events[self.lane]
    }
}

impl Alarm {
    /// The transition as a flight-recorder event (an `AlarmRaised` event
    /// is what triggers the recorder's automatic dump).
    pub(crate) fn event(&self) -> ObsEvent {
        let (at, comm, mean) = (self.at.as_u64(), self.comm.index(), self.mean);
        match self.kind {
            AlarmKind::Raised => ObsEvent::AlarmRaised {
                at,
                comm,
                mean,
                epsilon: self.epsilon,
                lrc: self.lrc,
            },
            AlarmKind::Cleared => ObsEvent::AlarmCleared { at, comm, mean },
        }
    }
}

/// A scripted response to an LRC alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// Drop `host`'s replica of `task` from execution and voting.
    ///
    /// A host that no mapping phase places a replica of `task` on has no
    /// replica to drop, so the rule engages but changes nothing. The
    /// monitor does not see the implementation, so
    /// [`LrcMonitor::with_rules`] cannot reject such a rule.
    DropReplica {
        /// The replicated task.
        task: TaskId,
        /// The replica host to drop.
        host: HostId,
    },
    /// Emit an E-machine mode-switch event (consumed by a modal program's
    /// `Platform::event` feed; switches take effect at round boundaries).
    ModeSwitch {
        /// The event number passed to the E-machine.
        event: u32,
    },
}

/// Binds an alarm source to its response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationRule {
    /// Respond when this communicator's alarm is first raised.
    pub comm: CommunicatorId,
    /// The scripted response.
    pub response: Response,
}

/// Why [`LrcMonitor::with_rules`] rejected a rule: it could never act.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleError {
    /// The rule watches a communicator that declares no LRC (or is not
    /// in the spec), so it never alarms.
    NoLrc(CommunicatorId),
    /// The rule drops a replica of a task that is not in the spec.
    UnknownTask(TaskId),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::NoLrc(c) => write!(f, "rule on communicator {} without an LRC", c.index()),
            RuleError::UnknownTask(t) => {
                write!(f, "rule drops a replica of unknown task {}", t.index())
            }
        }
    }
}

impl std::error::Error for RuleError {}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{CommunicatorDecl, Reliability, TaskDecl, Value, ValueType};
    use logrel_reliability::SlidingMean;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One lane's window on one communicator, written the direct way: a
    /// [`SlidingMean`] of bits and every predicate evaluated on every
    /// update.
    #[derive(Debug, Clone)]
    struct OracleWindow {
        lrc: f64,
        window: SlidingMean,
        active: bool,
        first_violation: Option<Tick>,
        first_dip: Option<Tick>,
        updates: u64,
        dip_update: Option<u64>,
        alarm_update: Option<u64>,
    }

    /// The per-lane monitor the group monitor must reproduce lane by
    /// lane. It shares no window or predicate code with [`LrcMonitor`].
    #[derive(Debug, Clone)]
    struct OracleMonitor {
        config: MonitorConfig,
        windows: Vec<Option<OracleWindow>>,
        alarms: Vec<Alarm>,
    }

    impl OracleMonitor {
        fn new(spec: &Specification, config: MonitorConfig) -> Self {
            OracleMonitor {
                config,
                windows: spec
                    .communicator_ids()
                    .map(|c| {
                        spec.communicator(c).lrc().map(|lrc| OracleWindow {
                            lrc: lrc.get(),
                            window: SlidingMean::new(config.window),
                            active: false,
                            first_violation: None,
                            first_dip: None,
                            updates: 0,
                            dip_update: None,
                            alarm_update: None,
                        })
                    })
                    .collect(),
                alarms: Vec::new(),
            }
        }

        fn observe(&mut self, comm: CommunicatorId, now: Tick, reliable: bool) {
            let Some(w) = &mut self.windows[comm.index()] else {
                return;
            };
            w.window.push(reliable);
            w.updates += 1;
            let mean = w.window.mean();
            let epsilon = hoeffding_epsilon(w.window.len(), self.config.confidence);
            if w.first_dip.is_none()
                && w.window.len() >= self.config.window
                && mean + epsilon / 2.0 < w.lrc
            {
                w.first_dip = Some(now);
                w.dip_update = Some(w.updates);
            }
            let kind = if !w.active && mean + epsilon < w.lrc {
                w.active = true;
                w.alarm_update.get_or_insert(w.updates);
                w.first_violation.get_or_insert(now);
                AlarmKind::Raised
            } else if w.active && mean >= w.lrc {
                w.active = false;
                AlarmKind::Cleared
            } else {
                return;
            };
            self.alarms.push(Alarm {
                comm,
                at: now,
                kind,
                mean,
                epsilon,
                lrc: w.lrc,
            });
        }

        fn window(&self, comm: CommunicatorId) -> Option<&OracleWindow> {
            self.windows[comm.index()].as_ref()
        }

        fn dip_alarmed(&self, comm: CommunicatorId) -> bool {
            self.window(comm)
                .is_some_and(|w| match (w.dip_update, w.alarm_update) {
                    (Some(d), Some(a)) => a <= d + self.config.window as u64,
                    _ => false,
                })
        }
    }

    /// The per-lane graceful-degradation supervisor the rules on the
    /// group monitor must reproduce lane by lane: an [`OracleMonitor`]
    /// plus scripted rules, asked after every update whether its
    /// communicator's alarm is active, and asked per replica whether to
    /// drop it — the one-lane `Supervisor` hook the kernel once called.
    #[derive(Debug, Clone)]
    struct OracleDegrader {
        monitor: OracleMonitor,
        rules: Vec<DegradationRule>,
        engaged: Vec<Option<Tick>>,
        mode_events: Vec<(Tick, u32)>,
    }

    impl OracleDegrader {
        fn new(monitor: OracleMonitor, rules: Vec<DegradationRule>) -> Self {
            let n = rules.len();
            OracleDegrader {
                monitor,
                rules,
                engaged: vec![None; n],
                mode_events: Vec::new(),
            }
        }

        /// Observes one update; returns the rules it engaged, in order.
        fn observe(&mut self, comm: CommunicatorId, now: Tick, reliable: bool) -> Vec<usize> {
            self.monitor.observe(comm, now, reliable);
            if !self.monitor.window(comm).is_some_and(|w| w.active) {
                return Vec::new();
            }
            let mut fired = Vec::new();
            for (i, rule) in self.rules.iter().enumerate() {
                if self.engaged[i].is_some() || rule.comm != comm {
                    continue;
                }
                self.engaged[i] = Some(now);
                if let Response::ModeSwitch { event } = rule.response {
                    self.mode_events.push((now, event));
                }
                fired.push(i);
            }
            fired
        }

        fn exclude_replica(&self, task: TaskId, host: HostId) -> bool {
            self.rules.iter().zip(&self.engaged).any(|(rule, engaged)| {
                engaged.is_some()
                    && matches!(rule.response,
                        Response::DropReplica { task: t, host: h } if t == task && h == host)
            })
        }
    }

    /// Feeds one update of `comm` to a one-lane monitor.
    fn observe(m: &mut LrcMonitor, comm: CommunicatorId, now: Tick, value: Value) {
        m.observe_lanes(comm, now, u64::from(value.is_reliable()), |_, _| {});
    }

    /// Lane `lane` of the group's `dropped` row for `task` at `host`.
    fn drops(m: &LrcMonitor, task: TaskId, host: HostId, lane: usize) -> bool {
        m.dropped(task.index())
            .get(host.index())
            .is_some_and(|lanes| lanes >> lane & 1 != 0)
    }

    /// An alarm with its floats as bits, so equality is bit-identity.
    fn alarm_bits(a: &Alarm) -> (CommunicatorId, Tick, AlarmKind, u64, u64, u64) {
        (
            a.comm,
            a.at,
            a.kind,
            a.mean.to_bits(),
            a.epsilon.to_bits(),
            a.lrc.to_bits(),
        )
    }

    /// A spec with one unconstrained sensor communicator `s` and one
    /// communicator per entry of `lrcs`, each written by its own task.
    fn spec_with_lrcs(lrcs: &[f64]) -> (Specification, Vec<CommunicatorId>) {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let mut comms = vec![s];
        for (i, &lrc) in lrcs.iter().enumerate() {
            let u = sb
                .communicator(
                    CommunicatorDecl::new(format!("u{i}"), ValueType::Float, 10)
                        .unwrap()
                        .with_lrc(Reliability::new(lrc).unwrap()),
                )
                .unwrap();
            sb.task(TaskDecl::new(format!("t{i}")).reads(s, 0).writes(u, 1))
                .unwrap();
            comms.push(u);
        }
        (sb.build().unwrap(), comms)
    }

    /// An LRC for `window` and `confidence`: (just above) 0, 1, anywhere,
    /// or a window mean `k / n` plus none, half or all of the band ε(n),
    /// give or take one ulp — the values on which the `<` and `>=`
    /// predicates flip. `n` is the full window half the time, since full
    /// windows last longest. A [`Reliability`] is positive, so the
    /// smallest positive `f64` stands in for 0.
    fn pick_lrc(rng: &mut StdRng, window: usize, confidence: f64) -> f64 {
        let zero = f64::from_bits(1);
        let lrc = match rng.gen_range(0..4u32) {
            0 => zero,
            1 => 1.0,
            2 => rng.gen::<f64>(),
            _ => {
                let n = if rng.gen_bool(0.5) {
                    window
                } else {
                    rng.gen_range(1..=window)
                };
                let epsilon = hoeffding_epsilon(n, confidence);
                let band = [0.0, epsilon / 2.0, epsilon][rng.gen_range(0..3usize)];
                let top = ((1.0 - band) * n as f64).floor().max(0.0) as usize;
                let lrc = rng.gen_range(0..=top) as f64 / n as f64 + band;
                match rng.gen_range(0..3u32) {
                    0 => f64::from_bits(lrc.to_bits().saturating_sub(1)),
                    1 => f64::from_bits(lrc.to_bits() + 1),
                    _ => lrc,
                }
            }
        };
        lrc.clamp(zero, 1.0)
    }

    /// Feeds one random reliable-mask stream to a `width`-lane monitor
    /// and to one oracle per lane, and checks every fired alarm and
    /// every verdict lane by lane. The lanes of `late` stay reliable on
    /// each communicator until its window is full, so they first fail
    /// after the fill.
    fn check_against_oracle(
        width: usize,
        config: MonitorConfig,
        seed: u64,
        updates: u64,
        late: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lrcs: Vec<f64> = (0..3)
            .map(|_| pick_lrc(&mut rng, config.window, config.confidence))
            .collect();
        let (spec, comms) = spec_with_lrcs(&lrcs);
        let mut group = LrcMonitor::with_lanes(&spec, config, width);
        let mut oracles = vec![OracleMonitor::new(&spec, config); width];
        // Piecewise-constant failure rates: long healthy or failing
        // stretches fill windows whose bits mostly repeat (the skipped
        // lanes), and the switches move means across the thresholds.
        const RATES: [f64; 6] = [0.0, 0.01, 0.1, 0.3, 0.7, 1.0];
        let mut p_fail = 0.0;
        let mut seen_per_comm = vec![0usize; comms.len()];
        for i in 0..updates {
            if i % 64 == 0 {
                p_fail = RATES[rng.gen_range(0..RATES.len())];
            }
            let k = rng.gen_range(0..comms.len());
            let comm = comms[k];
            let mut mask = (0..width).fold(0u64, |m, li| {
                m | u64::from(rng.gen::<f64>() >= p_fail) << li
            });
            if seen_per_comm[k] < config.window {
                mask |= late;
            }
            seen_per_comm[k] += 1;
            let now = Tick::new(i * 10);
            let mut fired = Vec::new();
            group.observe_lanes(comm, now, mask, |li, what| {
                if let Fired::Alarm(a) = what {
                    fired.push((li, alarm_bits(a)));
                }
            });
            let mut expected = Vec::new();
            for (li, oracle) in oracles.iter_mut().enumerate() {
                let seen = oracle.alarms.len();
                oracle.observe(comm, now, mask >> li & 1 == 1);
                expected.extend(oracle.alarms[seen..].iter().map(|a| (li, alarm_bits(a))));
            }
            assert_eq!(fired, expected, "update {i} of {comm:?}, lrcs {lrcs:?}");
        }
        for (li, oracle) in oracles.iter().enumerate() {
            let lane = group.lane(li);
            let got: Vec<_> = lane.alarms().iter().map(alarm_bits).collect();
            let want: Vec<_> = oracle.alarms.iter().map(alarm_bits).collect();
            assert_eq!(got, want, "lane {li}, lrcs {lrcs:?}");
            for &c in &comms {
                let w = oracle.window(c);
                assert_eq!(lane.active(c), w.is_some_and(|w| w.active));
                assert_eq!(lane.first_violation(c), w.and_then(|w| w.first_violation));
                assert_eq!(lane.first_dip(c), w.and_then(|w| w.first_dip));
                assert_eq!(lane.dip_alarmed(c), oracle.dip_alarmed(c));
            }
        }
    }

    /// Window lengths: the shortest, short odd ones, the production 200,
    /// and both sides of a power of two (a count of 255 fills eight bit
    /// planes, one of 256 needs a ninth).
    fn windows() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(1usize),
            Just(2usize),
            Just(3usize),
            Just(200usize),
            Just(255usize),
            Just(256usize),
            Just(257usize),
        ]
    }

    /// Confidences near 0 (the narrowest band), the usual ones, and near 1
    /// (a band wider than any mean for short windows).
    fn confidences() -> impl Strategy<Value = f64> {
        prop_oneof![Just(1e-9), Just(0.9), Just(0.99), Just(1.0 - 1e-9)]
    }

    proptest! {
        #[test]
        fn group_monitor_matches_per_lane_oracle(
            width in 1usize..=64,
            window in windows(),
            confidence in confidences(),
            seed in any::<u64>(),
            updates in 1u64..1200,
        ) {
            check_against_oracle(width, MonitorConfig { window, confidence }, seed, updates, 0);
        }

        /// Lanes that stay all-reliable through the fill and first fail
        /// once the window is full: the fill phase skips them, and their
        /// first evaluation must still match the oracle's.
        #[test]
        fn group_monitor_matches_oracle_on_late_failing_lanes(
            width in prop_oneof![Just(1usize), Just(7usize), Just(64usize)],
            window in windows(),
            confidence in confidences(),
            seed in any::<u64>(),
            late in any::<u64>(),
            updates in 1u64..2400,
        ) {
            let late = late & (u64::MAX >> (64 - width));
            check_against_oracle(width, MonitorConfig { window, confidence }, seed, updates, late);
        }
    }

    fn spec_with_lrc(lrc: f64) -> (Specification, CommunicatorId) {
        let (spec, comms) = spec_with_lrcs(&[lrc]);
        (spec, comms[1])
    }

    #[test]
    fn monitor_raises_and_clears() {
        let (spec, u) = spec_with_lrc(0.9);
        let mut m = LrcMonitor::new(
            &spec,
            MonitorConfig {
                window: 50,
                confidence: 0.99,
            },
        );
        // Healthy stream: no alarm.
        for i in 0..100u64 {
            observe(&mut m, u, Tick::new(i * 10), Value::Float(1.0));
        }
        assert!(!m.lane(0).active(u));
        assert!(m.lane(0).alarms().is_empty());
        // Outage: the window drains to 0, confidently below 0.9.
        for i in 100..150u64 {
            observe(&mut m, u, Tick::new(i * 10), Value::Unreliable);
        }
        assert!(m.lane(0).active(u));
        assert_eq!(m.lane(0).alarms().len(), 1);
        assert_eq!(m.lane(0).alarms()[0].kind, AlarmKind::Raised);
        assert!(m.lane(0).alarms()[0].mean + m.lane(0).alarms()[0].epsilon < 0.9);
        let first = m.lane(0).first_violation(u).unwrap();
        // Recovery: mean climbs back to µ.
        for i in 150..260u64 {
            observe(&mut m, u, Tick::new(i * 10), Value::Float(1.0));
        }
        assert!(!m.lane(0).active(u));
        assert_eq!(m.lane(0).alarms().len(), 2);
        assert_eq!(m.lane(0).alarms()[1].kind, AlarmKind::Cleared);
        // first_violation is sticky across the clear.
        assert_eq!(m.lane(0).first_violation(u), Some(first));
    }

    #[test]
    fn near_threshold_dip_is_a_monitor_miss() {
        // window 50, confidence 0.99: ε ≈ 0.2302, half band ≈ 0.1151.
        // A sustained mean around 0.75 is a ground-truth violation of
        // µ = 0.9 (below µ by more than ε/2) that the full band never
        // makes confident — the monitor sleeps through it.
        let (spec, u) = spec_with_lrc(0.9);
        let cfg = MonitorConfig {
            window: 50,
            confidence: 0.99,
        };
        let mut m = LrcMonitor::new(&spec, cfg);
        for i in 0..200u64 {
            let v = if i % 4 == 0 {
                Value::Unreliable
            } else {
                Value::Float(1.0)
            };
            observe(&mut m, u, Tick::new(i * 10), v);
        }
        assert!(m.lane(0).first_dip(u).is_some());
        assert!(m.lane(0).alarms().is_empty(), "band never confident");
        assert!(!m.lane(0).dip_alarmed(u), "dip with no alarm = miss");

        // A lone failure is noise, not a violation: the mean stays well
        // inside the half band.
        let mut m = LrcMonitor::new(&spec, cfg);
        for i in 0..200u64 {
            let v = if i == 100 {
                Value::Unreliable
            } else {
                Value::Float(1.0)
            };
            observe(&mut m, u, Tick::new(i * 10), v);
        }
        assert_eq!(m.lane(0).first_dip(u), None);
        assert!(!m.lane(0).dip_alarmed(u));

        // A hard outage decays through the dip threshold a few updates
        // before the alarm threshold; the promptly trailing alarm still
        // counts as catching the violation.
        let mut m = LrcMonitor::new(&spec, cfg);
        for i in 0..60u64 {
            observe(&mut m, u, Tick::new(i * 10), Value::Float(1.0));
        }
        for i in 60..120u64 {
            observe(&mut m, u, Tick::new(i * 10), Value::Unreliable);
        }
        let dip = m.lane(0).first_dip(u).expect("outage dips");
        let raised = m
            .lane(0)
            .alarms()
            .iter()
            .find(|a| a.kind == AlarmKind::Raised)
            .unwrap();
        assert!(dip < raised.at, "half band crossed first");
        assert!(
            m.lane(0).dip_alarmed(u),
            "alarm within one window catches it"
        );
    }

    #[test]
    fn monitor_ignores_unconstrained_communicators() {
        let (spec, _u) = spec_with_lrc(0.9);
        let s = spec.find_communicator("s").unwrap();
        let mut m = LrcMonitor::new(&spec, MonitorConfig::default());
        for i in 0..1000u64 {
            observe(&mut m, s, Tick::new(i), Value::Unreliable);
        }
        assert!(!m.lane(0).active(s));
        assert!(m.lane(0).alarms().is_empty());
        assert_eq!(m.lane(0).first_violation(s), None);
    }

    #[test]
    fn short_window_stays_inconclusive() {
        // With only a handful of samples ε is huge, so even an all-zero
        // prefix cannot be a *confident* violation of a small µ.
        let (spec, u) = spec_with_lrc(0.5);
        let mut m = LrcMonitor::new(
            &spec,
            MonitorConfig {
                window: 400,
                confidence: 0.99,
            },
        );
        for i in 0..5u64 {
            observe(&mut m, u, Tick::new(i * 10), Value::Unreliable);
        }
        // ε(5, 0.99) ≈ 0.73 > 0.5: not confident yet.
        assert!(!m.lane(0).active(u));
        // Plenty more zeros: ε(n) shrinks below 0.5 and the alarm fires.
        for i in 5..200u64 {
            observe(&mut m, u, Tick::new(i * 10), Value::Unreliable);
        }
        assert!(m.lane(0).active(u));
    }

    #[test]
    fn degrader_latches_and_excludes() {
        let (spec, u) = spec_with_lrc(0.9);
        let t = spec.find_task("t0").unwrap();
        let h = HostId::new(1);
        let mut d = LrcMonitor::new(
            &spec,
            MonitorConfig {
                window: 50,
                confidence: 0.99,
            },
        )
        .with_rules(vec![
            DegradationRule {
                comm: u,
                response: Response::DropReplica { task: t, host: h },
            },
            DegradationRule {
                comm: u,
                response: Response::ModeSwitch { event: 3 },
            },
        ])
        .unwrap();
        assert!(!drops(&d, t, h, 0));
        for i in 0..60u64 {
            observe(&mut d, u, Tick::new(i * 10), Value::Unreliable);
        }
        assert!(d.lane(0).active(u));
        assert!(drops(&d, t, h, 0));
        assert!(!drops(&d, t, HostId::new(0), 0));
        assert_eq!(d.lane(0).mode_events().len(), 1);
        assert_eq!(d.lane(0).mode_events()[0].1, 3);
        let engaged = d.lane(0).engaged_at(0).unwrap();
        // Recovery clears the alarm but the rule stays engaged (latched).
        for i in 60..200u64 {
            observe(&mut d, u, Tick::new(i * 10), Value::Float(1.0));
        }
        assert!(!d.lane(0).active(u));
        assert!(drops(&d, t, h, 0));
        assert_eq!(d.lane(0).engaged_at(0), Some(engaged));
        assert_eq!(d.lane(0).mode_events().len(), 1, "mode switch fires once");
    }

    /// Rules that could never act are rejected: one on a communicator
    /// without an LRC (or outside the spec), and a replica drop of a task
    /// outside the spec.
    #[test]
    fn rules_that_never_act_are_rejected() {
        let (spec, comms) = spec_with_lrcs(&[0.9]);
        let (s, u) = (comms[0], comms[1]);
        let t = spec.find_task("t0").unwrap();
        let monitor = || LrcMonitor::new(&spec, MonitorConfig::default());
        let drop = |task| Response::DropReplica {
            task,
            host: HostId::new(0),
        };
        let rule = |comm, response| vec![DegradationRule { comm, response }];
        let switch = Response::ModeSwitch { event: 0 };
        assert_eq!(
            monitor().with_rules(rule(s, switch)).err(),
            Some(RuleError::NoLrc(s))
        );
        let outside = CommunicatorId::new(9);
        assert_eq!(
            monitor().with_rules(rule(outside, drop(t))).err(),
            Some(RuleError::NoLrc(outside))
        );
        let ghost = TaskId::new(7);
        let mut rules = rule(u, drop(t));
        rules.extend(rule(u, drop(ghost)));
        assert_eq!(
            monitor().with_rules(rules).err(),
            Some(RuleError::UnknownTask(ghost))
        );
        assert!(monitor().with_rules(rule(u, drop(t))).is_ok());
        assert!(monitor().with_rules(rule(u, switch)).is_ok());
    }

    /// Feeds one random reliable-mask stream to a `width`-lane monitor
    /// carrying random rules and to one [`OracleDegrader`] per lane, and
    /// checks lane by lane, after every update: what fired and in which
    /// order (the alarm, then each engaged rule in rule order), the
    /// engagement instants, the mode events and the exclusion masks.
    fn check_rules_against_oracle(width: usize, seed: u64, updates: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = MonitorConfig {
            window: [1, 3, 20][rng.gen_range(0..3usize)],
            confidence: 0.9,
        };
        let lrcs: Vec<f64> = (0..3)
            .map(|_| pick_lrc(&mut rng, config.window, config.confidence))
            .collect();
        let (spec, comms) = spec_with_lrcs(&lrcs);
        // Several rules per LRC communicator (`with_rules` rejects one on
        // the unconstrained `s`), over tasks and hosts that repeat.
        let rules: Vec<DegradationRule> = (0..rng.gen_range(0..8))
            .map(|_| DegradationRule {
                comm: comms[rng.gen_range(1..comms.len())],
                response: if rng.gen_bool(0.5) {
                    Response::DropReplica {
                        task: TaskId::new(rng.gen_range(0..3)),
                        host: HostId::new(rng.gen_range(0..4)),
                    }
                } else {
                    Response::ModeSwitch {
                        event: rng.gen_range(0..3),
                    }
                },
            })
            .collect();
        let mut group = LrcMonitor::with_lanes(&spec, config, width)
            .with_rules(rules.clone())
            .unwrap();
        let oracle = OracleDegrader::new(OracleMonitor::new(&spec, config), rules.clone());
        let mut oracles = vec![oracle; width];
        const RATES: [f64; 5] = [0.0, 0.05, 0.3, 0.7, 1.0];
        let mut p_fail = 0.0;
        for i in 0..updates {
            if i % 32 == 0 {
                p_fail = RATES[rng.gen_range(0..RATES.len())];
            }
            let comm = comms[rng.gen_range(0..comms.len())];
            let mask = (0..width).fold(0u64, |m, li| {
                m | u64::from(rng.gen::<f64>() >= p_fail) << li
            });
            let now = Tick::new(i * 10);
            let mut fired = Vec::new();
            group.observe_lanes(comm, now, mask, |li, what| {
                fired.push(match what {
                    Fired::Alarm(a) => (li, Err(alarm_bits(a))),
                    Fired::Engaged {
                        rule,
                        at,
                        mode_switch,
                    } => (li, Ok((rule, at, mode_switch))),
                });
            });
            let mut expected = Vec::new();
            for (li, oracle) in oracles.iter_mut().enumerate() {
                let seen = oracle.monitor.alarms.len();
                let engaged = oracle.observe(comm, now, mask >> li & 1 == 1);
                expected.extend(
                    oracle.monitor.alarms[seen..]
                        .iter()
                        .map(|a| (li, Err(alarm_bits(a)))),
                );
                expected.extend(engaged.into_iter().map(|rule| {
                    let mode_switch = match rules[rule].response {
                        Response::ModeSwitch { event } => Some(event),
                        Response::DropReplica { .. } => None,
                    };
                    (li, Ok((rule, now, mode_switch)))
                }));
            }
            assert_eq!(fired, expected, "update {i} of {comm:?}, rules {rules:?}");
            for (li, oracle) in oracles.iter().enumerate() {
                for t in 0..4 {
                    for h in 0..5 {
                        let (t, h) = (TaskId::new(t), HostId::new(h));
                        let want = oracle.exclude_replica(t, h);
                        // Task 3 does not exist: the kernel never asks.
                        if t.index() < spec.task_count() {
                            assert_eq!(drops(&group, t, h, li), want, "lane {li} {t:?} {h:?}");
                        }
                    }
                }
            }
        }
        for (li, oracle) in oracles.iter().enumerate() {
            let lane = group.lane(li);
            for (rule, &at) in oracle.engaged.iter().enumerate() {
                assert_eq!(lane.engaged_at(rule), at, "lane {li} rule {rule}");
            }
            assert_eq!(lane.mode_events(), oracle.mode_events, "lane {li}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn rules_on_the_group_monitor_match_per_lane_degraders(
            width in prop_oneof![Just(1usize), Just(7usize), Just(64usize)],
            seed in any::<u64>(),
            updates in 1u64..600,
        ) {
            check_rules_against_oracle(width, seed, updates);
        }
    }
}
