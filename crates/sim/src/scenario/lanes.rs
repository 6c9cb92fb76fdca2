//! The scenario layer as a lane-group object.
//!
//! A [`Timeline`] is a [`Scenario`] compiled once against a model: its
//! events sorted by kind, in event order, with each probability as the
//! integer cut of its draw ([`rand::unit_threshold`]), plus the sorted
//! instants at which anything starts, stops, crashes or rejoins. It is
//! the scripted half of a fault model as the lane-group kernel reads it
//! ([`FaultModel::timeline`](crate::fault::FaultModel::timeline)).
//! [`ScenarioLanes`] runs one timeline for a group of 1..=64 lanes.
//! Everything that does not depend on a lane's random stream is
//! evaluated once per group:
//!
//! * a cursor over the timeline keeps the *frame* — which windows are
//!   active, each host's crash/rejoin state, the adversary's hold — for
//!   the segment between two breakpoints, so a call inside the segment
//!   scans nothing;
//! * whether a flaky, wear-out or common-cause entity or a burst has
//!   already drawn at this instant is one stamp per entity for the whole
//!   group (every lane makes the same calls in the same order);
//! * the partition part of delivery and the adversary's pivot rule.
//!
//! What remains per lane is its draws, made site by site for all lanes at
//! once on the lanes' own streams in the order a one-lane run makes them
//! ([`ScenarioLanes::draw_host_lanes`], [`ScenarioLanes::draw_bursts_lanes`]),
//! and folded into lane masks: one "down" mask per flaky host, wear-out
//! host and common-cause group, a `bad` and a `lose_now` mask per burst
//! chain, a "dead" mask per host under a crash hazard, and the adversary's
//! holds per (host, lane). A hazard draws only on the lanes whose host is
//! still alive, as a masked step, so a dead lane's stream stands still.

use super::{HostSet, Scenario, ScenarioError, ScenarioEvent};
use crate::draws::LaneRngs;
use logrel_core::{HostId, Tick};
use rand::unit_threshold;

/// A half-open window `[from, until)` carrying `what`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window<T> {
    from: u64,
    until: u64,
    what: T,
}

impl<T> Window<T> {
    fn new(from: Tick, until: Tick, what: T) -> Self {
        Window {
            from: from.as_u64(),
            until: until.as_u64(),
            what,
        }
    }

    fn active(&self, now: u64) -> bool {
        (self.from..self.until).contains(&now)
    }

    fn bounds(&self) -> [u64; 2] {
        [self.from, self.until]
    }
}

/// The integer cuts of the Gilbert–Elliott draws of one burst window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Chain {
    cut_enter: u64,
    cut_exit: u64,
    cut_loss: u64,
}

/// A host's scripted crash/rejoin state at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CrashState {
    /// No transition yet.
    Unscripted,
    /// Crashed, not yet rejoined.
    Down,
    /// Rejoined at the given instant.
    Rejoined(u64),
}

/// A scenario compiled against a model with a fixed number of hosts: the
/// scripted half of a fault model (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    hosts: usize,
    /// Per host: crash/rejoin transitions as (instant, is_rejoin), sorted.
    transitions: Vec<Vec<(u64, bool)>>,
    /// Flaky windows: (host, cut of `up`).
    flaky: Vec<Window<(usize, u64)>>,
    /// Wear-out windows: (host, shape, scale).
    wearouts: Vec<Window<(usize, f64, f64)>>,
    /// Common-cause groups: (members, cut of `p`).
    commons: Vec<Window<(HostSet, u64)>>,
    bursts: Vec<Window<Chain>>,
    /// Partition windows: one side of the split.
    splits: Vec<Window<HostSet>>,
    /// Adversary windows: the hold.
    adversaries: Vec<Window<u64>>,
    /// Per host: the cuts of its crash hazards, in event order.
    hazards: Vec<Vec<u64>>,
    /// Per host: its corruptions as (cut, garbage value), in event order.
    corrupts: Vec<Vec<(u64, f64)>>,
    /// Every instant at which the frame changes, sorted and distinct.
    breakpoints: Vec<u64>,
}

impl Timeline {
    /// Compiles `scenario` for a model with `host_count` hosts and
    /// `comm_count` communicators, checking every index against them.
    pub(crate) fn compile(
        scenario: &Scenario,
        host_count: usize,
        comm_count: usize,
    ) -> Result<Self, ScenarioError> {
        scenario.check_bounds(host_count, comm_count)?;
        Ok(Self::compile_checked(scenario, host_count))
    }

    /// The empty timeline for `host_count` hosts.
    pub(crate) fn empty(host_count: usize) -> Self {
        Self::compile_checked(&Scenario::new(), host_count)
    }

    fn compile_checked(scenario: &Scenario, hosts: usize) -> Self {
        let mut tl = Timeline {
            hosts,
            transitions: vec![Vec::new(); hosts],
            flaky: Vec::new(),
            wearouts: Vec::new(),
            commons: Vec::new(),
            bursts: Vec::new(),
            splits: Vec::new(),
            adversaries: Vec::new(),
            hazards: vec![Vec::new(); hosts],
            corrupts: vec![Vec::new(); hosts],
            breakpoints: Vec::new(),
        };
        for e in scenario.events() {
            match *e {
                ScenarioEvent::Crash { host, at } => {
                    tl.transitions[host.index()].push((at.as_u64(), false));
                }
                ScenarioEvent::Rejoin { host, at } => {
                    tl.transitions[host.index()].push((at.as_u64(), true));
                }
                ScenarioEvent::Flaky {
                    host,
                    from,
                    until,
                    up,
                } => tl
                    .flaky
                    .push(Window::new(from, until, (host.index(), unit_threshold(up)))),
                ScenarioEvent::StuckSensor { .. } => {} // environment-side
                ScenarioEvent::Burst {
                    from,
                    until,
                    p_enter,
                    p_exit,
                    loss,
                } => tl.bursts.push(Window::new(
                    from,
                    until,
                    Chain {
                        cut_enter: unit_threshold(p_enter),
                        cut_exit: unit_threshold(p_exit),
                        cut_loss: unit_threshold(loss),
                    },
                )),
                ScenarioEvent::CommonCause {
                    hosts,
                    from,
                    until,
                    p,
                } => tl
                    .commons
                    .push(Window::new(from, until, (hosts, unit_threshold(p)))),
                ScenarioEvent::Partition { hosts, from, until } => {
                    tl.splits.push(Window::new(from, until, hosts));
                }
                ScenarioEvent::Wearout {
                    host,
                    from,
                    until,
                    shape,
                    scale,
                } => tl
                    .wearouts
                    .push(Window::new(from, until, (host.index(), shape, scale))),
                ScenarioEvent::Adversary { from, until, hold } => {
                    tl.adversaries.push(Window::new(from, until, hold));
                }
                ScenarioEvent::Hazard { host, p } => {
                    tl.hazards[host.index()].push(unit_threshold(p));
                }
                ScenarioEvent::Corrupt { host, p, value } => {
                    tl.corrupts[host.index()].push((unit_threshold(p), value));
                }
            }
        }
        for t in &mut tl.transitions {
            t.sort_unstable();
        }
        let transitions = tl.transitions.iter().flatten().map(|&(at, _)| at);
        let mut bps: Vec<u64> = transitions
            .chain(tl.flaky.iter().flat_map(Window::bounds))
            .chain(tl.wearouts.iter().flat_map(Window::bounds))
            .chain(tl.commons.iter().flat_map(Window::bounds))
            .chain(tl.bursts.iter().flat_map(Window::bounds))
            .chain(tl.splits.iter().flat_map(Window::bounds))
            .chain(tl.adversaries.iter().flat_map(Window::bounds))
            .collect();
        bps.sort_unstable();
        bps.dedup();
        tl.breakpoints = bps;
        tl
    }

    /// `host`'s crash/rejoin state at `now`: its latest transition at or
    /// before `now`.
    fn crash_state(&self, host: usize, now: u64) -> CrashState {
        let ts = &self.transitions[host];
        match ts.partition_point(|&(at, _)| at <= now) {
            0 => CrashState::Unscripted,
            i => match ts[i - 1] {
                (at, true) => CrashState::Rejoined(at),
                (_, false) => CrashState::Down,
            },
        }
    }
}

/// The timeline's state on the segment `[lo, hi)` between two
/// breakpoints, where no window starts or stops and no host crashes or
/// rejoins.
#[derive(Debug, Clone)]
struct Frame {
    lo: u64,
    hi: u64,
    /// Per host: the cut of each active flaky window, in event order.
    flaky: Vec<Vec<u64>>,
    /// Per host: the active wear-out windows (from, shape, scale).
    wear: Vec<Vec<(u64, f64, f64)>>,
    /// Per host: the active common-cause groups holding it.
    commons: Vec<Vec<u32>>,
    /// The active bursts.
    bursts: Vec<u32>,
    /// One side of each active split.
    splits: Vec<HostSet>,
    /// The longest hold of the active adversary windows (0: none).
    hold: u64,
    crash: Vec<CrashState>,
    /// Whether any probabilistic window is active.
    draws: bool,
}

/// One Bernoulli draw every lane makes for the host being queried: lane
/// bits whose draw falls below `cut` exactly when `down_if` are set in
/// `down[slot]`.
#[derive(Debug, Clone, Copy)]
struct Draw {
    cut: u64,
    slot: u32,
    down_if: bool,
}

/// One [`Timeline`] run for a group of 1..=64 lanes; see the module
/// docs.
///
/// The per-entity state lives in two parallel arrays laid out as
/// `[flaky host 0..H | wear-out host 0..H | common-cause group 0..G]`:
/// `stamp` (the instant + 1 the entity last drew at, 0 = never) and
/// `down` (the lanes that entity has down at that instant).
#[derive(Debug, Clone)]
pub(crate) struct ScenarioLanes {
    tl: Timeline,
    width: usize,
    all: u64,
    frame: Frame,
    stamp: Vec<u64>,
    down: Vec<u64>,
    /// Per burst: the last instant the chain advanced at (`u64::MAX` =
    /// never), and the lanes in the Bad state and losing at that instant.
    burst_last: Vec<u64>,
    burst_bad: Vec<u64>,
    burst_lose: Vec<u64>,
    /// Per (host, lane): the adversary holds the host down while
    /// `now < until`; per host, the largest such `until` over the lanes.
    adv_until: Vec<u64>,
    adv_max: Vec<u64>,
    /// Per host: the lanes on which a crash hazard has killed it.
    dead: Vec<u64>,
    /// The host of the current query, and the draws it makes on each lane.
    host: usize,
    host_draws: Vec<Draw>,
    burst_draws: Vec<u32>,
}

impl ScenarioLanes {
    /// Runs `tl` for `width` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=64`.
    pub(crate) fn new(tl: Timeline, width: usize) -> Self {
        assert!((1..=64).contains(&width), "scenario group of {width} lanes");
        let hosts = tl.hosts;
        let slots = 2 * hosts + tl.commons.len();
        let bursts = tl.bursts.len();
        ScenarioLanes {
            width,
            all: u64::MAX >> (64 - width),
            frame: Frame {
                // An empty segment: the first query rebuilds it.
                lo: 1,
                hi: 0,
                flaky: vec![Vec::new(); hosts],
                wear: vec![Vec::new(); hosts],
                commons: vec![Vec::new(); hosts],
                bursts: Vec::new(),
                splits: Vec::new(),
                hold: 0,
                crash: vec![CrashState::Unscripted; hosts],
                draws: false,
            },
            stamp: vec![0; slots],
            down: vec![0; slots],
            burst_last: vec![u64::MAX; bursts],
            burst_bad: vec![0; bursts],
            burst_lose: vec![0; bursts],
            adv_until: vec![0; hosts * width],
            adv_max: vec![0; hosts],
            dead: vec![0; hosts],
            host: 0,
            host_draws: Vec::new(),
            burst_draws: Vec::new(),
            tl,
        }
    }

    /// The number of lanes.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Whether the timeline scripts anything for the hosts: with no
    /// breakpoint and no hazard, no host is ever crashed, held or drawn
    /// for.
    #[inline]
    pub(crate) fn scripted(&self) -> bool {
        !self.tl.breakpoints.is_empty() || self.tl.hazards.iter().any(|h| !h.is_empty())
    }

    /// Whether the timeline has a `corrupt` event.
    pub(crate) fn corrupting(&self) -> bool {
        self.tl.corrupts.iter().any(|c| !c.is_empty())
    }

    /// The corruptions a delivered replica on `host` draws for: (cut,
    /// garbage value), in event order.
    #[inline]
    pub(crate) fn corrupts(&self, host: HostId) -> &[(u64, f64)] {
        &self.tl.corrupts[host.index()]
    }

    /// Whether the timeline has a partition window.
    #[inline]
    pub(crate) fn partitions(&self) -> bool {
        !self.tl.splits.is_empty()
    }

    /// Whether the timeline has an adversary window.
    #[inline]
    pub(crate) fn adaptive(&self) -> bool {
        !self.tl.adversaries.is_empty()
    }

    /// Moves the cursor to `now`.
    #[inline]
    fn seek(&mut self, now: u64) {
        if !(self.frame.lo <= now && now < self.frame.hi) {
            self.rebuild(now);
        }
    }

    #[cold]
    fn rebuild(&mut self, now: u64) {
        let tl = &self.tl;
        let f = &mut self.frame;
        let i = tl.breakpoints.partition_point(|&b| b <= now);
        f.lo = if i == 0 { 0 } else { tl.breakpoints[i - 1] };
        f.hi = tl.breakpoints.get(i).copied().unwrap_or(u64::MAX);
        for h in 0..tl.hosts {
            f.flaky[h].clear();
            f.wear[h].clear();
            f.commons[h].clear();
            f.crash[h] = tl.crash_state(h, now);
        }
        for w in tl.flaky.iter().filter(|w| w.active(now)) {
            f.flaky[w.what.0].push(w.what.1);
        }
        for w in tl.wearouts.iter().filter(|w| w.active(now)) {
            let (host, shape, scale) = w.what;
            f.wear[host].push((w.from, shape, scale));
        }
        for (g, w) in tl.commons.iter().enumerate() {
            if w.active(now) {
                for h in w.what.0.iter() {
                    f.commons[h.index()].push(g as u32);
                }
            }
        }
        f.bursts.clear();
        f.bursts
            .extend((0..tl.bursts.len() as u32).filter(|&b| tl.bursts[b as usize].active(now)));
        f.splits.clear();
        f.splits
            .extend(tl.splits.iter().filter(|w| w.active(now)).map(|w| w.what));
        f.hold = tl
            .adversaries
            .iter()
            .filter(|w| w.active(now))
            .map(|w| w.what)
            .max()
            .unwrap_or(0);
        f.draws = f.flaky.iter().any(|v| !v.is_empty())
            || f.wear.iter().any(|v| !v.is_empty())
            || f.commons.iter().any(|v| !v.is_empty())
            || !f.bursts.is_empty();
    }

    /// Plans the draws every lane makes for `host` at `now`: each
    /// active flaky window of the host, each active common-cause group
    /// holding it, then each active wear-out window of the host — unless
    /// that entity already drew at this instant, when its lane mask
    /// answers instead.
    ///
    /// The host's flaky and wear-out stamps are set whether or not a
    /// window is active, as the per-host caches of the one-lane
    /// injector this layer replaced were.
    #[inline]
    pub(crate) fn begin_host(&mut self, host: HostId, now: u64) {
        self.seek(now);
        self.host_draws.clear();
        let h = host.index();
        self.host = h;
        let at = now.wrapping_add(1);
        if self.frame.draws {
            self.plan_host(h, at, now);
        } else {
            for slot in [h, self.tl.hosts + h] {
                self.stamp[slot] = at;
                self.down[slot] = 0;
            }
        }
    }

    #[inline]
    fn plan_host(&mut self, h: usize, at: u64, now: u64) {
        let hosts = self.tl.hosts;
        let f = &self.frame;
        if self.stamp[h] != at {
            self.stamp[h] = at;
            self.down[h] = 0;
            self.host_draws.extend(f.flaky[h].iter().map(|&cut| Draw {
                cut,
                slot: h as u32,
                down_if: false,
            }));
        }
        for &g in &f.commons[h] {
            let slot = 2 * hosts + g as usize;
            if self.stamp[slot] != at {
                self.stamp[slot] = at;
                self.down[slot] = 0;
                self.host_draws.push(Draw {
                    cut: self.tl.commons[g as usize].what.1,
                    slot: slot as u32,
                    down_if: true,
                });
            }
        }
        let slot = hosts + h;
        if self.stamp[slot] != at {
            self.stamp[slot] = at;
            self.down[slot] = 0;
            self.host_draws
                .extend(f.wear[h].iter().map(|&(from, shape, scale)| {
                    let x = (now - from) as f64 / scale;
                    // The canonical shapes — exponential (1) and Rayleigh
                    // (2) — skip the libm powf.
                    let hazard = if shape == 2.0 {
                        x * x
                    } else if shape == 1.0 {
                        x
                    } else {
                        x.powf(shape)
                    };
                    Draw {
                        cut: unit_threshold((-hazard).exp()),
                        slot: slot as u32,
                        down_if: false,
                    }
                }));
        }
    }

    /// Every lane's draws for the host of the last
    /// [`ScenarioLanes::begin_host`], site by site over all lanes: the
    /// planned draws, then the host's crash hazards on the lanes where it
    /// is still alive.
    #[inline]
    pub(crate) fn draw_host_lanes(&mut self, rngs: &mut LaneRngs) {
        for d in &self.host_draws {
            let below = rngs.below(d.cut);
            self.down[d.slot as usize] |= if d.down_if { below } else { !below & self.all };
        }
        if !self.tl.hazards[self.host].is_empty() {
            self.draw_hazards(rngs);
        }
    }

    /// The crash hazards of the host of the last
    /// [`ScenarioLanes::begin_host`], each on the lanes where the host is
    /// still alive.
    #[inline(never)]
    fn draw_hazards(&mut self, rngs: &mut LaneRngs) {
        let dead = &mut self.dead[self.host];
        for &cut in &self.tl.hazards[self.host] {
            *dead |= rngs.below_masked(cut, self.all & !*dead);
        }
    }

    /// Plans the burst draws every lane makes at `now`: a transition and
    /// a loss draw per active chain that has not advanced at this instant.
    #[inline]
    pub(crate) fn begin_bursts(&mut self, now: u64) {
        self.seek(now);
        self.burst_draws.clear();
        for &b in &self.frame.bursts {
            let i = b as usize;
            if self.burst_last[i] != now {
                self.burst_last[i] = now;
                self.burst_lose[i] = 0;
                self.burst_draws.push(b);
            }
        }
    }

    /// Every lane's burst draws planned by the last
    /// [`ScenarioLanes::begin_bursts`], site by site over all lanes: per
    /// chain, the transition draws, each lane's against the cut of its
    /// own chain state, then the loss draws.
    #[inline]
    pub(crate) fn draw_bursts_lanes(&mut self, rngs: &mut LaneRngs) {
        for &b in &self.burst_draws {
            let i = b as usize;
            let chain = self.tl.bursts[i].what;
            let bad = self.burst_bad[i];
            // A Bad lane leaves on a draw under `exit`, a Good one enters
            // on a draw under `enter`: either way the state flips.
            self.burst_bad[i] = bad ^ rngs.below_select(bad, chain.cut_exit, chain.cut_enter);
            self.burst_lose[i] |= rngs.below(chain.cut_loss);
        }
    }

    /// The lanes on which `host` is up at `now` as far as the scenario
    /// goes: not crashed, not killed by a hazard, not held by the
    /// adversary, and not downed by a flaky, common-cause or wear-out
    /// entity that drew at this instant (an entity that has not drawn yet
    /// counts as up).
    #[inline]
    pub(crate) fn up_mask(&mut self, host: HostId, now: u64) -> u64 {
        self.seek(now);
        let h = host.index();
        if self.frame.crash[h] == CrashState::Down {
            return 0;
        }
        let mut down = self.adv_mask(h, now) | self.dead[h];
        if self.frame.draws {
            let at = now.wrapping_add(1);
            let hosts = self.tl.hosts;
            for slot in [h, hosts + h] {
                if self.stamp[slot] == at {
                    down |= self.down[slot];
                }
            }
            for &g in &self.frame.commons[h] {
                let slot = 2 * hosts + g as usize;
                if self.stamp[slot] == at {
                    down |= self.down[slot];
                }
            }
        }
        self.all & !down
    }

    /// The lanes whose broadcast at `now` survives every active burst
    /// chain (valid after [`ScenarioLanes::begin_bursts`] at `now`).
    #[inline]
    pub(crate) fn burst_ok(&self) -> u64 {
        let lost = self.frame.bursts.iter().fold(0, |m, &b| {
            m | (self.burst_bad[b as usize] & self.burst_lose[b as usize])
        });
        self.all & !lost
    }

    /// The lanes the adversary holds `host` down on at `now`.
    #[inline]
    fn adv_mask(&self, h: usize, now: u64) -> u64 {
        if now >= self.adv_max[h] {
            return 0;
        }
        let row = &self.adv_until[h * self.width..][..self.width];
        row.iter()
            .enumerate()
            .fold(0, |m, (li, &until)| m | u64::from(now < until) << li)
    }

    /// `host`'s crash/rejoin state at the instant of the last
    /// [`ScenarioLanes::begin_host`].
    #[inline]
    pub(crate) fn crash_state(&self, host: HostId) -> CrashState {
        self.frame.crash[host.index()]
    }

    /// Whether a broadcast `sender` makes at the instant of the last
    /// [`ScenarioLanes::begin_host`] reaches `receiver` across every
    /// active split.
    #[inline]
    pub(crate) fn delivers(&self, sender: HostId, receiver: HostId) -> bool {
        self.frame
            .splits
            .iter()
            .all(|side| side.contains(sender) == side.contains(receiver))
    }

    /// Feeds one vote back to the adversary: `replicas` are the task's
    /// replicas as (host, lanes on which it delivered into the vote), out
    /// of `total` assigned. On every lane whose vote holds exactly the
    /// minimal strict majority, the lowest-indexed delivering host is
    /// held down while the instant is below `now + 1 + hold`, for the
    /// longest active `hold`.
    pub(crate) fn observe_votes<R>(&mut self, now: u64, replicas: R, total: usize)
    where
        R: Iterator<Item = (HostId, u64)> + Clone,
    {
        self.seek(now);
        let hold = self.frame.hold;
        if hold == 0 || total == 0 {
            return;
        }
        let majority = total / 2 + 1;
        // Count the delivering replicas of every lane at once: bit plane
        // `b` of the counter holds bit `b` of each lane's count.
        let bits = (usize::BITS - majority.max(replicas.clone().count()).leading_zeros()) as usize;
        let mut planes = [0u64; usize::BITS as usize];
        for (_, mask) in replicas.clone() {
            let mut carry = mask;
            for plane in &mut planes[..bits] {
                let next = *plane & carry;
                *plane ^= carry;
                carry = next;
            }
        }
        let mut pivots = self.all;
        for (b, &plane) in planes[..bits].iter().enumerate() {
            pivots &= if majority >> b & 1 == 1 {
                plane
            } else {
                !plane
            };
        }
        let until = now.saturating_add(1).saturating_add(hold);
        while pivots != 0 {
            // The lowest-indexed host delivering on any pivot lane is
            // the target of every pivot lane it delivers on.
            let Some((target, _)) = replicas
                .clone()
                .filter(|&(_, m)| m & pivots != 0)
                .min_by_key(|&(h, _)| h)
            else {
                break;
            };
            let hit = replicas
                .clone()
                .filter(|&(h, _)| h == target)
                .fold(0, |a, (_, m)| a | m)
                & pivots;
            let h = target.index();
            let row = &mut self.adv_until[h * self.width..][..self.width];
            let mut lanes = hit;
            while lanes != 0 {
                let u = &mut row[lanes.trailing_zeros() as usize];
                *u = (*u).max(until);
                lanes &= lanes - 1;
            }
            self.adv_max[h] = self.adv_max[h].max(until);
            pivots &= !hit;
        }
    }
}
