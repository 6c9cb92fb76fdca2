//! Scripted fault scenarios with deterministic, replayable timelines.
//!
//! A [`Scenario`] is a list of [`ScenarioEvent`]s — host crashes and
//! rejoins, intermittent ("flaky") host windows, stuck-at sensor windows,
//! correlated broadcast burst loss via a Gilbert–Elliott two-state
//! channel, common-cause group outages, network partitions, Weibull
//! wear-out, an adaptive vote-pivot adversary, permanent crash hazards and
//! value corruption. Compiled against a model, a scenario is a
//! [`Timeline`]: [`ScenarioFaults`] pairs one with the per-invocation
//! rates of a base model into the fault model the lane-group kernel reads
//! as data, and [`ScenarioEnvironment`] applies the stuck-sensor windows
//! over any [`Environment`]. Scenarios serialize to a small line-oriented
//! text format (see [`Scenario::parse`]); the canonical rendering
//! round-trips exactly, so a replay from the serialized form is
//! bit-identical to the original run.
//!
//! # Text format
//!
//! An optional `scn v2` version header, then one event per line; `#`
//! starts a comment, blank lines are ignored. Headerless input is
//! accepted as v1 for back-compat; unknown versions are rejected:
//!
//! ```text
//! scn v2
//! # crash host 1 at instant 125000, bring it back at 200000
//! crash host=1 at=125000
//! rejoin host=1 at=200000
//! # host 2 only answers 80% of invocations during the window
//! flaky host=2 from=0 until=50000 up=0.8
//! # sensor-fed communicator 0 freezes its last value in the window
//! stuck comm=0 from=1000 until=2000
//! # Gilbert–Elliott burst loss on the broadcast channel
//! burst from=0 until=100000 enter=0.01 exit=0.2 loss=0.9
//! # one draw downs hosts 0 and 1 *together* (correlated outage)
//! common hosts=0,1 from=0 until=50000 p=0.02
//! # the network splits: {0,2} vs everyone else
//! partition hosts=0,2 from=10000 until=20000
//! # host 1 wears out along a Weibull hazard over the window
//! wearout host=1 from=0 until=100000 shape=2 scale=40000
//! # adversary knocks out the vote pivot for 500 ticks at a time
//! adversary from=0 until=100000 hold=500
//! # each invocation of live host 0 crashes it for good with p = 0.001
//! hazard host=0 p=0.001
//! # each delivered replica on host 2 emits -5 on its float outputs
//! # with p = 0.1
//! corrupt host=2 p=0.1 value=-5
//! ```
//!
//! Instants are ticks; windows are half-open `[from, until)`. Crashed
//! hosts are fail-silent on every channel (no execution, no broadcast,
//! no corruption) until their `rejoin`; the kernel then applies the
//! warm-up rule. A crash without a rejoin is an unplugged host. Flaky,
//! common-cause, wear-out and adversary windows are transient — they
//! never trigger warm-up. `hazard` and `corrupt` hold for the whole run:
//! a host killed by a hazard stays silent forever, and corruption
//! replaces a delivered replica's float outputs by `value` (the
//! non-fail-silent host the paper's ref \[2\] rules out).
//!
//! All scenario randomness is drawn from the simulation's seeded RNG in a
//! fixed order. Per replica: the base model's host draw; one flaky draw
//! per host and instant, one draw per common-cause group and instant made
//! by the first member queried, one draw per wear-out window per host and
//! instant; one draw per hazard of the host at every invocation while the
//! host is alive; the base model's broadcast draw; one chain-advance plus
//! one loss draw per burst window and broadcast instant; and, when the
//! replica delivers, one draw per `corrupt` event of its host. Partitions
//! and the
//! adversary are draw-free. So runs remain bit-reproducible, and the base
//! model's draw sequence is unperturbed.

use crate::environment::Environment;
use crate::fault::{FaultModel, ProbabilisticFaults};
use logrel_core::{CommunicatorId, HostId, Tick, Value};
use std::fmt;

mod lanes;
#[cfg(test)]
pub(crate) mod oracle;
#[cfg(test)]
mod oracle_tests;

pub use lanes::Timeline;
pub(crate) use lanes::{CrashState, ScenarioLanes};

/// A set of hosts identified by index, packed as a bitmask. Scenario
/// events that name host *groups* (common-cause outages, partitions)
/// support host indices `0..64` — far beyond any modelled architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostSet(u64);

impl HostSet {
    /// The empty set.
    pub const EMPTY: HostSet = HostSet(0);

    /// Builds a set from host ids; fails with the offending id if an
    /// index is `≥ 64`.
    pub fn from_hosts(hosts: impl IntoIterator<Item = HostId>) -> Result<Self, HostId> {
        let mut set = HostSet(0);
        for h in hosts {
            if h.index() >= 64 {
                return Err(h);
            }
            set.0 |= 1 << h.index();
        }
        Ok(set)
    }

    /// Whether `host` is a member (indices `≥ 64` never are).
    #[must_use]
    pub fn contains(self, host: HostId) -> bool {
        host.index() < 64 && self.0 & (1 << host.index()) != 0
    }

    /// Number of members.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set has no members.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The members in ascending index order.
    pub fn iter(self) -> impl Iterator<Item = HostId> {
        (0..64u32)
            .filter(move |i| self.0 & (1 << i) != 0)
            .map(HostId::new)
    }

    /// The largest member index, if any.
    #[must_use]
    fn max_index(self) -> Option<usize> {
        (self.0 != 0).then(|| 63 - self.0.leading_zeros() as usize)
    }
}

impl fmt::Display for HostSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, h) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", h.index())?;
        }
        Ok(())
    }
}

/// One scripted fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioEvent {
    /// `host` goes fail-silent at `at` (and stays down until a `Rejoin`).
    Crash {
        /// The crashing host.
        host: HostId,
        /// Crash instant.
        at: Tick,
    },
    /// `host` returns to service at `at`.
    Rejoin {
        /// The rejoining host.
        host: HostId,
        /// Rejoin instant.
        at: Tick,
    },
    /// During `[from, until)`, `host` answers each instant only with
    /// probability `up` (applies to execution and broadcast alike).
    Flaky {
        /// The intermittent host.
        host: HostId,
        /// Window start (inclusive).
        from: Tick,
        /// Window end (exclusive).
        until: Tick,
        /// Per-instant availability in `[0, 1]`.
        up: f64,
    },
    /// During `[from, until)`, the sensor-fed communicator `comm` keeps
    /// re-delivering the last value sensed before the window (a stuck-at
    /// sensor: reliable but stale).
    StuckSensor {
        /// The frozen sensor-fed communicator.
        comm: CommunicatorId,
        /// Window start (inclusive).
        from: Tick,
        /// Window end (exclusive).
        until: Tick,
    },
    /// During `[from, until)`, the broadcast channel runs a
    /// Gilbert–Elliott chain: Good→Bad with probability `p_enter` and
    /// Bad→Good with `p_exit` per broadcast instant; in the Bad state
    /// each broadcast is lost with probability `loss`.
    Burst {
        /// Window start (inclusive).
        from: Tick,
        /// Window end (exclusive).
        until: Tick,
        /// Per-instant Good→Bad transition probability.
        p_enter: f64,
        /// Per-instant Bad→Good transition probability.
        p_exit: f64,
        /// Loss probability per broadcast while in the Bad state.
        loss: f64,
    },
    /// During `[from, until)`, one *common-cause* draw per instant downs
    /// every host in `hosts` together with probability `p`. Each
    /// member's marginal per-instant availability stays `1 − p` (as an
    /// independent flaky window would give it), but the failures are
    /// perfectly correlated — the independence assumption behind
    /// Proposition 1 is deliberately violated. Transient (no warm-up).
    CommonCause {
        /// The correlated host group.
        hosts: HostSet,
        /// Window start (inclusive).
        from: Tick,
        /// Window end (exclusive).
        until: Tick,
        /// Per-instant probability that the whole group goes down.
        p: f64,
    },
    /// During `[from, until)`, the network splits into two sides: the
    /// listed `hosts` and everyone else. A broadcast is delivered only
    /// between hosts on the same side. Membership is scripted and
    /// draw-free. A replica cut off from any host that reads its outputs
    /// counts as a broadcast drop.
    Partition {
        /// One side of the split (the complement is the other side).
        hosts: HostSet,
        /// Window start (inclusive).
        from: Tick,
        /// Window end (exclusive).
        until: Tick,
    },
    /// During `[from, until)`, `host` wears out along a Weibull hazard:
    /// at age `τ = now − from` it answers each instant only with
    /// survival probability `exp(−(τ/scale)^shape)`. Transient (no
    /// warm-up); `shape > 1` models ageing, `shape < 1` infant
    /// mortality.
    Wearout {
        /// The wearing host.
        host: HostId,
        /// Window start (inclusive) — the age origin.
        from: Tick,
        /// Window end (exclusive).
        until: Tick,
        /// Weibull shape parameter `k > 0`.
        shape: f64,
        /// Weibull scale parameter `λ > 0`, in ticks.
        scale: f64,
    },
    /// During `[from, until)`, an adaptive adversary watches every vote;
    /// whenever a vote sits at
    /// the minimal strict majority — losing any one replica would flip
    /// it — the lowest-indexed delivering host is knocked out for the
    /// next `hold` ticks. Entirely draw-free, so it perturbs no RNG
    /// stream.
    Adversary {
        /// Window start (inclusive).
        from: Tick,
        /// Window end (exclusive).
        until: Tick,
        /// How many ticks a targeted host stays down after the vote.
        hold: u64,
    },
    /// Permanent (crash) faults: at every invocation of `host` while it
    /// is alive, it crashes with probability `p` and then stays silent on
    /// every channel forever — the fail-silent crash regime, in contrast
    /// to the paper's per-invocation transient model.
    Hazard {
        /// The crashing host.
        host: HostId,
        /// Per-invocation crash probability.
        p: f64,
    },
    /// A non-fail-silent host: each replica `host` delivers carries
    /// corrupted values with probability `p` — its float outputs replaced
    /// by `value`. Under `AnyReliable` voting one corrupted replica
    /// poisons the communicator; `Majority` voting over three or more
    /// replicas recovers.
    Corrupt {
        /// The corrupting host.
        host: HostId,
        /// Per-replica corruption probability.
        p: f64,
        /// The garbage a corrupted float output holds.
        value: f64,
    },
}

impl fmt::Display for ScenarioEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScenarioEvent::Crash { host, at } => {
                write!(f, "crash host={} at={}", host.index(), at.as_u64())
            }
            ScenarioEvent::Rejoin { host, at } => {
                write!(f, "rejoin host={} at={}", host.index(), at.as_u64())
            }
            ScenarioEvent::Flaky {
                host,
                from,
                until,
                up,
            } => write!(
                f,
                "flaky host={} from={} until={} up={}",
                host.index(),
                from.as_u64(),
                until.as_u64(),
                up
            ),
            ScenarioEvent::StuckSensor { comm, from, until } => write!(
                f,
                "stuck comm={} from={} until={}",
                comm.index(),
                from.as_u64(),
                until.as_u64()
            ),
            ScenarioEvent::Burst {
                from,
                until,
                p_enter,
                p_exit,
                loss,
            } => write!(
                f,
                "burst from={} until={} enter={} exit={} loss={}",
                from.as_u64(),
                until.as_u64(),
                p_enter,
                p_exit,
                loss
            ),
            ScenarioEvent::CommonCause {
                hosts,
                from,
                until,
                p,
            } => write!(
                f,
                "common hosts={} from={} until={} p={}",
                hosts,
                from.as_u64(),
                until.as_u64(),
                p
            ),
            ScenarioEvent::Partition { hosts, from, until } => write!(
                f,
                "partition hosts={} from={} until={}",
                hosts,
                from.as_u64(),
                until.as_u64()
            ),
            ScenarioEvent::Wearout {
                host,
                from,
                until,
                shape,
                scale,
            } => write!(
                f,
                "wearout host={} from={} until={} shape={} scale={}",
                host.index(),
                from.as_u64(),
                until.as_u64(),
                shape,
                scale
            ),
            ScenarioEvent::Adversary { from, until, hold } => write!(
                f,
                "adversary from={} until={} hold={}",
                from.as_u64(),
                until.as_u64(),
                hold
            ),
            ScenarioEvent::Hazard { host, p } => write!(f, "hazard host={} p={}", host.index(), p),
            ScenarioEvent::Corrupt { host, p, value } => {
                write!(f, "corrupt host={} p={p} value={value}", host.index())
            }
        }
    }
}

/// A scripted fault timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    events: Vec<ScenarioEvent>,
}

/// A parse or validation failure, with the offending 1-based line (0 for
/// whole-scenario validation errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number; 0 for validation errors without a line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "scenario line {}: {}", self.line, self.message)
        } else {
            write!(f, "scenario: {}", self.message)
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Resolves names in scenario text to model ids, so scenario files may
/// say `crash host=main_a` against a compiled HTL program. Numeric
/// indices are always accepted.
pub trait ScenarioSymbols {
    /// The host named `name`, if any.
    fn host(&self, name: &str) -> Option<HostId>;
    /// The communicator named `name`, if any.
    fn communicator(&self, name: &str) -> Option<CommunicatorId>;
}

/// The no-symbols resolver: only numeric indices parse.
struct NoSymbols;

impl ScenarioSymbols for NoSymbols {
    fn host(&self, _name: &str) -> Option<HostId> {
        None
    }
    fn communicator(&self, _name: &str) -> Option<CommunicatorId> {
        None
    }
}

fn err(line: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError {
        line,
        message: message.into(),
    }
}

/// `key=value` fields of one line, in order.
fn fields(rest: &str, line: usize) -> Result<Vec<(&str, &str)>, ScenarioError> {
    rest.split_whitespace()
        .map(|kv| {
            kv.split_once('=')
                .ok_or_else(|| err(line, format!("expected key=value, got `{kv}`")))
        })
        .collect()
}

struct LineParser<'a> {
    fields: Vec<(&'a str, &'a str)>,
    line: usize,
    symbols: &'a dyn ScenarioSymbols,
}

impl<'a> LineParser<'a> {
    fn get(&self, key: &str) -> Result<&'a str, ScenarioError> {
        self.fields
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| err(self.line, format!("missing field `{key}`")))
    }

    fn tick(&self, key: &str) -> Result<Tick, ScenarioError> {
        let v = self.get(key)?;
        v.parse::<u64>()
            .map(Tick::new)
            .map_err(|_| err(self.line, format!("field `{key}`: `{v}` is not an instant")))
    }

    fn prob(&self, key: &str) -> Result<f64, ScenarioError> {
        let v = self.get(key)?;
        let p: f64 = v
            .parse()
            .map_err(|_| err(self.line, format!("field `{key}`: `{v}` is not a number")))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(err(
                self.line,
                format!("field `{key}`: {p} is not a probability in [0, 1]"),
            ));
        }
        Ok(p)
    }

    fn host(&self, key: &str) -> Result<HostId, ScenarioError> {
        let v = self.get(key)?;
        self.resolve_host(v)
    }

    fn resolve_host(&self, v: &str) -> Result<HostId, ScenarioError> {
        if let Ok(i) = v.parse::<u32>() {
            return Ok(HostId::new(i));
        }
        self.symbols
            .host(v)
            .ok_or_else(|| err(self.line, format!("unknown host `{v}`")))
    }

    /// A comma-separated, non-empty host list packed into a [`HostSet`].
    fn hosts(&self, key: &str) -> Result<HostSet, ScenarioError> {
        let v = self.get(key)?;
        let mut set = HostSet::EMPTY;
        for part in v.split(',') {
            if part.is_empty() {
                return Err(err(
                    self.line,
                    format!("field `{key}`: empty host in list `{v}`"),
                ));
            }
            let h = self.resolve_host(part)?;
            set = HostSet::from_hosts(set.iter().chain([h])).map_err(|h| {
                err(
                    self.line,
                    format!(
                        "field `{key}`: host {} exceeds the group limit of 64",
                        h.index()
                    ),
                )
            })?;
        }
        Ok(set)
    }

    /// A strictly positive, finite number (Weibull shape/scale).
    fn positive(&self, key: &str) -> Result<f64, ScenarioError> {
        let v = self.get(key)?;
        let x: f64 = v
            .parse()
            .map_err(|_| err(self.line, format!("field `{key}`: `{v}` is not a number")))?;
        if !(x.is_finite() && x > 0.0) {
            return Err(err(
                self.line,
                format!("field `{key}`: {x} is not a positive number"),
            ));
        }
        Ok(x)
    }

    /// A finite number (a corrupted output value).
    fn finite(&self, key: &str) -> Result<f64, ScenarioError> {
        let v = self.get(key)?;
        let x: f64 = v
            .parse()
            .map_err(|_| err(self.line, format!("field `{key}`: `{v}` is not a number")))?;
        if !x.is_finite() {
            return Err(err(
                self.line,
                format!("field `{key}`: {x} is not a finite number"),
            ));
        }
        Ok(x)
    }

    /// A strictly positive integer (tick counts).
    fn count(&self, key: &str) -> Result<u64, ScenarioError> {
        let v = self.get(key)?;
        let n: u64 = v
            .parse()
            .map_err(|_| err(self.line, format!("field `{key}`: `{v}` is not a count")))?;
        if n == 0 {
            return Err(err(self.line, format!("field `{key}` must be at least 1")));
        }
        Ok(n)
    }

    fn comm(&self, key: &str) -> Result<CommunicatorId, ScenarioError> {
        let v = self.get(key)?;
        if let Ok(i) = v.parse::<u32>() {
            return Ok(CommunicatorId::new(i));
        }
        self.symbols
            .communicator(v)
            .ok_or_else(|| err(self.line, format!("unknown communicator `{v}`")))
    }

    /// Every field is one of `keys`, and none is given twice ([`get`]
    /// reads the first, so a repeat would be dropped unseen).
    ///
    /// [`get`]: LineParser::get
    fn known_keys(&self, keys: &[&str]) -> Result<(), ScenarioError> {
        for (i, &(k, _)) in self.fields.iter().enumerate() {
            if !keys.contains(&k) {
                return Err(err(self.line, format!("unknown field `{k}`")));
            }
            if self.fields[..i].iter().any(|&(seen, _)| seen == k) {
                return Err(err(self.line, format!("field `{k}` given twice")));
            }
        }
        Ok(())
    }
}

impl Scenario {
    /// An empty scenario (pure pass-through).
    pub fn new() -> Self {
        Scenario::default()
    }

    /// The paper's §4 experiment: `host` unplugged from the network at
    /// `at`, for good — a crash without a rejoin.
    pub fn unplug(host: HostId, at: Tick) -> Self {
        Scenario {
            events: vec![ScenarioEvent::Crash { host, at }],
        }
    }

    /// Builds a scenario from events, validating the timeline.
    pub fn from_events(events: Vec<ScenarioEvent>) -> Result<Self, ScenarioError> {
        let s = Scenario { events };
        s.validate()?;
        Ok(s)
    }

    /// The scripted events, in declaration order.
    pub fn events(&self) -> &[ScenarioEvent] {
        &self.events
    }

    /// Parses the text format with numeric indices only.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        Self::parse_with(text, &NoSymbols)
    }

    /// Parses the text format, resolving non-numeric host/communicator
    /// fields through `symbols`.
    pub fn parse_with(text: &str, symbols: &dyn ScenarioSymbols) -> Result<Self, ScenarioError> {
        let mut events = Vec::new();
        let mut significant_lines = 0usize;
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let trimmed = match raw.split_once('#') {
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if trimmed.is_empty() {
                continue;
            }
            significant_lines += 1;
            let (verb, rest) = trimmed
                .split_once(char::is_whitespace)
                .unwrap_or((trimmed, ""));
            // Version directive: `scn v2` as the first significant line.
            // Headerless input is v1 (the original, pre-versioned format).
            if verb == "scn" {
                if significant_lines != 1 {
                    return Err(err(line, "version directive must be the first line"));
                }
                match rest.trim() {
                    "v1" | "v2" => continue,
                    other => {
                        return Err(err(
                            line,
                            format!("unsupported scenario version `{other}` (expected v1 or v2)"),
                        ))
                    }
                }
            }
            let p = LineParser {
                fields: fields(rest, line)?,
                line,
                symbols,
            };
            let event = match verb {
                "crash" => {
                    p.known_keys(&["host", "at"])?;
                    ScenarioEvent::Crash {
                        host: p.host("host")?,
                        at: p.tick("at")?,
                    }
                }
                "rejoin" => {
                    p.known_keys(&["host", "at"])?;
                    ScenarioEvent::Rejoin {
                        host: p.host("host")?,
                        at: p.tick("at")?,
                    }
                }
                "flaky" => {
                    p.known_keys(&["host", "from", "until", "up"])?;
                    ScenarioEvent::Flaky {
                        host: p.host("host")?,
                        from: p.tick("from")?,
                        until: p.tick("until")?,
                        up: p.prob("up")?,
                    }
                }
                "stuck" => {
                    p.known_keys(&["comm", "from", "until"])?;
                    ScenarioEvent::StuckSensor {
                        comm: p.comm("comm")?,
                        from: p.tick("from")?,
                        until: p.tick("until")?,
                    }
                }
                "burst" => {
                    p.known_keys(&["from", "until", "enter", "exit", "loss"])?;
                    ScenarioEvent::Burst {
                        from: p.tick("from")?,
                        until: p.tick("until")?,
                        p_enter: p.prob("enter")?,
                        p_exit: p.prob("exit")?,
                        loss: p.prob("loss")?,
                    }
                }
                "common" => {
                    p.known_keys(&["hosts", "from", "until", "p"])?;
                    ScenarioEvent::CommonCause {
                        hosts: p.hosts("hosts")?,
                        from: p.tick("from")?,
                        until: p.tick("until")?,
                        p: p.prob("p")?,
                    }
                }
                "partition" => {
                    p.known_keys(&["hosts", "from", "until"])?;
                    ScenarioEvent::Partition {
                        hosts: p.hosts("hosts")?,
                        from: p.tick("from")?,
                        until: p.tick("until")?,
                    }
                }
                "wearout" => {
                    p.known_keys(&["host", "from", "until", "shape", "scale"])?;
                    ScenarioEvent::Wearout {
                        host: p.host("host")?,
                        from: p.tick("from")?,
                        until: p.tick("until")?,
                        shape: p.positive("shape")?,
                        scale: p.positive("scale")?,
                    }
                }
                "adversary" => {
                    p.known_keys(&["from", "until", "hold"])?;
                    ScenarioEvent::Adversary {
                        from: p.tick("from")?,
                        until: p.tick("until")?,
                        hold: p.count("hold")?,
                    }
                }
                "hazard" => {
                    p.known_keys(&["host", "p"])?;
                    ScenarioEvent::Hazard {
                        host: p.host("host")?,
                        p: p.prob("p")?,
                    }
                }
                "corrupt" => {
                    p.known_keys(&["host", "p", "value"])?;
                    ScenarioEvent::Corrupt {
                        host: p.host("host")?,
                        p: p.prob("p")?,
                        value: p.finite("value")?,
                    }
                }
                other => return Err(err(line, format!("unknown event `{other}`"))),
            };
            events.push(event);
        }
        Self::from_events(events)
    }

    /// Timeline validation: windows must be non-empty, host groups must
    /// have members, probabilities and Weibull parameters must be sane,
    /// and each host's crash/rejoin events must strictly alternate in
    /// increasing time order starting with a crash.
    fn validate(&self) -> Result<(), ScenarioError> {
        let mut max_host = 0usize;
        for e in &self.events {
            match *e {
                ScenarioEvent::Crash { host, .. }
                | ScenarioEvent::Rejoin { host, .. }
                | ScenarioEvent::Flaky { host, .. } => max_host = max_host.max(host.index() + 1),
                _ => {}
            }
            match *e {
                ScenarioEvent::Flaky { from, until, .. }
                | ScenarioEvent::StuckSensor { from, until, .. }
                | ScenarioEvent::Burst { from, until, .. }
                | ScenarioEvent::CommonCause { from, until, .. }
                | ScenarioEvent::Partition { from, until, .. }
                | ScenarioEvent::Wearout { from, until, .. }
                | ScenarioEvent::Adversary { from, until, .. }
                    if from >= until =>
                {
                    return Err(err(0, format!("empty window in `{e}`")));
                }
                _ => {}
            }
            // The `[0, 1]` check `parse` applies to every probability
            // field (NaN fails it too).
            let probs: &[f64] = match e {
                ScenarioEvent::Flaky { up, .. } => &[*up],
                ScenarioEvent::Burst {
                    p_enter,
                    p_exit,
                    loss,
                    ..
                } => &[*p_enter, *p_exit, *loss],
                ScenarioEvent::CommonCause { p, .. }
                | ScenarioEvent::Hazard { p, .. }
                | ScenarioEvent::Corrupt { p, .. } => &[*p],
                _ => &[],
            };
            if !probs.iter().all(|p| (0.0..=1.0).contains(p)) {
                return Err(err(0, format!("probability out of [0, 1] in `{e}`")));
            }
            match *e {
                ScenarioEvent::CommonCause { hosts, .. } if hosts.is_empty() => {
                    return Err(err(0, format!("empty host group in `{e}`")));
                }
                ScenarioEvent::Partition { hosts, .. } if hosts.is_empty() => {
                    return Err(err(0, format!("empty host group in `{e}`")));
                }
                ScenarioEvent::Wearout { shape, scale, .. }
                    if !(shape.is_finite() && shape > 0.0 && scale.is_finite() && scale > 0.0) =>
                {
                    return Err(err(
                        0,
                        format!("wearout shape/scale must be positive in `{e}`"),
                    ));
                }
                ScenarioEvent::Adversary { hold: 0, .. } => {
                    return Err(err(
                        0,
                        format!("adversary hold must be at least 1 in `{e}`"),
                    ));
                }
                ScenarioEvent::Corrupt { value, .. } if !value.is_finite() => {
                    return Err(err(0, format!("corrupt value must be finite in `{e}`")));
                }
                _ => {}
            }
        }
        for h in 0..max_host {
            let host = HostId::new(h as u32);
            let mut last: Option<(Tick, bool)> = None; // (at, was_crash)
            for e in &self.events {
                let (at, is_crash) = match *e {
                    ScenarioEvent::Crash { host: eh, at } if eh == host => (at, true),
                    ScenarioEvent::Rejoin { host: eh, at } if eh == host => (at, false),
                    _ => continue,
                };
                match last {
                    None if !is_crash => {
                        return Err(err(0, format!("host {h}: rejoin before any crash")))
                    }
                    Some((prev, was_crash)) => {
                        if at <= prev {
                            return Err(err(
                                0,
                                format!("host {h}: crash/rejoin instants must increase"),
                            ));
                        }
                        if was_crash == is_crash {
                            let what = if is_crash { "crash" } else { "rejoin" };
                            return Err(err(0, format!("host {h}: repeated {what}")));
                        }
                    }
                    None => {}
                }
                last = Some((at, is_crash));
            }
        }
        Ok(())
    }

    /// Checks every host/communicator index against the model sizes.
    pub fn check_bounds(&self, host_count: usize, comm_count: usize) -> Result<(), ScenarioError> {
        for e in &self.events {
            match *e {
                ScenarioEvent::Crash { host, .. }
                | ScenarioEvent::Rejoin { host, .. }
                | ScenarioEvent::Flaky { host, .. }
                | ScenarioEvent::Wearout { host, .. }
                | ScenarioEvent::Hazard { host, .. }
                | ScenarioEvent::Corrupt { host, .. } => {
                    if host.index() >= host_count {
                        return Err(err(
                            0,
                            format!("host {} out of range (have {host_count})", host.index()),
                        ));
                    }
                }
                ScenarioEvent::StuckSensor { comm, .. } => {
                    if comm.index() >= comm_count {
                        return Err(err(
                            0,
                            format!(
                                "communicator {} out of range (have {comm_count})",
                                comm.index()
                            ),
                        ));
                    }
                }
                ScenarioEvent::CommonCause { hosts, .. }
                | ScenarioEvent::Partition { hosts, .. } => {
                    if let Some(max) = hosts.max_index() {
                        if max >= host_count {
                            return Err(err(
                                0,
                                format!("host {max} out of range (have {host_count})"),
                            ));
                        }
                    }
                }
                ScenarioEvent::Burst { .. } | ScenarioEvent::Adversary { .. } => {}
            }
        }
        Ok(())
    }

    /// The scripted availability of `host` over `[0, horizon)`: the
    /// fraction of time it is not crash-down (flaky windows, being
    /// probabilistic, are not counted here).
    pub fn host_availability(&self, host: HostId, horizon: Tick) -> f64 {
        let horizon = horizon.as_u64();
        if horizon == 0 {
            return 1.0;
        }
        let mut down = 0u64;
        let mut down_since: Option<u64> = None;
        for e in &self.events {
            match *e {
                ScenarioEvent::Crash { host: h, at } if h == host => {
                    down_since.get_or_insert(at.as_u64().min(horizon));
                }
                ScenarioEvent::Rejoin { host: h, at } if h == host => {
                    if let Some(since) = down_since.take() {
                        down += at.as_u64().min(horizon).saturating_sub(since);
                    }
                }
                _ => {}
            }
        }
        if let Some(since) = down_since {
            down += horizon - since;
        }
        // Overlapping or duplicated crash windows (expressible on a
        // hand-built event list that bypassed `validate`) can accumulate
        // more downtime than the horizon holds; clamp so the subtraction
        // below cannot underflow.
        let down = down.min(horizon);
        (horizon - down) as f64 / horizon as f64
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scn v2")?;
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// A fault model under a scenario, as data: the per-invocation rates of a
/// base model plus the scenario compiled into a [`Timeline`].
///
/// The base model's draws come first at every site, so outside the
/// scenario's windows the model draws exactly as its base does.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFaults {
    rates: Option<ProbabilisticFaults>,
    timeline: Timeline,
}

impl ScenarioFaults {
    /// Compiles `scenario` over the rates of `base` for a model with
    /// `host_count` hosts and `comm_count` communicators.
    ///
    /// # Errors
    ///
    /// An index out of the model's range, or a `base` that runs a
    /// timeline of its own (a fault model runs one).
    pub fn new<I: FaultModel>(
        base: I,
        scenario: &Scenario,
        host_count: usize,
        comm_count: usize,
    ) -> Result<Self, ScenarioError> {
        if base.timeline().is_some() {
            return Err(err(0, "the base fault model already runs a timeline"));
        }
        Ok(ScenarioFaults {
            rates: base.rates().cloned(),
            timeline: Timeline::compile(scenario, host_count, comm_count)?,
        })
    }
}

impl FaultModel for ScenarioFaults {
    fn rates(&self) -> Option<&ProbabilisticFaults> {
        self.rates.as_ref()
    }
    fn timeline(&self) -> Option<&Timeline> {
        Some(&self.timeline)
    }
}

/// The name [`ScenarioFaults`] had when it was a per-lane injector, kept
/// so that `ScenarioInjector::new` callers build the same data. The
/// benchmark's replay still calls it; ROADMAP item 1, which moves that
/// replay onto the job path, may delete this alias.
pub type ScenarioInjector = ScenarioFaults;

/// Applies a scenario's stuck-at sensor windows over an inner
/// environment: during a window, [`Environment::sense`] keeps returning
/// the last value sensed before the window (the communicator's most
/// recent reading, or the environment's current value if the window
/// begins before the first reading).
pub struct ScenarioEnvironment<E> {
    inner: E,
    /// Per communicator: stuck windows (from, until), and the frozen value.
    windows: Vec<Vec<(u64, u64)>>,
    frozen: Vec<Option<Value>>,
}

impl<E: Environment> ScenarioEnvironment<E> {
    /// Layers `scenario`'s stuck-sensor windows over `inner`.
    pub fn new(inner: E, scenario: &Scenario, comm_count: usize) -> Self {
        let mut windows = vec![Vec::new(); comm_count];
        for e in scenario.events() {
            if let ScenarioEvent::StuckSensor { comm, from, until } = *e {
                windows[comm.index()].push((from.as_u64(), until.as_u64()));
            }
        }
        ScenarioEnvironment {
            inner,
            windows,
            frozen: vec![None; comm_count],
        }
    }

    /// The inner environment.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn stuck(&self, comm: CommunicatorId, now: u64) -> bool {
        self.windows[comm.index()]
            .iter()
            .any(|&(from, until)| (from..until).contains(&now))
    }
}

impl<E: Environment> Environment for ScenarioEnvironment<E> {
    fn advance(&mut self, now: Tick) {
        self.inner.advance(now);
    }

    fn sense(&mut self, comm: CommunicatorId, now: Tick) -> Value {
        // Sample the inner environment unconditionally so plant models
        // with sensing side effects stay in step across scenarios.
        let fresh = self.inner.sense(comm, now);
        if self.windows[comm.index()].is_empty() {
            // Never stuck, so its frozen value is never read.
            return fresh;
        }
        if self.stuck(comm, now.as_u64()) {
            *self.frozen[comm.index()].get_or_insert(fresh)
        } else {
            self.frozen[comm.index()] = Some(fresh);
            fresh
        }
    }

    fn actuate(&mut self, comm: CommunicatorId, value: Value, now: Tick) {
        self.inner.actuate(comm, value, now);
    }

    fn is_passive(&self) -> bool {
        // Stuck-sensor freezing lives in `sense`; advance/actuate only
        // forward, so passivity is the inner environment's.
        self.inner.is_passive()
    }

    fn constant_reading(&self, comm: CommunicatorId) -> Option<Value> {
        // A frozen value is always an earlier fresh one, so a constant
        // inner reading stays constant through every stuck window (and
        // the frozen value is read by nothing but `sense`).
        self.inner.constant_reading(comm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::ConstantEnvironment;
    use crate::fault::NoFaults;

    const EXAMPLE: &str = "\
# outage of host 1
crash host=1 at=125000
rejoin host=1 at=200000
flaky host=2 from=0 until=50000 up=0.8
stuck comm=0 from=1000 until=2000
burst from=0 until=100000 enter=0.01 exit=0.2 loss=0.9
common hosts=0,2 from=5000 until=9000 p=0.25
partition hosts=1 from=3000 until=4000
wearout host=2 from=60000 until=90000 shape=2 scale=10000
adversary from=0 until=20000 hold=50
hazard host=0 p=0.001
corrupt host=1 p=0.25 value=-1.5
";

    #[test]
    fn parse_display_roundtrip_is_canonical() {
        // Headerless input is v1; the canonical rendering carries the
        // `scn v2` header and is a parse/display fixpoint.
        let s = Scenario::parse(EXAMPLE).unwrap();
        assert_eq!(s.events().len(), 11);
        let canon = s.to_string();
        assert!(canon.starts_with("scn v2\n"), "canon: {canon}");
        let s2 = Scenario::parse(&canon).unwrap();
        assert_eq!(s, s2);
        assert_eq!(canon, s2.to_string());
    }

    #[test]
    fn version_directive_is_checked() {
        for ok in ["scn v1\ncrash host=0 at=5\n", "scn v2\ncrash host=0 at=5\n"] {
            assert_eq!(Scenario::parse(ok).unwrap().events().len(), 1, "{ok}");
        }
        // Comments and blank lines may precede the directive.
        assert!(Scenario::parse("# hi\n\nscn v2\ncrash host=0 at=5\n").is_ok());
        let e = Scenario::parse("scn v3\ncrash host=0 at=5\n").unwrap_err();
        assert!(
            e.to_string().contains("unsupported scenario version `v3`"),
            "{e}"
        );
        assert_eq!(e.line, 1);
        let e = Scenario::parse("crash host=0 at=5\nscn v2\n").unwrap_err();
        assert!(e.to_string().contains("must be the first line"), "{e}");
        assert_eq!(e.line, 2);
    }

    /// A repeated field is an error on its own line, not a silently
    /// dropped second value.
    #[test]
    fn repeated_field_is_rejected_with_its_line() {
        let e = Scenario::parse("crash host=0 at=5\nrejoin host=0 at=6 host=1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.message, "field `host` given twice");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for (text, needle) in [
            ("boom host=1 at=5", "unknown event"),
            ("crash host=1", "missing field `at`"),
            ("crash host=1 at=x", "not an instant"),
            ("crash host=1 at=5 extra=1", "unknown field"),
            ("flaky host=0 from=0 until=10 up=1.5", "probability"),
            ("crash host 1 at 5", "key=value"),
            ("rejoin host=0 at=5", "rejoin before any crash"),
            ("crash host=0 at=9\nrejoin host=0 at=9", "must increase"),
            ("crash host=0 at=1\ncrash host=0 at=2", "repeated crash"),
            ("flaky host=0 from=10 until=10 up=0.5", "empty window"),
            ("common hosts= from=0 until=5 p=0.5", "empty host"),
            ("common hosts=0,1 from=0 until=5 p=1.5", "probability"),
            ("common hosts=0,1 from=0 until=5", "missing field `p`"),
            ("partition hosts=0 from=5 until=5", "empty window"),
            ("partition hosts=0,70 from=0 until=5", "group limit of 64"),
            ("wearout host=0 from=0 until=9 shape=0 scale=5", "positive"),
            (
                "wearout host=0 from=0 until=9 shape=1 scale=nan",
                "positive",
            ),
            ("adversary from=0 until=5 hold=0", "at least 1"),
            ("adversary from=0 until=5 hold=1 p=0.5", "unknown field"),
            ("crash host=0 at=5 at=10", "field `at` given twice"),
            ("flaky host=0 from=0 until=9 up=0.5 from=3", "given twice"),
            ("hazard host=0", "missing field `p`"),
            ("hazard p=0.5", "missing field `host`"),
            ("hazard host=0 p=1.5", "probability"),
            ("hazard host=0 p=-0.1", "probability"),
            ("hazard host=x p=0.1", "unknown host `x`"),
            ("hazard host=0 p=0.1 from=3", "unknown field"),
            ("hazard host=0 p=0.1 p=0.2", "given twice"),
            ("corrupt host=0 p=0.1", "missing field `value`"),
            ("corrupt host=0 value=1", "missing field `p`"),
            ("corrupt p=0.1 value=1", "missing field `host`"),
            ("corrupt host=0 p=2 value=1", "probability"),
            ("corrupt host=0 p=0.1 value=nan", "not a finite number"),
            ("corrupt host=0 p=0.1 value=inf", "not a finite number"),
            ("corrupt host=0 p=0.1 value=x", "not a number"),
            ("corrupt host=0 p=0.1 value=1 at=3", "unknown field"),
        ] {
            let e = Scenario::parse(text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "`{text}` → `{e}` (wanted `{needle}`)"
            );
        }
    }

    /// `from_events` applies `parse`'s probability check to every
    /// probability field, so no accepted scenario aborts a run in
    /// `gen_bool` or fails to reparse from its canonical form.
    #[test]
    fn from_events_rejects_out_of_range_probabilities() {
        let h = HostId::new(0);
        let (from, until) = (Tick::new(0), Tick::new(10));
        let flaky = |up| ScenarioEvent::Flaky {
            host: h,
            from,
            until,
            up,
        };
        let burst = |p_enter, p_exit, loss| ScenarioEvent::Burst {
            from,
            until,
            p_enter,
            p_exit,
            loss,
        };
        let common = |p| ScenarioEvent::CommonCause {
            hosts: HostSet::from_hosts([h]).unwrap(),
            from,
            until,
            p,
        };
        for bad in [1.5, -0.25, f64::NAN, f64::INFINITY] {
            for (field, e) in [
                ("up", flaky(bad)),
                ("enter", burst(bad, 0.5, 0.5)),
                ("exit", burst(0.5, bad, 0.5)),
                ("loss", burst(0.5, 0.5, bad)),
                ("p", common(bad)),
            ] {
                let msg = Scenario::from_events(vec![e]).unwrap_err().to_string();
                assert!(
                    msg.contains("probability out of [0, 1]"),
                    "{field}={bad}: {msg}"
                );
            }
        }
        for ok in [0.0, 1.0, 0.3] {
            assert!(Scenario::from_events(vec![flaky(ok), burst(ok, ok, ok), common(ok)]).is_ok());
        }
    }

    #[test]
    fn bounds_are_checked() {
        let s = Scenario::parse("crash host=9 at=5").unwrap();
        assert!(s.check_bounds(3, 1).is_err());
        assert!(s.check_bounds(10, 1).is_ok());
        let s = Scenario::parse("stuck comm=4 from=0 until=5").unwrap();
        assert!(s.check_bounds(1, 4).is_err());
        assert!(ScenarioInjector::new(NoFaults, &s, 1, 4).is_err());
        let s = Scenario::parse("common hosts=0,9 from=0 until=5 p=0.1").unwrap();
        assert!(s.check_bounds(3, 0).is_err());
        assert!(s.check_bounds(10, 0).is_ok());
        let s = Scenario::parse("wearout host=5 from=0 until=5 shape=1 scale=1").unwrap();
        assert!(s.check_bounds(5, 0).is_err());
        let s = Scenario::parse("hazard host=3 p=0.5").unwrap();
        assert!(s.check_bounds(3, 0).is_err());
        assert!(ScenarioInjector::new(NoFaults, &s, 3, 0).is_err());
        assert!(s.check_bounds(4, 0).is_ok());
    }

    /// `from_events` applies `parse`'s checks to the two whole-run kinds,
    /// and a fault model runs one timeline.
    #[test]
    fn hazard_and_corrupt_are_validated() {
        let hazard = |p| ScenarioEvent::Hazard {
            host: HostId::new(0),
            p,
        };
        let corrupt = |p, value| ScenarioEvent::Corrupt {
            host: HostId::new(0),
            p,
            value,
        };
        for bad in [
            hazard(1.5),
            hazard(f64::NAN),
            corrupt(-0.5, 1.0),
            corrupt(0.5, f64::NAN),
            corrupt(0.5, f64::NEG_INFINITY),
        ] {
            assert!(Scenario::from_events(vec![bad]).is_err(), "{bad}");
        }
        let s = Scenario::from_events(vec![hazard(0.0), corrupt(1.0, -0.0)]).unwrap();
        let faults = ScenarioFaults::new(NoFaults, &s, 1, 0).unwrap();
        assert!(ScenarioFaults::new(faults, &s, 1, 0).is_err());
    }

    #[test]
    fn stuck_sensor_freezes_the_last_value() {
        struct Ramp;
        impl Environment for Ramp {
            fn advance(&mut self, _now: Tick) {}
            fn sense(&mut self, _comm: CommunicatorId, now: Tick) -> Value {
                Value::Float(now.as_u64() as f64)
            }
            fn actuate(&mut self, _comm: CommunicatorId, _value: Value, _now: Tick) {}
        }
        let s = Scenario::parse("stuck comm=0 from=10 until=30").unwrap();
        let mut env = ScenarioEnvironment::new(Ramp, &s, 1);
        let c = CommunicatorId::new(0);
        assert_eq!(env.sense(c, Tick::new(5)), Value::Float(5.0));
        // Window: frozen at the last pre-window reading.
        for t in [10u64, 20, 29] {
            assert_eq!(env.sense(c, Tick::new(t)), Value::Float(5.0), "t={t}");
        }
        assert_eq!(env.sense(c, Tick::new(30)), Value::Float(30.0));
        // A window starting before any reading freezes the first reading.
        let s2 = Scenario::parse("stuck comm=0 from=0 until=20").unwrap();
        let mut env2 = ScenarioEnvironment::new(Ramp, &s2, 1);
        assert_eq!(env2.sense(c, Tick::new(4)), Value::Float(4.0));
        assert_eq!(env2.sense(c, Tick::new(12)), Value::Float(4.0));
    }

    #[test]
    fn host_availability_accounts_for_outages() {
        let s = Scenario::parse("crash host=1 at=25\nrejoin host=1 at=75").unwrap();
        let h1 = HostId::new(1);
        assert!((s.host_availability(h1, Tick::new(100)) - 0.5).abs() < 1e-12);
        assert_eq!(s.host_availability(HostId::new(0), Tick::new(100)), 1.0);
        // Unterminated outage runs to the horizon.
        let s2 = Scenario::parse("crash host=0 at=80").unwrap();
        assert!((s2.host_availability(HostId::new(0), Tick::new(100)) - 0.8).abs() < 1e-12);
    }

    /// Regression: cumulative downtime exceeding the horizon used to
    /// underflow `horizon - down` (debug panic / release wrap). Windows
    /// reaching or crossing the horizon must clamp to availability 0.
    #[test]
    fn host_availability_clamps_downtime_at_the_horizon() {
        let h = HostId::new(0);
        // Boundary via the public API: down for exactly the whole horizon.
        let s = Scenario::parse("crash host=0 at=0\nrejoin host=0 at=100").unwrap();
        assert_eq!(s.host_availability(h, Tick::new(100)), 0.0);
        // Unterminated crash from 0: down to the horizon, availability 0.
        let s = Scenario::parse("crash host=0 at=0").unwrap();
        assert_eq!(s.host_availability(h, Tick::new(50)), 0.0);
        // A rejoin beyond the horizon truncates at the horizon.
        let s = Scenario::parse("crash host=0 at=30\nrejoin host=0 at=500").unwrap();
        assert!((s.host_availability(h, Tick::new(100)) - 0.3).abs() < 1e-12);
        // Pathological hand-built timelines (not expressible through
        // `parse`, which enforces alternation) accumulate overlapping
        // windows; the clamp keeps the quotient in [0, 1].
        let s = Scenario {
            events: vec![
                ScenarioEvent::Crash {
                    host: h,
                    at: Tick::new(0),
                },
                ScenarioEvent::Rejoin {
                    host: h,
                    at: Tick::new(90),
                },
                ScenarioEvent::Crash {
                    host: h,
                    at: Tick::new(10),
                },
                ScenarioEvent::Rejoin {
                    host: h,
                    at: Tick::new(95),
                },
            ],
        };
        let a = s.host_availability(h, Tick::new(100));
        assert!((0.0..=1.0).contains(&a), "availability {a}");
    }

    proptest::proptest! {
        /// Any valid timeline's canonical rendering re-parses to an
        /// identical scenario, and the rendering is a fixpoint.
        #[test]
        fn random_scenarios_roundtrip_canonically(
            raw in proptest::collection::vec(proptest::any::<u64>(), 0..30),
            hosts in 1u32..5,
        ) {
            use proptest::prop_assert_eq;
            // Cook the raw words into a valid timeline: per-host outages
            // strictly increase, windows are non-empty, probabilities are
            // in [0, 1]. An occasional outage is left unterminated, which
            // closes that host's timeline.
            let mut events = Vec::new();
            let mut clock = vec![0u64; hosts as usize];
            let mut closed = vec![false; hosts as usize];
            for chunk in raw.chunks(3) {
                let a = chunk[0];
                let b = chunk.get(1).copied().unwrap_or(17);
                let c = chunk.get(2).copied().unwrap_or(29);
                let host = HostId::new((a / 8 % u64::from(hosts)) as u32);
                let h = host.index();
                let prob = |x: u64| (x % 101) as f64 / 100.0;
                // A non-empty group of 1–2 in-range hosts.
                let group = HostSet::from_hosts(
                    [host, HostId::new((b % u64::from(hosts)) as u32)]
                        .into_iter()
                        .take(1 + (c % 2) as usize),
                )
                .unwrap();
                match a % 10 {
                    0 if !closed[h] => {
                        let start = clock[h] + 1 + b % 1000;
                        events.push(ScenarioEvent::Crash {
                            host,
                            at: Tick::new(start),
                        });
                        if c % 7 == 0 {
                            closed[h] = true;
                        } else {
                            let end = start + 1 + c % 1000;
                            events.push(ScenarioEvent::Rejoin {
                                host,
                                at: Tick::new(end),
                            });
                            clock[h] = end;
                        }
                    }
                    1 => events.push(ScenarioEvent::Flaky {
                        host,
                        from: Tick::new(b % 10_000),
                        until: Tick::new(b % 10_000 + 1 + c % 1000),
                        up: prob(c),
                    }),
                    2 => events.push(ScenarioEvent::StuckSensor {
                        comm: CommunicatorId::new((b % 3) as u32),
                        from: Tick::new(b % 10_000),
                        until: Tick::new(b % 10_000 + 1 + c % 1000),
                    }),
                    3 => events.push(ScenarioEvent::Burst {
                        from: Tick::new(b % 10_000),
                        until: Tick::new(b % 10_000 + 1 + c % 1000),
                        p_enter: prob(c),
                        p_exit: prob(c / 101),
                        loss: prob(c / 10_201),
                    }),
                    4 => events.push(ScenarioEvent::CommonCause {
                        hosts: group,
                        from: Tick::new(b % 10_000),
                        until: Tick::new(b % 10_000 + 1 + c % 1000),
                        p: prob(c),
                    }),
                    5 => events.push(ScenarioEvent::Partition {
                        hosts: group,
                        from: Tick::new(b % 10_000),
                        until: Tick::new(b % 10_000 + 1 + c % 1000),
                    }),
                    6 => events.push(ScenarioEvent::Wearout {
                        host,
                        from: Tick::new(b % 10_000),
                        until: Tick::new(b % 10_000 + 1 + c % 1000),
                        shape: (c % 40 + 1) as f64 / 10.0,
                        scale: (b % 5000 + 1) as f64,
                    }),
                    8 => events.push(ScenarioEvent::Hazard { host, p: prob(c) }),
                    9 => events.push(ScenarioEvent::Corrupt {
                        host,
                        p: prob(c),
                        value: (b % 2001) as f64 / 8.0 - 125.0,
                    }),
                    _ => events.push(ScenarioEvent::Adversary {
                        from: Tick::new(b % 10_000),
                        until: Tick::new(b % 10_000 + 1 + c % 1000),
                        hold: 1 + c % 500,
                    }),
                }
            }
            let s = Scenario::from_events(events).unwrap();
            let canon = s.to_string();
            let parsed = Scenario::parse(&canon).unwrap();
            prop_assert_eq!(&s, &parsed);
            prop_assert_eq!(canon, parsed.to_string());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Every scenario `from_events` accepts — built here from
        /// arbitrary fields, NaN, infinities and out-of-range numbers
        /// included — reparses from its `Display` form to an equal
        /// scenario.
        #[test]
        fn accepted_scenarios_reparse_to_themselves(
            raw in proptest::collection::vec(proptest::any::<u64>(), 1..16),
        ) {
            // A number from `x`: mostly a probability, sometimes an
            // edge or an invalid value, sometimes any bit pattern.
            let num = |x: u64| match x % 40 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -1.0,
                3 => 1.5,
                4 => -0.0,
                5 => f64::from_bits(x.rotate_left(17)),
                6 => f64::MIN_POSITIVE,
                _ => (x / 40 % 1001) as f64 / 1000.0,
            };
            let mut events = Vec::new();
            for w in raw.chunks(2) {
                let (a, b) = (w[0], w.get(1).copied().unwrap_or(3));
                let host = HostId::new((a >> 8) as u32 % 4);
                let from = Tick::new(b % 100);
                let until = Tick::new(b % 100 + (a >> 20) % 50);
                let hosts = HostSet::from_hosts([host]).unwrap();
                events.push(match a % 11 {
                    0 => ScenarioEvent::Crash { host, at: from },
                    1 => ScenarioEvent::Rejoin { host, at: until },
                    2 => ScenarioEvent::Flaky { host, from, until, up: num(b) },
                    3 => ScenarioEvent::StuckSensor { comm: CommunicatorId::new(1), from, until },
                    4 => ScenarioEvent::Burst {
                        from,
                        until,
                        p_enter: num(b),
                        p_exit: num(b >> 13),
                        loss: num(b >> 29),
                    },
                    5 => ScenarioEvent::CommonCause { hosts, from, until, p: num(b) },
                    6 => ScenarioEvent::Partition { hosts, from, until },
                    7 => ScenarioEvent::Wearout {
                        host,
                        from,
                        until,
                        shape: num(b) * 4.0,
                        scale: num(b >> 11) * 1e4,
                    },
                    8 => ScenarioEvent::Adversary { from, until, hold: b % 3 },
                    9 => ScenarioEvent::Hazard { host, p: num(b) },
                    _ => ScenarioEvent::Corrupt { host, p: num(b), value: num(b >> 7) * -9.0 },
                });
            }
            if let Ok(s) = Scenario::from_events(events) {
                let reparsed = Scenario::parse(&s.to_string());
                proptest::prop_assert_eq!(reparsed.as_ref(), Ok(&s), "{}", s);
            }
        }
    }

    /// The bytes the mutation proptest below splices into `.scn` lines:
    /// separators, digits, signs, exponents and the letters of `inf`,
    /// `nan`, the keys and the verbs.
    const MUTATION_ALPHABET: &[u8] = b" =.-+0129eEinfapvlostruhcz#\t,";

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Every `hazard` or `corrupt` line with bytes replaced, deleted
        /// or inserted is either diagnosed, on a line of the input, or
        /// accepted and reparsed from its canonical form to itself;
        /// parsing never panics.
        #[test]
        fn mutated_hazard_and_corrupt_lines_are_diagnosed_or_round_trip(
            pick in 0usize..3,
            edits in proptest::collection::vec(
                (0usize..4096, 0u8..3, 0..MUTATION_ALPHABET.len()),
                1..6,
            ),
        ) {
            let base = [
                "hazard host=1 p=0.25",
                "corrupt host=0 p=1 value=-9.5",
                "hazard host=2 p=0\ncorrupt host=2 p=0.5 value=3",
            ][pick];
            let mut bytes = base.as_bytes().to_vec();
            for (at, op, c) in edits {
                let at = at % (bytes.len() + 1);
                match op {
                    0 if at < bytes.len() => bytes[at] = MUTATION_ALPHABET[c],
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, MUTATION_ALPHABET[c]),
                }
            }
            let text = String::from_utf8(bytes).expect("ASCII edits");
            match Scenario::parse(&text) {
                Ok(s) => proptest::prop_assert_eq!(Scenario::parse(&s.to_string()), Ok(s)),
                Err(e) => proptest::prop_assert!(e.line <= text.lines().count(), "{}", e),
            }
        }
    }

    #[test]
    fn scenario_environment_passthrough() {
        let s = Scenario::new();
        let mut env = ScenarioEnvironment::new(ConstantEnvironment::new(Value::Float(3.0)), &s, 2);
        env.advance(Tick::new(1));
        assert_eq!(
            env.sense(CommunicatorId::new(1), Tick::new(1)),
            Value::Float(3.0)
        );
        env.actuate(CommunicatorId::new(0), Value::Float(9.0), Tick::new(1));
    }
}
