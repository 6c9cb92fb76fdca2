//! Coverage-guided scenario fuzzing over the campaign harness.
//!
//! The fuzzer searches the space of scripted fault timelines
//! ([`Scenario`]) for **monitor misses**: scenarios under which some
//! communicator's plain windowed mean dips below its declared LRC µ_c
//! (a ground-truth violation) while the online [`LrcMonitor`] never
//! raised an alarm at or before the dip — the Hoeffding band kept the
//! violation statistically unconfident, so the monitor slept through
//! it. Correlated events (common-cause groups, partitions, wear-out,
//! adaptive adversaries) are exactly the mutations that manufacture such
//! near-threshold degradation, which is why the fuzzer ships with the
//! correlated-failure ecology.
//!
//! # Algorithm
//!
//! Classic coverage-guided mutation fuzzing, specialized to the `.scn`
//! event format:
//!
//! 1. keep a corpus of parsed scenarios, seeded with the input scenario;
//! 2. each iteration picks a corpus parent and applies one mutation —
//!    insert a random event, delete an event, widen an event's window,
//!    retarget an event's host(s), or splice two corpus parents;
//! 3. the candidate runs a short deterministic observed campaign
//!    ([`Campaign::run`]) and is reduced to a **coverage
//!    signature**: the log2-quantized vote-outcome class mix, one
//!    alarm/violation ordering class per communicator, and the scripted
//!    per-host availability decile;
//! 4. candidates with a previously unseen signature join the corpus;
//! 5. candidates that exhibit a monitor miss are **shrunk** — greedy
//!    event deletion, then window narrowing, each re-checked by
//!    replaying the campaign — and the minimal reproducer is emitted as
//!    a `.scn` artifact with a full campaign echo in comments.
//!
//! Everything is deterministic in [`FuzzConfig::seed`]: the mutation RNG
//! is a seeded [`StdRng`], every candidate campaign runs with the same
//! fixed base seed (so a reproducer replays with the seed echoed in its
//! header), and the corpus and reproducer artifacts come out in a fixed
//! order with fixed names. Two runs of the same configuration produce
//! byte-identical artifact sets at any thread count.
//!
//! The module is filesystem-free: artifacts are returned as
//! (name, contents) pairs for the caller (`htlc fuzz`) to write.
//!
//! [`LrcMonitor`]: crate::monitor::LrcMonitor

use crate::campaign::{Campaign, CampaignConfig, CampaignError, ScenarioReport};
use crate::environment::Environment;
use crate::fault::FaultModel;
use crate::kernel::Simulation;
use crate::montecarlo::ReplicationContext;
use crate::scenario::{HostSet, Scenario, ScenarioEvent};
use logrel_core::{HostId, Specification, Tick};
use logrel_obs::{names, MetricsSink, NoopSink, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Configuration of one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of mutation iterations (candidates attempted).
    pub iters: u64,
    /// Seed of the mutation RNG; the whole run is deterministic in it.
    pub seed: u64,
    /// The per-candidate campaign (replications, rounds, base seed,
    /// monitor window, lanes). Every candidate — including shrink
    /// re-checks — runs with exactly this configuration, so a found
    /// reproducer replays from its echoed parameters alone.
    pub campaign: CampaignConfig,
    /// Hard cap on events per candidate (spliced children are truncated).
    pub max_events: usize,
    /// Extra comment lines for reproducer artifacts (e.g. the exact
    /// `htlc inject` replay command); written verbatim after `# `.
    pub echo: Vec<String>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 200,
            seed: 0xF022,
            campaign: CampaignConfig::default(),
            max_events: 32,
            echo: Vec::new(),
        }
    }
}

/// One artifact produced by the fuzzer, to be written by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzArtifact {
    /// Deterministic file name (`cov-0007.scn`, `miss-001.scn`).
    pub name: String,
    /// Full file contents (canonical scenario text, possibly with a
    /// comment header).
    pub contents: String,
}

/// The result of a fuzzing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzOutcome {
    /// Candidates attempted (= [`FuzzConfig::iters`]).
    pub iters: u64,
    /// Candidates rejected before execution (validation/bounds errors).
    pub invalid: u64,
    /// Candidates kept for a novel coverage signature.
    pub novel: u64,
    /// Distinct coverage signatures seen (including the seed scenario's).
    pub signatures: u64,
    /// Monitor misses found (before reproducer deduplication).
    pub monitor_misses: u64,
    /// Shrink campaign re-checks executed across all misses.
    pub shrink_steps: u64,
    /// Coverage corpus, in discovery order (`cov-%04d.scn`; entry 0 is
    /// the seed scenario).
    pub corpus: Vec<FuzzArtifact>,
    /// Shrunk monitor-miss reproducers, deduplicated by canonical text,
    /// in discovery order (`miss-%03d.scn`).
    pub reproducers: Vec<FuzzArtifact>,
}

/// The coverage signature of one candidate campaign: vote-outcome class
/// mix (log2-quantized), per-communicator alarm/violation ordering
/// class, and per-host scripted availability decile.
fn signature(registry: &Registry, report: &ScenarioReport) -> Vec<u8> {
    let mut sig = Vec::new();
    for name in [
        names::VOTE_UNANIMOUS,
        names::VOTE_MAJORITY,
        names::VOTE_TIE,
        names::VOTE_SILENT,
    ] {
        let v = registry.counter(name);
        sig.push(if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as u8
        });
    }
    for c in &report.comms {
        // 0 = quiet, 1 = alarm without ground-truth dip, 2 = dip with a
        // prior alarm (monitor did its job), 3 = dip the monitor missed.
        sig.push(match (c.violations > 0, c.alarms_raised > 0) {
            (false, false) => 0,
            (false, true) => 1,
            (true, _) if c.alarms_before_violation > 0 => 2,
            (true, _) => 3,
        });
    }
    for &a in &report.host_availability {
        sig.push(((a * 10.0).floor() as u8).min(9));
    }
    sig
}

/// Does the report exhibit a monitor miss — some communicator with a
/// ground-truth µ-violation in at least one replication and no
/// replication where an alarm preceded the dip?
fn is_miss(report: &ScenarioReport) -> bool {
    report
        .comms
        .iter()
        .any(|c| c.violations > 0 && c.alarms_before_violation == 0)
}

/// The `[from, until)` window of an event, if it has one (crash, rejoin,
/// hazard and corrupt events have none).
fn window(e: &ScenarioEvent) -> Option<(Tick, Tick)> {
    match *e {
        ScenarioEvent::Crash { .. }
        | ScenarioEvent::Rejoin { .. }
        | ScenarioEvent::Hazard { .. }
        | ScenarioEvent::Corrupt { .. } => None,
        ScenarioEvent::Flaky { from, until, .. }
        | ScenarioEvent::StuckSensor { from, until, .. }
        | ScenarioEvent::Burst { from, until, .. }
        | ScenarioEvent::CommonCause { from, until, .. }
        | ScenarioEvent::Partition { from, until, .. }
        | ScenarioEvent::Wearout { from, until, .. }
        | ScenarioEvent::Adversary { from, until, .. } => Some((from, until)),
    }
}

/// The same event with its window replaced (no-op for events without
/// one).
fn with_window(e: ScenarioEvent, from: Tick, until: Tick) -> ScenarioEvent {
    match e {
        ScenarioEvent::Crash { .. }
        | ScenarioEvent::Rejoin { .. }
        | ScenarioEvent::Hazard { .. }
        | ScenarioEvent::Corrupt { .. } => e,
        ScenarioEvent::Flaky { host, up, .. } => ScenarioEvent::Flaky {
            host,
            from,
            until,
            up,
        },
        ScenarioEvent::StuckSensor { comm, .. } => ScenarioEvent::StuckSensor { comm, from, until },
        ScenarioEvent::Burst {
            p_enter,
            p_exit,
            loss,
            ..
        } => ScenarioEvent::Burst {
            from,
            until,
            p_enter,
            p_exit,
            loss,
        },
        ScenarioEvent::CommonCause { hosts, p, .. } => ScenarioEvent::CommonCause {
            hosts,
            from,
            until,
            p,
        },
        ScenarioEvent::Partition { hosts, .. } => ScenarioEvent::Partition { hosts, from, until },
        ScenarioEvent::Wearout {
            host, shape, scale, ..
        } => ScenarioEvent::Wearout {
            host,
            from,
            until,
            shape,
            scale,
        },
        ScenarioEvent::Adversary { hold, .. } => ScenarioEvent::Adversary { from, until, hold },
    }
}

/// A random host group of 1–3 members (bounded by the host count), or
/// `None` when the architecture has no hosts to pick from — mutations
/// treat that as "skip" rather than panicking on a degenerate system.
fn random_hosts(rng: &mut StdRng, host_count: usize) -> Option<HostSet> {
    if host_count == 0 {
        return None;
    }
    let k = rng.gen_range(1..=host_count.min(3));
    let mut picked = BTreeSet::new();
    while picked.len() < k {
        picked.insert(rng.gen_range(0..host_count) as u32);
    }
    HostSet::from_hosts(picked.into_iter().map(HostId::new)).ok()
}

/// A random `[from, until)` window within the horizon.
fn random_window(rng: &mut StdRng, horizon: u64) -> (Tick, Tick) {
    let from = rng.gen_range(0..horizon);
    let len = rng.gen_range(1..=horizon - from);
    (Tick::new(from), Tick::new(from + len))
}

/// A fresh random event of any kind, or `None` when the system is too
/// degenerate to target (no hosts, no horizon, or — for the sensor
/// kind — no communicators).
fn random_event(
    rng: &mut StdRng,
    host_count: usize,
    comm_count: usize,
    horizon: u64,
) -> Option<ScenarioEvent> {
    if host_count == 0 || horizon == 0 {
        return None;
    }
    let host = HostId::new(rng.gen_range(0..host_count) as u32);
    Some(match rng.gen_range(0..9u32) {
        0 => ScenarioEvent::Crash {
            host,
            at: Tick::new(rng.gen_range(0..horizon)),
        },
        1 => ScenarioEvent::Rejoin {
            host,
            at: Tick::new(rng.gen_range(0..horizon)),
        },
        2 => {
            let (from, until) = random_window(rng, horizon);
            ScenarioEvent::Flaky {
                host,
                from,
                until,
                up: rng.gen_range(0.5..1.0),
            }
        }
        3 => {
            if comm_count == 0 {
                return None;
            }
            let (from, until) = random_window(rng, horizon);
            ScenarioEvent::StuckSensor {
                comm: logrel_core::CommunicatorId::new(rng.gen_range(0..comm_count) as u32),
                from,
                until,
            }
        }
        4 => {
            let (from, until) = random_window(rng, horizon);
            ScenarioEvent::Burst {
                from,
                until,
                p_enter: rng.gen_range(0.0..0.2),
                p_exit: rng.gen_range(0.1..1.0),
                loss: rng.gen_range(0.2..1.0),
            }
        }
        5 => {
            let (from, until) = random_window(rng, horizon);
            ScenarioEvent::CommonCause {
                hosts: random_hosts(rng, host_count)?,
                from,
                until,
                p: rng.gen_range(0.0..0.5),
            }
        }
        6 => {
            let (from, until) = random_window(rng, horizon);
            ScenarioEvent::Partition {
                hosts: random_hosts(rng, host_count)?,
                from,
                until,
            }
        }
        7 => {
            let (from, until) = random_window(rng, horizon);
            ScenarioEvent::Wearout {
                host,
                from,
                until,
                shape: rng.gen_range(0.5..3.0),
                scale: rng.gen_range((horizon / 8).max(1)..horizon) as f64,
            }
        }
        _ => {
            let (from, until) = random_window(rng, horizon);
            ScenarioEvent::Adversary {
                from,
                until,
                hold: rng.gen_range(1..=(horizon / 4).max(1)),
            }
        }
    })
}

/// One mutation of `parent` (possibly invalid — the caller validates).
fn mutate(
    rng: &mut StdRng,
    parent: &[ScenarioEvent],
    corpus: &[Vec<ScenarioEvent>],
    host_count: usize,
    comm_count: usize,
    horizon: u64,
    max_events: usize,
) -> Vec<ScenarioEvent> {
    let mut events = parent.to_vec();
    match rng.gen_range(0..5u32) {
        // Insert a fresh random event (skipped on systems too degenerate
        // to target — the unchanged parent is simply not novel).
        0 => {
            if events.len() < max_events {
                if let Some(e) = random_event(rng, host_count, comm_count, horizon) {
                    let at = rng.gen_range(0..=events.len());
                    events.insert(at, e);
                }
            }
        }
        // Delete one event.
        1 => {
            if !events.is_empty() {
                let at = rng.gen_range(0..events.len());
                events.remove(at);
            }
        }
        // Widen one event's window (double its length).
        2 => {
            if !events.is_empty() {
                let at = rng.gen_range(0..events.len());
                if let Some((from, until)) = window(&events[at]) {
                    let len = until.as_u64() - from.as_u64();
                    events[at] = with_window(events[at], from, Tick::new(from.as_u64() + 2 * len));
                }
            }
        }
        // Retarget one event's host or host group (a no-op skip on
        // host-free architectures rather than a panic).
        3 => {
            if !events.is_empty() && host_count > 0 {
                let at = rng.gen_range(0..events.len());
                let host = HostId::new(rng.gen_range(0..host_count) as u32);
                events[at] = match events[at] {
                    ScenarioEvent::Crash { at, .. } => ScenarioEvent::Crash { host, at },
                    ScenarioEvent::Rejoin { at, .. } => ScenarioEvent::Rejoin { host, at },
                    ScenarioEvent::Flaky {
                        from, until, up, ..
                    } => ScenarioEvent::Flaky {
                        host,
                        from,
                        until,
                        up,
                    },
                    ScenarioEvent::Wearout {
                        from,
                        until,
                        shape,
                        scale,
                        ..
                    } => ScenarioEvent::Wearout {
                        host,
                        from,
                        until,
                        shape,
                        scale,
                    },
                    ScenarioEvent::CommonCause {
                        hosts,
                        from,
                        until,
                        p,
                    } => ScenarioEvent::CommonCause {
                        hosts: random_hosts(rng, host_count).unwrap_or(hosts),
                        from,
                        until,
                        p,
                    },
                    ScenarioEvent::Partition { hosts, from, until } => ScenarioEvent::Partition {
                        hosts: random_hosts(rng, host_count).unwrap_or(hosts),
                        from,
                        until,
                    },
                    e => e,
                };
            }
        }
        // Splice: parent prefix + another corpus member's suffix.
        _ => {
            let other = &corpus[rng.gen_range(0..corpus.len())];
            let cut_a = rng.gen_range(0..=events.len());
            let cut_b = rng.gen_range(0..=other.len());
            events.truncate(cut_a);
            events.extend_from_slice(&other[cut_b..]);
            events.truncate(max_events);
        }
    }
    events
}

/// Renders a reproducer artifact: echo lines, campaign parameters and
/// the canonical scenario text.
fn render_reproducer(scenario: &Scenario, config: &FuzzConfig) -> String {
    let mut out = String::new();
    out.push_str("# monitor-miss reproducer (found and shrunk by `htlc fuzz`)\n");
    out.push_str("# a communicator's windowed mean dips below its LRC with no prior alarm\n");
    for line in &config.echo {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    let b = &config.campaign.batch;
    out.push_str(&format!(
        "# campaign: replications={} rounds={} seed={:#x} window={} confidence={}\n",
        b.replications,
        b.rounds,
        b.base_seed,
        config.campaign.monitor.window,
        config.campaign.monitor.confidence,
    ));
    out.push_str(&scenario.to_string());
    out
}

/// Runs a coverage-guided fuzzing campaign from `seed_scenario`.
///
/// `setup` builds each replication's base context exactly as for
/// [`Campaign::run`]; every candidate campaign wraps it in the candidate's
/// scenario layers. Fuzz counters (`logrel_fuzz_*`) and the signature
/// cardinality gauge are recorded on `sink` once at the end of the run.
///
/// Fails only if the *seed* scenario itself does not fit the system
/// (bounds error); invalid mutants are counted and skipped.
pub fn run_fuzz<S, I, E>(
    sim: &Simulation<'_>,
    spec: &Specification,
    seed_scenario: &Scenario,
    host_count: usize,
    config: &FuzzConfig,
    setup: S,
    sink: &mut dyn MetricsSink,
) -> Result<FuzzOutcome, CampaignError>
where
    S: Fn(u64) -> ReplicationContext<I, E> + Sync,
    I: FaultModel,
    E: Environment,
{
    let horizon = (config.campaign.batch.rounds * spec.round_period().as_u64()).max(1);
    let comm_count = spec.communicator_count();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let plan =
        |scenario: &Scenario| Campaign::new(spec, scenario.clone(), config.campaign, host_count, 0);
    let evaluate = |scenario: &Scenario| -> Result<(Vec<u8>, ScenarioReport), CampaignError> {
        let mut registry = Registry::new();
        let report = plan(scenario)?.run::<Registry, _, _>(sim, &setup, &[], &mut registry)?;
        let sig = signature(&registry, &report);
        Ok((sig, report))
    };
    // Shrink re-checks only need the report, not the signature.
    let check = |scenario: &Scenario| -> bool {
        plan(scenario)
            .and_then(|c| c.run::<NoopSink, _, _>(sim, &setup, &[], &mut Registry::new()))
            .is_ok_and(|report| is_miss(&report))
    };

    let mut outcome = FuzzOutcome {
        iters: 0,
        invalid: 0,
        novel: 0,
        signatures: 0,
        monitor_misses: 0,
        shrink_steps: 0,
        corpus: Vec::new(),
        reproducers: Vec::new(),
    };
    let mut seen: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut corpus: Vec<Vec<ScenarioEvent>> = Vec::new();
    let mut miss_texts: BTreeSet<String> = BTreeSet::new();

    // The seed scenario anchors the corpus and the signature set; a
    // bounds failure here is a caller error and aborts the run.
    let (seed_sig, seed_report) = evaluate(seed_scenario)?;
    seen.insert(seed_sig);
    corpus.push(seed_scenario.events().to_vec());
    outcome.corpus.push(FuzzArtifact {
        name: "cov-0000.scn".into(),
        contents: seed_scenario.to_string(),
    });
    if is_miss(&seed_report) {
        outcome.monitor_misses += 1;
        let (shrunk, steps) = shrink(seed_scenario.clone(), &check);
        outcome.shrink_steps += steps;
        record_miss(&shrunk, config, &mut miss_texts, &mut outcome);
    }

    for _ in 0..config.iters {
        outcome.iters += 1;
        let parent = &corpus[rng.gen_range(0..corpus.len())];
        let events = mutate(
            &mut rng,
            parent,
            &corpus,
            host_count,
            comm_count,
            horizon,
            config.max_events,
        );
        let Ok(candidate) = Scenario::from_events(events) else {
            outcome.invalid += 1;
            continue;
        };
        let Ok((sig, report)) = evaluate(&candidate) else {
            outcome.invalid += 1;
            continue;
        };
        if seen.insert(sig) {
            outcome.novel += 1;
            outcome.corpus.push(FuzzArtifact {
                name: format!("cov-{:04}.scn", corpus.len()),
                contents: candidate.to_string(),
            });
            corpus.push(candidate.events().to_vec());
        }
        if is_miss(&report) {
            outcome.monitor_misses += 1;
            let (shrunk, steps) = shrink(candidate, &check);
            outcome.shrink_steps += steps;
            record_miss(&shrunk, config, &mut miss_texts, &mut outcome);
        }
    }

    outcome.signatures = seen.len() as u64;
    sink.add(names::FUZZ_ITERS, outcome.iters);
    sink.add(names::FUZZ_NOVEL, outcome.novel);
    sink.add(names::FUZZ_MONITOR_MISS, outcome.monitor_misses);
    sink.add(names::FUZZ_SHRINK_STEPS, outcome.shrink_steps);
    sink.set_gauge(names::FUZZ_SIGNATURES, outcome.signatures as f64);
    Ok(outcome)
}

/// Appends a shrunk reproducer artifact unless its canonical text is
/// already recorded.
fn record_miss(
    shrunk: &Scenario,
    config: &FuzzConfig,
    miss_texts: &mut BTreeSet<String>,
    outcome: &mut FuzzOutcome,
) {
    let text = shrunk.to_string();
    if miss_texts.insert(text) {
        outcome.reproducers.push(FuzzArtifact {
            name: format!("miss-{:03}.scn", outcome.reproducers.len()),
            contents: render_reproducer(shrunk, config),
        });
    }
}

/// Greedy shrinking: drop events one at a time, then halve event
/// windows, re-checking the miss by campaign replay after every step.
/// Returns the minimal reproducer and the number of re-checks executed.
fn shrink(mut scenario: Scenario, check: &dyn Fn(&Scenario) -> bool) -> (Scenario, u64) {
    let mut steps = 0u64;
    loop {
        let mut changed = false;
        // Pass 1: event deletion.
        let mut i = 0;
        while i < scenario.events().len() {
            if scenario.events().len() == 1 {
                break; // keep at least one event: an empty file says nothing
            }
            let mut events = scenario.events().to_vec();
            events.remove(i);
            if let Ok(candidate) = Scenario::from_events(events) {
                steps += 1;
                if check(&candidate) {
                    scenario = candidate;
                    changed = true;
                    continue; // same index now holds the next event
                }
            }
            i += 1;
        }
        // Pass 2: window narrowing (halve from either end).
        for i in 0..scenario.events().len() {
            let Some((from, until)) = window(&scenario.events()[i]) else {
                continue;
            };
            let len = until.as_u64() - from.as_u64();
            if len < 2 {
                continue;
            }
            let half = len / 2;
            for (nf, nu) in [
                (from, Tick::new(from.as_u64() + half)),
                (Tick::new(until.as_u64() - half), until),
            ] {
                let mut events = scenario.events().to_vec();
                events[i] = with_window(events[i], nf, nu);
                if let Ok(candidate) = Scenario::from_events(events) {
                    steps += 1;
                    if check(&candidate) {
                        scenario = candidate;
                        changed = true;
                        break;
                    }
                }
            }
        }
        if !changed {
            return (scenario, steps);
        }
    }
}
