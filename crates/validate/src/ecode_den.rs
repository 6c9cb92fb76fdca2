//! Symbolic execution of the composed per-host E-code.
//!
//! Each host's E-machine is stepped for two rounds against a *recording*
//! platform: drivers record which communicator instance is updated where,
//! which instance each latch captures, and which hosts release which
//! tasks — no values are computed. The second round must repeat the first
//! (shifted by π_S), which extends the one-round certificate to all
//! rounds by periodicity; the per-host record streams are then composed
//! into one [`RoundDenotation`]: every host must perform every update,
//! the hosts releasing a task form its vote replica set, and replicated
//! latches must agree on the instance they capture.
//!
//! What the E-code itself does not encode — which task output lands on an
//! updated instance, the sensor bindings, the input failure model — is
//! resolved from the specification and mapping exactly as the runtime
//! platform resolves it, so those parts are correct by construction and
//! the certificate checks what the code controls: instants, instances,
//! latch edges, and release/replica sets. The order of driver calls
//! within one instant (a sensor communicator's update after the read of
//! its sensors) is not in the denotation; [`crate::certify_ecode`] proves
//! it with the static verifier (E009).

use crate::denot::{ExecRecord, LatchEdge, PhaseDenotation, RoundDenotation, UpdateSource};
use logrel_core::{CommunicatorId, HostId, Implementation, Specification, TaskId, Tick};
use logrel_emachine::{DriverOp, ECode, EMachine, Instruction, Platform};
use logrel_lint::{Diagnostic, Severity};
use std::collections::{BTreeMap, BTreeSet};

fn err(code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, Default::default(), message)
}

/// The record stream of one host over the two simulated rounds, at
/// absolute ticks.
#[derive(Default)]
struct HostLog {
    /// (abs, comm, instance) per `UpdateCommunicator`.
    updates: Vec<(u64, CommunicatorId, u64)>,
    /// (abs, task, index, origin) per `LatchInput`; `origin` is the
    /// absolute tick of the last update of the latched communicator.
    latches: Vec<(u64, TaskId, u32, Option<u64>)>,
    /// (abs, task) per `Release`.
    releases: Vec<(u64, TaskId)>,
}

/// The recording platform: tracks update provenance, computes nothing.
struct Recorder<'s> {
    spec: &'s Specification,
    /// Absolute tick of the last update per communicator.
    last_update: Vec<Option<u64>>,
    log: HostLog,
}

impl Platform for Recorder<'_> {
    fn call(&mut self, _host: HostId, op: DriverOp, now: Tick) {
        let abs = now.as_u64();
        match op {
            DriverOp::ReadSensors { .. } => {}
            DriverOp::UpdateCommunicator { comm, instance } => {
                self.log.updates.push((abs, comm, instance));
                if comm.index() < self.last_update.len() {
                    self.last_update[comm.index()] = Some(abs);
                }
            }
            DriverOp::LatchInput { task, index } => {
                let origin = self
                    .spec
                    .task(task)
                    .inputs()
                    .get(index as usize)
                    .and_then(|a| self.last_update.get(a.comm.index()))
                    .copied()
                    .flatten();
                self.log.latches.push((abs, task, index, origin));
            }
        }
    }

    fn release(&mut self, _host: HostId, task: TaskId, now: Tick) {
        self.log.releases.push((now.as_u64(), task));
    }
}

/// Normalized one-round view of a host log: absolute ticks reduced to
/// slots, latch origins reduced to `Some(slot)` (this round) or `None`
/// (carried over from before the round).
#[derive(Debug, PartialEq, Eq)]
struct RoundView {
    updates: BTreeSet<(u64, CommunicatorId, u64)>,
    latches: BTreeSet<(u64, TaskId, u32, Option<u64>)>,
    releases: BTreeSet<(u64, TaskId)>,
}

fn round_view(log: &HostLog, round: u64, k: u64) -> RoundView {
    let lo = k * round;
    let hi = lo + round;
    let in_round = |abs: u64| abs >= lo && abs < hi;
    let origin_slot = |o: Option<u64>| o.and_then(|abs| abs.checked_sub(lo));
    RoundView {
        updates: log
            .updates
            .iter()
            .filter(|&&(abs, ..)| in_round(abs))
            .map(|&(abs, c, i)| (abs - lo, c, i))
            .collect(),
        latches: log
            .latches
            .iter()
            .filter(|&&(abs, ..)| in_round(abs))
            .map(|&(abs, t, i, o)| (abs - lo, t, i, origin_slot(o)))
            .collect(),
        releases: log
            .releases
            .iter()
            .filter(|&&(abs, _)| in_round(abs))
            .map(|&(abs, t)| (abs - lo, t))
            .collect(),
    }
}

fn fmt_hosts(hosts: &BTreeSet<HostId>) -> String {
    let names: Vec<String> = hosts.iter().map(|h| h.to_string()).collect();
    format!("{{{}}}", names.join(", "))
}

/// Symbolically runs every host's E-code for two rounds and composes the
/// distributed record streams into one denotation.
pub fn ecode_denotation(
    spec: &Specification,
    imp: &Implementation,
    programs: &[(HostId, ECode)],
) -> Result<RoundDenotation, Vec<Diagnostic>> {
    let round = spec.round_period().as_u64();
    let mut diags = Vec::new();
    let all_hosts: BTreeSet<HostId> = programs.iter().map(|&(h, _)| h).collect();

    // Landing sites from the declared write instants, as the runtime
    // platform resolves them.
    let mut landing: BTreeMap<(CommunicatorId, u64), (TaskId, usize, u64)> = BTreeMap::new();
    for t in spec.task_ids() {
        for (idx, &a) in spec.task(t).outputs().iter().enumerate() {
            let abs = spec.access_instant(a).as_u64();
            landing.insert((a.comm, abs % round), (t, idx, abs / round));
        }
    }

    // ---- per-host symbolic runs ----
    let mut logs: Vec<(HostId, RoundView)> = Vec::with_capacity(programs.len());
    for (host, code) in programs {
        // A zero-delay trigger would re-arm at the same instant forever;
        // reject it statically instead of diverging.
        if code
            .instructions()
            .iter()
            .any(|i| matches!(i, Instruction::Future { delta: 0, .. }))
        {
            diags.push(err(
                "V007",
                format!("host `{host}`: E-code arms a zero-delay trigger (machine never advances)"),
            ));
            continue;
        }
        let mut rec = Recorder {
            spec,
            last_update: vec![None; spec.communicator_count()],
            log: HostLog::default(),
        };
        let mut machine = EMachine::new(code.clone(), *host);
        let horizon = 2 * round;
        while let Some(tr) = machine.next_trigger() {
            if tr.as_u64() >= horizon {
                break;
            }
            machine.run_until(tr, &mut rec);
        }

        // Host-local structural checks: every instant's updates must be
        // due, carry the slot's instance index, and happen exactly once.
        let mut seen: BTreeMap<(u64, CommunicatorId), u64> = BTreeMap::new();
        for &(abs, c, instance) in &rec.log.updates {
            let slot = abs % round;
            if c.index() >= spec.communicator_count() {
                continue; // EMachine code is typed; unreachable in practice.
            }
            let period = spec.communicator(c).period().as_u64();
            if !slot.is_multiple_of(period) {
                diags.push(err(
                    "V006",
                    format!(
                        "host `{host}`: communicator `{}` is updated at slot {slot}, which is \
                         not a multiple of its period {period}",
                        spec.communicator(c).name()
                    ),
                ));
            } else if instance != slot / period {
                diags.push(err(
                    "V003",
                    format!(
                        "host `{host}`: update of `{}` at slot {slot} carries instance \
                         {instance}, expected {}",
                        spec.communicator(c).name(),
                        slot / period
                    ),
                ));
            }
            if seen.insert((abs, c), instance).is_some() {
                diags.push(err(
                    "V008",
                    format!(
                        "host `{host}`: communicator `{}` is updated twice at slot {slot} \
                         (non-canonical double update)",
                        spec.communicator(c).name()
                    ),
                ));
            }
        }

        // Round periodicity: round 1 must be round 0 shifted by π_S.
        let r0 = round_view(&rec.log, round, 0);
        let r1 = round_view(&rec.log, round, 1);
        if r0 != r1 {
            diags.push(err(
                "V007",
                format!("host `{host}`: round 1 diverges from round 0 (phase drift across rounds)"),
            ));
        }
        // The steady-state round is the denotation's witness.
        logs.push((*host, r1));
    }
    if !diags.is_empty() {
        return Err(diags);
    }

    // ---- composition across hosts ----
    let mut den = PhaseDenotation::default();

    // Updates: every host maintains every communicator replication.
    let mut update_hosts: BTreeMap<(CommunicatorId, u64), BTreeSet<HostId>> = BTreeMap::new();
    let mut release_hosts: BTreeMap<TaskId, BTreeSet<HostId>> = BTreeMap::new();
    let mut release_slots: BTreeMap<TaskId, BTreeSet<u64>> = BTreeMap::new();
    for (host, view) in &logs {
        for &(slot, c, _) in &view.updates {
            update_hosts.entry((c, slot)).or_default().insert(*host);
        }
        for &(slot, t) in &view.releases {
            release_hosts.entry(t).or_default().insert(*host);
            release_slots.entry(t).or_default().insert(slot);
        }
        // Per-host double release = double execution.
        let mut per_host: BTreeSet<TaskId> = BTreeSet::new();
        for &(_, t) in &view.releases {
            if !per_host.insert(t) {
                diags.push(err(
                    "V010",
                    format!(
                        "host `{host}`: task `{}` is released more than once per round",
                        spec.task(t).name()
                    ),
                ));
            }
        }
    }
    for (&(c, slot), hosts) in &update_hosts {
        if hosts != &all_hosts {
            let missing: BTreeSet<HostId> = all_hosts.difference(hosts).copied().collect();
            diags.push(err(
                "V005",
                format!(
                    "communicator `{}` at slot {slot} is updated on {} but not on {} \
                     (replications diverge)",
                    spec.communicator(c).name(),
                    fmt_hosts(hosts),
                    fmt_hosts(&missing)
                ),
            ));
        }
        let source = if spec.is_sensor_input(c) {
            UpdateSource::Sensor {
                sensors: imp.sensors_of(c).clone(),
            }
        } else if let Some(&(t, out_idx, rounds_back)) = landing.get(&(c, slot)) {
            UpdateSource::Landing {
                task: t,
                out_idx,
                rounds_back,
                // The vote is over whichever replicas actually release
                // (and broadcast) the writing task.
                hosts: release_hosts.get(&t).cloned().unwrap_or_default(),
            }
        } else {
            UpdateSource::Persist
        };
        den.updates.insert((c, slot), source);
    }

    // Latches: group the replicated edges per (task, input index).
    // host → (latch slot, origin slot) of one input's edge.
    type EdgeSites = BTreeMap<HostId, (u64, Option<u64>)>;
    let mut latch_sites: BTreeMap<(TaskId, u32), EdgeSites> = BTreeMap::new();
    for (host, view) in &logs {
        for &(slot, t, index, origin) in &view.latches {
            if latch_sites
                .entry((t, index))
                .or_default()
                .insert(*host, (slot, origin))
                .is_some()
            {
                diags.push(err(
                    "V002",
                    format!(
                        "host `{host}`: input {index} of task `{}` is latched more than once \
                         per round (extra latch edge)",
                        spec.task(t).name()
                    ),
                ));
            }
        }
    }
    for (&(t, index), sites) in &latch_sites {
        let latching: BTreeSet<HostId> = sites.keys().copied().collect();
        let releasing = release_hosts.get(&t).cloned().unwrap_or_default();
        for h in latching.difference(&releasing) {
            diags.push(err(
                "V002",
                format!(
                    "host `{h}`: latches input {index} of task `{}` but never releases it \
                     (extra latch edge)",
                    spec.task(t).name()
                ),
            ));
        }
        let edges: BTreeSet<(u64, Option<u64>)> = sites.values().copied().collect();
        if edges.len() > 1 {
            diags.push(err(
                "V005",
                format!(
                    "replicas of task `{}` latch input {index} at diverging instants/instances \
                     across hosts (replications diverge)",
                    spec.task(t).name()
                ),
            ));
        }
    }

    // Executions: the hosts releasing a task are its replica set.
    for (&t, hosts) in &release_hosts {
        let slots = &release_slots[&t];
        if slots.len() > 1 {
            diags.push(err(
                "V005",
                format!(
                    "replicas of task `{}` are released at diverging slots across hosts",
                    spec.task(t).name()
                ),
            ));
            continue;
        }
        let read_slot = *slots.iter().next().expect("release implies a slot");
        let n_in = spec.task(t).inputs().len();
        let mut inputs = Vec::with_capacity(n_in);
        let mut complete = true;
        for i in 0..n_in {
            let site = latch_sites.get(&(t, i as u32)).and_then(|sites| {
                // All releasing hosts must have latched this port; the
                // composed edge is their (already checked) agreement.
                hosts
                    .iter()
                    .all(|h| sites.contains_key(h))
                    .then(|| *sites.values().next().expect("non-empty site map"))
            });
            match site {
                Some((latch_slot, origin)) => inputs.push(LatchEdge {
                    comm: spec.task(t).inputs()[i].comm,
                    latch_slot,
                    origin,
                }),
                None => {
                    diags.push(err(
                        "V001",
                        format!(
                            "input {i} of task `{}` is not latched on every releasing host \
                             before the read at slot {read_slot} (missing latch edge)",
                            spec.task(t).name()
                        ),
                    ));
                    complete = false;
                }
            }
        }
        if !complete {
            continue;
        }
        den.execs.insert(
            t,
            ExecRecord {
                read_slot,
                // The failure model is applied by the platform at release
                // time from the specification; the code does not encode it.
                model: spec.task(t).failure_model(),
                hosts: hosts.clone(),
                inputs,
            },
        );
    }

    if diags.is_empty() {
        Ok(RoundDenotation {
            round,
            phases: vec![den],
        })
    } else {
        Err(diags)
    }
}
