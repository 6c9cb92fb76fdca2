//! Specification-level lints (`L0xx`).
//!
//! Each lint inspects the parsed program (for spans) together with the
//! elaborated system (for semantics) and reports [`Diagnostic`]s with
//! stable codes:
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | L001 | warning  | dead communicator: declared but never read or written |
//! | L002 | warning  | unread task output with no LRC besides consumed siblings |
//! | L003 | error    | LRC unsatisfiable even with full replication |
//! | L004 | error    | reliability-sink cycle (§3 "specification with memory") |
//! | L005 | warning  | replicas co-located on one host (degenerate RBD block) |
//! | L006 | warning  | stale read: a fresher instance arrives before release |
//! | L008 | warning  | mode unreachable from the start mode |
//! | L009 | warning  | host with no task mapped to it |
//! | L010 | warning  | sensor never bound to a communicator |
//! | L011 | error    | restriction 1: task without inputs or outputs |
//! | L012 | error    | restriction 2: read time not before write time |
//! | L013 | error    | restriction 3: two writers for one communicator |
//! | L014 | error    | restriction 4: duplicate instance write |
//! | L015 | error    | write to an environment (sensor) communicator |
//!
//! L011–L015 are spanned front-ends for the core race-freedom
//! restrictions: `SpecificationBuilder::build` rejects these programs with
//! a (span-less) [`CoreError`]; the lint pass re-derives the violation from
//! the AST so the CLI can point at the offending invocation.
//!
//! [`CoreError`]: logrel_core::CoreError

use crate::diagnostic::{Diagnostic, Severity};
use logrel_core::graph::{CommDependencyGraph, SpecGraph};
use logrel_core::CommunicatorId;
use logrel_lang::ast::{Access, MapItem, Mode, Program};
use logrel_lang::ElaboratedSystem;
use logrel_reliability::compute_srgs;
use logrel_sched::data_ages;
use std::collections::{BTreeMap, BTreeSet};

/// Runs every specification lint over an elaborated program.
pub fn spec_lints(program: &Program, sys: &ElaboratedSystem) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    dead_communicators(program, &mut diags);
    unread_outputs(program, sys, &mut diags);
    sink_cycles_and_lrc(program, sys, &mut diags);
    colocated_replicas(program, &mut diags);
    stale_reads(program, sys, &mut diags);
    unreachable_modes(program, &mut diags);
    unused_architecture(program, &mut diags);
    diags
}

/// The start mode of a module: the one marked `start`, or the first.
fn start_mode(modes: &[Mode]) -> Option<&Mode> {
    modes.iter().find(|m| m.start).or_else(|| modes.first())
}

/// All accesses of every mode (not only start modes): `(reads, writes)`.
fn all_accesses(program: &Program) -> (Vec<&Access>, Vec<&Access>) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for module in &program.modules {
        for mode in &module.modes {
            for inv in &mode.invocations {
                reads.extend(inv.reads.iter());
                writes.extend(inv.writes.iter());
            }
        }
    }
    (reads, writes)
}

/// L001: a communicator that no mode of any module ever reads or writes
/// and that is not sensor-fed is dead weight — it only stores its initial
/// value.
fn dead_communicators(program: &Program, diags: &mut Vec<Diagnostic>) {
    let (reads, writes) = all_accesses(program);
    let touched: BTreeSet<&str> = reads
        .iter()
        .chain(writes.iter())
        .map(|a| a.comm.as_str())
        .collect();
    for c in &program.communicators {
        if !c.sensor && !touched.contains(c.name.as_str()) {
            diags.push(
                Diagnostic::new(
                    "L001",
                    Severity::Warning,
                    c.span,
                    format!(
                        "communicator `{}` is never read or written; it only holds its \
                         initial value",
                        c.name
                    ),
                )
                .with_help("remove the declaration or connect it to a task"),
            );
        }
    }
}

/// L002: a task output that nobody reads and that carries no LRC, while a
/// sibling output of the same task *is* consumed or constrained. A task
/// whose outputs are all unconsumed is assumed to drive an actuator or
/// monitor; a task with both consumed and dangling outputs most likely
/// carries a leftover write.
fn unread_outputs(program: &Program, sys: &ElaboratedSystem, diags: &mut Vec<Diagnostic>) {
    let (reads, _) = all_accesses(program);
    let read_comms: BTreeSet<&str> = reads.iter().map(|a| a.comm.as_str()).collect();
    let lrc: BTreeMap<&str, bool> = program
        .communicators
        .iter()
        .map(|c| (c.name.as_str(), c.lrc.is_some()))
        .collect();
    let consumed =
        |name: &str| read_comms.contains(name) || lrc.get(name).copied().unwrap_or(false);
    for module in &program.modules {
        let Some(mode) = start_mode(&module.modes) else {
            continue;
        };
        for inv in &mode.invocations {
            if sys.spec.find_task(&inv.task).is_none() {
                continue;
            }
            let any_consumed = inv.writes.iter().any(|w| consumed(&w.comm));
            if !any_consumed {
                continue; // a pure sink task: assumed to feed the environment
            }
            for w in &inv.writes {
                if !consumed(&w.comm) {
                    diags.push(
                        Diagnostic::new(
                            "L002",
                            Severity::Warning,
                            w.span,
                            format!(
                                "output `{}` of task `{}` is never read and has no LRC",
                                w.comm, inv.task
                            ),
                        )
                        .with_help(
                            "remove the write, add a consumer, or state a reliability \
                             constraint with `lrc`",
                        ),
                    );
                }
            }
        }
    }
}

/// L004 (reliability-sink cycles) and L003 (unsatisfiable LRCs).
///
/// The SRG induction of §3 requires the communicator dependency graph to
/// be acyclic after dropping edges into `independent`-model writers; a
/// remaining cycle means every feeding task has the model-1 or model-2
/// input model and the long-run reliability sinks to zero — the paper's
/// "specification with memory" pathology (L004). When the graph *is*
/// acyclic we compute an upper bound on every achievable SRG by
/// replicating every task on every host; an LRC above that bound can never
/// be met by any mapping (L003).
fn sink_cycles_and_lrc(program: &Program, sys: &ElaboratedSystem, diags: &mut Vec<Diagnostic>) {
    let comm_span = |c: CommunicatorId| {
        let name = sys.spec.communicator(c).name();
        program
            .communicators
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.span)
            .unwrap_or_default()
    };
    let dep = CommDependencyGraph::new(&sys.spec);
    match dep.analysis_order() {
        Err(cyclic) => {
            let names: Vec<&str> = cyclic
                .iter()
                .map(|&c| sys.spec.communicator(c).name())
                .collect();
            let witness = SpecGraph::new(&sys.spec)
                .communicator_cycles()
                .witnesses
                .first()
                .map(|w| {
                    let path: Vec<String> =
                        w.path.iter().map(|v| v.to_string()).collect();
                    format!(" (witness: {})", path.join(" -> "))
                })
                .unwrap_or_default();
            let mut d = Diagnostic::new(
                "L004",
                Severity::Error,
                comm_span(cyclic[0]),
                format!(
                    "communicator cycle through {} is fed only by series/parallel-model \
                     tasks; its long-run reliability sinks to zero{witness}",
                    names
                        .iter()
                        .map(|n| format!("`{n}`"))
                        .collect::<Vec<_>>()
                        .join(", "),
                ),
            )
            .with_help(
                "give one task on the cycle the `independent` input model (§3's remedy \
                 for specifications with memory)",
            );
            for &c in cyclic.iter().skip(1) {
                d = d.with_label(
                    comm_span(c),
                    format!("`{}` is on the cycle", sys.spec.communicator(c).name()),
                );
            }
            diags.push(d);
        }
        Ok(_) => {
            // Upper-bound SRG: every task replicated on every host.
            let hosts: Vec<_> = sys.arch.host_ids().collect();
            let mut full = sys.imp.clone();
            for t in sys.spec.task_ids() {
                full = full.with_assignment(t, hosts.iter().copied());
            }
            let Ok(best) = compute_srgs(&sys.spec, &sys.arch, &full) else {
                return;
            };
            for c in sys.spec.communicator_ids() {
                let Some(mu) = sys.spec.communicator(c).lrc() else {
                    continue;
                };
                let lambda = best.communicator(c);
                if !lambda.meets(mu) {
                    diags.push(
                        Diagnostic::new(
                            "L003",
                            Severity::Error,
                            comm_span(c),
                            format!(
                                "LRC {} on `{}` is unsatisfiable: even with every task \
                                 replicated on every host the SRG is {:.9}",
                                mu.get(),
                                sys.spec.communicator(c).name(),
                                lambda.get()
                            ),
                        )
                        .with_help(
                            "add hosts, improve host/sensor reliability, or relax the \
                             constraint",
                        ),
                    );
                }
            }
        }
    }
}

/// L005: duplicate hosts in a task's replication list. The elaborator
/// collects hosts into a set, so `t -> h1, h1;` silently degenerates to a
/// single replica — the parallel block of the RBD collapses and the
/// declared redundancy does not exist.
fn colocated_replicas(program: &Program, diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for item in &program.map {
        let MapItem::Assign { task, hosts, span } = item else {
            continue;
        };
        let assigned = seen.entry(task.as_str()).or_default();
        for h in hosts {
            if !assigned.insert(h.as_str()) {
                diags.push(
                    Diagnostic::new(
                        "L005",
                        Severity::Warning,
                        *span,
                        format!(
                            "task `{task}` is mapped to host `{h}` more than once; \
                             co-located replicas add no redundancy"
                        ),
                    )
                    .with_help("map each replica to a distinct host"),
                );
            }
        }
    }
}

/// L006: a task latches an instance of a communicator although a strictly
/// fresher instance is produced (task write or sensor refresh) before the
/// task is even released. The LET semantics permits this — the latch
/// happens at the access instant — but reading data one or more periods
/// older than available is usually an off-by-one in the instance number.
fn stale_reads(program: &Program, sys: &ElaboratedSystem, diags: &mut Vec<Diagnostic>) {
    let spec = &sys.spec;
    let round = spec.round_period().as_u64();
    let ages = data_ages(spec);
    // Refresh instants per communicator: sensor updates or written
    // instances.
    let mut refreshed: BTreeMap<CommunicatorId, BTreeSet<u64>> = BTreeMap::new();
    for c in spec.communicator_ids() {
        let period = spec.communicator(c).period().as_u64();
        let entry = refreshed.entry(c).or_default();
        if spec.is_sensor_input(c) {
            let mut t = 0;
            while t < round {
                entry.insert(t);
                t += period;
            }
        }
    }
    for t in spec.task_ids() {
        for &w in spec.task(t).outputs() {
            refreshed
                .entry(w.comm)
                .or_default()
                .insert(spec.access_instant(w).as_u64());
        }
    }
    for module in &program.modules {
        let Some(mode) = start_mode(&module.modes) else {
            continue;
        };
        for inv in &mode.invocations {
            let Some(tid) = spec.find_task(&inv.task) else {
                continue;
            };
            let release = spec.read_time(tid).as_u64();
            for r in &inv.reads {
                let Some(cid) = spec.find_communicator(&r.comm) else {
                    continue;
                };
                let period = spec.communicator(cid).period().as_u64();
                let latch_at = r.instance * period;
                let fresher = refreshed
                    .get(&cid)
                    .into_iter()
                    .flatten()
                    .find(|&&s| latch_at < s && s <= release);
                if let Some(&s) = fresher {
                    let age = ages
                        .age(cid)
                        .map_or(String::new(), |a| format!("; worst data age {a}"));
                    diags.push(
                        Diagnostic::new(
                            "L006",
                            Severity::Warning,
                            r.span,
                            format!(
                                "task `{}` latches `{}[{}]` (instant {latch_at}) but a \
                                 fresher value arrives at instant {s}, before its \
                                 release at instant {release}{age}",
                                inv.task, r.comm, r.instance
                            ),
                        )
                        .with_help(format!(
                            "read instance {} instead, or release the task earlier",
                            s / period
                        )),
                    );
                }
            }
        }
    }
}

/// L008: a mode that no chain of switches can reach from the start mode
/// will never execute.
fn unreachable_modes(program: &Program, diags: &mut Vec<Diagnostic>) {
    for module in &program.modules {
        if module.modes.len() < 2 {
            continue;
        }
        let index: BTreeMap<&str, usize> = module
            .modes
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.as_str(), i))
            .collect();
        let start = module
            .modes
            .iter()
            .position(|m| m.start)
            .unwrap_or(0);
        let mut reach = BTreeSet::from([start]);
        let mut work = vec![start];
        while let Some(i) = work.pop() {
            for sw in &module.modes[i].switches {
                if let Some(&j) = index.get(sw.target.as_str()) {
                    if reach.insert(j) {
                        work.push(j);
                    }
                }
            }
        }
        for (i, mode) in module.modes.iter().enumerate() {
            if !reach.contains(&i) {
                diags.push(
                    Diagnostic::new(
                        "L008",
                        Severity::Warning,
                        mode.span,
                        format!(
                            "mode `{}` of module `{}` is unreachable from the start mode",
                            mode.name, module.name
                        ),
                    )
                    .with_help("add a switch into the mode or remove it"),
                );
            }
        }
    }
}

/// L009/L010: architecture elements that the mapping never uses.
fn unused_architecture(program: &Program, diags: &mut Vec<Diagnostic>) {
    let mut mapped_hosts: BTreeSet<&str> = BTreeSet::new();
    let mut bound_sensors: BTreeSet<&str> = BTreeSet::new();
    for item in &program.map {
        match item {
            MapItem::Assign { hosts, .. } => {
                mapped_hosts.extend(hosts.iter().map(String::as_str));
            }
            MapItem::Bind { sensors, .. } => {
                bound_sensors.extend(sensors.iter().map(String::as_str));
            }
        }
    }
    for item in &program.arch {
        match item {
            logrel_lang::ast::ArchItem::Host { name, span, .. }
                if !mapped_hosts.contains(name.as_str()) =>
            {
                diags.push(
                    Diagnostic::new(
                        "L009",
                        Severity::Warning,
                        *span,
                        format!("host `{name}` has no task mapped to it"),
                    )
                    .with_help("map a replica to the host or remove it"),
                );
            }
            logrel_lang::ast::ArchItem::Sensor { name, span, .. }
                if !bound_sensors.contains(name.as_str()) =>
            {
                diags.push(
                    Diagnostic::new(
                        "L010",
                        Severity::Warning,
                        *span,
                        format!("sensor `{name}` is never bound to a communicator"),
                    )
                    .with_help("bind the sensor with `bind <comm> -> <sensor>;`"),
                );
            }
            _ => {}
        }
    }
}

/// Spanned re-derivation of the core race-freedom restrictions (§2) plus
/// the environment-write rule, emitted when elaboration fails with a
/// core-model error so the CLI can report a source position.
pub fn spanned_restriction_checks(program: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let periods: BTreeMap<&str, u64> = program
        .communicators
        .iter()
        .map(|c| (c.name.as_str(), c.period))
        .collect();
    let sensors: BTreeSet<&str> = program
        .communicators
        .iter()
        .filter(|c| c.sensor)
        .map(|c| c.name.as_str())
        .collect();
    let instant = |a: &Access| periods.get(a.comm.as_str()).map(|p| p * a.instance);
    // Writers across every flattened (start) mode, for restriction 3.
    let mut writers: BTreeMap<&str, (&str, &Access)> = BTreeMap::new();
    for module in &program.modules {
        let Some(mode) = start_mode(&module.modes) else {
            continue;
        };
        for inv in &mode.invocations {
            // Restriction 1: at least one input and one output.
            if inv.reads.is_empty() || inv.writes.is_empty() {
                let what = if inv.reads.is_empty() {
                    "reads"
                } else {
                    "writes"
                };
                diags.push(
                    Diagnostic::new(
                        "L011",
                        Severity::Error,
                        inv.span,
                        format!(
                            "task `{}` {what} no communicator (restriction 1: every \
                             task reads and writes at least one)",
                            inv.task
                        ),
                    )
                    .with_help("connect the task to a communicator instance"),
                );
            }
            // Restriction 2: read time strictly before write time.
            let read = inv.reads.iter().filter_map(|a| instant(a).map(|i| (i, a)));
            let write = inv.writes.iter().filter_map(|a| instant(a).map(|i| (i, a)));
            if let (Some((rt, ra)), Some((wt, wa))) = (
                read.max_by_key(|(i, _)| *i),
                write.min_by_key(|(i, _)| *i),
            ) {
                if rt >= wt {
                    diags.push(
                        Diagnostic::new(
                            "L012",
                            Severity::Error,
                            inv.span,
                            format!(
                                "task `{}` reads at instant {rt} but writes at instant \
                                 {wt} (restriction 2: read time must be strictly \
                                 before write time)",
                                inv.task
                            ),
                        )
                        .with_label(ra.span, format!("latest read `{}[{}]`", ra.comm, ra.instance))
                        .with_label(
                            wa.span,
                            format!("earliest write `{}[{}]`", wa.comm, wa.instance),
                        )
                        .with_help("read an earlier instance or write a later one"),
                    );
                }
            }
            let mut written_instances: BTreeSet<(&str, u64)> = BTreeSet::new();
            for w in &inv.writes {
                // Environment communicators are written by sensors only.
                if sensors.contains(w.comm.as_str()) {
                    diags.push(
                        Diagnostic::new(
                            "L015",
                            Severity::Error,
                            w.span,
                            format!(
                                "task `{}` writes sensor communicator `{}`; environment \
                                 communicators are updated by sensors only",
                                inv.task, w.comm
                            ),
                        )
                        .with_help("drop the `sensor` attribute or write another \
                                    communicator"),
                    );
                }
                // Restriction 4: one write per instance per task.
                if !written_instances.insert((w.comm.as_str(), w.instance)) {
                    diags.push(
                        Diagnostic::new(
                            "L014",
                            Severity::Error,
                            w.span,
                            format!(
                                "task `{}` writes `{}[{}]` more than once \
                                 (restriction 4)",
                                inv.task, w.comm, w.instance
                            ),
                        )
                        .with_help("write each instance at most once"),
                    );
                }
                // Restriction 3: a single writer per communicator.
                match writers.get(w.comm.as_str()) {
                    Some((first_task, first)) if *first_task != inv.task.as_str() => {
                        diags.push(
                            Diagnostic::new(
                                "L013",
                                Severity::Error,
                                w.span,
                                format!(
                                    "communicator `{}` is written by both `{first_task}` \
                                     and `{}` (restriction 3: single writer)",
                                    w.comm, inv.task
                                ),
                            )
                            .with_label(first.span, "first writer declared here".to_owned())
                            .with_help("route one task through its own communicator"),
                        );
                    }
                    Some(_) => {}
                    None => {
                        writers.insert(w.comm.as_str(), (inv.task.as_str(), w));
                    }
                }
            }
        }
    }
    diags
}
