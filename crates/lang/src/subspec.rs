//! Content-hashed subspec units: the spec split into independently
//! hashable fragments for the incremental query layer.
//!
//! A program is decomposed into named **units** — per-module, per-task
//! metric rows, per-task host mappings, plus shared communicator /
//! architecture fragments. Each unit renders to a canonical, span-free
//! text (the same discipline as [`crate::printer`], whose output is
//! deterministic) and is hashed with FNV-1a 64 ([`logrel_core::hash`]) —
//! the same hash `logrel-validate` uses for certificate digests. One extra `layout`
//! unit hashes the source *positions* of every item, so queries whose
//! results embed spans (diagnostics) are dirtied by edits that merely
//! move items. Queries key their dependency edges on these hashes: an
//! edit only dirties the units whose canonical text actually changed.
//!
//! Declaration order is **semantic** in HTL (instance numbering, mode
//! ordering, host precedence in `map` items), so unit texts preserve it;
//! units are never sorted before hashing.

use crate::ast::{ArchItem, Literal, MapItem, ModelName, Program, TypeName};
use crate::token::Span;
use std::fmt::Write;

pub use logrel_core::hash::{fnv1a, FnvWriter};

/// One content-hashed fragment of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubspecUnit {
    /// Stable unit name (`comms_core`, `module:<name>`, `metrics:<task>`,
    /// `map:<task>`, …).
    pub name: String,
    /// FNV-1a 64 hash of the canonical unit text.
    pub hash: u64,
}

impl SubspecUnit {
    /// Hashes the canonical text streamed by `write` under `name`.
    fn streamed(name: impl Into<String>, write: impl FnOnce(&mut FnvWriter)) -> Self {
        let mut w = FnvWriter::new();
        write(&mut w);
        Self { name: name.into(), hash: w.finish() }
    }
}

// The canonical unit texts below are *streamed* into the FNV state — the
// `write!` calls define the text without allocating it. Infallible
// writers make the results ignorable.

fn push_literal(out: &mut impl Write, lit: Literal) {
    let _ = match lit {
        Literal::Int(i) => write!(out, "{i}"),
        Literal::Float(x) => write!(out, "f{:016x}", x.to_bits()),
        Literal::Bool(b) => out.write_str(if b { "t" } else { "f" }),
    };
}

fn push_f64(out: &mut impl Write, x: f64) {
    // Bit-exact: two floats hash equal iff they are the same value.
    let _ = write!(out, "f{:016x}", x.to_bits());
}

/// Canonical text of the communicator *core*: everything except LRCs.
/// The SRG fixpoint never reads LRCs, so LRC edits must not dirty it.
fn comms_core_text(program: &Program, out: &mut impl Write) {
    for c in &program.communicators {
        let ty = match c.ty {
            TypeName::Float => "float",
            TypeName::Int => "int",
            TypeName::Bool => "bool",
        };
        let _ = write!(out, "comm {} {ty} {}", c.name, c.period);
        if let Some(init) = c.init {
            let _ = out.write_str(" init=");
            push_literal(out, init);
        }
        if c.sensor {
            let _ = out.write_str(" sensor");
        }
        let _ = out.write_str("\n");
    }
}

/// Canonical text of the declared LRCs (name → constraint).
fn comms_lrc_text(program: &Program, out: &mut impl Write) {
    for c in &program.communicators {
        if let Some(lrc) = c.lrc {
            let _ = write!(out, "lrc {} ", c.name);
            push_f64(out, lrc);
            let _ = out.write_str("\n");
        }
    }
}

/// Canonical text of one module (modes, invocations, switches).
fn module_text(program: &Program, name: &str, out: &mut impl Write) {
    for module in program.modules.iter().filter(|m| m.name == name) {
        for mode in &module.modes {
            let _ = writeln!(
                out,
                "mode {} start={} period {}",
                mode.name, mode.start, mode.period
            );
            for inv in &mode.invocations {
                let model = match inv.model {
                    ModelName::Series => "series",
                    ModelName::Parallel => "parallel",
                    ModelName::Independent => "independent",
                };
                let _ = write!(out, "  invoke {} {model} r", inv.task);
                for a in &inv.reads {
                    let _ = write!(out, " {}[{}]", a.comm, a.instance);
                }
                let _ = out.write_str(" w");
                for a in &inv.writes {
                    let _ = write!(out, " {}[{}]", a.comm, a.instance);
                }
                if !inv.defaults.is_empty() {
                    let _ = out.write_str(" d");
                    for &d in &inv.defaults {
                        let _ = out.write_str(" ");
                        push_literal(out, d);
                    }
                }
                let _ = out.write_str("\n");
            }
            for sw in &mode.switches {
                let _ = writeln!(out, "  switch {} -> {}", sw.event, sw.target);
            }
        }
    }
}

/// Canonical text of the architecture *topology*: host and sensor names
/// in declaration order (no reliabilities, no metrics).
fn arch_topo_text(program: &Program, out: &mut impl Write) {
    for item in &program.arch {
        match item {
            ArchItem::Host { name, .. } => {
                let _ = writeln!(out, "host {name}");
            }
            ArchItem::Sensor { name, .. } => {
                let _ = writeln!(out, "sensor {name}");
            }
            ArchItem::Broadcast { .. } | ArchItem::Wcet { .. } | ArchItem::Wctt { .. } => {}
        }
    }
}

/// Canonical text of the failure probabilities: host, sensor and
/// broadcast reliabilities.
fn arch_rel_text(program: &Program, out: &mut impl Write) {
    for item in &program.arch {
        match item {
            ArchItem::Host { name, reliability, .. } => {
                let _ = write!(out, "host {name} ");
                push_f64(out, *reliability);
                let _ = out.write_str("\n");
            }
            ArchItem::Sensor { name, reliability, .. } => {
                let _ = write!(out, "sensor {name} ");
                push_f64(out, *reliability);
                let _ = out.write_str("\n");
            }
            ArchItem::Broadcast { reliability, .. } => {
                let _ = out.write_str("broadcast ");
                push_f64(out, *reliability);
                let _ = out.write_str("\n");
            }
            ArchItem::Wcet { .. } | ArchItem::Wctt { .. } => {}
        }
    }
}

/// Canonical text of one task's WCET/WCTT rows, in declaration order.
fn metrics_text(program: &Program, task: &str, out: &mut impl Write) {
    for item in &program.arch {
        match item {
            ArchItem::Wcet { task: t, host, ticks, .. } if t == task => {
                let _ = writeln!(out, "wcet {host} {ticks}");
            }
            ArchItem::Wctt { task: t, host, ticks, .. } if t == task => {
                let _ = writeln!(out, "wctt {host} {ticks}");
            }
            _ => {}
        }
    }
}

/// Canonical text of one task's host assignments, in declaration order.
fn map_text(program: &Program, task: &str, out: &mut impl Write) {
    for item in &program.map {
        if let MapItem::Assign { task: t, hosts, .. } = item {
            if t == task {
                let _ = out.write_str("assign ");
                for (i, h) in hosts.iter().enumerate() {
                    if i > 0 {
                        let _ = out.write_str(" ");
                    }
                    let _ = out.write_str(h);
                }
                let _ = out.write_str("\n");
            }
        }
    }
}

/// Canonical text of the sensor bindings.
fn binds_text(program: &Program, out: &mut impl Write) {
    for item in &program.map {
        if let MapItem::Bind { comm, sensors, .. } = item {
            let _ = write!(out, "bind {comm} ");
            for (i, s) in sensors.iter().enumerate() {
                if i > 0 {
                    let _ = out.write_str(" ");
                }
                let _ = out.write_str(s);
            }
            let _ = out.write_str("\n");
        }
    }
}

/// Streams every AST source position, in declaration order.
///
/// Spans are hashed as their own `layout` unit because cached query
/// results may embed line/column positions (diagnostics do): an edit
/// that moves items without changing any canonical text — an inserted
/// blank line, say — must still dirty every span-carrying query, or a
/// replayed result would point at stale positions. Queries whose
/// payloads are span-free simply leave `layout` out of their
/// dependency set.
fn layout_text(program: &Program, w: &mut FnvWriter) {
    let mut span = |s: Span| {
        w.write_bytes(&s.line.to_le_bytes());
        w.write_bytes(&s.col.to_le_bytes());
    };
    for c in &program.communicators {
        span(c.span);
    }
    for module in &program.modules {
        span(module.span);
        for mode in &module.modes {
            span(mode.span);
            for inv in &mode.invocations {
                span(inv.span);
                for a in &inv.reads {
                    span(a.span);
                }
                for a in &inv.writes {
                    span(a.span);
                }
            }
            for sw in &mode.switches {
                span(sw.span);
            }
        }
    }
    for item in &program.arch {
        span(match item {
            ArchItem::Host { span, .. }
            | ArchItem::Sensor { span, .. }
            | ArchItem::Broadcast { span, .. }
            | ArchItem::Wcet { span, .. }
            | ArchItem::Wctt { span, .. } => *span,
        });
    }
    for item in &program.map {
        span(match item {
            MapItem::Assign { span, .. } | MapItem::Bind { span, .. } => *span,
        });
    }
}

/// Tasks of `program`, in order of first appearance: invocations first
/// (declaration order), then any extra tasks mentioned only in the
/// architecture or map blocks.
#[must_use]
fn task_names(program: &Program) -> Vec<String> {
    let mut tasks: Vec<String> = Vec::new();
    let mut push = |t: &str| {
        if !tasks.iter().any(|x| x == t) {
            tasks.push(t.to_string());
        }
    };
    for module in &program.modules {
        for mode in &module.modes {
            for inv in &mode.invocations {
                push(&inv.task);
            }
        }
    }
    for item in &program.arch {
        match item {
            ArchItem::Wcet { task, .. } | ArchItem::Wctt { task, .. } => push(task),
            _ => {}
        }
    }
    for item in &program.map {
        if let MapItem::Assign { task, .. } = item {
            push(task);
        }
    }
    tasks
}

/// Splits `program` into its content-hashed subspec units, in a stable
/// order: `name`, `comms_core`, `comms_lrc`, one `module:<m>` per module,
/// `arch_topo`, `arch_rel`, one `metrics:<t>` and one `map:<t>` per task
/// (skipping tasks with no such rows), `binds`, and `layout` (source
/// positions).
#[must_use]
pub fn split_units(program: &Program) -> Vec<SubspecUnit> {
    let mut units = Vec::new();
    units.push(SubspecUnit::streamed("name", |w| {
        let _ = w.write_str(&program.name);
    }));
    units.push(SubspecUnit::streamed("comms_core", |w| {
        comms_core_text(program, w);
    }));
    units.push(SubspecUnit::streamed("comms_lrc", |w| {
        comms_lrc_text(program, w);
    }));
    for module in &program.modules {
        units.push(SubspecUnit::streamed(format!("module:{}", module.name), |w| {
            module_text(program, &module.name, w);
        }));
    }
    units.push(SubspecUnit::streamed("arch_topo", |w| {
        arch_topo_text(program, w);
    }));
    units.push(SubspecUnit::streamed("arch_rel", |w| {
        arch_rel_text(program, w);
    }));
    for task in task_names(program) {
        let mut metrics = FnvWriter::new();
        metrics_text(program, &task, &mut metrics);
        if !metrics.is_empty() {
            units.push(SubspecUnit {
                name: format!("metrics:{task}"),
                hash: metrics.finish(),
            });
        }
        let mut map = FnvWriter::new();
        map_text(program, &task, &mut map);
        if !map.is_empty() {
            units.push(SubspecUnit {
                name: format!("map:{task}"),
                hash: map.finish(),
            });
        }
    }
    units.push(SubspecUnit::streamed("binds", |w| {
        binds_text(program, w);
    }));
    units.push(SubspecUnit::streamed("layout", |w| {
        layout_text(program, w);
    }));
    units
}


/// Combines per-unit hashes into one digest: FNV-1a 64 over each unit's
/// name, a NUL separator and the raw little-endian hash bytes, in unit
/// order.
///
/// The units jointly cover every canonical program field (communicators,
/// LRCs, modules, architecture, metrics, mappings, bindings) *and* every
/// source position (the `layout` unit), so two programs with equal unit
/// digests have identical canonical printed forms — and therefore
/// re-parse identically — and place every item at the same line and
/// column.
#[must_use]
pub fn units_digest(units: &[SubspecUnit]) -> u64 {
    let mut w = FnvWriter::new();
    for u in units {
        w.write_bytes(u.name.as_bytes());
        w.write_bytes(&[0]);
        w.write_bytes(&u.hash.to_le_bytes());
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = r#"
program demo {
    communicator s : float period 10 sensor;
    communicator u : float period 10 lrc 0.9;
    communicator v : float period 10 lrc 0.8;
    module m {
        start mode main period 10 {
            invoke ctrl reads s[0] writes u[1];
        }
    }
    module n {
        start mode main period 10 {
            invoke obs model parallel reads s[0] writes v[1];
        }
    }
    architecture {
        host h1 reliability 0.99;
        host h2 reliability 0.98;
        sensor sn reliability 0.999;
        wcet ctrl on h1 2;
        wctt ctrl on h1 1;
        wcet obs on h1 2;
        wctt obs on h1 1;
        wcet obs on h2 2;
        wctt obs on h2 1;
    }
    map {
        ctrl -> h1;
        obs -> h1, h2;
        bind s -> sn;
    }
}
"#;

    fn unit(units: &[SubspecUnit], name: &str) -> u64 {
        units
            .iter()
            .find(|u| u.name == name)
            .unwrap_or_else(|| panic!("missing unit {name}"))
            .hash
    }

    #[test]
    fn splitting_is_deterministic() {
        let p = parse(SRC).unwrap();
        assert_eq!(split_units(&p), split_units(&p));
    }

    #[test]
    fn expected_units_exist() {
        let p = parse(SRC).unwrap();
        let units = split_units(&p);
        for name in [
            "name",
            "comms_core",
            "comms_lrc",
            "module:m",
            "module:n",
            "arch_topo",
            "arch_rel",
            "metrics:ctrl",
            "metrics:obs",
            "map:ctrl",
            "map:obs",
            "binds",
            "layout",
        ] {
            assert!(units.iter().any(|u| u.name == name), "missing {name}");
        }
    }

    #[test]
    fn lrc_edit_only_dirties_lrc_unit() {
        let p1 = parse(SRC).unwrap();
        let p2 = parse(&SRC.replace("lrc 0.9;", "lrc 0.95;")).unwrap();
        let (u1, u2) = (split_units(&p1), split_units(&p2));
        assert_ne!(unit(&u1, "comms_lrc"), unit(&u2, "comms_lrc"));
        for name in ["comms_core", "module:m", "arch_topo", "arch_rel", "metrics:ctrl"] {
            assert_eq!(unit(&u1, name), unit(&u2, name), "{name} dirtied");
        }
    }

    #[test]
    fn wcet_edit_only_dirties_that_tasks_metrics() {
        let p1 = parse(SRC).unwrap();
        let p2 = parse(&SRC.replace("wcet ctrl on h1 2;", "wcet ctrl on h1 3;")).unwrap();
        let (u1, u2) = (split_units(&p1), split_units(&p2));
        assert_ne!(unit(&u1, "metrics:ctrl"), unit(&u2, "metrics:ctrl"));
        assert_eq!(unit(&u1, "metrics:obs"), unit(&u2, "metrics:obs"));
        assert_eq!(unit(&u1, "comms_core"), unit(&u2, "comms_core"));
        assert_eq!(unit(&u1, "module:m"), unit(&u2, "module:m"));
    }

    #[test]
    fn module_edit_only_dirties_that_module() {
        let p1 = parse(SRC).unwrap();
        let p2 =
            parse(&SRC.replace("invoke obs model parallel", "invoke obs model independent"))
                .unwrap();
        let (u1, u2) = (split_units(&p1), split_units(&p2));
        assert_ne!(unit(&u1, "module:n"), unit(&u2, "module:n"));
        assert_eq!(unit(&u1, "module:m"), unit(&u2, "module:m"));
    }

    #[test]
    fn reorder_of_map_hosts_changes_hash() {
        // Host order in an assignment is semantic (replica indexing).
        let p1 = parse(SRC).unwrap();
        let p2 = parse(&SRC.replace("obs -> h1, h2;", "obs -> h2, h1;")).unwrap();
        let (u1, u2) = (split_units(&p1), split_units(&p2));
        assert_ne!(unit(&u1, "map:obs"), unit(&u2, "map:obs"));
    }

    #[test]
    fn line_shift_dirties_only_layout() {
        // A blank line changes no canonical text but moves every item
        // below it: only the span unit may (and must) change.
        let p1 = parse(SRC).unwrap();
        let p2 = parse(&SRC.replacen("    module m {", "\n    module m {", 1)).unwrap();
        let (u1, u2) = (split_units(&p1), split_units(&p2));
        assert_ne!(unit(&u1, "layout"), unit(&u2, "layout"));
        for name in ["comms_core", "comms_lrc", "module:m", "arch_rel", "metrics:ctrl"] {
            assert_eq!(unit(&u1, name), unit(&u2, name), "{name} dirtied");
        }
    }

    #[test]
    fn width_preserving_value_edit_keeps_layout() {
        // `2` -> `3` moves nothing, so the span unit must stay green.
        let p1 = parse(SRC).unwrap();
        let p2 = parse(&SRC.replace("wcet ctrl on h1 2;", "wcet ctrl on h1 3;")).unwrap();
        assert_eq!(
            unit(&split_units(&p1), "layout"),
            unit(&split_units(&p2), "layout")
        );
    }

    #[test]
    fn units_digest_tracks_any_edit() {
        let digest = |src: &str| units_digest(&split_units(&parse(src).unwrap()));
        let edited = SRC.replace("period 10 sensor", "period 5 sensor");
        assert_ne!(digest(SRC), digest(&edited));
        assert_eq!(digest(SRC), digest(SRC));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
