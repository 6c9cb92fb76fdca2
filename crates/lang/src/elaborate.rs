//! Name resolution and flattening into the core model.
//!
//! Flattening picks the *start mode* of every module (the mode marked
//! `start`, or the first one) and turns its invocations into core task
//! declarations. Mode switches are checked per the paper's §4 observation:
//! the analysis of one mode carries over to the others only when "the
//! switch is always to tasks with identical reliability constraints" —
//! concretely, every mode of a module must write exactly the same set of
//! communicators (hence the same LRCs), and switch targets must exist.

use crate::ast::*;
use crate::error::LangError;
use crate::token::Span;
use logrel_core::{
    Architecture, CommunicatorDecl, CoreError, FailureModel, Implementation, Reliability,
    Specification, TaskDecl, Value, ValueType,
};
use std::collections::{BTreeMap, BTreeSet};

/// The result of elaborating a program: the three core-model components.
#[derive(Debug, Clone)]
pub struct ElaboratedSystem {
    /// The program's name.
    pub name: String,
    /// The flattened specification (start modes only).
    pub spec: Specification,
    /// The declared architecture.
    pub arch: Architecture,
    /// The declared replication mapping and sensor bindings.
    pub imp: Implementation,
}

/// One elaborated mode of a single-module program.
#[derive(Debug, Clone)]
pub struct ElaboratedMode {
    /// The mode's name.
    pub name: String,
    /// The mode's flattened specification.
    pub spec: Specification,
    /// The mode's replication mapping.
    pub imp: Implementation,
}

/// All modes of a single-module program, with its switch table — the input
/// of modal E-code generation.
#[derive(Debug, Clone)]
pub struct ElaboratedModes {
    /// The program's name.
    pub name: String,
    /// The shared architecture.
    pub arch: Architecture,
    /// One entry per mode, in declaration order.
    pub modes: Vec<ElaboratedMode>,
    /// Switches: (source mode index, event name, target mode index).
    pub switches: Vec<(usize, String, usize)>,
    /// Index of the start mode.
    pub start: usize,
}

/// Elaborates *every* mode of a program's single module, for modal
/// execution. The program must declare exactly one module; each mode is
/// elaborated as if it were the start mode (so each gets its own
/// specification and mapping over the shared communicators and
/// architecture).
///
/// # Errors
///
/// [`LangError::Resolve`] if the program does not have exactly one module,
/// plus any error of [`elaborate`] for the per-mode systems.
pub fn elaborate_modes(program: &Program) -> Result<ElaboratedModes, LangError> {
    let [module] = program.modules.as_slice() else {
        let span = program
            .modules
            .first()
            .map(|m| m.span)
            .unwrap_or_default();
        return Err(resolve_err(
            format!(
                "modal elaboration requires exactly one module, found {}",
                program.modules.len()
            ),
            span,
        ));
    };
    let mut modes = Vec::with_capacity(module.modes.len());
    let mut start = 0usize;
    for (k, mode) in module.modes.iter().enumerate() {
        if mode.start {
            start = k;
        }
        // Re-elaborate with this mode forced as the start mode.
        let mut variant = program.clone();
        for m in &mut variant.modules[0].modes {
            m.start = false;
        }
        variant.modules[0].modes[k].start = true;
        let sys = elaborate(&variant)?;
        modes.push(ElaboratedMode {
            name: mode.name.clone(),
            spec: sys.spec,
            imp: sys.imp,
        });
    }
    let mut switches = Vec::new();
    for (k, mode) in module.modes.iter().enumerate() {
        for sw in &mode.switches {
            let target = module
                .modes
                .iter()
                .position(|m| m.name == sw.target)
                .ok_or_else(|| {
                    resolve_err(
                        format!(
                            "switch target `{}` is not a mode of module `{}`",
                            sw.target, module.name
                        ),
                        sw.span,
                    )
                })?;
            switches.push((k, sw.event.clone(), target));
        }
    }
    // The shared architecture comes from the start mode's elaboration; all
    // variants declare the same hosts/sensors.
    let arch = elaborate(program)?.arch;
    Ok(ElaboratedModes {
        name: program.name.clone(),
        arch,
        modes,
        switches,
        start,
    })
}

fn resolve_err(message: impl Into<String>, span: Span) -> LangError {
    LangError::Resolve {
        message: message.into(),
        span,
    }
}

fn type_of(ty: TypeName) -> ValueType {
    match ty {
        TypeName::Float => ValueType::Float,
        TypeName::Int => ValueType::Int,
        TypeName::Bool => ValueType::Bool,
    }
}

fn model_of(m: ModelName) -> FailureModel {
    match m {
        ModelName::Series => FailureModel::Series,
        ModelName::Parallel => FailureModel::Parallel,
        ModelName::Independent => FailureModel::Independent,
    }
}

/// Converts a literal to a [`Value`], coercing integer literals to floats
/// where the target type requires it.
fn literal_to_value(lit: Literal, ty: ValueType, span: Span) -> Result<Value, LangError> {
    let v = match (lit, ty) {
        (Literal::Int(i), ValueType::Int) => Value::Int(i),
        (Literal::Int(i), ValueType::Float) => Value::Float(i as f64),
        (Literal::Float(x), ValueType::Float) => Value::Float(x),
        (Literal::Bool(b), ValueType::Bool) => Value::Bool(b),
        _ => {
            return Err(resolve_err(
                format!("literal {lit:?} does not fit type {ty}"),
                span,
            ))
        }
    };
    Ok(v)
}

/// A resolved refinement declaration: indices into
/// [`ElaboratedFile::systems`] plus the (possibly empty) explicit task
/// pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedRefinement {
    /// Index of the refining system.
    pub refining: usize,
    /// Index of the refined system.
    pub refined: usize,
    /// Explicit task pairs (refining name, refined name); empty = by name.
    pub pairs: Vec<(String, String)>,
}

/// An elaborated multi-program source file.
#[derive(Debug, Clone)]
pub struct ElaboratedFile {
    /// The elaborated systems, in declaration order.
    pub systems: Vec<ElaboratedSystem>,
    /// The resolved refinement declarations.
    pub refinements: Vec<ResolvedRefinement>,
}

/// Elaborates every program of a source file and resolves its refinement
/// declarations (name resolution only — the semantic refinement check
/// lives in `logrel-refine`).
///
/// # Errors
///
/// Any elaboration error of the contained programs, plus
/// [`LangError::Resolve`] for duplicate program names, unknown program
/// references or unknown task names in explicit κ pairs.
pub fn elaborate_file(file: &crate::ast::SourceFile) -> Result<ElaboratedFile, LangError> {
    let mut names: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, p) in file.programs.iter().enumerate() {
        if names.insert(&p.name, i).is_some() {
            return Err(resolve_err(
                format!("duplicate program name `{}`", p.name),
                Span::default(),
            ));
        }
    }
    let systems = file
        .programs
        .iter()
        .map(elaborate)
        .collect::<Result<Vec<_>, _>>()?;
    let mut refinements = Vec::with_capacity(file.refinements.len());
    for decl in &file.refinements {
        let &refining = names.get(decl.refining.as_str()).ok_or_else(|| {
            resolve_err(format!("unknown program `{}`", decl.refining), decl.span)
        })?;
        let &refined = names.get(decl.refined.as_str()).ok_or_else(|| {
            resolve_err(format!("unknown program `{}`", decl.refined), decl.span)
        })?;
        for (from, to) in &decl.map {
            if systems[refining].spec.find_task(from).is_none() {
                return Err(resolve_err(
                    format!("unknown task `{from}` in program `{}`", decl.refining),
                    decl.span,
                ));
            }
            if systems[refined].spec.find_task(to).is_none() {
                return Err(resolve_err(
                    format!("unknown task `{to}` in program `{}`", decl.refined),
                    decl.span,
                ));
            }
        }
        refinements.push(ResolvedRefinement {
            refining,
            refined,
            pairs: decl.map.clone(),
        });
    }
    Ok(ElaboratedFile {
        systems,
        refinements,
    })
}

/// Where a [`LangError::Core`] of [`elaborate`] sits in the source: the
/// invocation of the task the error names ([`CoreError::task`]) in its
/// module's start mode, the invocation that task was flattened from.
/// `None` when the error names no task.
pub fn core_error_span(program: &Program, err: &CoreError) -> Option<Span> {
    let task = err.task()?;
    program
        .modules
        .iter()
        .filter_map(|m| m.modes.iter().find(|m| m.start).or_else(|| m.modes.first()))
        .flat_map(|mode| &mode.invocations)
        .find(|inv| inv.task == task)
        .map(|inv| inv.span)
}

/// Elaborates a parsed program into the core model.
///
/// # Errors
///
/// * [`LangError::Resolve`] for unknown names, duplicate declarations,
///   empty modules, invalid mode switches, invocations exceeding the mode
///   period or reliability-incompatible modes;
/// * [`LangError::Core`] for core-model validation failures (race
///   conditions, missing metrics, …).
pub fn elaborate(program: &Program) -> Result<ElaboratedSystem, LangError> {
    // --- Communicators -------------------------------------------------
    let mut spec_builder = Specification::builder();
    let mut comm_ids = BTreeMap::new();
    for c in &program.communicators {
        let mut decl = CommunicatorDecl::new(c.name.clone(), type_of(c.ty), c.period)?;
        if let Some(init) = c.init {
            decl = decl.with_init(literal_to_value(init, type_of(c.ty), c.span)?)?;
        }
        if let Some(lrc) = c.lrc {
            decl = decl.with_lrc(Reliability::new(lrc)?);
        }
        if c.sensor {
            decl = decl.from_sensor();
        }
        let id = spec_builder.communicator(decl)?;
        comm_ids.insert(c.name.clone(), id);
    }

    // --- Modules: checks + flattening ----------------------------------
    let mut known_tasks: BTreeSet<&str> = BTreeSet::new();
    let mut flattened_tasks: BTreeMap<String, logrel_core::TaskId> = BTreeMap::new();
    for module in &program.modules {
        if module.modes.is_empty() {
            return Err(resolve_err(
                format!("module `{}` has no modes", module.name),
                module.span,
            ));
        }
        let mode_names: BTreeSet<&str> =
            module.modes.iter().map(|m| m.name.as_str()).collect();
        if mode_names.len() != module.modes.len() {
            return Err(resolve_err(
                format!("module `{}` has duplicate mode names", module.name),
                module.span,
            ));
        }
        let start_count = module.modes.iter().filter(|m| m.start).count();
        if start_count > 1 {
            return Err(resolve_err(
                format!("module `{}` has more than one start mode", module.name),
                module.span,
            ));
        }

        // Per-mode checks: known communicators, accesses within the mode
        // period, valid switch targets.
        let mut written_sets: Vec<(String, BTreeSet<&str>)> = Vec::new();
        for mode in &module.modes {
            let mut written = BTreeSet::new();
            for inv in &mode.invocations {
                known_tasks.insert(&inv.task);
                for a in inv.reads.iter().chain(&inv.writes) {
                    let Some(&cid) = comm_ids.get(&a.comm) else {
                        return Err(resolve_err(
                            format!("unknown communicator `{}`", a.comm),
                            a.span,
                        ));
                    };
                    let period = program.communicators[cid.index()].period;
                    let instant = period.saturating_mul(a.instance);
                    if instant > mode.period {
                        return Err(resolve_err(
                            format!(
                                "access `{}[{}]` at instant {instant} exceeds mode \
                                 period {}",
                                a.comm, a.instance, mode.period
                            ),
                            a.span,
                        ));
                    }
                }
                for a in &inv.writes {
                    written.insert(a.comm.as_str());
                }
            }
            for sw in &mode.switches {
                if !mode_names.contains(sw.target.as_str()) {
                    return Err(resolve_err(
                        format!(
                            "switch target `{}` is not a mode of module `{}`",
                            sw.target, module.name
                        ),
                        sw.span,
                    ));
                }
            }
            written_sets.push((mode.name.clone(), written));
        }

        // §4 mode-switch reliability compatibility: all modes must write
        // the same communicator set (hence identical LRCs).
        if let Some((first_name, first_set)) = written_sets.first() {
            for (name, set) in &written_sets[1..] {
                if set != first_set {
                    return Err(resolve_err(
                        format!(
                            "modes `{first_name}` and `{name}` of module `{}` write \
                             different communicators; mode switches require identical \
                             reliability constraints",
                            module.name
                        ),
                        module.span,
                    ));
                }
            }
        }

        // Flatten the start mode.
        let start_mode = module
            .modes
            .iter()
            .find(|m| m.start)
            .unwrap_or(&module.modes[0]);
        // Accesses were resolved in the per-mode check loop above, but a
        // lookup failure must stay a diagnostic, never a panic.
        let resolved = |a: &Access| {
            comm_ids.get(&a.comm).copied().ok_or_else(|| {
                resolve_err(format!("unknown communicator `{}`", a.comm), a.span)
            })
        };
        for inv in &start_mode.invocations {
            let mut td = TaskDecl::new(inv.task.clone()).model(model_of(inv.model));
            for a in &inv.reads {
                td = td.reads(resolved(a)?, a.instance);
            }
            for a in &inv.writes {
                td = td.writes(resolved(a)?, a.instance);
            }
            for (k, &lit) in inv.defaults.iter().enumerate() {
                let Some(access) = inv.reads.get(k) else {
                    return Err(resolve_err(
                        format!("more defaults than inputs for task `{}`", inv.task),
                        inv.span,
                    ));
                };
                let cid = resolved(access)?;
                let ty = type_of(program.communicators[cid.index()].ty);
                td = td.default_value(literal_to_value(lit, ty, inv.span)?);
            }
            let id = spec_builder.task(td)?;
            flattened_tasks.insert(inv.task.clone(), id);
        }
    }
    let spec = spec_builder.build()?;

    // --- Architecture ---------------------------------------------------
    let mut arch_builder = Architecture::builder();
    let mut host_ids = BTreeMap::new();
    let mut sensor_ids = BTreeMap::new();
    // Hosts and sensors first, metrics second (declaration order within
    // each group is preserved).
    for item in &program.arch {
        match item {
            ArchItem::Host {
                name,
                reliability,
                ..
            } => {
                let id = arch_builder
                    .host(logrel_core::HostDecl::new(name.clone(), Reliability::new(*reliability)?))?;
                host_ids.insert(name.clone(), id);
            }
            ArchItem::Sensor {
                name,
                reliability,
                ..
            } => {
                let id = arch_builder.sensor(logrel_core::SensorDecl::new(
                    name.clone(),
                    Reliability::new(*reliability)?,
                ))?;
                sensor_ids.insert(name.clone(), id);
            }
            ArchItem::Broadcast { reliability, .. } => {
                arch_builder.broadcast_reliability(Reliability::new(*reliability)?);
            }
            ArchItem::Wcet { .. } | ArchItem::Wctt { .. } => {}
        }
    }
    for item in &program.arch {
        let (task, host, ticks, span, is_wcet) = match item {
            ArchItem::Wcet {
                task,
                host,
                ticks,
                span,
            } => (task, host, *ticks, *span, true),
            ArchItem::Wctt {
                task,
                host,
                ticks,
                span,
            } => (task, host, *ticks, *span, false),
            _ => continue,
        };
        if !known_tasks.contains(task.as_str()) {
            return Err(resolve_err(format!("unknown task `{task}`"), span));
        }
        let Some(&hid) = host_ids.get(host) else {
            return Err(resolve_err(format!("unknown host `{host}`"), span));
        };
        // Metrics for tasks outside the flattened (start) modes are
        // accepted and ignored.
        if let Some(&tid) = flattened_tasks.get(task) {
            if is_wcet {
                arch_builder.wcet(tid, hid, ticks)?;
            } else {
                arch_builder.wctt(tid, hid, ticks)?;
            }
        }
    }
    let arch = arch_builder.build();

    // --- Mapping ---------------------------------------------------------
    let mut imp_builder = Implementation::builder();
    for item in &program.map {
        match item {
            MapItem::Assign { task, hosts, span } => {
                if !known_tasks.contains(task.as_str()) {
                    return Err(resolve_err(format!("unknown task `{task}`"), *span));
                }
                let Some(&tid) = flattened_tasks.get(task) else {
                    continue; // non-start-mode task
                };
                for h in hosts {
                    let Some(&hid) = host_ids.get(h) else {
                        return Err(resolve_err(format!("unknown host `{h}`"), *span));
                    };
                    imp_builder = imp_builder.assign(tid, [hid]);
                }
            }
            MapItem::Bind {
                comm,
                sensors,
                span,
            } => {
                let Some(&cid) = comm_ids.get(comm) else {
                    return Err(resolve_err(
                        format!("unknown communicator `{comm}`"),
                        *span,
                    ));
                };
                for s in sensors {
                    let Some(&sid) = sensor_ids.get(s) else {
                        return Err(resolve_err(format!("unknown sensor `{s}`"), *span));
                    };
                    imp_builder = imp_builder.bind_sensor(cid, sid);
                }
            }
        }
    }
    let imp = imp_builder.build(&spec, &arch)?;

    Ok(ElaboratedSystem {
        name: program.name.clone(),
        spec,
        arch,
        imp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const OK: &str = r#"
program demo {
    communicator s : float period 500 init 1.5 lrc 0.99 sensor;
    communicator l : float period 100;
    communicator u : float period 100 lrc 0.9;
    module control {
        start mode normal period 500 {
            invoke reader model parallel reads s[0] writes l[1] defaults 0.0;
            invoke ctrl reads l[1] writes u[3];
            switch overload -> degraded;
        }
        mode degraded period 500 {
            invoke reader2 model parallel reads s[0] writes l[1] defaults 0.0;
            invoke ctrl2 reads l[1] writes u[3];
        }
    }
    architecture {
        host h1 reliability 0.999;
        host h2 reliability 0.999;
        sensor sn reliability 0.999;
        wcet reader on h1 5;
        wcet reader on h2 5;
        wcet ctrl on h1 10;
        wctt reader on h1 2;
        wctt reader on h2 2;
        wctt ctrl on h1 2;
        wcet reader2 on h1 5;
        wctt reader2 on h1 2;
    }
    map {
        reader -> h1, h2;
        ctrl -> h1;
        reader2 -> h1;
        bind s -> sn;
    }
}
"#;

    fn compile(src: &str) -> Result<ElaboratedSystem, LangError> {
        elaborate(&parse(src).unwrap())
    }

    #[test]
    fn elaborates_the_demo() {
        let sys = compile(OK).unwrap();
        assert_eq!(sys.name, "demo");
        assert_eq!(sys.spec.task_count(), 2);
        assert_eq!(sys.spec.communicator_count(), 3);
        let reader = sys.spec.find_task("reader").unwrap();
        assert_eq!(sys.imp.hosts_of(reader).len(), 2);
        let s = sys.spec.find_communicator("s").unwrap();
        assert!(sys.spec.is_sensor_input(s));
        assert_eq!(sys.spec.communicator(s).init(), Value::Float(1.5));
        assert_eq!(
            sys.spec.communicator(s).lrc().unwrap(),
            Reliability::new(0.99).unwrap()
        );
        assert_eq!(sys.arch.host_count(), 2);
        let ctrl = sys.spec.find_task("ctrl").unwrap();
        assert_eq!(
            sys.spec.task(ctrl).failure_model(),
            FailureModel::Series
        );
        // Non-start-mode tasks are not flattened.
        assert!(sys.spec.find_task("reader2").is_none());
    }

    #[test]
    fn unknown_communicator_in_access() {
        let src = OK.replace("reads s[0]", "reads bogus[0]");
        let err = compile(&src).unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn unknown_host_in_mapping() {
        let src = OK.replace("ctrl -> h1;", "ctrl -> h9;");
        let err = compile(&src).unwrap_err();
        assert!(err.to_string().contains("h9"));
    }

    #[test]
    fn unknown_task_in_wcet() {
        let src = OK.replace("wcet ctrl on h1 10;", "wcet ghost on h1 10;");
        let err = compile(&src).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn unknown_sensor_in_bind() {
        let src = OK.replace("bind s -> sn;", "bind s -> nos;");
        let err = compile(&src).unwrap_err();
        assert!(err.to_string().contains("nos"));
    }

    #[test]
    fn switch_target_must_exist() {
        let src = OK.replace("switch overload -> degraded;", "switch overload -> nowhere;");
        let err = compile(&src).unwrap_err();
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    fn modes_must_write_identical_communicator_sets() {
        // Remove ctrl2's write of u from the degraded mode.
        let src = OK.replace(
            "invoke ctrl2 reads l[1] writes u[3];",
            "invoke ctrl2 reads l[1] writes l[2];",
        );
        let err = compile(&src).unwrap_err();
        assert!(err.to_string().contains("identical reliability"));
    }

    #[test]
    fn access_beyond_mode_period_rejected() {
        let src = OK.replace("writes u[3]", "writes u[6]"); // 600 > 500
        let err = compile(&src).unwrap_err();
        assert!(err.to_string().contains("exceeds mode period"));
    }

    #[test]
    fn duplicate_start_modes_rejected() {
        let src = OK.replace("mode degraded", "start mode degraded");
        let err = compile(&src).unwrap_err();
        assert!(err.to_string().contains("more than one start mode"));
    }

    #[test]
    fn empty_module_rejected() {
        let err = compile("program p { module m { } }").unwrap_err();
        assert!(err.to_string().contains("no modes"));
    }

    #[test]
    fn bad_lrc_value_is_a_core_error() {
        let src = OK.replace("lrc 0.99", "lrc 1.5");
        let program = parse(&src).unwrap();
        let Err(LangError::Core(err)) = elaborate(&program) else {
            panic!("expected a core error");
        };
        // The error names no task, so it has no invocation to sit at.
        assert_eq!(core_error_span(&program, &err), None);
    }

    #[test]
    fn core_error_sits_at_the_start_mode_invocation() {
        // Only the start mode's `reader` loses its default; the degraded
        // mode's `reader2` keeps its own.
        let src = OK.replacen("writes l[1] defaults 0.0", "writes l[1]", 1);
        let program = parse(&src).unwrap();
        let Err(LangError::Core(err)) = elaborate(&program) else {
            panic!("expected a core error");
        };
        assert!(matches!(err, CoreError::DefaultMismatch { .. }));
        let reader = &program.modules[0].modes[0].invocations[0];
        assert_eq!(reader.task, "reader");
        assert_eq!(core_error_span(&program, &err), Some(reader.span));
    }

    #[test]
    fn int_literal_coerces_to_float_default() {
        let src = OK.replace("defaults 0.0", "defaults 0");
        let sys = compile(&src).unwrap();
        let reader = sys.spec.find_task("reader").unwrap();
        assert_eq!(sys.spec.task(reader).default_values(), &[Value::Float(0.0)]);
    }

    #[test]
    fn bool_literal_for_float_comm_rejected() {
        let src = OK.replace("defaults 0.0", "defaults true");
        let err = compile(&src).unwrap_err();
        assert!(err.to_string().contains("does not fit"));
    }

    /// A two-mode program with complete metrics and mappings for both.
    const MODAL: &str = r#"
program modal {
    communicator s : float period 10 sensor;
    communicator u : float period 10 lrc 0.9;
    module m {
        start mode normal period 10 {
            invoke fast reads s[0] writes u[1];
            switch overload -> degraded;
        }
        mode degraded period 10 {
            invoke slow reads s[0] writes u[1];
            switch recovered -> normal;
        }
    }
    architecture {
        host h1 reliability 0.999;
        sensor sn reliability 0.999;
        wcet fast on h1 2;
        wctt fast on h1 1;
        wcet slow on h1 4;
        wctt slow on h1 1;
    }
    map {
        fast -> h1;
        slow -> h1;
        bind s -> sn;
    }
}
"#;

    #[test]
    fn elaborate_modes_produces_one_system_per_mode() {
        let prog = parse(MODAL).unwrap();
        let modal = elaborate_modes(&prog).unwrap();
        assert_eq!(modal.name, "modal");
        assert_eq!(modal.modes.len(), 2);
        assert_eq!(modal.start, 0);
        assert_eq!(modal.modes[0].name, "normal");
        assert!(modal.modes[0].spec.find_task("fast").is_some());
        assert!(modal.modes[0].spec.find_task("slow").is_none());
        assert!(modal.modes[1].spec.find_task("slow").is_some());
        // Both modes share the round period and write the same set.
        assert_eq!(
            modal.modes[0].spec.round_period(),
            modal.modes[1].spec.round_period()
        );
        assert_eq!(
            modal.switches,
            vec![
                (0, "overload".to_owned(), 1),
                (1, "recovered".to_owned(), 0)
            ]
        );
        assert_eq!(modal.arch.host_count(), 1);
    }

    #[test]
    fn elaborate_modes_requires_one_module() {
        let two_modules = MODAL.replace(
            "module m {",
            "module extra { start mode e period 10 { invoke fast reads s[0] writes u[1]; } }\n    module m {",
        );
        // The duplicated write to u across modules fails spec validation
        // first; use a structurally clean variant instead.
        let _ = two_modules;
        let err = elaborate_modes(&parse("program p { module a { mode x period 5 { } } module b { mode y period 5 { } } }").unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("exactly one module"));
        let err2 = elaborate_modes(&parse("program p { }").unwrap()).unwrap_err();
        assert!(err2.to_string().contains("exactly one module"));
    }

    #[test]
    fn first_mode_is_start_by_default() {
        let src = OK.replace("start mode normal", "mode normal");
        let sys = compile(&src).unwrap();
        assert!(sys.spec.find_task("reader").is_some());
        assert!(sys.spec.find_task("reader2").is_none());
    }
}
