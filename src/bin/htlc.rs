//! `htlc` — the logrel command-line compiler and analysis driver.
//!
//! Run `htlc help` for the usage text: every command with its flags.
//!
//! Exit codes: `0` clean (warnings may have been printed), `1` usage or
//! I/O error, `2` diagnostics of error severity emitted (`--deny`
//! promotes warnings). Every failing finding — lints (`L`), E-code
//! verification (`E`), translation validation (`V`), refinement
//! violations (`R001`–`R009`, spanned against the refining source) and
//! analysis verdicts (`A001` invalid system, `A003` failed round-program
//! self-certification, `A004` degenerate campaign parameters) — goes to
//! stderr through the one shared renderer
//! in the stable greppable form `code:severity:file:line:col: message`.

use logrel::lang::{elaborate_file, parse, parse_file, print_program};
use logrel::lint::{self, refine_error_diagnostics, Diagnostic, Severity};
use logrel::obs::MetricsSink as _;
use logrel::query::Report;
use logrel::refine::{check_refinement, validate, Kappa, SystemRef};
use logrel::reliability::architecture_importance;
use logrel::serve::pipeline::{self, CompiledSpec, Plan, Symbols};
use std::process::ExitCode;

/// A failed run: usage/I-O trouble (exit 1) or emitted diagnostics
/// (exit 2). Diagnostics are printed where they occur; `Diagnostics`
/// only carries the count for the closing summary line.
enum Failure {
    Usage(String),
    Io(String),
    Diagnostics(usize),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Usage(msg.to_owned())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) | Err(Failure::Io(msg)) => {
            eprintln!("htlc: {msg}");
            ExitCode::from(1)
        }
        Err(Failure::Diagnostics(n)) => {
            eprintln!("htlc: {n} error(s) emitted");
            ExitCode::from(2)
        }
    }
}

fn read(path: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| Failure::Io(format!("cannot read `{path}`: {e}")))
}

/// Prints front-end diagnostics (see [`lint::front_end`]) in the stable
/// diagnostic format and returns the exit-2 failure.
fn front_end_failure(file: &str, diags: &[Diagnostic]) -> Failure {
    for d in diags {
        eprintln!("{}", d.render(file));
    }
    Failure::Diagnostics(diags.len())
}

/// [`front_end_failure`] for a front-end error met outside
/// [`lint::front_end`]: a parse error, or an error of a multi-program
/// file, where no single program locates a core-model error.
fn lang_failure(file: &str, err: &logrel::lang::LangError) -> Failure {
    front_end_failure(file, &[Diagnostic::from_lang_error(err)])
}

/// Compiles `path`, reporting failures as diagnostics.
fn compile_path(path: &str) -> Result<logrel::lang::ElaboratedSystem, Failure> {
    lint::front_end(&read(path)?)
        .map(|(_, sys)| sys)
        .map_err(|diags| front_end_failure(path, &diags))
}

/// The report of a run that stopped at front-end diagnostics.
fn front_end_report(path: &str, diags: &[Diagnostic]) -> Report {
    let mut stderr = String::new();
    for d in diags {
        stderr.push_str(&format!("{}\n", d.render(path)));
    }
    Report { errors: diags.len(), stdout: String::new(), stderr }
}

/// Prints a failed analysis verdict through the shared diagnostic
/// renderer (A-series codes: `A001` invalid system, `A003` failed
/// round-program self-certification, `A004` degenerate campaign
/// parameters such as zero replications or a bad lane width; refinement
/// violations use the spanned R-series via [`refine_error_diagnostics`]
/// instead) and returns the exit-2 failure.
fn analysis_failure(file: &str, code: &'static str, message: String) -> Failure {
    eprintln!(
        "{}",
        Diagnostic::new(code, Severity::Error, Default::default(), message).render(file)
    );
    Failure::Diagnostics(1)
}

/// Flight-recorder ring capacity used by `inject --metrics` and `trace`:
/// enough context to see the rounds leading up to a violation without
/// unbounded growth.
const FLIGHT_RING: usize = 256;

/// Removes a boolean `--flag` from `args`, returning whether it was
/// present.
fn take_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Loads a `.logrel-cache` database, failing **closed**: a corrupt,
/// truncated or version-mismatched file yields a warning plus a cold
/// analysis (counted as `logrel_query_cache_fallback_total`), never a
/// panic or stale results. Only a genuinely missing file is silent.
fn load_cache(
    sink: &mut dyn logrel::obs::MetricsSink,
    path: &str,
) -> Option<logrel::query::QueryDb> {
    match logrel::query::load(path) {
        logrel::query::LoadOutcome::Loaded(db) => Some(*db),
        logrel::query::LoadOutcome::Missing => None,
        logrel::query::LoadOutcome::Invalid(reason) => {
            eprintln!("htlc: warning: ignoring cache `{path}`: {reason}");
            sink.add(logrel::obs::names::QUERY_CACHE_FALLBACK, 1);
            None
        }
    }
}

/// Persists the refreshed database; cache-write trouble degrades to a
/// warning — the analysis already succeeded and its output stands.
fn save_cache(path: &str, db: &logrel::query::QueryDb) {
    if let Err(e) = logrel::query::save(db, path) {
        eprintln!("htlc: warning: cannot write cache `{path}`: {e}");
    }
}

/// Replays `report` exactly as the non-incremental arm would have
/// printed it and converts its error count into the exit status.
fn emit_report(report: &Report) -> Result<(), Failure> {
    print!("{}", report.stdout);
    eprint!("{}", report.stderr);
    if report.errors > 0 {
        Err(Failure::Diagnostics(report.errors))
    } else {
        Ok(())
    }
}

/// Runs a whole-command report query through the incremental cache:
/// loads the spec's `.logrel-cache` (fail-closed), replays a green
/// report verbatim, otherwise computes cold and persists the refreshed
/// database.
fn run_cached(path: &str, source: &str, query: &str, compute: impl FnOnce() -> Report) -> Report {
    let cache_path = logrel::query::default_cache_path(path);
    let mut registry = logrel::obs::Registry::new();
    let prior = load_cache(&mut registry, &cache_path);
    let (report, db, _hit) =
        logrel::query::cached_report(source, query, prior.as_ref(), &mut registry, compute);
    if let Some(db) = db {
        save_cache(&cache_path, &db);
    }
    report
}

/// The `check` pipeline as a replayable report: byte-for-byte the
/// stdout/stderr of the original arm.
fn check_report(path: &str, source: &str) -> Report {
    let (program, sys) = match lint::front_end(source) {
        Ok(front) => front,
        Err(diags) => return front_end_report(path, &diags),
    };
    let mut out = String::new();
    let mut err = String::new();
    out.push_str(&format!(
        "program `{}`: {} communicators, {} tasks, round {}\n",
        sys.name,
        sys.spec.communicator_count(),
        sys.spec.task_count(),
        sys.spec.round_period()
    ));
    // Statically verify the generated E-code of every host before
    // trusting it to the analysis and the runtime.
    let ecode_diags = lint::verify_generated(&program, &sys);
    if !ecode_diags.is_empty() {
        for d in &ecode_diags {
            err.push_str(&format!("{}\n", d.render(path)));
        }
        return Report { errors: ecode_diags.len(), stdout: out, stderr: err };
    }
    out.push_str(&format!(
        "E-code: statically verified for all {} host(s)\n",
        sys.arch.host_count()
    ));
    match validate(SystemRef::new(&sys.spec, &sys.arch, &sys.imp)) {
        Ok(cert) => {
            out.push_str("VALID: schedulable and reliable\n\n");
            out.push_str(&format!("{}\n", cert.verdict.static_report().render(&sys.spec)));
            out.push_str(&format!(
                "{}\n",
                cert.schedule.gantt(
                    |t| sys.spec.task(t).name().to_owned(),
                    |h| sys.arch.host(h).name().to_owned(),
                )
            ));
            Report { errors: 0, stdout: out, stderr: err }
        }
        Err(e) => {
            err.push_str(&format!(
                "{}\n",
                Diagnostic::new("A001", Severity::Error, Default::default(), format!("INVALID: {e}"))
                    .render(path)
            ));
            Report { errors: 1, stdout: out, stderr: err }
        }
    }
}

/// The `verify` pipeline as a replayable report.
fn verify_report(path: &str, source: &str) -> Report {
    let sys = match lint::front_end(source) {
        Ok((_, sys)) => sys,
        Err(diags) => return front_end_report(path, &diags),
    };
    let mut out = String::new();
    let mut err = String::new();
    let td = logrel::core::TimeDependentImplementation::from(sys.imp.clone());
    match logrel::validate::certify_system(&sys.spec, &sys.arch, &td) {
        Ok(cert) => {
            out.push_str(&format!("{cert}\n"));
            out.push_str(&format!(
                "VERIFIED: `{}` — compiled artifacts ({}) are isomorphic to the \
                 specification's round denotation\n",
                sys.name,
                cert.artifacts.join(", ")
            ));
            Report { errors: 0, stdout: out, stderr: err }
        }
        Err(diags) => {
            for d in &diags {
                err.push_str(&format!("{}\n", d.render(path)));
            }
            Report { errors: diags.len(), stdout: out, stderr: err }
        }
    }
}

/// The per-file `lint` pipeline as a replayable report. `deny` and
/// `json` are part of the query name, so variants never share entries.
/// JSON mode routes the `logrel-diagnostics-v1` document to stdout and
/// keeps stderr empty — machine consumers read one stream.
fn lint_report(path: &str, source: &str, deny: bool, json: bool) -> Report {
    let mut diags = lint::lint_source(source);
    if deny {
        lint::deny_warnings(&mut diags);
    }
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    if json {
        let stdout = lint::diagnostics_json(path, &diags);
        return Report { errors, stdout, stderr: String::new() };
    }
    let mut err = String::new();
    for d in &diags {
        err.push_str(&format!("{}\n", d.render(path)));
    }
    Report { errors, stdout: String::new(), stderr: err }
}

/// Certification counters carried out of [`certify_report`] for the
/// `--metrics` export. `None` when the analysis never ran (front-end
/// failure) — or when an incremental run replayed a cached report.
#[derive(Clone, Copy)]
struct CertCounts {
    certified: u64,
    refuted: u64,
    indeterminate: u64,
    min_slack: Option<f64>,
}

/// The `certify` pipeline as a replayable report: interval SRG
/// certification with symbolic sensitivity analysis. Text mode renders
/// the certificate on stdout and the spanned C-series diagnostics on
/// stderr; JSON mode emits the `logrel-certificate-v1` document
/// (diagnostics embedded) on stdout with stderr empty. Front-end and
/// analysis failures in JSON mode degrade to the `logrel-diagnostics-v1`
/// document, so consumers always receive well-formed JSON on stdout.
fn certify_report(
    path: &str,
    source: &str,
    deny: bool,
    json: bool,
    box_delta: Option<f64>,
) -> (Report, Option<CertCounts>) {
    let fail = |diags: Vec<Diagnostic>| -> Report {
        let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
        if json {
            let stdout = lint::diagnostics_json(path, &diags);
            Report { errors, stdout, stderr: String::new() }
        } else {
            let mut err = String::new();
            for d in &diags {
                err.push_str(&format!("{}\n", d.render(path)));
            }
            Report { errors, stdout: String::new(), stderr: err }
        }
    };
    let (program, sys) = match lint::front_end(source) {
        Ok(front) => front,
        Err(diags) => return (fail(diags), None),
    };
    match logrel::reliability::certify(&sys.spec, &sys.arch, &sys.imp, box_delta) {
        Ok(cert) => {
            let mut diags = lint::certify_diagnostics(&program, &cert);
            if deny {
                lint::deny_warnings(&mut diags);
            }
            let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
            let counts = CertCounts {
                certified: cert.count(logrel::reliability::CertStatus::Certified) as u64,
                refuted: cert.count(logrel::reliability::CertStatus::Refuted) as u64,
                indeterminate: cert.count(logrel::reliability::CertStatus::Indeterminate)
                    as u64,
                min_slack: cert.min_slack(),
            };
            let report = if json {
                let stdout = lint::certificate_json(path, &sys.name, &cert, &diags);
                Report { errors, stdout, stderr: String::new() }
            } else {
                let mut err = String::new();
                for d in &diags {
                    err.push_str(&format!("{}\n", d.render(path)));
                }
                Report {
                    errors,
                    stdout: lint::render_certificate(&sys.name, &cert),
                    stderr: err,
                }
            };
            (report, Some(counts))
        }
        Err(e) => (fail(vec![lint::certify_error_diagnostic(&e)]), None),
    }
}

/// Removes `--flag VALUE` from `args`, returning the value if present.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, Failure> {
    match args.iter().position(|a| a == flag) {
        Some(i) if i + 1 < args.len() => {
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        Some(_) => Err(Failure::Usage(format!("{flag} requires a value"))),
        None => Ok(None),
    }
}

/// Removes `--format text|json` from `args`, returning whether JSON
/// output was selected.
fn take_json_format(args: &mut Vec<String>) -> Result<bool, Failure> {
    match take_flag_value(args, "--format")?.as_deref() {
        None | Some("text") => Ok(false),
        Some("json") => Ok(true),
        Some(other) => Err(Failure::Usage(format!(
            "--format wants `text` or `json`, got `{other}`"
        ))),
    }
}

/// Exports the registry: Prometheus text at `target` and the JSON
/// document at `target.json`, or both concatenated to stdout when
/// `target` is `-`.
fn write_metrics(target: &str, registry: &logrel::obs::Registry) -> Result<(), Failure> {
    let prom = logrel::obs::export::to_prometheus(registry);
    let json = logrel::obs::export::to_json(registry);
    if target == "-" {
        print!("{prom}{json}");
    } else {
        std::fs::write(target, prom)
            .map_err(|e| Failure::Io(format!("cannot write `{target}`: {e}")))?;
        let json_path = format!("{target}.json");
        std::fs::write(&json_path, json)
            .map_err(|e| Failure::Io(format!("cannot write `{json_path}`: {e}")))?;
    }
    Ok(())
}

/// Renders one flight-recorder event, resolving the raw round-program
/// indices the recorder stores back to specification names.
fn render_event(e: &logrel::obs::ObsEvent, sys: &logrel::lang::ElaboratedSystem) -> String {
    use logrel::obs::ObsEvent as E;
    let task = |t: usize| sys.spec.task(logrel::core::TaskId::new(t as u32)).name();
    let host = |h: usize| sys.arch.host(logrel::core::HostId::new(h as u32)).name();
    let comm = |c: usize| {
        sys.spec
            .communicator(logrel::core::CommunicatorId::new(c as u32))
            .name()
    };
    match e {
        E::Vote {
            at,
            task: t,
            outcome,
            delivered,
            replicas,
        } => format!(
            "[{at}] vote {} {} ({delivered}/{replicas} delivered)",
            task(*t),
            outcome.label()
        ),
        E::ReplicaDrop {
            at,
            task: t,
            host: h,
            reason,
        } => format!(
            "[{at}] replica-drop {}@{} ({})",
            task(*t),
            host(*h),
            reason.label()
        ),
        E::HostDown { at, host: h } => format!("[{at}] host-down {}", host(*h)),
        E::HostUp { at, host: h } => format!("[{at}] host-up {}", host(*h)),
        E::AlarmRaised {
            at,
            comm: c,
            mean,
            epsilon,
            lrc,
        } => format!(
            "[{at}] alarm-raised {} (mean {mean:.6}, eps {epsilon:.6}, lrc {lrc})",
            comm(*c)
        ),
        E::AlarmCleared { at, comm: c, mean } => {
            format!("[{at}] alarm-cleared {} (mean {mean:.6})", comm(*c))
        }
        E::DegraderEngaged { at, rule } => format!("[{at}] degrader-engaged rule #{rule}"),
        E::ModeSwitch { at, event } => format!("[{at}] mode-switch `{event}`"),
    }
}

/// Pretty-prints every retained flight-recorder dump with names resolved.
fn format_dumps(registry: &logrel::obs::Registry, sys: &logrel::lang::ElaboratedSystem) -> String {
    let Some(rec) = registry.recorder() else {
        return String::new();
    };
    let mut out = format!(
        "flight recorder: {} dump(s), {} event(s) evicted from the ring\n",
        rec.dumps().len(),
        rec.dropped()
    );
    for (i, dump) in rec.dumps().iter().enumerate() {
        let trigger = match &dump.trigger {
            logrel::obs::DumpTrigger::AlarmRaised { comm } => format!(
                "alarm-raised on `{}`",
                sys.spec
                    .communicator(logrel::core::CommunicatorId::new(*comm as u32))
                    .name()
            ),
            t => t.label().to_owned(),
        };
        out.push_str(&format!(
            "\ndump #{i}: {trigger} at {} ({} event(s))\n",
            dump.at,
            dump.events.len()
        ));
        for e in &dump.events {
            out.push_str(&format!("  {}\n", render_event(e, sys)));
        }
    }
    out
}

fn run(args: &[String]) -> Result<(), Failure> {
    let usage = "usage: htlc <check|verify|lint|certify|analyze|fmt|graph|ecode|importance|simulate|inject|trace|fuzz|serve|refine> <args>\n\
                 run `htlc help` for details";
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "help" | "--help" | "-h" => {
            println!(
                "htlc — logical-reliability compiler\n\n\
                 htlc check [--incremental] <file> joint analysis with SRG table\n\
                 htlc check-file <file>            multi-program file with declared refinements\n\
                 htlc verify [--incremental] <file> translation validation of compiled artifacts\n\
                 htlc lint [--deny] [--incremental] [--format json] <file>...\n\
                                                   specification lints + E-code verification;\n\
                                                   --format json emits the stable\n\
                                                   logrel-diagnostics-v1 document\n\
                 htlc certify [--deny] [--incremental] [--box D] [--format json] [--metrics PATH] <file>\n\
                                                   sound reliability certification: outward-\n\
                                                   rounded interval SRGs decide every LRC\n\
                                                   (CERTIFIED/REFUTED/INDETERMINATE), with\n\
                                                   symbolic Birnbaum bottlenecks and per-\n\
                                                   component degradation margins; --box D\n\
                                                   re-certifies over the reliability box\n\
                                                   [r-D, r]; --format json emits the stable\n\
                                                   logrel-certificate-v1 document\n\
                 htlc analyze <spec> [--against <db>] [--stats]\n\
                                                   incremental joint analysis: reuses green\n\
                                                   queries from <spec>.logrel-cache, tries\n\
                                                   refinement reuse (Prop 2) before\n\
                                                   recomputing the dirtied cone; output is\n\
                                                   byte-identical to a cold run\n\
                 htlc fmt <file>                   pretty-print\n\
                 htlc graph <file>                 specification graph (DOT)\n\
                 htlc ecode <file> <host>          E-code disassembly\n\
                 htlc latency <file>               worst-case data ages\n\
                 htlc importance <file> <comm>     component importance ranking\n\
                 htlc simulate <file> [rounds [seed]]  fault-injected run\n\
                 htlc inject [--metrics PATH] [--lanes N|off|auto] [--seed N] <file> <scenario> [rounds [seed [reps]]]\n\
                                                   scenario campaign; --metrics exports the\n\
                                                   aggregated registry (Prometheus text at\n\
                                                   PATH, JSON at PATH.json, `-` for stdout);\n\
                                                   --lanes packs up to N replications per\n\
                                                   u64 word (default auto = 64, `off` for\n\
                                                   one per word; results are identical);\n\
                                                   --seed overrides the positional seed\n\
                 htlc trace [--seed N] <file> <scenario> [rounds [seed]]  flight-recorder trace\n\
                 htlc fuzz <file> [--iters N] [--seed S] [--corpus DIR]\n\
                                                   coverage-guided scenario fuzzing: mutate\n\
                                                   fault timelines, keep novel coverage\n\
                                                   signatures, shrink monitor misses to\n\
                                                   minimal .scn reproducers (deterministic\n\
                                                   in --seed; --corpus writes artifacts)\n\
                 htlc serve [--stdin | --listen ADDR] [--workers N] [--queue N] [--cache PATH]\n\
                                                   long-running campaign job service: one\n\
                                                   logrel-job-v1 JSON request per line in,\n\
                                                   one logrel-metrics-v1 result line plus a\n\
                                                   logrel-job-status-v1 status line out;\n\
                                                   specs compile once per content hash and\n\
                                                   replications shard over a worker pool\n\
                                                   (results are byte-identical at any\n\
                                                   worker count); --stdin serves a pipe for\n\
                                                   CI, --listen a line-delimited TCP socket\n\
                                                   (SIGTERM drains in-flight jobs)\n\
                 htlc refine <refining> <refined>  refinement check\n\n\
                 exit codes: 0 clean, 1 usage/IO error, 2 diagnostics emitted\n\
                 diagnostics: code:severity:file:line:col: message (stderr)"
            );
            Ok(())
        }
        "lint" => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let deny = take_bool_flag(&mut rest, "--deny");
            let incremental = take_bool_flag(&mut rest, "--incremental");
            let json = take_json_format(&mut rest)?;
            if rest.is_empty() {
                return Err(usage.into());
            }
            let query = match (deny, json) {
                (false, false) => "lint_full",
                (true, false) => "lint_full_deny",
                (false, true) => "lint_json",
                (true, true) => "lint_json_deny",
            };
            let mut errors = 0usize;
            for path in &rest {
                let source = read(path)?;
                let report = if incremental {
                    run_cached(path, &source, query, || lint_report(path, &source, deny, json))
                } else {
                    lint_report(path, &source, deny, json)
                };
                print!("{}", report.stdout);
                eprint!("{}", report.stderr);
                errors += report.errors;
            }
            if errors > 0 {
                Err(Failure::Diagnostics(errors))
            } else {
                Ok(())
            }
        }
        "certify" => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let deny = take_bool_flag(&mut rest, "--deny");
            let incremental = take_bool_flag(&mut rest, "--incremental");
            let json = take_json_format(&mut rest)?;
            let metrics = take_flag_value(&mut rest, "--metrics")?;
            let box_delta: Option<f64> = take_flag_value(&mut rest, "--box")?
                .map(|s| {
                    s.parse::<f64>()
                        .ok()
                        .filter(|d| (0.0..1.0).contains(d))
                        .ok_or_else(|| format!("--box wants a delta in [0, 1), got `{s}`"))
                })
                .transpose()?;
            let path = rest.first().ok_or(usage)?;
            let source = read(path)?;
            // Every flag that changes the report participates in the query
            // name, so variants never share cache entries. The delta is
            // rendered through the f64 shortest round-trip `Display`, which
            // is injective over distinct values.
            let query = format!(
                "certify:deny={deny}:json={json}:box={}",
                box_delta.map_or_else(|| "-".to_owned(), |d| d.to_string())
            );
            let counts_cell = std::cell::Cell::new(None::<CertCounts>);
            let report = if incremental {
                run_cached(path, &source, &query, || {
                    let (report, counts) = certify_report(path, &source, deny, json, box_delta);
                    counts_cell.set(counts);
                    report
                })
            } else {
                let (report, counts) = certify_report(path, &source, deny, json, box_delta);
                counts_cell.set(counts);
                report
            };
            if let Some(target) = &metrics {
                // Counters reflect this process's own work: a warm
                // incremental replay certified nothing, so only a cold
                // compute populates them.
                let mut registry = logrel::obs::Registry::new();
                if let Some(c) = counts_cell.get() {
                    registry.add(logrel::obs::names::CERTIFY_SPECS, 1);
                    registry.add(logrel::obs::names::CERTIFY_LRC_CERTIFIED, c.certified);
                    registry.add(logrel::obs::names::CERTIFY_LRC_REFUTED, c.refuted);
                    registry.add(
                        logrel::obs::names::CERTIFY_LRC_INDETERMINATE,
                        c.indeterminate,
                    );
                    if let Some(slack) = c.min_slack {
                        registry.set_gauge(logrel::obs::names::CERTIFY_MIN_SLACK, slack);
                    }
                }
                print!("{}", report.stdout);
                eprint!("{}", report.stderr);
                if *target == "-" && !report.stdout.is_empty() {
                    println!();
                }
                write_metrics(target, &registry)?;
                if report.errors > 0 {
                    return Err(Failure::Diagnostics(report.errors));
                }
                return Ok(());
            }
            emit_report(&report)
        }
        "check" => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let incremental = take_bool_flag(&mut rest, "--incremental");
            let path = rest.first().ok_or(usage)?;
            let source = read(path)?;
            let report = if incremental {
                run_cached(path, &source, "check_report", || check_report(path, &source))
            } else {
                check_report(path, &source)
            };
            emit_report(&report)
        }
        "verify" => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let incremental = take_bool_flag(&mut rest, "--incremental");
            let path = rest.first().ok_or(usage)?;
            let source = read(path)?;
            let report = if incremental {
                run_cached(path, &source, "verify_report", || verify_report(path, &source))
            } else {
                verify_report(path, &source)
            };
            emit_report(&report)
        }
        "analyze" => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let stats = take_bool_flag(&mut rest, "--stats");
            let against = take_flag_value(&mut rest, "--against")?;
            let path = rest.first().ok_or(usage)?;
            let source = read(path)?;
            let cache_path =
                against.unwrap_or_else(|| logrel::query::default_cache_path(path));
            let mut registry = logrel::obs::Registry::new();
            let prior = load_cache(&mut registry, &cache_path);
            let out = logrel::query::analyze_source(&source, path, prior.as_ref(), &mut registry);
            print!("{}", out.stdout);
            eprint!("{}", out.stderr);
            if stats {
                println!(
                    "cache: {} queries, {} hit(s), {} recomputed, {} refinement-reuse(s)",
                    out.stats.queries, out.stats.hits, out.stats.recomputes, out.stats.refine_reuses
                );
            }
            if let Some(db) = &out.db {
                save_cache(&cache_path, db);
            }
            if out.errors > 0 {
                Err(Failure::Diagnostics(out.errors))
            } else {
                Ok(())
            }
        }
        "check-file" => {
            // Multi-program file: validate the refinement roots fully, then
            // check each declared refinement and inherit validity (Prop 2).
            let path = args.get(1).ok_or(usage)?;
            let file = parse_file(&read(path)?).map_err(|e| lang_failure(path, &e))?;
            let elaborated = elaborate_file(&file).map_err(|e| {
                // A program that fails on its own is diagnosed as `check`
                // diagnoses it, spanned; what remains is an error of the
                // file as a whole (names, refinement declarations).
                let diags: Vec<Diagnostic> = file
                    .programs
                    .iter()
                    .filter_map(|p| lint::elaborate_program(p).err())
                    .flatten()
                    .collect();
                if diags.is_empty() {
                    lang_failure(path, &e)
                } else {
                    front_end_failure(path, &diags)
                }
            })?;
            println!(
                "{} program(s), {} refinement declaration(s)",
                elaborated.systems.len(),
                elaborated.refinements.len()
            );
            // Roots: programs no declaration refines further.
            let refining_set: std::collections::BTreeSet<usize> = elaborated
                .refinements
                .iter()
                .map(|r| r.refining)
                .collect();
            let mut certs = std::collections::BTreeMap::new();
            for (i, sys) in elaborated.systems.iter().enumerate() {
                if !refining_set.contains(&i) {
                    let cert = validate(SystemRef::new(&sys.spec, &sys.arch, &sys.imp))
                        .map_err(|e| {
                            analysis_failure(
                                path,
                                "A001",
                                format!("program `{}` is INVALID: {e}", sys.name),
                            )
                        })?;
                    println!("program `{}`: VALID (analysed directly)", sys.name);
                    certs.insert(i, cert);
                }
            }
            for r in &elaborated.refinements {
                let refining = &elaborated.systems[r.refining];
                let refined = &elaborated.systems[r.refined];
                let kappa = Kappa::from_pairs(
                    &refining.spec,
                    &refined.spec,
                    r.pairs.iter().map(|(a, b)| (a.as_str(), b.as_str())),
                )
                .map_err(|e| Failure::Usage(e.to_string()))?;
                check_refinement(
                    SystemRef::new(&refining.spec, &refining.arch, &refining.imp),
                    SystemRef::new(&refined.spec, &refined.arch, &refined.imp),
                    &kappa,
                )
                .map_err(|e| {
                    // R-series diagnostics, spanned against the refining
                    // program's declarations inside the multi-program file.
                    let diags = refine_error_diagnostics(&file.programs[r.refining], &e);
                    for d in &diags {
                        eprintln!("{}", d.render(path));
                    }
                    Failure::Diagnostics(diags.len())
                })?;
                println!(
                    "program `{}`: VALID by refinement of `{}` (Proposition 2)",
                    refining.name, refined.name
                );
            }
            Ok(())
        }
        "fmt" => {
            let path = args.get(1).ok_or(usage)?;
            let program = parse(&read(path)?).map_err(|e| lang_failure(path, &e))?;
            print!("{}", print_program(&program));
            Ok(())
        }
        "latency" => {
            let path = args.get(1).ok_or(usage)?;
            let sys = compile_path(path)?;
            let ages = logrel::sched::data_ages(&sys.spec);
            println!("{:<16} {:>16}", "communicator", "worst data age");
            for c in sys.spec.communicator_ids() {
                let age = ages
                    .age(c)
                    .map_or("unbounded/-".to_owned(), |a| a.to_string());
                println!("{:<16} {:>16}", sys.spec.communicator(c).name(), age);
            }
            Ok(())
        }
        "graph" => {
            let path = args.get(1).ok_or(usage)?;
            let sys = compile_path(path)?;
            let graph = logrel::core::graph::SpecGraph::new(&sys.spec);
            print!("{}", graph.to_dot(&sys.spec));
            let cycles = graph.communicator_cycles();
            if !cycles.is_memory_free() {
                eprintln!("warning: the specification has communicator cycles (memory)");
            }
            Ok(())
        }
        "ecode" => {
            let path = args.get(1).ok_or(usage)?;
            let host_name = args.get(2).ok_or(usage)?;
            let sys = compile_path(path)?;
            let host = sys
                .arch
                .find_host(host_name)
                .ok_or_else(|| Failure::Usage(format!("unknown host `{host_name}`")))?;
            let code = logrel::emachine::generate(&sys.spec, &sys.imp, host);
            print!("{}", code.disassemble());
            Ok(())
        }
        "importance" => {
            let path = args.get(1).ok_or(usage)?;
            let comm_name = args.get(2).ok_or(usage)?;
            let sys = compile_path(path)?;
            let comm = sys
                .spec
                .find_communicator(comm_name)
                .ok_or_else(|| Failure::Usage(format!("unknown communicator `{comm_name}`")))?;
            let ranking = architecture_importance(&sys.spec, &sys.arch, &sys.imp, comm)
                .map_err(|e| Failure::Usage(e.to_string()))?;
            println!(
                "{:<24} {:>10} {:>12}",
                "component", "birnbaum", "improvement"
            );
            for c in ranking {
                println!("{:<24} {:>10.6} {:>12.6}", c.name, c.birnbaum, c.improvement);
            }
            Ok(())
        }
        "simulate" => {
            let path = args.get(1).ok_or(usage)?;
            let rounds: u64 = args
                .get(2)
                .map(|s| s.parse().map_err(|_| format!("bad round count `{s}`")))
                .transpose()?
                .unwrap_or(10_000);
            let seed: u64 = args
                .get(3)
                .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
                .transpose()?
                .unwrap_or(0xC0FFEE);
            let sys = compile_path(path)?;
            logrel::sim::check_rounds(&sys.spec, rounds)
                .map_err(|e| analysis_failure(path, "A004", e.to_string()))?;
            let analytic = logrel::reliability::compute_srgs(&sys.spec, &sys.arch, &sys.imp)
                .map_err(|e| Failure::Usage(e.to_string()))?;
            let td = logrel::core::TimeDependentImplementation::from(sys.imp.clone());
            let sim = logrel::sim::Simulation::try_new_observed(
                &sys.spec,
                &sys.arch,
                &td,
                &mut logrel::obs::NoopSink,
            )
            .map_err(|e| analysis_failure(path, "A003", format!("{e}")))?;
            let faults = || logrel::sim::ProbabilisticFaults::from_architecture(&sys.arch);
            let env = || logrel::sim::ConstantEnvironment::new(logrel::core::Value::Float(1.0));
            // The kernel counts every update; the report skips each
            // communicator's first two. Every communicator updates at
            // least once a round, and a seed's first rounds are a prefix
            // of its longer runs, so those two are the first two updates
            // of a traced run of the seed's first two rounds.
            let out = sim.run_bitsliced(
                &mut logrel::sim::BehaviorMap::new(),
                &mut [logrel::sim::LaneContext::plain(seed, faults(), env())],
                rounds,
            );
            let head = sim.run(
                &mut logrel::sim::BehaviorMap::new(),
                &mut env(),
                &mut faults(),
                &logrel::sim::SimConfig {
                    rounds: rounds.min(2),
                    seed,
                },
            );
            println!("{rounds} rounds, seed {seed}\n");
            println!("{:<12} {:>12} {:>12}", "communicator", "empirical", "analytic");
            for c in sys.spec.communicator_ids() {
                let skipped = &head.trace.values(c)[..head.trace.update_count(c).min(2)];
                let updates = out.updates(c) - skipped.len() as u64;
                let reliable = out.reliable(c, 0)
                    - skipped.iter().filter(|(_, v)| v.is_reliable()).count() as u64;
                // No update left to average: print `-`, not a reliability.
                let empirical = if updates == 0 {
                    "-".to_owned()
                } else {
                    format!("{:.6}", reliable as f64 / updates as f64)
                };
                println!(
                    "{:<12} {:>12} {:>12.6}",
                    sys.spec.communicator(c).name(),
                    empirical,
                    analytic.communicator(c).get()
                );
            }
            Ok(())
        }
        "inject" => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let metrics = take_flag_value(&mut rest, "--metrics")?;
            let lanes = match take_flag_value(&mut rest, "--lanes")?.as_deref() {
                None | Some("auto") => logrel::sim::LaneMode::Auto,
                Some("off") => logrel::sim::LaneMode::Off,
                Some(s) => {
                    let n: u8 = s
                        .parse()
                        .ok()
                        .filter(|n| (1..=64).contains(n))
                        .ok_or_else(|| {
                            Failure::Usage(format!("--lanes wants 1..=64, `off` or `auto`, got `{s}`"))
                        })?;
                    logrel::sim::LaneMode::Width(n)
                }
            };
            // `--seed N` overrides the positional seed; both forms stay
            // accepted so existing invocations keep working.
            let seed_flag: Option<u64> = take_flag_value(&mut rest, "--seed")?
                .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
                .transpose()?;
            let path = rest.first().ok_or(usage)?;
            let scenario_path = rest.get(1).ok_or(usage)?;
            let rounds: u64 = rest
                .get(2)
                .map(|s| s.parse().map_err(|_| format!("bad round count `{s}`")))
                .transpose()?
                .unwrap_or(4_000);
            let seed: u64 = seed_flag.unwrap_or(
                rest.get(3)
                    .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
                    .transpose()?
                    .unwrap_or(0xC0FFEE),
            );
            let reps: u64 = rest
                .get(4)
                .map(|s| s.parse().map_err(|_| format!("bad replication count `{s}`")))
                .transpose()?
                .unwrap_or(8);
            let sys = compile_path(path)?;
            let scenario =
                logrel::sim::Scenario::parse_with(&read(scenario_path)?, &Symbols(&sys))
                    .map_err(|e| Failure::Usage(format!("{scenario_path}: {e}")))?;
            // The analytic column the report compares λ̂ against.
            let srgs = logrel::reliability::compute_srgs(&sys.spec, &sys.arch, &sys.imp)
                .map_err(|e| Failure::Usage(e.to_string()))?;
            let analytic: Vec<_> =
                sys.spec.communicator_ids().map(|c| Some(srgs.communicator(c).get())).collect();
            // The registry collects compile/certify spans even when
            // `--metrics` is absent; it is only exported when requested.
            let mut registry = logrel::obs::Registry::with_recorder(FLIGHT_RING);
            let compiled = CompiledSpec::new(sys, &mut registry)
                .map_err(|e| analysis_failure(path, "A003", format!("{e}")))?;
            let compiled = std::sync::Arc::new(compiled);
            let config = pipeline::campaign_config(reps, rounds, seed, lanes);
            let plan = Plan::new(std::sync::Arc::clone(&compiled), scenario, config, FLIGHT_RING)
                .map_err(|e| analysis_failure(path, "A004", e.to_string()))?;
            let report = if metrics.is_some() {
                let run_span = logrel::obs::Span::start();
                let report = plan.run::<logrel::obs::Registry>(&analytic, &mut registry);
                run_span.finish(&mut registry, logrel::obs::names::RUN_SECONDS);
                report
            } else {
                plan.run::<logrel::obs::NoopSink>(&analytic, &mut registry)
            }
            .map_err(|e| analysis_failure(path, "A004", e.to_string()))?;
            let sys = compiled.sys();

            let lane_desc = match lanes.width() {
                1 => "scalar".to_owned(),
                w => format!("bit-sliced x{w}"),
            };
            println!(
                "{reps} replication(s) x {rounds} rounds, seed {seed}, scenario `{scenario_path}`, {lane_desc}\n"
            );
            println!("host availability (scripted):");
            for h in sys.arch.host_ids() {
                println!(
                    "  {:<16} {:>8.4}",
                    sys.arch.host(h).name(),
                    report.host_availability[h.index()]
                );
            }
            println!();
            println!(
                "{:<14} {:>10} {:>10} {:>8} {:>7} {:>7} {:>12} {:>7} {:>5} {:>9}",
                "communicator",
                "empirical",
                "analytic",
                "eps",
                "within",
                "lrc",
                "1st-violation",
                "alarms",
                "viol",
                "pre-alarm"
            );
            for r in &report.comms {
                let c = r.comm;
                println!(
                    "{:<14} {:>10.6} {:>10.6} {:>8.5} {:>7} {:>7} {:>12} {:>7} {:>5} {:>9}",
                    sys.spec.communicator(c).name(),
                    r.empirical,
                    r.analytic.unwrap_or(f64::NAN),
                    r.epsilon,
                    match r.within_epsilon {
                        Some(true) => "yes",
                        Some(false) => "NO",
                        None => "-",
                    },
                    r.lrc.map_or("-".to_owned(), |l| format!("{l}")),
                    r.first_violation
                        .map_or("-".to_owned(), |t| t.as_u64().to_string()),
                    format!("{}/{}", r.alarms_raised, r.alarms_cleared),
                    r.violations,
                    r.alarms_before_violation,
                );
            }
            if let Some(target) = &metrics {
                if target == "-" {
                    println!();
                }
                write_metrics(target, &registry)?;
            }
            Ok(())
        }
        "trace" => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let seed_flag: Option<u64> = take_flag_value(&mut rest, "--seed")?
                .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
                .transpose()?;
            let path = rest.first().ok_or(usage)?;
            let scenario_path = rest.get(1).ok_or(usage)?;
            let rounds: u64 = rest
                .get(2)
                .map(|s| s.parse().map_err(|_| format!("bad round count `{s}`")))
                .transpose()?
                .unwrap_or(2_000);
            let seed: u64 = seed_flag.unwrap_or(
                rest.get(3)
                    .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
                    .transpose()?
                    .unwrap_or(0xC0FFEE),
            );
            let sys = compile_path(path)?;
            let scenario =
                logrel::sim::Scenario::parse_with(&read(scenario_path)?, &Symbols(&sys))
                    .map_err(|e| Failure::Usage(format!("{scenario_path}: {e}")))?;
            let horizon = logrel::sim::check_rounds(&sys.spec, rounds)
                .map_err(|e| analysis_failure(path, "A004", e.to_string()))?;
            let td = logrel::core::TimeDependentImplementation::from(sys.imp.clone());
            let mut registry = logrel::obs::Registry::with_recorder(FLIGHT_RING);
            registry.set_gauge(logrel::obs::names::CAMPAIGN_SEED, seed as f64);
            let sim =
                logrel::sim::Simulation::try_new_observed(&sys.spec, &sys.arch, &td, &mut registry)
                    .map_err(|e| analysis_failure(path, "A003", format!("{e}")))?;
            // One replication of the campaign pipeline's base context,
            // under the scenario layers.
            let base = pipeline::replication_context(&sys.arch);
            let comms = sys.spec.communicator_count();
            let injector = logrel::sim::ScenarioInjector::new(
                base.injector,
                &scenario,
                sys.arch.host_count(),
                comms,
            )
            .map_err(|e| Failure::Usage(format!("{scenario_path}: {e}")))?;
            let environment =
                logrel::sim::ScenarioEnvironment::new(base.environment, &scenario, comms);
            // One lane, watched and observed but not traced: only the
            // registry is printed, so memory does not grow with the rounds.
            let mut lanes = [logrel::sim::LaneContext::plain(seed, injector, environment)];
            let mut monitor =
                logrel::sim::LrcMonitor::new(&sys.spec, logrel::sim::MonitorConfig::default());
            let mut behaviors = base.behaviors;
            let run_span = logrel::obs::Span::start();
            // If the kernel panics, dump the flight recorder before the
            // unwind escapes — the last recorded events are exactly the
            // context the panic message lacks.
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run_monitored(&mut behaviors, &mut lanes, &mut monitor, &mut registry, rounds)
            }));
            match run {
                Ok(_) => {
                    run_span.finish(&mut registry, logrel::obs::names::RUN_SECONDS);
                    if let Some(rec) = registry.recorder_mut() {
                        rec.dump_now(horizon.as_u64());
                    }
                    println!("{rounds} round(s), seed {seed}, scenario `{scenario_path}`\n");
                    println!("counters:");
                    for (name, v) in registry.counters() {
                        println!("  {name:<36} {v:>12}");
                    }
                    println!();
                    print!("{}", format_dumps(&registry, &sys));
                    Ok(())
                }
                Err(payload) => {
                    let at = registry
                        .recorder()
                        .and_then(|r| r.events().last().map(logrel::obs::ObsEvent::at))
                        .unwrap_or(0);
                    if let Some(rec) = registry.recorder_mut() {
                        rec.dump_on_panic(at);
                    }
                    eprint!("{}", format_dumps(&registry, &sys));
                    std::panic::resume_unwind(payload);
                }
            }
        }
        "fuzz" => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let iters: u64 = take_flag_value(&mut rest, "--iters")?
                .map(|s| s.parse().map_err(|_| format!("bad iteration count `{s}`")))
                .transpose()?
                .unwrap_or(200);
            let seed: u64 = take_flag_value(&mut rest, "--seed")?
                .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
                .transpose()?
                .unwrap_or(0xF022);
            let corpus_dir = take_flag_value(&mut rest, "--corpus")?;
            let path = rest.first().ok_or(usage)?;
            let sys = compile_path(path)?;
            let td = logrel::core::TimeDependentImplementation::from(sys.imp.clone());
            let sim = logrel::sim::Simulation::try_new_observed(
                &sys.spec,
                &sys.arch,
                &td,
                &mut logrel::obs::NoopSink,
            )
            .map_err(|e| analysis_failure(path, "A003", format!("{e}")))?;
            // One short, fixed campaign evaluates every candidate — the
            // same base seed throughout, so a reproducer replays through
            // `htlc inject` with exactly the parameters echoed below.
            let campaign =
                pipeline::campaign_config(4, 400, 0xC0FFEE, logrel::sim::LaneMode::Auto);
            let b = campaign.batch;
            let config = logrel::sim::FuzzConfig {
                iters,
                seed,
                campaign,
                echo: vec![
                    format!("spec: {path}"),
                    format!(
                        "replay: htlc inject {path} <this-file> {} {} {}",
                        b.rounds, b.base_seed, b.replications
                    ),
                ],
                ..Default::default()
            };
            let setup = |_rep| pipeline::replication_context(&sys.arch);
            let mut registry = logrel::obs::Registry::new();
            let outcome = logrel::sim::run_fuzz(
                &sim,
                &sys.spec,
                &logrel::sim::Scenario::default(),
                sys.arch.host_count(),
                &config,
                setup,
                &mut registry,
            )
            .map_err(|e| analysis_failure(path, "A004", e.to_string()))?;
            println!(
                "{} iteration(s), fuzz seed {seed}, campaign {} replication(s) x {} rounds (seed {})",
                outcome.iters, b.replications, b.rounds, b.base_seed
            );
            println!(
                "coverage: {} signature(s), {} novel candidate(s) kept, {} invalid mutant(s)",
                outcome.signatures, outcome.novel, outcome.invalid
            );
            println!(
                "monitor misses: {} found, {} unique reproducer(s), {} shrink step(s)",
                outcome.monitor_misses,
                outcome.reproducers.len(),
                outcome.shrink_steps
            );
            if let Some(dir) = &corpus_dir {
                std::fs::create_dir_all(dir)
                    .map_err(|e| Failure::Io(format!("cannot create `{dir}`: {e}")))?;
                for a in outcome.corpus.iter().chain(&outcome.reproducers) {
                    let file = format!("{dir}/{}", a.name);
                    std::fs::write(&file, &a.contents)
                        .map_err(|e| Failure::Io(format!("cannot write `{file}`: {e}")))?;
                }
                println!(
                    "corpus: {} file(s) written to `{dir}`",
                    outcome.corpus.len() + outcome.reproducers.len()
                );
                for r in &outcome.reproducers {
                    println!("  reproducer {dir}/{}", r.name);
                }
            } else {
                println!("(pass --corpus DIR to write the corpus and reproducer files)");
            }
            Ok(())
        }
        "serve" => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let stdin_mode = take_bool_flag(&mut rest, "--stdin");
            let listen = take_flag_value(&mut rest, "--listen")?;
            let workers: usize = take_flag_value(&mut rest, "--workers")?
                .map(|s| s.parse().map_err(|_| format!("bad worker count `{s}`")))
                .transpose()?
                .unwrap_or(0);
            let queue_capacity: usize = take_flag_value(&mut rest, "--queue")?
                .map(|s| s.parse().map_err(|_| format!("bad queue capacity `{s}`")))
                .transpose()?
                .unwrap_or(16);
            let cache_path = take_flag_value(&mut rest, "--cache")?;
            if !rest.is_empty() {
                return Err(Failure::Usage(format!("unexpected argument `{}`", rest[0])));
            }
            if stdin_mode == listen.is_some() {
                return Err(Failure::Usage(
                    "serve wants exactly one of --stdin or --listen ADDR".to_owned(),
                ));
            }
            if queue_capacity == 0 {
                return Err(Failure::Usage("--queue wants at least 1".to_owned()));
            }
            let config = logrel::serve::ServeConfig {
                workers,
                queue_capacity,
                recorder_capacity: FLIGHT_RING,
                cache_path,
            };
            let engine = logrel::serve::Engine::new(config);
            if stdin_mode {
                // CI mode: one request line in, result + status lines
                // out, drain on EOF. A malformed or failing job line
                // yields a structured rejection, never an exit.
                logrel::serve::serve_stdin(&engine)
                    .map_err(|e| Failure::Io(format!("serve: {e}")))?;
                return Ok(());
            }
            let addr = listen.expect("checked above");
            logrel::serve::install_term_hook();
            let server = logrel::serve::Server::start(engine, &addr)
                .map_err(|e| Failure::Io(format!("cannot listen on `{addr}`: {e}")))?;
            eprintln!("htlc serve: listening on {}", server.local_addr());
            while !logrel::serve::term_requested() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            eprintln!("htlc serve: termination requested, draining in-flight jobs");
            server.shutdown();
            Ok(())
        }
        "refine" => {
            let refining_path = args.get(1).ok_or(usage)?;
            let refined_path = args.get(2).ok_or(usage)?;
            // Keep the refining AST: refinement violations are rendered as
            // spanned R-series diagnostics against the refining source.
            let (refining_ast, refining) = lint::front_end(&read(refining_path)?)
                .map_err(|diags| front_end_failure(refining_path, &diags))?;
            let refined = compile_path(refined_path)?;
            let kappa = Kappa::by_name(&refining.spec, &refined.spec);
            match check_refinement(
                SystemRef::new(&refining.spec, &refining.arch, &refining.imp),
                SystemRef::new(&refined.spec, &refined.arch, &refined.imp),
                &kappa,
            ) {
                Ok(()) => {
                    println!("`{refining_path}` refines `{refined_path}`");
                    Ok(())
                }
                Err(e) => {
                    let diags = refine_error_diagnostics(&refining_ast, &e);
                    for d in &diags {
                        eprintln!("{}", d.render(refining_path));
                    }
                    Err(Failure::Diagnostics(diags.len()))
                }
            }
        }
        other => Err(Failure::Usage(format!("unknown command `{other}`\n{usage}"))),
    }
}
