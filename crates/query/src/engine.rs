//! The demand-driven analysis engine: evaluates the seven analysis
//! queries over a spec, reusing green cache entries and attempting
//! refinement reuse for the schedulability and certification queries
//! before recomputing.
//!
//! # The differential guarantee
//!
//! [`analyze_source`] must produce **byte-identical** output whether it
//! runs cold (no prior database) or warm (any prior database, however
//! stale). Three mechanisms enforce this:
//!
//! * results are cached structurally (bit-exact floats, unpromoted
//!   diagnostics) and every byte of output is rendered *from payloads*,
//!   by the same code, on both paths;
//! * a cache entry is reused only when its dependency digest proves all
//!   its inputs unchanged (see [`crate::db`]);
//! * refinement reuse answers only the schedulability and certification
//!   queries, and only with constant fully-`ok` payloads: for `sched`,
//!   when the edited spec refines the cached parent (Proposition 2) and
//!   the parent was schedulable, Lemma 1 guarantees a fresh run would
//!   also answer `ok`; for `certify`, when every unit the certification
//!   reads except the LRC declarations is byte-identical to the parent's
//!   and every LRC was only weakened, the fresh run would recompute the
//!   bit-identical certified enclosures against thresholds that only
//!   moved down — so a fully certified parent verdict transfers.

use crate::db::{dep_digest, depends_on, CacheStats, QueryDb, QueryEntry};
use crate::payload::{store_diags, Payload, StoredDiag};
use logrel_core::prob::meets;
use logrel_core::TimeDependentImplementation;
use logrel_lang::ast::Program;
use logrel_lang::subspec::{split_units, units_digest, SubspecUnit};
use logrel_lang::{elaborate, parse, ElaboratedSystem};
use logrel_lint::{elaborate_program, sort_diagnostics, Diagnostic};
use logrel_obs::{names, MetricsSink};
use logrel_refine::{check_refinement, Kappa, SystemRef};
use std::fmt::Write as _;

/// The analysis queries, in evaluation (and report) order.
const QUERIES: [&str; 7] = ["header", "lint", "ecode", "tv", "srg", "certify", "sched"];

/// Result of one engine run.
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    /// The report (stdout).
    pub stdout: String,
    /// Rendered diagnostics (stderr).
    pub stderr: String,
    /// Error-severity diagnostics emitted (drives the exit code).
    pub errors: usize,
    /// Cache-effect counters.
    pub stats: CacheStats,
    /// The database to persist, when the source at least parsed.
    pub db: Option<QueryDb>,
}

/// A whole-command result cached by the `--incremental` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Error count (drives the exit code).
    pub errors: usize,
    /// Exact stdout bytes.
    pub stdout: String,
    /// Exact stderr bytes.
    pub stderr: String,
}

/// The default cache path for a spec file.
#[must_use]
pub fn default_cache_path(spec_path: &str) -> String {
    format!("{spec_path}.logrel-cache")
}

/// Computes one query from scratch.
fn compute(query: &str, program: &Program, sys: &ElaboratedSystem) -> Payload {
    match query {
        "header" => Payload::Report {
            errors: 0,
            stdout: format!(
                "program `{}`: {} communicator(s), {} task(s), round {}",
                sys.name,
                sys.spec.communicator_count(),
                sys.spec.task_count(),
                sys.spec.round_period()
            ),
            stderr: String::new(),
        },
        "lint" => {
            let mut diags = logrel_lint::spec_lints(program, sys);
            sort_diagnostics(&mut diags);
            Payload::Diags(store_diags(&diags))
        }
        "ecode" => {
            let mut diags = logrel_lint::verify_generated(program, sys);
            sort_diagnostics(&mut diags);
            Payload::Diags(store_diags(&diags))
        }
        "tv" => {
            let td = TimeDependentImplementation::from(sys.imp.clone());
            match logrel_validate::certify_system(&sys.spec, &sys.arch, &td) {
                Ok(cert) => Payload::Tv { cert: Some(cert.to_string()), diags: Vec::new() },
                Err(mut diags) => {
                    sort_diagnostics(&mut diags);
                    Payload::Tv { cert: None, diags: store_diags(&diags) }
                }
            }
        }
        "srg" => match logrel_reliability::compute_srgs(&sys.spec, &sys.arch, &sys.imp) {
            Ok(report) => Payload::Srg {
                ok: true,
                message: String::new(),
                values: sys
                    .spec
                    .communicator_ids()
                    .map(|c| {
                        (
                            sys.spec.communicator(c).name().to_owned(),
                            report.communicator(c).get().to_bits(),
                        )
                    })
                    .collect(),
            },
            Err(e) => Payload::Srg { ok: false, message: e.to_string(), values: Vec::new() },
        },
        "certify" => match logrel_reliability::certify(&sys.spec, &sys.arch, &sys.imp, None) {
            Ok(cert) => Payload::Cert {
                ok: true,
                message: String::new(),
                certified: cert.overall == logrel_reliability::CertStatus::Certified,
                refuted: cert.count(logrel_reliability::CertStatus::Refuted) as u64,
                indeterminate: cert.count(logrel_reliability::CertStatus::Indeterminate) as u64,
            },
            Err(e) => Payload::Cert {
                ok: false,
                message: e.to_string(),
                certified: false,
                refuted: 0,
                indeterminate: 0,
            },
        },
        "sched" => match logrel_sched::analyze(&sys.spec, &sys.arch, &sys.imp) {
            Ok(_) => Payload::Sched { ok: true, message: String::new() },
            Err(e) => Payload::Sched { ok: false, message: e.to_string() },
        },
        other => unreachable!("unknown query `{other}`"),
    }
}

/// Attempts refinement reuse for the dirty schedulability query: if the
/// edited system refines the cached parent under the name-matched κ
/// (all six constraints of Proposition 2 plus the shared host set) and
/// the parent was schedulable, Lemma 1 transfers schedulability.
fn try_refine_reuse(prior: &QueryDb, sys: &ElaboratedSystem) -> Option<Payload> {
    match &prior.queries.get("sched")?.payload {
        Payload::Sched { ok: true, .. } => {}
        _ => return None,
    }
    let parent = prior.system()?;
    let kappa = Kappa::by_name(&sys.spec, &parent.spec);
    check_refinement(
        SystemRef::new(&sys.spec, &sys.arch, &sys.imp),
        SystemRef::new(&parent.spec, &parent.arch, &parent.imp),
        &kappa,
    )
    .ok()?;
    Some(Payload::Sched { ok: true, message: String::new() })
}

/// Attempts refinement reuse for the dirty certification query. Reuse is
/// sound — and *byte-identical* to a cold run — under two structural
/// conditions:
///
/// * every unit the certification depends on **except** `comms_lrc` has
///   the same content hash in the edited program as in the cached parent,
///   so a fresh run would recompute bit-identical certified enclosures
///   (the interval analysis is deterministic in those units);
/// * every LRC in the edited program is at most the parent's LRC on the
///   same-named communicator — pointwise weakening.
///
/// A fully certified parent verdict then transfers: each enclosure's
/// lower bound still clears a threshold that only moved down, and the
/// reused payload (`certified`, zero refuted/indeterminate counters) is
/// exactly what the fresh run would produce.
fn try_certify_reuse(
    prior: &QueryDb,
    units: &[SubspecUnit],
    sys: &ElaboratedSystem,
) -> Option<Payload> {
    match &prior.queries.get("certify")?.payload {
        Payload::Cert { ok: true, certified: true, refuted: 0, indeterminate: 0, .. } => {}
        _ => return None,
    }
    fn lrc_free(us: &[SubspecUnit]) -> impl Iterator<Item = (&str, u64)> {
        us.iter()
            .filter(|u| depends_on("certify", &u.name) && u.name != "comms_lrc")
            .map(|u| (u.name.as_str(), u.hash))
    }
    if !lrc_free(units).eq(lrc_free(&prior.units)) {
        return None;
    }
    let parent = prior.system()?;
    for c in sys.spec.communicator_ids() {
        let comm = sys.spec.communicator(c);
        let Some(mu) = comm.lrc() else { continue };
        let weakened = parent.spec.communicator_ids().any(|p| {
            let pc = parent.spec.communicator(p);
            pc.name() == comm.name() && pc.lrc().is_some_and(|pm| pm.get() >= mu.get())
        });
        if !weakened {
            return None;
        }
    }
    Some(Payload::Cert {
        ok: true,
        message: String::new(),
        certified: true,
        refuted: 0,
        indeterminate: 0,
    })
}

/// Refinement reuse for a dirty query: only `sched` and `certify` have
/// a reuse rule.
fn try_reuse(
    query: &str,
    prior: &QueryDb,
    units: &[SubspecUnit],
    sys: &ElaboratedSystem,
) -> Option<Payload> {
    match query {
        "sched" => try_refine_reuse(prior, sys),
        "certify" => try_certify_reuse(prior, units, sys),
        _ => None,
    }
}

/// A front-end failure rendered the same way cold and warm.
fn frontend_failure(
    file: &str,
    diags: &[Diagnostic],
    stats: CacheStats,
    db: Option<QueryDb>,
) -> AnalysisOutcome {
    let mut stderr = String::new();
    for d in diags {
        stderr.push_str(&d.render(file));
        stderr.push('\n');
    }
    AnalysisOutcome { stdout: String::new(), stderr, errors: diags.len(), stats, db }
}

/// Renders stored diagnostics into `stderr`, counting errors.
fn emit_diags(stderr: &mut String, errors: &mut usize, file: &str, diags: &[StoredDiag]) {
    for d in diags {
        stderr.push_str(&d.render(file, false));
        stderr.push('\n');
        if d.is_error(false) {
            *errors += 1;
        }
    }
}

/// Runs the full analysis of `source`, reusing `prior` where green.
///
/// Cache counters are reported through `sink` (see
/// `logrel_obs::names::QUERY_*`). The returned database reflects the
/// *current* source; the caller persists it.
pub fn analyze_source(
    source: &str,
    file: &str,
    prior: Option<&QueryDb>,
    sink: &mut dyn MetricsSink,
) -> AnalysisOutcome {
    let mut stats = CacheStats::default();
    let program = match parse(source) {
        Ok(p) => p,
        Err(e) => return frontend_failure(file, &[Diagnostic::from_lang_error(&e)], stats, None),
    };
    let units = split_units(&program);
    let digest = units_digest(&units);
    // Soundness of reuse: confirm *this* program elaborates before
    // consulting the cache. The system is elaborated here, once, and
    // leaves in the returned db.
    let sys = match elaborate_program(&program) {
        Ok(sys) => sys,
        Err(diags) => {
            let db = QueryDb::new(source.to_owned(), digest, units, false);
            return frontend_failure(file, &diags, stats, Some(db));
        }
    };
    // Only a prior that recorded successful elaboration is trusted; its
    // entries were all computed against an elaborated system.
    let prior = prior.filter(|p| p.elab_ok);

    // A green hit borrows the prior's payload — it is already in the
    // prior's query map under the same dependency digest, so it is never
    // cloned or re-inserted. Only fresh payloads are moved into the db.
    enum Answer<'a> {
        Hit(&'a Payload),
        Fresh(Payload),
    }
    let mut answers: Vec<(&'static str, u64, Answer<'_>)> = Vec::with_capacity(QUERIES.len());
    for query in QUERIES {
        let dep = dep_digest(query, &units);
        stats.queries += 1;
        let answer = if let Some(green) = prior.and_then(|p| p.green(query, dep)) {
            stats.hits += 1;
            Answer::Hit(green)
        } else if let Some(p) = prior.and_then(|pr| try_reuse(query, pr, &units, &sys)) {
            stats.refine_reuses += 1;
            Answer::Fresh(p)
        } else {
            stats.recomputes += 1;
            Answer::Fresh(compute(query, &program, &sys))
        };
        answers.push((query, dep, answer));
    }

    sink.add(names::QUERY_QUERIES, stats.queries);
    sink.add(names::QUERY_HITS, stats.hits);
    sink.add(names::QUERY_RECOMPUTES, stats.recomputes);
    sink.add(names::QUERY_REFINE_REUSE, stats.refine_reuses);

    let payloads: Vec<(&str, &Payload)> = answers
        .iter()
        .map(|(q, _, a)| {
            (*q, match a {
                Answer::Hit(p) => *p,
                Answer::Fresh(p) => p,
            })
        })
        .collect();
    let (stdout, stderr, errors) = render(file, &program, &payloads);
    drop(payloads);

    // The db is rebuilt around the current source, units and system;
    // the prior's entries carry over (hits are already among them under
    // the same dependency digests).
    let mut db = QueryDb::elaborated(source.to_owned(), digest, units, sys);
    if let Some(p) = prior {
        db.queries = p.queries.clone();
    }
    for (query, dep, answer) in answers {
        if let Answer::Fresh(payload) = answer {
            db.queries.insert(query.to_owned(), QueryEntry { dep, payload });
        }
    }
    AnalysisOutcome { stdout, stderr, errors, stats, db: Some(db) }
}

/// Assembles the report from payloads — the one code path shared by cold
/// and warm runs.
fn render(
    file: &str,
    program: &Program,
    payloads: &[(&str, &Payload)],
) -> (String, String, usize) {
    let get = |name: &str| {
        payloads
            .iter()
            .find(|(n, _)| *n == name)
            .expect("all queries evaluated")
            .1
    };
    let mut stdout = String::with_capacity(1024);
    let mut stderr = String::new();
    let mut errors = 0usize;
    let mut invalid: Vec<String> = Vec::new();

    if let Payload::Report { stdout: header, .. } = get("header") {
        let _ = writeln!(stdout, "{header}");
    }
    if let Payload::Diags(diags) = get("lint") {
        emit_diags(&mut stderr, &mut errors, file, diags);
    }
    if let Payload::Diags(diags) = get("ecode") {
        if diags.is_empty() {
            let hosts = program
                .arch
                .iter()
                .filter(|i| matches!(i, logrel_lang::ast::ArchItem::Host { .. }))
                .count();
            let _ = writeln!(stdout, "e-code: verified on {hosts} host(s)");
        } else {
            emit_diags(&mut stderr, &mut errors, file, diags);
        }
    }
    if let Payload::Tv { cert, diags } = get("tv") {
        match cert {
            Some(c) => {
                let _ = writeln!(stdout, "translation: {c}");
            }
            None => emit_diags(&mut stderr, &mut errors, file, diags),
        }
    }
    if let Payload::Srg { ok, message, values } = get("srg") {
        if *ok {
            let _ = writeln!(stdout, "srg:");
            for (name, bits) in values {
                let v = f64::from_bits(*bits);
                let lrc = program
                    .communicators
                    .iter()
                    .find(|c| &c.name == name)
                    .and_then(|c| c.lrc);
                match lrc {
                    Some(l) => {
                        let marker = if meets(v, l) { "ok" } else { "VIOLATED" };
                        if marker == "VIOLATED" {
                            invalid
                                .push(format!("communicator `{name}` achieves {v} < lrc {l}"));
                        }
                        let _ = writeln!(stdout, "  {name:<16} {v:.9}  lrc {l}  {marker}");
                    }
                    None => {
                        let _ = writeln!(stdout, "  {name:<16} {v:.9}");
                    }
                }
            }
        } else {
            invalid.push(format!("reliability analysis failed: {message}"));
        }
    }
    if let Payload::Cert { ok, message, certified, refuted, indeterminate } = get("certify") {
        if !*ok {
            // The SRG block above already records the underlying analysis
            // failure as an invalid reason; avoid a duplicate A001.
            let _ = writeln!(stdout, "certified: unavailable ({message})");
        } else if *certified {
            let _ = writeln!(stdout, "certified: yes");
        } else {
            let _ = writeln!(
                stdout,
                "certified: NO ({refuted} refuted, {indeterminate} indeterminate)"
            );
        }
    }
    if let Payload::Sched { ok, message } = get("sched") {
        if *ok {
            let _ = writeln!(stdout, "schedulable: yes");
        } else {
            let _ = writeln!(stdout, "schedulable: NO");
            invalid.push(format!("not schedulable: {message}"));
        }
    }
    for reason in &invalid {
        let d = StoredDiag {
            code: "A001".into(),
            error: true,
            line: 0,
            col: 0,
            message: format!("INVALID: {reason}"),
            labels: Vec::new(),
            help: None,
        };
        stderr.push_str(&d.render(file, false));
        stderr.push('\n');
        errors += 1;
    }
    let verdict = if errors == 0 { "VALID" } else { "INVALID" };
    let _ = writeln!(stdout, "verdict: {verdict}");
    (stdout, stderr, errors)
}

/// Evaluates a whole-command report query (`lint`/`check`/`verify`
/// `--incremental`): reuses the cached report when every unit is
/// unchanged, otherwise runs `compute` and returns the refreshed
/// database to persist. The boolean reports whether the cache answered.
pub fn cached_report(
    source: &str,
    query: &str,
    prior: Option<&QueryDb>,
    sink: &mut dyn MetricsSink,
    compute: impl FnOnce() -> Report,
) -> (Report, Option<QueryDb>, bool) {
    let program = match parse(source) {
        // Unparseable source: nothing to key on; run cold every time.
        Err(_) => return (compute(), None, false),
        Ok(p) => p,
    };
    let units = split_units(&program);
    let digest = units_digest(&units);
    let dep = dep_digest(query, &units);
    sink.add(names::QUERY_QUERIES, 1);
    if let Some(Payload::Report { errors, stdout, stderr }) =
        prior.and_then(|p| p.green(query, dep))
    {
        sink.add(names::QUERY_HITS, 1);
        let report =
            Report { errors: *errors, stdout: stdout.clone(), stderr: stderr.clone() };
        return (report, None, true);
    }
    sink.add(names::QUERY_RECOMPUTES, 1);
    let report = compute();
    let mut db = match elaborate(&program) {
        Ok(sys) => QueryDb::elaborated(source.to_owned(), digest, units, sys),
        Err(_) => QueryDb::new(source.to_owned(), digest, units, false),
    };
    if let Some(p) = prior {
        if p.digest == digest && p.elab_ok == db.elab_ok {
            db.queries = p.queries.clone();
        }
    }
    db.queries.insert(
        query.to_owned(),
        QueryEntry {
            dep,
            payload: Payload::Report {
                errors: report.errors,
                stdout: report.stdout.clone(),
                stderr: report.stderr.clone(),
            },
        },
    );
    (report, Some(db), false)
}
