//! The query database: content-hashed units, query entries and
//! dependency digests (red-green invalidation, RFC 2547-style).
//!
//! Each query names the subspec units it may read; its **dependency
//! digest** hashes the ordered `(unit name, unit hash)` pairs of that set
//! together with the query name and the engine version. A cached entry is
//! *green* — reusable verbatim — exactly when its dependency digest
//! matches the one recomputed from the edited program's units, because
//! equal digests mean every input the query could have read is
//! byte-identical. Anything else is *red* and must be recomputed (or, for
//! the schedulability query, rescued by refinement reuse — see
//! [`crate::engine`]).

use crate::payload::Payload;
use logrel_lang::subspec::{FnvWriter, SubspecUnit};
use logrel_lang::ElaboratedSystem;
use std::sync::OnceLock;
use std::collections::BTreeMap;

/// Version of the query engine. Participates in every dependency digest
/// and in the cache header: bumping it invalidates all caches at once.
pub const ENGINE_VERSION: u32 = 2;

/// One cached query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEntry {
    /// Dependency digest the result was computed under.
    pub dep: u64,
    /// The result.
    pub payload: Payload,
}

/// The persistent analysis database for one spec file.
#[derive(Clone)]
pub struct QueryDb {
    /// Whole-program digest ([`logrel_lang::units_digest`] over `units`).
    pub digest: u64,
    /// Whether the stored source elaborates successfully. Query
    /// entries are only trusted when this is `true`.
    pub elab_ok: bool,
    /// The spec source the entries were computed from — the
    /// refinement-reuse *parent*.
    pub source: String,
    /// The subspec units of `source`.
    pub units: Vec<SubspecUnit>,
    /// Query entries by name.
    pub queries: BTreeMap<String, QueryEntry>,
    /// The elaborated `source`: set by the analysis that built the db,
    /// or elaborated on first use for a db read from a cache file.
    /// Refinement reuse reads it as the parent system, and a service
    /// compiles from it. Never persisted or compared.
    sys: OnceLock<Option<Box<ElaboratedSystem>>>,
}

impl PartialEq for QueryDb {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest
            && self.elab_ok == other.elab_ok
            && self.source == other.source
            && self.units == other.units
            && self.queries == other.queries
    }
}

impl std::fmt::Debug for QueryDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryDb")
            .field("digest", &self.digest)
            .field("elab_ok", &self.elab_ok)
            .field("source", &self.source)
            .field("units", &self.units)
            .field("queries", &self.queries)
            .finish_non_exhaustive()
    }
}

/// Cache-effect counters for one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries evaluated.
    pub queries: u64,
    /// Answered green from the cache.
    pub hits: u64,
    /// Recomputed from scratch.
    pub recomputes: u64,
    /// Answered by refinement reuse (Proposition 2).
    pub refine_reuses: u64,
}

/// `true` if `query` depends on the unit named `unit`.
///
/// Inclusion is always sound (it only costs reuse); *exclusion* encodes
/// a proof obligation that the pass never reads that unit:
///
/// * no lint pass inspects WCET/WCTT rows (verified over all seven
///   passes in `logrel-lint`), so `lint` skips execution metrics;
/// * E-code generation/verification reads neither execution metrics nor
///   failure probabilities nor LRCs;
/// * the SRG fixpoint reads failure models and probabilities but neither
///   metrics nor the declared LRCs;
/// * schedulability reads metrics and LETs but no probabilities;
/// * translation validation certifies the round dataflow and never reads
///   metrics.
///
/// The `layout` unit (source positions) is read exactly by the queries
/// whose payloads embed spans: the diagnostic queries (`lint`, `ecode`,
/// `tv`) and the whole-command reports. `header`, `srg` and `sched`
/// render names and numbers only, so an edit that merely moves items
/// leaves them green.
#[must_use]
pub fn depends_on(query: &str, unit: &str) -> bool {
    match query {
        "ecode" => {
            unit != "comms_lrc" && unit != "arch_rel" && !unit.starts_with("metrics:")
        }
        "srg" => {
            unit != "comms_lrc" && unit != "layout" && !unit.starts_with("metrics:")
        }
        "sched" => unit != "comms_lrc" && unit != "arch_rel" && unit != "layout",
        // Certification reads the SRG inputs *plus* the declared LRCs, but
        // renders no spans (its payload carries counters only), ignores the
        // program name and never reads execution metrics.
        "certify" => unit != "layout" && unit != "name" && !unit.starts_with("metrics:"),
        "tv" | "lint" => !unit.starts_with("metrics:"),
        "header" => {
            // Name, communicator count, task count and the round period
            // (an LCM of communicator and mode periods).
            unit == "name" || unit == "comms_core" || unit.starts_with("module:")
        }
        // The whole-command report queries read everything.
        _ => true,
    }
}

/// The dependency digest of `query` over `units` (in unit order): the
/// query name, the engine version and each depended unit's name plus raw
/// hash bytes, NUL-separated.
#[must_use]
pub fn dep_digest(query: &str, units: &[SubspecUnit]) -> u64 {
    let mut w = FnvWriter::new();
    w.write_bytes(query.as_bytes());
    w.write_bytes(&[0]);
    w.write_bytes(&ENGINE_VERSION.to_le_bytes());
    for u in units.iter().filter(|u| depends_on(query, &u.name)) {
        w.write_bytes(u.name.as_bytes());
        w.write_bytes(&[0]);
        w.write_bytes(&u.hash.to_le_bytes());
    }
    w.finish()
}

impl QueryDb {
    /// An empty database for a program with the given source and units.
    #[must_use]
    pub fn new(source: String, digest: u64, units: Vec<SubspecUnit>, elab_ok: bool) -> Self {
        QueryDb {
            digest,
            elab_ok,
            source,
            units,
            queries: BTreeMap::new(),
            sys: OnceLock::new(),
        }
    }

    /// An empty database for a program that elaborated to `sys`.
    #[must_use]
    pub fn elaborated(
        source: String,
        digest: u64,
        units: Vec<SubspecUnit>,
        sys: ElaboratedSystem,
    ) -> Self {
        QueryDb {
            sys: OnceLock::from(Some(Box::new(sys))),
            ..QueryDb::new(source, digest, units, true)
        }
    }

    /// The elaborated system of the stored source, memoised. `None` when
    /// the stored source fails to parse or elaborate.
    #[must_use]
    pub fn system(&self) -> Option<&ElaboratedSystem> {
        self.sys
            .get_or_init(|| {
                let program = logrel_lang::parse(&self.source).ok()?;
                logrel_lang::elaborate(&program).ok().map(Box::new)
            })
            .as_deref()
    }

    /// Looks up a green entry: present *and* computed under the same
    /// dependency digest.
    #[must_use]
    pub fn green(&self, query: &str, dep: u64) -> Option<&Payload> {
        if !self.elab_ok {
            return None;
        }
        self.queries
            .get(query)
            .filter(|e| e.dep == dep)
            .map(|e| &e.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_lang::parse;
    use logrel_lang::subspec::split_units;

    const SRC: &str = r#"
program p {
    communicator s : float period 10 sensor;
    communicator u : float period 10 lrc 0.9;
    module m {
        start mode main period 10 {
            invoke ctrl reads s[0] writes u[1];
        }
    }
    architecture {
        host h1 reliability 0.99;
        sensor sn reliability 0.999;
        wcet ctrl on h1 2;
        wctt ctrl on h1 1;
    }
    map {
        ctrl -> h1;
        bind s -> sn;
    }
}
"#;

    #[test]
    fn wcet_edit_dirties_only_sched() {
        let u1 = split_units(&parse(SRC).unwrap());
        let edited = SRC.replace("wcet ctrl on h1 2;", "wcet ctrl on h1 3;");
        let u2 = split_units(&parse(&edited).unwrap());
        assert_ne!(dep_digest("sched", &u1), dep_digest("sched", &u2));
        for q in ["lint", "srg", "ecode", "tv", "header"] {
            assert_eq!(dep_digest(q, &u1), dep_digest(q, &u2), "{q} dirtied");
        }
    }

    #[test]
    fn line_shift_dirties_span_carrying_queries_only() {
        // An inserted blank line changes no canonical text, but cached
        // diagnostics embed positions: lint/ecode/tv must go red while
        // the span-free queries stay green.
        let u1 = split_units(&parse(SRC).unwrap());
        let edited = SRC.replacen("    module m {", "\n    module m {", 1);
        let u2 = split_units(&parse(&edited).unwrap());
        for q in ["lint", "ecode", "tv"] {
            assert_ne!(dep_digest(q, &u1), dep_digest(q, &u2), "{q} stayed green");
        }
        for q in ["srg", "sched", "header"] {
            assert_eq!(dep_digest(q, &u1), dep_digest(q, &u2), "{q} dirtied");
        }
    }

    #[test]
    fn lrc_edit_dirties_lint_and_tv_but_not_srg_sched_ecode() {
        let u1 = split_units(&parse(SRC).unwrap());
        let edited = SRC.replace("lrc 0.9;", "lrc 0.95;");
        let u2 = split_units(&parse(&edited).unwrap());
        assert_ne!(dep_digest("lint", &u1), dep_digest("lint", &u2));
        assert_ne!(dep_digest("tv", &u1), dep_digest("tv", &u2));
        for q in ["srg", "sched", "ecode", "header"] {
            assert_eq!(dep_digest(q, &u1), dep_digest(q, &u2), "{q} dirtied");
        }
    }

    #[test]
    fn host_reliability_edit_dirties_srg_but_not_sched() {
        let u1 = split_units(&parse(SRC).unwrap());
        let edited = SRC.replace("host h1 reliability 0.99;", "host h1 reliability 0.98;");
        let u2 = split_units(&parse(&edited).unwrap());
        assert_ne!(dep_digest("srg", &u1), dep_digest("srg", &u2));
        assert_eq!(dep_digest("sched", &u1), dep_digest("sched", &u2));
        assert_eq!(dep_digest("ecode", &u1), dep_digest("ecode", &u2));
    }

    #[test]
    fn digests_differ_between_queries_over_identical_deps() {
        let units = split_units(&parse(SRC).unwrap());
        assert_ne!(dep_digest("lint", &units), dep_digest("check_report", &units));
    }

    /// The analysis elaborates its source once and hands that system on
    /// in the db: the memo is filled before anyone asks for it.
    #[test]
    fn analyses_leave_their_elaborated_system_in_the_db() {
        use crate::engine::{analyze_source, cached_report, Report};
        use logrel_obs::NoopSink;
        let analysed = analyze_source(SRC, "p.htl", None, &mut NoopSink)
            .db
            .unwrap();
        let (_, reported, _) = cached_report(SRC, "check_report", None, &mut NoopSink, || Report {
            errors: 0,
            stdout: String::new(),
            stderr: String::new(),
        });
        for db in [analysed, reported.unwrap()] {
            let sys = db.sys.get().expect("memo filled by the analysis");
            assert_eq!(sys.as_ref().map(|s| s.name.as_str()), Some("p"));
        }
        let broken = SRC.replace("ctrl -> h1;", "ctrl -> h9;");
        let db = analyze_source(&broken, "p.htl", None, &mut NoopSink)
            .db
            .unwrap();
        assert!(!db.elab_ok);
        assert!(db.system().is_none());
    }

    #[test]
    fn green_requires_matching_dep_and_elab_ok() {
        let p = parse(SRC).unwrap();
        let units = split_units(&p);
        let dep = dep_digest("sched", &units);
        let mut db = QueryDb::new("src".into(), 1, units, true);
        db.queries.insert(
            "sched".into(),
            QueryEntry { dep, payload: Payload::Sched { ok: true, message: String::new() } },
        );
        assert!(db.green("sched", dep).is_some());
        assert!(db.green("sched", dep ^ 1).is_none());
        assert!(db.green("srg", dep).is_none());
        db.elab_ok = false;
        assert!(db.green("sched", dep).is_none());
    }
}
