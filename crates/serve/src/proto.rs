//! The line-delimited job protocol: `logrel-job-v1` requests in,
//! `logrel-metrics-v1` results and `logrel-job-status-v1` status lines
//! out.
//!
//! Every message is one line of JSON, read and escaped by the one JSON
//! module, [`logrel_core::json`] (re-exported here as [`parse_json`],
//! [`Json`] and [`escape`]). Its nesting cap makes the reader total: a
//! line of any depth is a value or an `S001`, never a stack overflow.
//!
//! Structured rejections carry stable `S`-codes:
//!
//! | code | meaning |
//! |------|---------|
//! | S001 | malformed request (bad JSON, wrong schema, bad field) |
//! | S002 | queue full — resubmit later |
//! | S003 | spec failed to compile |
//! | S004 | bad scenario or campaign parameters |
//! | S005 | service is shutting down |

pub use logrel_core::json::{escape, parse as parse_json, Json};
use logrel_sim::LaneMode;

/// Stable rejection code: malformed request line.
pub const S_MALFORMED: &str = "S001";
/// Stable rejection code: admission queue full.
pub const S_QUEUE_FULL: &str = "S002";
/// Stable rejection code: spec failed analysis/compilation.
pub const S_COMPILE: &str = "S003";
/// Stable rejection code: bad scenario or campaign parameters.
pub const S_CAMPAIGN: &str = "S004";
/// Stable rejection code: service draining, no new jobs.
pub const S_SHUTDOWN: &str = "S005";

/// A structured job rejection: a stable `S`-code plus a human-readable
/// message, rendered as a `logrel-job-status-v1` line by
/// [`status_rejected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// One of the `S_*` codes above.
    pub code: &'static str,
    /// Human-readable detail (embedded JSON-escaped in the status line).
    pub message: String,
}

impl JobError {
    /// A rejection with the given code and message.
    #[must_use]
    pub fn new(code: &'static str, message: String) -> Self {
        JobError { code, message }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for JobError {}

/// Where a job's spec or scenario text comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// Text inline in the request.
    Inline(String),
    /// A path the server reads (relative paths resolve against the
    /// server's working directory).
    Path(String),
}

/// One parsed `logrel-job-v1` request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen job id, echoed on every response line.
    pub id: String,
    /// The HTL spec.
    pub spec: Source,
    /// The fault scenario script.
    pub scenario: Source,
    /// Rounds per replication (default 4000, matching `htlc inject`).
    pub rounds: u64,
    /// Replication count (default 8).
    pub replications: u64,
    /// Campaign base seed (default `0xC0FFEE`).
    pub seed: u64,
    /// Lane mode: `"auto"` (default), `"off"`, or a width 1..=64.
    pub lanes: LaneMode,
}

/// A request line, after schema dispatch.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a campaign job.
    Job(Box<JobRequest>),
    /// Emit the service's own metrics registry.
    Stats { id: String },
}

/// Parses one request line. On error, returns `(job id if recoverable,
/// message)` — the id lets the rejection line still correlate.
pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let doc = parse_json(line).map_err(|e| ("?".to_owned(), e))?;
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_owned();
    let fail = |msg: &str| Err((id.clone(), msg.to_owned()));
    match doc.get("schema").and_then(Json::as_str) {
        Some("logrel-job-v1") => {}
        Some(other) => return fail(&format!("unknown schema `{other}`")),
        None => return fail("missing `schema`"),
    }
    if id == "?" {
        return fail("missing `id`");
    }
    if let Some(op) = doc.get("op").and_then(Json::as_str) {
        return match op {
            "run" => parse_job(&doc, id.clone()).map_err(|m| (id, m)),
            "stats" => Ok(Request::Stats { id }),
            other => fail(&format!("unknown op `{other}`")),
        };
    }
    parse_job(&doc, id.clone()).map_err(|m| (id, m))
}

fn source_field(doc: &Json, inline: &str, path: &str) -> Result<Option<Source>, String> {
    match (doc.get(inline), doc.get(path)) {
        (Some(_), Some(_)) => Err(format!("both `{inline}` and `{path}` given")),
        (Some(v), None) => match v.as_str() {
            Some(s) => Ok(Some(Source::Inline(s.to_owned()))),
            None => Err(format!("`{inline}` must be a string")),
        },
        (None, Some(v)) => match v.as_str() {
            Some(s) => Ok(Some(Source::Path(s.to_owned()))),
            None => Err(format!("`{path}` must be a string")),
        },
        (None, None) => Ok(None),
    }
}

fn u64_field(doc: &Json, key: &str, default: u64) -> Result<u64, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn parse_job(doc: &Json, id: String) -> Result<Request, String> {
    let spec = source_field(doc, "spec", "spec_path")?.ok_or("missing `spec` or `spec_path`")?;
    let scenario = source_field(doc, "scenario", "scenario_path")?
        .ok_or("missing `scenario` or `scenario_path`")?;
    let lanes = match doc.get("lanes") {
        None => LaneMode::Auto,
        Some(Json::Str(s)) if s == "auto" => LaneMode::Auto,
        Some(Json::Str(s)) if s == "off" => LaneMode::Off,
        Some(v) => match v.as_u64() {
            Some(n @ 1..=64) => LaneMode::Width(n as u8),
            _ => return Err("`lanes` must be \"auto\", \"off\" or 1..=64".to_owned()),
        },
    };
    Ok(Request::Job(Box::new(JobRequest {
        id,
        spec,
        scenario,
        rounds: u64_field(doc, "rounds", 4_000)?,
        replications: u64_field(doc, "replications", 8)?,
        seed: u64_field(doc, "seed", 0xC0FFEE)?,
        lanes,
    })))
}

/// Renders the status line for a completed job.
#[must_use]
pub fn status_done(id: &str, cache_hit: bool) -> String {
    format!(
        "{{\"schema\":\"logrel-job-status-v1\",\"id\":\"{}\",\"status\":\"done\",\"cache\":\"{}\"}}",
        escape(id),
        if cache_hit { "hit" } else { "miss" },
    )
}

/// Renders the status line for a rejected job.
#[must_use]
pub fn status_rejected(id: &str, code: &str, message: &str) -> String {
    format!(
        "{{\"schema\":\"logrel-job-status-v1\",\"id\":\"{}\",\"status\":\"rejected\",\"code\":\"{}\",\"message\":\"{}\"}}",
        escape(id),
        escape(code),
        escape(message),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_job_with_defaults() {
        let line = r#"{"schema":"logrel-job-v1","id":"j1","spec":"program p {}","scenario_path":"s.fault"}"#;
        match parse_request(line).unwrap() {
            Request::Job(job) => {
                assert_eq!(job.id, "j1");
                assert_eq!(job.spec, Source::Inline("program p {}".to_owned()));
                assert_eq!(job.scenario, Source::Path("s.fault".to_owned()));
                assert_eq!(job.rounds, 4_000);
                assert_eq!(job.replications, 8);
                assert_eq!(job.seed, 0xC0FFEE);
                assert_eq!(job.lanes, LaneMode::Auto);
            }
            other => panic!("expected job, got {other:?}"),
        }
    }

    #[test]
    fn full_range_u64_seed_round_trips_exactly() {
        let line = format!(
            r#"{{"schema":"logrel-job-v1","id":"j","spec":"x","scenario":"y","seed":{}}}"#,
            u64::MAX
        );
        match parse_request(&line).unwrap() {
            Request::Job(job) => assert_eq!(job.seed, u64::MAX),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejections_keep_the_job_id_when_present() {
        let (id, msg) =
            parse_request(r#"{"schema":"logrel-job-v1","id":"j9"}"#).unwrap_err();
        assert_eq!(id, "j9");
        assert!(msg.contains("spec"), "{msg}");
        let (id, _) = parse_request("not json").unwrap_err();
        assert_eq!(id, "?");
    }

    #[test]
    fn schema_and_op_are_validated() {
        assert!(parse_request(r#"{"schema":"nope-v9","id":"a","spec":"x","scenario":"y"}"#)
            .is_err());
        assert!(matches!(
            parse_request(r#"{"schema":"logrel-job-v1","id":"a","op":"stats"}"#),
            Ok(Request::Stats { .. })
        ));
        assert!(parse_request(r#"{"schema":"logrel-job-v1","id":"a","op":"dance"}"#).is_err());
    }

    #[test]
    fn status_lines_are_single_line_json() {
        let done = status_done("j\"1", true);
        assert!(parse_json(&done).is_ok(), "{done}");
        assert!(!done.contains('\n'));
        let rej = status_rejected("j", S_QUEUE_FULL, "queue full\nretry");
        assert!(parse_json(&rej).is_ok(), "{rej}");
        assert!(!rej.contains('\n'));
    }
}
