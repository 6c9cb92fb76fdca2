//! The `.logrel-cache` file: a versioned, checksummed text serialization
//! of a [`QueryDb`].
//!
//! Reads **fail closed**: any structural defect — bad magic, engine
//! version mismatch, truncation, checksum or payload-hash failure,
//! unparseable stored source, or stored hashes that disagree with ones
//! recomputed from the embedded source — yields [`LoadOutcome::Invalid`]
//! and the caller falls back to cold analysis. A cache can make analysis
//! slower, never wrong.
//!
//! ```text
//! logrel-cache v2
//! engine <N>
//! digest <16 hex>
//! elab_ok <0|1>
//! source <byte length>
//! <spec source, verbatim>
//! unit <16 hex> <name>        (one per subspec unit, in order)
//! query <name> <dep 16 hex> <kind> <payload 16 hex> <payload line count>
//! <payload lines>
//! checksum <16 hex>           (FNV-1a 64 of everything above)
//! ```
//!
//! Each `query` record carries the FNV-1a 64 of its own payload lines
//! (each with its newline). The payload formats are positional — an SRG
//! value's place is its communicator's, a label or help line belongs to
//! the diagnostic above it — so a record whose lines were reordered,
//! moved between records or re-attached to another diagnostic would
//! still parse, and render differently from a cold run. The per-record
//! hash rejects such a record even when the file checksum was rewritten
//! over it. Like the file checksum it detects damage, not forgery: the
//! cache is not authenticated.

use crate::db::{QueryDb, QueryEntry, ENGINE_VERSION};
use crate::payload;
use logrel_lang::subspec::{fnv1a, split_units, units_digest, FnvWriter};
use std::collections::BTreeMap;

/// Magic first line of every cache file.
const MAGIC: &str = "logrel-cache v2";

/// Result of attempting to load a cache file.
#[derive(Debug)]
pub enum LoadOutcome {
    /// A structurally valid database.
    Loaded(Box<QueryDb>),
    /// No file at the given path: cold start, no warning.
    Missing,
    /// The file exists but is unusable; the reason is for the warning.
    Invalid(String),
}

/// Serializes `db` to the cache-file text, checksum included.
#[must_use]
pub fn to_text(db: &QueryDb) -> String {
    let mut body = String::new();
    body.push_str(MAGIC);
    body.push('\n');
    body.push_str(&format!("engine {ENGINE_VERSION}\n"));
    body.push_str(&format!("digest {:016x}\n", db.digest));
    body.push_str(&format!("elab_ok {}\n", u8::from(db.elab_ok)));
    body.push_str(&format!("source {}\n", db.source.len()));
    body.push_str(&db.source);
    if !db.source.ends_with('\n') {
        body.push('\n');
    }
    for u in &db.units {
        body.push_str(&format!("unit {:016x} {}\n", u.hash, u.name));
    }
    for (name, entry) in &db.queries {
        let lines = payload::to_lines(&entry.payload);
        body.push_str(&format!(
            "query {name} {:016x} {} {:016x} {}\n",
            entry.dep,
            entry.payload.kind(),
            payload_sum(&lines),
            lines.len()
        ));
        for line in lines {
            body.push_str(&line);
            body.push('\n');
        }
    }
    let sum = fnv1a(body.as_bytes());
    body.push_str(&format!("checksum {sum:016x}\n"));
    body
}

/// FNV-1a 64 of a query record's payload lines, each with its newline.
fn payload_sum<S: AsRef<str>>(lines: &[S]) -> u64 {
    let mut w = FnvWriter::new();
    for line in lines {
        w.write_bytes(line.as_ref().as_bytes());
        w.write_bytes(b"\n");
    }
    w.finish()
}

/// Takes the first line off `rest`, advancing it past the newline.
fn take_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let (line, tail) = rest.split_once('\n')?;
    *rest = tail;
    Some(line)
}

fn parse_hex(s: &str) -> Option<u64> {
    (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok()).flatten()
}

/// Parses cache-file text into a database, verifying the checksum, the
/// engine version, and that the stored digest/units agree with values
/// recomputed from the embedded source.
///
/// # Errors
///
/// Returns a human-readable reason for the fallback warning.
pub fn parse_text(text: &str) -> Result<QueryDb, String> {
    // Checksum first: everything else assumes an untampered body.
    let stripped = text.strip_suffix('\n').ok_or("truncated file")?;
    let (_, last) = stripped.rsplit_once('\n').ok_or("truncated file")?;
    let sum = parse_hex(last.strip_prefix("checksum ").ok_or("missing checksum line")?)
        .ok_or("malformed checksum line")?;
    let body = &text[..text.len() - last.len() - 1];
    if fnv1a(body.as_bytes()) != sum {
        return Err("checksum mismatch".into());
    }

    let mut rest = body;
    if take_line(&mut rest) != Some(MAGIC) {
        return Err("not a logrel-cache file".into());
    }
    let engine: u32 = take_line(&mut rest)
        .and_then(|l| l.strip_prefix("engine "))
        .and_then(|v| v.parse().ok())
        .ok_or("malformed engine line")?;
    if engine != ENGINE_VERSION {
        return Err(format!(
            "engine version {engine} != current {ENGINE_VERSION}"
        ));
    }
    let digest = take_line(&mut rest)
        .and_then(|l| l.strip_prefix("digest "))
        .and_then(parse_hex)
        .ok_or("malformed digest line")?;
    let elab_ok = match take_line(&mut rest).and_then(|l| l.strip_prefix("elab_ok ")) {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("malformed elab_ok line".into()),
    };
    let source_len: usize = take_line(&mut rest)
        .and_then(|l| l.strip_prefix("source "))
        .and_then(|v| v.parse().ok())
        .ok_or("malformed source line")?;
    if rest.len() < source_len || !rest.is_char_boundary(source_len) {
        return Err("truncated stored source".into());
    }
    let source = rest[..source_len].to_owned();
    rest = &rest[source_len..];
    if !source.ends_with('\n') {
        rest = rest.strip_prefix('\n').ok_or("truncated stored source")?;
    }

    // Cross-check the digest and units against the embedded source: a
    // cache whose hashes do not reproduce is not trusted.
    let program =
        logrel_lang::parse(&source).map_err(|e| format!("stored source does not parse: {e}"))?;
    let units = split_units(&program);
    if units_digest(&units) != digest {
        return Err("stored digest does not match the stored source".into());
    }

    let mut stored_units = Vec::new();
    let mut queries = BTreeMap::new();
    while !rest.is_empty() {
        let line = take_line(&mut rest).ok_or("truncated record")?;
        if let Some(u) = line.strip_prefix("unit ") {
            let (hash, name) = u.split_once(' ').ok_or("malformed unit line")?;
            let hash = parse_hex(hash).ok_or("malformed unit hash")?;
            stored_units.push((name.to_owned(), hash));
        } else if let Some(q) = line.strip_prefix("query ") {
            let fields: Vec<&str> = q.split(' ').collect();
            let [name, dep, kind, sum, count] = fields[..] else {
                return Err("malformed query line".into());
            };
            let dep = parse_hex(dep).ok_or("malformed query digest")?;
            let sum = parse_hex(sum).ok_or("malformed payload hash")?;
            let count: usize = count.parse().map_err(|_| "malformed query line count")?;
            // The count is untrusted: it bounds the loop, never an
            // allocation, so a count past the lines left is a truncation.
            let mut lines = Vec::new();
            for _ in 0..count {
                lines.push(take_line(&mut rest).ok_or("truncated query payload")?);
            }
            if payload_sum(&lines) != sum {
                return Err(format!("`{name}` payload does not match its hash"));
            }
            let payload = payload::from_lines(kind, &lines)
                .ok_or_else(|| format!("malformed `{name}` payload"))?;
            queries.insert(name.to_owned(), QueryEntry { dep, payload });
        } else {
            return Err(format!("unrecognized record `{line}`"));
        }
    }
    let recomputed: Vec<(String, u64)> =
        units.iter().map(|u| (u.name.clone(), u.hash)).collect();
    if stored_units != recomputed {
        return Err("stored units do not match the stored source".into());
    }

    let mut db = QueryDb::new(source, digest, units, elab_ok);
    db.queries = queries;
    Ok(db)
}

/// Loads the cache at `path`, failing closed.
#[must_use]
pub fn load(path: &str) -> LoadOutcome {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Missing,
        Err(e) => return LoadOutcome::Invalid(format!("unreadable: {e}")),
    };
    let text = match String::from_utf8(bytes) {
        Ok(t) => t,
        Err(_) => return LoadOutcome::Invalid("not valid UTF-8".into()),
    };
    match parse_text(&text) {
        Ok(db) => LoadOutcome::Loaded(Box::new(db)),
        Err(reason) => LoadOutcome::Invalid(reason),
    }
}

/// Writes `db` to `path` atomically.
///
/// The text is written to a uniquely named temp file in the same
/// directory and `rename`d into place, so a concurrent reader observes
/// either the old complete file or the new complete file, never a torn
/// interleaving — the steady state of a job service analyzing the same
/// spec from several workers. (Same-directory matters: `rename` is only
/// atomic within a filesystem.)
///
/// # Errors
///
/// Propagates the I/O error; callers degrade to a warning (a cache that
/// cannot be written only costs the next run its warm start).
pub fn save(db: &QueryDb, path: &str) -> std::io::Result<()> {
    let path = std::path::Path::new(path);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    // Unique per process+thread: concurrent writers in one process get
    // distinct temp names; losers of the final rename race still leave a
    // complete file behind.
    let tmp_name = format!(
        ".{}.tmp.{}.{:?}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("logrel-cache"),
        std::process::id(),
        std::thread::current().id(),
    );
    let tmp = dir.unwrap_or_else(|| std::path::Path::new(".")).join(tmp_name);
    std::fs::write(&tmp, to_text(db))?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::dep_digest;
    use crate::payload::Payload;
    use logrel_lang::parse;

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

    fn sample_db() -> QueryDb {
        // The db stores the raw source: units (including `layout`, which
        // hashes spans) must be computed from the very text stored.
        let program = parse(SRC).unwrap();
        let source = SRC.to_string();
        let units = split_units(&program);
        let dep = dep_digest("sched", &units);
        let mut db = QueryDb::new(source, units_digest(&units), units, true);
        db.queries.insert(
            "sched".into(),
            QueryEntry { dep, payload: Payload::Sched { ok: true, message: String::new() } },
        );
        db.queries.insert(
            "lint".into(),
            QueryEntry {
                dep: dep_digest("lint", &db.units),
                payload: Payload::Diags(vec![]),
            },
        );
        db
    }

    #[test]
    fn round_trips() {
        let db = sample_db();
        let text = to_text(&db);
        assert_eq!(parse_text(&text).unwrap(), db);
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_roundtrips_clean() {
        // Bit-flip robustness: flipping any one byte must never panic and
        // must be caught by the checksum (ASCII text: flips change bytes).
        let db = sample_db();
        let text = to_text(&db);
        let bytes = text.as_bytes();
        for i in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.to_vec();
            corrupt[i] ^= 0x01;
            if let Ok(s) = String::from_utf8(corrupt) {
                assert!(parse_text(&s).is_err(), "flip at byte {i} accepted");
            }
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let text = to_text(&sample_db());
        for cut in [0, 1, 10, text.len() / 2, text.len() - 2, text.len() - 1] {
            let t = &text[..cut];
            if std::str::from_utf8(t.as_bytes()).is_ok() {
                assert!(parse_text(t).is_err(), "truncation at {cut} accepted");
            }
        }
    }

    #[test]
    fn engine_version_mismatch_is_rejected() {
        let text = to_text(&sample_db());
        // Forge a consistent file with a wrong engine version: even with a
        // valid checksum it must be rejected.
        let body = text.replace(&format!("engine {ENGINE_VERSION}\n"), "engine 999\n");
        let body = &body[..body.rfind("checksum ").unwrap()];
        let forged = format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
        let err = parse_text(&forged).unwrap_err();
        assert!(err.contains("engine version"), "{err}");
    }

    #[test]
    fn tampered_unit_hash_is_rejected_even_with_valid_checksum() {
        let db = sample_db();
        let mut tampered = db.clone();
        tampered.units[2].hash ^= 1;
        let err = parse_text(&to_text(&tampered)).unwrap_err();
        assert!(err.contains("units"), "{err}");
        let mut bad_digest = db;
        bad_digest.digest ^= 1;
        let err = parse_text(&to_text(&bad_digest)).unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn load_distinguishes_missing_from_invalid() {
        let dir = std::env::temp_dir().join("logrel-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.logrel-cache");
        let _ = std::fs::remove_file(&missing);
        assert!(matches!(load(missing.to_str().unwrap()), LoadOutcome::Missing));
        let garbage = dir.join("garbage.logrel-cache");
        std::fs::write(&garbage, b"\xff\xfe not utf8").unwrap();
        assert!(matches!(
            load(garbage.to_str().unwrap()),
            LoadOutcome::Invalid(_)
        ));
        let stale = dir.join("ok.logrel-cache");
        std::fs::write(&stale, to_text(&sample_db())).unwrap();
        assert!(matches!(load(stale.to_str().unwrap()), LoadOutcome::Loaded(_)));
    }

    /// Concurrent saves against concurrent loads: a reader must only
    /// ever observe a complete file (the fail-closed checksum would
    /// expose a torn write as `Invalid`). This is the serve steady state
    /// — many workers analyzing the same spec, each persisting the db.
    #[test]
    fn concurrent_saves_never_expose_a_partial_file() {
        let dir = std::env::temp_dir().join("logrel-cache-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.logrel-cache");
        let path = path.to_str().unwrap().to_string();
        // Two variants of the db, so the file content actually changes
        // between saves (variant B drops one cached query).
        let db_a = sample_db();
        let mut db_b = sample_db();
        db_b.queries.remove("lint");
        save(&db_a, &path).unwrap();

        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for flavor in 0..2usize {
                let (stop, path, db_a, db_b) = (&stop, &path, &db_a, &db_b);
                scope.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let db = if flavor == 0 { db_a } else { db_b };
                        save(db, path).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let (stop, path) = (&stop, &path);
                scope.spawn(move || {
                    for _ in 0..300 {
                        match load(path) {
                            LoadOutcome::Loaded(_) => {}
                            LoadOutcome::Missing => panic!("cache vanished mid-save"),
                            LoadOutcome::Invalid(reason) => {
                                panic!("reader observed a torn cache: {reason}")
                            }
                        }
                    }
                    stop.store(true, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
    }
}
