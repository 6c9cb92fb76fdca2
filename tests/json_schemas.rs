//! Emit → parse round trips for every JSON schema the toolchain writes,
//! read back with the one reader in `logrel_core::json`:
//!
//! * `logrel-certificate-v1` and `logrel-diagnostics-v1` — the golden
//!   documents under `tests/assets/certify/` (which `certify_golden` pins
//!   byte-for-byte to the emitters), with every `*_bits` field checked
//!   against its sibling decimal;
//! * `logrel-job-status-v1` — status lines whose message needs every kind
//!   of escape;
//! * `logrel-job-v1` — mutated request lines never panic the request
//!   parser.
//!
//! `logrel-metrics-v1` (pretty document ≡ wire line) is covered next to
//! its renderer in `crates/obs`.

use std::fs;
use std::path::{Path, PathBuf};

use logrel::core::json::{self, Json};
use logrel::serve::proto;
use proptest::prelude::*;

fn golden_documents() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/assets/certify");
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_str().is_some_and(|s| s.ends_with(".json.expected")))
        .collect();
    files.sort();
    files
}

/// Checks every `<key>_bits` hex field in `doc` against the bits of its
/// sibling decimal `<key>`; returns how many pairs it checked.
fn check_bits(doc: &Json, at: &Path) -> usize {
    match doc {
        Json::Obj(fields) => {
            let mut checked = 0;
            for (key, v) in fields {
                if let Some(base) = key.strip_suffix("_bits") {
                    let hex = v.as_str().expect("a `_bits` field is a string");
                    let bits = u64::from_str_radix(hex, 16).expect("a `_bits` field is hex");
                    let Some(Json::Num(raw)) = doc.get(base) else {
                        panic!("{}: `{key}` has no numeric sibling `{base}`", at.display());
                    };
                    let decimal: f64 = raw.parse().unwrap();
                    assert_eq!(
                        decimal.to_bits(),
                        bits,
                        "{}: `{base}` = {raw} disagrees with `{key}` = {hex}",
                        at.display()
                    );
                    checked += 1;
                }
                checked += check_bits(v, at);
            }
            checked
        }
        Json::Arr(items) => items.iter().map(|v| check_bits(v, at)).sum(),
        _ => 0,
    }
}

#[test]
fn golden_certificates_and_diagnostics_parse_with_exact_bits() {
    let files = golden_documents();
    assert_eq!(files.len(), 5, "four certificates and one lint document");
    for path in &files {
        let text = fs::read_to_string(path).unwrap();
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let schema = doc.get("schema").and_then(Json::as_str);
        let name = path.file_name().unwrap().to_str().unwrap();
        if name.starts_with("lint_") {
            assert_eq!(schema, Some("logrel-diagnostics-v1"), "{name}");
            let Some(Json::Arr(diags)) = doc.get("diagnostics") else {
                panic!("{name}: no diagnostics array");
            };
            let warnings = doc.get("warnings").and_then(Json::as_u64).unwrap();
            let errors = doc.get("errors").and_then(Json::as_u64).unwrap();
            assert_eq!(diags.len() as u64, warnings + errors, "{name}");
        } else {
            assert_eq!(schema, Some("logrel-certificate-v1"), "{name}");
            // point, lo and hi per communicator at least.
            assert!(
                check_bits(&doc, path) >= 3,
                "{name}: no `_bits` fields checked"
            );
        }
    }
}

#[test]
fn status_lines_round_trip_every_field() {
    let message = "bad \"spec\" at C:\\specs\\a.htl\nline two\u{1}é";
    let line = proto::status_rejected("job \"7\"", proto::S_MALFORMED, message);
    assert!(!line.contains('\n'), "{line}");
    let doc = json::parse(&line).unwrap();
    assert_eq!(
        doc,
        Json::Obj(vec![
            ("schema".into(), Json::Str("logrel-job-status-v1".into())),
            ("id".into(), Json::Str("job \"7\"".into())),
            ("status".into(), Json::Str("rejected".into())),
            ("code".into(), Json::Str("S001".into())),
            ("message".into(), Json::Str(message.into())),
        ])
    );
    let done = json::parse(&proto::status_done("a\\b", true)).unwrap();
    assert_eq!(done.get("id").and_then(Json::as_str), Some("a\\b"));
    assert_eq!(done.get("cache").and_then(Json::as_str), Some("hit"));
}

/// A valid `logrel-job-v1` line, the seed for the mutation cases.
const JOB: &str = r#"{"schema":"logrel-job-v1","id":"j1","spec_path":"examples/htl/infusion_pump.htl","scenario_path":"examples/scenarios/pump_outage.scn","rounds":500,"replications":2,"seed":7,"lanes":8}"#;

#[test]
fn the_seed_job_line_is_accepted() {
    assert!(matches!(
        proto::parse_request(JOB),
        Ok(proto::Request::Job(_))
    ));
}

proptest! {
    #[test]
    fn random_bytes_never_panic_the_request_parser(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        let _ = proto::parse_request(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_job_lines_never_panic_the_request_parser(
        edits in proptest::collection::vec((0usize..512, 0u8..=255, any::<bool>()), 1..8),
    ) {
        // Overwrite or insert one byte per edit.
        let mut bytes = JOB.as_bytes().to_vec();
        for (at, b, insert) in edits {
            let at = at % bytes.len();
            if insert {
                bytes.insert(at, b);
            } else {
                bytes[at] = b;
            }
        }
        let line = String::from_utf8_lossy(&bytes);
        if let Err((_, msg)) = proto::parse_request(&line) {
            prop_assert!(!msg.is_empty(), "{line}");
        }
    }
}
