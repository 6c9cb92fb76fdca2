//! Golden-file tests for the lint pass: every defective HTL program in
//! `tests/assets/*.htl` is linted and the rendered diagnostics are compared
//! byte-for-byte against the sibling `*.expected` file.
//!
//! Regenerate the expectations after an intentional change with
//! `UPDATE_EXPECT=1 cargo test --test lint_golden`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/assets")
}

fn rendered(path: &Path) -> String {
    let source = fs::read_to_string(path).unwrap();
    let name = path.file_name().unwrap().to_str().unwrap();
    let mut out = String::new();
    for d in logrel::lint::lint_source(&source) {
        out.push_str(&d.render(name));
        out.push('\n');
    }
    out
}

fn corpus() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("htl"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_matches_expected_diagnostics() {
    let update = std::env::var_os("UPDATE_EXPECT").is_some();
    let files = corpus();
    assert!(files.len() >= 10, "corpus too small: {} files", files.len());
    for path in &files {
        let got = rendered(path);
        assert!(
            !got.is_empty(),
            "{} is part of the defect corpus but lints clean",
            path.display()
        );
        let expected_path = path.with_extension("expected");
        if update {
            fs::write(&expected_path, &got).unwrap();
        } else {
            let expected = fs::read_to_string(&expected_path)
                .unwrap_or_else(|_| panic!("missing {}", expected_path.display()));
            assert_eq!(
                got,
                expected,
                "diagnostics changed for {} (set UPDATE_EXPECT=1 to regenerate)",
                path.display()
            );
        }
    }
}

#[test]
fn corpus_exercises_many_distinct_codes() {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for path in corpus() {
        for line in rendered(&path).lines() {
            let code = line.split(':').next().unwrap_or("");
            if code.len() == 4 && (code.starts_with('L') || code.starts_with('E')) {
                seen.insert(code.to_owned());
            }
        }
    }
    assert!(
        seen.len() >= 7,
        "expected at least 7 distinct diagnostic codes, got {seen:?}"
    );
}

#[test]
fn shipped_assets_lint_without_errors() {
    // The shipped example specifications must stay free of error-severity
    // findings (warnings such as an unbound backup sensor are fine).
    for name in ["three_tank.htl", "steer_by_wire.htl"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("assets").join(name);
        let source = fs::read_to_string(&path).unwrap();
        let errors: Vec<_> = logrel::lint::lint_source(&source)
            .into_iter()
            .filter(|d| d.severity == logrel::lint::Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{name}: {errors:?}");
    }
}

#[test]
fn check_and_certify_share_the_lint_front_end() {
    // Every command parses and elaborates through the lint crate's front
    // end, so a program that fails there gets the golden lint diagnosis
    // from `check` and `certify` too, followed by the closing summary.
    let mut pinned = 0;
    for path in corpus() {
        let name = path.file_name().unwrap().to_str().unwrap();
        let commands: &[&str] = if name.starts_with("restriction_") {
            &["check"]
        } else if name == "lint_default_mismatch.htl" {
            &["check", "certify"]
        } else {
            continue;
        };
        let expected = fs::read_to_string(path.with_extension("expected")).unwrap();
        let errors = expected.lines().filter(|l| l.contains(":error:")).count();
        for command in commands {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_htlc"))
                .current_dir(corpus_dir())
                .args([command, name])
                .output()
                .expect("htlc runs");
            assert_eq!(out.status.code(), Some(2), "htlc {command} {name}");
            assert!(out.stdout.is_empty(), "htlc {command} {name} wrote stdout");
            assert_eq!(
                String::from_utf8(out.stderr).unwrap(),
                format!("{expected}htlc: {errors} error(s) emitted\n"),
                "htlc {command} {name}"
            );
            pinned += 1;
        }
    }
    assert_eq!(pinned, 6, "four restriction specs and the default mismatch");
}
