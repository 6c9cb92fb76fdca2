//! Structured fuzz of the `.logrel-cache` reader. Caches of every shipped
//! spec and of the lint corpus get one structural mutation each: a line
//! dropped, duplicated or swapped with another, a `query` line's payload
//! count or the `source` length edited. The checksum is then recomputed,
//! so every mutant reaches the structural checks behind it. The reader
//! must come back `Invalid` or load a db; a loaded db must leave a warm
//! analysis byte-identical to a cold one. Nothing may panic.

use logrel_lang::subspec::fnv1a;
use logrel_obs::NoopSink;
use logrel_query::cache::{parse_text, to_text};
use logrel_query::{analyze_source, load, AnalysisOutcome, LoadOutcome};
use std::path::Path;

/// Every shipped spec and lint-corpus spec, as `(label, source)`.
fn specs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["assets", "examples/htl", "tests/assets"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "htl") {
                files.push(path);
            }
        }
    }
    files.sort();
    assert!(files.len() >= 10, "specs: {files:?}");
    files
        .iter()
        .map(|p| {
            let label = p.file_name().unwrap().to_string_lossy().into_owned();
            (label, std::fs::read_to_string(p).unwrap())
        })
        .collect()
}

/// `lines` (the cache body without its checksum line) joined, with a
/// checksum recomputed over them.
fn with_checksum(lines: &[String]) -> String {
    let mut body: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let sum = fnv1a(body.as_bytes());
    body.push_str(&format!("checksum {sum:016x}\n"));
    body
}

/// The body lines of a cache text: every line but the checksum.
fn body_lines(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert!(lines.pop().is_some_and(|l| l.starts_with("checksum ")));
    lines
}

/// The counts spliced into a `query` or `source` line.
fn edited_counts(count: u64) -> Vec<String> {
    let mut counts = vec![
        0,
        count.saturating_sub(1),
        count + 1,
        count * 2 + 7,
        u64::from(u32::MAX),
        u64::MAX,
    ];
    counts.dedup();
    let mut out: Vec<String> = counts.iter().map(u64::to_string).collect();
    out.extend([
        "18446744073709551616".to_owned(),
        "-1".to_owned(),
        String::new(),
    ]);
    out
}

/// Every single-mutation variant of `lines`, checksums recomputed.
fn mutants(lines: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let n = lines.len();
    for i in 0..n {
        let mut dropped = lines.to_vec();
        dropped.remove(i);
        out.push(with_checksum(&dropped));
        let mut duplicated = lines.to_vec();
        duplicated.insert(i, lines[i].clone());
        out.push(with_checksum(&duplicated));
        // Swaps with the next line and with lines a stride away reach
        // pairs inside one payload and pairs across records.
        for j in [i + 1, i + 3, i + 17, n - 1 - i % n] {
            if j < n && j != i && lines[i] != lines[j] {
                let mut swapped = lines.to_vec();
                swapped.swap(i, j);
                out.push(with_checksum(&swapped));
            }
        }
    }
    for (i, line) in lines.iter().enumerate() {
        let (head, count) = if let Some(rest) = line.strip_prefix("query ") {
            let (head, count) = rest.rsplit_once(' ').unwrap();
            (format!("query {head} "), count)
        } else if let Some(count) = line.strip_prefix("source ") {
            ("source ".to_owned(), count)
        } else {
            continue;
        };
        for edited in edited_counts(count.parse().unwrap()) {
            let mut mutant = lines.to_vec();
            mutant[i] = format!("{head}{edited}");
            out.push(with_checksum(&mutant));
        }
    }
    out
}

fn same_report(a: &AnalysisOutcome, b: &AnalysisOutcome) -> bool {
    (&a.stdout, &a.stderr, a.errors) == (&b.stdout, &b.stderr, b.errors)
}

#[test]
fn structured_mutants_are_invalid_or_analyse_like_a_cold_run() {
    let (mut loaded, mut invalid) = (0usize, 0usize);
    for (label, source) in specs() {
        let cold = analyze_source(&source, &label, None, &mut NoopSink);
        // The caches mutated: the one a cold analysis writes, and the one
        // a warm analysis of a WCET-edited parent writes.
        let mut bases = vec![cold.db.clone()];
        let edited = source.replacen("wcet ", "wcet  ", 1);
        if edited != source {
            let parent = analyze_source(&edited, &label, None, &mut NoopSink);
            bases.push(parent.db);
        }
        for db in bases.into_iter().flatten() {
            let text = to_text(&db);
            assert!(
                parse_text(&text).is_ok(),
                "{label}: unmutated cache rejected"
            );
            for mutant in mutants(&body_lines(&text)) {
                match parse_text(&mutant) {
                    Err(_) => invalid += 1,
                    Ok(prior) => {
                        loaded += 1;
                        let warm = analyze_source(&source, &label, Some(&prior), &mut NoopSink);
                        assert!(
                            same_report(&warm, &cold),
                            "{label}: a loaded mutant changed the analysis\n\
                             --- mutant ---\n{mutant}\n--- warm ---\n{}{}\n--- cold ---\n{}{}",
                            warm.stdout,
                            warm.stderr,
                            cold.stdout,
                            cold.stderr
                        );
                    }
                }
            }
        }
    }
    // Both outcomes occur: the mutations reach past the checksum, and
    // some of them (a dropped or duplicated record with an empty
    // payload) leave a usable cache.
    assert!(invalid > 1000, "{invalid} mutants rejected");
    assert!(loaded > 10, "{loaded} mutants loaded");
}

/// A cache with a valid checksum whose first `query` line declares
/// `u64::MAX` payload lines. The reader used to size a vector from that
/// count and abort with a capacity overflow; the count now only bounds
/// the loop, so the file reads as truncated.
#[test]
fn huge_query_count_is_rejected_not_allocated() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/assets/cache/huge_query_count.logrel-cache");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains(" 18446744073709551615\n"),
        "the pin lost its count"
    );
    assert_eq!(
        with_checksum(&body_lines(&text)),
        text,
        "the pin's checksum is stale"
    );
    match load(path.to_str().unwrap()) {
        LoadOutcome::Invalid(reason) => {
            assert_eq!(reason, "truncated query payload");
        }
        other => panic!("huge count accepted: {other:?}"),
    }
}
