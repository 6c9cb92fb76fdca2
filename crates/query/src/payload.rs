//! Cached query payloads: results stored structurally so a warm render
//! is byte-identical to a cold one.
//!
//! Diagnostics are stored with *unpromoted* severities and re-rendered
//! against the current file path at display time, so `--deny` and file
//! moves never invalidate a cache entry. SRG values are stored as the
//! exact `f64` bit pattern — two runs that agree numerically agree
//! byte-for-byte once formatted.

use logrel_lint::{Diagnostic, Severity};

/// A secondary label of a stored diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredLabel {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Label text.
    pub message: String,
}

/// One diagnostic, owned (codes become `String` so they survive the
/// cache round-trip).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredDiag {
    /// Stable code (`L001`, `E003`, `V002`, `R004`, `A001`, …).
    pub code: String,
    /// `true` for error severity (stored unpromoted).
    pub error: bool,
    /// Primary line.
    pub line: u32,
    /// Primary column.
    pub col: u32,
    /// One-line message.
    pub message: String,
    /// Secondary labels.
    pub labels: Vec<StoredLabel>,
    /// Optional help text.
    pub help: Option<String>,
}

impl StoredDiag {
    /// Captures a freshly computed diagnostic.
    #[must_use]
    fn from_diagnostic(d: &Diagnostic) -> Self {
        StoredDiag {
            code: d.code.to_owned(),
            error: d.severity == Severity::Error,
            line: d.span.line,
            col: d.span.col,
            message: d.message.clone(),
            labels: d
                .labels
                .iter()
                .map(|l| StoredLabel {
                    line: l.span.line,
                    col: l.span.col,
                    message: l.message.clone(),
                })
                .collect(),
            help: d.help.clone(),
        }
    }

    /// `true` if the diagnostic counts as an error under `deny`.
    #[must_use]
    pub fn is_error(&self, deny: bool) -> bool {
        self.error || deny
    }

    /// Renders exactly like [`Diagnostic::render`], promoting warnings
    /// when `deny` is set.
    #[must_use]
    pub fn render(&self, file: &str, deny: bool) -> String {
        let severity = if self.is_error(deny) { "error" } else { "warning" };
        let mut out = format!(
            "{}:{}:{}:{}:{}: {}",
            self.code, severity, file, self.line, self.col, self.message
        );
        for label in &self.labels {
            out.push_str(&format!(
                "\n    note: {}:{}:{}: {}",
                file, label.line, label.col, label.message
            ));
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("\n    help: {help}"));
        }
        out
    }
}

/// Captures a diagnostic list.
#[must_use]
pub fn store_diags(diags: &[Diagnostic]) -> Vec<StoredDiag> {
    diags.iter().map(StoredDiag::from_diagnostic).collect()
}

/// The result of one query, in cacheable form.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A diagnostic list (lint, E-code verification).
    Diags(Vec<StoredDiag>),
    /// SRG computation: per-communicator values (bit-exact), or the
    /// analysis error.
    Srg {
        /// `false` if the SRG fixpoint failed (cycles, unbound inputs).
        ok: bool,
        /// Error message when `!ok`.
        message: String,
        /// `(communicator name, f64 bit pattern)` in specification order.
        values: Vec<(String, u64)>,
    },
    /// Static reliability certification summary (interval SRG verdicts).
    Cert {
        /// `false` if certification could not run (cycles, unbound
        /// inputs); the counters are then meaningless.
        ok: bool,
        /// Error message when `!ok`.
        message: String,
        /// `true` when every constrained communicator is CERTIFIED.
        certified: bool,
        /// Number of REFUTED communicators.
        refuted: u64,
        /// Number of INDETERMINATE communicators.
        indeterminate: u64,
    },
    /// Schedulability analysis outcome.
    Sched {
        /// `true` if schedulable.
        ok: bool,
        /// Error message when `!ok` (empty when `ok`).
        message: String,
    },
    /// Translation validation: the certificate line on success, the
    /// V-code diagnostics on failure.
    Tv {
        /// Certificate display line when certification succeeded.
        cert: Option<String>,
        /// Diagnostics when it did not.
        diags: Vec<StoredDiag>,
    },
    /// A whole-command report (`lint`/`check`/`verify --incremental`):
    /// exact stdout/stderr bytes plus the error count.
    Report {
        /// Errors counted by the command (drives the exit code).
        errors: usize,
        /// Exact stdout text.
        stdout: String,
        /// Exact stderr text.
        stderr: String,
    },
}

impl Payload {
    /// The serialization tag for the cache file.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Diags(_) => "diags",
            Payload::Srg { .. } => "srg",
            Payload::Cert { .. } => "cert",
            Payload::Sched { .. } => "sched",
            Payload::Tv { .. } => "tv",
            Payload::Report { .. } => "report",
        }
    }
}

/// Escapes a message for single-line storage (`\` → `\\`, newline →
/// `\n`, carriage return → `\r`).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]; `None` on a malformed sequence.
#[must_use]
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Serializes a diagnostic list as record lines (shared by the `diags`
/// and `tv` payload kinds).
fn push_diag_lines(out: &mut Vec<String>, diags: &[StoredDiag]) {
    for d in diags {
        out.push(format!(
            "D {} {} {} {} {}",
            d.code,
            if d.error { "E" } else { "W" },
            d.line,
            d.col,
            escape(&d.message)
        ));
        for l in &d.labels {
            out.push(format!("L {} {} {}", l.line, l.col, escape(&l.message)));
        }
        if let Some(h) = &d.help {
            out.push(format!("H {}", escape(h)));
        }
    }
}

/// Parses record lines back into diagnostics. `L`/`H` records attach to
/// the preceding `D`; anything else is malformed.
fn parse_diag_lines(lines: &[&str]) -> Option<Vec<StoredDiag>> {
    let mut diags: Vec<StoredDiag> = Vec::new();
    for line in lines {
        let (tag, rest) = line.split_once(' ')?;
        match tag {
            "D" => {
                let mut it = rest.splitn(5, ' ');
                let code = it.next()?.to_owned();
                let error = match it.next()? {
                    "E" => true,
                    "W" => false,
                    _ => return None,
                };
                let line_no: u32 = it.next()?.parse().ok()?;
                let col: u32 = it.next()?.parse().ok()?;
                let message = unescape(it.next().unwrap_or(""))?;
                diags.push(StoredDiag {
                    code,
                    error,
                    line: line_no,
                    col,
                    message,
                    labels: Vec::new(),
                    help: None,
                });
            }
            "L" => {
                let mut it = rest.splitn(3, ' ');
                let line_no: u32 = it.next()?.parse().ok()?;
                let col: u32 = it.next()?.parse().ok()?;
                let message = unescape(it.next().unwrap_or(""))?;
                diags
                    .last_mut()?
                    .labels
                    .push(StoredLabel { line: line_no, col, message });
            }
            "H" => diags.last_mut()?.help = Some(unescape(rest)?),
            _ => return None,
        }
    }
    Some(diags)
}

/// Serializes a payload to its cache-file record lines.
#[must_use]
pub fn to_lines(payload: &Payload) -> Vec<String> {
    let mut out = Vec::new();
    match payload {
        Payload::Diags(diags) => push_diag_lines(&mut out, diags),
        Payload::Srg { ok, message, values } => {
            if *ok {
                out.push("S ok".to_owned());
            } else {
                out.push(format!("S fail {}", escape(message)));
            }
            for (name, bits) in values {
                out.push(format!("F {bits:016x} {name}"));
            }
        }
        Payload::Cert { ok, message, certified, refuted, indeterminate } => {
            if *ok {
                out.push("S ok".to_owned());
            } else {
                out.push(format!("S fail {}", escape(message)));
            }
            out.push(format!(
                "C {} {refuted} {indeterminate}",
                if *certified { "yes" } else { "no" }
            ));
        }
        Payload::Sched { ok, message } => {
            if *ok {
                out.push("S ok".to_owned());
            } else {
                out.push(format!("S fail {}", escape(message)));
            }
        }
        Payload::Tv { cert, diags } => {
            match cert {
                Some(c) => out.push(format!("T {}", escape(c))),
                None => out.push("T -".to_owned()),
            }
            push_diag_lines(&mut out, diags);
        }
        Payload::Report { errors, stdout, stderr } => {
            out.push(format!("N {errors}"));
            out.push(format!("O {}", escape(stdout)));
            out.push(format!("E {}", escape(stderr)));
        }
    }
    out
}

/// Parses a payload of the given kind tag; `None` if malformed.
#[must_use]
pub fn from_lines(kind: &str, lines: &[&str]) -> Option<Payload> {
    match kind {
        "diags" => parse_diag_lines(lines).map(Payload::Diags),
        "srg" => {
            let (first, rest) = lines.split_first()?;
            let (ok, message) = parse_outcome(first)?;
            let mut values = Vec::new();
            for line in rest {
                let rest = line.strip_prefix("F ")?;
                let (bits, name) = rest.split_once(' ')?;
                values.push((name.to_owned(), u64::from_str_radix(bits, 16).ok()?));
            }
            Some(Payload::Srg { ok, message, values })
        }
        "cert" => {
            let [outcome, counts] = lines else { return None };
            let (ok, message) = parse_outcome(outcome)?;
            let mut it = counts.strip_prefix("C ")?.splitn(3, ' ');
            let certified = match it.next()? {
                "yes" => true,
                "no" => false,
                _ => return None,
            };
            Some(Payload::Cert {
                ok,
                message,
                certified,
                refuted: it.next()?.parse().ok()?,
                indeterminate: it.next()?.parse().ok()?,
            })
        }
        "sched" => {
            let [line] = lines else { return None };
            let (ok, message) = parse_outcome(line)?;
            Some(Payload::Sched { ok, message })
        }
        "tv" => {
            let (first, rest) = lines.split_first()?;
            let cert = match first.strip_prefix("T ")? {
                "-" => None,
                c => Some(unescape(c)?),
            };
            Some(Payload::Tv { cert, diags: parse_diag_lines(rest)? })
        }
        "report" => {
            let [n, o, e] = lines else { return None };
            Some(Payload::Report {
                errors: n.strip_prefix("N ")?.parse().ok()?,
                stdout: unescape(o.strip_prefix("O ")?)?,
                stderr: unescape(e.strip_prefix("E ")?)?,
            })
        }
        _ => None,
    }
}

/// Parses an `S ok` / `S fail <msg>` outcome line.
fn parse_outcome(line: &str) -> Option<(bool, String)> {
    match line.strip_prefix("S ")? {
        "ok" => Some((true, String::new())),
        rest => Some((false, unescape(rest.strip_prefix("fail ")?)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> StoredDiag {
        StoredDiag {
            code: "L001".into(),
            error: false,
            line: 3,
            col: 7,
            message: "multi\nline `msg`".into(),
            labels: vec![StoredLabel { line: 9, col: 1, message: "see here".into() }],
            help: Some("do better".into()),
        }
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "a\nb", "back\\slash", "\r\n\\n", "trailing "] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
        assert_eq!(unescape("bad\\x"), None);
        assert_eq!(unescape("dangling\\"), None);
    }

    #[test]
    fn payloads_round_trip() {
        let payloads = [
            Payload::Diags(vec![diag()]),
            Payload::Diags(vec![]),
            Payload::Srg {
                ok: true,
                message: String::new(),
                values: vec![("cmd".into(), 0.9995_f64.to_bits())],
            },
            Payload::Srg { ok: false, message: "cycle".into(), values: vec![] },
            Payload::Sched { ok: true, message: String::new() },
            Payload::Sched { ok: false, message: "overload on h1".into() },
            Payload::Cert {
                ok: true,
                message: String::new(),
                certified: true,
                refuted: 0,
                indeterminate: 0,
            },
            Payload::Cert {
                ok: true,
                message: String::new(),
                certified: false,
                refuted: 1,
                indeterminate: 2,
            },
            Payload::Cert {
                ok: false,
                message: "cycle through `c`".into(),
                certified: false,
                refuted: 0,
                indeterminate: 0,
            },
            Payload::Tv { cert: Some("certificate round=10".into()), diags: vec![] },
            Payload::Tv { cert: None, diags: vec![diag()] },
            Payload::Report {
                errors: 2,
                stdout: "line one\nline two\n".into(),
                stderr: "E001:error:a.htl:1:1: boom\n".into(),
            },
        ];
        for p in &payloads {
            let lines = to_lines(p);
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            assert_eq!(from_lines(p.kind(), &refs).as_ref(), Some(p), "{p:?}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert_eq!(from_lines("diags", &["X nope"]), None);
        assert_eq!(from_lines("diags", &["L 1 2 orphan label"]), None);
        assert_eq!(from_lines("sched", &["S maybe"]), None);
        assert_eq!(from_lines("srg", &[]), None);
        assert_eq!(from_lines("cert", &["S ok"]), None);
        assert_eq!(from_lines("cert", &["S ok", "C maybe 0 0"]), None);
        assert_eq!(from_lines("cert", &["S ok", "C yes 0"]), None);
        assert_eq!(from_lines("report", &["N 1", "O x"]), None);
        assert_eq!(from_lines("nope", &[]), None);
    }

    #[test]
    fn stored_render_matches_diagnostic_render() {
        use logrel_lang::token::Span;
        let d = logrel_lint::Diagnostic::new(
            "E003",
            logrel_lint::Severity::Warning,
            Span { line: 2, col: 5 },
            "suspicious vote",
        )
        .with_label(Span { line: 8, col: 3 }, "declared here")
        .with_help("reduce arity");
        let s = StoredDiag::from_diagnostic(&d);
        assert_eq!(s.render("a.htl", false), d.render("a.htl"));
        assert!(s.render("a.htl", true).starts_with("E003:error:"));
        assert!(!s.is_error(false));
        assert!(s.is_error(true));
    }
}
