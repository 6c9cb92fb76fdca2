//! The diagnostic model shared by the spec lints and the E-code verifier.
//!
//! Every finding carries a stable code (`L0xx` for specification lints,
//! `E0xx` for E-code verification failures), a severity, a primary source
//! span (line/column of the offending construct; `0:0` when the finding has
//! no source location, e.g. for generated E-code), optional secondary
//! labels and an optional help text. Two renderings are provided:
//!
//! * [`Diagnostic::render`] — a human-readable multi-line form;
//! * [`Diagnostic::ci_line`] — the stable, greppable single-line form
//!   `code:severity:file:line:col: message` used by `htlc` for CI.

use logrel_core::json;
use logrel_lang::token::Span;
use logrel_lang::LangError;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily wrong; promoted to [`Severity::Error`]
    /// under `--deny`.
    Warning,
    /// Definitely wrong: the program is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A secondary label pointing at related source.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Label {
    /// Position of the related construct.
    pub span: Span,
    /// What it contributes to the finding.
    pub message: String,
}

/// One finding of the lint pass or the E-code verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`L001`, …, `E001`, …). Codes are never reused.
    pub code: &'static str,
    /// The finding's severity.
    pub severity: Severity,
    /// Primary position (default `0:0` for findings without source).
    pub span: Span,
    /// One-line statement of the problem.
    pub message: String,
    /// Secondary positions with context.
    pub labels: Vec<Label>,
    /// Suggested remedy, if one exists.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with no labels and no help.
    pub fn new(
        code: &'static str,
        severity: Severity,
        span: Span,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            span,
            message: message.into(),
            labels: Vec::new(),
            help: None,
        }
    }

    /// Attaches a secondary label.
    #[must_use]
    pub fn with_label(mut self, span: Span, message: impl Into<String>) -> Self {
        self.labels.push(Label {
            span,
            message: message.into(),
        });
        self
    }

    /// Attaches a help text.
    #[must_use]
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// The stable single-line CI form `code:severity:file:line:col: message`.
    pub fn ci_line(&self, file: &str) -> String {
        format!(
            "{}:{}:{}:{}:{}: {}",
            self.code, self.severity, file, self.span.line, self.span.col, self.message
        )
    }

    /// The human-readable multi-line form: the CI line followed by indented
    /// labels and help.
    pub fn render(&self, file: &str) -> String {
        let mut out = self.ci_line(file);
        for label in &self.labels {
            out.push_str(&format!(
                "\n    note: {}:{}:{}: {}",
                file, label.span.line, label.span.col, label.message
            ));
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("\n    help: {help}"));
        }
        out
    }

    /// Wraps a front-end error as a diagnostic. Lexical, syntax and
    /// resolution errors keep their spans; core-model errors, which carry
    /// none, report at `0:0` here, and
    /// [`elaborate_program`](crate::elaborate_program) places them in the
    /// source.
    pub fn from_lang_error(err: &LangError) -> Self {
        let (code, span) = match err {
            LangError::Lex { span, .. } => ("L090", *span),
            LangError::Parse { span, .. } => ("L091", *span),
            LangError::Resolve { span, .. } => ("L092", *span),
            LangError::Core(_) => ("L093", Span::default()),
            _ => ("L093", Span::default()),
        };
        let message = match err {
            LangError::Lex { message, .. } => format!("lexical error: {message}"),
            LangError::Parse {
                expected, found, ..
            } => format!("expected {expected}, found {found}"),
            LangError::Resolve { message, .. } => message.clone(),
            other => other.to_string(),
        };
        Diagnostic::new(code, Severity::Error, span, message)
    }
}

/// Sorts diagnostics into reporting order (position, then code) and
/// removes exact duplicates.
///
/// The order is **total** over every field: two distinct diagnostics
/// never compare equal, so the sorted sequence is independent of
/// emission order. (A key over position/code/message alone would let
/// findings that differ only in labels or help keep their emission
/// order — an order-dependence that breaks cached-vs-fresh diffs.)
pub fn sort_diagnostics(diags: &mut Vec<Diagnostic>) {
    diags.sort_by(|a, b| {
        (a.span, a.code, &a.message, a.severity, &a.labels, &a.help).cmp(&(
            b.span,
            b.code,
            &b.message,
            b.severity,
            &b.labels,
            &b.help,
        ))
    });
    diags.dedup();
}

/// Promotes every warning to an error (`--deny`).
pub fn deny_warnings(diags: &mut [Diagnostic]) {
    for d in diags {
        if d.severity == Severity::Warning {
            d.severity = Severity::Error;
        }
    }
}

impl Diagnostic {
    /// The diagnostic as a single-line JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let labels = self
            .labels
            .iter()
            .map(|l| {
                format!(
                    r#"{{"line":{},"col":{},"message":{}}}"#,
                    l.span.line,
                    l.span.col,
                    json::string(&l.message)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            r#"{{"code":"{}","severity":"{}","line":{},"col":{},"message":{},"labels":[{}],"help":{}}}"#,
            self.code,
            self.severity,
            self.span.line,
            self.span.col,
            json::string(&self.message),
            labels,
            json::opt_string(self.help.as_deref())
        )
    }
}

/// Renders a diagnostic list as the stable `logrel-diagnostics-v1` JSON
/// document consumed by CI (`htlc lint --format json`). The rendering is
/// deterministic: callers pass the diagnostics already sorted by
/// [`sort_diagnostics`], and every field appears in a fixed order.
pub fn diagnostics_json(file: &str, diags: &[Diagnostic]) -> String {
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.len() - errors;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"logrel-diagnostics-v1\",\n");
    out.push_str(&format!("  \"file\": {},\n", json::string(file)));
    out.push_str(&format!("  \"errors\": {errors},\n"));
    out.push_str(&format!("  \"warnings\": {warnings},\n"));
    out.push_str(&format!(
        "  \"diagnostics\": {}\n}}\n",
        json_rows(diags.iter().map(Diagnostic::to_json))
    ));
    out
}

/// A JSON array with one row per line, indented under a top-level key:
/// the array layout of the diagnostics and certificate documents.
pub(crate) fn json_rows(rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.collect();
    if rows.is_empty() {
        "[]".to_owned()
    } else {
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_line_is_stable() {
        let d = Diagnostic::new(
            "L001",
            Severity::Warning,
            Span { line: 3, col: 7 },
            "communicator `x` is never accessed",
        );
        assert_eq!(
            d.ci_line("pump.htl"),
            "L001:warning:pump.htl:3:7: communicator `x` is never accessed"
        );
    }

    #[test]
    fn render_includes_labels_and_help() {
        let d = Diagnostic::new("L003", Severity::Error, Span { line: 2, col: 5 }, "boom")
            .with_label(Span { line: 9, col: 1 }, "architecture declared here")
            .with_help("add a host");
        let r = d.render("a.htl");
        assert!(r.contains("note: a.htl:9:1: architecture declared here"));
        assert!(r.contains("help: add a host"));
    }

    #[test]
    fn deny_promotes_warnings() {
        let mut diags = vec![Diagnostic::new(
            "L001",
            Severity::Warning,
            Span::default(),
            "w",
        )];
        deny_warnings(&mut diags);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn sort_orders_by_position_then_code() {
        let mut diags = vec![
            Diagnostic::new("L009", Severity::Warning, Span { line: 5, col: 1 }, "b"),
            Diagnostic::new("L001", Severity::Warning, Span { line: 2, col: 1 }, "a"),
            Diagnostic::new("L001", Severity::Warning, Span { line: 2, col: 1 }, "a"),
        ];
        sort_diagnostics(&mut diags);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].span.line, 2);
    }

    #[test]
    fn diagnostic_json_is_single_line_and_complete() {
        let d = Diagnostic::new("L003", Severity::Error, Span { line: 2, col: 5 }, "boom")
            .with_label(Span { line: 9, col: 1 }, "declared here")
            .with_help("add a host");
        let j = d.to_json();
        assert!(!j.contains('\n'));
        assert!(j.contains(r#""code":"L003""#));
        assert!(j.contains(r#""severity":"error""#));
        assert!(j.contains(r#""labels":[{"line":9,"col":1,"message":"declared here"}]"#));
        assert!(j.contains(r#""help":"add a host""#));
        let none = Diagnostic::new("L001", Severity::Warning, Span::default(), "w");
        assert!(none.to_json().contains(r#""help":null"#));
    }

    #[test]
    fn diagnostics_json_counts_and_stays_parseable() {
        let diags = vec![
            Diagnostic::new("L001", Severity::Warning, Span { line: 1, col: 1 }, "w"),
            Diagnostic::new("L003", Severity::Error, Span { line: 2, col: 1 }, "e"),
        ];
        let doc = diagnostics_json("a.htl", &diags);
        assert!(doc.contains("\"schema\": \"logrel-diagnostics-v1\""));
        assert!(doc.contains("\"errors\": 1"));
        assert!(doc.contains("\"warnings\": 1"));
        // Empty list renders a closed array, not a dangling bracket.
        let empty = diagnostics_json("a.htl", &[]);
        assert!(empty.contains("\"diagnostics\": []"));
    }

    #[test]
    fn lang_errors_map_to_stable_codes() {
        let parse = LangError::Parse {
            expected: "`;`".into(),
            found: "`}`".into(),
            span: Span { line: 4, col: 2 },
        };
        let d = Diagnostic::from_lang_error(&parse);
        assert_eq!(d.code, "L091");
        assert_eq!(d.span.line, 4);
        let core = LangError::Core(logrel_core::CoreError::ZeroPeriod);
        assert_eq!(Diagnostic::from_lang_error(&core).code, "L093");
    }
}
