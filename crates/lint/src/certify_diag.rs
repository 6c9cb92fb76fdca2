//! Rendering of static reliability certificates: spanned `C0xx`
//! diagnostics, the human-readable report of `htlc certify` and the
//! machine-readable `logrel-certificate-v1` JSON document.
//!
//! The C-code catalog:
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | C001 | error    | LRC refuted: even the upper enclosure endpoint misses `µ` |
//! | C002 | warning  | LRC indeterminate: the enclosure straddles `µ` |
//! | C003 | warning  | certified, but with slack below `1e-9` (near-threshold) |
//! | C004 | error    | certified at the declared point, but not under the requested reliability box |
//! | C005 | error    | certification could not run (cyclic dependencies, unbound input, …) |
//!
//! Diagnostics are anchored at the communicator declaration's span, so
//! they render through the ordinary lint machinery (`ci_line`, sorting,
//! `--deny` promotion) like any other finding.

use crate::diagnostic::{json_rows, sort_diagnostics, Diagnostic, Severity};
use logrel_core::json::{self, number, opt_number, opt_string};
use logrel_lang::ast::Program;
use logrel_lang::token::Span;
use logrel_reliability::certify::{Certificate, CommCertificate};
use logrel_reliability::{CertStatus, ReliabilityError, NEAR_THRESHOLD_SLACK};

/// The span of the declaration of `name`, if the program declares it.
fn comm_span(program: &Program, name: &str) -> Span {
    program
        .communicators
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.span)
        .unwrap_or_default()
}

/// Derives the spanned `C001`–`C004` diagnostics from a certificate.
pub fn certify_diagnostics(program: &Program, cert: &Certificate) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for row in &cert.comms {
        let Some(mu) = row.lrc else { continue };
        let span = comm_span(program, &row.name);
        let bottleneck = row.bottleneck.as_deref().unwrap_or("-");
        match row.status {
            Some(CertStatus::Refuted) => {
                diags.push(
                    Diagnostic::new(
                        "C001",
                        Severity::Error,
                        span,
                        format!(
                            "communicator `{}`: REFUTED — certified upper bound {} < lrc {}",
                            row.name,
                            row.interval.hi(),
                            mu
                        ),
                    )
                    .with_help(format!(
                        "the architecture cannot meet this constraint; strengthen the \
                         writer chain (bottleneck: {bottleneck}) or weaken the lrc"
                    )),
                );
            }
            Some(CertStatus::Indeterminate) => {
                diags.push(
                    Diagnostic::new(
                        "C002",
                        Severity::Warning,
                        span,
                        format!(
                            "communicator `{}`: INDETERMINATE — enclosure {} straddles lrc {} \
                             (width {:e})",
                            row.name,
                            row.interval,
                            mu,
                            row.interval.width()
                        ),
                    )
                    .with_help(String::from(
                        "neither verdict is sound at this rounding width; move the lrc \
                         away from the enclosure or strengthen the architecture",
                    )),
                );
            }
            Some(CertStatus::Certified) => {
                let slack = row.slack.unwrap_or(0.0);
                if slack < NEAR_THRESHOLD_SLACK {
                    diags.push(
                        Diagnostic::new(
                            "C003",
                            Severity::Warning,
                            span,
                            format!(
                                "communicator `{}`: certified with slack {:e} below 1e-9",
                                row.name, slack
                            ),
                        )
                        .with_help(format!(
                            "the certificate is one analysis change away from \
                             indeterminate; consider strengthening {bottleneck}"
                        )),
                    );
                }
                if let (Some(bs), Some(bi), Some(delta)) =
                    (row.box_status, row.box_interval, cert.box_delta)
                {
                    if bs != CertStatus::Certified {
                        diags.push(
                            Diagnostic::new(
                                "C004",
                                Severity::Error,
                                span,
                                format!(
                                    "communicator `{}`: certification is not robust under \
                                     reliability box δ={} — degraded enclosure {} vs lrc {}",
                                    row.name, delta, bi, mu
                                ),
                            )
                            .with_help(format!(
                                "some architecture inside the box violates the lrc; add \
                                 replication around {bottleneck} or shrink the box"
                            )),
                        );
                    }
                }
            }
            None => {}
        }
    }
    sort_diagnostics(&mut diags);
    diags
}

/// Wraps an analysis failure (cycle, unbound input, …) as the `C005`
/// diagnostic so `htlc certify` reports through the same channel as every
/// other finding.
pub fn certify_error_diagnostic(err: &ReliabilityError) -> Diagnostic {
    Diagnostic::new(
        "C005",
        Severity::Error,
        Span::default(),
        format!("certification failed: {err}"),
    )
}

/// One row of the human-readable report.
fn render_row(row: &CommCertificate) -> String {
    let mut line = format!(
        "  {:<16} point {:.9}  enclosure {}",
        row.name, row.point, row.interval
    );
    if let Some(mu) = row.lrc {
        line.push_str(&format!("  lrc {mu}"));
        if let Some(s) = row.status {
            line.push_str(&format!("  {s}"));
        }
        if let Some(slack) = row.slack {
            line.push_str(&format!("  slack {slack:e}"));
        }
        if let Some(bs) = row.box_status {
            line.push_str(&format!("  box {bs}"));
        }
    }
    line
}

/// The human-readable certificate report printed by `htlc certify`.
pub fn render_certificate(name: &str, cert: &Certificate) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "certificate for `{}` ({} of {} communicator(s) constrained):\n",
        name,
        cert.constrained,
        cert.comms.len()
    ));
    for row in &cert.comms {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    let constrained: Vec<&CommCertificate> =
        cert.comms.iter().filter(|c| c.lrc.is_some()).collect();
    if constrained.iter().any(|c| c.bottleneck.is_some()) {
        out.push_str("bottlenecks (largest Birnbaum importance):\n");
        for row in &constrained {
            if let Some(b) = &row.bottleneck {
                let shape = if row.multilinear {
                    "multilinear"
                } else {
                    "shared-path"
                };
                out.push_str(&format!("  {:<16} {b}  ({shape})\n", row.name));
            }
        }
    }
    if !cert.margins.is_empty() {
        out.push_str("component degradation margins:\n");
        for m in &cert.margins {
            out.push_str(&format!(
                "  {:<16} reliability {}  margin {:.9}\n",
                m.name, m.reliability, m.margin
            ));
        }
    }
    out.push_str(&format!("verdict: {}\n", cert.overall));
    if let (Some(delta), Some(bo)) = (cert.box_delta, cert.box_overall) {
        out.push_str(&format!("box verdict (δ={delta}): {bo}\n"));
    }
    out
}

/// The stable `logrel-certificate-v1` JSON document: the full certificate
/// plus its diagnostics (same object shape as `logrel-diagnostics-v1`).
/// Every float carries a sibling `*_bits` hex field with its exact IEEE-754
/// bit pattern.
pub fn certificate_json(
    file: &str,
    name: &str,
    cert: &Certificate,
    diags: &[Diagnostic],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"logrel-certificate-v1\",\n");
    out.push_str(&format!("  \"file\": {},\n", json::string(file)));
    out.push_str(&format!("  \"program\": {},\n", json::string(name)));
    out.push_str(&format!("  \"overall\": \"{}\",\n", cert.overall));
    out.push_str(&format!("  \"constrained\": {},\n", cert.constrained));
    out.push_str(&format!("  \"box_delta\": {},\n", opt_number(cert.box_delta)));
    out.push_str(&format!(
        "  \"box_overall\": {},\n",
        opt_string(cert.box_overall.map(CertStatus::label))
    ));
    let comms = cert.comms.iter().map(|row| {
        format!(
            r#"{{"name":{},"point":{},"point_bits":"{:016x}","lo":{},"lo_bits":"{:016x}","hi":{},"hi_bits":"{:016x}","lrc":{},"status":{},"slack":{},"box_status":{},"bottleneck":{},"multilinear":{}}}"#,
            json::string(&row.name),
            number(row.point),
            row.point.to_bits(),
            number(row.interval.lo()),
            row.interval.lo().to_bits(),
            number(row.interval.hi()),
            row.interval.hi().to_bits(),
            opt_number(row.lrc),
            opt_string(row.status.map(CertStatus::label)),
            opt_number(row.slack),
            opt_string(row.box_status.map(CertStatus::label)),
            opt_string(row.bottleneck.as_deref()),
            row.multilinear
        )
    });
    out.push_str(&format!("  \"communicators\": {},\n", json_rows(comms)));
    let margins = cert.margins.iter().map(|m| {
        format!(
            r#"{{"component":{},"reliability":{},"margin":{},"margin_bits":"{:016x}"}}"#,
            json::string(&m.name),
            number(m.reliability),
            number(m.margin),
            m.margin.to_bits()
        )
    });
    out.push_str(&format!("  \"margins\": {},\n", json_rows(margins)));
    let diags = json_rows(diags.iter().map(Diagnostic::to_json));
    out.push_str(&format!("  \"diagnostics\": {diags}\n}}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_lang::{elaborate, parse};
    use logrel_reliability::certify;

    const SOURCE: &str = "program demo {\n\
         \x20   communicator s : float period 10 sensor;\n\
         \x20   communicator u : float period 10 lrc LRC;\n\
         \x20   module m {\n\
         \x20       start mode main period 10 {\n\
         \x20           invoke ctrl reads s[0] writes u[1];\n\
         \x20       }\n\
         \x20   }\n\
         \x20   architecture {\n\
         \x20       host h1 reliability 0.99;\n\
         \x20       host h2 reliability 0.98;\n\
         \x20       sensor sen reliability 0.999;\n\
         \x20       wcet ctrl on h1 2; wcet ctrl on h2 2;\n\
         \x20       wctt ctrl on h1 1; wctt ctrl on h2 1;\n\
         \x20   }\n\
         \x20   map {\n\
         \x20       ctrl -> h1, h2;\n\
         \x20       bind s -> sen;\n\
         \x20   }\n\
         }\n";

    fn certified(lrc: &str, delta: Option<f64>) -> (Program, Certificate) {
        let program = parse(&SOURCE.replace("LRC", lrc)).unwrap();
        let sys = elaborate(&program).unwrap();
        let cert = certify::certify(&sys.spec, &sys.arch, &sys.imp, delta).unwrap();
        (program, cert)
    }

    #[test]
    fn clean_certificate_has_no_diagnostics() {
        let (program, cert) = certified("0.9", None);
        assert!(certify_diagnostics(&program, &cert).is_empty());
        let text = render_certificate("demo", &cert);
        assert!(text.contains("verdict: CERTIFIED"));
        assert!(text.contains("component degradation margins:"));
        assert!(text.contains("bottlenecks"));
    }

    #[test]
    fn refuted_lrc_raises_c001_at_the_declaration() {
        let (program, cert) = certified("0.9999", None);
        let diags = certify_diagnostics(&program, &cert);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "C001");
        assert_eq!(diags[0].severity, Severity::Error);
        // Anchored at the `communicator u` declaration (line 3).
        assert_eq!(diags[0].span.line, 3);
        assert!(diags[0].message.contains("REFUTED"));
    }

    #[test]
    fn fragile_box_raises_c004() {
        let (program, cert) = certified("0.995", Some(0.1));
        let diags = certify_diagnostics(&program, &cert);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "C004");
        assert!(diags[0].message.contains("δ=0.1"));
        let text = render_certificate("demo", &cert);
        assert!(text.contains("box verdict (δ=0.1): INDETERMINATE"));
    }

    #[test]
    fn c005_wraps_analysis_errors() {
        let err = ReliabilityError::UnboundInput {
            communicator: "s".into(),
        };
        let d = certify_error_diagnostic(&err);
        assert_eq!(d.code, "C005");
        assert!(d.message.contains("`s`"));
    }

    #[test]
    fn json_document_is_complete_and_typed() {
        let (program, cert) = certified("0.9", Some(0.001));
        let diags = certify_diagnostics(&program, &cert);
        let doc = certificate_json("demo.htl", "demo", &cert, &diags);
        assert!(doc.contains("\"schema\": \"logrel-certificate-v1\""));
        assert!(doc.contains("\"overall\": \"CERTIFIED\""));
        assert!(doc.contains("\"box_delta\": 0.001"));
        assert!(doc.contains(r#""name":"u""#));
        assert!(doc.contains("point_bits"));
        assert!(doc.contains(r#""multilinear":true"#));
        assert!(doc.contains(r#""component":"h1""#));
        // Unconstrained rows carry explicit nulls, not absent fields.
        assert!(doc.contains(r#""lrc":null"#));
    }
}
