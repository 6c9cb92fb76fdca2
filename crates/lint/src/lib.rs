//! Static analysis for the logrel toolchain: specification lints and
//! E-code verification.
//!
//! The paper's pitch is catching reliability and timing defects *before*
//! deployment; the core model only enforces hard well-formedness (the four
//! race-freedom restrictions of §2). This crate adds the two missing
//! layers:
//!
//! * [`spec_lints`](mod@spec_lints) — a registry of lints over the
//!   parsed and elaborated program, from dead communicators to provably
//!   unsatisfiable LRCs (see the module docs for the `L0xx` catalog);
//! * [`ecode`] — an abstract interpreter over per-host
//!   [`logrel_emachine`] programs proving the invariants the
//!   co-simulation otherwise only observes at runtime (`E0xx`).
//!
//! [`lint_source`] is the one-call entry point used by `htlc lint`: it
//! parses, elaborates, lints, generates E-code for every host (modal code
//! when the program has several modes) and verifies it.

pub mod certify_diag;
pub mod diagnostic;
pub mod ecode;
pub mod refine_diag;
pub mod spec_lints;

pub use certify_diag::{
    certificate_json, certify_diagnostics, certify_error_diagnostic, render_certificate,
};
pub use diagnostic::{
    deny_warnings, diagnostics_json, sort_diagnostics, Diagnostic, Label, Severity,
};
pub use ecode::{verify, verify_instructions, ModeCtx, VerifyCtx};
pub use refine_diag::{refine_error_diagnostics, violation_diagnostic};
pub use spec_lints::{lint_time_dependent, spanned_restriction_checks, spec_lints};

use logrel_emachine::{generate, generate_modal, ModalMode, ModeSwitch};
use logrel_lang::ast::Program;
use logrel_lang::{elaborate, elaborate_modes, parse, ElaboratedSystem, LangError};
use std::collections::BTreeMap;

/// Lints a source text end to end: parse, elaborate, specification lints,
/// E-code generation and verification for every host. Front-end failures
/// are reported as diagnostics (`L090`–`L093`), with the spanned
/// restriction checks (`L011`–`L015`) standing in for span-less core
/// errors.
pub fn lint_source(source: &str) -> Vec<Diagnostic> {
    let program = match parse(source) {
        Ok(p) => p,
        Err(e) => return vec![Diagnostic::from_lang_error(&e)],
    };
    lint_program(&program)
}

/// Lints an already-parsed program. See [`lint_source`].
pub fn lint_program(program: &Program) -> Vec<Diagnostic> {
    let mut diags = match elaborate(program) {
        Ok(sys) => {
            let mut diags = spec_lints(program, &sys);
            diags.extend(verify_generated(program, &sys));
            diags
        }
        Err(e @ LangError::Core(_)) => {
            let spanned = spanned_restriction_checks(program);
            if spanned.is_empty() {
                vec![Diagnostic::from_lang_error(&e)]
            } else {
                spanned
            }
        }
        Err(e) => vec![Diagnostic::from_lang_error(&e)],
    };
    sort_diagnostics(&mut diags);
    diags
}

/// Generates and statically verifies the E-code of every host: the
/// single-mode program of the start mode, plus the modal program when the
/// source declares one module with several modes.
pub fn verify_generated(program: &Program, sys: &ElaboratedSystem) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for host in sys.arch.host_ids() {
        let code = generate(&sys.spec, &sys.imp, host);
        diags.extend(verify(
            &code,
            &VerifyCtx::single(&sys.spec, &sys.imp, host),
        ));
    }
    let modal_source = program.modules.len() == 1
        && program.modules.first().is_some_and(|m| m.modes.len() > 1);
    if modal_source {
        if let Ok(modal) = elaborate_modes(program) {
            let modes: Vec<ModalMode<'_>> = modal
                .modes
                .iter()
                .map(|m| ModalMode {
                    name: &m.name,
                    spec: &m.spec,
                    imp: &m.imp,
                })
                .collect();
            // Stable event numbering: first occurrence order.
            let mut events: BTreeMap<&str, u32> = BTreeMap::new();
            let switches: Vec<ModeSwitch> = modal
                .switches
                .iter()
                .map(|(from, event, to)| {
                    let next = events.len() as u32;
                    let id = *events.entry(event.as_str()).or_insert(next);
                    ModeSwitch {
                        from: *from,
                        event: id,
                        to: *to,
                    }
                })
                .collect();
            for host in modal.arch.host_ids() {
                if let Ok(code) = generate_modal(&modes, &switches, host) {
                    diags.extend(verify(&code, &VerifyCtx::modal(&modes, host)));
                }
            }
        }
    }
    diags
}
