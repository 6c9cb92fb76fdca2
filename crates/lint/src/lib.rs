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
//! when the program has several modes) and verifies it. Its front half,
//! [`front_end`], is the parse-and-elaborate step of every other command
//! too, so a defective program gets the same diagnosis whichever command
//! reads it.

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
pub use spec_lints::{spanned_restriction_checks, spec_lints};

use logrel_emachine::{generate, generate_modal, ModalMode, ModeSwitch};
use logrel_lang::ast::Program;
use logrel_lang::{
    core_error_span, elaborate, elaborate_modes, parse, ElaboratedSystem, LangError,
};
use std::collections::BTreeMap;

/// Parses and elaborates a source text, the front end of every command.
/// A failure comes back as the diagnostics to print: `L090`/`L091` for a
/// lexical or syntax error, else those of [`elaborate_program`].
pub fn front_end(source: &str) -> Result<(Program, ElaboratedSystem), Vec<Diagnostic>> {
    let program = parse(source).map_err(|e| vec![Diagnostic::from_lang_error(&e)])?;
    let sys = elaborate_program(&program)?;
    Ok((program, sys))
}

/// Elaborates a parsed program, reporting a failure as diagnostics:
/// `L092` for a resolution error, the spanned restriction checks
/// (`L011`–`L015`) for a race-freedom violation, and otherwise `L093` at
/// the invocation of the task the core error names ([`core_error_span`]).
pub fn elaborate_program(program: &Program) -> Result<ElaboratedSystem, Vec<Diagnostic>> {
    let err = match elaborate(program) {
        Ok(sys) => return Ok(sys),
        Err(e) => e,
    };
    let mut diags = match &err {
        LangError::Core(core) => {
            let spanned = spanned_restriction_checks(program);
            if spanned.is_empty() {
                let mut d = Diagnostic::from_lang_error(&err);
                d.span = core_error_span(program, core).unwrap_or_default();
                vec![d]
            } else {
                spanned
            }
        }
        _ => vec![Diagnostic::from_lang_error(&err)],
    };
    sort_diagnostics(&mut diags);
    Err(diags)
}

/// Lints a source text end to end: [`front_end`], specification lints,
/// E-code generation and verification for every host. A front-end
/// failure is reported as the diagnostics [`front_end`] returns.
pub fn lint_source(source: &str) -> Vec<Diagnostic> {
    match parse(source) {
        Ok(program) => lint_program(&program),
        Err(e) => vec![Diagnostic::from_lang_error(&e)],
    }
}

/// Lints an already-parsed program. See [`lint_source`].
pub fn lint_program(program: &Program) -> Vec<Diagnostic> {
    let sys = match elaborate_program(program) {
        Ok(sys) => sys,
        Err(diags) => return diags,
    };
    let mut diags = spec_lints(program, &sys);
    diags.extend(verify_generated(program, &sys));
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
