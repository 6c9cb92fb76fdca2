//! Translation validation for the logrel toolchain.
//!
//! The paper's Proposition 1 relates a *specification's* LET semantics to
//! its distributed implementation — but the toolchain interposes two
//! compilers: the kernel compiler lowering the specification to a dense
//! [`RoundProgram`], and the E-code generator emitting per-host programs.
//! This crate certifies both, per program, in the style of Necula's
//! translation validation: instead of trusting the compilers (or a finite
//! set of differential tests), each compiled artifact is symbolically
//! executed for exactly one hyperperiod and reduced to a canonical
//! [`RoundDenotation`] — a term DAG over initial communicator instances
//! and symbolic sensor reads. The specification's own denotation is
//! derived independently from its read/write instants. Certification is
//! diagnosed isomorphism of these DAGs: same update instants, same latch
//! sources and instance indices, same vote arities and replica sets.
//!
//! * [`certify_kernel`] — checks a compiled round program;
//! * [`certify_ecode`] — checks the composition of all per-host E-code
//!   (each host stepped for two rounds; the second round must repeat the
//!   first, which extends the certificate to all rounds by periodicity);
//! * [`certify_system`] — both, from the specification alone.
//!
//! On success a machine-readable [`Certificate`] is returned; on failure,
//! stable V-series diagnostics (V001–V010, rendered through
//! `logrel-lint`'s shared [`Diagnostic`] model — see
//! [`compare`] for the catalog), plus, for E-code, the static
//! verifier's E-series errors.
//!
//! Soundness (DESIGN.md §8): the denotation captures every dataflow
//! choice the artifact makes within one round — which instance each
//! update binds, which instance each latch captures, who executes and
//! who votes. Isomorphism therefore implies the artifact refines the
//! specification's single-round LET semantics; since both artifacts are
//! round-periodic (compiled programs structurally, E-code by the checked
//! round-1-equals-round-0 property), the certificate extends to every
//! round by induction.
//!
//! [`RoundProgram`]: logrel_core::RoundProgram
//! [`RoundDenotation`]: denot::RoundDenotation

pub mod certificate;
pub mod compare;
pub mod denot;
pub mod ecode_den;
pub mod kernel_den;
pub mod spec_den;

pub use certificate::Certificate;
pub use compare::compare_denotations;
pub use denot::{ExecRecord, LatchEdge, PhaseDenotation, RoundDenotation, UpdateSource};
pub use ecode_den::ecode_denotation;
pub use kernel_den::kernel_denotation;
pub use spec_den::spec_denotation;

use logrel_core::{
    Architecture, Calendar, HostId, Implementation, RoundProgram, Specification,
    TimeDependentImplementation,
};
use logrel_emachine::ECode;
use logrel_lint::{sort_diagnostics, verify, Diagnostic, VerifyCtx};

/// Certifies a compiled round program against the specification's
/// denotational dataflow.
pub fn certify_kernel(
    spec: &Specification,
    imp: &TimeDependentImplementation,
    prog: &RoundProgram,
) -> Result<Certificate, Vec<Diagnostic>> {
    let reference = spec_denotation(spec, imp);
    let candidate = kernel_denotation(spec, prog).map_err(sorted)?;
    let diags = compare_denotations(spec, &reference, &candidate, "round program");
    if diags.is_empty() {
        Ok(Certificate::from_denotation(
            &reference,
            vec!["round-program"],
        ))
    } else {
        Err(sorted(diags))
    }
}

/// Certifies the composition of per-host E-code programs (one round of
/// the whole distributed system, including broadcast replica sets and
/// voting) against the specification's denotational dataflow.
///
/// The denotation records what happens at each instant, not in which
/// order; each program must therefore also pass the static verifier
/// (E001–E009), which proves the order within an instant, e.g. that a
/// sensor communicator is updated only after its sensors are read.
pub fn certify_ecode(
    spec: &Specification,
    imp: &Implementation,
    programs: &[(HostId, ECode)],
) -> Result<Certificate, Vec<Diagnostic>> {
    let mut diags: Vec<Diagnostic> = programs
        .iter()
        .flat_map(|(host, code)| verify(code, &VerifyCtx::single(spec, imp, *host)))
        .collect();
    let td: TimeDependentImplementation = imp.clone().into();
    let reference = spec_denotation(spec, &td);
    match ecode_denotation(spec, imp, programs) {
        Ok(candidate) => diags.extend(compare_denotations(
            spec,
            &reference,
            &candidate,
            "E-code composition",
        )),
        Err(d) => diags.extend(d),
    }
    if diags.is_empty() {
        Ok(Certificate::from_denotation(&reference, vec!["e-code"]))
    } else {
        Err(sorted(diags))
    }
}

/// Compiles and certifies everything derivable from the system itself:
/// the kernel's round program always, and — for single-phase mappings,
/// the form every elaborated HTL program takes — the generated per-host
/// E-code of every declared host.
pub fn certify_system(
    spec: &Specification,
    arch: &Architecture,
    imp: &TimeDependentImplementation,
) -> Result<Certificate, Vec<Diagnostic>> {
    let calendar = Calendar::new(spec);
    let prog = RoundProgram::compile(spec, imp, &calendar);
    let mut diags = Vec::new();
    let mut cert = match certify_kernel(spec, imp, &prog) {
        Ok(cert) => Some(cert),
        Err(d) => {
            diags.extend(d);
            None
        }
    };
    if imp.phase_count() == 1 {
        let phase = &imp.phases()[0];
        let programs: Vec<(HostId, ECode)> = arch
            .host_ids()
            .map(|h| (h, logrel_emachine::generate(spec, phase, h)))
            .collect();
        match certify_ecode(spec, phase, &programs) {
            Ok(_) => {
                if let Some(c) = cert.as_mut() {
                    c.artifacts.push("e-code");
                }
            }
            Err(d) => {
                diags.extend(d);
                cert = None;
            }
        }
    }
    match cert {
        Some(cert) if diags.is_empty() => Ok(cert),
        _ => Err(sorted(diags)),
    }
}

fn sorted(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    sort_diagnostics(&mut diags);
    diags
}
