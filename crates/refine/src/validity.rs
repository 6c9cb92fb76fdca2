//! Joint validity (Proposition 2) and incremental analysis.
//!
//! An implementation is *valid* for a specification on an architecture if
//! it is both schedulable and reliable. Proposition 2: if
//! `(S', A', I') ⊑_κ (S, A, I)` and `I` is valid for `S` on `A`, then `I'`
//! is valid for `S'` on `A'` — so a design flow can analyse the abstract
//! system once and carry the certificate down a chain of refinements,
//! paying only the (cheap, local) refinement checks.

use crate::error::RefineError;
use crate::kappa::Kappa;
use crate::relation::{check_refinement, SystemRef};
use logrel_reliability::{ReliabilityError, ReliabilityVerdict};
use logrel_sched::{SchedError, Schedule};
use std::error::Error;
use std::fmt;

/// A witness that a system is valid: its static schedule and its
/// reliability verdict.
#[derive(Debug, Clone)]
pub struct ValidityCertificate {
    /// The schedulability witness.
    pub schedule: Schedule,
    /// The reliability verdict (guaranteed reliable).
    pub verdict: ReliabilityVerdict,
}

/// Errors of the joint validity analysis.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ValidityError {
    /// The implementation is not schedulable.
    Sched(SchedError),
    /// The reliability analysis failed to run (cycle, unbound input).
    Reliability(ReliabilityError),
    /// The implementation is schedulable but violates LRCs.
    NotReliable {
        /// The failing verdict with its violation list.
        verdict: ReliabilityVerdict,
    },
    /// The refinement pre-condition of the incremental analysis failed.
    Refinement(RefineError),
}

impl fmt::Display for ValidityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidityError::Sched(e) => write!(f, "{e}"),
            ValidityError::Reliability(e) => write!(f, "{e}"),
            ValidityError::NotReliable { verdict } => write!(f, "{verdict}"),
            ValidityError::Refinement(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ValidityError {}

impl From<SchedError> for ValidityError {
    fn from(e: SchedError) -> Self {
        ValidityError::Sched(e)
    }
}

impl From<ReliabilityError> for ValidityError {
    fn from(e: ReliabilityError) -> Self {
        ValidityError::Reliability(e)
    }
}

impl From<RefineError> for ValidityError {
    fn from(e: RefineError) -> Self {
        ValidityError::Refinement(e)
    }
}

/// Runs the full joint schedulability/reliability analysis.
///
/// # Errors
///
/// * [`ValidityError::Sched`] if not schedulable;
/// * [`ValidityError::Reliability`] if the SRG induction fails;
/// * [`ValidityError::NotReliable`] if an LRC is violated.
pub fn validate(system: SystemRef<'_>) -> Result<ValidityCertificate, ValidityError> {
    let schedule = logrel_sched::analyze(system.spec, system.arch, system.imp)?;
    let verdict = logrel_reliability::check(system.spec, system.arch, system.imp)?;
    if !verdict.is_reliable() {
        return Err(ValidityError::NotReliable { verdict });
    }
    Ok(ValidityCertificate { schedule, verdict })
}

/// A validity witness for a periodic time-dependent implementation: one
/// schedule per phase plus the long-run reliability verdict.
#[derive(Debug, Clone)]
pub struct TimeDependentCertificate {
    /// Per-phase schedulability witnesses.
    pub schedules: Vec<Schedule>,
    /// The long-run reliability verdict (guaranteed reliable).
    pub verdict: ReliabilityVerdict,
}

/// Joint validity of a periodic time-dependent implementation: every phase
/// must be schedulable, and the *long-run average* SRGs must meet the LRCs
/// (§3's "general implementation" notion).
///
/// # Errors
///
/// Same classes as [`validate`].
pub fn validate_time_dependent(
    spec: &logrel_core::Specification,
    arch: &logrel_core::Architecture,
    imp: &logrel_core::TimeDependentImplementation,
) -> Result<TimeDependentCertificate, ValidityError> {
    let schedules = logrel_sched::analyze_time_dependent(spec, arch, imp)?;
    let verdict = logrel_reliability::check_time_dependent(spec, arch, imp)?;
    if !verdict.is_reliable() {
        return Err(ValidityError::NotReliable { verdict });
    }
    Ok(TimeDependentCertificate { schedules, verdict })
}

/// Proposition 2: validity transfer along a refinement.
///
/// Checks only the refinement constraints between `refining` and
/// `refined`; given `refined_certificate` (obtained once from
/// [`validate`]), the refining system is valid without re-running the
/// joint analysis. The refined certificate is returned by reference as the
/// inherited witness.
///
/// # Errors
///
/// [`ValidityError::Refinement`] if the systems are not in the refinement
/// relation.
pub fn incremental_validate<'c>(
    refining: SystemRef<'_>,
    refined: SystemRef<'_>,
    kappa: &Kappa,
    refined_certificate: &'c ValidityCertificate,
) -> Result<&'c ValidityCertificate, ValidityError> {
    check_refinement(refining, refined, kappa)?;
    Ok(refined_certificate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{
        Architecture, CommunicatorDecl, HostDecl, Implementation, Reliability, SensorDecl,
        SensorId, Specification, TaskDecl, ValueType,
    };

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    struct Sys {
        spec: Specification,
        arch: Architecture,
        imp: Implementation,
    }

    impl Sys {
        fn as_ref(&self) -> SystemRef<'_> {
            SystemRef::new(&self.spec, &self.arch, &self.imp)
        }
    }

    fn make(read_i: u64, write_i: u64, wcet: u64, lrc: f64, host_rel: f64) -> Sys {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(
                CommunicatorDecl::new("u", ValueType::Float, 10)
                    .unwrap()
                    .with_lrc(r(lrc)),
            )
            .unwrap();
        let t = sb
            .task(TaskDecl::new("t").reads(s, read_i).writes(u, write_i))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(host_rel))).unwrap();
        ab.sensor(SensorDecl::new("sen", Reliability::ONE)).unwrap();
        ab.wcet_all(t, wcet).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h1])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        Sys { spec, arch, imp }
    }

    #[test]
    fn validate_accepts_good_system() {
        let sys = make(0, 3, 5, 0.9, 0.99);
        let cert = validate(sys.as_ref()).unwrap();
        assert!(cert.verdict.is_reliable());
        assert_eq!(cert.schedule.round().as_u64(), 30);
    }

    #[test]
    fn validate_rejects_unschedulable() {
        // LET window is [0, 10 - 1]; wcet 50 misses.
        let sys = make(0, 1, 50, 0.9, 0.99);
        assert!(matches!(
            validate(sys.as_ref()).unwrap_err(),
            ValidityError::Sched(_)
        ));
    }

    #[test]
    fn validate_rejects_unreliable() {
        let sys = make(0, 3, 5, 0.999, 0.9);
        let err = validate(sys.as_ref()).unwrap_err();
        assert!(matches!(err, ValidityError::NotReliable { .. }));
        assert!(err.to_string().contains("NOT reliable"));
    }

    #[test]
    fn incremental_validation_transfers_certificate() {
        let refined = make(0, 3, 5, 0.9, 0.99);
        let refining = make(1, 2, 3, 0.8, 0.99);
        let cert = validate(refined.as_ref()).unwrap();
        let kappa = Kappa::by_name(&refining.spec, &refined.spec);
        let inherited =
            incremental_validate(refining.as_ref(), refined.as_ref(), &kappa, &cert).unwrap();
        assert!(inherited.verdict.is_reliable());
        // Proposition 2 cross-check: a direct analysis agrees.
        assert!(validate(refining.as_ref()).is_ok());
    }

    #[test]
    fn incremental_validation_rejects_non_refinements() {
        let refined = make(0, 3, 5, 0.9, 0.99);
        let not_refining = make(0, 3, 5, 0.99, 0.99); // stronger LRC
        let cert = validate(refined.as_ref()).unwrap();
        let kappa = Kappa::by_name(&not_refining.spec, &refined.spec);
        let err = incremental_validate(not_refining.as_ref(), refined.as_ref(), &kappa, &cert)
            .unwrap_err();
        assert!(matches!(err, ValidityError::Refinement(_)));
    }

    #[test]
    fn time_dependent_validation() {
        use logrel_core::TimeDependentImplementation;
        // The §3 alternating example: hosts 0.95/0.85, LRC 0.9.
        let build_host = |rel1: f64, rel2: f64| {
            let mut sb = Specification::builder();
            let s = sb
                .communicator(
                    CommunicatorDecl::new("s", ValueType::Float, 10)
                        .unwrap()
                        .from_sensor(),
                )
                .unwrap();
            let u = sb
                .communicator(
                    CommunicatorDecl::new("u", ValueType::Float, 10)
                        .unwrap()
                        .with_lrc(r(0.9)),
                )
                .unwrap();
            let t = sb
                .task(TaskDecl::new("t").reads(s, 0).writes(u, 1))
                .unwrap();
            let spec = sb.build().unwrap();
            let mut ab = Architecture::builder();
            let h1 = ab.host(logrel_core::HostDecl::new("h1", r(rel1))).unwrap();
            let h2 = ab.host(logrel_core::HostDecl::new("h2", r(rel2))).unwrap();
            ab.sensor(SensorDecl::new("sen", Reliability::ONE)).unwrap();
            ab.wcet_all(t, 2).unwrap();
            ab.wctt_all(t, 1).unwrap();
            let arch = ab.build();
            let p0 = Implementation::builder()
                .assign(t, [h1])
                .bind_sensor(s, SensorId::new(0))
                .build(&spec, &arch)
                .unwrap();
            let p1 = p0.with_assignment(t, [h2]);
            (spec, arch, p0, p1)
        };
        let (spec, arch, p0, p1) = build_host(0.95, 0.85);
        // Phase p1 alone is invalid (0.85 < 0.9)...
        assert!(matches!(
            validate(SystemRef::new(&spec, &arch, &p1)),
            Err(ValidityError::NotReliable { .. })
        ));
        // ...but the alternation is valid, with one schedule per phase.
        let td = TimeDependentImplementation::new(vec![p0, p1]).unwrap();
        let cert = validate_time_dependent(&spec, &arch, &td).unwrap();
        assert_eq!(cert.schedules.len(), 2);
        assert!(cert.verdict.is_reliable());
    }

    #[test]
    fn error_conversions() {
        let s: ValidityError = SchedError::NotSchedulable { misses: vec![] }.into();
        assert!(matches!(s, ValidityError::Sched(_)));
        let rel: ValidityError = ReliabilityError::Structure { detail: "x".into() }.into();
        assert!(matches!(rel, ValidityError::Reliability(_)));
        let rf: ValidityError = RefineError::NotARefinement { violations: vec![] }.into();
        assert!(matches!(rf, ValidityError::Refinement(_)));
        for e in [s, rel, rf] {
            assert!(!e.to_string().is_empty());
        }
    }
}
