//! The reliability analysis of Proposition 1.
//!
//! An implementation is *reliable* if for each communicator `c`, the
//! long-run average of reliable values observed at its access points is at
//! least the LRC `µ_c`. For memory-free, race-free specifications,
//! Proposition 1 reduces this to the local check `λ_c ≥ µ_c` (by the strong
//! law of large numbers, the empirical average of i.i.d. update outcomes
//! converges to λ_c almost surely).
//!
//! For a *periodic time-dependent* implementation with phases
//! `I_0, …, I_{n−1}`, iteration `k` succeeds with probability
//! `λ_c(I_{k mod n})`; the long-run average then converges almost surely to
//! the mean of the per-phase SRGs, so [`check_time_dependent`] compares that
//! mean against `µ_c` (the paper's "general implementation" discussion).

use crate::error::ReliabilityError;
use crate::srg::{compute_srgs, SrgReport};
use logrel_core::prob::meets;
use logrel_core::{
    Architecture, CommunicatorId, Implementation, Specification, TimeDependentImplementation,
};
use std::fmt;

/// A violated logical reliability constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct LrcViolation {
    /// The communicator whose LRC is violated.
    pub comm: CommunicatorId,
    /// The communicator's name.
    pub name: String,
    /// The achieved (long-run) SRG.
    pub achieved: f64,
    /// The required LRC µ.
    pub required: f64,
}

impl fmt::Display for LrcViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}`: achieved {} < required {}",
            self.name, self.achieved, self.required
        )
    }
}

/// The outcome of a reliability analysis: the computed SRGs together with
/// the list of violated LRCs (empty iff the implementation is reliable).
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityVerdict {
    /// Per-phase SRG reports (a single entry for static implementations).
    pub phases: Vec<SrgReport>,
    /// Long-run SRG per communicator: the mean over phases.
    pub long_run: Vec<f64>,
    /// Violated constraints, in declaration order.
    pub violations: Vec<LrcViolation>,
}

impl ReliabilityVerdict {
    /// `true` iff every declared LRC is met.
    pub fn is_reliable(&self) -> bool {
        self.violations.is_empty()
    }

    /// The long-run SRG of communicator `c`.
    pub fn long_run_srg(&self, c: CommunicatorId) -> f64 {
        self.long_run[c.index()]
    }

    /// The SRG report of the only phase of a static implementation.
    ///
    /// # Panics
    ///
    /// Panics if this verdict came from [`check_time_dependent`] with more
    /// than one phase.
    pub fn static_report(&self) -> &SrgReport {
        assert_eq!(self.phases.len(), 1, "not a static implementation");
        &self.phases[0]
    }

    /// The slack `λ_c − µ_c` of communicator `c`, or `None` if it has no
    /// LRC.
    pub fn margin(&self, spec: &Specification, c: CommunicatorId) -> Option<f64> {
        spec.communicator(c)
            .lrc()
            .map(|m| self.long_run[c.index()] - m.get())
    }
}

impl fmt::Display for ReliabilityVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_reliable() {
            write!(f, "reliable")
        } else {
            write!(f, "NOT reliable: ")?;
            for (i, v) in self.violations.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{v}")?;
            }
            Ok(())
        }
    }
}

/// Checks Proposition 1 for a static implementation: computes all SRGs and
/// compares them against the declared LRCs.
///
/// # Errors
///
/// Propagates [`crate::srg::compute_srgs`] errors (cyclic dependencies,
/// unbound inputs).
pub fn check(
    spec: &Specification,
    arch: &Architecture,
    imp: &Implementation,
) -> Result<ReliabilityVerdict, ReliabilityError> {
    check_time_dependent(spec, arch, &TimeDependentImplementation::from(imp.clone()))
}

/// Checks reliability of a periodic time-dependent implementation: the
/// long-run SRG of each communicator is the mean of its per-phase SRGs.
///
/// # Errors
///
/// Propagates [`crate::srg::compute_srgs`] errors for any phase.
pub fn check_time_dependent(
    spec: &Specification,
    arch: &Architecture,
    imp: &TimeDependentImplementation,
) -> Result<ReliabilityVerdict, ReliabilityError> {
    let phases = imp
        .phases()
        .iter()
        .map(|p| compute_srgs(spec, arch, p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(verdict_from_phases(spec, phases))
}

/// Builds the verdict for already-computed per-phase SRG reports.
pub(crate) fn verdict_from_phases(
    spec: &Specification,
    phases: Vec<SrgReport>,
) -> ReliabilityVerdict {
    let n = phases.len() as f64;
    let long_run: Vec<f64> = spec
        .communicator_ids()
        .map(|c| phases.iter().map(|p| p.communicator(c).get()).sum::<f64>() / n)
        .collect();
    let mut violations = Vec::new();
    for c in spec.communicator_ids() {
        if let Some(lrc) = spec.communicator(c).lrc() {
            let achieved = long_run[c.index()];
            if !meets(achieved, lrc.get()) {
                violations.push(LrcViolation {
                    comm: c,
                    name: spec.communicator(c).name().to_owned(),
                    achieved,
                    required: lrc.get(),
                });
            }
        }
    }
    ReliabilityVerdict {
        phases,
        long_run,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{
        CommunicatorDecl, HostDecl, HostId, Reliability, SensorDecl, SensorId, TaskDecl, ValueType,
    };

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    /// The paper's §3 "General implementation" example: tasks t1, t2 write
    /// c1, c2 with LRC 0.9 on hosts with reliabilities 0.95 and 0.85.
    fn general_example() -> (Specification, Architecture, Implementation, Implementation) {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let c1 = sb
            .communicator(
                CommunicatorDecl::new("c1", ValueType::Float, 10)
                    .unwrap()
                    .with_lrc(r(0.9)),
            )
            .unwrap();
        let c2 = sb
            .communicator(
                CommunicatorDecl::new("c2", ValueType::Float, 10)
                    .unwrap()
                    .with_lrc(r(0.9)),
            )
            .unwrap();
        let t1 = sb
            .task(TaskDecl::new("t1").reads(s, 0).writes(c1, 1))
            .unwrap();
        let t2 = sb
            .task(TaskDecl::new("t2").reads(s, 0).writes(c2, 1))
            .unwrap();
        let spec = sb.build().unwrap();

        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(0.95))).unwrap();
        let h2 = ab.host(HostDecl::new("h2", r(0.85))).unwrap();
        ab.sensor(SensorDecl::new("sen", Reliability::ONE)).unwrap();
        for t in [t1, t2] {
            ab.wcet_all(t, 1).unwrap();
            ab.wctt_all(t, 1).unwrap();
        }
        let arch = ab.build();
        let sen = SensorId::new(0);
        // Phase A: t1 -> h1, t2 -> h2. Phase B: swapped.
        let a = Implementation::builder()
            .assign(t1, [h1])
            .assign(t2, [h2])
            .bind_sensor(s, sen)
            .build(&spec, &arch)
            .unwrap();
        let b = Implementation::builder()
            .assign(t1, [h2])
            .assign(t2, [h1])
            .bind_sensor(s, sen)
            .build(&spec, &arch)
            .unwrap();
        (spec, arch, a, b)
    }

    #[test]
    fn static_mapping_violates_one_lrc() {
        let (spec, arch, a, _) = general_example();
        let verdict = check(&spec, &arch, &a).unwrap();
        assert!(!verdict.is_reliable());
        // t2 on h2 (0.85) violates c2's LRC of 0.9.
        assert_eq!(verdict.violations.len(), 1);
        assert_eq!(verdict.violations[0].name, "c2");
        assert!((verdict.violations[0].achieved - 0.85).abs() < 1e-12);
        assert!(verdict.to_string().contains("NOT reliable"));
    }

    #[test]
    fn alternating_mapping_is_reliable() {
        let (spec, arch, a, b) = general_example();
        let td = TimeDependentImplementation::new(vec![a, b]).unwrap();
        let verdict = check_time_dependent(&spec, &arch, &td).unwrap();
        assert!(verdict.is_reliable(), "{verdict}");
        let c1 = spec.find_communicator("c1").unwrap();
        let c2 = spec.find_communicator("c2").unwrap();
        assert!((verdict.long_run_srg(c1) - 0.9).abs() < 1e-12);
        assert!((verdict.long_run_srg(c2) - 0.9).abs() < 1e-12);
        assert_eq!(verdict.to_string(), "reliable");
    }

    #[test]
    fn margin_reports_slack() {
        let (spec, arch, a, _) = general_example();
        let verdict = check(&spec, &arch, &a).unwrap();
        let c1 = spec.find_communicator("c1").unwrap();
        let s = spec.find_communicator("s").unwrap();
        assert!((verdict.margin(&spec, c1).unwrap() - 0.05).abs() < 1e-12);
        assert_eq!(verdict.margin(&spec, s), None);
    }

    #[test]
    fn static_report_accessor() {
        let (spec, arch, a, b) = general_example();
        let verdict = check(&spec, &arch, &a).unwrap();
        let t1 = spec.find_task("t1").unwrap();
        assert!((verdict.static_report().task(t1).get() - 0.95).abs() < 1e-12);
        let td = TimeDependentImplementation::new(vec![a, b]).unwrap();
        let verdict2 = check_time_dependent(&spec, &arch, &td).unwrap();
        assert_eq!(verdict2.phases.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not a static implementation")]
    fn static_report_panics_for_multiphase() {
        let (spec, arch, a, b) = general_example();
        let td = TimeDependentImplementation::new(vec![a, b]).unwrap();
        let verdict = check_time_dependent(&spec, &arch, &td).unwrap();
        let _ = verdict.static_report();
    }

    #[test]
    fn replication_on_both_hosts_meets_lrc_statically() {
        let (spec, arch, a, _) = general_example();
        let t2 = spec.find_task("t2").unwrap();
        let both = a.with_assignment(t2, [HostId::new(0), HostId::new(1)]);
        let verdict = check(&spec, &arch, &both).unwrap();
        assert!(verdict.is_reliable());
        let c2 = spec.find_communicator("c2").unwrap();
        // 1 - 0.05*0.15 = 0.9925
        assert!((verdict.long_run_srg(c2) - 0.9925).abs() < 1e-12);
    }
}
