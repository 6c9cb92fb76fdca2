//! Component importance measures.
//!
//! Which host or sensor should be improved (or replicated) first?
//! Classical reliability engineering answers with importance measures
//! over the structure function:
//!
//! * **Birnbaum importance** `I_B(x) = λ(x := 1) − λ(x := 0)` — the
//!   sensitivity of an SRG to component `x`;
//! * **improvement potential** `I_P(x) = λ(x := 1) − λ` — the gain from
//!   making `x` perfect.
//!
//! Both are taken from pinned runs of the compiled §3 plan in `f64`:
//! component `x` — a replica unit `task@host` or a sensor — is held at
//! `1` or `0` wherever it enters the induction, which pins every
//! dependency path it lies on at once. [`certify`](mod@crate::certify)
//! takes its bottlenecks from the same measure.

use crate::error::ReliabilityError;
use crate::srg::{SrgPlan, Srgs};
use crate::symbolic::{standard_assignment, support_srgs, Sym};
use logrel_core::{Architecture, CommunicatorId, Implementation, Specification};

/// Importance scores of one named component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentImportance {
    /// The component's name (`task@host` or the sensor's name).
    pub name: String,
    /// Birnbaum importance `λ(x := 1) − λ(x := 0)`.
    pub birnbaum: f64,
    /// Improvement potential `λ(x := 1) − λ`.
    pub improvement: f64,
}

/// The point SRGs in plain `f64`, with component `pin`, if any, held at
/// the given probability. Unpinned, they are bit-identical to
/// [`crate::compute_srgs`].
pub(crate) fn pinned_srgs(
    plan: &SrgPlan,
    arch: &Architecture,
    pin: Option<(Sym, f64)>,
) -> Result<Srgs<f64>, ReliabilityError> {
    let value = standard_assignment(arch);
    let leaf = |sym: Sym| match pin {
        Some((x, v)) if x == sym => v,
        _ => value(sym),
    };
    plan.run(
        |t, h| Ok(leaf(Sym::Replica(t, h))),
        |s| leaf(Sym::Sensor(s)),
    )
}

/// Every SRG with one component pinned working and pinned failed: the
/// two runs Birnbaum importance is the difference of.
pub(crate) struct Birnbaum {
    working: Srgs<f64>,
    failed: Srgs<f64>,
}

impl Birnbaum {
    /// Pins component `x` to `1` and to `0`.
    pub(crate) fn new(
        plan: &SrgPlan,
        arch: &Architecture,
        x: Sym,
    ) -> Result<Birnbaum, ReliabilityError> {
        Ok(Birnbaum {
            working: pinned_srgs(plan, arch, Some((x, 1.0)))?,
            failed: pinned_srgs(plan, arch, Some((x, 0.0)))?,
        })
    }

    /// `I_B(x) = λ_c(x := 1) − λ_c(x := 0)`.
    pub(crate) fn of(&self, c: CommunicatorId) -> f64 {
        self.working.communicator(c) - self.failed.communicator(c)
    }
}

/// Ranks the architecture components (replica units and sensors) that
/// communicator `comm`'s SRG depends on by their Birnbaum importance,
/// descending, ties by name — the components whose improvement (or
/// replication) pays off most. A constant communicator depends on none.
///
/// # Errors
///
/// Same conditions as [`crate::compute_srgs`].
pub fn architecture_importance(
    spec: &Specification,
    arch: &Architecture,
    imp: &Implementation,
    comm: CommunicatorId,
) -> Result<Vec<ComponentImportance>, ReliabilityError> {
    let plan = SrgPlan::compile(spec, imp)?;
    let base = pinned_srgs(&plan, arch, None)?.communicator(comm);
    let support = support_srgs(&plan)?;
    let mut out = support.communicators()[comm.index()]
        .symbols
        .iter()
        .map(|&x| {
            let b = Birnbaum::new(&plan, arch, x)?;
            Ok(ComponentImportance {
                name: x.label(spec, arch),
                birnbaum: b.of(comm),
                improvement: b.working.communicator(comm) - base,
            })
        })
        .collect::<Result<Vec<_>, ReliabilityError>>()?;
    out.sort_by(|a, b| b.birnbaum.total_cmp(&a.birnbaum).then(a.name.cmp(&b.name)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{CommunicatorDecl, HostDecl, Reliability, SensorDecl, TaskDecl, ValueType};

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    #[test]
    fn architecture_ranking_of_a_pipeline() {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
            .unwrap();
        let t = sb
            .task(TaskDecl::new("ctrl").reads(s, 0).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = logrel_core::Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(0.99))).unwrap();
        let h2 = ab.host(HostDecl::new("h2", r(0.99))).unwrap();
        let sen = ab.sensor(SensorDecl::new("weak-sensor", r(0.9))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h1, h2])
            .bind_sensor(s, sen)
            .build(&spec, &arch)
            .unwrap();
        let ranking = architecture_importance(&spec, &arch, &imp, u).unwrap();
        // The unreplicated weak sensor dominates the replicated hosts.
        assert_eq!(ranking[0].name, "weak-sensor");
        assert!(ranking.iter().any(|c| c.name.contains("ctrl@h1")));
    }
}
