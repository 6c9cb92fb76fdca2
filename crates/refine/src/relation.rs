//! The refinement relation checker (§3's six local constraints).

use crate::error::{RefineError, Violation};
use crate::kappa::Kappa;
use logrel_core::prob::meets;
use logrel_core::{Architecture, FailureModel, Implementation, Specification};

/// A borrowed view of a system `(S, A, I)`.
#[derive(Debug, Clone, Copy)]
pub struct SystemRef<'a> {
    /// The specification.
    pub spec: &'a Specification,
    /// The architecture.
    pub arch: &'a Architecture,
    /// The implementation.
    pub imp: &'a Implementation,
}

impl<'a> SystemRef<'a> {
    /// Bundles the three components.
    pub fn new(spec: &'a Specification, arch: &'a Architecture, imp: &'a Implementation) -> Self {
        SystemRef { spec, arch, imp }
    }
}

/// Checks whether `refining ⊑_κ refined` — i.e. whether the refining
/// system refines the refined one under κ.
///
/// All violations are collected before returning, so a failed check
/// explains every broken constraint at once.
///
/// # Errors
///
/// * [`RefineError::UnknownTask`] if κ points outside the refined spec;
/// * [`RefineError::NotARefinement`] with the violation list otherwise.
pub fn check_refinement(
    refining: SystemRef<'_>,
    refined: SystemRef<'_>,
    kappa: &Kappa,
) -> Result<(), RefineError> {
    let mut violations = Vec::new();

    // κ totality/injectivity.
    match kappa.validate(refining.spec, refined.spec) {
        Ok(()) => {}
        Err(RefineError::NotARefinement { violations: v }) => violations.extend(v),
        Err(e) => return Err(e),
    }

    // Constraint (a): hset' = hset (names and reliabilities).
    if refining.arch.host_count() != refined.arch.host_count() {
        violations.push(Violation::HostSetMismatch {
            detail: format!(
                "{} hosts vs {}",
                refining.arch.host_count(),
                refined.arch.host_count()
            ),
        });
    } else {
        for h in refining.arch.host_ids() {
            let a = refining.arch.host(h);
            let b = refined.arch.host(h);
            if a.name() != b.name() || a.reliability() != b.reliability() {
                violations.push(Violation::HostSetMismatch {
                    detail: format!("host {} differs ({} vs {})", h, a.name(), b.name()),
                });
            }
        }
    }

    for t in refining.spec.task_ids() {
        let Some(img) = kappa.image(t) else {
            continue; // already reported as KappaNotTotal
        };
        if img.index() >= refined.spec.task_count() {
            continue; // already reported by kappa.validate
        }
        let name = refining.spec.task(t).name().to_owned();
        let td = refining.spec.task(t);
        let id = refined.spec.task(img);

        // (b1) identical replication mapping.
        if refining.imp.hosts_of(t) != refined.imp.hosts_of(img) {
            violations.push(Violation::MappingMismatch { task: name.clone() });
        }

        // (b2) metrics must not grow, on every host of the mapping.
        for &h in refining.imp.hosts_of(t) {
            for (metric, get_new, get_old) in [
                ("WCET", refining.arch.wcet(t, h), refined.arch.wcet(img, h)),
                ("WCTT", refining.arch.wctt(t, h), refined.arch.wctt(img, h)),
            ] {
                if let (Some(new), Some(old)) = (get_new, get_old) {
                    if new > old {
                        violations.push(Violation::MetricIncreased {
                            metric,
                            task: name.clone(),
                            host: refining.arch.host(h).name().to_owned(),
                            refining: new,
                            refined: old,
                        });
                    }
                }
            }
        }

        // (b3) contained LET.
        if refining.spec.read_time(t) < refined.spec.read_time(img) {
            violations.push(Violation::LetNotContained {
                task: name.clone(),
                read_side: true,
            });
        }
        if refining.spec.write_time(t) > refined.spec.write_time(img) {
            violations.push(Violation::LetNotContained {
                task: name.clone(),
                read_side: false,
            });
        }

        // (b4) output LRCs bounded by the image's largest output LRC.
        let max_lrc = id
            .output_comm_set()
            .into_iter()
            .filter_map(|c| refined.spec.communicator(c).lrc())
            .map(|r| r.get())
            .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.max(x))));
        for c in td.output_comm_set() {
            if let Some(lrc) = refining.spec.communicator(c).lrc() {
                let ok = max_lrc.is_some_and(|m| meets(m, lrc.get()));
                if !ok {
                    violations.push(Violation::LrcExceeded {
                        task: name.clone(),
                        comm: refining.spec.communicator(c).name().to_owned(),
                        lrc: lrc.get(),
                        max: max_lrc,
                    });
                }
            }
        }

        // (b5) identical failure model.
        if td.failure_model() != id.failure_model() {
            violations.push(Violation::ModelChanged { task: name.clone() });
        }

        // (b6) input-set inclusion, compared by communicator *name* since
        // the two specifications have distinct id spaces.
        let new_inputs: std::collections::BTreeSet<&str> = td
            .input_comm_set()
            .into_iter()
            .map(|c| refining.spec.communicator(c).name())
            .collect();
        let old_inputs: std::collections::BTreeSet<&str> = id
            .input_comm_set()
            .into_iter()
            .map(|c| refined.spec.communicator(c).name())
            .collect();
        match td.failure_model() {
            FailureModel::Series => {
                if !new_inputs.is_subset(&old_inputs) {
                    violations.push(Violation::InputSetMismatch {
                        task: name.clone(),
                        subset_required: true,
                    });
                }
            }
            FailureModel::Parallel => {
                if !new_inputs.is_superset(&old_inputs) {
                    violations.push(Violation::InputSetMismatch {
                        task: name.clone(),
                        subset_required: false,
                    });
                }
            }
            FailureModel::Independent => {}
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(RefineError::NotARefinement { violations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{
        CommunicatorDecl, HostDecl, Reliability, SensorDecl, SensorId, TaskDecl, ValueType,
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

    /// A parameterised single-task system: `t` reads `s`@read_i, writes
    /// `u`@write_i, with configurable wcet and LRC.
    fn make(read_i: u64, write_i: u64, wcet: u64, lrc: Option<f64>) -> Sys {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let mut u_decl = CommunicatorDecl::new("u", ValueType::Float, 10).unwrap();
        if let Some(m) = lrc {
            u_decl = u_decl.with_lrc(r(m));
        }
        let u = sb.communicator(u_decl).unwrap();
        let t = sb
            .task(TaskDecl::new("t").reads(s, read_i).writes(u, write_i))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(0.99))).unwrap();
        ab.host(HostDecl::new("h2", r(0.98))).unwrap();
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
    fn reflexive() {
        let a = make(0, 3, 5, Some(0.9));
        let k = Kappa::identity(&a.spec);
        assert!(check_refinement(a.as_ref(), a.as_ref(), &k).is_ok());
    }

    #[test]
    fn tighter_let_and_smaller_wcet_refines() {
        // Refining: reads later (1 vs 0), writes earlier (2 vs 3), smaller
        // wcet, weaker LRC.
        let refining = make(1, 2, 3, Some(0.8));
        let refined = make(0, 3, 5, Some(0.9));
        let k = Kappa::by_name(&refining.spec, &refined.spec);
        check_refinement(refining.as_ref(), refined.as_ref(), &k).unwrap();
    }

    #[test]
    fn wider_let_is_rejected() {
        let refining = make(0, 4, 5, Some(0.9));
        let refined = make(1, 3, 5, Some(0.9));
        let k = Kappa::by_name(&refining.spec, &refined.spec);
        let err = check_refinement(refining.as_ref(), refined.as_ref(), &k).unwrap_err();
        let RefineError::NotARefinement { violations } = err else {
            panic!()
        };
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::LetNotContained {
                read_side: true,
                ..
            }
        )));
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::LetNotContained {
                read_side: false,
                ..
            }
        )));
    }

    #[test]
    fn larger_wcet_is_rejected() {
        let refining = make(0, 3, 7, Some(0.9));
        let refined = make(0, 3, 5, Some(0.9));
        let k = Kappa::by_name(&refining.spec, &refined.spec);
        let err = check_refinement(refining.as_ref(), refined.as_ref(), &k).unwrap_err();
        assert!(err.to_string().contains("WCET"));
    }

    #[test]
    fn stronger_lrc_is_rejected() {
        let refining = make(0, 3, 5, Some(0.99));
        let refined = make(0, 3, 5, Some(0.9));
        let k = Kappa::by_name(&refining.spec, &refined.spec);
        let err = check_refinement(refining.as_ref(), refined.as_ref(), &k).unwrap_err();
        let RefineError::NotARefinement { violations } = err else {
            panic!()
        };
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::LrcExceeded { max: Some(_), .. })));
    }

    #[test]
    fn lrc_against_unconstrained_image_is_rejected() {
        let refining = make(0, 3, 5, Some(0.5));
        let refined = make(0, 3, 5, None);
        let k = Kappa::by_name(&refining.spec, &refined.spec);
        let err = check_refinement(refining.as_ref(), refined.as_ref(), &k).unwrap_err();
        let RefineError::NotARefinement { violations } = err else {
            panic!()
        };
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::LrcExceeded { max: None, .. })));
    }

    #[test]
    fn different_mapping_is_rejected() {
        let refining = make(0, 3, 5, Some(0.9));
        let refined = make(0, 3, 5, Some(0.9));
        let t = refining.spec.find_task("t").unwrap();
        let moved = refining
            .imp
            .with_assignment(t, [logrel_core::HostId::new(1)]);
        let refining_moved = SystemRef::new(&refining.spec, &refining.arch, &moved);
        let k = Kappa::identity(&refining.spec);
        let err = check_refinement(refining_moved, refined.as_ref(), &k).unwrap_err();
        let RefineError::NotARefinement { violations } = err else {
            panic!()
        };
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::MappingMismatch { .. })));
    }

    #[test]
    fn different_host_set_is_rejected() {
        let refining = make(0, 3, 5, Some(0.9));
        let refined = make(0, 3, 5, Some(0.9));
        // Rebuild refined arch with a different host reliability.
        let t = refined.spec.find_task("t").unwrap();
        let mut ab = Architecture::builder();
        ab.host(HostDecl::new("h1", r(0.5))).unwrap();
        ab.host(HostDecl::new("h2", r(0.98))).unwrap();
        ab.sensor(SensorDecl::new("sen", Reliability::ONE)).unwrap();
        ab.wcet_all(t, 5).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch2 = ab.build();
        let refined2 = SystemRef::new(&refined.spec, &arch2, &refined.imp);
        let k = Kappa::identity(&refining.spec);
        let err = check_refinement(refining.as_ref(), refined2, &k).unwrap_err();
        assert!(err.to_string().contains("host"));
    }

    #[test]
    fn series_inputs_may_shrink_but_not_grow() {
        // Refined task reads s and extra; refining reads only s: OK.
        let build = |extra_input: bool| -> Sys {
            let mut sb = Specification::builder();
            let s = sb
                .communicator(
                    CommunicatorDecl::new("s", ValueType::Float, 10)
                        .unwrap()
                        .from_sensor(),
                )
                .unwrap();
            let extra = sb
                .communicator(
                    CommunicatorDecl::new("extra", ValueType::Float, 10)
                        .unwrap()
                        .from_sensor(),
                )
                .unwrap();
            let u = sb
                .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
                .unwrap();
            let mut td = TaskDecl::new("t").reads(s, 0);
            if extra_input {
                td = td.reads(extra, 0);
            }
            let t = sb.task(td.writes(u, 1)).unwrap();
            let spec = sb.build().unwrap();
            let mut ab = Architecture::builder();
            let h1 = ab.host(HostDecl::new("h1", r(0.99))).unwrap();
            ab.host(HostDecl::new("h2", r(0.98))).unwrap();
            let sen = ab.sensor(SensorDecl::new("sen", Reliability::ONE)).unwrap();
            ab.wcet_all(t, 5).unwrap();
            ab.wctt_all(t, 1).unwrap();
            let arch = ab.build();
            let mut ib = Implementation::builder()
                .assign(t, [h1])
                .bind_sensor(s, sen);
            ib = ib.bind_sensor(extra, sen);
            let imp = ib.build(&spec, &arch).unwrap();
            Sys { spec, arch, imp }
        };
        let narrow = build(false);
        let wide = build(true);
        let k = Kappa::by_name(&narrow.spec, &wide.spec);
        // narrow refines wide (subset of inputs).
        check_refinement(narrow.as_ref(), wide.as_ref(), &k).unwrap();
        // wide does NOT refine narrow.
        let k2 = Kappa::by_name(&wide.spec, &narrow.spec);
        let err = check_refinement(wide.as_ref(), narrow.as_ref(), &k2).unwrap_err();
        let RefineError::NotARefinement { violations } = err else {
            panic!()
        };
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::InputSetMismatch {
                subset_required: true,
                ..
            }
        )));
    }

    #[test]
    fn transitivity_of_refinement() {
        let a = make(2, 3, 2, Some(0.7)); // tightest
        let b = make(1, 4, 4, Some(0.8));
        let c = make(0, 5, 6, Some(0.9)); // loosest
        let kab = Kappa::by_name(&a.spec, &b.spec);
        let kbc = Kappa::by_name(&b.spec, &c.spec);
        let kac = Kappa::by_name(&a.spec, &c.spec);
        check_refinement(a.as_ref(), b.as_ref(), &kab).unwrap();
        check_refinement(b.as_ref(), c.as_ref(), &kbc).unwrap();
        // Transitivity: a refines c directly.
        check_refinement(a.as_ref(), c.as_ref(), &kac).unwrap();
    }

    #[test]
    fn antisymmetry_on_let() {
        // a refines b but b does not refine a (strictly tighter LET).
        let a = make(1, 3, 5, Some(0.9));
        let b = make(0, 4, 5, Some(0.9));
        let kab = Kappa::by_name(&a.spec, &b.spec);
        let kba = Kappa::by_name(&b.spec, &a.spec);
        check_refinement(a.as_ref(), b.as_ref(), &kab).unwrap();
        assert!(check_refinement(b.as_ref(), a.as_ref(), &kba).is_err());
    }
}
