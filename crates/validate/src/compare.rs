//! Diagnosed isomorphism of round denotations.
//!
//! The reference denotation (from the specification) and a candidate
//! denotation (from a compiled round program or composed E-code) are
//! compared node by node; every divergence maps to a stable V-series
//! code:
//!
//! | code | family |
//! |------|--------|
//! | V001 | missing latch edge / latch from the wrong communicator |
//! | V002 | extra latch edge |
//! | V003 | wrong instance index (latch or landing coordinates) |
//! | V004 | vote arity mismatch |
//! | V005 | replica / host / sensor set divergence |
//! | V006 | update-instant skew (missing, extra or wrong-kind update) |
//! | V007 | phase drift across rounds (round period / phase count) |
//! | V008 | non-canonical double update (extraction-time) |
//! | V009 | dead replica output (declared landing never happens) |
//! | V010 | execution-record divergence (missing/extra/double exec, read instant, failure model) |

use crate::denot::{RoundDenotation, UpdateSource};
use logrel_core::{HostId, SensorId, Specification};
use logrel_lint::{Diagnostic, Severity};
use std::collections::BTreeSet;

fn err(code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, Default::default(), message)
}

fn fmt_set<T: std::fmt::Display>(set: &BTreeSet<T>) -> String {
    let names: Vec<String> = set.iter().map(T::to_string).collect();
    format!("{{{}}}", names.join(", "))
}

/// Compares `candidate` (extracted from `artifact`) against `reference`
/// (the specification's denotation), returning one diagnostic per
/// divergence — empty iff the two dataflow DAGs are isomorphic.
pub fn compare_denotations(
    spec: &Specification,
    reference: &RoundDenotation,
    candidate: &RoundDenotation,
    artifact: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if reference.round != candidate.round {
        diags.push(err(
            "V007",
            format!(
                "{artifact}: round period is {} but the specification's hyperperiod is {}",
                candidate.round, reference.round
            ),
        ));
    }
    if reference.phases.len() != candidate.phases.len() {
        diags.push(err(
            "V007",
            format!(
                "{artifact}: {} mapping phase(s), specification mapping has {}",
                candidate.phases.len(),
                reference.phases.len()
            ),
        ));
        return diags;
    }

    for (p, (rp, cp)) in reference.phases.iter().zip(&candidate.phases).enumerate() {
        let at = |slot: u64| -> String {
            if reference.phases.len() > 1 {
                format!("phase {p}, slot {slot}")
            } else {
                format!("slot {slot}")
            }
        };

        // ---- updates ----
        for (&(c, slot), ref_src) in &rp.updates {
            let name = spec.communicator(c).name();
            let Some(cand_src) = cp.updates.get(&(c, slot)) else {
                diags.push(err(
                    "V006",
                    format!(
                        "{artifact}: communicator `{name}` is not updated at {} \
                         (update-instant skew)",
                        at(slot)
                    ),
                ));
                continue;
            };
            match (ref_src, cand_src) {
                (UpdateSource::Sensor { sensors: rs }, UpdateSource::Sensor { sensors: cs }) => {
                    if rs != cs {
                        diags.push(err(
                            "V005",
                            format!(
                                "{artifact}: `{name}` at {} samples sensors {} instead of {} \
                                 (sensor set divergence)",
                                at(slot),
                                fmt_set::<SensorId>(cs),
                                fmt_set::<SensorId>(rs)
                            ),
                        ));
                    }
                }
                (
                    UpdateSource::Landing {
                        task: rt,
                        out_idx: ri,
                        rounds_back: rb,
                        hosts: rh,
                    },
                    UpdateSource::Landing {
                        task: ct,
                        out_idx: ci,
                        rounds_back: cb,
                        hosts: ch,
                    },
                ) => {
                    if (rt, ri, rb) != (ct, ci, cb) {
                        diags.push(err(
                            "V003",
                            format!(
                                "{artifact}: `{name}` at {} receives output {ci} of task `{}` \
                                 from {cb} round(s) back, expected output {ri} of `{}` from \
                                 {rb} round(s) back (wrong instance index)",
                                at(slot),
                                spec.task(*ct).name(),
                                spec.task(*rt).name()
                            ),
                        ));
                    } else if rh.len() != ch.len() {
                        diags.push(err(
                            "V004",
                            format!(
                                "{artifact}: `{name}` at {} is voted over {} replica(s) {}, \
                                 expected {} {} (vote arity mismatch)",
                                at(slot),
                                ch.len(),
                                fmt_set::<HostId>(ch),
                                rh.len(),
                                fmt_set::<HostId>(rh)
                            ),
                        ));
                    } else if rh != ch {
                        diags.push(err(
                            "V005",
                            format!(
                                "{artifact}: `{name}` at {} is voted over hosts {}, expected \
                                 {} (replica set divergence)",
                                at(slot),
                                fmt_set::<HostId>(ch),
                                fmt_set::<HostId>(rh)
                            ),
                        ));
                    }
                }
                (UpdateSource::Landing { task, out_idx, .. }, _) => {
                    diags.push(err(
                        "V009",
                        format!(
                            "{artifact}: output {out_idx} of task `{}` never lands on `{name}` \
                             at {} (dead replica output)",
                            spec.task(*task).name(),
                            at(slot)
                        ),
                    ));
                }
                (_, UpdateSource::Landing { task, .. }) => {
                    diags.push(err(
                        "V003",
                        format!(
                            "{artifact}: `{name}` at {} unexpectedly receives an output of \
                             task `{}` (wrong instance index)",
                            at(slot),
                            spec.task(*task).name()
                        ),
                    ));
                }
                (rs, cs) => {
                    if rs != cs {
                        diags.push(err(
                            "V006",
                            format!(
                                "{artifact}: update of `{name}` at {} diverges in kind from \
                                 the specification (update-instant skew)",
                                at(slot)
                            ),
                        ));
                    }
                }
            }
        }
        for &(c, slot) in cp.updates.keys() {
            if !rp.updates.contains_key(&(c, slot)) {
                diags.push(err(
                    "V006",
                    format!(
                        "{artifact}: communicator `{}` is updated at {}, where no update is \
                         due (update-instant skew)",
                        spec.communicator(c).name(),
                        at(slot)
                    ),
                ));
            }
        }

        // ---- executions ----
        for (&t, re) in &rp.execs {
            let name = spec.task(t).name();
            let Some(ce) = cp.execs.get(&t) else {
                diags.push(err(
                    "V010",
                    format!("{artifact}: task `{name}` never executes (missing execution)"),
                ));
                continue;
            };
            if re.read_slot != ce.read_slot {
                diags.push(err(
                    "V010",
                    format!(
                        "{artifact}: task `{name}` reads at {} instead of {} \
                         (execution-record divergence)",
                        at(ce.read_slot),
                        at(re.read_slot)
                    ),
                ));
            }
            if re.model != ce.model {
                diags.push(err(
                    "V010",
                    format!(
                        "{artifact}: task `{name}` applies failure model {:?}, specification \
                         declares {:?} (execution-record divergence)",
                        ce.model, re.model
                    ),
                ));
            }
            if re.hosts.len() != ce.hosts.len() {
                diags.push(err(
                    "V004",
                    format!(
                        "{artifact}: task `{name}` executes on {} replica(s) {}, expected {} \
                         {} (vote arity mismatch)",
                        ce.hosts.len(),
                        fmt_set::<HostId>(&ce.hosts),
                        re.hosts.len(),
                        fmt_set::<HostId>(&re.hosts)
                    ),
                ));
            } else if re.hosts != ce.hosts {
                diags.push(err(
                    "V005",
                    format!(
                        "{artifact}: task `{name}` executes on hosts {}, expected {} \
                         (replica set divergence)",
                        fmt_set::<HostId>(&ce.hosts),
                        fmt_set::<HostId>(&re.hosts)
                    ),
                ));
            }
            for (i, redge) in re.inputs.iter().enumerate() {
                let Some(cedge) = ce.inputs.get(i) else {
                    diags.push(err(
                        "V001",
                        format!(
                            "{artifact}: input {i} of task `{name}` has no latch edge \
                             (missing latch edge)"
                        ),
                    ));
                    continue;
                };
                if redge.comm != cedge.comm {
                    diags.push(err(
                        "V001",
                        format!(
                            "{artifact}: input {i} of task `{name}` latches `{}`, expected \
                             `{}` (latch from the wrong communicator)",
                            spec.communicator(cedge.comm).name(),
                            spec.communicator(redge.comm).name()
                        ),
                    ));
                } else if (redge.latch_slot, redge.origin) != (cedge.latch_slot, cedge.origin) {
                    let inst = |slot: u64, origin: Option<u64>| match origin {
                        Some(o) => {
                            format!("the instance updated at slot {o}, latched at slot {slot}")
                        }
                        None => format!("a stale pre-round value latched at slot {slot}"),
                    };
                    diags.push(err(
                        "V003",
                        format!(
                            "{artifact}: input {i} of task `{name}` captures {} — the \
                             specification latches {} (wrong instance index)",
                            inst(cedge.latch_slot, cedge.origin),
                            inst(redge.latch_slot, redge.origin)
                        ),
                    ));
                }
            }
            for i in re.inputs.len()..ce.inputs.len() {
                diags.push(err(
                    "V002",
                    format!(
                        "{artifact}: input {i} of task `{name}` is latched but not declared \
                         (extra latch edge)"
                    ),
                ));
            }
        }
        for &t in cp.execs.keys() {
            if !rp.execs.contains_key(&t) {
                diags.push(err(
                    "V010",
                    format!(
                        "{artifact}: task `{}` executes but the specification declares no \
                         such execution in this phase",
                        spec.task(t).name()
                    ),
                ));
            }
        }
    }
    diags
}
