//! Replication synthesis: finding a mapping that meets every LRC.
//!
//! The paper chooses its replication mappings by hand (§4's scenarios); a
//! design flow wants the converse direction: given a specification with
//! LRCs and an architecture, *find* a mapping. [`synthesize`] adds replicas
//! greedily where they help the most; [`exhaustive_synthesize`] proves
//! minimality on small systems. Because every SRG is monotone in every task
//! reliability, adding replicas never hurts, which makes the greedy repair
//! loop sound (it terminates at a reliable mapping or exhausts the replica
//! budget).

use crate::analysis::check;
use crate::error::ReliabilityError;
use crate::srg::SrgComputation;
use logrel_core::{
    Architecture, CommunicatorId, FailureModel, HostId, Implementation, Specification, TaskId,
};
use std::collections::BTreeSet;

/// Knobs for the synthesis search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthesisOptions {
    /// Maximum number of replicas per task (≥ 1).
    pub max_replicas_per_task: usize,
    /// Safety bound on greedy repair iterations.
    pub max_iterations: usize,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            max_replicas_per_task: 3,
            max_iterations: 256,
        }
    }
}

/// The tasks whose reliability influences the SRG of `comm` (the writer and,
/// through non-independent failure models, the writers of transitive
/// inputs).
fn influencing_tasks(spec: &Specification, comm: CommunicatorId) -> BTreeSet<TaskId> {
    let mut out = BTreeSet::new();
    let mut stack = vec![comm];
    let mut seen = BTreeSet::new();
    while let Some(c) = stack.pop() {
        if !seen.insert(c) {
            continue;
        }
        if let Some(t) = spec.writer(c) {
            out.insert(t);
            if spec.task(t).failure_model() != FailureModel::Independent {
                stack.extend(spec.task(t).input_comm_set());
            }
        }
    }
    out
}

/// The hosts on which `task` can run (those with both WCET and WCTT
/// declared).
fn candidate_hosts(spec: &Specification, arch: &Architecture, task: TaskId) -> Vec<HostId> {
    let _ = spec;
    arch.host_ids()
        .filter(|&h| arch.wcet(task, h).is_some() && arch.wctt(task, h).is_some())
        .collect()
}

/// Greedy replication synthesis starting from `base` (which supplies the
/// sensor bindings and the initial assignment).
///
/// While some LRC is violated, the search adds the single replica — over
/// all tasks influencing the most-violated communicator and all their
/// candidate hosts — that maximises that communicator's SRG, until every
/// LRC is met or the replica budget is exhausted.
///
/// An optional `feasible` predicate (e.g. a schedulability check) can veto
/// candidate mappings.
///
/// # Errors
///
/// * [`ReliabilityError::Unsatisfiable`] if no admissible replica addition
///   can repair the remaining violations;
/// * any error of [`check`] (cyclic dependencies, unbound inputs).
pub fn synthesize(
    spec: &Specification,
    arch: &Architecture,
    base: &Implementation,
    opts: &SynthesisOptions,
    mut feasible: impl FnMut(&Implementation) -> bool,
) -> Result<Implementation, ReliabilityError> {
    let mut srg = SrgComputation::new(spec, arch, base)?;
    let mut current = base.clone();
    for _ in 0..opts.max_iterations {
        let verdict = srg.check(&current)?;
        let Some(worst) = verdict.violations.iter().max_by(|a, b| {
            (a.required - a.achieved)
                .partial_cmp(&(b.required - b.achieved))
                .expect("finite slacks")
        }) else {
            return Ok(current);
        };

        // Try every admissible single-replica addition.
        let mut best: Option<(Implementation, f64)> = None;
        for t in influencing_tasks(spec, worst.comm) {
            if current.hosts_of(t).len() >= opts.max_replicas_per_task {
                continue;
            }
            for h in candidate_hosts(spec, arch, t) {
                if current.hosts_of(t).contains(&h) {
                    continue;
                }
                let mut hosts: Vec<HostId> = current.hosts_of(t).iter().copied().collect();
                hosts.push(h);
                let candidate = current.with_assignment(t, hosts);
                if !feasible(&candidate) {
                    continue;
                }
                let v = srg.check(&candidate)?;
                let achieved = v.long_run_srg(worst.comm);
                if best.as_ref().is_none_or(|(_, b)| achieved > *b) {
                    best = Some((candidate, achieved));
                }
            }
        }
        match best {
            Some((next, achieved)) if achieved > worst.achieved => current = next,
            _ => {
                let v = check(spec, arch, &current)?;
                return Err(ReliabilityError::Unsatisfiable {
                    unmet: v
                        .violations
                        .iter()
                        .map(|x| (x.name.clone(), x.achieved))
                        .collect(),
                });
            }
        }
    }
    let v = check(spec, arch, &current)?;
    if v.is_reliable() {
        Ok(current)
    } else {
        Err(ReliabilityError::Unsatisfiable {
            unmet: v
                .violations
                .iter()
                .map(|x| (x.name.clone(), x.achieved))
                .collect(),
        })
    }
}

/// Exhaustive synthesis for small systems: enumerates every assignment of
/// non-empty candidate host subsets (up to `max_replicas_per_task`) and
/// returns a reliable, `feasible` mapping with the fewest total replicas.
///
/// # Errors
///
/// * [`ReliabilityError::Structure`] if the search space exceeds
///   `2^22` combinations;
/// * [`ReliabilityError::Unsatisfiable`] if no combination is reliable.
pub fn exhaustive_synthesize(
    spec: &Specification,
    arch: &Architecture,
    base: &Implementation,
    opts: &SynthesisOptions,
    mut feasible: impl FnMut(&Implementation) -> bool,
) -> Result<Implementation, ReliabilityError> {
    // Per task: list of admissible host subsets.
    let mut choices: Vec<Vec<Vec<HostId>>> = Vec::new();
    let mut space = 1usize;
    for t in spec.task_ids() {
        let hosts = candidate_hosts(spec, arch, t);
        let mut subsets = Vec::new();
        for mask in 1u32..(1 << hosts.len()) {
            let subset: Vec<HostId> = hosts
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &h)| h)
                .collect();
            if subset.len() <= opts.max_replicas_per_task {
                subsets.push(subset);
            }
        }
        space = space.saturating_mul(subsets.len().max(1));
        if space > (1 << 22) {
            return Err(ReliabilityError::Structure {
                detail: "exhaustive synthesis space too large".to_owned(),
            });
        }
        choices.push(subsets);
    }

    let mut srg = SrgComputation::new(spec, arch, base)?;
    let mut best: Option<(Implementation, usize)> = None;
    let mut indices = vec![0usize; choices.len()];
    'outer: loop {
        let mut candidate = base.clone();
        for (ti, &ci) in indices.iter().enumerate() {
            let t = TaskId::new(ti as u32);
            candidate = candidate.with_assignment(t, choices[ti][ci].iter().copied());
        }
        let cost = candidate.replication_count();
        if best.as_ref().is_none_or(|(_, b)| cost < *b)
            && feasible(&candidate)
            && srg.check(&candidate)?.is_reliable()
        {
            best = Some((candidate, cost));
        }
        // Advance the mixed-radix counter.
        for i in 0..indices.len() {
            indices[i] += 1;
            if indices[i] < choices[i].len() {
                continue 'outer;
            }
            indices[i] = 0;
        }
        break;
    }
    match best {
        Some((imp, _)) => Ok(imp),
        None => {
            let v = check(spec, arch, base)?;
            Err(ReliabilityError::Unsatisfiable {
                unmet: v
                    .violations
                    .iter()
                    .map(|x| (x.name.clone(), x.achieved))
                    .collect(),
            })
        }
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

    /// sensor -> s -> reader -> l -> ctrl -> u(lrc), three hosts at 0.999.
    fn system(lrc: f64) -> (Specification, Architecture, Implementation) {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 500)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let l = sb
            .communicator(CommunicatorDecl::new("l", ValueType::Float, 100).unwrap())
            .unwrap();
        let u = sb
            .communicator(
                CommunicatorDecl::new("u", ValueType::Float, 100)
                    .unwrap()
                    .with_lrc(r(lrc)),
            )
            .unwrap();
        let reader = sb
            .task(TaskDecl::new("reader").reads(s, 0).writes(l, 1))
            .unwrap();
        let ctrl = sb
            .task(TaskDecl::new("ctrl").reads(l, 1).writes(u, 3))
            .unwrap();
        let spec = sb.build().unwrap();

        let mut ab = Architecture::builder();
        for name in ["h1", "h2", "h3"] {
            ab.host(HostDecl::new(name, r(0.999))).unwrap();
        }
        ab.sensor(SensorDecl::new("sen", Reliability::ONE)).unwrap();
        for t in [reader, ctrl] {
            ab.wcet_all(t, 1).unwrap();
            ab.wctt_all(t, 1).unwrap();
        }
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(reader, [HostId::new(2)])
            .assign(ctrl, [HostId::new(0)])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        (spec, arch, imp)
    }

    #[test]
    fn already_reliable_base_is_returned_unchanged() {
        let (spec, arch, base) = system(0.99);
        let out = synthesize(&spec, &arch, &base, &SynthesisOptions::default(), |_| true).unwrap();
        assert_eq!(out, base);
    }

    #[test]
    fn greedy_adds_replicas_until_lrc_met() {
        // Base SRG of u is 0.999^2 = 0.998001; demand more.
        let (spec, arch, base) = system(0.9995);
        let out = synthesize(&spec, &arch, &base, &SynthesisOptions::default(), |_| true).unwrap();
        assert!(check(&spec, &arch, &out).unwrap().is_reliable());
        assert!(out.replication_count() > base.replication_count());
    }

    #[test]
    fn impossible_lrc_is_unsatisfiable() {
        // Even triple replication of both tasks cannot achieve 0.9999999999.
        let (spec, arch, base) = system(0.999_999_999_9);
        let err =
            synthesize(&spec, &arch, &base, &SynthesisOptions::default(), |_| true).unwrap_err();
        assert!(matches!(err, ReliabilityError::Unsatisfiable { .. }));
        assert!(err.to_string().contains('u'));
    }

    #[test]
    fn feasibility_predicate_vetoes_candidates() {
        let (spec, arch, base) = system(0.9995);
        // Forbid every change: synthesis must fail.
        let err = synthesize(&spec, &arch, &base, &SynthesisOptions::default(), |imp| {
            imp.replication_count() <= base.replication_count()
        })
        .unwrap_err();
        assert!(matches!(err, ReliabilityError::Unsatisfiable { .. }));
    }

    #[test]
    fn exhaustive_finds_minimal_and_greedy_matches_cost() {
        let (spec, arch, base) = system(0.9995);
        let opts = SynthesisOptions::default();
        let greedy = synthesize(&spec, &arch, &base, &opts, |_| true).unwrap();
        let minimal = exhaustive_synthesize(&spec, &arch, &base, &opts, |_| true).unwrap();
        assert!(check(&spec, &arch, &minimal).unwrap().is_reliable());
        assert!(minimal.replication_count() <= greedy.replication_count());
        // λ_u = λ_reader · λ_ctrl: a single duplicated task gives
        // 0.999 · 0.999999 ≈ 0.998999 < 0.9995, so both tasks must be
        // duplicated — minimal total = 4 replicas.
        assert_eq!(minimal.replication_count(), 4);
    }

    #[test]
    fn exhaustive_unsatisfiable() {
        let (spec, arch, base) = system(0.999_999_999_9);
        let err =
            exhaustive_synthesize(&spec, &arch, &base, &SynthesisOptions::default(), |_| true)
                .unwrap_err();
        assert!(matches!(err, ReliabilityError::Unsatisfiable { .. }));
    }

    #[test]
    fn influencing_tasks_stops_at_independent() {
        use logrel_core::Value;
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let a = sb
            .communicator(CommunicatorDecl::new("a", ValueType::Float, 10).unwrap())
            .unwrap();
        let b = sb
            .communicator(CommunicatorDecl::new("b", ValueType::Float, 10).unwrap())
            .unwrap();
        let t1 = sb
            .task(TaskDecl::new("t1").reads(s, 0).writes(a, 1))
            .unwrap();
        let t2 = sb
            .task(
                TaskDecl::new("t2")
                    .reads(a, 1)
                    .writes(b, 2)
                    .model(FailureModel::Independent)
                    .default_value(Value::Float(0.0)),
            )
            .unwrap();
        let spec = sb.build().unwrap();
        let infl = influencing_tasks(&spec, b);
        assert!(infl.contains(&t2));
        assert!(!infl.contains(&t1), "independent model cuts the chain");
        let infl_a = influencing_tasks(&spec, a);
        assert!(infl_a.contains(&t1));
    }
}
