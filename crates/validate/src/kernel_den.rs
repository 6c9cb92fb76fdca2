//! Symbolic execution of a compiled [`RoundProgram`].
//!
//! Interprets the program's instruction lists for one round per phase —
//! over symbolic values, tracking only *which* instance flows where —
//! and reduces the result to a [`RoundDenotation`]. Structural defects
//! that make the program non-canonical (double updates, unlatched reads,
//! out-of-range indices) abort extraction with V-series diagnostics;
//! everything else is caught by comparison against the specification's
//! denotation.
//!
//! [`RoundProgram`]: logrel_core::RoundProgram

use crate::denot::{ExecRecord, LatchEdge, PhaseDenotation, RoundDenotation, UpdateSource};
use logrel_core::roundprog::UpdateOp;
use logrel_core::{CommunicatorId, RoundProgram, Specification, TaskId};
use logrel_lint::{Diagnostic, Severity};
use std::collections::BTreeMap;

fn err(code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, Default::default(), message)
}

/// One recorded latch: where the value came from and whether an execution
/// consumed it.
#[derive(Debug, Clone, Copy)]
struct LatchRecord {
    slot: u64,
    comm: u32,
    origin: Option<u64>,
}

/// Symbolically executes `prog` for one round per phase and reduces it to
/// its denotation.
///
/// The specification is used only for naming (diagnostics) and for the
/// index bounds of the symbolic store — never for the dataflow itself.
pub fn kernel_denotation(
    spec: &Specification,
    prog: &RoundProgram,
) -> Result<RoundDenotation, Vec<Diagnostic>> {
    let round = spec.round_period().as_u64();
    let n_comms = spec.communicator_count();
    let mut diags = Vec::new();
    let comm_name = |c: u32| -> String {
        if (c as usize) < n_comms {
            spec.communicator(CommunicatorId::new(c)).name().to_string()
        } else {
            format!("#{c}")
        }
    };
    let task_name = |t: u32| -> String {
        if (t as usize) < spec.task_count() {
            spec.task(TaskId::new(t)).name().to_string()
        } else {
            format!("#{t}")
        }
    };
    // Map a flat output slot back to (task, out_idx) via the task tables.
    let owner_of_out_slot = |s: u32| -> Option<(u32, usize)> {
        prog.tasks.iter().enumerate().find_map(|(t, tt)| {
            let s = s as usize;
            (s >= tt.out_base && s < tt.out_base + tt.n_out).then_some((t as u32, s - tt.out_base))
        })
    };

    let mut phases = Vec::with_capacity(prog.phases.len());
    for (p, tables) in prog.phases.iter().enumerate() {
        let mut den = PhaseDenotation::default();
        // Slot of the last update of each communicator, walked in program
        // order: this is what names the instance a latch captures.
        let mut last_update: Vec<Option<u64>> = vec![None; n_comms];
        // Flat latch buffer holding provenance instead of values.
        let mut latched: BTreeMap<u32, LatchRecord> = BTreeMap::new();

        for sp in &prog.slots {
            let slot = sp.offset;
            for op in &sp.updates {
                let comm = match *op {
                    UpdateOp::Sensor { comm }
                    | UpdateOp::Landed { comm, .. }
                    | UpdateOp::Persist { comm } => comm,
                };
                if comm as usize >= n_comms {
                    diags.push(err(
                        "V006",
                        format!(
                            "phase {p}: update of undeclared communicator {} at slot {slot}",
                            comm_name(comm)
                        ),
                    ));
                    continue;
                }
                let key = (CommunicatorId::new(comm), slot);
                let source = match *op {
                    UpdateOp::Sensor { comm } => UpdateSource::Sensor {
                        sensors: tables.sensors[comm as usize].iter().copied().collect(),
                    },
                    UpdateOp::Landed {
                        task,
                        out_slot,
                        rounds_back,
                        ..
                    } => {
                        // The landing invocation ran `rounds_back` rounds
                        // earlier — resolve its replica set in that phase.
                        let n = prog.phases.len();
                        let wp = (p + n - (rounds_back as usize % n)) % n;
                        match owner_of_out_slot(out_slot) {
                            Some((owner, out_idx)) if owner == task => UpdateSource::Landing {
                                task: TaskId::new(task),
                                out_idx,
                                rounds_back: u64::from(rounds_back),
                                hosts: prog.phases[wp]
                                    .hosts
                                    .get(task as usize)
                                    .map(|h| h.iter().copied().collect())
                                    .unwrap_or_default(),
                            },
                            _ => {
                                diags.push(err(
                                    "V003",
                                    format!(
                                        "phase {p}: landing on `{}` at slot {slot} reads output \
                                         slot {out_slot}, which does not belong to task `{}`",
                                        comm_name(comm),
                                        task_name(task)
                                    ),
                                ));
                                continue;
                            }
                        }
                    }
                    UpdateOp::Persist { .. } => UpdateSource::Persist,
                };
                if den.updates.insert(key, source).is_some() {
                    diags.push(err(
                        "V008",
                        format!(
                            "phase {p}: communicator `{}` is updated twice at slot {slot} \
                             (non-canonical double update)",
                            comm_name(comm)
                        ),
                    ));
                }
                last_update[comm as usize] = Some(slot);
            }

            for l in &sp.latches {
                if l.dst as usize >= prog.total_inputs {
                    diags.push(err(
                        "V002",
                        format!(
                            "phase {p}: latch at slot {slot} targets input slot {} outside the \
                             latch buffer (extra latch edge)",
                            l.dst
                        ),
                    ));
                    continue;
                }
                let origin = if (l.comm as usize) < n_comms {
                    last_update[l.comm as usize]
                } else {
                    None
                };
                let rec = LatchRecord {
                    slot,
                    comm: l.comm,
                    origin,
                };
                if latched.insert(l.dst, rec).is_some() {
                    diags.push(err(
                        "V002",
                        format!(
                            "phase {p}: input slot {} is latched more than once per round \
                             (extra latch edge at slot {slot})",
                            l.dst
                        ),
                    ));
                }
            }

            for &ti in &sp.reads {
                let Some(tt) = prog.tasks.get(ti as usize) else {
                    diags.push(err(
                        "V010",
                        format!(
                            "phase {p}: read of undeclared task {} at slot {slot}",
                            task_name(ti)
                        ),
                    ));
                    continue;
                };
                let mut inputs = Vec::with_capacity(tt.n_in);
                let mut complete = true;
                for i in 0..tt.n_in {
                    let dst = (tt.in_base + i) as u32;
                    match latched.get(&dst) {
                        Some(rec) => inputs.push(LatchEdge {
                            comm: CommunicatorId::new(rec.comm),
                            latch_slot: rec.slot,
                            origin: rec.origin,
                        }),
                        None => {
                            diags.push(err(
                                "V001",
                                format!(
                                    "phase {p}: input {i} of task `{}` is never latched before \
                                     its read at slot {slot} (missing latch edge)",
                                    task_name(ti)
                                ),
                            ));
                            complete = false;
                        }
                    }
                }
                if !complete {
                    continue;
                }
                let rec = ExecRecord {
                    read_slot: slot,
                    model: tt.model,
                    hosts: tables
                        .hosts
                        .get(ti as usize)
                        .map(|h| h.iter().copied().collect())
                        .unwrap_or_default(),
                    inputs,
                };
                if den.execs.insert(TaskId::new(ti), rec).is_some() {
                    diags.push(err(
                        "V010",
                        format!(
                            "phase {p}: task `{}` executes more than once per round \
                             (second read at slot {slot})",
                            task_name(ti)
                        ),
                    ));
                }
            }
        }
        phases.push(den);
    }

    if diags.is_empty() {
        Ok(RoundDenotation { round, phases })
    } else {
        Err(diags)
    }
}
