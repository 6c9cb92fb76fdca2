//! The reference denotation: the specification's declared dataflow.
//!
//! Derived directly from the specification's read/write instants and the
//! replication mapping — deliberately *not* through [`Calendar`] or the
//! kernel compiler, so the reference side of the certificate shares no
//! code with the artifacts it certifies.
//!
//! [`Calendar`]: logrel_core::Calendar

use crate::denot::{ExecRecord, LatchEdge, PhaseDenotation, RoundDenotation, UpdateSource};
use logrel_core::{Specification, TimeDependentImplementation};
use std::collections::BTreeMap;

/// Builds the specification's denotation for one round, per mapping phase.
pub fn spec_denotation(spec: &Specification, imp: &TimeDependentImplementation) -> RoundDenotation {
    let round = spec.round_period().as_u64();
    let n = imp.phase_count();

    // Landing sites straight from the declared write instants: the output
    // written at absolute instant `abs` lands at slot `abs % round`, one
    // round later when `abs == round`.
    let mut landing: BTreeMap<
        (logrel_core::CommunicatorId, u64),
        (logrel_core::TaskId, usize, u64),
    > = BTreeMap::new();
    for t in spec.task_ids() {
        for (idx, &a) in spec.task(t).outputs().iter().enumerate() {
            let abs = spec.access_instant(a).as_u64();
            landing.insert((a.comm, abs % round), (t, idx, abs / round));
        }
    }

    let phases = (0..n)
        .map(|p| {
            let mut den = PhaseDenotation::default();
            for c in spec.communicator_ids() {
                for at in spec.update_instants(c) {
                    let slot = at.as_u64();
                    let source = if spec.is_sensor_input(c) {
                        UpdateSource::Sensor {
                            sensors: imp.phases()[p].sensors_of(c).clone(),
                        }
                    } else if let Some(&(t, out_idx, rounds_back)) = landing.get(&(c, slot)) {
                        // The landing invocation executed `rounds_back`
                        // rounds earlier, in the phase shifted back by as
                        // much.
                        let wp = (p + n - (rounds_back as usize % n)) % n;
                        UpdateSource::Landing {
                            task: t,
                            out_idx,
                            rounds_back,
                            hosts: imp.phases()[wp].hosts_of(t).clone(),
                        }
                    } else {
                        UpdateSource::Persist
                    };
                    den.updates.insert((c, slot), source);
                }
            }
            for t in spec.task_ids() {
                let decl = spec.task(t);
                let inputs = decl
                    .inputs()
                    .iter()
                    .map(|&a| {
                        // The access `(c, i)` latches at `i·π_c`, directly
                        // after the update that creates instance `i` — the
                        // latched instance originates at the latch slot.
                        let latch_slot = spec.access_instant(a).as_u64();
                        LatchEdge {
                            comm: a.comm,
                            latch_slot,
                            origin: Some(latch_slot),
                        }
                    })
                    .collect();
                den.execs.insert(
                    t,
                    ExecRecord {
                        read_slot: spec.read_time(t).as_u64(),
                        model: decl.failure_model(),
                        hosts: imp.phases()[p].hosts_of(t).clone(),
                        inputs,
                    },
                );
            }
            den
        })
        .collect();

    RoundDenotation { round, phases }
}
