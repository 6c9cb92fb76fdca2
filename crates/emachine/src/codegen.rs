//! Compiling a specification into per-host E-code.
//!
//! One reaction block is emitted per *event instant* of the round — an
//! instant where a communicator update is due or a task hosted here reaches
//! its read time. A block performs, in order:
//!
//! 1. `call update(c, i)` for every communicator instance due now (voting
//!    over received broadcast values happens inside the driver), with
//!    sensor-fed communicators refreshed via `call read_sensors(c)`;
//! 2. `call load_inputs(t)` followed by `release t` for every local task
//!    replication whose read time is now;
//! 3. `future Δ next_block; return` — chaining to the next event instant,
//!    with the last block wrapping to instant 0 of the next round.
//!
//! The ordering realises the paper's semantics assumption (3): "if a
//! communicator is updated, then all replications are first updated and
//! then read".

use crate::instruction::{Addr, DriverOp, ECode, Instruction};
use logrel_core::{HostId, Implementation, Specification, Tick};
use std::collections::BTreeSet;

/// The reaction blocks of one mode on one host: flat instructions with
/// `Future` targets left unpatched (`Addr(usize::MAX)`), the offset of each
/// block and the round length.
pub(crate) struct ModeBlocks {
    pub instructions: Vec<Instruction>,
    /// Offset of each block within `instructions`.
    pub block_offsets: Vec<usize>,
}

pub(crate) fn emit_blocks(spec: &Specification, imp: &Implementation, host: HostId) -> ModeBlocks {
    let round = spec.round_period().as_u64();

    // Collect event instants.
    let mut instants: BTreeSet<u64> = BTreeSet::new();
    for c in spec.communicator_ids() {
        let period = spec.communicator(c).period().as_u64();
        let mut t = 0;
        while t < round {
            instants.insert(t);
            t += period;
        }
    }
    for t in spec.task_ids() {
        if imp.hosts_of(t).contains(&host) {
            instants.insert(spec.read_time(t).as_u64() % round);
            for &a in spec.task(t).inputs() {
                instants.insert(spec.access_instant(a).as_u64() % round);
            }
        }
    }
    let instants: Vec<u64> = instants.into_iter().collect();

    let mut instructions = Vec::new();
    let mut block_offsets = Vec::with_capacity(instants.len());
    for (k, &at) in instants.iter().enumerate() {
        block_offsets.push(instructions.len());
        let now = Tick::new(at);

        // 1. Communicator updates due at `now`.
        for c in spec.communicator_ids() {
            let period = spec.communicator(c).period();
            if now.is_multiple_of(period) {
                if spec.is_sensor_input(c) {
                    instructions.push(Instruction::Call(DriverOp::ReadSensors { comm: c }));
                }
                instructions.push(Instruction::Call(DriverOp::UpdateCommunicator {
                    comm: c,
                    instance: at / period.as_u64(),
                }));
            }
        }

        // 2. Input latches due at `now` on this host (access instants),
        //    then releases for tasks whose read time is now.
        for t in spec.task_ids() {
            if !imp.hosts_of(t).contains(&host) {
                continue;
            }
            for (index, &a) in spec.task(t).inputs().iter().enumerate() {
                if spec.access_instant(a).as_u64() == at {
                    instructions.push(Instruction::Call(DriverOp::LatchInput {
                        task: t,
                        index: index as u32,
                    }));
                }
            }
        }
        for t in spec.task_ids() {
            if imp.hosts_of(t).contains(&host) && spec.read_time(t).as_u64() == at {
                instructions.push(Instruction::Release { task: t });
            }
        }

        // 3. Chain to the next block (target patched by the caller).
        let delta = if k + 1 < instants.len() {
            instants[k + 1] - at
        } else {
            round - at + instants[0]
        };
        instructions.push(Instruction::Future {
            delta,
            target: Addr(usize::MAX),
        });
        instructions.push(Instruction::Return);
    }
    ModeBlocks {
        instructions,
        block_offsets,
    }
}

/// Generates the (single-mode) E-code program for `host`.
///
/// Communicator updates are emitted on *every* host (all replications must
/// stay synchronised); loads and releases only for tasks mapped to `host`.
pub fn generate(spec: &Specification, imp: &Implementation, host: HostId) -> ECode {
    let ModeBlocks {
        mut instructions,
        block_offsets,
    } = emit_blocks(spec, imp, host);
    // Block k chains to block k+1, cyclically.
    let mut block = 0usize;
    for ins in instructions.iter_mut() {
        if let Instruction::Future { target, .. } = ins {
            let next = (block + 1) % block_offsets.len();
            *target = Addr(block_offsets[next]);
            block += 1;
        }
    }
    ECode::new(instructions, Addr(block_offsets[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{
        Architecture, CommunicatorDecl, HostDecl, Reliability, SensorDecl, SensorId, TaskDecl,
        ValueType,
    };

    fn system() -> (Specification, Implementation, HostId, HostId) {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 5).unwrap())
            .unwrap();
        let t = sb
            .task(TaskDecl::new("ctrl").reads(s, 0).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h1 = ab
            .host(HostDecl::new("h1", Reliability::new(0.99).unwrap()))
            .unwrap();
        let h2 = ab
            .host(HostDecl::new("h2", Reliability::new(0.99).unwrap()))
            .unwrap();
        ab.sensor(SensorDecl::new("sn", Reliability::ONE)).unwrap();
        ab.wcet_all(t, 2).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h1])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        (spec, imp, h1, h2)
    }

    #[test]
    fn generates_blocks_for_each_event_instant() {
        let (spec, imp, h1, _) = system();
        let code = generate(&spec, &imp, h1);
        // Event instants: 0 and 5 (u's second instance). Two blocks.
        let futures: Vec<_> = (0..code.len())
            .map(|i| code.instruction(Addr(i)))
            .filter(|i| matches!(i, Instruction::Future { .. }))
            .collect();
        assert_eq!(futures.len(), 2);
        // Deltas chain 0 -> 5 -> (wrap) 10.
        assert!(matches!(futures[0], Instruction::Future { delta: 5, .. }));
        assert!(matches!(futures[1], Instruction::Future { delta: 5, .. }));
    }

    #[test]
    fn mapped_host_releases_the_task_but_other_host_does_not() {
        let (spec, imp, h1, h2) = system();
        let t = spec.find_task("ctrl").unwrap();
        let on_h1 = generate(&spec, &imp, h1);
        let on_h2 = generate(&spec, &imp, h2);
        let has_release = |code: &ECode| {
            (0..code.len())
                .map(|i| code.instruction(Addr(i)))
                .any(|i| i == Instruction::Release { task: t })
        };
        assert!(has_release(&on_h1));
        assert!(!has_release(&on_h2));
        // But both hosts update communicators.
        let updates = |code: &ECode| {
            (0..code.len())
                .map(|i| code.instruction(Addr(i)))
                .filter(|i| matches!(i, Instruction::Call(DriverOp::UpdateCommunicator { .. })))
                .count()
        };
        assert_eq!(updates(&on_h1), updates(&on_h2));
        assert_eq!(updates(&on_h1), 3); // s@0, u@0, u@5
    }

    #[test]
    fn updates_precede_latches_in_block_zero() {
        let (spec, imp, h1, _) = system();
        let code = generate(&spec, &imp, h1);
        let mut saw_update = false;
        for i in 0..code.len() {
            match code.instruction(Addr(i)) {
                Instruction::Call(DriverOp::UpdateCommunicator { .. }) => saw_update = true,
                Instruction::Call(DriverOp::LatchInput { .. }) => {
                    assert!(saw_update, "latch before any update in block 0");
                    return;
                }
                Instruction::Return => break,
                _ => {}
            }
        }
        panic!("no latch found in block 0");
    }

    #[test]
    fn latches_are_emitted_at_access_instants_not_read_time() {
        // A task reading an early instance: the latch must sit in the
        // block of the access instant, before the release's block.
        let mut sb = Specification::builder();
        let a = sb
            .communicator(
                CommunicatorDecl::new("a", ValueType::Float, 2)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let b = sb
            .communicator(
                CommunicatorDecl::new("b", ValueType::Float, 6)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let o = sb
            .communicator(CommunicatorDecl::new("o", ValueType::Float, 12).unwrap())
            .unwrap();
        let t = sb
            .task(TaskDecl::new("late").reads(a, 1).reads(b, 1).writes(o, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab
            .host(HostDecl::new("h", Reliability::new(0.9).unwrap()))
            .unwrap();
        let sn = ab.sensor(SensorDecl::new("sn", Reliability::ONE)).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(a, sn)
            .bind_sensor(b, sn)
            .build(&spec, &arch)
            .unwrap();
        let code = generate(&spec, &imp, h);
        // Walk the instructions tracking logical time via the deltas.
        let mut at = 0u64;
        let mut latch0_at = None;
        let mut latch1_at = None;
        let mut release_at = None;
        for i in 0..code.len() {
            match code.instruction(Addr(i)) {
                Instruction::Call(DriverOp::LatchInput { index: 0, .. }) => {
                    latch0_at = Some(at);
                }
                Instruction::Call(DriverOp::LatchInput { index: 1, .. }) => {
                    latch1_at = Some(at);
                }
                Instruction::Release { .. } => release_at = Some(at),
                Instruction::Future { delta, .. } => at += delta,
                _ => {}
            }
            if at >= 12 {
                break;
            }
        }
        assert_eq!(latch0_at, Some(2), "a[1] latches at instant 2");
        assert_eq!(latch1_at, Some(6), "b[1] latches at instant 6");
        assert_eq!(release_at, Some(6), "release at the read time");
    }

    #[test]
    fn sensor_communicators_are_read_before_update() {
        let (spec, imp, h1, _) = system();
        let s = spec.find_communicator("s").unwrap();
        let code = generate(&spec, &imp, h1);
        let ops: Vec<_> = (0..code.len()).map(|i| code.instruction(Addr(i))).collect();
        let read_pos = ops
            .iter()
            .position(
                |i| matches!(i, Instruction::Call(DriverOp::ReadSensors { comm }) if *comm == s),
            )
            .expect("sensor read emitted");
        let update_pos = ops
            .iter()
            .position(|i| {
                matches!(i, Instruction::Call(DriverOp::UpdateCommunicator { comm, .. }) if *comm == s)
            })
            .expect("sensor comm update emitted");
        assert!(read_pos < update_pos);
    }
}
