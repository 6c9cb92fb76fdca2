//! Multi-mode E-code with runtime mode switching.
//!
//! §4 of the paper notes that the 3TS program has "mode switches between
//! tasks, but the switch is always to tasks with identical reliability
//! constraints, and the reliability analysis applies". This module
//! generates E-code for a *module* with several modes: every mode runs its
//! own reaction-block cycle; at each round boundary a dispatch block tests
//! the mode's switch events ([`Instruction::JumpIfEvent`], answered by
//! [`Platform::event`]) and either jumps to the target mode's entry or
//! re-enters the current mode.
//!
//! [`Platform::event`]: crate::machine::Platform::event

use crate::codegen::{emit_blocks, ModeBlocks};
use crate::instruction::{Addr, ECode, Instruction};
use logrel_core::{HostId, Implementation, Specification};
use std::error::Error;
use std::fmt;

/// One mode of a modal program: its flattened specification and mapping.
#[derive(Debug, Clone, Copy)]
pub struct ModalMode<'a> {
    /// The mode's name (for diagnostics).
    pub name: &'a str,
    /// The mode's flattened specification.
    pub spec: &'a Specification,
    /// The mode's replication mapping.
    pub imp: &'a Implementation,
}

/// A mode switch: while in mode `from`, if `event` fires at a round
/// boundary, continue in mode `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeSwitch {
    /// Index of the source mode.
    pub from: usize,
    /// The event identifier passed to [`Platform::event`].
    ///
    /// [`Platform::event`]: crate::machine::Platform::event
    pub event: u32,
    /// Index of the target mode.
    pub to: usize,
}

/// Errors of modal code generation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModalError {
    /// No modes were supplied.
    NoModes,
    /// Two modes have different round periods (mode switches happen at
    /// round boundaries, so periods must agree).
    PeriodMismatch {
        /// The first mode's name and period.
        first: (String, u64),
        /// The offending mode's name and period.
        other: (String, u64),
    },
    /// A switch references a mode index out of range.
    UnknownMode {
        /// The offending index.
        index: usize,
    },
}

impl fmt::Display for ModalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModalError::NoModes => write!(f, "modal program has no modes"),
            ModalError::PeriodMismatch { first, other } => write!(
                f,
                "mode `{}` has period {} but mode `{}` has period {}",
                first.0, first.1, other.0, other.1
            ),
            ModalError::UnknownMode { index } => {
                write!(f, "switch references unknown mode index {index}")
            }
        }
    }
}

impl Error for ModalError {}

/// Generates the modal E-code program for `host`.
///
/// Execution starts in mode 0. Each mode's final block chains (via its
/// wrap-around `future`) into the mode's dispatch block at the next round
/// boundary; the dispatch tests this mode's switches in declaration order
/// and jumps to the first fired target's entry, falling through to the
/// current mode's entry otherwise.
///
/// # Errors
///
/// See [`ModalError`].
pub fn generate_modal(
    modes: &[ModalMode<'_>],
    switches: &[ModeSwitch],
    host: HostId,
) -> Result<ECode, ModalError> {
    let first = modes.first().ok_or(ModalError::NoModes)?;
    for m in modes {
        if m.spec.round_period() != first.spec.round_period() {
            return Err(ModalError::PeriodMismatch {
                first: (first.name.to_owned(), first.spec.round_period().as_u64()),
                other: (m.name.to_owned(), m.spec.round_period().as_u64()),
            });
        }
    }
    for sw in switches {
        if sw.from >= modes.len() || sw.to >= modes.len() {
            return Err(ModalError::UnknownMode {
                index: sw.from.max(sw.to),
            });
        }
    }

    // Emit every mode's blocks, tracking global offsets.
    let mut instructions: Vec<Instruction> = Vec::new();
    let mut mode_entries = Vec::with_capacity(modes.len());
    let mut mode_last_future: Vec<usize> = Vec::with_capacity(modes.len());
    for m in modes {
        let ModeBlocks {
            instructions: mut ins,
            block_offsets,
        } = emit_blocks(m.spec, m.imp, host);
        let base = instructions.len();
        // Patch intra-mode chaining: block k -> block k+1; remember the
        // last future for the dispatch hookup.
        let mut block = 0usize;
        let mut last_future_at = 0usize;
        for (i, instr) in ins.iter_mut().enumerate() {
            if let Instruction::Future { target, .. } = instr {
                if block + 1 < block_offsets.len() {
                    *target = Addr(base + block_offsets[block + 1]);
                } else {
                    last_future_at = base + i; // patched to dispatch below
                }
                block += 1;
            }
        }
        mode_entries.push(Addr(base + block_offsets[0]));
        mode_last_future.push(last_future_at);
        instructions.extend(ins);
    }

    // Emit one dispatch block per mode and patch the wrap futures.
    for (mi, _m) in modes.iter().enumerate() {
        let dispatch = Addr(instructions.len());
        for sw in switches.iter().filter(|sw| sw.from == mi) {
            instructions.push(Instruction::JumpIfEvent {
                event: sw.event,
                target: mode_entries[sw.to],
            });
        }
        instructions.push(Instruction::Jump(mode_entries[mi]));
        if let Instruction::Future { target, .. } = &mut instructions[mode_last_future[mi]] {
            *target = dispatch;
        } else {
            unreachable!("last future bookkeeping");
        }
    }

    Ok(ECode::new(instructions, mode_entries[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::DriverOp;
    use crate::machine::{EMachine, Platform};
    use logrel_core::{
        Architecture, CommunicatorDecl, HostDecl, Reliability, SensorDecl, SensorId, TaskDecl,
        TaskId, Tick, ValueType,
    };

    /// Builds a mode whose single task is named `task`, over the shared
    /// communicators s (sensor, period 10) and u (period 10).
    fn mode_system(task: &str) -> (Specification, Implementation) {
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
            .task(TaskDecl::new(task).reads(s, 0).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab
            .host(HostDecl::new("h", Reliability::new(0.99).unwrap()))
            .unwrap();
        ab.sensor(SensorDecl::new("sn", Reliability::ONE)).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        (spec, imp)
    }

    /// Fires event 1 exactly at `fire_at`; records releases.
    struct Switcher {
        fire_at: Tick,
        releases: Vec<(Tick, TaskId)>,
        updates: Vec<Tick>,
    }

    impl Platform for Switcher {
        fn call(&mut self, _h: HostId, op: DriverOp, now: Tick) {
            if matches!(op, DriverOp::UpdateCommunicator { .. }) {
                self.updates.push(now);
            }
        }
        fn release(&mut self, _h: HostId, task: TaskId, now: Tick) {
            self.releases.push((now, task));
        }
        fn event(&mut self, event: u32, now: Tick) -> bool {
            event == 1 && now == self.fire_at
        }
    }

    #[test]
    fn switch_changes_the_released_task_at_a_round_boundary() {
        let (spec_a, imp_a) = mode_system("normal");
        let (spec_b, imp_b) = mode_system("degraded");
        let modes = [
            ModalMode {
                name: "normal",
                spec: &spec_a,
                imp: &imp_a,
            },
            ModalMode {
                name: "degraded",
                spec: &spec_b,
                imp: &imp_b,
            },
        ];
        let switches = [ModeSwitch {
            from: 0,
            event: 1,
            to: 1,
        }];
        let code = generate_modal(&modes, &switches, HostId::new(0)).unwrap();
        let mut machine = EMachine::new(code, HostId::new(0));
        let mut platform = Switcher {
            fire_at: Tick::new(30),
            releases: Vec::new(),
            updates: Vec::new(),
        };
        machine.run_until(Tick::new(55), &mut platform);
        // Rounds 0..2 release mode 0's task; the event fires at the round
        // boundary t=30, so rounds starting at 30+ release mode 1's task.
        // Both specs name their task id 0, so distinguish by mode via the
        // release count before/after.
        let before: Vec<_> = platform
            .releases
            .iter()
            .filter(|(t, _)| t.as_u64() < 30)
            .collect();
        let after: Vec<_> = platform
            .releases
            .iter()
            .filter(|(t, _)| t.as_u64() >= 30)
            .collect();
        assert_eq!(before.len(), 3); // t = 0, 10, 20
        assert_eq!(after.len(), 3); // t = 30, 40, 50
                                    // Communicator updates continue at every period across the switch.
        let expected: Vec<u64> = (0..=5).map(|k| k * 10).collect();
        let mut got: Vec<u64> = platform.updates.iter().map(|t| t.as_u64()).collect();
        got.dedup();
        assert_eq!(got, expected);
    }

    #[test]
    fn without_events_mode_zero_loops_forever() {
        let (spec_a, imp_a) = mode_system("normal");
        let (spec_b, imp_b) = mode_system("degraded");
        let modes = [
            ModalMode {
                name: "normal",
                spec: &spec_a,
                imp: &imp_a,
            },
            ModalMode {
                name: "degraded",
                spec: &spec_b,
                imp: &imp_b,
            },
        ];
        let switches = [ModeSwitch {
            from: 0,
            event: 1,
            to: 1,
        }];
        let code = generate_modal(&modes, &switches, HostId::new(0)).unwrap();
        let mut machine = EMachine::new(code, HostId::new(0));
        let mut platform = Switcher {
            fire_at: Tick::new(u64::MAX),
            releases: Vec::new(),
            updates: Vec::new(),
        };
        machine.run_until(Tick::new(45), &mut platform);
        assert_eq!(platform.releases.len(), 5); // t = 0, 10, 20, 30, 40
        assert_eq!(machine.next_trigger(), Some(Tick::new(50)));
    }

    #[test]
    fn period_mismatch_is_rejected() {
        let (spec_a, imp_a) = mode_system("normal");
        // A mode with a different round.
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 20)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 20).unwrap())
            .unwrap();
        let t = sb
            .task(TaskDecl::new("slow").reads(s, 0).writes(u, 1))
            .unwrap();
        let spec_b = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab
            .host(HostDecl::new("h", Reliability::new(0.99).unwrap()))
            .unwrap();
        ab.sensor(SensorDecl::new("sn", Reliability::ONE)).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp_b = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec_b, &arch)
            .unwrap();
        let modes = [
            ModalMode {
                name: "normal",
                spec: &spec_a,
                imp: &imp_a,
            },
            ModalMode {
                name: "slow",
                spec: &spec_b,
                imp: &imp_b,
            },
        ];
        let err = generate_modal(&modes, &[], HostId::new(0)).unwrap_err();
        assert!(matches!(err, ModalError::PeriodMismatch { .. }));
        assert!(err.to_string().contains("period"));
    }

    #[test]
    fn empty_and_out_of_range_inputs_rejected() {
        assert!(matches!(
            generate_modal(&[], &[], HostId::new(0)),
            Err(ModalError::NoModes)
        ));
        let (spec_a, imp_a) = mode_system("normal");
        let modes = [ModalMode {
            name: "normal",
            spec: &spec_a,
            imp: &imp_a,
        }];
        let err = generate_modal(
            &modes,
            &[ModeSwitch {
                from: 0,
                event: 1,
                to: 5,
            }],
            HostId::new(0),
        )
        .unwrap_err();
        assert!(matches!(err, ModalError::UnknownMode { index: 5 }));
    }
}
