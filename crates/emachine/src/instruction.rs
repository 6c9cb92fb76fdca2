//! The E-code instruction set.

use logrel_core::{CommunicatorId, TaskId};
use std::fmt;

/// An instruction address within an [`ECode`] program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub usize);

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A synchronous driver operation, executed in logical zero time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverOp {
    /// Update an input communicator replication from its sensors.
    ReadSensors {
        /// The sensor-fed communicator.
        comm: CommunicatorId,
    },
    /// Update a communicator replication: vote over the broadcast values
    /// received for this instance and write the winner (or keep the
    /// persisting value when no task writes this instance).
    UpdateCommunicator {
        /// The updated communicator.
        comm: CommunicatorId,
        /// The 0-based instance within the round.
        instance: u64,
    },
    /// Latch one input port of a task from the local communicator
    /// replication — emitted at the *access instant* of that input, which
    /// may be earlier than the task's read time (a task can read an
    /// instance that is later overwritten before it executes).
    LatchInput {
        /// The task whose port is latched.
        task: TaskId,
        /// The positional input index within the task's input list.
        index: u32,
    },
}

impl fmt::Display for DriverOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverOp::ReadSensors { comm } => write!(f, "read_sensors({comm})"),
            DriverOp::UpdateCommunicator { comm, instance } => {
                write!(f, "update({comm}, {instance})")
            }
            DriverOp::LatchInput { task, index } => write!(f, "latch({task}, {index})"),
        }
    }
}

/// An E-code instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// Execute a synchronous driver now.
    Call(DriverOp),
    /// Release a task replication to the platform scheduler.
    Release {
        /// The released task.
        task: TaskId,
    },
    /// Arm a trigger: resume at `target` after `delta` ticks.
    Future {
        /// Ticks until the trigger fires.
        delta: u64,
        /// Resumption address.
        target: Addr,
    },
    /// Unconditional jump.
    Jump(Addr),
    /// Conditional jump taken when the platform reports that `event` has
    /// fired (used for mode switches, tested at round boundaries).
    JumpIfEvent {
        /// The event's identifier (assigned by the code generator).
        event: u32,
        /// Target when the event fired.
        target: Addr,
    },
    /// End of the current reaction block.
    Return,
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Call(op) => write!(f, "call {op}"),
            Instruction::Release { task } => write!(f, "release {task}"),
            Instruction::Future { delta, target } => write!(f, "future +{delta} {target}"),
            Instruction::Jump(a) => write!(f, "jump {a}"),
            Instruction::JumpIfEvent { event, target } => {
                write!(f, "jump_if_event e{event} {target}")
            }
            Instruction::Return => write!(f, "return"),
        }
    }
}

/// A compiled E-code program for one host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ECode {
    instructions: Vec<Instruction>,
    entry: Addr,
}

impl ECode {
    /// Assembles a program.
    ///
    /// # Panics
    ///
    /// Panics if `entry` or any jump/future target is out of range.
    pub fn new(instructions: Vec<Instruction>, entry: Addr) -> Self {
        assert!(entry.0 < instructions.len(), "entry out of range");
        for ins in &instructions {
            match ins {
                Instruction::Future { target, .. }
                | Instruction::Jump(target)
                | Instruction::JumpIfEvent { target, .. } => {
                    assert!(
                        target.0 < instructions.len(),
                        "target {target} out of range"
                    );
                }
                _ => {}
            }
        }
        ECode {
            instructions,
            entry,
        }
    }

    /// The program's entry address.
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// The instruction at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn instruction(&self, addr: Addr) -> Instruction {
        self.instructions[addr.0]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// The full instruction sequence (for disassembly and static
    /// verification).
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Disassembles the program.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, ins) in self.instructions.iter().enumerate() {
            let marker = if i == self.entry.0 { ">" } else { " " };
            out.push_str(&format!("{marker}{i:4}: {ins}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembly_and_disassembly() {
        let code = ECode::new(
            vec![
                Instruction::Call(DriverOp::ReadSensors {
                    comm: CommunicatorId::new(0),
                }),
                Instruction::Release {
                    task: TaskId::new(1),
                },
                Instruction::Future {
                    delta: 5,
                    target: Addr(0),
                },
                Instruction::Return,
            ],
            Addr(0),
        );
        assert_eq!(code.len(), 4);
        assert!(!code.is_empty());
        assert_eq!(code.entry(), Addr(0));
        assert_eq!(
            code.instruction(Addr(1)),
            Instruction::Release {
                task: TaskId::new(1)
            }
        );
        let dis = code.disassemble();
        assert!(dis.contains("release t1"));
        assert!(dis.contains("future +5 @0"));
        assert!(dis.starts_with('>'));
    }

    #[test]
    #[should_panic(expected = "entry out of range")]
    fn bad_entry_panics() {
        ECode::new(vec![], Addr(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        ECode::new(vec![Instruction::Jump(Addr(9))], Addr(0));
    }

    #[test]
    fn displays() {
        assert_eq!(
            Instruction::Call(DriverOp::LatchInput {
                task: TaskId::new(2),
                index: 1
            })
            .to_string(),
            "call latch(t2, 1)"
        );
        assert_eq!(
            DriverOp::UpdateCommunicator {
                comm: CommunicatorId::new(3),
                instance: 4
            }
            .to_string(),
            "update(c3, 4)"
        );
        assert_eq!(Instruction::Return.to_string(), "return");
        assert_eq!(Addr(7).to_string(), "@7");
    }
}
