//! The E-machine interpreter.

use crate::instruction::{Addr, DriverOp, ECode, Instruction};
use logrel_core::{HostId, TaskId, Tick};

/// The platform an E-machine runs on: it implements the synchronous
/// drivers and the task scheduler.
pub trait Platform {
    /// Executes a synchronous driver at logical instant `now`.
    fn call(&mut self, host: HostId, op: DriverOp, now: Tick);
    /// Releases a task replication to the platform scheduler at `now`.
    fn release(&mut self, host: HostId, task: TaskId, now: Tick);
    /// Reports whether a mode-switch event has fired at `now`. The default
    /// implementation never switches.
    fn event(&mut self, event: u32, now: Tick) -> bool {
        let _ = (event, now);
        false
    }
}

/// One host's E-machine: a program counter driven by logical-time
/// triggers.
///
/// # Example
///
/// ```
/// use logrel_core::{HostId, TaskId, Tick};
/// use logrel_emachine::{Addr, DriverOp, ECode, EMachine, Instruction, Platform};
///
/// struct Recorder(Vec<(u64, String)>);
/// impl Platform for Recorder {
///     fn call(&mut self, _h: HostId, op: DriverOp, now: Tick) {
///         self.0.push((now.as_u64(), op.to_string()));
///     }
///     fn release(&mut self, _h: HostId, task: TaskId, now: Tick) {
///         self.0.push((now.as_u64(), format!("release {task}")));
///     }
/// }
///
/// let code = ECode::new(
///     vec![
///         Instruction::Release { task: TaskId::new(0) },
///         Instruction::Future { delta: 10, target: Addr(0) },
///         Instruction::Return,
///     ],
///     Addr(0),
/// );
/// let mut m = EMachine::new(code, HostId::new(0));
/// let mut p = Recorder(Vec::new());
/// m.run_until(Tick::new(25), &mut p);
/// // Fired at 0, 10, 20.
/// assert_eq!(p.0.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct EMachine {
    code: ECode,
    host: HostId,
    /// The armed trigger: (fire instant, resumption address).
    trigger: Option<(Tick, Addr)>,
}

impl EMachine {
    /// Creates a machine whose entry block fires at instant 0.
    pub fn new(code: ECode, host: HostId) -> Self {
        let entry = code.entry();
        EMachine {
            code,
            host,
            trigger: Some((Tick::ZERO, entry)),
        }
    }

    /// The host this machine belongs to.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The next instant at which the machine will react, if any.
    pub fn next_trigger(&self) -> Option<Tick> {
        self.trigger.map(|(t, _)| t)
    }

    /// Executes every reaction block whose trigger fires at or before
    /// `now`, in order.
    ///
    /// # Panics
    ///
    /// Panics if a reaction block falls off the end of the program without
    /// a `Return` (malformed E-code), or arms two triggers in one block.
    pub fn run_until(&mut self, now: Tick, platform: &mut dyn Platform) {
        while let Some((at, addr)) = self.trigger {
            if at > now {
                break;
            }
            self.trigger = None;
            self.react(at, addr, platform);
        }
    }

    /// Executes exactly one reaction block starting at `addr` at logical
    /// instant `at`.
    fn react(&mut self, at: Tick, addr: Addr, platform: &mut dyn Platform) {
        let mut pc = addr;
        loop {
            assert!(pc.0 < self.code.len(), "pc fell off the program");
            match self.code.instruction(pc) {
                Instruction::Call(op) => {
                    platform.call(self.host, op, at);
                    pc = Addr(pc.0 + 1);
                }
                Instruction::Release { task } => {
                    platform.release(self.host, task, at);
                    pc = Addr(pc.0 + 1);
                }
                Instruction::Future { delta, target } => {
                    assert!(self.trigger.is_none(), "block armed more than one trigger");
                    self.trigger = Some((at + delta, target));
                    pc = Addr(pc.0 + 1);
                }
                Instruction::Jump(target) => pc = target,
                Instruction::JumpIfEvent { event, target } => {
                    if platform.event(event, at) {
                        pc = target;
                    } else {
                        pc = Addr(pc.0 + 1);
                    }
                }
                Instruction::Return => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::CommunicatorId;

    #[derive(Default)]
    struct Recorder {
        events: Vec<(u64, String)>,
    }

    impl Platform for Recorder {
        fn call(&mut self, _h: HostId, op: DriverOp, now: Tick) {
            self.events.push((now.as_u64(), format!("call {op}")));
        }
        fn release(&mut self, _h: HostId, task: TaskId, now: Tick) {
            self.events.push((now.as_u64(), format!("release {task}")));
        }
    }

    fn cyclic_two_block_code() -> ECode {
        // Block A at @0: update c0; future +3 -> B.
        // Block B at @3: release t0; future +7 -> A (period 10).
        ECode::new(
            vec![
                Instruction::Call(DriverOp::UpdateCommunicator {
                    comm: CommunicatorId::new(0),
                    instance: 0,
                }),
                Instruction::Future {
                    delta: 3,
                    target: Addr(3),
                },
                Instruction::Return,
                Instruction::Release {
                    task: TaskId::new(0),
                },
                Instruction::Future {
                    delta: 7,
                    target: Addr(0),
                },
                Instruction::Return,
            ],
            Addr(0),
        )
    }

    #[test]
    fn triggers_fire_in_order_over_multiple_rounds() {
        let mut m = EMachine::new(cyclic_two_block_code(), HostId::new(0));
        let mut p = Recorder::default();
        m.run_until(Tick::new(20), &mut p);
        let times: Vec<u64> = p.events.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![0, 3, 10, 13, 20]);
        assert!(p.events[0].1.contains("update"));
        assert!(p.events[1].1.contains("release"));
        assert_eq!(m.next_trigger(), Some(Tick::new(23)));
    }

    #[test]
    fn run_until_is_idempotent_for_same_instant() {
        let mut m = EMachine::new(cyclic_two_block_code(), HostId::new(0));
        let mut p = Recorder::default();
        m.run_until(Tick::new(5), &mut p);
        let n = p.events.len();
        m.run_until(Tick::new(5), &mut p);
        assert_eq!(p.events.len(), n);
    }

    #[test]
    fn jump_is_followed() {
        let code = ECode::new(
            vec![
                Instruction::Jump(Addr(2)),
                Instruction::Release {
                    task: TaskId::new(9),
                }, // skipped
                Instruction::Release {
                    task: TaskId::new(1),
                },
                Instruction::Return,
            ],
            Addr(0),
        );
        let mut m = EMachine::new(code, HostId::new(0));
        let mut p = Recorder::default();
        m.run_until(Tick::ZERO, &mut p);
        assert_eq!(p.events.len(), 1);
        assert!(p.events[0].1.contains("t1"));
        // No future armed: machine halts.
        assert_eq!(m.next_trigger(), None);
    }

    #[test]
    fn host_accessor() {
        let m = EMachine::new(cyclic_two_block_code(), HostId::new(4));
        assert_eq!(m.host(), HostId::new(4));
    }

    #[test]
    #[should_panic(expected = "more than one trigger")]
    fn double_future_panics() {
        let code = ECode::new(
            vec![
                Instruction::Future {
                    delta: 1,
                    target: Addr(0),
                },
                Instruction::Future {
                    delta: 2,
                    target: Addr(0),
                },
                Instruction::Return,
            ],
            Addr(0),
        );
        let mut m = EMachine::new(code, HostId::new(0));
        m.run_until(Tick::ZERO, &mut Recorder::default());
    }
}
