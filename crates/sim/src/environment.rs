//! The environment: sensor sources and actuator sinks.
//!
//! The paper assumes the environment "writes identical values to all
//! replications of a sensor when the update is due"; [`Environment::sense`]
//! produces that single value (per-sensor *failures* are injected
//! separately by the fault injector). Output communicators are "read by
//! physical actuators": the kernel forwards every task-written communicator
//! update to [`Environment::actuate`], so a closed-loop plant can react.

use logrel_core::{CommunicatorId, Tick, Value};

/// The world outside the program.
pub trait Environment {
    /// Advances physical dynamics to logical instant `now`. Called once
    /// per event instant, before any sensing.
    fn advance(&mut self, now: Tick);

    /// The value the environment writes to sensor-fed communicator `comm`
    /// at `now` (identical across replicated sensors).
    fn sense(&mut self, comm: CommunicatorId, now: Tick) -> Value;

    /// Observes the update of task-written communicator `comm` (actuator
    /// communicators act on it; others may be ignored).
    fn actuate(&mut self, comm: CommunicatorId, value: Value, now: Tick);

    /// Whether [`Environment::advance`] and [`Environment::actuate`] are
    /// both no-ops for this environment.
    ///
    /// Returning `true` is a *contract*: neither call ever changes state
    /// or is otherwise observed, so a caller may skip both entirely
    /// (sensing still happens). The bit-sliced kernel uses this to elide
    /// per-lane hook loops on passive environments. The default is
    /// conservatively `false` (always call).
    fn is_passive(&self) -> bool {
        false
    }
}

/// Forwarding, so that a boxed environment — type-erased or not — is an
/// environment: wrappers (e.g. the scenario layer) and lane contexts can
/// hold caller-supplied boxes.
impl<T: Environment + ?Sized> Environment for Box<T> {
    fn advance(&mut self, now: Tick) {
        (**self).advance(now);
    }
    fn sense(&mut self, comm: CommunicatorId, now: Tick) -> Value {
        (**self).sense(comm, now)
    }
    fn actuate(&mut self, comm: CommunicatorId, value: Value, now: Tick) {
        (**self).actuate(comm, value, now);
    }
    fn is_passive(&self) -> bool {
        (**self).is_passive()
    }
}

/// An environment returning each sensor communicator's configured constant
/// and ignoring actuations — the default for reliability-only experiments.
#[derive(Debug, Clone)]
pub struct ConstantEnvironment {
    constants: std::collections::BTreeMap<CommunicatorId, Value>,
    fallback: Value,
}

impl Default for ConstantEnvironment {
    /// All sensors read ⊥ until configured.
    fn default() -> Self {
        ConstantEnvironment::new(Value::Unreliable)
    }
}

impl ConstantEnvironment {
    /// All sensors read `fallback`.
    pub fn new(fallback: Value) -> Self {
        ConstantEnvironment {
            constants: Default::default(),
            fallback,
        }
    }

    /// Overrides the value of one sensor communicator.
    pub fn set(&mut self, comm: CommunicatorId, value: Value) -> &mut Self {
        self.constants.insert(comm, value);
        self
    }
}

impl Environment for ConstantEnvironment {
    fn advance(&mut self, _now: Tick) {}

    fn sense(&mut self, comm: CommunicatorId, _now: Tick) -> Value {
        self.constants.get(&comm).copied().unwrap_or(self.fallback)
    }

    fn actuate(&mut self, _comm: CommunicatorId, _value: Value, _now: Tick) {}

    fn is_passive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_environment_returns_overrides() {
        let mut env = ConstantEnvironment::new(Value::Float(1.0));
        env.set(CommunicatorId::new(2), Value::Float(9.0));
        assert_eq!(
            env.sense(CommunicatorId::new(2), Tick::ZERO),
            Value::Float(9.0)
        );
        assert_eq!(
            env.sense(CommunicatorId::new(0), Tick::ZERO),
            Value::Float(1.0)
        );
        env.advance(Tick::new(5));
        env.actuate(CommunicatorId::new(1), Value::Float(3.0), Tick::new(5));
    }
}
