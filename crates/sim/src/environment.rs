//! The environment: sensor sources and actuator sinks.
//!
//! The paper assumes the environment "writes identical values to all
//! replications of a sensor when the update is due"; [`Environment::sense`]
//! produces that single value (per-sensor *failures* are injected
//! separately by the fault model). Output communicators are "read by
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

    /// The reading of sensor-fed communicator `comm`, if it is constant.
    ///
    /// Returning `Some(v)` is a *contract*: every call of
    /// [`Environment::sense`] for `comm` returns `v`, at any instant, and
    /// has no effect that anything observes, so a caller may skip the
    /// call and use `v`. A lane-group run whose lanes all promise the
    /// same reading writes it as one value class over the lanes whose
    /// sensors delivered instead of sensing lane by lane. The default is
    /// `None` (no promise: always sense).
    fn constant_reading(&self, comm: CommunicatorId) -> Option<Value> {
        let _ = comm;
        None
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
    fn constant_reading(&self, comm: CommunicatorId) -> Option<Value> {
        (**self).constant_reading(comm)
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

    fn reading(&self, comm: CommunicatorId) -> Value {
        self.constants.get(&comm).copied().unwrap_or(self.fallback)
    }
}

impl Environment for ConstantEnvironment {
    fn advance(&mut self, _now: Tick) {}

    fn sense(&mut self, comm: CommunicatorId, _now: Tick) -> Value {
        self.reading(comm)
    }

    fn actuate(&mut self, _comm: CommunicatorId, _value: Value, _now: Tick) {}

    fn is_passive(&self) -> bool {
        true
    }

    fn constant_reading(&self, comm: CommunicatorId) -> Option<Value> {
        Some(self.reading(comm))
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
