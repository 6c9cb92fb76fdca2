//! Task function registries.
//!
//! The formal model's `fn_t` maps input values to output values; the
//! analyses never look inside it, so behaviours live here, keyed by task
//! id. Tasks are functions of their inputs only ("all tasks are
//! functionally correct and given identical inputs provide identical
//! outputs") — any controller state must flow through communicators.

use logrel_core::{Specification, TaskId, Value};
use std::collections::BTreeMap;

/// A task's computable function.
pub trait TaskBehavior {
    /// Computes the output list from the (reliable, default-substituted)
    /// input list. Must return exactly one value per declared output.
    fn invoke(&mut self, inputs: &[Value]) -> Vec<Value>;
}

impl<F> TaskBehavior for F
where
    F: FnMut(&[Value]) -> Vec<Value>,
{
    fn invoke(&mut self, inputs: &[Value]) -> Vec<Value> {
        self(inputs)
    }
}

/// A registry of task behaviours with a zero-valued fallback.
///
/// # Example
///
/// ```
/// use logrel_core::{TaskId, Value};
/// use logrel_sim::BehaviorMap;
///
/// let mut map = BehaviorMap::new();
/// map.register(TaskId::new(0), |inputs: &[Value]| {
///     let x = inputs[0].as_float().unwrap_or(0.0);
///     vec![Value::Float(2.0 * x)]
/// });
/// assert!(map.contains(TaskId::new(0)));
/// ```
#[derive(Default)]
pub struct BehaviorMap {
    map: BTreeMap<TaskId, Box<dyn TaskBehavior>>,
}

impl BehaviorMap {
    /// An empty registry (every task falls back to zero outputs).
    pub fn new() -> Self {
        BehaviorMap::default()
    }

    /// Registers a behaviour for `task`, replacing any previous one.
    pub fn register(&mut self, task: TaskId, behavior: impl TaskBehavior + 'static) {
        self.map.insert(task, Box::new(behavior));
    }

    /// `true` if `task` has a registered behaviour.
    pub fn contains(&self, task: TaskId) -> bool {
        self.map.contains_key(&task)
    }

    /// Invokes `task`'s behaviour, or produces each output communicator's
    /// type-zero if none is registered. The result is padded/truncated to
    /// exactly the declared output arity.
    pub fn invoke(&mut self, spec: &Specification, task: TaskId, inputs: &[Value]) -> Vec<Value> {
        let mut values = Vec::new();
        self.invoke_into(spec, task, inputs, &mut values);
        values
    }

    /// [`BehaviorMap::invoke`] into a caller-provided buffer (cleared
    /// first): the fallback and the padding allocate nothing, so the hot
    /// simulation loop can reuse one buffer across all task reads.
    pub fn invoke_into(
        &mut self,
        spec: &Specification,
        task: TaskId,
        inputs: &[Value],
        out: &mut Vec<Value>,
    ) {
        let outputs = spec.task(task).outputs();
        out.clear();
        match self.map.get_mut(&task) {
            Some(b) => out.extend(b.invoke(inputs)),
            None => out.extend(
                outputs
                    .iter()
                    .map(|a| spec.communicator(a.comm).value_type().zero()),
            ),
        }
        out.resize(
            outputs.len(),
            Value::Unreliable, // missing outputs are unreliable, loudly
        );
    }
}

impl std::fmt::Debug for BehaviorMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BehaviorMap")
            .field(
                "registered",
                &self.map.keys().map(ToString::to_string).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{CommunicatorDecl, TaskDecl, ValueType};

    fn spec() -> Specification {
        let mut b = Specification::builder();
        let s = b
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = b
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
            .unwrap();
        let v = b
            .communicator(CommunicatorDecl::new("v", ValueType::Int, 10).unwrap())
            .unwrap();
        b.task(TaskDecl::new("t").reads(s, 0).writes(u, 1).writes(v, 1))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn registered_behavior_is_invoked() {
        let spec = spec();
        let t = spec.find_task("t").unwrap();
        let mut map = BehaviorMap::new();
        map.register(t, |inputs: &[Value]| {
            let x = inputs[0].as_float().unwrap_or(0.0);
            vec![Value::Float(x + 1.0), Value::Int(7)]
        });
        let out = map.invoke(&spec, t, &[Value::Float(2.0)]);
        assert_eq!(out, vec![Value::Float(3.0), Value::Int(7)]);
    }

    #[test]
    fn fallback_produces_type_zeros() {
        let spec = spec();
        let t = spec.find_task("t").unwrap();
        let mut map = BehaviorMap::new();
        assert!(!map.contains(t));
        let out = map.invoke(&spec, t, &[Value::Float(2.0)]);
        assert_eq!(out, vec![Value::Float(0.0), Value::Int(0)]);
    }

    #[test]
    fn short_outputs_are_padded_with_bottom() {
        let spec = spec();
        let t = spec.find_task("t").unwrap();
        let mut map = BehaviorMap::new();
        map.register(t, |_: &[Value]| vec![Value::Float(1.0)]);
        let out = map.invoke(&spec, t, &[Value::Float(0.0)]);
        assert_eq!(out, vec![Value::Float(1.0), Value::Unreliable]);
    }

    #[test]
    fn long_outputs_are_truncated() {
        let spec = spec();
        let t = spec.find_task("t").unwrap();
        let mut map = BehaviorMap::new();
        map.register(t, |_: &[Value]| {
            vec![Value::Float(1.0), Value::Int(2), Value::Int(3)]
        });
        let out = map.invoke(&spec, t, &[Value::Float(0.0)]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn stateful_behaviors_accumulate() {
        let spec = spec();
        let t = spec.find_task("t").unwrap();
        let mut map = BehaviorMap::new();
        let mut counter = 0i64;
        map.register(t, move |_: &[Value]| {
            counter += 1;
            vec![Value::Float(counter as f64), Value::Int(counter)]
        });
        assert_eq!(map.invoke(&spec, t, &[])[1], Value::Int(1));
        assert_eq!(map.invoke(&spec, t, &[])[1], Value::Int(2));
    }

    #[test]
    fn debug_lists_registered_tasks() {
        let spec = spec();
        let t = spec.find_task("t").unwrap();
        let mut map = BehaviorMap::new();
        map.register(t, |_: &[Value]| vec![]);
        assert!(format!("{map:?}").contains("t0"));
    }
}
