//! Task behaviours for the runtime simulator.

use crate::control::{estimate_perturbation, pump_control, read_level, ControlGains};
use crate::plant::PlantParams;
use crate::system::ThreeTankSystem;
use logrel_core::Value;
use logrel_sim::BehaviorMap;

/// Builds the behaviour registry for all six control tasks.
///
/// All functions are stateless closures over the gains and plant
/// parameters (feed-forward calibration), as required by the task model.
pub fn build_behaviors(sys: &ThreeTankSystem, params: &PlantParams) -> BehaviorMap {
    let gains: ControlGains = sys.gains;
    let pump_max = params.pump_max_flow;
    // Nominal outflow gain for the estimator: Torricelli constant over
    // sqrt-level, in flow units.
    let nominal1 = params.az13 * params.pipe_area * (2.0 * params.gravity).sqrt();
    let nominal2 = params.az20 * params.pipe_area * (2.0 * params.gravity).sqrt();

    let mut map = BehaviorMap::new();
    map.register(sys.ids.read1, move |inputs: &[Value]| {
        vec![Value::Float(read_level(
            inputs[0].as_float().unwrap_or(0.0),
        ))]
    });
    map.register(sys.ids.read2, move |inputs: &[Value]| {
        vec![Value::Float(read_level(
            inputs[0].as_float().unwrap_or(0.0),
        ))]
    });
    map.register(sys.ids.t1, move |inputs: &[Value]| {
        let level = inputs[0].as_float().unwrap_or(0.0);
        vec![Value::Float(pump_control(
            level,
            gains.ref1,
            gains.kp,
            gains.outflow_gain,
        ))]
    });
    map.register(sys.ids.t2, move |inputs: &[Value]| {
        let level = inputs[0].as_float().unwrap_or(0.0);
        vec![Value::Float(pump_control(
            level,
            gains.ref2,
            gains.kp,
            gains.outflow_gain,
        ))]
    });
    map.register(sys.ids.estimate1, move |inputs: &[Value]| {
        let level = inputs[0].as_float().unwrap_or(0.0);
        let u = inputs[1].as_float().unwrap_or(0.0);
        vec![Value::Float(estimate_perturbation(
            level, u, pump_max, nominal1,
        ))]
    });
    map.register(sys.ids.estimate2, move |inputs: &[Value]| {
        let level = inputs[0].as_float().unwrap_or(0.0);
        let u = inputs[1].as_float().unwrap_or(0.0);
        vec![Value::Float(estimate_perturbation(
            level, u, pump_max, nominal2,
        ))]
    });
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Scenario;

    #[test]
    fn all_six_tasks_have_behaviors() {
        let sys = ThreeTankSystem::new(Scenario::Baseline);
        let map = build_behaviors(&sys, &PlantParams::default());
        for t in [
            sys.ids.read1,
            sys.ids.read2,
            sys.ids.t1,
            sys.ids.t2,
            sys.ids.estimate1,
            sys.ids.estimate2,
        ] {
            assert!(map.contains(t));
        }
    }

    #[test]
    fn controller_behavior_produces_saturated_currents() {
        let sys = ThreeTankSystem::new(Scenario::Baseline);
        let mut map = build_behaviors(&sys, &PlantParams::default());
        let out = map.invoke(&sys.spec, sys.ids.t1, &[Value::Float(0.0)]);
        let u = out[0].as_float().unwrap();
        assert!((0.0..=1.0).contains(&u));
        assert!(u > 0.5, "empty tank demands strong pumping, got {u}");
    }
}
