//! The control laws of the six tasks of Fig. 2.
//!
//! All task functions are stateless (the formal model's tasks are pure
//! functions; state would have to flow through communicators). The
//! controller is proportional with a feed-forward term compensating the
//! nominal outflow, which gives good tracking without integral state.

/// Converts a raw sensor sample into a level estimate (tasks `read1`,
/// `read2`). The simulated sensor reports the level directly, so this is
/// a clamping identity — kept separate to mirror the paper's task split.
pub fn read_level(raw: f64) -> f64 {
    raw.clamp(0.0, 1.0)
}

/// Proportional + feed-forward pump controller (tasks `t1`, `t2`):
/// `u = kp · (reference − level) + feedforward(level)`, saturated to
/// `[0, 1]`.
///
/// `outflow_gain` estimates the fraction of maximal pump flow needed to
/// hold the current level (the Torricelli outflow divided by the maximal
/// pump flow).
pub fn pump_control(level: f64, reference: f64, kp: f64, outflow_gain: f64) -> f64 {
    let feedforward = outflow_gain * level.max(0.0).sqrt();
    (kp * (reference - level) + feedforward).clamp(0.0, 1.0)
}

/// Perturbation estimator (tasks `estimate1`, `estimate2`): estimates the
/// unmodelled net outflow as the difference between the pump inflow
/// implied by `u` and the nominal outflow implied by the level.
pub fn estimate_perturbation(level: f64, u: f64, pump_max_flow: f64, nominal_outflow: f64) -> f64 {
    u * pump_max_flow - nominal_outflow * level.max(0.0).sqrt()
}

/// Gains used by the 3TS controller in examples and experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlGains {
    /// Proportional gain.
    pub kp: f64,
    /// Feed-forward outflow gain (fraction of pump flow per sqrt-level).
    pub outflow_gain: f64,
    /// Level reference for tank 1 (m).
    pub ref1: f64,
    /// Level reference for tank 2 (m).
    pub ref2: f64,
}

impl Default for ControlGains {
    fn default() -> Self {
        ControlGains {
            kp: 20.0,
            outflow_gain: 0.9,
            ref1: 0.20,
            ref2: 0.10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_level_clamps() {
        assert_eq!(read_level(0.5), 0.5);
        assert_eq!(read_level(-0.1), 0.0);
        assert_eq!(read_level(2.0), 1.0);
    }

    #[test]
    fn control_pushes_toward_reference() {
        let g = ControlGains::default();
        let below = pump_control(0.1, g.ref1, g.kp, g.outflow_gain);
        let above = pump_control(0.4, g.ref1, g.kp, g.outflow_gain);
        assert!(below > above);
        assert!(below > 0.0);
    }

    #[test]
    fn control_saturates() {
        assert_eq!(pump_control(0.0, 1.0, 1000.0, 0.0), 1.0);
        assert_eq!(pump_control(1.0, 0.0, 1000.0, 0.0), 0.0);
    }

    #[test]
    fn estimator_is_zero_at_nominal_balance() {
        // u chosen so pump inflow equals nominal outflow.
        let level: f64 = 0.25;
        let nominal = 0.5;
        let pmax = 1.0e-4;
        let u = nominal * level.sqrt() / pmax * pmax; // = nominal*sqrt(level)
        let r = estimate_perturbation(level, u / pmax, pmax, nominal);
        assert!(r.abs() < 1e-12);
    }

    #[test]
    fn estimator_sees_extra_outflow() {
        // Holding the level with larger u than nominal implies a leak:
        // pump inflow 9e-5 vs nominal outflow 1e-5 * sqrt(0.25) = 5e-6.
        let r = estimate_perturbation(0.25, 0.9, 1.0e-4, 1.0e-5);
        assert!(r > 0.0);
    }
}
