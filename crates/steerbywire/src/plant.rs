//! The linear single-track ("bicycle") lateral vehicle model.
//!
//! States: lateral velocity `v_y` (m/s), yaw rate `r` (rad/s) and the
//! road-wheel angle `δ` (rad), where the steering actuator follows its
//! command with a first-order lag. Longitudinal speed `v_x` is a constant
//! parameter fixed when the plant is built. Standard linear tyre model:
//!
//! ```text
//! v̇_y = (−(C_f + C_r)/(m·v_x))·v_y + ((C_r·l_r − C_f·l_f)/(m·v_x) − v_x)·r + (C_f/m)·δ
//! ṙ   = ((C_r·l_r − C_f·l_f)/(I_z·v_x))·v_y − ((C_f·l_f² + C_r·l_r²)/(I_z·v_x))·r + (C_f·l_f/I_z)·δ
//! δ̇   = (δ_cmd − δ)/τ
//! ```

/// Vehicle and actuator parameters (a mid-size passenger car).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleParams {
    /// Vehicle mass (kg).
    pub mass: f64,
    /// Yaw moment of inertia (kg·m²).
    pub inertia: f64,
    /// Distance CoG → front axle (m).
    pub lf: f64,
    /// Distance CoG → rear axle (m).
    pub lr: f64,
    /// Front cornering stiffness (N/rad).
    pub cf: f64,
    /// Rear cornering stiffness (N/rad).
    pub cr: f64,
    /// Steering-actuator time constant (s).
    pub actuator_tau: f64,
    /// Road-wheel angle saturation (rad).
    pub max_road_wheel: f64,
}

impl Default for VehicleParams {
    fn default() -> Self {
        VehicleParams {
            mass: 1500.0,
            inertia: 2500.0,
            lf: 1.2,
            lr: 1.5,
            cf: 80_000.0,
            cr: 90_000.0,
            actuator_tau: 0.05,
            max_road_wheel: 0.6,
        }
    }
}

/// The lateral-dynamics state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VehicleState {
    /// Lateral velocity (m/s).
    pub vy: f64,
    /// Yaw rate (rad/s).
    pub yaw_rate: f64,
    /// Road-wheel angle (rad).
    pub road_wheel: f64,
    /// Accumulated lateral position (m), for lane-change metrics.
    pub lateral_position: f64,
    /// Accumulated heading (rad).
    pub heading: f64,
}

/// The simulated vehicle.
///
/// # Example
///
/// ```
/// use logrel_steerbywire::{SingleTrackPlant, VehicleParams};
///
/// let mut car = SingleTrackPlant::new(VehicleParams::default(), 25.0);
/// car.set_command(0.02); // ~1.1° road-wheel step
/// for _ in 0..3000 {
///     car.step(0.001); // 3 s
/// }
/// assert!(car.state().yaw_rate > 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SingleTrackPlant {
    params: VehicleParams,
    state: VehicleState,
    speed: f64,
    command: f64,
}

impl SingleTrackPlant {
    /// A vehicle travelling straight at `speed` m/s.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not strictly positive (the linear model
    /// degenerates at standstill).
    pub fn new(params: VehicleParams, speed: f64) -> Self {
        assert!(speed > 0.0, "the single-track model needs v_x > 0");
        SingleTrackPlant {
            params,
            state: VehicleState::default(),
            speed,
            command: 0.0,
        }
    }

    /// The current state.
    pub fn state(&self) -> VehicleState {
        self.state
    }

    /// The longitudinal speed (m/s).
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Sets the road-wheel angle command (saturated).
    pub fn set_command(&mut self, command: f64) {
        self.command = command.clamp(-self.params.max_road_wheel, self.params.max_road_wheel);
    }

    /// The current (saturated) command.
    pub fn command(&self) -> f64 {
        self.command
    }

    /// The steady-state yaw-rate gain `r/δ` of the model at the current
    /// speed — used to validate the simulation against the closed form
    /// `v_x / (L + K_us·v_x²)` with understeer gradient
    /// `K_us = m·(C_r·l_r − C_f·l_f)/(C_f·C_r·L)`.
    pub fn steady_state_yaw_gain(&self) -> f64 {
        let p = &self.params;
        let wheelbase = p.lf + p.lr;
        let kus = p.mass * (p.cr * p.lr - p.cf * p.lf) / (p.cf * p.cr * wheelbase);
        self.speed / (wheelbase + kus * self.speed * self.speed)
    }

    fn derivatives(&self, s: VehicleState) -> [f64; 5] {
        let p = &self.params;
        let vx = self.speed;
        let dvy = (-(p.cf + p.cr) / (p.mass * vx)) * s.vy
            + ((p.cr * p.lr - p.cf * p.lf) / (p.mass * vx) - vx) * s.yaw_rate
            + (p.cf / p.mass) * s.road_wheel;
        let dr = ((p.cr * p.lr - p.cf * p.lf) / (p.inertia * vx)) * s.vy
            - ((p.cf * p.lf * p.lf + p.cr * p.lr * p.lr) / (p.inertia * vx)) * s.yaw_rate
            + (p.cf * p.lf / p.inertia) * s.road_wheel;
        let ddelta = (self.command - s.road_wheel) / p.actuator_tau;
        let dy = s.vy + vx * s.heading; // small-angle lateral drift
        let dpsi = s.yaw_rate;
        [dvy, dr, ddelta, dy, dpsi]
    }

    /// Advances the vehicle by `dt` seconds (one RK4 step).
    pub fn step(&mut self, dt: f64) {
        let s = self.state;
        let add = |s: VehicleState, k: [f64; 5], f: f64| VehicleState {
            vy: s.vy + f * k[0],
            yaw_rate: s.yaw_rate + f * k[1],
            road_wheel: s.road_wheel + f * k[2],
            lateral_position: s.lateral_position + f * k[3],
            heading: s.heading + f * k[4],
        };
        let k1 = self.derivatives(s);
        let k2 = self.derivatives(add(s, k1, dt / 2.0));
        let k3 = self.derivatives(add(s, k2, dt / 2.0));
        let k4 = self.derivatives(add(s, k3, dt));
        self.state = VehicleState {
            vy: s.vy + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            yaw_rate: s.yaw_rate + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            road_wheel: s.road_wheel + dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
            lateral_position: s.lateral_position
                + dt / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
            heading: s.heading + dt / 6.0 * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4]),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(car: &mut SingleTrackPlant, seconds: f64) {
        for _ in 0..(seconds / 0.001) as usize {
            car.step(0.001);
        }
    }

    #[test]
    fn straight_driving_stays_straight() {
        let mut car = SingleTrackPlant::new(VehicleParams::default(), 30.0);
        run(&mut car, 5.0);
        let s = car.state();
        assert!(s.yaw_rate.abs() < 1e-9);
        assert!(s.lateral_position.abs() < 1e-9);
    }

    #[test]
    fn step_steer_matches_the_steady_state_gain() {
        let mut car = SingleTrackPlant::new(VehicleParams::default(), 25.0);
        let delta = 0.02;
        car.set_command(delta);
        run(&mut car, 5.0);
        let expected = car.steady_state_yaw_gain() * delta;
        let got = car.state().yaw_rate;
        assert!(
            (got - expected).abs() < 0.02 * expected.abs().max(1e-6),
            "yaw rate {got} vs closed form {expected}"
        );
    }

    #[test]
    fn actuator_lags_and_saturates() {
        let mut car = SingleTrackPlant::new(VehicleParams::default(), 20.0);
        car.set_command(10.0); // far beyond saturation
        assert!((car.command() - 0.6).abs() < 1e-12);
        car.step(0.001);
        assert!(car.state().road_wheel < 0.1, "first-order lag, not a jump");
        run(&mut car, 1.0);
        assert!((car.state().road_wheel - 0.6).abs() < 1e-3);
    }

    #[test]
    fn left_steer_moves_left() {
        let mut car = SingleTrackPlant::new(VehicleParams::default(), 20.0);
        car.set_command(0.05);
        run(&mut car, 2.0);
        assert!(car.state().lateral_position > 0.5);
        assert!(car.state().heading > 0.0);
    }

    #[test]
    #[should_panic(expected = "v_x > 0")]
    fn zero_speed_is_rejected() {
        SingleTrackPlant::new(VehicleParams::default(), 0.0);
    }

    #[test]
    fn dynamics_are_stable_at_highway_speed() {
        let mut car = SingleTrackPlant::new(VehicleParams::default(), 35.0);
        car.set_command(0.03);
        run(&mut car, 1.0);
        car.set_command(0.0);
        run(&mut car, 5.0);
        let s = car.state();
        assert!(
            s.yaw_rate.abs() < 1e-3,
            "yaw rate must decay: {}",
            s.yaw_rate
        );
        assert!(s.vy.abs() < 1e-2);
    }
}
