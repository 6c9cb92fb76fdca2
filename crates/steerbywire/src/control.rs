//! The stateless steering control laws.

/// Filters the raw hand-wheel sample (tasks are stateless, so this is a
/// clamping pass-through; a real column would low-pass via an extra
/// communicator).
pub fn filter_hand_wheel(raw: f64, max: f64) -> f64 {
    raw.clamp(-max, max)
}

/// The steering command law (task `torque`): geared hand-wheel angle plus
/// speed-scheduled yaw damping,
/// `δ_cmd = θ / ratio − k_yaw(v) · r`, with `k_yaw(v) = k·v / (1 + (v/v₀)²)`.
pub fn steering_command(hand_wheel: f64, yaw_rate: f64, speed: f64, gains: &SteerGains) -> f64 {
    let k_yaw = gains.yaw_damping * speed / (1.0 + (speed / gains.damping_corner).powi(2));
    hand_wheel / gains.steering_ratio - k_yaw * yaw_rate
}

/// Diagnostic plausibility check (task `monitor`): flags commands that
/// exceed the physically plausible road-wheel range.
pub fn plausibility(command: f64, max_road_wheel: f64) -> bool {
    command.abs() <= max_road_wheel * 1.05
}

/// Gains of the steer-by-wire controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteerGains {
    /// Hand-wheel to road-wheel ratio.
    pub steering_ratio: f64,
    /// Yaw-damping gain (s·rad⁻¹ scale factor).
    pub yaw_damping: f64,
    /// Speed at which damping rolls off (m/s).
    pub damping_corner: f64,
    /// Hand-wheel saturation (rad).
    pub max_hand_wheel: f64,
}

impl Default for SteerGains {
    fn default() -> Self {
        SteerGains {
            steering_ratio: 16.0,
            yaw_damping: 0.004,
            damping_corner: 20.0,
            max_hand_wheel: 8.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_clamps() {
        assert_eq!(filter_hand_wheel(0.5, 8.0), 0.5);
        assert_eq!(filter_hand_wheel(100.0, 8.0), 8.0);
        assert_eq!(filter_hand_wheel(-100.0, 8.0), -8.0);
    }

    #[test]
    fn command_follows_the_gear_ratio() {
        let g = SteerGains::default();
        let cmd = steering_command(1.6, 0.0, 25.0, &g);
        assert!((cmd - 0.1).abs() < 1e-12);
    }

    #[test]
    fn yaw_damping_opposes_rotation() {
        let g = SteerGains::default();
        let neutral = steering_command(0.0, 0.0, 25.0, &g);
        let yawing = steering_command(0.0, 0.5, 25.0, &g);
        assert_eq!(neutral, 0.0);
        assert!(yawing < 0.0, "damping must counter-steer");
    }

    #[test]
    fn damping_rolls_off_at_high_speed() {
        let g = SteerGains::default();
        let k = |v: f64| -steering_command(0.0, 1.0, v, &g);
        assert!(
            k(20.0) > k(60.0) * 0.9,
            "k(20)={}, k(60)={}",
            k(20.0),
            k(60.0)
        );
        assert!(k(5.0) < k(20.0));
    }

    #[test]
    fn plausibility_flags_outliers() {
        assert!(plausibility(0.3, 0.6));
        assert!(!plausibility(0.7, 0.6));
        assert!(plausibility(-0.6, 0.6));
    }
}
