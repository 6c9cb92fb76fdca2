//! The closed-loop environment: driver scenario and vehicle.

use crate::plant::{SingleTrackPlant, VehicleParams};
use crate::system::SteerIds;
use logrel_core::{CommunicatorId, Tick, Value};
use logrel_sim::Environment;

/// A double lane change: the hand wheel follows one sine period between
/// `start` and `start + duration`, zero elsewhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneChange {
    /// Manoeuvre start (s).
    pub start: f64,
    /// Manoeuvre duration (s).
    pub duration: f64,
    /// Hand-wheel amplitude (rad).
    pub amplitude: f64,
}

impl LaneChange {
    fn hand_wheel(&self, t: f64) -> f64 {
        if t < self.start || t > self.start + self.duration {
            0.0
        } else {
            let phase = (t - self.start) / self.duration;
            self.amplitude * (2.0 * std::f64::consts::PI * phase).sin()
        }
    }
}

/// Wires the vehicle to the program: `angle`, `speed` and `yaw` sample the
/// driver input and vehicle state; actuations of `cmd` set the road-wheel
/// command. One logical tick is `dt` seconds.
#[derive(Debug, Clone)]
pub struct SteerEnvironment {
    plant: SingleTrackPlant,
    ids: SteerIds,
    dt: f64,
    last: Tick,
    scenario: LaneChange,
    /// Log of (instant, |yaw-rate error|): actual vs the geared reference.
    error_log: Vec<(Tick, f64)>,
    steering_ratio: f64,
}

impl SteerEnvironment {
    /// Creates the environment at `speed` m/s with a lane-change scenario.
    pub fn new(
        params: VehicleParams,
        ids: SteerIds,
        dt: f64,
        speed: f64,
        scenario: LaneChange,
        steering_ratio: f64,
    ) -> Self {
        SteerEnvironment {
            plant: SingleTrackPlant::new(params, speed),
            ids,
            dt,
            last: Tick::ZERO,
            scenario,
            error_log: Vec::new(),
            steering_ratio,
        }
    }

    /// The vehicle, for inspection.
    pub fn plant(&self) -> &SingleTrackPlant {
        &self.plant
    }

    /// The raw (instant, |yaw-rate error|) log.
    pub fn error_log(&self) -> &[(Tick, f64)] {
        &self.error_log
    }

    /// Mean |yaw-rate error| over instants at or after `from`.
    pub fn mean_yaw_error_since(&self, from: Tick) -> f64 {
        let e: Vec<f64> = self
            .error_log
            .iter()
            .filter(|(t, _)| *t >= from)
            .map(|&(_, e)| e)
            .collect();
        if e.is_empty() {
            0.0
        } else {
            e.iter().sum::<f64>() / e.len() as f64
        }
    }
}

impl Environment for SteerEnvironment {
    fn advance(&mut self, now: Tick) {
        let steps = now - self.last;
        for _ in 0..steps {
            self.plant.step(self.dt);
        }
        self.last = now;
        // Reference yaw rate: the geared hand wheel through the
        // steady-state gain; error = tracking deviation.
        let t = now.as_u64() as f64 * self.dt;
        let reference =
            self.plant.steady_state_yaw_gain() * self.scenario.hand_wheel(t) / self.steering_ratio;
        self.error_log
            .push((now, (self.plant.state().yaw_rate - reference).abs()));
    }

    fn sense(&mut self, comm: CommunicatorId, now: Tick) -> Value {
        let t = now.as_u64() as f64 * self.dt;
        if comm == self.ids.angle {
            Value::Float(self.scenario.hand_wheel(t))
        } else if comm == self.ids.speed {
            Value::Float(self.plant.speed())
        } else if comm == self.ids.yaw {
            Value::Float(self.plant.state().yaw_rate)
        } else {
            Value::Unreliable
        }
    }

    fn actuate(&mut self, comm: CommunicatorId, value: Value, _now: Tick) {
        if comm == self.ids.cmd {
            if let Some(v) = value.as_float() {
                // ⊥ keeps the previous command (a real rack holds).
                self.plant.set_command(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{SteerScenario, SteerSystem};

    fn env() -> SteerEnvironment {
        let sys = SteerSystem::new(SteerScenario::SingleEcu, None).unwrap();
        SteerEnvironment::new(
            VehicleParams::default(),
            sys.ids,
            0.001,
            25.0,
            LaneChange {
                start: 1.0,
                duration: 2.0,
                amplitude: 1.0,
            },
            sys.gains.steering_ratio,
        )
    }

    #[test]
    fn scenario_shapes_the_hand_wheel() {
        let lc = LaneChange {
            start: 1.0,
            duration: 2.0,
            amplitude: 1.0,
        };
        assert_eq!(lc.hand_wheel(0.5), 0.0);
        assert!(lc.hand_wheel(1.5) > 0.9); // quarter period: peak
        assert!(lc.hand_wheel(2.5) < -0.9); // three quarters: trough
        assert_eq!(lc.hand_wheel(4.0), 0.0);
    }

    #[test]
    fn sensing_reports_driver_and_vehicle() {
        let mut e = env();
        let ids = e.ids;
        assert_eq!(e.sense(ids.speed, Tick::ZERO), Value::Float(25.0));
        assert_eq!(e.sense(ids.yaw, Tick::ZERO), Value::Float(0.0));
        let mid = Tick::new(1500);
        assert!(e.sense(ids.angle, mid).as_float().unwrap() > 0.9);
        assert_eq!(e.sense(ids.filtered, Tick::ZERO), Value::Unreliable);
    }

    #[test]
    fn actuation_turns_the_car() {
        let mut e = env();
        let ids = e.ids;
        e.actuate(ids.cmd, Value::Float(0.05), Tick::ZERO);
        e.advance(Tick::new(2000));
        assert!(e.plant().state().yaw_rate > 0.05);
        // ⊥ holds the last command.
        e.actuate(ids.cmd, Value::Unreliable, Tick::new(2000));
        assert!((e.plant().command() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn error_log_accumulates() {
        let mut e = env();
        e.advance(Tick::new(10));
        e.advance(Tick::new(20));
        assert_eq!(e.error_log.len(), 2);
        assert_eq!(e.mean_yaw_error_since(Tick::new(1000)), 0.0);
    }
}
