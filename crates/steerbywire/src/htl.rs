//! The steer-by-wire program as HTL source text: the one definition the
//! [`SteerSystem`](crate::system::SteerSystem) constructor compiles.

use crate::system::SteerScenario;

/// Renders the steer-by-wire program for `scenario` in the `logrel-lang`
/// syntax, with an optional LRC on the steering command `cmd`.
pub fn steer_source(scenario: SteerScenario, lrc_cmd: Option<f64>) -> String {
    let lrc = lrc_cmd.map_or(String::new(), |m| format!(" lrc {m}"));
    let control_hosts = match scenario {
        SteerScenario::SingleEcu => "ecu_a",
        SteerScenario::ReplicatedEcus => "ecu_a, ecu_b",
    };
    let mut wcet = String::new();
    for (task, c) in [("filter", 2), ("steer", 5), ("monitor", 5)] {
        for host in ["ecu_a", "ecu_b", "gateway"] {
            wcet.push_str(&format!("        wcet {task} on {host} {c};\n"));
            wcet.push_str(&format!("        wctt {task} on {host} 1;\n"));
        }
    }
    format!(
        r#"program steer_by_wire {{
    communicator angle : float period 10 sensor;
    communicator speed : float period 50 sensor;
    communicator yaw : float period 10 sensor;
    communicator filtered : float period 10;
    communicator cmd : float period 10{lrc};
    communicator diag : bool period 50 init true;
    module column {{
        start mode driving period 50 {{
            invoke filter reads angle[0] writes filtered[1];
            invoke steer reads filtered[1], speed[0], yaw[1] writes cmd[3];
            invoke monitor model parallel reads cmd[3] writes diag[1] defaults 0.0;
        }}
    }}
    architecture {{
        host ecu_a reliability 0.997;
        host ecu_b reliability 0.997;
        host gateway reliability 0.9995;
        sensor hand_wheel reliability 0.9999;
        sensor speed_sensor reliability 0.99999;
        sensor gyro reliability 0.9995;
{wcet}    }}
    map {{
        filter -> {control_hosts};
        steer -> {control_hosts};
        monitor -> gateway;
        bind angle -> hand_wheel;
        bind speed -> speed_sensor;
        bind yaw -> gyro;
    }}
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_lint::{lint_source, Severity};

    #[test]
    fn every_scenario_source_is_lint_clean() {
        for scenario in [SteerScenario::SingleEcu, SteerScenario::ReplicatedEcus] {
            let diags = lint_source(&steer_source(scenario, Some(0.998)));
            assert!(
                diags.iter().all(|d| d.severity != Severity::Error),
                "{scenario:?}: {diags:?}"
            );
        }
    }
}
