//! The 3TS program as HTL source text: the one definition the
//! [`ThreeTankSystem`](crate::system::ThreeTankSystem) constructor
//! compiles.

use crate::system::Scenario;

/// Renders the 3TS program for `scenario` in the `logrel-lang` syntax.
pub fn three_tank_source(scenario: Scenario, host_reliability: f64, lrc_u: Option<f64>) -> String {
    let lrc = lrc_u.map_or(String::new(), |m| format!(" lrc {m}"));
    let t_map = match scenario {
        Scenario::Baseline | Scenario::ReplicatedSensors => "t1 -> h1;\n        t2 -> h2;",
        Scenario::ReplicatedControllers => "t1 -> h1, h2;\n        t2 -> h1, h2;",
    };
    let binds = match scenario {
        Scenario::ReplicatedSensors => "bind s1 -> sen1a, sen1b;\n        bind s2 -> sen2a, sen2b;",
        _ => "bind s1 -> sen1a;\n        bind s2 -> sen2a;",
    };
    let mut wcet = String::new();
    for task in ["read1", "read2"] {
        for host in ["h1", "h2", "h3"] {
            wcet.push_str(&format!("        wcet {task} on {host} 5;\n"));
            wcet.push_str(&format!("        wctt {task} on {host} 2;\n"));
        }
    }
    for task in ["t1", "t2", "estimate1", "estimate2"] {
        for host in ["h1", "h2", "h3"] {
            wcet.push_str(&format!("        wcet {task} on {host} 10;\n"));
            wcet.push_str(&format!("        wctt {task} on {host} 2;\n"));
        }
    }
    format!(
        r#"program three_tank {{
    communicator s1 : float period 500 sensor;
    communicator s2 : float period 500 sensor;
    communicator l1 : float period 100;
    communicator l2 : float period 100;
    communicator u1 : float period 100{lrc};
    communicator u2 : float period 100{lrc};
    communicator r1 : float period 500;
    communicator r2 : float period 500;
    module controller {{
        start mode main period 500 {{
            invoke read1 model parallel reads s1[0] writes l1[1] defaults 0.0;
            invoke read2 model parallel reads s2[0] writes l2[1] defaults 0.0;
            invoke t1 reads l1[1] writes u1[3];
            invoke t2 reads l2[1] writes u2[3];
            invoke estimate1 reads l1[1], u1[3] writes r1[1];
            invoke estimate2 reads l2[1], u2[3] writes r2[1];
        }}
    }}
    architecture {{
        host h1 reliability {host_reliability};
        host h2 reliability {host_reliability};
        host h3 reliability {host_reliability};
        sensor sen1a reliability {host_reliability};
        sensor sen1b reliability {host_reliability};
        sensor sen2a reliability {host_reliability};
        sensor sen2b reliability {host_reliability};
{wcet}    }}
    map {{
        {t_map}
        read1 -> h3;
        read2 -> h3;
        estimate1 -> h3;
        estimate2 -> h3;
        {binds}
    }}
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_lang::compile;
    use logrel_lint::{lint_source, Severity};

    #[test]
    fn every_scenario_source_is_lint_clean() {
        for scenario in [
            Scenario::Baseline,
            Scenario::ReplicatedControllers,
            Scenario::ReplicatedSensors,
        ] {
            let diags = lint_source(&three_tank_source(scenario, 0.999, Some(0.998)));
            assert!(
                diags.iter().all(|d| d.severity != Severity::Error),
                "{scenario:?}: {diags:?}"
            );
            // Only scenario 2 binds the backup sensors `sen1b`/`sen2b`.
            let unbound = diags.iter().filter(|d| d.code == "L010").count();
            let expected = if scenario == Scenario::ReplicatedSensors {
                0
            } else {
                2
            };
            assert_eq!(unbound, expected, "{scenario:?}: {diags:?}");
        }
    }

    #[test]
    fn source_omits_lrc_when_unset() {
        let src = three_tank_source(Scenario::Baseline, 0.999, None);
        assert!(!src.contains("lrc"));
        assert!(compile(&src).is_ok());
    }
}
