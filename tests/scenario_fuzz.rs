//! Text-level fuzz of `Scenario::parse_with`: the tokens of every shipped
//! `.scn` file are deleted, duplicated, swapped and overwritten with edge
//! values (`u64::MAX`, `NaN`, `-0`, `1e309`, an empty `hosts=`, unknown
//! names). The parser must diagnose or accept every such text without
//! panicking, and every text it accepts must reparse from its `Display`
//! form to an equal scenario.

use logrel_core::{CommunicatorId, HostId};
use logrel_sim::{Scenario, ScenarioSymbols};
use proptest::prelude::*;
use std::path::Path;

/// The host and communicator names the shipped scenarios use, resolved
/// to fixed indices (the parser only needs some consistent resolution).
struct Names;

const HOSTS: [&str; 6] = ["main_a", "main_b", "safety", "ecu_a", "ecu_b", "gateway"];
const COMMS: [&str; 3] = ["speed", "plasma", "pump_rate"];

impl ScenarioSymbols for Names {
    fn host(&self, name: &str) -> Option<HostId> {
        HOSTS
            .iter()
            .position(|&h| h == name)
            .map(|i| HostId::new(i as u32))
    }
    fn communicator(&self, name: &str) -> Option<CommunicatorId> {
        COMMS
            .iter()
            .position(|&c| c == name)
            .map(|i| CommunicatorId::new(i as u32))
    }
}

/// Every shipped scenario file, as text.
fn shipped() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["examples/scenarios", "tests/assets/scenarios"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "scn") {
                files.push(path);
            }
        }
    }
    files.sort();
    assert!(files.len() >= 5, "shipped scenarios: {files:?}");
    files
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}

/// Values spliced into a field, or in place of a whole token.
const SPLICES: [&str; 8] = [
    "18446744073709551615",
    "NaN",
    "-0",
    "1e309",
    "",
    "nobody",
    "main_z,main_a",
    "0,,1",
];

/// `text` with one mutation per word of `ops`, applied to its
/// whitespace-separated tokens line by line.
fn mutate(text: &str, ops: &[u64]) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split_whitespace().map(str::to_owned).collect())
        .collect();
    for &op in ops {
        let nonempty: Vec<usize> = (0..lines.len()).filter(|&i| !lines[i].is_empty()).collect();
        let Some(&li) = nonempty.get((op >> 8) as usize % nonempty.len().max(1)) else {
            break;
        };
        let line = &mut lines[li];
        let ti = (op >> 16) as usize % line.len();
        let tj = (op >> 32) as usize % line.len();
        let splice = SPLICES[(op >> 40) as usize % SPLICES.len()];
        match op % 6 {
            0 => {
                line.remove(ti);
            }
            1 => {
                let t = line[ti].clone();
                line.insert(tj, t);
            }
            2 => line.swap(ti, tj),
            3 => {
                // Overwrite a field's value, keeping its key.
                let key = line[ti].split_once('=').map_or("", |(k, _)| k).to_owned();
                line[ti] = format!("{key}={splice}");
            }
            4 => line[ti] = splice.to_owned(),
            _ => line.insert(tj, "hosts=".to_owned()),
        }
    }
    lines
        .iter()
        .map(|l| l.join(" "))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn shipped_scenarios_parse_unmutated() {
    for text in shipped() {
        let s = Scenario::parse_with(&text, &Names).unwrap();
        assert_eq!(Scenario::parse(&s.to_string()), Ok(s));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_scenarios_are_diagnosed_or_round_trip(
        pick in any::<u64>(),
        ops in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let files = shipped();
        let text = mutate(&files[pick as usize % files.len()], &ops);
        if let Ok(s) = Scenario::parse_with(&text, &Names) {
            let canon = s.to_string();
            prop_assert_eq!(Scenario::parse_with(&canon, &Names), Ok(s), "{}", text);
        }
    }
}
