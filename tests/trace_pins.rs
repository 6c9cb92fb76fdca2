//! `htlc trace` pins: the stdout of every shipped spec × scenario pair,
//! at 400 rounds and seed 7, pinned by its FNV-1a digest. The one-lane
//! kernel, its scenario layers, the LRC monitor and the flight recorder
//! all feed this output, so a change to any of them that moves a draw,
//! a counter or a recorded event shows up here.

use logrel_core::hash::fnv1a;

/// `(spec, scenario, FNV-1a digest of stdout)`.
const PINS: [(&str, &str, u64); 5] = [
    (
        "examples/htl/infusion_pump.htl",
        "examples/scenarios/partition.scn",
        0xf70d_4092_bf8c_1728,
    ),
    (
        "examples/htl/infusion_pump.htl",
        "examples/scenarios/pump_outage.scn",
        0x843b_982e_4a3b_5f93,
    ),
    (
        "examples/htl/infusion_pump.htl",
        "examples/scenarios/wearout.scn",
        0x3bfc_11b3_3f92_4c78,
    ),
    (
        "assets/steer_by_wire.htl",
        "examples/scenarios/steer_monitor_miss.scn",
        0x833c_c90d_d974_40d2,
    ),
    (
        "assets/steer_by_wire.htl",
        "tests/assets/scenarios/steer_every_event.scn",
        0xb790_af12_96e1_eb18,
    ),
];

#[test]
fn trace_stdout_is_pinned_on_every_shipped_pair() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut failures = Vec::new();
    for (spec, scenario, pinned) in PINS {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_htlc"))
            .current_dir(root)
            .args(["trace", spec, scenario, "400", "7"])
            .output()
            .expect("htlc runs");
        assert!(
            out.status.success(),
            "htlc trace {spec} {scenario}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let digest = fnv1a(&out.stdout);
        if digest != pinned {
            failures.push(format!("{spec} × {scenario}: {digest:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "digests moved:\n{}",
        failures.join("\n")
    );
}
