//! `htlc trace` and `htlc simulate` pins, by the FNV-1a digest of their
//! stdout at seed 7. `htlc trace` runs every shipped spec × scenario pair
//! at 400 rounds: the one-lane kernel, its scenario layers, the LRC
//! monitor and the flight recorder all feed its output, so a change to
//! any of them that moves a draw, a counter or a recorded event shows up
//! here. `htlc simulate` runs every shipped spec at a short and a long
//! horizon, and at 2 rounds, where some communicator has no update left
//! after the two it skips.

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

/// `(spec, rounds, FNV-1a digest of stdout)`. At 2 rounds `s1`, `s2`,
/// `r1` and `r2` of the three-tank spec have no update left after the two
/// skipped ones, and their empirical column reads `-`.
const SIMULATE_PINS: [(&str, &str, u64); 7] = [
    ("examples/htl/infusion_pump.htl", "3", 0x0937_10b0_a138_06e2),
    (
        "examples/htl/infusion_pump.htl",
        "20000",
        0xe09b_ae01_b1f2_5039,
    ),
    ("assets/three_tank.htl", "2", 0xf916_e621_462d_cef8),
    ("assets/three_tank.htl", "3", 0x02af_610c_d3bd_4a57),
    ("assets/three_tank.htl", "20000", 0xd85a_34f2_4236_b24d),
    ("assets/steer_by_wire.htl", "3", 0x79a4_99b1_1097_28bd),
    ("assets/steer_by_wire.htl", "20000", 0x66a5_973e_bd41_4116),
];

/// The FNV-1a digest of `htlc <args>`'s stdout, run from the repository
/// root.
fn stdout_digest(args: &[&str]) -> u64 {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_htlc"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("htlc runs");
    assert!(
        out.status.success(),
        "htlc {}: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    fnv1a(&out.stdout)
}

/// Runs every pinned command and lists the ones whose digest moved.
fn assert_pinned<'a>(pins: impl IntoIterator<Item = (Vec<&'a str>, u64)>) {
    let failures: Vec<String> = pins
        .into_iter()
        .filter_map(|(args, pinned)| {
            let digest = stdout_digest(&args);
            (digest != pinned).then(|| format!("htlc {}: {digest:#018x}", args.join(" ")))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "digests moved:\n{}",
        failures.join("\n")
    );
}

#[test]
fn trace_stdout_is_pinned_on_every_shipped_pair() {
    assert_pinned(
        PINS.map(|(spec, scenario, pinned)| (vec!["trace", spec, scenario, "400", "7"], pinned)),
    );
}

#[test]
fn simulate_stdout_is_pinned_on_every_shipped_spec() {
    assert_pinned(
        SIMULATE_PINS.map(|(spec, rounds, pinned)| (vec!["simulate", spec, rounds, "7"], pinned)),
    );
}
