//! E2–E5 — the §4 reliability table of the three-tank system: baseline
//! SRGs against LRC 0.99 and 0.998, then the paper's two repair scenarios.
//!
//! Run with: `cargo run -p logrel-bench --bin table_3ts`

use logrel_reliability::compute_srgs;
use logrel_threetank::{Scenario, ThreeTankSystem};

struct Row {
    label: &'static str,
    scenario: Scenario,
    lrc: f64,
    paper_lambda_u: f64,
    paper_reliable: bool,
}

fn main() {
    let rows = [
        Row {
            label: "baseline, LRC 0.99",
            scenario: Scenario::Baseline,
            lrc: 0.99,
            paper_lambda_u: 0.997002999,
            paper_reliable: true,
        },
        Row {
            label: "baseline, LRC 0.998",
            scenario: Scenario::Baseline,
            lrc: 0.998,
            paper_lambda_u: 0.997002999,
            paper_reliable: false,
        },
        Row {
            label: "scenario 1 (t1,t2 on {h1,h2}), LRC 0.998",
            scenario: Scenario::ReplicatedControllers,
            lrc: 0.998,
            paper_lambda_u: 0.998000002,
            paper_reliable: true,
        },
        Row {
            label: "scenario 2 (sensors doubled), LRC 0.998",
            scenario: Scenario::ReplicatedSensors,
            lrc: 0.998,
            paper_lambda_u: 0.998,
            paper_reliable: true,
        },
    ];

    println!("3TS reliability analysis (host/sensor reliability 0.999)\n");
    println!(
        "{:<44} {:>12} {:>12} {:>12} {:>9} {:>7}",
        "configuration", "λ(l1)", "λ(u1)", "paper λ(u)", "verdict", "paper"
    );
    let mut all_match = true;
    for row in rows {
        let sys = ThreeTankSystem::with_options(row.scenario, 0.999, Some(row.lrc))
            .expect("valid constants");
        let srgs = compute_srgs(&sys.spec, &sys.arch, &sys.imp).expect("memory-free");
        let lambda_l = srgs.communicator(sys.ids.l1).get();
        let lambda_u = srgs.communicator(sys.ids.u1).get();
        let verdict = logrel_reliability::check(&sys.spec, &sys.arch, &sys.imp)
            .expect("analyzable")
            .is_reliable();
        let sched = logrel_sched::analyze(&sys.spec, &sys.arch, &sys.imp).is_ok();
        let matches =
            verdict == row.paper_reliable && (lambda_u - row.paper_lambda_u).abs() < 5e-7 && sched;
        all_match &= matches;
        println!(
            "{:<44} {:>12.9} {:>12.9} {:>12.9} {:>9} {:>7}",
            row.label,
            lambda_l,
            lambda_u,
            row.paper_lambda_u,
            if verdict { "RELIABLE" } else { "VIOLATED" },
            if matches { "✓" } else { "✗" },
        );
    }
    println!(
        "\nall rows {} the paper's reported values",
        if all_match { "match" } else { "DIVERGE FROM" }
    );
    assert!(all_match);
}
