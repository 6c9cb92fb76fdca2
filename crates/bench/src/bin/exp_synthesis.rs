//! Extension experiment — automatic replication synthesis: the paper's
//! scenario mappings are hand-chosen; here the greedy synthesiser (with a
//! joint schedulability feasibility veto) discovers a minimal-cost mapping
//! meeting the strict LRC, and the exhaustive search certifies minimality.
//!
//! Run with: `cargo run -p logrel-bench --bin exp_synthesis`

use logrel_reliability::{check, exhaustive_synthesize, synthesize, SynthesisOptions};
use logrel_sched::analyze;
use logrel_threetank::{Scenario, ThreeTankSystem};

fn main() {
    let sys = ThreeTankSystem::with_options(Scenario::Baseline, 0.999, Some(0.998))
        .expect("valid constants");
    let verdict = check(&sys.spec, &sys.arch, &sys.imp).expect("analyzable");
    println!(
        "baseline mapping: {} replicas, verdict: {verdict}",
        sys.imp.replication_count()
    );
    assert!(!verdict.is_reliable());

    let opts = SynthesisOptions::default();
    let schedulable =
        |imp: &logrel_core::Implementation| analyze(&sys.spec, &sys.arch, imp).is_ok();

    let greedy = synthesize(&sys.spec, &sys.arch, &sys.imp, &opts, schedulable)
        .expect("the LRC is achievable");
    println!(
        "\ngreedy synthesis found ({} replicas):",
        greedy.replication_count()
    );
    for t in sys.spec.task_ids() {
        let hosts: Vec<&str> = greedy
            .hosts_of(t)
            .iter()
            .map(|&h| sys.arch.host(h).name())
            .collect();
        println!("  {} -> {{{}}}", sys.spec.task(t).name(), hosts.join(", "));
    }
    let v = check(&sys.spec, &sys.arch, &greedy).expect("analyzable");
    assert!(v.is_reliable());
    assert!(analyze(&sys.spec, &sys.arch, &greedy).is_ok());
    println!(
        "  λ(u1) = {:.9}, λ(u2) = {:.9} — reliable and schedulable",
        v.long_run_srg(sys.ids.u1),
        v.long_run_srg(sys.ids.u2)
    );

    let minimal = exhaustive_synthesize(&sys.spec, &sys.arch, &sys.imp, &opts, schedulable)
        .expect("achievable");
    println!(
        "\nexhaustive minimum: {} replicas (greedy used {})",
        minimal.replication_count(),
        greedy.replication_count()
    );
    assert!(minimal.replication_count() <= greedy.replication_count());
    // The paper's scenario 1 doubles both controllers (8 replicas total);
    // the search should do no worse.
    let scenario1 = ThreeTankSystem::new(Scenario::ReplicatedControllers);
    println!(
        "paper's scenario 1 uses {} replicas",
        scenario1.imp.replication_count()
    );
    assert!(minimal.replication_count() <= scenario1.imp.replication_count());
    println!("\n✓ synthesis reproduces (or beats) the paper's hand-crafted repair");
}
