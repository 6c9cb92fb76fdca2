//! Golden-file test: `assets/three_tank.htl` is the scenario-1 output of
//! `three_tank_source`, the source `ThreeTankSystem` compiles from, and
//! compiles to the validated scenario-1 system. Regenerate with:
//! `cargo run -p logrel-bench --bin export_htl -- scenario1 0.998 > assets/three_tank.htl`

use logrel_lang::compile;
use logrel_refine::{validate, SystemRef};
use logrel_threetank::htl::three_tank_source;
use logrel_threetank::Scenario;

const GOLDEN: &str = include_str!("../assets/three_tank.htl");

#[test]
fn golden_file_matches_the_generator() {
    let generated = three_tank_source(Scenario::ReplicatedControllers, 0.999, Some(0.998));
    assert_eq!(
        GOLDEN, generated,
        "assets/three_tank.htl is stale; regenerate it with \
         `cargo run -p logrel-bench --bin export_htl -- scenario1 0.998`"
    );
}

#[test]
fn golden_file_compiles_and_validates() {
    let sys = compile(GOLDEN).unwrap();
    let cert = validate(SystemRef::new(&sys.spec, &sys.arch, &sys.imp)).unwrap();
    assert!(cert.verdict.is_reliable());
    let u1 = sys.spec.find_communicator("u1").unwrap();
    let lambda = cert.verdict.long_run_srg(u1);
    assert!((lambda - 0.998000002).abs() < 1e-8, "λ(u1) = {lambda}");
}
