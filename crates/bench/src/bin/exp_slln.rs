//! E7 — empirical validation of Proposition 1: under per-invocation fault
//! injection, the running average of each communicator's reliability
//! abstraction converges (SLLN) to the analytic SRG, and LRC verdicts
//! agree between analysis and simulation.
//!
//! The replications run as one traced lane group
//! (`Simulation::run_traced`): four 50 000-round runs seeded with
//! `derive_seed(7, rep)`, each lane bit-identical to a one-lane run of
//! its seed. Replication 0 doubles as the convergence-series exhibit.
//!
//! Run with: `cargo run -p logrel-bench --bin exp_slln`

use logrel_core::{CommunicatorId, TimeDependentImplementation, Value};
use logrel_obs::NoopSink;
use logrel_reliability::{compute_srgs, hoeffding_epsilon, running_average};
use logrel_sim::{
    derive_seed, BehaviorMap, ConstantEnvironment, LaneContext, ProbabilisticFaults, SimOutput,
    Simulation,
};
use logrel_threetank::{Scenario, ThreeTankSystem};

/// The mean over replications of `c`'s reliable fraction, each skipping
/// its first five updates.
fn mean_fraction(outs: &[SimOutput], c: CommunicatorId) -> f64 {
    let fractions: Vec<f64> = outs
        .iter()
        .map(|out| {
            let bits: Vec<bool> = out.trace.abstraction(c).into_iter().skip(5).collect();
            bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64
        })
        .collect();
    fractions.iter().sum::<f64>() / fractions.len() as f64
}

fn main() {
    let reliability = 0.9; // lowered so faults are frequent
    let rounds: u64 = 50_000;
    let replications: u64 = 4;
    let sys = ThreeTankSystem::with_options(Scenario::Baseline, reliability, None)
        .expect("valid constants");
    let analytic = compute_srgs(&sys.spec, &sys.arch, &sys.imp).expect("memory-free");
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    println!(
        "3TS baseline at host/sensor reliability {reliability}, \
         {replications} × {rounds} rounds, base seed 7\n"
    );
    let mut lanes: Vec<_> = (0..replications)
        .map(|rep| {
            LaneContext::plain(
                derive_seed(7, rep),
                ProbabilisticFaults::from_architecture(&sys.arch),
                ConstantEnvironment::new(Value::Float(0.3)),
            )
        })
        .collect();
    let outs = sim.run_traced(
        &mut BehaviorMap::new(),
        &mut lanes,
        None,
        &mut NoopSink,
        rounds,
    );

    println!(
        "{:<6} {:>12} {:>12} {:>10}",
        "comm", "empirical", "analytic λ", "|diff|"
    );
    for c in sys.spec.communicator_ids() {
        let mean = mean_fraction(&outs, c);
        let lambda = analytic.communicator(c).get();
        println!(
            "{:<6} {:>12.5} {:>12.5} {:>10.5}",
            sys.spec.communicator(c).name(),
            mean,
            lambda,
            (mean - lambda).abs()
        );
    }

    println!("\nconvergence of u1's running average in replication 0 (Fig.-style series):");
    let bits = outs[0].trace.abstraction(sys.ids.u1);
    let series = running_average(&bits);
    let lambda_u = analytic.communicator(sys.ids.u1).get();
    println!("{:>9} {:>10} {:>10} {:>12}", "n", "avg", "λ(u1)", "±ε(99%)");
    let mut n = 10usize;
    while n <= series.len() {
        println!(
            "{:>9} {:>10.5} {:>10.5} {:>12.5}",
            n,
            series[n - 1],
            lambda_u,
            hoeffding_epsilon(n, 0.99)
        );
        n *= 10;
    }
    let final_avg = *series.last().expect("nonempty");
    let eps = hoeffding_epsilon(series.len(), 0.99);
    assert!(
        (final_avg - lambda_u).abs() < eps + 0.01,
        "SLLN: final average {final_avg} within ε of λ {lambda_u}"
    );
    // The cross-replication mean sharpens the estimate further.
    assert!(
        (mean_fraction(&outs, sys.ids.u1) - lambda_u).abs() < eps + 0.01,
        "pooled mean must also track λ(u1)"
    );
    println!("\n✓ the empirical limit average converges to the analytic SRG");
}
