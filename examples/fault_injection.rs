//! Fault-injected simulation (Proposition 1 in action): empirical
//! limit-average reliability of every communicator versus the analytic
//! SRG, plus the strong-law convergence series.
//!
//! Run with: `cargo run --example fault_injection`

use logrel::core::{TimeDependentImplementation, Value};
use logrel::reliability::{compute_srgs, hoeffding_epsilon, running_average};
use logrel::sim::{BehaviorMap, ConstantEnvironment, ProbabilisticFaults, SimConfig, Simulation};
use logrel::threetank::{Scenario, ThreeTankSystem};

fn main() {
    // Lower the reliabilities so failures are visible in a short run.
    let sys = ThreeTankSystem::with_options(Scenario::Baseline, 0.9, None)
        .expect("0.9 is a valid reliability");
    let analytic = compute_srgs(&sys.spec, &sys.arch, &sys.imp).expect("memory-free");

    let rounds = 20_000;
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut behaviors = BehaviorMap::new();
    let mut env = ConstantEnvironment::new(Value::Float(0.25));
    let injector = ProbabilisticFaults::from_architecture(&sys.arch);
    let config = SimConfig { rounds, seed: 7 };
    println!("simulating {rounds} rounds with seed {} …\n", config.seed);
    let out = sim.run(&mut behaviors, &mut env, &injector, &config);

    println!("{:<6} {:>12} {:>12} {:>12}", "comm", "empirical", "analytic", "diff");
    for c in sys.spec.communicator_ids() {
        let bits: Vec<bool> = out.trace.abstraction(c).into_iter().skip(5).collect();
        let mean = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        let lambda = analytic.communicator(c).get();
        println!(
            "{:<6} {:>12.5} {:>12.5} {:>12.5}",
            sys.spec.communicator(c).name(),
            mean,
            lambda,
            (mean - lambda).abs()
        );
    }
    println!(
        "\n(r1/r2 differ by design: the SRG induction treats the l→estimate and \
         l→t→u→estimate paths as independent; the simulator shows the exact \
         correlated probability.)"
    );

    // Convergence of the running average for u1 (SLLN).
    let bits = out.trace.abstraction(sys.ids.u1);
    let series = running_average(&bits);
    println!("\nSLLN convergence of u1's running average:");
    for n in [10, 100, 1_000, 10_000, series.len() - 1] {
        let eps = hoeffding_epsilon(n + 1, 0.99);
        println!(
            "  n = {:>6}: avg = {:.5} (99% Hoeffding half-width ±{:.4})",
            n + 1,
            series[n],
            eps
        );
    }
}
