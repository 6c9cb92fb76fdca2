//! E10 — incremental analysis via refinement (Proposition 2): compare the
//! cost of re-running the full joint analysis at every design step against
//! checking only the local refinement constraints, over growing system
//! sizes. This quantifies the paper's claim that "the complexity of a
//! joint schedulability/reliability analysis can be reduced significantly"
//! by a sequence of refinement steps.
//!
//! Standard output lists the system sizes, a function of the source tree
//! (`scripts/results.sh` captures it); the wall-clock columns — full and
//! incremental analysis time and their ratio — go to standard error,
//! since they are a reading of the machine.
//!
//! Run with: `cargo run -p logrel-bench --bin exp_refinement --release`

use logrel_bench::layered_system;
use logrel_refine::{check_refinement, validate, Kappa, SystemRef};
use std::time::Instant;

fn main() {
    println!("{:>7} {:>7}", "tasks", "hosts");
    eprintln!(
        "{:>7} {:>7} {:>14} {:>14} {:>9}",
        "tasks", "hosts", "full (µs)", "incremental (µs)", "speedup"
    );
    for &(layers, width) in &[(2usize, 4usize), (4, 8), (6, 16), (8, 24), (10, 32)] {
        let hosts = 4;
        let sys = layered_system(layers, width, hosts, 7);
        let sref = SystemRef::new(&sys.spec, &sys.arch, &sys.imp);
        let kappa = Kappa::identity(&sys.spec);

        // Make sure both paths succeed before timing them.
        let cert = validate(sref).expect("generated system is valid");
        check_refinement(sref, sref, &kappa).expect("reflexive");

        let reps = 20;
        let t0 = Instant::now();
        for _ in 0..reps {
            let c = validate(sref).expect("valid");
            std::hint::black_box(&c);
        }
        let full = t0.elapsed().as_secs_f64() / reps as f64 * 1e6;

        let t1 = Instant::now();
        for _ in 0..reps {
            check_refinement(sref, sref, &kappa).expect("reflexive");
            std::hint::black_box(&cert);
        }
        let incr = t1.elapsed().as_secs_f64() / reps as f64 * 1e6;

        println!("{:>7} {:>7}", layers * width, hosts);
        eprintln!(
            "{:>7} {:>7} {:>14.1} {:>14.1} {:>8.1}x",
            layers * width,
            hosts,
            full,
            incr,
            full / incr
        );
    }
    println!("\n(the incremental path performs only the local per-task constraint checks;");
    println!(" the inherited certificate is the refined system's, per Proposition 2)");
}
