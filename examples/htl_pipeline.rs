//! The compiler pipeline end to end: HTL-style source text → parse →
//! elaborate → joint analysis → E-code generation → disassembly →
//! translation validation.
//!
//! Run with: `cargo run --example htl_pipeline`

use logrel::core::TimeDependentImplementation;
use logrel::emachine::generate;
use logrel::lang::compile;
use logrel::refine::{validate, SystemRef};
use logrel::threetank::htl::three_tank_source;
use logrel::threetank::Scenario;
use logrel::validate::certify_system;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = three_tank_source(Scenario::ReplicatedControllers, 0.999, Some(0.998));
    println!("── source ──\n{source}");

    let system = compile(&source)?;
    println!(
        "── elaborated ──\nprogram `{}`: {} communicators, {} tasks, round {} ms",
        system.name,
        system.spec.communicator_count(),
        system.spec.task_count(),
        system.spec.round_period()
    );

    let cert = validate(SystemRef::new(&system.spec, &system.arch, &system.imp))?;
    println!("joint analysis: schedulable and reliable");
    println!(
        "host utilisations: {}",
        system
            .arch
            .host_ids()
            .map(|h| format!(
                "{} {:.1}%",
                system.arch.host(h).name(),
                100.0 * cert.schedule.utilization(h)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Generate and disassemble one host's E-code.
    let h1 = system.arch.find_host("h1").expect("declared in the source");
    let code = generate(&system.spec, &system.imp, h1);
    println!("\n── E-code for h1 ({} instructions) ──", code.len());
    println!("{}", code.disassemble());

    // Certify every host's generated code against the specification's
    // one-round dataflow (translation validation).
    let td = TimeDependentImplementation::from(system.imp.clone());
    let cert = certify_system(&system.spec, &system.arch, &td).map_err(|diags| {
        let lines: Vec<String> = diags.iter().map(|d| d.ci_line("three_tank")).collect();
        std::io::Error::other(lines.join("\n"))
    })?;
    println!("certified artifacts: {} ✓", cert.artifacts.join(", "));
    Ok(())
}
