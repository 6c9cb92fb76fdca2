//! Shared workload generators for the experiment binaries and benches.

use logrel_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated system bundle.
#[derive(Debug, Clone)]
pub struct GeneratedSystem {
    /// The specification.
    pub spec: Specification,
    /// The architecture.
    pub arch: Architecture,
    /// The implementation.
    pub imp: Implementation,
}

/// Generates a layered task system: `layers` layers of `width` tasks; each
/// task reads one or two communicators of the previous layer and writes one
/// of its own. Periods are uniform (100 ticks), layer `k` reads at instant
/// `100·(k−1)` and writes at `100·k`. Tasks are assigned round-robin over
/// `hosts` hosts (reliability 0.999); sensors feed the first layer.
///
/// # Panics
///
/// Panics if `layers`, `width` or `hosts` is zero (workload generators are
/// called with literal sizes).
pub fn layered_system(layers: usize, width: usize, hosts: usize, seed: u64) -> GeneratedSystem {
    assert!(layers > 0 && width > 0 && hosts > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let rel = Reliability::new(0.999).expect("valid");

    let mut sb = Specification::builder();
    // Layer 0: sensor-fed communicators.
    let mut prev: Vec<CommunicatorId> = (0..width)
        .map(|i| {
            sb.communicator(
                CommunicatorDecl::new(format!("s{i}"), ValueType::Float, 100)
                    .expect("valid period")
                    .from_sensor(),
            )
            .expect("unique names")
        })
        .collect();
    let mut task_decls = Vec::new();
    for layer in 1..=layers {
        let mut next = Vec::with_capacity(width);
        for i in 0..width {
            let c = sb
                .communicator(
                    CommunicatorDecl::new(format!("c{layer}_{i}"), ValueType::Float, 100)
                        .expect("valid period"),
                )
                .expect("unique names");
            next.push(c);
        }
        for (i, &out) in next.iter().enumerate() {
            let mut decl = TaskDecl::new(format!("t{layer}_{i}"))
                .reads(prev[rng.gen_range(0..width)], layer as u64 - 1)
                .writes(out, layer as u64);
            if width > 1 && rng.gen_bool(0.5) {
                // a second, distinct input
                let mut j = rng.gen_range(0..width);
                if prev[j] == decl.inputs()[0].comm {
                    j = (j + 1) % width;
                }
                decl = decl.reads(prev[j], layer as u64 - 1);
            }
            let id = sb.task(decl).expect("valid task");
            task_decls.push(id);
        }
        prev = next;
    }
    let spec = sb.build().expect("generated spec is race-free");

    let mut ab = Architecture::builder();
    let host_ids: Vec<HostId> = (0..hosts)
        .map(|i| {
            ab.host(HostDecl::new(format!("h{i}"), rel))
                .expect("unique names")
        })
        .collect();
    let sensor = ab.sensor(SensorDecl::new("sen", rel)).expect("unique name");
    for &t in &task_decls {
        ab.wcet_all(t, 1 + (t.index() as u64 % 3))
            .expect("hosts exist");
        ab.wctt_all(t, 1).expect("hosts exist");
    }
    let arch = ab.build();

    let mut ib = Implementation::builder();
    for (k, &t) in task_decls.iter().enumerate() {
        ib = ib.assign(t, [host_ids[k % hosts]]);
    }
    for c in spec.communicator_ids() {
        if spec.is_sensor_input(c) {
            ib = ib.bind_sensor(c, sensor);
        }
    }
    let imp = ib.build(&spec, &arch).expect("generated mapping is valid");
    GeneratedSystem { spec, arch, imp }
}

/// Renders a large but uniform HTL-style program with `tasks` tasks for
/// parser throughput measurements.
pub fn big_htl_source(tasks: usize) -> String {
    let mut out = String::from("program big {\n");
    out.push_str("    communicator s : float period 100 sensor;\n");
    for i in 0..tasks {
        out.push_str(&format!(
            "    communicator c{i} : float period 100 lrc 0.9;\n"
        ));
    }
    out.push_str("    module m {\n        start mode main period 100 {\n");
    for i in 0..tasks {
        out.push_str(&format!(
            "            invoke t{i} reads s[0] writes c{i}[1];\n"
        ));
    }
    out.push_str("        }\n    }\n    architecture {\n");
    out.push_str("        host h0 reliability 0.999;\n");
    out.push_str("        sensor sn reliability 0.999;\n");
    for i in 0..tasks {
        out.push_str(&format!("        wcet t{i} on h0 1;\n"));
        out.push_str(&format!("        wctt t{i} on h0 0;\n"));
    }
    out.push_str("    }\n    map {\n");
    for i in 0..tasks {
        out.push_str(&format!("        t{i} -> h0;\n"));
    }
    out.push_str("        bind s -> sn;\n    }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layered_system_is_analyzable() {
        let g = layered_system(4, 6, 3, 42);
        assert_eq!(g.spec.task_count(), 24);
        let report = logrel_reliability::compute_srgs(&g.spec, &g.arch, &g.imp).unwrap();
        for c in g.spec.communicator_ids() {
            assert!(report.communicator(c).get() > 0.0);
        }
        logrel_sched::analyze(&g.spec, &g.arch, &g.imp).unwrap();
    }

    #[test]
    fn layered_system_is_deterministic_per_seed() {
        let a = layered_system(3, 4, 2, 7);
        let b = layered_system(3, 4, 2, 7);
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.imp, b.imp);
        let c = layered_system(3, 4, 2, 8);
        assert!(c.spec != a.spec || c.imp != a.imp);
    }

    #[test]
    fn big_htl_source_compiles() {
        let src = big_htl_source(20);
        let sys = logrel_lang::compile(&src).unwrap();
        assert_eq!(sys.spec.task_count(), 20);
    }
}
