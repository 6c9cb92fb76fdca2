//! Soundness and cross-validation suite for the static certification
//! engine: the point SRG of every shipped and corpus spec lies inside its
//! certified enclosure and equals its symbolic SRG; the Birnbaum
//! importances of `architecture_importance` (pinned runs of the compiled
//! §3 plan) equal both the polynomial's pinned differences and the
//! pinning of named units in the RBD test oracle
//! (`crates/reliability/src/oracle.rs`, included by path), and rank
//! exactly the polynomial's symbols, whose multilinearity the certificate
//! reports; random specs covering every input failure model, shared
//! inputs and constant communicators keep all of it (proptest); a
//! five-layer spec whose polynomials certification cannot afford is
//! ranked like its oracle; a Monte-Carlo fault-injection
//! campaign's ε-band overlaps the certified interval, and the query
//! layer's certify refinement reuse is exercised in both directions
//! (LRC weakening reuses, tightening recomputes, warm ≡ cold always).

use logrel_core::{TimeDependentImplementation, Value};
use logrel_obs::{NoopSink, Registry};
use logrel_query::analyze_source;
#[path = "../crates/reliability/src/oracle.rs"]
mod oracle;

use logrel_reliability::{
    architecture_importance, certify, compute_srgs, compute_symbolic_srgs, pinned_birnbaum,
    standard_assignment, CertStatus,
};
use logrel_sim::{
    BatchConfig, Campaign, CampaignConfig, ConstantEnvironment, LaneMode, MonitorConfig,
    ProbabilisticFaults, ReplicationContext, Scenario, Simulation,
};
use logrel_threetank::behaviors::build_behaviors;
use logrel_threetank::{PlantParams, Scenario as Deployment, ThreeTankSystem};
use oracle::{block_importance, communicator_block};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

/// Every HTL specification shipped with the repository plus the certify
/// defect corpus.
fn all_specs() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["assets", "examples/htl", "tests/assets/certify"] {
        for entry in fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) == Some("htl") {
                files.push(path);
            }
        }
    }
    files.sort();
    assert!(files.len() >= 6, "spec sweep too small: {files:?}");
    files
}

/// Checks that the symbolic SRG of every communicator, evaluated at the
/// declared architecture, equals the point SRG up to rounding.
fn assert_symbolic_matches_point(sys: &logrel::lang::ElaboratedSystem, ctx: &str) {
    let srgs = compute_srgs(&sys.spec, &sys.arch, &sys.imp).unwrap();
    let symbolic = compute_symbolic_srgs(&sys.spec, &sys.imp).unwrap();
    let assign = standard_assignment(&sys.arch);
    for c in sys.spec.communicator_ids() {
        let point = srgs.communicator(c).get();
        let exact = symbolic.communicator(c).eval(&assign);
        assert!(
            (exact - point).abs() <= 1e-12,
            "{ctx}: `{}` symbolic {exact} vs point {point}",
            sys.spec.communicator(c).name()
        );
    }
}

/// Checks the three Birnbaum importances of every component of every
/// communicator of one system against each other, to 1e-9: the plan's
/// pinned runs (`architecture_importance`), the polynomial's pinned
/// difference and the RBD oracle's unit pinning. The plan ranks exactly
/// the polynomial's symbols; the oracle also names constant
/// communicators, and units a constant-one operand absorbs, all of zero
/// importance. Returns the number of importances compared.
fn assert_birnbaum_three_ways(sys: &logrel::lang::ElaboratedSystem, ctx: &str) -> usize {
    let symbolic = compute_symbolic_srgs(&sys.spec, &sys.imp).unwrap();
    let assign = standard_assignment(&sys.arch);
    let mut compared = 0;
    for c in sys.spec.communicator_ids() {
        let comm = sys.spec.communicator(c).name();
        let rows = architecture_importance(&sys.spec, &sys.arch, &sys.imp, c).unwrap();
        let block = communicator_block(&sys.spec, &sys.arch, &sys.imp, c).unwrap();
        let oracle = block_importance(&block);
        let poly = symbolic.communicator(c);
        let symbols = poly.symbols();
        assert_eq!(rows.len(), symbols.len(), "{ctx}: `{comm}` ranks {rows:?}");
        for sym in symbols {
            let label = sym.label(&sys.spec, &sys.arch);
            let row = rows
                .iter()
                .find(|r| r.name == label)
                .unwrap_or_else(|| panic!("{ctx}: `{comm}` does not rank `{label}`"));
            let o = oracle
                .iter()
                .find(|o| o.name == label)
                .unwrap_or_else(|| panic!("{ctx}: `{comm}` has no RBD unit `{label}`"));
            let symbolic_b = pinned_birnbaum(poly, sym, &assign);
            assert!(
                (row.birnbaum - symbolic_b).abs() <= 1e-9
                    && (row.birnbaum - o.birnbaum).abs() <= 1e-9
                    && (row.improvement - o.improvement).abs() <= 1e-9,
                "{ctx}: `{comm}`: Birnbaum for `{label}` diverges: plan {row:?}, \
                 symbolic {symbolic_b}, rbd {o:?}"
            );
            compared += 1;
        }
        for o in oracle
            .iter()
            .filter(|o| !rows.iter().any(|r| r.name == o.name))
        {
            assert!(
                o.name.starts_with("const:") || (o.birnbaum == 0.0 && o.improvement == 0.0),
                "{ctx}: `{comm}`: the plan does not rank {o:?}"
            );
        }
    }
    compared
}

/// Checks the certification invariants of one elaborated system: the
/// point SRG lies inside the certified enclosure for every communicator
/// and equals the symbolic SRG, verdicts are exactly what the enclosure
/// dictates, the multilinearity flag is the polynomial's, and the
/// degradation box only ever widens the enclosure.
fn assert_sound(sys: &logrel::lang::ElaboratedSystem, ctx: &str) {
    assert_symbolic_matches_point(sys, ctx);
    let symbolic = compute_symbolic_srgs(&sys.spec, &sys.imp).unwrap();
    let srgs = compute_srgs(&sys.spec, &sys.arch, &sys.imp).unwrap();
    let cert = certify(&sys.spec, &sys.arch, &sys.imp, Some(1e-3)).unwrap();
    assert_eq!(cert.comms.len(), sys.spec.communicator_count(), "{ctx}");
    for row in &cert.comms {
        let point = srgs.communicator(row.comm).get();
        assert_eq!(row.point, point, "{ctx}: `{}` point mismatch", row.name);
        assert_eq!(
            row.multilinear,
            symbolic.communicator(row.comm).is_multilinear(),
            "{ctx}: `{}` multilinearity",
            row.name
        );
        assert!(
            row.interval.contains(point),
            "{ctx}: `{}` point {point} outside [{}, {}]",
            row.name,
            row.interval.lo(),
            row.interval.hi()
        );
        let boxed = row.box_interval.unwrap();
        assert!(
            boxed.lo() <= row.interval.lo() && row.interval.hi() <= boxed.hi(),
            "{ctx}: `{}` box must enclose the point-architecture interval",
            row.name
        );
        match (row.lrc, row.status) {
            (None, None) => {}
            (Some(mu), Some(status)) => {
                let expect = if row.interval.lo() >= mu {
                    CertStatus::Certified
                } else if row.interval.hi() < mu {
                    CertStatus::Refuted
                } else {
                    CertStatus::Indeterminate
                };
                assert_eq!(status, expect, "{ctx}: `{}` verdict", row.name);
                assert_eq!(
                    row.slack,
                    Some(row.interval.lo() - mu),
                    "{ctx}: `{}` slack",
                    row.name
                );
            }
            other => panic!("{ctx}: `{}` lrc/status mismatch: {other:?}", row.name),
        }
    }
}

#[test]
fn point_srg_inside_certified_interval_for_every_shipped_spec() {
    for path in all_specs() {
        let source = fs::read_to_string(&path).unwrap();
        let program = logrel::lang::parse(&source).unwrap();
        let sys = logrel::lang::elaborate(&program).unwrap();
        assert_sound(&sys, &path.display().to_string());
    }
}

/// Differential test of the three sensitivity analyses (see
/// `assert_birnbaum_three_ways`) on every communicator of every shipped
/// spec, where the polynomial must also evaluate to the point SRG.
#[test]
fn symbolic_birnbaum_matches_rbd_importance_on_every_shipped_spec() {
    let mut compared = 0usize;
    for path in all_specs() {
        let name = path.display().to_string();
        let source = fs::read_to_string(&path).unwrap();
        let program = logrel::lang::parse(&source).unwrap();
        let sys = logrel::lang::elaborate(&program).unwrap();
        assert_symbolic_matches_point(&sys, &name);
        compared += assert_birnbaum_three_ways(&sys, &name);
    }
    assert!(compared >= 73, "only {compared} importances compared");
}

/// Deep-spec regression: five layers of four tasks, each task of a later
/// layer reading two communicators of the layer before, shaped like the
/// benchmark's generated spec. Its polynomials grow exponentially with
/// depth, so `certify`, which still expands them for its degradation
/// margins, is not called here; `architecture_importance` takes no
/// polynomial and must answer on a last-layer communicator, as the RBD
/// oracle does.
#[test]
fn importance_of_a_deep_spec_matches_the_oracle() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/assets/deep/layered_5x4.htl");
    let source = fs::read_to_string(path).unwrap();
    let sys = logrel::lang::elaborate(&logrel::lang::parse(&source).unwrap()).unwrap();
    let c = sys.spec.find_communicator("c5_3").unwrap();
    let rows = architecture_importance(&sys.spec, &sys.arch, &sys.imp, c).unwrap();
    let oracle = block_importance(&communicator_block(&sys.spec, &sys.arch, &sys.imp, c).unwrap());
    // Every task of the last four layers and every sensor feeds `c5_3`.
    assert!(rows.len() >= 20, "{rows:?}");
    assert_eq!(rows.len(), oracle.len());
    for (row, o) in rows.iter().zip(&oracle) {
        assert_eq!(row.name, o.name);
        assert!(
            (row.birnbaum - o.birnbaum).abs() <= 1e-9
                && (row.improvement - o.improvement).abs() <= 1e-9,
            "plan {row:?} vs rbd {o:?}"
        );
    }
}

/// Renders a well-formed random spec: `replicas` controller replicas over
/// hosts of the given reliabilities, a sensor chain and an optional LRC,
/// plus a task `fuse` with input failure model `model` that reads both
/// the sensor and the controller's output (so the sensor is shared) and,
/// with `konst`, a constant communicator `k`.
fn render_spec(
    period: u64,
    replicas: usize,
    hrel: [u32; 3],
    srel: u32,
    lrc: &str,
    model: &str,
    konst: bool,
) -> String {
    let hosts = ["h1", "h2", "h3"];
    let constraint = if lrc.is_empty() {
        String::new()
    } else {
        format!(" {lrc}")
    };
    let (k_decl, k_read, k_default) = if konst {
        (
            format!("    communicator k : float period {period};\n"),
            ", k[0]",
            ", 0.0",
        )
    } else {
        (String::new(), "", "")
    };
    let defaults = if model == "series" {
        String::new()
    } else {
        format!(" defaults 0.0, 0.0{k_default}")
    };
    let mut out = format!(
        "program rnd {{\n    communicator s : float period {period} sensor;\n    communicator u : float period {period}{constraint};\n    communicator v : float period {period};\n{k_decl}"
    );
    out.push_str(&format!(
        "    module m {{\n        start mode main period {period} {{\n            invoke ctrl reads s[0] writes u[1];\n            invoke fuse model {model} reads s[0], u[0]{k_read} writes v[1]{defaults};\n        }}\n    }}\n"
    ));
    out.push_str("    architecture {\n");
    for (h, r) in hosts.iter().zip(hrel) {
        out.push_str(&format!("        host {h} reliability 0.{r:04};\n"));
    }
    out.push_str(&format!("        sensor sen reliability 0.{srel:04};\n"));
    for task in ["ctrl", "fuse"] {
        for h in hosts {
            out.push_str(&format!(
                "        wcet {task} on {h} 2; wctt {task} on {h} 1;\n"
            ));
        }
    }
    out.push_str("    }\n    map {\n");
    out.push_str(&format!(
        "        ctrl -> {};\n",
        hosts[..replicas].join(", ")
    ));
    out.push_str("        fuse -> h2, h3;\n");
    out.push_str("        bind s -> sen;\n    }\n}\n");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The enclosure property and the three-way Birnbaum agreement are not
    /// artifacts of the shipped examples: they hold across randomly drawn
    /// architectures, replication degrees, input failure models,
    /// constraints and constant inputs.
    #[test]
    fn certified_interval_encloses_point_srg(
        period in (0usize..3).prop_map(|i| [5u64, 10, 20][i]),
        replicas in 1usize..=3,
        model in (0usize..3).prop_map(|i| ["series", "parallel", "independent"][i]),
        h1 in 5000u32..=9999,
        h2 in 5000u32..=9999,
        h3 in 5000u32..=9999,
        srel in 5000u32..=9999,
        lrc_micro in proptest::option::of(500_000u32..=999_999),
        konst in any::<bool>(),
    ) {
        let hrel = [h1, h2, h3];
        let lrc = match lrc_micro {
            Some(m) => format!("lrc 0.{m:06}"),
            None => String::new(),
        };
        let source = render_spec(period, replicas, hrel, srel, &lrc, model, konst);
        let program = logrel::lang::parse(&source).unwrap();
        let sys = logrel::lang::elaborate(&program).unwrap();
        assert_sound(&sys, "random spec");
        assert_birnbaum_three_ways(&sys, "random spec");
    }
}

/// Cross-validation against the dynamic layer: a Monte-Carlo campaign
/// under independent per-round host/sensor faults must land its ε-band
/// on every certified enclosure — `[λ̂ − ε, λ̂ + ε]` overlaps `[lo, hi]`.
#[test]
fn campaign_epsilon_band_overlaps_certified_interval() {
    let sys = ThreeTankSystem::new(Deployment::ReplicatedControllers);
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let cert = certify(&sys.spec, &sys.arch, &sys.imp, None).unwrap();

    let analytic: Vec<Option<f64>> = cert.comms.iter().map(|r| Some(r.point)).collect();
    let config = CampaignConfig {
        batch: BatchConfig {
            replications: 8,
            rounds: 2_000,
            base_seed: 0xCE27,
            threads: 1,
        },
        monitor: MonitorConfig::default(),
        lanes: LaneMode::default(),
    };
    let report = Campaign::new(&sys.spec, Scenario::new(), config, sys.arch.host_count(), 0)
        .and_then(|campaign| {
            campaign.run::<NoopSink, _, _>(
                &sim,
                |_rep| ReplicationContext {
                    behaviors: build_behaviors(&sys, &params),
                    environment: Box::new(ConstantEnvironment::new(Value::Float(0.25))),
                    injector: Box::new(ProbabilisticFaults::from_architecture(&sys.arch)),
                },
                &analytic,
                &mut Registry::new(),
            )
        })
        .unwrap();

    for (cr, row) in report.comms.iter().zip(&cert.comms) {
        assert!(
            cr.empirical - cr.epsilon <= row.interval.hi()
                && row.interval.lo() <= cr.empirical + cr.epsilon,
            "`{}`: empirical {} ± {} misses certified [{}, {}]",
            row.name,
            cr.empirical,
            cr.epsilon,
            row.interval.lo(),
            row.interval.hi()
        );
    }
}

/// Renders the incremental-test spec with communicator `u` constrained at
/// the given LRC.
fn spec_with_lrc(lrc: &str) -> String {
    render_spec(
        10,
        2,
        [9900, 9800, 9700],
        9990,
        &format!("lrc {lrc}"),
        "series",
        false,
    )
}

/// Weakening the only LRC refine-reuses the certify query (the prior was
/// fully certified, so a looser threshold cannot change any verdict)
/// while the warm report stays byte-identical to a cold run.
#[test]
fn lrc_weakening_reuses_certify_query() {
    let base = analyze_source(&spec_with_lrc("0.9"), "inc.htl", None, &mut NoopSink);
    let db = base.db.unwrap();
    let weakened = spec_with_lrc("0.8");
    let warm = analyze_source(&weakened, "inc.htl", Some(&db), &mut NoopSink);
    let cold = analyze_source(&weakened, "inc.htl", None, &mut NoopSink);
    assert_eq!(warm.stdout, cold.stdout);
    assert_eq!(warm.stderr, cold.stderr);
    assert!(
        warm.stats.refine_reuses >= 1,
        "weakening must refine-reuse certify: {:?}",
        warm.stats
    );
    assert!(warm.stdout.contains("certified: yes"), "{}", warm.stdout);
}

/// Tightening the LRC invalidates the reuse argument — the prior verdict
/// says nothing about a *stricter* threshold — so certify recomputes, and
/// the recomputation is still byte-identical to a cold run.
#[test]
fn lrc_tightening_recomputes_certify_query() {
    let base = analyze_source(&spec_with_lrc("0.9"), "inc.htl", None, &mut NoopSink);
    let db = base.db.unwrap();
    let tightened = spec_with_lrc("0.95");
    let warm = analyze_source(&tightened, "inc.htl", Some(&db), &mut NoopSink);
    let cold = analyze_source(&tightened, "inc.htl", None, &mut NoopSink);
    assert_eq!(warm.stdout, cold.stdout);
    assert_eq!(warm.stderr, cold.stderr);
    assert_eq!(
        warm.stats.refine_reuses, 0,
        "tightening must not reuse certify: {:?}",
        warm.stats
    );
}
