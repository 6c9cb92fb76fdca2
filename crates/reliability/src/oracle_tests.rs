//! The §3 plan against its oracle.
//!
//! The first tests pin the block-diagram oracle itself ([`Block`],
//! [`block_importance`]). The proptest then draws random systems over
//! every input failure model, with shared inputs and constant
//! communicators, and holds every run of the plan to an independent
//! computation:
//!
//! * the unpinned `f64` run is [`compute_srgs`] bit for bit;
//! * the [`Support`] of every SRG is its polynomial's symbols and
//!   multilinearity flag exactly;
//! * every Birnbaum importance and improvement potential of
//!   [`architecture_importance`] (pinned runs of the plan) equals the
//!   pinned difference of the polynomial and the pinning of the named
//!   unit in the communicator's block diagram, to 1e-9.

use crate::importance::{architecture_importance, pinned_srgs};
use crate::oracle::{block_importance, communicator_block, Block};
use crate::srg::{compute_srgs, SrgPlan};
use crate::symbolic::{
    compute_symbolic_srgs, pinned_birnbaum, standard_assignment, support_srgs, Support, Sym,
};
use logrel_core::{
    Architecture, CommunicatorDecl, CommunicatorId, FailureModel, HostDecl, Implementation,
    Reliability, SensorDecl, Specification, TaskDecl, Value, ValueType,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn r(v: f64) -> Reliability {
    Reliability::new(v).unwrap()
}

#[test]
fn unit_probability_is_its_reliability() {
    assert_eq!(Block::unit(r(0.7)).probability(), 0.7);
}

#[test]
fn series_and_parallel_basics() {
    let s = Block::series(vec![Block::unit(r(0.9)), Block::unit(r(0.8))]);
    assert!((s.probability() - 0.72).abs() < 1e-12);
    let p = Block::parallel(vec![Block::unit(r(0.9)), Block::unit(r(0.8))]).unwrap();
    assert!((p.probability() - 0.98).abs() < 1e-12);
    assert_eq!(Block::series(vec![]).probability(), 1.0);
    assert!(Block::parallel(vec![]).is_err());
}

#[test]
fn reliability_clamps_roundoff() {
    let many = Block::parallel(vec![Block::unit(r(0.999_999_999_999)); 8]).unwrap();
    assert!(many.reliability().is_ok());
}

#[test]
fn series_unit_has_full_birnbaum_in_isolation() {
    let ranking = block_importance(&Block::named_unit("only", r(0.7)));
    assert_eq!(ranking.len(), 1);
    assert!((ranking[0].birnbaum - 1.0).abs() < 1e-12);
    assert!((ranking[0].improvement - 0.3).abs() < 1e-12);
}

#[test]
fn redundant_components_matter_less() {
    let block = Block::series(vec![
        Block::named_unit("sensor", r(0.95)),
        Block::parallel(vec![
            Block::named_unit("h1", r(0.9)),
            Block::named_unit("h2", r(0.9)),
        ])
        .unwrap(),
    ]);
    let ranking = block_importance(&block);
    assert_eq!(ranking[0].name, "sensor");
    // I_B(sensor) = R(par) = 0.99; I_B(h1) = 0.95 * (1 - 0.9) = 0.095.
    assert!((ranking[0].birnbaum - 0.99).abs() < 1e-12);
    assert!((ranking[0].improvement - 0.99 * 0.05).abs() < 1e-12);
    let h1 = ranking.iter().find(|c| c.name == "h1").unwrap();
    assert!((h1.birnbaum - 0.095).abs() < 1e-12);
}

#[test]
fn repeated_names_are_pinned_together() {
    // The same physical host on two paths: pinning both at once makes
    // it a single point of failure.
    let block = Block::parallel(vec![
        Block::series(vec![
            Block::named_unit("shared", r(0.9)),
            Block::named_unit("a", r(0.8)),
        ]),
        Block::series(vec![
            Block::named_unit("shared", r(0.9)),
            Block::named_unit("b", r(0.8)),
        ]),
    ])
    .unwrap();
    let ranking = block_importance(&block);
    // With shared failed the system fails: R_down = 0. With it perfect:
    // 1 - 0.2^2 = 0.96.
    assert_eq!(ranking[0].name, "shared");
    assert!((ranking[0].birnbaum - 0.96).abs() < 1e-12);
}

/// A random system: 1–3 sensor inputs, up to two constant communicators
/// and 1–6 tasks, each writing its own communicator and reading one to
/// three distinct earlier communicators under a random input failure
/// model, on random subsets of three hosts; each sensor input is bound to
/// a random subset of three sensors.
fn random_system(seed: u64) -> (Specification, Architecture, Implementation) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sb = Specification::builder();
    let mut readable: Vec<CommunicatorId> = Vec::new();
    let mut sensor_inputs = Vec::new();
    for i in 0..rng.gen_range(1..=3) {
        let decl = CommunicatorDecl::new(format!("s{i}"), ValueType::Float, 10).unwrap();
        let c = sb.communicator(decl.from_sensor()).unwrap();
        readable.push(c);
        sensor_inputs.push(c);
    }
    for i in 0..rng.gen_range(0..=2) {
        let decl = CommunicatorDecl::new(format!("k{i}"), ValueType::Float, 10).unwrap();
        readable.push(sb.communicator(decl).unwrap());
    }
    let models = [
        FailureModel::Series,
        FailureModel::Parallel,
        FailureModel::Independent,
    ];
    let mut tasks = Vec::new();
    for i in 0..rng.gen_range(1..=6) {
        let out = sb
            .communicator(CommunicatorDecl::new(format!("o{i}"), ValueType::Float, 10).unwrap())
            .unwrap();
        let model = models[rng.gen_range(0..3)];
        let mut decl = TaskDecl::new(format!("t{i}")).writes(out, 1).model(model);
        let mut inputs = BTreeSet::new();
        for _ in 0..rng.gen_range(1..=3) {
            inputs.insert(readable[rng.gen_range(0..readable.len())]);
        }
        for c in inputs {
            decl = decl.reads(c, 0);
            if model != FailureModel::Series {
                decl = decl.default_value(Value::Float(0.0));
            }
        }
        tasks.push(sb.task(decl).unwrap());
        readable.push(out);
    }
    let spec = sb.build().unwrap();

    let mut ab = Architecture::builder();
    let hosts: Vec<_> = (0..3)
        .map(|i| {
            let rel = r(rng.gen_range(0.5..1.0));
            ab.host(HostDecl::new(format!("h{i}"), rel)).unwrap()
        })
        .collect();
    let sensors: Vec<_> = (0..3)
        .map(|i| {
            let rel = r(rng.gen_range(0.5..1.0));
            ab.sensor(SensorDecl::new(format!("sen{i}"), rel)).unwrap()
        })
        .collect();
    for &t in &tasks {
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
    }
    if rng.gen_bool(0.5) {
        ab.broadcast_reliability(r(rng.gen_range(0.9..1.0)));
    }
    let arch = ab.build();

    let mut ib = Implementation::builder();
    // A random non-empty subset of three indices.
    let mut subset = || {
        let mask = rng.gen_range(1..8u32);
        (0..3).filter(move |i| mask & (1 << i) != 0)
    };
    for &t in &tasks {
        ib = ib.assign(t, subset().map(|i| hosts[i]));
    }
    for &c in &sensor_inputs {
        for i in subset() {
            ib = ib.bind_sensor(c, sensors[i]);
        }
    }
    let imp = ib.build(&spec, &arch).unwrap();
    (spec, arch, imp)
}

/// Checks every run of the plan of one system against its oracles (see
/// the module docs); returns the number of Birnbaum importances compared.
fn check_against_oracles(spec: &Specification, arch: &Architecture, imp: &Implementation) -> usize {
    let plan = SrgPlan::compile(spec, imp).unwrap();
    let point = compute_srgs(spec, arch, imp).unwrap();
    let plain = pinned_srgs(&plan, arch, None).unwrap();
    let symbolic = compute_symbolic_srgs(spec, imp).unwrap();
    let support = support_srgs(&plan).unwrap();
    for (p, f) in point.tasks().iter().zip(plain.tasks()) {
        assert_eq!(p.get().to_bits(), f.to_bits());
    }
    for (p, f) in point.communicators().iter().zip(plain.communicators()) {
        assert_eq!(p.get().to_bits(), f.to_bits());
    }
    let polys = symbolic.tasks().iter().chain(symbolic.communicators());
    let supports = support.tasks().iter().chain(support.communicators());
    for (poly, s) in polys.zip(supports) {
        let expect = Support {
            symbols: poly.symbols(),
            shared: !poly.is_multilinear(),
        };
        assert_eq!(*s, expect, "support of {poly:?}");
    }

    let assign = standard_assignment(arch);
    let mut compared = 0;
    for c in spec.communicator_ids() {
        let name = spec.communicator(c).name();
        let rows = architecture_importance(spec, arch, imp, c).unwrap();
        let poly = symbolic.communicator(c);
        let labels: BTreeSet<String> = poly.symbols().iter().map(|x| x.label(spec, arch)).collect();
        let ranked: BTreeSet<String> = rows.iter().map(|row| row.name.clone()).collect();
        assert_eq!(ranked, labels, "`{name}`: ranked components");
        let oracle = block_importance(&communicator_block(spec, arch, imp, c).unwrap());
        for row in &rows {
            let x = poly
                .symbols()
                .into_iter()
                .find(|x| x.label(spec, arch) == row.name)
                .unwrap();
            let symbolic_b = pinned_birnbaum(poly, x, &assign);
            let block = oracle.iter().find(|o| o.name == row.name).unwrap();
            assert!(
                (row.birnbaum - symbolic_b).abs() <= 1e-9
                    && (row.birnbaum - block.birnbaum).abs() <= 1e-9
                    && (row.improvement - block.improvement).abs() <= 1e-9,
                "`{name}`: `{}` plan {row:?}, symbolic {symbolic_b}, block {block:?}",
                row.name
            );
            compared += 1;
        }
        // The diagram also names constants and the units a constant-one
        // operand absorbs; none of them matters.
        for o in oracle.iter().filter(|o| !ranked.contains(&o.name)) {
            assert!(
                o.name.starts_with("const:") || (o.birnbaum == 0.0 && o.improvement == 0.0),
                "`{name}`: the plan does not rank {o:?}"
            );
        }
    }
    compared
}

/// A constant communicator `k` read under the parallel model absorbs the
/// other inputs of its reader; under the series model it drops out, and
/// the sensor input `s` read twice along two paths is shared.
#[test]
fn constant_and_shared_inputs_match_the_oracles() {
    let mut sb = Specification::builder();
    let s = sb
        .communicator(
            CommunicatorDecl::new("s", ValueType::Float, 10)
                .unwrap()
                .from_sensor(),
        )
        .unwrap();
    let k = sb
        .communicator(CommunicatorDecl::new("k", ValueType::Float, 10).unwrap())
        .unwrap();
    let a = sb
        .communicator(CommunicatorDecl::new("a", ValueType::Float, 10).unwrap())
        .unwrap();
    let u = sb
        .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
        .unwrap();
    let v = sb
        .communicator(CommunicatorDecl::new("v", ValueType::Float, 10).unwrap())
        .unwrap();
    let ta = sb
        .task(TaskDecl::new("ta").reads(s, 0).writes(a, 1))
        .unwrap();
    let tu = sb
        .task(
            TaskDecl::new("tu")
                .reads(s, 0)
                .reads(k, 0)
                .writes(u, 1)
                .model(FailureModel::Parallel)
                .default_value(Value::Float(0.0))
                .default_value(Value::Float(0.0)),
        )
        .unwrap();
    let tv = sb
        .task(
            TaskDecl::new("tv")
                .reads(s, 0)
                .reads(a, 0)
                .reads(k, 0)
                .writes(v, 1),
        )
        .unwrap();
    let spec = sb.build().unwrap();
    let mut ab = Architecture::builder();
    let h1 = ab.host(HostDecl::new("h1", r(0.9))).unwrap();
    let h2 = ab.host(HostDecl::new("h2", r(0.8))).unwrap();
    let sen = ab.sensor(SensorDecl::new("sen", r(0.95))).unwrap();
    for t in [ta, tu, tv] {
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
    }
    let arch = ab.build();
    let imp = Implementation::builder()
        .assign(ta, [h1])
        .assign(tu, [h1, h2])
        .assign(tv, [h2])
        .bind_sensor(s, sen)
        .build(&spec, &arch)
        .unwrap();
    assert_eq!(check_against_oracles(&spec, &arch, &imp), 8);

    let plan = SrgPlan::compile(&spec, &imp).unwrap();
    let support = support_srgs(&plan).unwrap();
    let of = |c: CommunicatorId| &support.communicators()[c.index()];
    // `u` = λ_tu · (1 − (1 − λ_s)(1 − 1)) = λ_tu: the sensor is absorbed.
    assert_eq!(
        of(u).symbols,
        BTreeSet::from([Sym::Replica(tu, h1), Sym::Replica(tu, h2)])
    );
    assert!(!of(u).shared);
    // `v` reads `s` directly and through `a`: not multilinear in `sen`.
    assert!(of(v).symbols.contains(&Sym::Sensor(sen)) && of(v).shared);
    assert_eq!(*of(k), Support::default());
    assert!(architecture_importance(&spec, &arch, &imp, k)
        .unwrap()
        .is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plan_runs_match_the_oracles_on_random_systems(seed in any::<u64>()) {
        let (spec, arch, imp) = random_system(seed);
        check_against_oracles(&spec, &arch, &imp);
    }

    #[test]
    fn series_below_min_parallel_above_max(a in 0.05f64..1.0, b in 0.05f64..1.0) {
        let ua = Block::unit(r(a));
        let ub = Block::unit(r(b));
        let s = Block::series(vec![ua.clone(), ub.clone()]).probability();
        let p = Block::parallel(vec![ua, ub]).unwrap().probability();
        prop_assert!(s <= a.min(b) + 1e-12);
        prop_assert!(p + 1e-12 >= a.max(b));
    }
}
