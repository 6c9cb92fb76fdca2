//! Static reliability certification: sound three-valued LRC verdicts,
//! per-component degradation margins and bottleneck attribution.
//!
//! [`certify`] compiles the §3 induction of one system once and runs it
//! in one carrier per view:
//!
//! * the point SRGs of [`crate::srg::compute_srgs`] (what the paper's
//!   Proposition 1 check evaluates),
//! * the directed-rounding enclosures of
//!   [`crate::interval::compute_interval_srgs`] (what can actually be
//!   *certified*), optionally re-run over a uniform reliability
//!   degradation box `[r − δ, r]`,
//! * the symbol supports, which name the components each SRG depends on
//!   and whether it is multilinear,
//! * pinned `f64` runs, whose Birnbaum importances
//!   ([`crate::importance`]) give the bottleneck of each constrained
//!   communicator, and
//! * the symbolic polynomials of
//!   [`crate::symbolic::compute_symbolic_srgs`], on which monotone
//!   bisection finds how far each host/sensor may degrade before the
//!   first LRC breaks.

use crate::error::ReliabilityError;
use crate::importance::Birnbaum;
use crate::interval::{interval_srgs, CertStatus, Interval};
use crate::srg::{point_srgs, SrgPlan};
use crate::symbolic::{standard_assignment, support_srgs, symbolic_srgs, Poly, Sym};
use logrel_core::{Architecture, CommunicatorId, HostId, Implementation, SensorId, Specification};
use std::collections::{BTreeMap, BTreeSet};

/// A certified verdict below this slack (`lo − µ`) is reported as
/// near-threshold: one more ulp of pessimism could flip it.
pub const NEAR_THRESHOLD_SLACK: f64 = 1e-9;

/// The per-communicator row of a [`Certificate`].
#[derive(Debug, Clone, PartialEq)]
pub struct CommCertificate {
    /// The communicator.
    pub comm: CommunicatorId,
    /// Its declared name.
    pub name: String,
    /// The point-`f64` SRG (what `compute_srgs` reports).
    pub point: f64,
    /// The sound enclosure of the true SRG.
    pub interval: Interval,
    /// The declared LRC `µ`, if any.
    pub lrc: Option<f64>,
    /// Three-valued verdict of `interval` against `lrc`.
    pub status: Option<CertStatus>,
    /// `interval.lo() − µ`: how much certified reliability is to spare
    /// (negative when not certified).
    pub slack: Option<f64>,
    /// Enclosure under the degradation box, when one was requested.
    pub box_interval: Option<Interval>,
    /// Verdict under the degradation box, when one was requested.
    pub box_status: Option<CertStatus>,
    /// The component with the largest Birnbaum importance for this SRG —
    /// the first place to spend extra reliability.
    pub bottleneck: Option<String>,
    /// Whether the symbolic SRG is multilinear (no component reached along
    /// several dependency paths).
    pub multilinear: bool,
}

/// How far one component may degrade before some LRC stops being met.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentMargin {
    /// Host or sensor name.
    pub name: String,
    /// Declared reliability of the component.
    pub reliability: f64,
    /// Largest admissible drop in that reliability (conservative: computed
    /// by bisection on the side of under-approximation).
    pub margin: f64,
}

/// The full output of [`certify`].
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// One row per communicator, in declaration order.
    pub comms: Vec<CommCertificate>,
    /// Degradation margins for every component appearing in a constrained
    /// SRG, hosts first, each in declaration order.
    pub margins: Vec<ComponentMargin>,
    /// The degradation box half-width, when robust certification ran.
    pub box_delta: Option<f64>,
    /// Worst point-architecture verdict over all constrained
    /// communicators ([`CertStatus::Certified`] when none carry an LRC).
    pub overall: CertStatus,
    /// Worst verdict under the box, when one was requested.
    pub box_overall: Option<CertStatus>,
    /// Number of communicators carrying an LRC.
    pub constrained: usize,
}

impl Certificate {
    /// Count of constrained communicators with the given verdict.
    pub fn count(&self, status: CertStatus) -> usize {
        self.comms
            .iter()
            .filter(|c| c.status == Some(status))
            .count()
    }

    /// The smallest certified slack across constrained communicators.
    pub fn min_slack(&self) -> Option<f64> {
        self.comms
            .iter()
            .filter_map(|c| c.slack)
            .min_by(f64::total_cmp)
    }
}

/// Statically certifies every LRC of the system; see the module docs.
///
/// # Errors
///
/// Same conditions as [`crate::srg::compute_srgs`].
pub fn certify(
    spec: &Specification,
    arch: &Architecture,
    imp: &Implementation,
    box_delta: Option<f64>,
) -> Result<Certificate, ReliabilityError> {
    let plan = SrgPlan::compile(spec, imp)?;
    let point = point_srgs(&plan, arch)?;
    let intervals = interval_srgs(&plan, arch, None)?;
    let boxed = box_delta
        .map(|d| interval_srgs(&plan, arch, Some(d)))
        .transpose()?;
    let support = support_srgs(&plan)?;
    let support = support.communicators();

    // The Birnbaum importance of every component some constrained SRG
    // depends on, with its label.
    let lrcs: Vec<Option<f64>> = spec
        .communicator_ids()
        .map(|c| spec.communicator(c).lrc().map(|m| m.get()))
        .collect();
    let components: BTreeSet<Sym> = lrcs
        .iter()
        .zip(support)
        .filter(|(lrc, _)| lrc.is_some())
        .flat_map(|(_, s)| s.symbols.iter().copied())
        .collect();
    let importance = components
        .iter()
        .map(|&x| Ok((x, (x.label(spec, arch), Birnbaum::new(&plan, arch, x)?))))
        .collect::<Result<BTreeMap<_, _>, ReliabilityError>>()?;
    // The component of largest importance, ties broken by the smallest
    // label.
    let bottleneck = |c: CommunicatorId| {
        support[c.index()]
            .symbols
            .iter()
            .map(|x| &importance[x])
            .max_by(|(la, a), (lb, b)| a.of(c).total_cmp(&b.of(c)).then(lb.cmp(la)))
            .map(|(label, _)| label.clone())
    };

    let mut comms = Vec::with_capacity(spec.communicator_count());
    let mut overall = CertStatus::Certified;
    let mut box_overall = box_delta.map(|_| CertStatus::Certified);
    let mut constrained = 0usize;
    for c in spec.communicator_ids() {
        let interval = intervals.communicator(c);
        let lrc = lrcs[c.index()];
        let status = lrc.map(|mu| interval.certify(mu));
        let box_interval = boxed.as_ref().map(|b| b.communicator(c));
        let box_status = match (box_interval, lrc) {
            (Some(b), Some(mu)) => Some(b.certify(mu)),
            _ => None,
        };
        if let Some(s) = status {
            constrained += 1;
            overall = overall.min(s);
            if let (Some(acc), Some(bs)) = (box_overall, box_status) {
                box_overall = Some(acc.min(bs));
            }
        }
        comms.push(CommCertificate {
            comm: c,
            name: spec.communicator(c).name().to_owned(),
            point: point.communicator(c).get(),
            interval,
            lrc,
            status,
            slack: lrc.map(|mu| interval.lo() - mu),
            box_interval,
            box_status,
            bottleneck: lrc.and_then(|_| bottleneck(c)),
            multilinear: !support[c.index()].shared,
        });
    }

    let symbolic = symbolic_srgs(&plan)?;
    let polys: Vec<(f64, &Poly)> = spec
        .communicator_ids()
        .filter_map(|c| lrcs[c.index()].map(|mu| (mu, symbolic.communicator(c))))
        .collect();
    let margins = component_margins(arch, &components, &polys);

    Ok(Certificate {
        comms,
        margins,
        box_delta,
        overall,
        box_overall,
        constrained,
    })
}

/// Margins for every host/sensor among `components`, the symbols of the
/// `constrained` SRGs.
fn component_margins(
    arch: &Architecture,
    components: &BTreeSet<Sym>,
    constrained: &[(f64, &Poly)],
) -> Vec<ComponentMargin> {
    let assign = standard_assignment(arch);
    let brel = arch.broadcast_reliability().get();
    let mut hosts: BTreeSet<HostId> = BTreeSet::new();
    let mut sensors: BTreeSet<SensorId> = BTreeSet::new();
    for &sym in components {
        match sym {
            Sym::Replica(_, h) => {
                hosts.insert(h);
            }
            Sym::Sensor(s) => {
                sensors.insert(s);
            }
        }
    }
    let mut margins = Vec::new();
    for h in hosts {
        let p = arch.host(h).reliability().get();
        let margin = constrained
            .iter()
            .map(|&(mu, poly)| {
                margin_by_bisection(mu, p, |v| {
                    poly.eval(&|sym| match sym {
                        Sym::Replica(_, h2) if h2 == h => v * brel,
                        other => assign(other),
                    })
                })
            })
            .fold(p, f64::min);
        margins.push(ComponentMargin {
            name: arch.host(h).name().to_owned(),
            reliability: p,
            margin,
        });
    }
    for s in sensors {
        let p = arch.sensor(s).reliability().get();
        let margin = constrained
            .iter()
            .map(|&(mu, poly)| {
                margin_by_bisection(mu, p, |v| {
                    poly.eval(&|sym| match sym {
                        Sym::Sensor(s2) if s2 == s => v,
                        other => assign(other),
                    })
                })
            })
            .fold(p, f64::min);
        margins.push(ComponentMargin {
            name: arch.sensor(s).name().to_owned(),
            reliability: p,
            margin,
        });
    }
    margins
}

/// The largest `d` such that degrading the component from `p` to `p − d`
/// keeps `g ≥ µ`, found by bisection on the monotone nondecreasing `g`.
/// Conservative: the returned margin never overshoots the true threshold.
fn margin_by_bisection(mu: f64, p: f64, g: impl Fn(f64) -> f64) -> f64 {
    if g(0.0) >= mu {
        return p;
    }
    if g(p) < mu {
        return 0.0;
    }
    // Invariant: g(lo) < µ ≤ g(hi).
    let (mut lo, mut hi) = (0.0f64, p);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if g(mid) >= mu {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    p - hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{CommunicatorDecl, HostDecl, Reliability, SensorDecl, TaskDecl, ValueType};

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    /// sensor → s → ctrl (two replicas) → u with the given LRC on `u`.
    fn system(lrc: f64) -> (Specification, Architecture, Implementation) {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(
                CommunicatorDecl::new("u", ValueType::Float, 10)
                    .unwrap()
                    .with_lrc(r(lrc)),
            )
            .unwrap();
        let t = sb
            .task(TaskDecl::new("ctrl").reads(s, 0).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(0.99))).unwrap();
        let h2 = ab.host(HostDecl::new("h2", r(0.98))).unwrap();
        let sen = ab.sensor(SensorDecl::new("sen", r(0.999))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h1, h2])
            .bind_sensor(s, sen)
            .build(&spec, &arch)
            .unwrap();
        (spec, arch, imp)
    }

    #[test]
    fn comfortable_lrc_is_certified_with_slack() {
        let (spec, arch, imp) = system(0.9);
        let cert = certify(&spec, &arch, &imp, None).unwrap();
        assert_eq!(cert.overall, CertStatus::Certified);
        assert_eq!(cert.constrained, 1);
        let u = &cert.comms[1];
        assert_eq!(u.status, Some(CertStatus::Certified));
        assert!(u.slack.unwrap() > NEAR_THRESHOLD_SLACK);
        assert!(u.interval.contains(u.point));
        assert!(u.multilinear, "no shared dependency paths here");
        assert_eq!(cert.count(CertStatus::Certified), 1);
        assert_eq!(cert.min_slack(), u.slack);
    }

    #[test]
    fn impossible_lrc_is_refuted() {
        let (spec, arch, imp) = system(0.9999);
        let cert = certify(&spec, &arch, &imp, None).unwrap();
        assert_eq!(cert.overall, CertStatus::Refuted);
        assert_eq!(cert.comms[1].status, Some(CertStatus::Refuted));
        assert!(cert.comms[1].slack.unwrap() < 0.0);
    }

    #[test]
    fn bottleneck_is_the_weakest_series_component() {
        // λ_u = srel · (1 − q1 q2): the sensor bounds the whole chain, so
        // its Birnbaum importance (≈ the task block's reliability) beats
        // either replica's (≈ srel · q_other).
        let (spec, arch, imp) = system(0.9);
        let cert = certify(&spec, &arch, &imp, None).unwrap();
        assert_eq!(cert.comms[1].bottleneck.as_deref(), Some("sen"));
        // The unconstrained sensor communicator has no bottleneck.
        assert_eq!(cert.comms[0].bottleneck, None);
    }

    #[test]
    fn margins_are_conservative_and_positive_when_certified() {
        let (spec, arch, imp) = system(0.9);
        let cert = certify(&spec, &arch, &imp, None).unwrap();
        assert_eq!(cert.margins.len(), 3, "h1, h2, sen");
        for m in &cert.margins {
            assert!(m.margin > 0.0, "{} should have headroom", m.name);
            assert!(m.margin <= m.reliability);
        }
        // The sensor is in series: its margin is the distance to µ/(task
        // block) ≈ 0.999 − 0.9/(1 − 0.01·0.02); check conservatively.
        let sen = cert.margins.iter().find(|m| m.name == "sen").unwrap();
        let exact = 0.999 - 0.9 / (1.0 - 0.01 * 0.02);
        assert!(sen.margin <= exact + 1e-9);
        assert!(sen.margin > exact - 1e-6);
    }

    #[test]
    fn refuted_lrc_zeroes_every_margin() {
        let (spec, arch, imp) = system(0.9999);
        let cert = certify(&spec, &arch, &imp, None).unwrap();
        for m in &cert.margins {
            assert_eq!(m.margin, 0.0);
        }
    }

    #[test]
    fn box_certification_degrades_the_verdict() {
        let (spec, arch, imp) = system(0.995);
        // Point verdict holds (λ ≈ 0.99879) …
        let plain = certify(&spec, &arch, &imp, None).unwrap();
        assert_eq!(plain.overall, CertStatus::Certified);
        assert_eq!(plain.box_overall, None);
        // … a small box keeps it …
        let small = certify(&spec, &arch, &imp, Some(1e-4)).unwrap();
        assert_eq!(small.box_overall, Some(CertStatus::Certified));
        // … a large box (sensor down to 0.899) loses the certificate. The
        // box's upper corner is still the declared architecture, so a
        // point-certified LRC can only degrade to INDETERMINATE, never to
        // REFUTED.
        let large = certify(&spec, &arch, &imp, Some(0.1)).unwrap();
        assert_eq!(large.overall, CertStatus::Certified);
        assert_eq!(large.box_overall, Some(CertStatus::Indeterminate));
        assert_eq!(large.comms[1].box_status, Some(CertStatus::Indeterminate));
    }

    #[test]
    fn margin_bisection_handles_edges() {
        // Constant g above µ: full margin; below µ: none.
        assert_eq!(margin_by_bisection(0.5, 0.9, |_| 0.8), 0.9);
        assert_eq!(margin_by_bisection(0.5, 0.9, |_| 0.2), 0.0);
        // Identity g: threshold is µ itself.
        let m = margin_by_bisection(0.5, 0.9, |v| v);
        assert!((m - 0.4).abs() < 1e-9);
        assert!(m <= 0.4, "bisection must under-approximate");
    }
}
