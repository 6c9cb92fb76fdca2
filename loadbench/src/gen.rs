//! Seeded input generators. Every input a workload sends — generated
//! specs, spec edits, scenario scripts, job seeds — is a deterministic
//! function of the run seed, so the same seed gives the same op stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// An RNG for one named input stream of a run.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Layers of the generated spec. Fixed at 3: the symbolic SRG pass of
/// certification grows exponentially with depth (see the README), and
/// one more layer takes a cold analysis from about 0.1 s to minutes.
pub const GEN_LAYERS: usize = 3;
/// Tasks per layer of the generated spec.
pub const GEN_WIDTH: usize = 4;
/// Hosts of the generated spec.
const GEN_HOSTS: usize = 3;
/// Period of the generated spec's internal communicators, in ticks.
const GEN_PERIOD: u64 = 100;

/// The generated spec of the `serve_mixed` and `edit_certify`
/// workloads: [`layered_spec`] at `GEN_LAYERS` × `GEN_WIDTH`.
pub fn generated_spec(seed: u64) -> String {
    layered_spec(seed, GEN_LAYERS, GEN_WIDTH)
}

/// A layered HTL program: `width` sensors feed `layers` layers of
/// `width` tasks each. Task `i` of layer 1 reads sensor `i`; task `i` of
/// a later layer reads communicators `i` and `i + 1` (mod `width`) of
/// the layer before; each writes its own communicator at instance `k`.
/// Every task but the last of a layer runs on two hosts. The structure
/// is fixed — only the WCETs follow the seed — because certification
/// cost depends steeply on fan-in and replication (see the README), and
/// a seed must not change how much work an op is. Every task has a WCET
/// on every host, so any replica set is a valid mapping; the loads and
/// the last layer's LRCs leave room for every edit [`EditableSpec`]
/// can make.
pub fn layered_spec(seed: u64, layers: usize, width: usize) -> String {
    let round = GEN_PERIOD * (layers as u64 + 1);
    let mut r = rng(seed, 0x5BEC);
    let mut s = String::from("program gen {\n");
    for i in 0..width {
        let _ = writeln!(s, "    communicator s{i} : float period {round} sensor;");
    }
    for k in 1..=layers {
        for i in 0..width {
            let lrc = if k == layers { " lrc 0.98" } else { "" };
            let _ = writeln!(
                s,
                "    communicator c{k}_{i} : float period {GEN_PERIOD}{lrc};"
            );
        }
    }
    let _ = write!(
        s,
        "    module m {{\n        start mode main period {round} {{\n"
    );
    for k in 1..=layers {
        for i in 0..width {
            let input = |j: usize| {
                if k == 1 {
                    format!("s{j}[0]")
                } else {
                    format!("c{}_{j}[{}]", k - 1, k - 1)
                }
            };
            let mut reads = input(i);
            if k > 1 {
                reads = format!("{reads}, {}", input((i + 1) % width));
            }
            let _ = writeln!(
                s,
                "            invoke t{k}_{i} reads {reads} writes c{k}_{i}[{k}];"
            );
        }
    }
    s.push_str("        }\n    }\n    architecture {\n");
    for h in 0..GEN_HOSTS {
        let _ = writeln!(s, "        host h{h} reliability 0.999;");
    }
    for i in 0..width {
        let _ = writeln!(s, "        sensor sn{i} reliability 0.9999;");
    }
    for k in 1..=layers {
        for i in 0..width {
            for h in 0..GEN_HOSTS {
                let wcet = r.gen_range(2..=5u32);
                let _ = writeln!(
                    s,
                    "        wcet t{k}_{i} on h{h} {wcet}; wctt t{k}_{i} on h{h} 1;"
                );
            }
        }
    }
    s.push_str("    }\n    map {\n");
    for k in 1..=layers {
        for i in 0..width {
            let a = (k + i) % GEN_HOSTS;
            if i != width - 1 {
                let _ = writeln!(s, "        t{k}_{i} -> h{a}, h{};", (a + 1) % GEN_HOSTS);
            } else {
                let _ = writeln!(s, "        t{k}_{i} -> h{a};");
            }
        }
    }
    for i in 0..width {
        let _ = writeln!(s, "        bind s{i} -> sn{i};");
    }
    s.push_str("    }\n}\n");
    s
}

/// One editable number or mapping in a spec's source text.
#[derive(Debug, Clone)]
struct Site {
    /// Byte range of the edited text in the base source.
    range: std::ops::Range<usize>,
    /// Which kind of edit this site takes.
    kind: &'static str,
    /// The values the site may take; index 0 is the base value.
    values: Vec<String>,
}

/// A spec plus the edit sites of its source: WCETs, LRCs, host
/// reliabilities and (for the generated spec) task mappings. Each site
/// takes values from a small fixed set around its base value — WCETs
/// within one tick, LRCs only weakened, host reliabilities only
/// improved, replicas moved between hosts but never added or dropped —
/// so every edited
/// version stays schedulable and meets its LRCs, and a random walk over
/// edits never drifts.
#[derive(Debug, Clone)]
pub struct EditableSpec {
    base: String,
    sites: Vec<Site>,
    current: Vec<usize>,
}

/// The whitespace-separated words of `stmt`, each with its byte offset.
fn words(stmt: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in stmt.char_indices() {
        match (c.is_whitespace() || c == ',', start) {
            (true, Some(s)) => {
                out.push((s, &stmt[s..i]));
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, &stmt[s..]));
    }
    out
}

fn fmt_prob(p: f64) -> String {
    format!("{}", (p * 1e9).round() / 1e9)
}

impl EditableSpec {
    /// Scans `source` for edit sites. `mappable` enables mapping edits,
    /// which are valid only where every task has a WCET on every host
    /// (the generated spec).
    pub fn new(source: &str, mappable: bool) -> Self {
        let mut sites = Vec::new();
        let mut offset = 0;
        for line in source.split_inclusive('\n') {
            let code_len = line.find("//").unwrap_or(line.len());
            let mut stmt_start = 0;
            for stmt in line[..code_len].split_inclusive(';') {
                let base = offset + stmt_start;
                stmt_start += stmt.len();
                let stmt = stmt.trim_end_matches(';');
                let w = words(stmt);
                let at = |i: usize| base + w[i].0..base + w[i].0 + w[i].1.len();
                match w.first().map(|x| x.1) {
                    Some("wcet") if w.len() == 5 => {
                        let n: u32 = w[4].1.parse().expect("wcet is an integer");
                        let mut values = vec![n.to_string(), (n + 1).to_string()];
                        if n > 1 {
                            values.push((n - 1).to_string());
                        }
                        sites.push(Site {
                            range: at(4),
                            kind: "wcet",
                            values,
                        });
                    }
                    Some("host") if w.len() == 4 && w[2].1 == "reliability" => {
                        let r: f64 = w[3].1.parse().expect("reliability is a number");
                        let values = vec![
                            w[3].1.to_owned(),
                            fmt_prob(1.0 - (1.0 - r) / 2.0),
                            fmt_prob(1.0 - (1.0 - r) / 4.0),
                        ];
                        sites.push(Site {
                            range: at(3),
                            kind: "host",
                            values,
                        });
                    }
                    Some("communicator") => {
                        if let Some(i) = w.iter().position(|x| x.1 == "lrc") {
                            let mu: f64 = w[i + 1].1.parse().expect("lrc is a number");
                            let slack = 1.0 - mu;
                            let values = vec![
                                w[i + 1].1.to_owned(),
                                fmt_prob(mu - slack),
                                fmt_prob(mu - 2.0 * slack),
                            ];
                            sites.push(Site {
                                range: at(i + 1),
                                kind: "lrc",
                                values,
                            });
                        }
                    }
                    Some(task) if mappable && w.len() >= 3 && w[1].1 == "->" && task != "bind" => {
                        // A mapping edit moves replicas between hosts but
                        // keeps their number, which sets the cost.
                        let range = base + w[2].0..base + stmt.len();
                        let mut values = vec![source[range.clone()].to_owned()];
                        for a in 0..GEN_HOSTS {
                            let v = if w.len() == 3 {
                                format!("h{a}")
                            } else {
                                format!("h{a}, h{}", (a + 1) % GEN_HOSTS)
                            };
                            if v != values[0] {
                                values.push(v);
                            }
                        }
                        sites.push(Site {
                            range,
                            kind: "map",
                            values,
                        });
                    }
                    _ => {}
                }
            }
            offset += line.len();
        }
        let current = vec![0; sites.len()];
        EditableSpec {
            base: source.to_owned(),
            sites,
            current,
        }
    }

    /// Applies one seeded edit of kind `turn` (mod the spec's kinds, in
    /// name order) at a random site of that kind, to a value different
    /// from the site's current one.
    pub fn edit(&mut self, r: &mut StdRng, turn: usize) {
        let mut kinds: Vec<&str> = self.sites.iter().map(|s| s.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        let kind = kinds[turn % kinds.len()];
        let of_kind: Vec<usize> = (0..self.sites.len())
            .filter(|&i| self.sites[i].kind == kind)
            .collect();
        let site = of_kind[r.gen_range(0..of_kind.len())];
        let n = self.sites[site].values.len();
        let step = r.gen_range(1..n);
        self.current[site] = (self.current[site] + step) % n;
    }

    /// The source with every site at its current value.
    pub fn source(&self) -> String {
        let mut out = String::with_capacity(self.base.len() + 16);
        let mut pos = 0;
        for (site, &v) in self.sites.iter().zip(&self.current) {
            out.push_str(&self.base[pos..site.range.start]);
            out.push_str(&site.values[v]);
            pos = site.range.end;
        }
        out.push_str(&self.base[pos..]);
        out
    }

    /// Number of edit sites found.
    #[cfg(test)]
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }
}

/// A window `[from, until)` at fractions `a..b` of `horizon`, shifted by
/// up to 2% of the horizon.
fn window(r: &mut StdRng, horizon: u64, a: f64, b: f64) -> (u64, u64) {
    let jitter = (horizon as f64 * 0.02 * r.gen::<f64>()) as u64;
    let from = (horizon as f64 * a) as u64 + jitter;
    let until = (horizon as f64 * b) as u64 + jitter;
    (from, until.max(from + 1))
}

/// The steer-by-wire campaign scenario: every event kind of the `.scn`
/// format over the horizon (crash/rejoin, flaky host, stuck sensor,
/// burst loss, common cause, partition, wear-out, vote adversary).
pub fn steer_scenario(seed: u64, horizon: u64) -> String {
    let mut r = rng(seed, 0x57EE);
    let mut s = String::from("scn v2\n");
    let (c, j) = window(&mut r, horizon, 0.10, 0.15);
    let _ = writeln!(s, "crash host=ecu_b at={c}\nrejoin host=ecu_b at={j}");
    let (f, u) = window(&mut r, horizon, 0.20, 0.30);
    let _ = writeln!(s, "flaky host=gateway from={f} until={u} up=0.95");
    let (f, u) = window(&mut r, horizon, 0.22, 0.26);
    let _ = writeln!(s, "stuck comm=speed from={f} until={u}");
    let (f, u) = window(&mut r, horizon, 0.35, 0.45);
    let _ = writeln!(s, "burst from={f} until={u} enter=0.02 exit=0.5 loss=0.8");
    let (f, u) = window(&mut r, horizon, 0.50, 0.60);
    let _ = writeln!(s, "common hosts=ecu_a,ecu_b from={f} until={u} p=0.01");
    let (f, u) = window(&mut r, horizon, 0.62, 0.68);
    let _ = writeln!(s, "partition hosts=gateway from={f} until={u}");
    let (f, u) = window(&mut r, horizon, 0.70, 0.90);
    let _ = writeln!(
        s,
        "wearout host=ecu_a from={f} until={u} shape=2 scale={}",
        horizon / 5
    );
    let (f, u) = window(&mut r, horizon, 0.92, 0.97);
    let _ = writeln!(s, "adversary from={f} until={u} hold=3");
    s
}

/// The three-tank soak scenario: two crash/rejoin outages and a Weibull
/// wear-out window, the long-run faults the soak horizon averages over.
pub fn three_tank_scenario(seed: u64, horizon: u64) -> String {
    let mut r = rng(seed, 0x3755);
    let mut s = String::from("scn v2\n");
    let (c, j) = window(&mut r, horizon, 0.20, 0.30);
    let _ = writeln!(s, "crash host=h1 at={c}\nrejoin host=h1 at={j}");
    let (c, j) = window(&mut r, horizon, 0.50, 0.55);
    let _ = writeln!(s, "crash host=h3 at={c}\nrejoin host=h3 at={j}");
    let (f, u) = window(&mut r, horizon, 0.60, 0.90);
    let _ = writeln!(
        s,
        "wearout host=h2 from={f} until={u} shape=2 scale={}",
        horizon / 3
    );
    s
}

/// The generated spec's scenario for cold jobs: one crash/rejoin outage.
pub fn generated_scenario(seed: u64, horizon: u64) -> String {
    let mut r = rng(seed, 0x6E5C);
    let (c, j) = window(&mut r, horizon, 0.30, 0.50);
    format!("scn v2\ncrash host=h1 at={c}\nrejoin host=h1 at={j}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_touch_only_sites_and_walk_within_the_value_sets() {
        let src = generated_spec(3);
        let mut e = EditableSpec::new(&src, true);
        assert_eq!(e.source(), src);
        // wcet + host + lrc + map sites of the generated spec.
        assert_eq!(e.site_count(), 36 + 3 + 4 + 12);
        let mut r = rng(1, 1);
        for turn in 0..50 {
            let before = e.source();
            e.edit(&mut r, turn);
            assert_ne!(e.source(), before);
        }
    }

    #[test]
    fn shipped_specs_have_wcet_lrc_and_host_sites() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let steer = std::fs::read_to_string(root.join("assets/steer_by_wire.htl")).unwrap();
        let e = EditableSpec::new(&steer, false);
        // 7 wcet rows, 2 LRCs, 3 hosts.
        assert_eq!(e.site_count(), 12);
    }
}
