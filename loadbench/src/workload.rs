//! The four workloads: their seeded inputs, their set-up, and the
//! closed-loop timed phase that drives the program through its public
//! surfaces (`Engine::submit`, the `logrel-job-v1` TCP protocol, and
//! `analyze_source`/`save`/`load`).

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

use logrel_lang::FnvWriter;
use logrel_obs::{names, NoopSink};
use logrel_query::{analyze_source, LoadOutcome, QueryDb};
use logrel_serve::proto::{self, Json};
use logrel_serve::{Engine, Job, ServeConfig, Server};
use logrel_sim::LaneMode;
use rand::Rng;

use crate::gen::{self, EditableSpec};
use crate::replay::{job_line, OpInput, RECORDER};

/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] = [
    "campaign_steer",
    "campaign_soak",
    "serve_mixed",
    "edit_certify",
];

/// Settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    /// Tiny inputs, for the test suite.
    pub smoke: bool,
    /// Keep every op's input and output for the traced replay.
    pub keep: bool,
}

/// Whether an op reused a compiled spec or analysis (hot), compiled or
/// analysed from scratch (cold), or is an incremental edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
    Edit,
}

/// One completed op.
#[derive(Debug, Clone)]
pub struct Record {
    pub client: u32,
    pub index: u64,
    pub kind: Kind,
    pub latency_s: f64,
    pub ok: bool,
    /// Digest of the op's result counters (jobs) or analysis output
    /// (edits).
    pub digest: u64,
    /// Bytes of the op's metrics line.
    pub out_bytes: u64,
    pub input: Option<OpInput>,
    pub output: Option<String>,
}

/// Everything the timed phase observed.
pub struct Served {
    /// Duration of each repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// Cold ops outside the timed phase: set-up warm-ups and the edit
    /// workload's cold re-analyses.
    pub cold: Vec<Record>,
    /// The timed ops.
    pub records: Vec<Record>,
    /// Oracle failures that are not tied to one op's `ok` flag.
    pub errors: Vec<String>,
    /// Engine cache hits, misses and rejections, where an engine ran.
    pub serve_counters: Option<(u64, u64, u64)>,
    /// Digest over the first `digest_ops` ops of each client.
    pub digest: u64,
    /// What the traced replay needs to reproduce the op stream.
    pub replay: ReplayPlan,
}

/// Inputs of the traced replay besides the recorded ops.
pub struct ReplayPlan {
    /// Specs the engine compiled during set-up (source, label).
    pub warm: Vec<(String, String)>,
    /// Base specs of the edit workload (source, label, cache path).
    pub edit_specs: Vec<(String, String, String)>,
    /// A job on the workload's cold-path spec, for the stage probe.
    pub probe_job: Job,
    /// Lanes of the probe's plain-kernel run: the workload's unit width.
    pub kernel_width: usize,
    /// Replay a seeded sample of the ops rather than all of them.
    pub sample_ops: bool,
    /// Ops the replay covers however long it takes (the digest's ops).
    pub min_replay: usize,
}

/// Scratch files of one run, removed when it ends.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(out: &Path) -> std::io::Result<Self> {
        let dir = out.join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The repository root (the benchmark reads the shipped specs there).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// A shipped file's text, labelled by its repository-relative path so
/// rendered diagnostics do not depend on where the checkout lives.
fn read(rel: &str) -> Result<(String, String), String> {
    std::fs::read_to_string(repo_root().join(rel))
        .map(|s| (s, rel.to_owned()))
        .map_err(|e| format!("{rel}: {e}"))
}

fn engine_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 16,
        recorder_capacity: RECORDER,
        cache_path: None,
    }
}

fn setup_reps(p: &Params) -> usize {
    if p.smoke {
        2
    } else {
        7
    }
}

/// Rounds of the stage probe's units and kernel run.
fn probe_rounds(p: &Params) -> u64 {
    if p.smoke {
        50
    } else {
        2_000
    }
}

/// The generated spec; two layers deep at smoke size, where a debug
/// build would take seconds to certify three.
fn gen_spec(p: &Params) -> String {
    if p.smoke {
        gen::layered_spec(p.seed, 2, gen::GEN_WIDTH)
    } else {
        gen::generated_spec(p.seed)
    }
}

fn digest_ops(p: &Params, full: u64, smoke: u64) -> u64 {
    if p.smoke {
        smoke
    } else {
        full
    }
}

/// The result counters a metrics line is checked and digested on.
const DIGEST_COUNTERS: [&str; 11] = [
    names::ROUNDS,
    names::UPDATES,
    names::UPDATES_UNRELIABLE,
    names::REPLICA_OK,
    names::REPLICA_DROP,
    names::VOTE_UNANIMOUS,
    names::VOTE_MAJORITY,
    names::VOTE_TIE,
    names::VOTE_SILENT,
    names::ALARM_RAISED,
    names::ALARM_CLEARED,
];

/// The digest counters of a `logrel-metrics-v1` line, in
/// `DIGEST_COUNTERS` order (absent counters read 0).
fn counters(line: &str) -> Result<Vec<u64>, String> {
    let key = "\"counters\":";
    let start = line.find(key).ok_or("metrics line has no counters")? + key.len();
    let end = start + line[start..].find('}').ok_or("unterminated counters")? + 1;
    let doc = proto::parse_json(&line[start..end])?;
    Ok(DIGEST_COUNTERS
        .iter()
        .map(|name| doc.get(name).and_then(Json::as_u64).unwrap_or(0))
        .collect())
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = FnvWriter::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Checks a job's metrics line (every replication ran every round) and
/// returns its counter digest.
fn check_line(line: &str, job_rep_rounds: u64) -> Result<u64, String> {
    let c = counters(line)?;
    if c[0] != job_rep_rounds {
        return Err(format!(
            "{} rounds simulated, expected {job_rep_rounds}",
            c[0]
        ));
    }
    let text: Vec<String> = DIGEST_COUNTERS
        .iter()
        .zip(&c)
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    Ok(fnv(text.join(";").as_bytes()))
}

fn digest_of(records: &[Record], per_client: u64) -> u64 {
    let mut h = FnvWriter::new();
    for r in records.iter().filter(|r| r.index < per_client) {
        h.write_bytes(&r.client.to_le_bytes());
        h.write_bytes(&r.index.to_le_bytes());
        h.write_bytes(&r.digest.to_le_bytes());
    }
    h.finish()
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let kb: u64 = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0);
    kb as f64 / 1024.0
}

/// Keeps going until the phase is at least `seconds` long and every
/// client has issued `min_ops` ops (the digest needs them).
fn more(clock: f64, p: &Params, done: u64, min_ops: u64) -> bool {
    done < min_ops || clock < p.seconds
}

/// Set-up repetitions spread over the timed phase, for the single-caller
/// workloads. The host's memory speed drifts over seconds, so set-ups
/// run back to back would all time the same moment. The first set-up
/// precedes the timed phase; the rest run in pauses of its clock.
struct SpacedSetups {
    done: usize,
    total: usize,
    seconds: f64,
}

impl SpacedSetups {
    fn new(p: &Params) -> Self {
        SpacedSetups {
            done: 1,
            total: setup_reps(p),
            seconds: p.seconds,
        }
    }

    /// Whether another repetition is due `clock` seconds into the timed
    /// phase (with `finished`, whether one is still left).
    fn due(&mut self, clock: f64, finished: bool) -> bool {
        let at = self.seconds * self.done as f64 / self.total as f64;
        let due = self.done < self.total && (finished || clock >= at);
        self.done += usize::from(due);
        due
    }
}

/// (rounds, replications) of a set-up's warm-up job: enough to compile
/// the spec and answer once, and small enough that the set-up time is
/// the compile path's, not a campaign's. (A full-size warm-up on each
/// set-up's fresh engine would leave that engine's worker threads' heap
/// arenas behind and inflate `peak_rss_mb`.)
const WARM_UP: (u64, u64) = (10, 1);

struct CampaignShape {
    asset: &'static str,
    scenario: fn(u64, u64) -> String,
    round_ticks: u64,
    rounds: u64,
    replications: u64,
    lanes: LaneMode,
    digest_ops: u64,
}

/// `campaign_steer` and `campaign_soak`: one closed-loop caller
/// submitting same-sized jobs to the engine, the spec compiled once
/// during set-up.
fn campaign(p: &Params, shape: &CampaignShape) -> Result<Served, String> {
    let (spec, label) = read(shape.asset)?;
    let scenario = (shape.scenario)(p.seed, shape.rounds * shape.round_ticks);
    let job = |rounds, replications, seed| Job {
        spec_source: spec.clone(),
        spec_label: label.clone(),
        scenario_source: scenario.clone(),
        rounds,
        replications,
        seed,
        lanes: shape.lanes,
    };
    let mut seeds = gen::rng(p.seed, 0xCA4B);
    let mut setup_s = Vec::new();
    let mut cold = Vec::new();
    // One set-up: a fresh engine compiles the spec through a warm-up job.
    let mut set_up = |setup_s: &mut Vec<f64>| -> Result<Engine, String> {
        let i = setup_s.len() as u64;
        let warm = job(WARM_UP.0, WARM_UP.1, i);
        let t0 = Instant::now();
        let e = Engine::new(engine_config());
        let out = e.submit(&warm);
        let latency_s = t0.elapsed().as_secs_f64();
        setup_s.push(latency_s);
        let out = out.map_err(|e| format!("warm-up job rejected: {e}"))?;
        if out.cache_hit {
            return Err("warm-up job hit the compile cache of a fresh engine".to_owned());
        }
        let warm_rep_rounds = WARM_UP.0 * WARM_UP.1;
        cold.push(Record {
            client: 0,
            index: i,
            kind: Kind::Cold,
            latency_s,
            ok: true,
            digest: check_line(&out.metrics_line, warm_rep_rounds)?,
            out_bytes: out.metrics_line.len() as u64,
            input: None,
            output: None,
        });
        Ok(e)
    };
    let engine = set_up(&mut setup_s)?;
    let mut spaced = SpacedSetups::new(p);
    let mut records = Vec::new();
    let mut errors = Vec::new();
    let rep_rounds = shape.rounds * shape.replications;
    let start = Instant::now();
    let mut untimed_s = 0.0;
    loop {
        let clock = start.elapsed().as_secs_f64() - untimed_s;
        let go = more(clock, p, records.len() as u64, shape.digest_ops);
        if spaced.due(clock, !go) {
            let t0 = Instant::now();
            set_up(&mut setup_s)?.shutdown();
            untimed_s += t0.elapsed().as_secs_f64();
            continue;
        }
        if !go {
            break;
        }
        let j = job(shape.rounds, shape.replications, seeds.gen());
        let t0 = Instant::now();
        let out = engine.submit(&j);
        let latency_s = t0.elapsed().as_secs_f64();
        let (ok, digest, line) = match out {
            Ok(out) => match check_line(&out.metrics_line, rep_rounds) {
                Ok(d) if out.cache_hit => (true, d, out.metrics_line),
                Ok(d) => {
                    errors.push("timed job missed the compile cache".to_owned());
                    (false, d, out.metrics_line)
                }
                Err(e) => {
                    errors.push(e);
                    (false, 0, out.metrics_line)
                }
            },
            Err(e) => {
                errors.push(format!("job rejected: {e}"));
                (false, 0, String::new())
            }
        };
        records.push(Record {
            client: 0,
            index: records.len() as u64,
            kind: Kind::Hot,
            latency_s,
            ok,
            digest,
            out_bytes: line.len() as u64,
            input: p.keep.then_some(OpInput::Job(j)),
            output: p.keep.then_some(line),
        });
    }
    let serve_counters = Some((
        engine.counter(names::SERVE_CACHE_HITS),
        engine.counter(names::SERVE_CACHE_MISSES),
        engine.counter(names::SERVE_JOBS_REJECTED),
    ));
    engine.shutdown();
    let digest = digest_of(&records, shape.digest_ops);
    // The probe's kernel and units run as long as the timed jobs, so
    // `sim.kernel_share` compares like with like (capped: a 64-wide soak
    // unit of the full horizon would keep 64 lanes of traces).
    let probe_job = job(shape.rounds.min(probe_rounds(p)), shape.replications, 7);
    Ok(Served {
        setup_s,
        cold,
        records,
        errors,
        serve_counters,
        digest,
        replay: ReplayPlan {
            warm: vec![(spec.clone(), label.clone())],
            edit_specs: Vec::new(),
            probe_job,
            kernel_width: shape.lanes.width(),
            sample_ops: false,
            min_replay: shape.digest_ops as usize,
        },
    })
}

/// `campaign_steer`: steer-by-wire, 256 replications in 64-lane units,
/// under a scenario using every event kind. Jobs of 300 rounds give a
/// 20 s run 125–175 of them: a steady median, and a 90th percentile
/// with ten or more samples beyond it.
pub fn campaign_steer(p: &Params) -> Result<Served, String> {
    campaign(
        p,
        &CampaignShape {
            asset: "assets/steer_by_wire.htl",
            scenario: gen::steer_scenario,
            round_ticks: 50,
            rounds: if p.smoke { 200 } else { 300 },
            replications: if p.smoke { 70 } else { 256 },
            lanes: LaneMode::Auto,
            digest_ops: digest_ops(p, 2, 2),
        },
    )
}

/// `campaign_soak`: three-tank, 2 scalar replications of a long horizon
/// under crash/rejoin outages and wear-out. 40 000 rounds give the
/// same sample counts as `campaign_steer`.
pub fn campaign_soak(p: &Params) -> Result<Served, String> {
    campaign(
        p,
        &CampaignShape {
            asset: "assets/three_tank.htl",
            scenario: gen::three_tank_scenario,
            round_ticks: 500,
            rounds: if p.smoke { 2_000 } else { 40_000 },
            replications: 2,
            lanes: LaneMode::Off,
            digest_ops: digest_ops(p, 2, 2),
        },
    )
}

/// One loopback connection speaking `logrel-job-v1`.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { reader, writer })
    }

    /// Sends one request and returns (metrics line if any, status line).
    fn call(&mut self, line: &str) -> Result<(Option<String>, String), String> {
        writeln!(self.writer, "{line}").map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let mut first = String::new();
        self.reader
            .read_line(&mut first)
            .map_err(|e| e.to_string())?;
        if first.contains("\"schema\":\"logrel-job-status-v1\"") {
            return Ok((None, first.trim_end().to_owned()));
        }
        let mut status = String::new();
        self.reader
            .read_line(&mut status)
            .map_err(|e| e.to_string())?;
        first.truncate(first.trim_end().len());
        Ok((Some(first), status.trim_end().to_owned()))
    }
}

/// A `serve_mixed` op: a request line and what it should do.
struct MixedOp {
    line: String,
    kind: Kind,
    rep_rounds: u64,
}

/// (rounds, replications) of `serve_mixed` jobs: hot jobs run 16
/// replications of 500 rounds on a shipped spec, cold jobs 4 of 200 on
/// an edited generated spec.
struct MixedSizes {
    hot: (u64, u64),
    cold: (u64, u64),
}

fn mixed_sizes(p: &Params) -> MixedSizes {
    if p.smoke {
        MixedSizes {
            hot: (100, 16),
            cold: (50, 4),
        }
    } else {
        MixedSizes {
            hot: (500, 16),
            cold: (200, 4),
        }
    }
}

/// One `serve_mixed` client's op generator: every tenth op is a cold job
/// on the client's own random walk of edits to the generated spec,
/// inline; the others are hot jobs on a random shipped spec and
/// scenario, by path. A fixed cadence keeps the mix the same in every
/// run.
struct MixedGen {
    rng: rand::rngs::StdRng,
    sizes: MixedSizes,
    client: u32,
    hot: Vec<(String, String)>,
    walk: EditableSpec,
    cold_scenario: String,
}

impl MixedGen {
    fn next(&mut self, k: u64) -> MixedOp {
        let (hot, cold) = (self.sizes.hot, self.sizes.cold);
        let seed: u64 = self.rng.gen();
        let id = format!("c{}-{k}", self.client);
        if k % 10 == 9 {
            self.walk.edit(&mut self.rng, (k / 10) as usize);
            // The tag keeps every cold job's source distinct, so each one
            // really misses the compile cache.
            let spec_source = format!("{}// job {id}\n", self.walk.source());
            let job = Job {
                spec_source,
                spec_label: "<inline>".to_owned(),
                scenario_source: self.cold_scenario.clone(),
                rounds: cold.0,
                replications: cold.1,
                seed,
                lanes: LaneMode::Auto,
            };
            return MixedOp {
                line: job_line(&id, &job),
                kind: Kind::Cold,
                rep_rounds: cold.0 * cold.1,
            };
        }
        let (spec, scenario) = &self.hot[self.rng.gen_range(0..self.hot.len())];
        let line = format!(
            "{{\"schema\":\"logrel-job-v1\",\"id\":\"{id}\",\"spec_path\":\"{}\",\"scenario_path\":\"{}\",\"rounds\":{},\"replications\":{},\"seed\":{seed},\"lanes\":\"auto\"}}",
            proto::escape(spec),
            proto::escape(scenario),
            hot.0,
            hot.1,
        );
        MixedOp {
            line,
            kind: Kind::Hot,
            rep_rounds: hot.0 * hot.1,
        }
    }
}

/// Runs one op over `client` and checks its status and counters.
fn mixed_call(client: &mut Client, op: &MixedOp) -> (f64, Result<(u64, String), String>) {
    let t0 = Instant::now();
    let reply = client.call(&op.line);
    let latency_s = t0.elapsed().as_secs_f64();
    let checked = reply.and_then(|(metrics, status)| {
        let doc = proto::parse_json(&status)?;
        if doc.get("status").and_then(Json::as_str) != Some("done") {
            return Err(format!("job rejected: {status}"));
        }
        let want = if op.kind == Kind::Hot { "hit" } else { "miss" };
        if doc.get("cache").and_then(Json::as_str) != Some(want) {
            return Err(format!("expected a cache {want}: {status}"));
        }
        let line = metrics.ok_or("no metrics line")?;
        Ok((check_line(&line, op.rep_rounds)?, line))
    });
    (latency_s, checked)
}

fn hot_pairs(work: &WorkDir, p: &Params, rounds: u64) -> Result<Vec<(String, String)>, String> {
    let root = repo_root();
    let path = |rel: &str| root.join(rel).to_string_lossy().into_owned();
    let steer_scn = work.path("steer_hot.scn");
    let tank_scn = work.path("three_tank_hot.scn");
    std::fs::write(&steer_scn, gen::steer_scenario(p.seed, rounds * 50))
        .map_err(|e| e.to_string())?;
    std::fs::write(&tank_scn, gen::three_tank_scenario(p.seed, rounds * 500))
        .map_err(|e| e.to_string())?;
    let (steer, tank, pump) = (
        path("assets/steer_by_wire.htl"),
        path("assets/three_tank.htl"),
        path("examples/htl/infusion_pump.htl"),
    );
    Ok(vec![
        (steer.clone(), steer_scn),
        (steer, path("examples/scenarios/steer_monitor_miss.scn")),
        (tank, tank_scn),
        (pump.clone(), path("examples/scenarios/pump_outage.scn")),
        (pump.clone(), path("examples/scenarios/partition.scn")),
        (pump, path("examples/scenarios/wearout.scn")),
    ])
}

/// `serve_mixed`: two closed-loop clients, one loopback connection
/// each, sending 90% hot jobs and 10% cold jobs to `htlc serve`'s TCP
/// frontend.
pub fn serve_mixed(p: &Params, work: &WorkDir) -> Result<Served, String> {
    let sizes = mixed_sizes(p);
    let hot = hot_pairs(work, p, sizes.hot.0)?;
    let gen_spec = gen_spec(p);
    let cold_scenario = gen::generated_scenario(p.seed, sizes.cold.0 * 400);
    let mut setup_s = Vec::new();
    let mut cold = Vec::new();
    let mut running: Option<(Server, Vec<Client>)> = None;
    for i in 0..setup_reps(p) {
        if let Some((server, clients)) = running.take() {
            drop(clients);
            server.shutdown();
        }
        let t0 = Instant::now();
        let server = Server::start(Engine::new(engine_config()), "127.0.0.1:0")
            .map_err(|e| e.to_string())?;
        let mut clients = vec![
            Client::connect(server.local_addr())?,
            Client::connect(server.local_addr())?,
        ];
        // One warm-up job per shipped spec compiles each of them.
        let mut warmups = Vec::new();
        for (n, pair) in [&hot[0], &hot[2], &hot[3]].into_iter().enumerate() {
            let line = format!(
                "{{\"schema\":\"logrel-job-v1\",\"id\":\"warm-{n}\",\"spec_path\":\"{}\",\"scenario_path\":\"{}\",\"rounds\":{},\"replications\":{},\"seed\":{i}}}",
                proto::escape(&pair.0),
                proto::escape(&pair.1),
                WARM_UP.0,
                WARM_UP.1,
            );
            let op = MixedOp {
                line,
                kind: Kind::Cold,
                rep_rounds: WARM_UP.0 * WARM_UP.1,
            };
            warmups.push(mixed_call(&mut clients[0], &op));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        for (n, (latency_s, checked)) in warmups.into_iter().enumerate() {
            let (digest, line) = checked.map_err(|e| format!("warm-up job: {e}"))?;
            cold.push(Record {
                client: 0,
                index: (i * 3 + n) as u64,
                kind: Kind::Cold,
                latency_s,
                ok: true,
                digest,
                out_bytes: line.len() as u64,
                input: None,
                output: None,
            });
        }
        running = Some((server, clients));
    }
    let (server, clients) = running.expect("at least one set-up");
    let min_ops = digest_ops(p, 16, 10);
    let start = Instant::now();
    type Ops = Vec<(Record, Option<String>)>;
    let per_client: Vec<Result<Ops, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let mut g = MixedGen {
                    rng: gen::rng(p.seed, 0x5E4E + c as u64),
                    sizes: mixed_sizes(p),
                    client: c as u32,
                    hot: hot.clone(),
                    walk: EditableSpec::new(&gen_spec, true),
                    cold_scenario: cold_scenario.clone(),
                };
                scope.spawn(move || {
                    let mut records = Vec::new();
                    while more(
                        start.elapsed().as_secs_f64(),
                        p,
                        records.len() as u64,
                        min_ops,
                    ) {
                        let k = records.len() as u64;
                        let op = g.next(k);
                        let (latency_s, checked) = mixed_call(&mut client, &op);
                        let (ok, digest, line, err) = match checked {
                            Ok((d, line)) => (true, d, line, None),
                            Err(e) => (false, 0, String::new(), Some(e)),
                        };
                        records.push((
                            Record {
                                client: c as u32,
                                index: k,
                                kind: op.kind,
                                latency_s,
                                ok,
                                digest,
                                out_bytes: line.len() as u64,
                                input: p.keep.then_some(OpInput::Line(op.line)),
                                output: p.keep.then_some(line),
                            },
                            err,
                        ));
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned()))
            .collect()
    });
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for ops in per_client {
        for (record, err) in ops? {
            errors.extend(err.map(|e| format!("op c{}-{}: {e}", record.client, record.index)));
            records.push(record);
        }
    }
    let engine = server.engine();
    let serve_counters = Some((
        engine.counter(names::SERVE_CACHE_HITS),
        engine.counter(names::SERVE_CACHE_MISSES),
        engine.counter(names::SERVE_JOBS_REJECTED),
    ));
    server.shutdown();
    let digest = digest_of(&records, min_ops);
    let probe_job = Job {
        spec_source: gen_spec.clone(),
        spec_label: "<inline>".to_owned(),
        scenario_source: cold_scenario,
        rounds: probe_rounds(p),
        replications: sizes.cold.1,
        seed: 7,
        lanes: LaneMode::Auto,
    };
    let mut warm = Vec::new();
    for pair in [&hot[0], &hot[2], &hot[3]] {
        let text = std::fs::read_to_string(&pair.0).map_err(|e| e.to_string())?;
        warm.push((text, pair.0.clone()));
    }
    Ok(Served {
        setup_s,
        cold,
        records,
        errors,
        serve_counters,
        digest,
        replay: ReplayPlan {
            warm,
            edit_specs: Vec::new(),
            probe_job,
            kernel_width: 64,
            sample_ops: true,
            min_replay: 0,
        },
    })
}

/// Analysis output as one string: stdout, a NUL, stderr.
pub fn analysis_text(stdout: &str, stderr: &str) -> String {
    format!("{stdout}\0{stderr}")
}

/// `edit_certify`: one developer editing four specs. Each op is one
/// seeded edit, a warm analysis against that spec's previous db, and a
/// `.logrel-cache` save — `htlc certify --incremental`'s path.
pub fn edit_certify(p: &Params, work: &WorkDir) -> Result<Served, String> {
    let mut specs = Vec::new();
    for rel in [
        "assets/steer_by_wire.htl",
        "assets/three_tank.htl",
        "examples/htl/infusion_pump.htl",
    ] {
        specs.push(read(rel)?);
    }
    specs.push((gen_spec(p), "gen.htl".to_owned()));
    let caches: Vec<String> = (0..specs.len())
        .map(|i| work.path(&format!("spec{i}.logrel-cache")))
        .collect();
    // One set-up: cold analysis, first save and a load back of each spec.
    let set_up = |caches: &[String]| -> Result<(Vec<QueryDb>, f64), String> {
        let t0 = Instant::now();
        let mut dbs = Vec::new();
        for ((source, label), cache) in specs.iter().zip(caches) {
            let out = analyze_source(source, label, None, &mut NoopSink);
            if out.errors > 0 {
                return Err(format!(
                    "{label}: {} analysis error(s):\n{}",
                    out.errors, out.stderr
                ));
            }
            let db = out.db.ok_or("analysis produced no db")?;
            logrel_query::save(&db, cache).map_err(|e| format!("{cache}: {e}"))?;
            match logrel_query::load(cache) {
                LoadOutcome::Loaded(db) => dbs.push(*db),
                _ => return Err(format!("{cache}: saved cache does not load")),
            }
        }
        Ok((dbs, t0.elapsed().as_secs_f64()))
    };
    let (mut dbs, first_s) = set_up(&caches)?;
    let mut setup_s = vec![first_s];
    let spare: Vec<String> = (0..specs.len())
        .map(|i| work.path(&format!("setup{i}.logrel-cache")))
        .collect();
    let mut spaced = SpacedSetups::new(p);
    let mut walks: Vec<EditableSpec> = specs
        .iter()
        .enumerate()
        .map(|(i, (s, _))| EditableSpec::new(s, i == 3))
        .collect();
    let mut r = gen::rng(p.seed, 0xED17);
    let min_ops = digest_ops(p, 64, 16);
    let mut records = Vec::new();
    let mut cold = Vec::new();
    let mut errors = Vec::new();
    let mut untimed_s = 0.0;
    let start = Instant::now();
    loop {
        let clock = start.elapsed().as_secs_f64() - untimed_s;
        let go = more(clock, p, records.len() as u64, min_ops);
        if spaced.due(clock, !go) {
            let (_, secs) = set_up(&spare)?;
            setup_s.push(secs);
            untimed_s += secs;
            continue;
        }
        if !go {
            break;
        }
        // The specs take turns, and each spec's edits rotate through its
        // edit kinds, so every run has the same mix of edits.
        let k = records.len() as u64;
        let i = k as usize % specs.len();
        walks[i].edit(&mut r, k as usize / specs.len());
        let source = walks[i].source();
        let label = &specs[i].1;
        let t0 = Instant::now();
        let out = analyze_source(&source, label, Some(&dbs[i]), &mut NoopSink);
        let saved = out.db.as_ref().map(|db| logrel_query::save(db, &caches[i]));
        let latency_s = t0.elapsed().as_secs_f64();
        let mut ok = matches!(saved, Some(Ok(())));
        if !ok {
            errors.push(format!("edit {k}: cache save failed"));
        }
        let text = analysis_text(&out.stdout, &out.stderr);
        if k as usize / specs.len() % 8 == 7 {
            // Warm ≡ cold on every 8th edit of each spec, off the clock.
            let t1 = Instant::now();
            let fresh = analyze_source(&source, label, None, &mut NoopSink);
            let cold_s = t1.elapsed().as_secs_f64();
            let same =
                analysis_text(&fresh.stdout, &fresh.stderr) == text && fresh.errors == out.errors;
            if !same {
                ok = false;
                errors.push(format!("edit {k}: warm analysis differs from cold"));
            }
            cold.push(Record {
                client: 0,
                index: k,
                kind: Kind::Cold,
                latency_s: cold_s,
                ok: same,
                digest: 0,
                out_bytes: 0,
                input: None,
                output: None,
            });
            untimed_s += t1.elapsed().as_secs_f64();
        }
        if let Some(db) = out.db {
            dbs[i] = db;
        }
        records.push(Record {
            client: 0,
            index: k,
            kind: Kind::Edit,
            latency_s,
            ok,
            digest: fnv(text.as_bytes()),
            out_bytes: text.len() as u64,
            input: p.keep.then_some(OpInput::Edit { spec: i, source }),
            output: p.keep.then_some(text),
        });
    }
    let digest = digest_of(&records, min_ops);
    let probe_job = Job {
        spec_source: specs[3].0.clone(),
        spec_label: specs[3].1.clone(),
        scenario_source: gen::generated_scenario(p.seed, probe_rounds(p) * 400),
        rounds: probe_rounds(p),
        replications: 1,
        seed: 7,
        lanes: LaneMode::Auto,
    };
    let edit_specs = specs
        .into_iter()
        .zip(caches)
        .map(|((s, l), c)| (s, l, c))
        .collect();
    Ok(Served {
        setup_s,
        cold,
        records,
        errors,
        serve_counters: None,
        digest,
        replay: ReplayPlan {
            warm: Vec::new(),
            edit_specs,
            probe_job,
            kernel_width: 64,
            sample_ops: false,
            min_replay: min_ops as usize,
        },
    })
}
