//! The campaign engine: compilation cache, admission control, and the
//! work-stealing replication pool.
//!
//! # Compilation cache
//!
//! Jobs are keyed by the FNV-1a hash of the spec source. A miss runs the
//! front half once — incremental analysis ([`analyze_source`],
//! warm-started from the service's [`SharedDb`] so a *resubmitted edited
//! spec* reuses the refinement relation) parses and elaborates the spec,
//! and [`CompiledSpec::new`] builds the self-certified round program on
//! the system that analysis elaborated — and caches the result behind an
//! `Arc`. A job's result is its registry, so the engine computes no
//! analytic SRGs (the analysis has already reported them). A hit shares
//! everything; the only per-job work left is the Monte-Carlo campaign
//! itself. Compiles are single-flight per hash: the cache map lock is
//! held only to find or insert a spec's slot, and the compile runs under
//! that slot's own lock. Concurrent submissions of the same new spec
//! therefore compile it exactly once, while jobs on other specs — cache
//! hits included — never wait for it. A failed compile leaves no entry, so errors are
//! never cached.
//!
//! The cache is bounded: each compiled entry is charged an estimate of
//! the memory it keeps alive ([`entry_bytes`]), and once the entries
//! together exceed [`COMPILE_CACHE_BYTES`] the least recently used ones
//! are dropped (counted in `logrel_serve_cache_evictions_total`). A job
//! already running on an evicted spec keeps its `Arc`; the next job on
//! that spec compiles it again, to the same bytes.
//!
//! # Determinism
//!
//! A job is a [`pipeline`](crate::pipeline) campaign, driven by the
//! library's [`Campaign`](logrel_sim::Campaign): [`Plan::new`] shards the
//! replications into units, the units are scattered over the worker
//! pool, and their results land in per-job slots indexed by unit for
//! [`Plan::finish`] to merge in unit (= replication) order. The queue
//! holds one entry per admitted job with a cursor to its next unit, and
//! workers take units round-robin across jobs, so a one-unit job admitted
//! behind a long one waits for at most one unit of each job ahead of it,
//! not for all of their units. Seeds
//! derive from `(base_seed, replication)`, never from a worker id, so the
//! exported registry is **byte-identical at any worker count**. `htlc
//! inject` runs the same [`Plan`] on one thread per core, so a job's
//! export equals the standalone one up to the wall-clock `*_seconds`
//! span gauges, which a service job never records.
//!
//! # Backpressure and shutdown
//!
//! Admission is a bounded counter of in-flight jobs: the
//! `queue_capacity`-th concurrent submission is rejected with a
//! structured `S002` line instead of queueing unboundedly. Shutdown
//! flips `accepting` (new submissions get `S005`), drains in-flight
//! jobs, then stops the workers.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use logrel_core::fnv1a;
use logrel_obs::export::to_json_line;
use logrel_obs::{names, MetricsSink, NoopSink, Registry};
use logrel_query::{analyze_source, LoadOutcome, QueryDb, SharedDb};
use logrel_sim::{LaneMode, RepSink, Scenario, UnitResult};

use crate::pipeline::{campaign_config, CompiledSpec, Plan, Symbols};
use crate::proto::{self, JobError};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Maximum concurrently admitted jobs (queued or running). The next
    /// submission is rejected with `S002`.
    pub queue_capacity: usize,
    /// Flight-recorder capacity for job registries (0 disables); the
    /// default matches `htlc inject`'s ring of 256.
    pub recorder_capacity: usize,
    /// Optional `.logrel-cache` path: loaded at startup to warm the
    /// analysis db, atomically rewritten after each compile.
    pub cache_path: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_capacity: 16,
            recorder_capacity: 256,
            cache_path: None,
        }
    }
}

/// A job with its spec and scenario text already resolved.
#[derive(Debug, Clone)]
pub struct Job {
    /// Spec source text.
    pub spec_source: String,
    /// Label used in compile diagnostics (a path, or `<inline>`).
    pub spec_label: String,
    /// Scenario script text.
    pub scenario_source: String,
    /// Rounds per replication.
    pub rounds: u64,
    /// Replication count.
    pub replications: u64,
    /// Campaign base seed.
    pub seed: u64,
    /// Lane mode.
    pub lanes: LaneMode,
}

/// A successfully completed job.
#[derive(Debug)]
pub struct JobOutcome {
    /// The `logrel-metrics-v1` registry as one compact JSON line.
    pub metrics_line: String,
    /// Whether the spec came out of the compilation cache.
    pub cache_hit: bool,
}

/// One unit of pool work: run `job.plan.units()[unit_index]`.
struct WorkItem {
    job: Arc<JobState>,
    unit_index: usize,
}

/// Per-unit results are strings on the error side so a worker panic can
/// be reported without widening [`logrel_sim::CampaignError`].
type SlotResult = UnitResult<Registry, String>;

struct SlotBoard {
    results: Vec<Option<SlotResult>>,
    remaining: usize,
}

struct JobState {
    plan: Plan,
    slots: Mutex<SlotBoard>,
    done_cv: Condvar,
}

/// An admitted job in the work queue, with the index of its next unit.
struct QueuedJob {
    job: Arc<JobState>,
    next_unit: usize,
}

struct WorkQueue {
    jobs: VecDeque<QueuedJob>,
    stop: bool,
}

impl WorkQueue {
    /// The next unit of the job at the front; the job goes to the back
    /// while it has units left, so jobs take turns unit by unit.
    fn take(&mut self) -> Option<WorkItem> {
        let mut queued = self.jobs.pop_front()?;
        let item = WorkItem {
            job: Arc::clone(&queued.job),
            unit_index: queued.next_unit,
        };
        queued.next_unit += 1;
        if queued.next_unit < queued.job.plan.units().len() {
            self.jobs.push_back(queued);
        }
        Some(item)
    }
}

/// One spec's cache entry: empty while its first compile runs (or after
/// it failed), then the shared compiled form.
type CacheSlot = Arc<Mutex<Option<Arc<CompiledSpec>>>>;

/// The byte budget of the compilation cache, as charged by
/// [`entry_bytes`]: about 30 compiled specs of the size of
/// `assets/steer_by_wire.htl` (4.3 KB each).
pub const COMPILE_CACHE_BYTES: usize = 128 << 10;

/// The memory a compiled spec is charged in the cache: its source text
/// (the parsed and elaborated forms it keeps grow with it) plus its round
/// program's tables.
#[must_use]
pub fn entry_bytes(source: &str, compiled: &CompiledSpec) -> usize {
    source.len() + compiled.program().heap_bytes()
}

/// A cache slot with its LRU bookkeeping.
struct CacheEntry {
    slot: CacheSlot,
    /// The cache clock at the entry's last use.
    used: u64,
    /// The entry's charge; 0 until its compile succeeds.
    bytes: usize,
}

/// The compilation cache: slots by spec hash, least recently used first
/// out once the filled entries exceed [`COMPILE_CACHE_BYTES`].
#[derive(Default)]
struct CompileCache {
    entries: HashMap<u64, CacheEntry>,
    clock: u64,
    bytes: usize,
}

impl CompileCache {
    /// The slot of `key`, created empty if absent, marked as just used.
    fn slot(&mut self, key: u64) -> CacheSlot {
        self.clock += 1;
        let used = self.clock;
        let entry = self.entries.entry(key).or_insert_with(|| CacheEntry {
            slot: CacheSlot::default(),
            used,
            bytes: 0,
        });
        entry.used = used;
        Arc::clone(&entry.slot)
    }

    /// Charges `bytes` to `key`'s freshly filled `slot`, then evicts the
    /// least recently used other filled entries while over budget.
    /// Returns the number evicted.
    fn charge(&mut self, key: u64, slot: &CacheSlot, bytes: usize) -> u64 {
        match self.entries.get_mut(&key) {
            Some(e) if Arc::ptr_eq(&e.slot, slot) => {
                self.bytes = self.bytes - e.bytes + bytes;
                e.bytes = bytes;
            }
            // `clear_cache` ran during the compile: nothing to charge.
            _ => return 0,
        }
        let mut evicted = 0;
        while self.bytes > COMPILE_CACHE_BYTES {
            // Empty slots are compiles in flight: evicting one would let
            // a concurrent submission compile the same spec again.
            let Some((&victim, _)) = self
                .entries
                .iter()
                .filter(|&(&k, e)| k != key && e.bytes > 0)
                .min_by_key(|(_, e)| e.used)
            else {
                break;
            };
            let e = self.entries.remove(&victim).expect("victim is cached");
            self.bytes -= e.bytes;
            evicted += 1;
        }
        evicted
    }

    /// Drops `key`'s entry if it is still `slot` (a failed compile).
    fn forget(&mut self, key: u64, slot: &CacheSlot) {
        if self.entries.get(&key).is_some_and(|e| Arc::ptr_eq(&e.slot, slot)) {
            let e = self.entries.remove(&key).expect("entry present");
            self.bytes -= e.bytes;
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }
}

struct Inner {
    config: ServeConfig,
    queue: Mutex<WorkQueue>,
    work_cv: Condvar,
    cache: Mutex<CompileCache>,
    db: SharedDb,
    metrics: Mutex<Registry>,
    active_jobs: AtomicUsize,
    accepting: AtomicBool,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// The campaign service engine. Cheap to clone; all clones share one
/// cache, one metrics registry and one worker pool.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Inner>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl Engine {
    /// Starts the worker pool and (optionally) warms the analysis db
    /// from `config.cache_path`.
    #[must_use]
    pub fn new(config: ServeConfig) -> Engine {
        let db = match &config.cache_path {
            Some(path) => match logrel_query::load(path) {
                LoadOutcome::Loaded(db) => SharedDb::with_db(*db),
                // Missing or invalid caches mean cold starts, never
                // failures — reads fail closed, writes will replace.
                LoadOutcome::Missing | LoadOutcome::Invalid(_) => SharedDb::new(),
            },
            None => SharedDb::new(),
        };
        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        let inner = Arc::new(Inner {
            config,
            queue: Mutex::new(WorkQueue { jobs: VecDeque::new(), stop: false }),
            work_cv: Condvar::new(),
            cache: Mutex::new(CompileCache::default()),
            db,
            metrics: Mutex::new(Registry::new()),
            active_jobs: AtomicUsize::new(0),
            accepting: AtomicBool::new(true),
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let inner = Arc::clone(&inner);
            handles.push(std::thread::spawn(move || worker_loop(&inner)));
        }
        *lock(&inner.workers) = handles;
        Engine { inner }
    }

    /// Runs one job to completion (blocking the calling thread; the
    /// campaign itself runs on the pool). Errors carry the structured
    /// `S`-code the protocol layer renders.
    pub fn submit(&self, job: &Job) -> Result<JobOutcome, JobError> {
        let inner = &*self.inner;
        // Admission first, acceptance check second: `shutdown` flips
        // `accepting` and then waits for `active_jobs` to reach zero, so
        // any submission it cannot see here is guaranteed to observe the
        // flag and bail out (SeqCst store/load pairs on both sides).
        let admitted = inner.active_jobs.fetch_update(
            Ordering::SeqCst,
            Ordering::SeqCst,
            |n| (n < inner.config.queue_capacity).then_some(n + 1),
        );
        if admitted.is_err() {
            self.count_rejected();
            return Err(JobError::new(
                proto::S_QUEUE_FULL,
                format!(
                    "admission queue full ({} jobs in flight); resubmit later",
                    inner.config.queue_capacity
                ),
            ));
        }
        let guard = ActiveGuard { engine: self };
        guard.update_depth_gauge();
        if !inner.accepting.load(Ordering::SeqCst) {
            self.count_rejected();
            return Err(JobError::new(proto::S_SHUTDOWN, "service is shutting down".to_owned()));
        }
        {
            let mut metrics = lock(&inner.metrics);
            metrics.inc(names::SERVE_JOBS_ACCEPTED);
        }
        let result = self.run_admitted(job);
        match &result {
            Ok(_) => lock(&inner.metrics).inc(names::SERVE_JOBS_COMPLETED),
            Err(_) => self.count_rejected(),
        }
        drop(guard);
        result
    }

    fn run_admitted(&self, job: &Job) -> Result<JobOutcome, JobError> {
        let inner = &*self.inner;
        let campaign_failed = |msg: String| JobError::new(proto::S_CAMPAIGN, msg);
        let (compiled, cache_hit) = self.compiled(&job.spec_source, &job.spec_label)?;
        let scenario = Scenario::parse_with(&job.scenario_source, &Symbols(compiled.sys()))
            .map_err(|e| campaign_failed(e.to_string()))?;
        let config = campaign_config(job.replications, job.rounds, job.seed, job.lanes);
        let plan = Plan::new(compiled, scenario, config, inner.config.recorder_capacity)
            .map_err(|e| campaign_failed(e.to_string()))?;
        let unit_count = plan.units().len();
        let state = Arc::new(JobState {
            plan,
            slots: Mutex::new(SlotBoard {
                results: (0..unit_count).map(|_| None).collect(),
                remaining: unit_count,
            }),
            done_cv: Condvar::new(),
        });
        // A plan has at least one unit: `Plan::new` rejects zero replications.
        let queued = QueuedJob { job: Arc::clone(&state), next_unit: 0 };
        lock(&inner.queue).jobs.push_back(queued);
        inner.work_cv.notify_all();
        let mut board = lock(&state.slots);
        while board.remaining > 0 {
            board = state
                .done_cv
                .wait(board)
                .unwrap_or_else(|poison| poison.into_inner());
        }
        let per_unit = board
            .results
            .iter_mut()
            .map(|slot| slot.take().expect("remaining == 0 implies every slot is filled"))
            .collect();
        drop(board);
        // No wall-clock `*_seconds` spans on a job registry: they would
        // break byte-equality and are a per-process, not per-job, concern.
        let mut registry = Registry::fresh(inner.config.recorder_capacity);
        state.plan.finish(per_unit, &mut registry).map_err(campaign_failed)?;
        Ok(JobOutcome { metrics_line: to_json_line(&registry), cache_hit })
    }

    /// The compiled form of `source`, from cache or compiled now.
    ///
    /// The map lock is held only to find or insert the spec's slot; the
    /// compile runs under the slot's own lock, so it blocks submissions
    /// of the same spec (which then hit) and nothing else.
    fn compiled(&self, source: &str, label: &str) -> Result<(Arc<CompiledSpec>, bool), JobError> {
        let inner = &*self.inner;
        let key = fnv1a(source.as_bytes());
        let slot = lock(&inner.cache).slot(key);
        let mut entry = lock(&slot);
        if let Some(hit) = &*entry {
            lock(&inner.metrics).inc(names::SERVE_CACHE_HITS);
            return Ok((Arc::clone(hit), true));
        }
        lock(&inner.metrics).inc(names::SERVE_CACHE_MISSES);
        match self.compile(source, label) {
            Ok(compiled) => {
                let compiled = Arc::new(compiled);
                *entry = Some(Arc::clone(&compiled));
                drop(entry);
                let bytes = entry_bytes(source, &compiled);
                let evicted = lock(&inner.cache).charge(key, &slot, bytes);
                if evicted > 0 {
                    lock(&inner.metrics).add(names::SERVE_CACHE_EVICTIONS, evicted);
                }
                Ok((compiled, false))
            }
            Err(e) => {
                // Errors stay uncached: drop the empty slot unless a
                // `clear_cache` already replaced it.
                lock(&inner.cache).forget(key, &slot);
                Err(e)
            }
        }
    }

    fn compile(&self, source: &str, label: &str) -> Result<CompiledSpec, JobError> {
        let inner = &*self.inner;
        let compile_failed = |msg: String| JobError::new(proto::S_COMPILE, msg);
        // Incremental analysis first: lints + verification passes, warm
        // from whatever spec family this service has seen before.
        let prior = inner.db.snapshot();
        let mut query_metrics = Registry::new();
        let outcome = analyze_source(source, label, prior.as_deref(), &mut query_metrics);
        lock(&inner.metrics).merge(query_metrics);
        if outcome.errors > 0 {
            return Err(compile_failed(format!(
                "{} error(s) in `{label}`:\n{}",
                outcome.errors,
                outcome.stderr.trim_end()
            )));
        }
        // An analysis without errors elaborated the source, and its db
        // carries that system: the campaign compiles from it.
        let Some(sys) = outcome.db.as_ref().and_then(QueryDb::system).cloned() else {
            return Err(compile_failed(format!("`{label}` did not elaborate")));
        };
        if let Some(db) = outcome.db {
            if let Some(path) = &inner.config.cache_path {
                // Atomic (write-temp-then-rename) persistence: concurrent
                // compiles never expose a torn cache file.
                let _ = logrel_query::save(&db, path);
            }
            inner.db.install(db);
        }
        CompiledSpec::new(sys, &mut NoopSink).map_err(|e| compile_failed(e.to_string()))
    }

    /// The service's own metrics registry as one JSON line.
    #[must_use]
    pub fn stats_line(&self) -> String {
        to_json_line(&lock(&self.inner.metrics))
    }

    /// A service counter's current value (test/assertion hook).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.inner.metrics).counter(name)
    }

    /// A service gauge's current value (test/assertion hook).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        lock(&self.inner.metrics).gauge(name)
    }

    /// Counts a rejection that happened before admission (the protocol
    /// layer calls this for malformed lines).
    pub fn count_rejected(&self) {
        lock(&self.inner.metrics).inc(names::SERVE_JOBS_REJECTED);
    }

    /// Empties the compilation cache and the analysis db (cold-start
    /// hook for benchmarks).
    pub fn clear_cache(&self) {
        lock(&self.inner.cache).clear();
        self.inner.db.clear();
    }

    /// Stops accepting new jobs; in-flight jobs keep running.
    pub fn begin_shutdown(&self) {
        self.inner.accepting.store(false, Ordering::SeqCst);
    }

    /// Graceful shutdown: stop accepting, drain in-flight jobs, stop and
    /// join the workers. Idempotent.
    pub fn shutdown(&self) {
        let inner = &*self.inner;
        self.begin_shutdown();
        while inner.active_jobs.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let mut q = lock(&inner.queue);
            q.stop = true;
        }
        inner.work_cv.notify_all();
        let handles = std::mem::take(&mut *lock(&inner.workers));
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn finish_job(&self) {
        self.inner.active_jobs.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Decrements the in-flight count (and the depth gauge) on every exit
/// path out of an admitted submission.
struct ActiveGuard<'a> {
    engine: &'a Engine,
}

impl ActiveGuard<'_> {
    fn update_depth_gauge(&self) {
        let depth = self.engine.inner.active_jobs.load(Ordering::SeqCst);
        lock(&self.engine.inner.metrics).set_gauge(names::SERVE_QUEUE_DEPTH, depth as f64);
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.engine.finish_job();
        self.update_depth_gauge();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let item = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(item) = q.take() {
                    break item;
                }
                if q.stop {
                    return;
                }
                q = inner
                    .work_cv
                    .wait(q)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_unit(&item)))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".to_owned());
                Err(format!("worker panicked: {msg}"))
            });
        let job = &item.job;
        let mut board = lock(&job.slots);
        board.results[item.unit_index] = Some(result);
        board.remaining -= 1;
        if board.remaining == 0 {
            job.done_cv.notify_all();
        }
    }
}

fn run_unit(item: &WorkItem) -> SlotResult {
    let job = &*item.job;
    job.plan.run_unit(job.plan.units()[item.unit_index]).map_err(|e| e.to_string())
}
