//! A fleet-scale campaign job service for the logrel toolchain.
//!
//! `htlc` answers one question per process invocation; a reliability
//! sweep over hundreds of (spec, scenario, seed) points pays the
//! process spawn, elaboration, verification, and round-program
//! compilation again for every point even when the spec never changed.
//! This crate turns the pipeline into a long-running service:
//!
//! * [`proto`] — the line-delimited `logrel-job-v1` request /
//!   `logrel-metrics-v1` result / `logrel-job-status-v1` status
//!   protocol, with stable `S001`–`S005` rejection codes;
//! * [`pipeline`] — the compiled spec, replication context and replay
//!   gauges around the library's one campaign driver
//!   ([`logrel_sim::Campaign`]: plan → unit → merge), which the engine
//!   and `htlc inject` both run;
//! * [`engine`] — a compilation cache keyed by spec content hash
//!   (warm-started from the incremental analysis database, so edited
//!   resubmissions reuse the refinement relation), a bounded admission
//!   queue, and a worker pool that shards replications across jobs
//!   while merging results in replication order;
//! * [`server`] — a `--stdin` frontend for CI pipelines and a threaded
//!   TCP frontend, plus the SIGTERM hook used for graceful drains.
//!
//! The service invariant worth stating twice: a served job's metrics
//! line is **byte-identical at any worker count** and equal to a
//! standalone `htlc inject --metrics` export of the same
//! `(spec, scenario, seed, lanes)` minus the wall-clock `*_seconds`
//! span gauges — by construction, since both run [`pipeline`]. Caches
//! and concurrency change cost, never results.

pub mod engine;
pub mod pipeline;
pub mod proto;
pub mod server;

pub use engine::{entry_bytes, Engine, Job, JobOutcome, ServeConfig, COMPILE_CACHE_BYTES};
pub use proto::{JobError, JobRequest, Request, Source};
pub use server::{install_term_hook, process_line, serve_stdin, term_requested, Server};
