//! Observability for the logrel runtime: metrics, flight recorder,
//! exporters.
//!
//! The simulator's kernel, monitor and degrader are instrumented against
//! the [`MetricsSink`] trait. The two implementations bracket the cost
//! spectrum:
//!
//! * [`NoopSink`] — every method is an empty inline body and
//!   [`MetricsSink::enabled`] is `false`, so instrumented code paths
//!   compile down to the uninstrumented ones (the kernel is generic over
//!   the sink, not dynamic). The `bench_snapshot` binary reports the
//!   paired median `observed_noop_over_kernel` (kernel time over no-op
//!   sink time, 0.91–0.95 on a 2-core VM) and gates it on no bound.
//! * [`Registry`] — a concrete store of counters, gauges and histograms
//!   keyed by `&'static str` metric names (catalogued in [`catalog`]),
//!   optionally carrying a bounded [`FlightRecorder`] ring buffer of
//!   recent structured [`ObsEvent`]s which is dumped automatically when
//!   an LRC alarm is raised, on a panic unwinding through the driver, or
//!   on demand.
//!
//! Everything a simulation writes into a [`Registry`] is a deterministic
//! function of the run (no wall-clock, no addresses): Monte-Carlo
//! batches merge per-replication registries in replication order, so the
//! aggregate is bit-identical at any thread count. Wall-clock span
//! timings ([`Span`]) exist too, but are only ever recorded by top-level
//! drivers *outside* the replicated region — see `DESIGN.md` §9.
//!
//! [`export`] renders a registry as Prometheus text exposition or as a
//! self-describing JSON document (`logrel-metrics-v1`).

pub mod catalog;
pub mod export;
pub mod metrics;
pub mod recorder;

pub use catalog::{names, MetricDef, MetricKind, CATALOG};
pub use metrics::{Histogram, MetricsSink, NoopSink, Registry, Span};
pub use recorder::{DropReason, Dump, DumpTrigger, FlightRecorder, ObsEvent, VoteOutcome};
