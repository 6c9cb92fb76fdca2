//! The metric catalog: every metric the runtime emits, with its kind,
//! help text and (for histograms) bucket boundaries.
//!
//! Names are `&'static str` constants so sink call sites cannot typo a
//! metric into existence; the exporters use the catalog for Prometheus
//! `# HELP` / `# TYPE` lines and bucket layouts. Metrics not in the
//! catalog still export (kind inferred from the store they live in), so
//! the catalog is documentation and layout, not a gate.

/// Metric kinds, mirroring the Prometheus exposition types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count (`u64`).
    Counter,
    /// Last-written value (`f64`).
    Gauge,
    /// Bucketed distribution with sum and count.
    Histogram,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric name (Prometheus-compatible).
    pub name: &'static str,
    /// The exposition kind.
    pub kind: MetricKind,
    /// One-line help text.
    pub help: &'static str,
    /// Upper bucket bounds for histograms (`+Inf` is implicit); empty
    /// for counters and gauges.
    pub buckets: &'static [f64],
}

/// Metric name constants used by the instrumented runtime.
pub mod names {
    /// Simulated rounds completed.
    pub const ROUNDS: &str = "logrel_rounds_total";
    /// Communicator updates recorded to the trace.
    pub const UPDATES: &str = "logrel_updates_total";
    /// Communicator updates recorded as unreliable (⊥).
    pub const UPDATES_UNRELIABLE: &str = "logrel_updates_unreliable_total";
    /// Logical task invocations (one per task read instant).
    pub const TASK_INVOCATIONS: &str = "logrel_task_invocations_total";
    /// Invocations in which at least one replica delivered.
    pub const TASK_DELIVERED: &str = "logrel_task_delivered_total";
    /// Votes in which every delivering replica agreed on every output.
    pub const VOTE_UNANIMOUS: &str = "logrel_vote_unanimous_total";
    /// Votes decided by a strict majority against disagreeing replicas.
    pub const VOTE_MAJORITY: &str = "logrel_vote_majority_total";
    /// Votes in which some output position had no strict majority.
    pub const VOTE_TIE: &str = "logrel_vote_tie_total";
    /// Votes with no delivering replica at all.
    pub const VOTE_SILENT: &str = "logrel_vote_silent_total";
    /// Replica invocations that delivered into the vote.
    pub const REPLICA_OK: &str = "logrel_replica_ok_total";
    /// Replica invocations dropped from the vote (any reason).
    pub const REPLICA_DROP: &str = "logrel_replica_drop_total";
    /// Replica drops: the host failed its availability draw.
    pub const REPLICA_DROP_HOST: &str = "logrel_replica_drop_host_total";
    /// Replica drops: host up, but the broadcast was lost.
    pub const REPLICA_DROP_BROADCAST: &str = "logrel_replica_drop_broadcast_total";
    /// Replica drops: stateful replica still warming up after a rejoin.
    pub const REPLICA_DROP_WARMUP: &str = "logrel_replica_drop_warmup_total";
    /// Replica drops: excluded by an engaged degradation rule.
    pub const REPLICA_DROP_EXCLUDED: &str = "logrel_replica_drop_excluded_total";
    /// Replica drops: the logical task did not execute (failed inputs).
    pub const REPLICA_DROP_SILENT: &str = "logrel_replica_drop_silent_total";
    /// Broadcast losses observed (host up, broadcast draw failed).
    pub const BROADCAST_FAIL: &str = "logrel_broadcast_fail_total";
    /// Host up→down transitions observed through availability draws.
    pub const HOST_DOWN_TRANSITIONS: &str = "logrel_host_down_transitions_total";
    /// Host down→up transitions observed through availability draws.
    pub const HOST_UP_TRANSITIONS: &str = "logrel_host_up_transitions_total";
    /// Hosts currently observed up (gauge).
    pub const HOSTS_UP: &str = "logrel_hosts_up";
    /// LRC monitor alarms raised.
    pub const ALARM_RAISED: &str = "logrel_alarm_raised_total";
    /// LRC monitor alarms cleared.
    pub const ALARM_CLEARED: &str = "logrel_alarm_cleared_total";
    /// Degradation rules engaged (latched).
    pub const DEGRADER_ENGAGED: &str = "logrel_degrader_engaged_total";
    /// E-machine mode-switch events emitted by the degrader.
    pub const MODE_SWITCH: &str = "logrel_mode_switch_total";
    /// Delivering replicas per vote (histogram).
    pub const REPLICAS_PER_VOTE: &str = "logrel_replicas_per_vote";
    /// Wall-clock seconds compiling the round program (span gauge).
    pub const COMPILE_SECONDS: &str = "logrel_compile_seconds";
    /// Wall-clock seconds self-certifying the round program (span gauge).
    pub const CERTIFY_SECONDS: &str = "logrel_certify_seconds";
    /// Wall-clock seconds of the simulation/campaign run (span gauge).
    pub const RUN_SECONDS: &str = "logrel_run_seconds";
    /// Bit-sliced lane width the campaign ran with (gauge; 1 = scalar).
    pub const BITSLICE_LANES: &str = "logrel_bitslice_lanes";
    /// Analysis queries evaluated by the incremental engine.
    pub const QUERY_QUERIES: &str = "logrel_query_queries_total";
    /// Queries answered from the cache (dependency digest unchanged).
    pub const QUERY_HITS: &str = "logrel_query_hits_total";
    /// Queries recomputed because their dependency cone was dirtied.
    pub const QUERY_RECOMPUTES: &str = "logrel_query_recomputes_total";
    /// Dirty queries answered by refinement reuse (Proposition 2).
    pub const QUERY_REFINE_REUSE: &str = "logrel_query_refine_reuse_total";
    /// Cache loads rejected (corrupt/truncated/version mismatch).
    pub const QUERY_CACHE_FALLBACK: &str = "logrel_query_cache_fallback_total";
    /// RNG seed the campaign ran with (gauge; echoed for replayability).
    pub const CAMPAIGN_SEED: &str = "logrel_campaign_seed";
    /// Specs put through static reliability certification.
    pub const CERTIFY_SPECS: &str = "logrel_certify_specs_total";
    /// LRC constraints certified (interval lower bound clears µ).
    pub const CERTIFY_LRC_CERTIFIED: &str = "logrel_certify_lrc_certified_total";
    /// LRC constraints refuted (interval upper bound below µ).
    pub const CERTIFY_LRC_REFUTED: &str = "logrel_certify_lrc_refuted_total";
    /// LRC constraints left indeterminate (enclosure straddles µ).
    pub const CERTIFY_LRC_INDETERMINATE: &str = "logrel_certify_lrc_indeterminate_total";
    /// Smallest certification slack `lo − µ` over all LRCs (gauge).
    pub const CERTIFY_MIN_SLACK: &str = "logrel_certify_min_slack";
    /// Fuzzer candidate scenarios executed (including invalid mutants).
    pub const FUZZ_ITERS: &str = "logrel_fuzz_iters_total";
    /// Fuzzer candidates with a novel coverage signature (kept in corpus).
    pub const FUZZ_NOVEL: &str = "logrel_fuzz_novel_total";
    /// Fuzzer monitor misses found (µ-violation with no prior alarm).
    pub const FUZZ_MONITOR_MISS: &str = "logrel_fuzz_monitor_miss_total";
    /// Shrinking passes applied to monitor-miss reproducers.
    pub const FUZZ_SHRINK_STEPS: &str = "logrel_fuzz_shrink_steps_total";
    /// Distinct coverage signatures seen by the fuzzer (gauge).
    pub const FUZZ_SIGNATURES: &str = "logrel_fuzz_signatures";
    /// Jobs accepted by the campaign service.
    pub const SERVE_JOBS_ACCEPTED: &str = "logrel_serve_jobs_accepted_total";
    /// Jobs completed by the campaign service.
    pub const SERVE_JOBS_COMPLETED: &str = "logrel_serve_jobs_completed_total";
    /// Jobs rejected by the campaign service (malformed, queue full,
    /// compile failure, shutdown).
    pub const SERVE_JOBS_REJECTED: &str = "logrel_serve_jobs_rejected_total";
    /// Jobs whose spec was already compiled (served from the cache).
    pub const SERVE_CACHE_HITS: &str = "logrel_serve_cache_hits_total";
    /// Jobs whose spec had to be compiled (elaborate/lint/verify/program).
    pub const SERVE_CACHE_MISSES: &str = "logrel_serve_cache_misses_total";
    /// Compiled specs the service dropped from its compilation cache to
    /// stay within its byte budget.
    pub const SERVE_CACHE_EVICTIONS: &str = "logrel_serve_cache_evictions_total";
    /// Jobs currently queued or running in the service (gauge).
    pub const SERVE_QUEUE_DEPTH: &str = "logrel_serve_queue_depth";
}

/// Buckets for the delivering-replicas-per-vote histogram.
const REPLICA_BUCKETS: &[f64] = &[0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0];

macro_rules! counter {
    ($name:expr, $help:expr) => {
        MetricDef {
            name: $name,
            kind: MetricKind::Counter,
            help: $help,
            buckets: &[],
        }
    };
}

macro_rules! gauge {
    ($name:expr, $help:expr) => {
        MetricDef {
            name: $name,
            kind: MetricKind::Gauge,
            help: $help,
            buckets: &[],
        }
    };
}

/// Every metric the instrumented runtime emits.
pub const CATALOG: &[MetricDef] = &[
    counter!(names::ROUNDS, "Simulated rounds completed"),
    counter!(names::UPDATES, "Communicator updates recorded"),
    counter!(
        names::UPDATES_UNRELIABLE,
        "Communicator updates recorded as unreliable"
    ),
    counter!(names::TASK_INVOCATIONS, "Logical task invocations"),
    counter!(
        names::TASK_DELIVERED,
        "Invocations with at least one delivering replica"
    ),
    counter!(
        names::VOTE_UNANIMOUS,
        "Votes with all delivering replicas in agreement"
    ),
    counter!(
        names::VOTE_MAJORITY,
        "Votes decided by a strict majority over disagreement"
    ),
    counter!(
        names::VOTE_TIE,
        "Votes with an output position lacking a strict majority"
    ),
    counter!(names::VOTE_SILENT, "Votes with no delivering replica"),
    counter!(names::REPLICA_OK, "Replica invocations that delivered"),
    counter!(
        names::REPLICA_DROP,
        "Replica invocations dropped (any reason)"
    ),
    counter!(names::REPLICA_DROP_HOST, "Replica drops: host down"),
    counter!(
        names::REPLICA_DROP_BROADCAST,
        "Replica drops: broadcast lost"
    ),
    counter!(names::REPLICA_DROP_WARMUP, "Replica drops: rejoin warm-up"),
    counter!(
        names::REPLICA_DROP_EXCLUDED,
        "Replica drops: dropped by an engaged degradation rule"
    ),
    counter!(
        names::REPLICA_DROP_SILENT,
        "Replica drops: logical task did not execute"
    ),
    counter!(
        names::BROADCAST_FAIL,
        "Broadcast losses observed on up hosts"
    ),
    counter!(
        names::HOST_DOWN_TRANSITIONS,
        "Observed host up-to-down transitions"
    ),
    counter!(
        names::HOST_UP_TRANSITIONS,
        "Observed host down-to-up transitions"
    ),
    gauge!(names::HOSTS_UP, "Hosts currently observed up"),
    counter!(names::ALARM_RAISED, "LRC monitor alarms raised"),
    counter!(names::ALARM_CLEARED, "LRC monitor alarms cleared"),
    counter!(names::DEGRADER_ENGAGED, "Degradation rules engaged"),
    counter!(
        names::MODE_SWITCH,
        "Mode-switch events emitted by engaged degradation rules"
    ),
    MetricDef {
        name: names::REPLICAS_PER_VOTE,
        kind: MetricKind::Histogram,
        help: "Delivering replicas per vote",
        buckets: REPLICA_BUCKETS,
    },
    gauge!(
        names::COMPILE_SECONDS,
        "Wall-clock seconds compiling the round program"
    ),
    gauge!(
        names::CERTIFY_SECONDS,
        "Wall-clock seconds self-certifying the round program"
    ),
    gauge!(
        names::RUN_SECONDS,
        "Wall-clock seconds of the simulation or campaign run"
    ),
    gauge!(
        names::BITSLICE_LANES,
        "Bit-sliced lane width of the campaign run (1 = scalar)"
    ),
    counter!(
        names::QUERY_QUERIES,
        "Analysis queries evaluated by the incremental engine"
    ),
    counter!(names::QUERY_HITS, "Queries answered from the cache"),
    counter!(
        names::QUERY_RECOMPUTES,
        "Queries recomputed after their dependency cone was dirtied"
    ),
    counter!(
        names::QUERY_REFINE_REUSE,
        "Dirty queries answered by refinement reuse"
    ),
    counter!(
        names::QUERY_CACHE_FALLBACK,
        "Cache loads rejected as corrupt or version-mismatched"
    ),
    gauge!(
        names::CAMPAIGN_SEED,
        "RNG seed the campaign ran with (echoed for replayability)"
    ),
    counter!(
        names::CERTIFY_SPECS,
        "Specs put through static reliability certification"
    ),
    counter!(
        names::CERTIFY_LRC_CERTIFIED,
        "LRC constraints certified by the interval analysis"
    ),
    counter!(
        names::CERTIFY_LRC_REFUTED,
        "LRC constraints refuted by the interval analysis"
    ),
    counter!(
        names::CERTIFY_LRC_INDETERMINATE,
        "LRC constraints left indeterminate by the interval analysis"
    ),
    gauge!(
        names::CERTIFY_MIN_SLACK,
        "Smallest certification slack (lower bound minus LRC) observed"
    ),
    counter!(
        names::FUZZ_ITERS,
        "Fuzzer candidate scenarios executed (including invalid mutants)"
    ),
    counter!(
        names::FUZZ_NOVEL,
        "Fuzzer candidates kept for a novel coverage signature"
    ),
    counter!(
        names::FUZZ_MONITOR_MISS,
        "Monitor misses found (LRC violation with no prior alarm)"
    ),
    counter!(
        names::FUZZ_SHRINK_STEPS,
        "Shrinking passes applied to monitor-miss reproducers"
    ),
    gauge!(
        names::FUZZ_SIGNATURES,
        "Distinct coverage signatures seen by the fuzzer"
    ),
    counter!(
        names::SERVE_JOBS_ACCEPTED,
        "Jobs accepted by the campaign service"
    ),
    counter!(
        names::SERVE_JOBS_COMPLETED,
        "Jobs completed by the campaign service"
    ),
    counter!(
        names::SERVE_JOBS_REJECTED,
        "Jobs rejected by the campaign service"
    ),
    counter!(
        names::SERVE_CACHE_HITS,
        "Jobs served from the spec compilation cache"
    ),
    counter!(
        names::SERVE_CACHE_MISSES,
        "Jobs that compiled their spec from scratch"
    ),
    counter!(
        names::SERVE_CACHE_EVICTIONS,
        "Compiled specs evicted from the compilation cache"
    ),
    gauge!(
        names::SERVE_QUEUE_DEPTH,
        "Jobs currently queued or running in the service"
    ),
];

/// Looks a metric up in the catalog.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    CATALOG.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_prometheus_safe() {
        let mut seen = std::collections::BTreeSet::new();
        for d in CATALOG {
            assert!(seen.insert(d.name), "duplicate metric `{}`", d.name);
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "unsafe metric name `{}`",
                d.name
            );
            assert!(!d.help.is_empty());
            if d.kind == MetricKind::Histogram {
                assert!(d.buckets.windows(2).all(|w| w[0] < w[1]));
            } else {
                assert!(d.buckets.is_empty());
            }
            // Counters follow the Prometheus `_total` convention.
            if d.kind == MetricKind::Counter {
                assert!(d.name.ends_with("_total"), "{}", d.name);
            }
        }
    }

    #[test]
    fn lookup_finds_catalogued_metrics() {
        assert_eq!(lookup(names::ROUNDS).unwrap().kind, MetricKind::Counter);
        assert_eq!(
            lookup(names::REPLICAS_PER_VOTE).unwrap().kind,
            MetricKind::Histogram
        );
        assert!(lookup("nope").is_none());
    }
}
