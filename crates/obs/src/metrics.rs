//! The [`MetricsSink`] trait and its two implementations: the free
//! [`NoopSink`] and the concrete [`Registry`].
//!
//! Instrumented code is generic over `M: MetricsSink` and brackets any
//! non-trivial work in `if sink.enabled() { ... }`. With [`NoopSink`]
//! the condition is a constant `false` after monomorphization, so the
//! instrumented path compiles to the uninstrumented one. The trait is
//! nevertheless dyn-safe, so components that cannot be generic (e.g. a
//! hook behind `&mut dyn`) can still take `&mut dyn MetricsSink`.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::catalog::{self, MetricKind};
use crate::recorder::{FlightRecorder, ObsEvent};

/// A place instrumentation writes to.
///
/// All methods have defaults that do nothing, so a sink only overrides
/// what it stores. Metric names must be `&'static str` — use the
/// constants in [`crate::catalog::names`].
pub trait MetricsSink {
    /// Whether this sink records anything. Instrumented code gates
    /// non-trivial observation work on this; for [`NoopSink`] it is a
    /// constant `false` that lets the optimizer delete the whole branch.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `v` to the counter `name`.
    fn add(&mut self, name: &'static str, v: u64) {
        let _ = (name, v);
    }

    /// Increments the counter `name` by one.
    fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Sets the gauge `name` to `v` (last write wins).
    fn set_gauge(&mut self, name: &'static str, v: f64) {
        let _ = (name, v);
    }

    /// Records an observation `v` into the histogram `name`.
    fn observe(&mut self, name: &'static str, v: f64) {
        let _ = (name, v);
    }

    /// Records `n` identical observations of `v` into the histogram
    /// `name` — the batched form of [`MetricsSink::observe`] used by hot
    /// loops that tally observations and flush once.
    fn observe_n(&mut self, name: &'static str, v: f64, n: u64) {
        for _ in 0..n {
            self.observe(name, v);
        }
    }

    /// Records a structured event (flight recorder).
    ///
    /// The simulator's lane-group kernel does not call this for the
    /// events it makes itself (votes, replica drops, host transitions):
    /// it keeps one event ring per lane group and writes what a lane's
    /// recorder would hold straight into the [`MetricsSink::flight_recorder`]
    /// of the sink observing that lane.
    fn event(&mut self, event: &ObsEvent) {
        let _ = event;
    }

    /// The flight recorder this sink's events go to, if any — the hook
    /// through which the lane-group kernel installs each lane's rebuilt
    /// ring, its dumps and its eviction count.
    #[doc(hidden)]
    fn flight_recorder(&mut self) -> Option<&mut FlightRecorder> {
        None
    }
}

/// The do-nothing sink: every method is an empty inline body and
/// [`MetricsSink::enabled`] is `false`, so generic instrumented code
/// monomorphizes to the uninstrumented code.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl MetricsSink for NoopSink {}

/// A fixed-layout histogram: cumulative-style buckets, sum and count.
///
/// Buckets come from the [`crate::catalog`] entry for the metric (or a
/// single `+Inf`-only layout for uncatalogued names). Counts are stored
/// per-bucket (non-cumulative); exporters accumulate for the Prometheus
/// `le` convention.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bounds, strictly increasing; the implicit `+Inf` bucket is
    /// not stored here.
    bounds: Vec<f64>,
    /// Observation count per bound, plus a final `+Inf` slot.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with the given upper bounds (strictly
    /// increasing; `+Inf` implicit).
    #[must_use]
    fn with_bounds(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn for_metric(name: &str) -> Self {
        let bounds = catalog::lookup(name)
            .filter(|d| d.kind == MetricKind::Histogram)
            .map_or(&[][..], |d| d.buckets);
        Histogram::with_bounds(bounds)
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Records `n` identical observations of `v`. Equivalent to calling
    /// [`Histogram::observe`] `n` times: for the integer-valued samples
    /// the simulator records, `v * n` is exact in `f64` (as is the
    /// repeated-addition sum), so the two forms produce bit-identical
    /// histograms.
    pub fn observe_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += n;
        self.sum += v * n as f64;
        self.count += n;
    }

    /// Upper bounds (excluding the implicit `+Inf`).
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative counts per bound, ending with the `+Inf` total.
    #[must_use]
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds another histogram's observations into this one. Layouts must
    /// match (they do, because layouts come from the shared catalog).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram merge across different bucket layouts"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// A concrete metrics store: counters, gauges and histograms keyed by
/// static names, plus an optional flight recorder.
///
/// All stores are `BTreeMap`s so iteration — and therefore every export
/// — is deterministic. A registry filled by a simulation contains only
/// values that are a deterministic function of the run; wall-clock span
/// gauges are written by top-level drivers only (see the crate docs).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    recorder: Option<FlightRecorder>,
}

impl Registry {
    /// Creates an empty registry with no flight recorder.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Creates an empty registry carrying a flight recorder with the
    /// given ring capacity.
    #[must_use]
    pub fn with_recorder(capacity: usize) -> Self {
        Registry {
            recorder: Some(FlightRecorder::new(capacity)),
            ..Registry::default()
        }
    }

    /// Current value of a counter (0 if never written).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever written.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram, if any observation was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// The flight recorder, if this registry carries one.
    #[must_use]
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Mutable access to the flight recorder, if present (for manual /
    /// panic dumps from drivers).
    pub fn recorder_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.recorder.as_mut()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges `other` into `self`: counters add, gauges last-write-wins
    /// (i.e. `other` overwrites), histogram buckets add, recorder dumps
    /// append (capped). Merging per-replication registries in
    /// replication order yields a bit-identical aggregate at any thread
    /// count, because each input is itself deterministic.
    pub fn merge(&mut self, other: Registry) {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in other.gauges {
            self.gauges.insert(name, v);
        }
        for (name, h) in other.histograms {
            match self.histograms.entry(name) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&h),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h);
                }
            }
        }
        if let Some(rec) = other.recorder {
            match &mut self.recorder {
                Some(mine) => mine.merge(rec),
                None => self.recorder = Some(rec),
            }
        }
    }
}

impl MetricsSink for Registry {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    fn set_gauge(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    fn observe(&mut self, name: &'static str, v: f64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::for_metric(name))
            .observe(v);
    }

    fn observe_n(&mut self, name: &'static str, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::for_metric(name))
            .observe_n(v, n);
    }

    fn event(&mut self, event: &ObsEvent) {
        if let Some(rec) = &mut self.recorder {
            rec.push(event.clone());
        }
    }

    fn flight_recorder(&mut self) -> Option<&mut FlightRecorder> {
        self.recorder.as_mut()
    }
}

/// A wall-clock span timer for top-level driver phases
/// (compile/certify/run). **Never** record a span inside the replicated
/// region of a Monte-Carlo run — wall-clock values are not deterministic
/// and would break bit-identical registry merges.
#[derive(Debug)]
pub struct Span {
    start: Instant,
}

impl Span {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Span {
            start: Instant::now(),
        }
    }

    /// Stops the span and records its duration in seconds as the gauge
    /// `name` on `sink`.
    pub fn finish(self, sink: &mut dyn MetricsSink, name: &'static str) {
        sink.set_gauge(name, self.start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::names;

    #[test]
    fn noop_sink_is_disabled_and_inert() {
        let mut s = NoopSink;
        assert!(!s.enabled());
        s.inc(names::ROUNDS);
        s.set_gauge(names::HOSTS_UP, 3.0);
        s.observe(names::REPLICAS_PER_VOTE, 2.0);
    }

    #[test]
    fn registry_stores_and_reads_back() {
        let mut r = Registry::new();
        assert!(r.enabled());
        r.inc(names::ROUNDS);
        r.add(names::ROUNDS, 2);
        r.set_gauge(names::HOSTS_UP, 3.0);
        r.observe(names::REPLICAS_PER_VOTE, 2.0);
        r.observe(names::REPLICAS_PER_VOTE, 9.0);
        assert_eq!(r.counter(names::ROUNDS), 3);
        assert_eq!(r.gauge(names::HOSTS_UP), Some(3.0));
        let h = r.histogram(names::REPLICAS_PER_VOTE).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 11.0);
        // 2.0 lands in the `le=2` bucket, 9.0 overflows to +Inf.
        assert_eq!(h.cumulative().last(), Some(&2));
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = Registry::new();
        a.add(names::ROUNDS, 5);
        a.observe(names::REPLICAS_PER_VOTE, 1.0);
        let mut b = Registry::new();
        b.add(names::ROUNDS, 7);
        b.add(names::UPDATES, 1);
        b.set_gauge(names::HOSTS_UP, 2.0);
        b.observe(names::REPLICAS_PER_VOTE, 3.0);
        a.merge(b);
        assert_eq!(a.counter(names::ROUNDS), 12);
        assert_eq!(a.counter(names::UPDATES), 1);
        assert_eq!(a.gauge(names::HOSTS_UP), Some(2.0));
        assert_eq!(a.histogram(names::REPLICAS_PER_VOTE).unwrap().count(), 2);
    }

    #[test]
    fn merge_order_is_deterministic_for_counters() {
        // Counters commute; merging [a, b] vs [b, a] yields identical
        // stores, which is what makes chunked parallel merges safe.
        let mk = |n: u64| {
            let mut r = Registry::new();
            r.add(names::ROUNDS, n);
            r
        };
        let mut left = Registry::new();
        left.merge(mk(1));
        left.merge(mk(2));
        let mut right = Registry::new();
        right.merge(mk(2));
        right.merge(mk(1));
        assert_eq!(left, right);
    }

    #[test]
    fn registry_event_feeds_recorder() {
        let mut r = Registry::with_recorder(4);
        r.event(&ObsEvent::HostDown { at: 7, host: 1 });
        assert_eq!(r.recorder().unwrap().events().count(), 1);
        let mut plain = Registry::new();
        plain.event(&ObsEvent::HostDown { at: 7, host: 1 });
        assert!(plain.recorder().is_none());
    }

    #[test]
    fn span_records_a_nonnegative_gauge() {
        let mut r = Registry::new();
        let span = Span::start();
        span.finish(&mut r, names::RUN_SECONDS);
        assert!(r.gauge(names::RUN_SECONDS).unwrap() >= 0.0);
    }
}
