//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program itself carries no tracing: the traced replay wraps every
//! public stage call in a [`Tracer::span`]. Spans are kept in memory and
//! written out once, at exit, as a Chrome trace-event file.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: the stage `name` (`<layer>.<stage>`), the op it
/// belongs to, and the span that caused it (`parent`, 0 for an op root).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Lanes of a `sim.unit` or `sim.kernel` span (0 elsewhere).
    pub lanes: u32,
    /// Replication-rounds the span simulated (0 outside `sim.*` runs).
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

/// The layer (crate) of a `<layer>.<stage>` name.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Collects spans from any thread. A disabled tracer times nothing and
/// stores nothing; the replay runs the same code either way, which is
/// what the overhead measurement compares.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span id to parent its
    /// own child spans.
    pub fn span<R>(&self, op: u64, parent: u64, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        self.span_work(op, parent, name, 0, 0, f)
    }

    /// [`Tracer::span`] that also records the lanes and
    /// replication-rounds the call simulates.
    #[allow(clippy::too_many_arguments)]
    pub fn span_work<R>(
        &self,
        op: u64,
        parent: u64,
        name: &'static str,
        lanes: u32,
        work: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let thread = THREAD.with(|t| *t);
        let span = Span {
            id,
            parent,
            op,
            name,
            thread,
            start_ns,
            end_ns,
            lanes,
            work,
        };
        self.spans.lock().expect("no span push panics").push(span);
        out
    }

    /// All spans recorded so far, in completion order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("no span push panics")
    }
}

/// Wall-clock self time of each span of one op, in ns, indexed like
/// `spans`. Each instant of the op is charged to the innermost spans
/// active at it, split evenly when several run in parallel (units on
/// worker threads), so the self times of an op's spans sum to the op
/// root's duration.
pub fn self_times(spans: &[&Span]) -> Vec<u64> {
    let mut edges: Vec<u64> = spans.iter().flat_map(|s| [s.start_ns, s.end_ns]).collect();
    edges.sort_unstable();
    edges.dedup();
    let mut out = vec![0f64; spans.len()];
    for w in edges.windows(2) {
        let (a, b) = (w[0], w[1]);
        let active: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].start_ns <= a && spans[i].end_ns >= b)
            .collect();
        let busy_parents: HashSet<u64> = active.iter().map(|&i| spans[i].parent).collect();
        let leaves: Vec<usize> = active
            .into_iter()
            .filter(|&i| !busy_parents.contains(&spans[i].id))
            .collect();
        for &i in &leaves {
            out[i] += (b - a) as f64 / leaves.len() as f64;
        }
    }
    out.into_iter().map(|ns| ns.round() as u64).collect()
}

/// Per-stage totals over a set of ops.
#[derive(Debug, Default, Clone)]
pub struct StageRow {
    pub calls: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

/// Groups the spans of `ops` by op and returns each stage's calls, self
/// time and per-call durations, plus the summed op wall time.
pub fn stage_table(spans: &[Span], ops: &HashSet<u64>) -> (BTreeMap<&'static str, StageRow>, u64) {
    let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| ops.contains(&s.op)) {
        by_op.entry(s.op).or_default().push(s);
    }
    let mut rows: BTreeMap<&'static str, StageRow> = BTreeMap::new();
    let mut wall = 0;
    for op_spans in by_op.values() {
        let selfs = self_times(op_spans);
        for (s, self_ns) in op_spans.iter().zip(selfs) {
            if s.parent == 0 {
                wall += s.dur_ns();
            }
            let row = rows.entry(s.name).or_default();
            row.calls += 1;
            row.self_ns += self_ns;
            row.durations_ns.push(s.dur_ns());
        }
    }
    (rows, wall)
}

/// Renders the self-time table printed after a traced run: one row per
/// stage, then one per layer.
pub fn render_table(rows: &BTreeMap<&'static str, StageRow>, wall_ns: u64) -> String {
    let share = |ns: u64| 100.0 * ns as f64 / wall_ns.max(1) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>7} {:>12} {:>8} {:>12}",
        "stage", "calls", "self ms", "share", "p50 call ms"
    );
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, row) in rows {
        let mut d = row.durations_ns.clone();
        d.sort_unstable();
        let _ = writeln!(
            out,
            "{:<22} {:>7} {:>12.3} {:>7.1}% {:>12.4}",
            name,
            row.calls,
            row.self_ns as f64 / 1e6,
            share(row.self_ns),
            d[d.len() / 2] as f64 / 1e6,
        );
        *layers.entry(layer_of(name)).or_default() += row.self_ns;
    }
    let _ = writeln!(out, "{:<22} {:>12} {:>8}", "layer", "self ms", "share");
    for (layer, ns) in layers {
        let _ = writeln!(
            out,
            "{layer:<22} {:>12.3} {:>7.1}%",
            ns as f64 / 1e6,
            share(ns)
        );
    }
    out
}

/// The spans as a Chrome trace-event document (opens in Perfetto).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"span\":{},\"parent\":{},\"lanes\":{},\"work\":{}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.thread,
            s.op,
            s.id,
            s.parent,
            s.lanes,
            s.work,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "x.y",
            thread: 1,
            start_ns,
            end_ns,
            lanes: 0,
            work: 0,
        }
    }

    #[test]
    fn self_times_split_parallel_children_and_sum_to_the_root() {
        // root [0,100); units [10,90) holds two parallel children
        // [10,60) and [20,90).
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 90),
            span(3, 2, 10, 60),
            span(4, 2, 20, 90),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let t = self_times(&refs);
        assert_eq!(t.iter().sum::<u64>(), 100);
        assert_eq!(t[0], 20);
        assert_eq!(t[1], 0);
        // [10,20) alone, [20,60) shared, then [60,90) alone.
        assert_eq!(t[2], 10 + 20);
        assert_eq!(t[3], 20 + 30);
    }
}
