//! Exporters: Prometheus text exposition and a self-describing JSON
//! document (`logrel-metrics-v1`).
//!
//! Both renderers are hand-rolled (the workspace is offline — no serde)
//! and fully deterministic: the registry's `BTreeMap` stores fix the
//! iteration order, and floats render through the one number writer of
//! [`logrel_core::json`], so the two documents agree with each other and
//! with test expectations. The pretty document and the compact wire line
//! come from one renderer that differs only in whitespace.

use crate::catalog;
use crate::metrics::{Histogram, Registry};
use crate::recorder::{Dump, DumpTrigger, ObsEvent};
use logrel_core::json::{float_text, number_into, string_into, uint_into};

fn help_and_type(out: &mut String, name: &str, kind: &str) {
    if let Some(def) = catalog::lookup(name) {
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        out.push_str(def.help);
        out.push('\n');
    }
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn histogram_text(out: &mut String, name: &str, h: &Histogram) {
    let cumulative = h.cumulative();
    for (bound, cum) in h.bounds().iter().zip(&cumulative) {
        out.push_str(name);
        out.push_str("_bucket{le=\"");
        out.push_str(&float_text(*bound));
        out.push_str("\"} ");
        out.push_str(&cum.to_string());
        out.push('\n');
    }
    out.push_str(name);
    out.push_str("_bucket{le=\"+Inf\"} ");
    out.push_str(&h.count().to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum ");
    out.push_str(&float_text(h.sum()));
    out.push('\n');
    out.push_str(name);
    out.push_str("_count ");
    out.push_str(&h.count().to_string());
    out.push('\n');
}

/// Renders the registry as Prometheus text exposition (version 0.0.4).
///
/// Catalogued metrics get `# HELP` lines; all get `# TYPE`. Histograms
/// follow the cumulative-`le` bucket convention with an explicit `+Inf`
/// bucket, `_sum` and `_count`.
#[must_use]
pub fn to_prometheus(reg: &Registry) -> String {
    let mut out = String::new();
    for (name, v) in reg.counters() {
        help_and_type(&mut out, name, "counter");
        out.push_str(name);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }
    for (name, v) in reg.gauges() {
        help_and_type(&mut out, name, "gauge");
        out.push_str(name);
        out.push(' ');
        out.push_str(&float_text(v));
        out.push('\n');
    }
    for (name, h) in reg.histograms() {
        help_and_type(&mut out, name, "histogram");
        histogram_text(&mut out, name, h);
    }
    out
}

/// Appends `, "name": ` — a field of an event or dump.
fn field(out: &mut String, name: &str) {
    out.push_str(", \"");
    out.push_str(name);
    out.push_str("\": ");
}

/// Appends the field `name` with the integer value `v`.
fn int_field(out: &mut String, name: &str, v: usize) {
    field(out, name);
    uint_into(out, v as u64);
}

/// Appends `key` — a whole `, "name": ` — and the integer value `v`.
fn uint_after(out: &mut String, key: &str, v: usize) {
    out.push_str(key);
    uint_into(out, v as u64);
}

/// Appends `key` — a whole `, "name": "` — the fixed label `label`,
/// one of those of [`crate::recorder`], which need no escaping, and the
/// closing quote.
fn label_after(out: &mut String, key: &str, label: &str) {
    out.push_str(key);
    out.push_str(label);
    out.push('"');
}

/// The opening of an event object up to its `at` value: `{"kind":
/// "<kind>", "at": `, one literal per kind (the kinds are fixed labels
/// that need no escaping).
macro_rules! event_head {
    ($kind:literal) => {
        concat!("{\"kind\": \"", $kind, "\", \"at\": ")
    };
}

/// Appends the event as a JSON object.
fn event_into(out: &mut String, event: &ObsEvent) {
    out.push_str(match event {
        ObsEvent::Vote { .. } => event_head!("vote"),
        ObsEvent::ReplicaDrop { .. } => event_head!("replica-drop"),
        ObsEvent::HostDown { .. } => event_head!("host-down"),
        ObsEvent::HostUp { .. } => event_head!("host-up"),
        ObsEvent::AlarmRaised { .. } => event_head!("alarm-raised"),
        ObsEvent::AlarmCleared { .. } => event_head!("alarm-cleared"),
        ObsEvent::DegraderEngaged { .. } => event_head!("degrader-engaged"),
        ObsEvent::ModeSwitch { .. } => event_head!("mode-switch"),
    });
    uint_into(out, event.at());
    match event {
        ObsEvent::Vote {
            task,
            outcome,
            delivered,
            replicas,
            ..
        } => {
            uint_after(out, ", \"task\": ", *task);
            label_after(out, ", \"outcome\": \"", outcome.label());
            uint_after(out, ", \"delivered\": ", *delivered);
            uint_after(out, ", \"replicas\": ", *replicas);
        }
        ObsEvent::ReplicaDrop {
            task, host, reason, ..
        } => {
            uint_after(out, ", \"task\": ", *task);
            uint_after(out, ", \"host\": ", *host);
            label_after(out, ", \"reason\": \"", reason.label());
        }
        ObsEvent::HostDown { host, .. } | ObsEvent::HostUp { host, .. } => {
            uint_after(out, ", \"host\": ", *host);
        }
        ObsEvent::AlarmRaised {
            comm,
            mean,
            epsilon,
            lrc,
            ..
        } => {
            uint_after(out, ", \"comm\": ", *comm);
            for (name, v) in [("mean", mean), ("epsilon", epsilon), ("lrc", lrc)] {
                field(out, name);
                number_into(out, *v);
            }
        }
        ObsEvent::AlarmCleared { comm, mean, .. } => {
            uint_after(out, ", \"comm\": ", *comm);
            field(out, "mean");
            number_into(out, *mean);
        }
        ObsEvent::DegraderEngaged { rule, .. } => uint_after(out, ", \"rule\": ", *rule),
        ObsEvent::ModeSwitch { event, .. } => {
            field(out, "event");
            string_into(out, event);
        }
    }
    out.push('}');
}

/// Appends the dump as a JSON object.
fn dump_into(out: &mut String, dump: &Dump) {
    out.push_str("{\"trigger\": ");
    string_into(out, dump.trigger.label());
    if let DumpTrigger::AlarmRaised { comm } = &dump.trigger {
        int_field(out, "comm", *comm);
    }
    field(out, "at");
    uint_into(out, dump.at);
    out.push_str(", \"events\": [");
    for (i, e) in dump.events.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        event_into(out, e);
    }
    out.push_str("]}");
}

/// Whitespace of a `logrel-metrics-v1` document: the only difference
/// between [`to_json`] and [`to_json_line`].
struct Layout {
    /// Before each top-level key and section close.
    outer: &'static str,
    /// Before each entry inside a section.
    inner: &'static str,
    /// Between a key and its value.
    colon: &'static str,
    /// Between the items of a histogram.
    comma: &'static str,
    /// The document's closing brace.
    end: &'static str,
}

const PRETTY: Layout = Layout {
    outer: "\n  ",
    inner: "\n    ",
    colon: ": ",
    comma: ", ",
    end: "\n}\n",
};

const COMPACT: Layout = Layout {
    outer: "",
    inner: "",
    colon: ":",
    comma: ",",
    end: "}",
};

impl Layout {
    /// Writes `"name": ` after `indent`.
    fn key(&self, out: &mut String, indent: &str, name: &str) {
        out.push_str(indent);
        string_into(out, name);
        out.push_str(self.colon);
    }

    /// Writes the object `"title": {"name": value, ...}`, each value by
    /// `value`.
    fn section<T>(
        &self,
        out: &mut String,
        title: &str,
        entries: impl Iterator<Item = (&'static str, T)>,
        mut value: impl FnMut(&mut String, T),
    ) {
        self.key(out, self.outer, title);
        out.push('{');
        for (i, (name, v)) in entries.enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.key(out, self.inner, name);
            value(out, v);
        }
        out.push_str(self.outer);
        out.push('}');
    }

    /// `{"buckets": [[le, cum], ..., ["+Inf", count]], "sum": s, "count": n}`.
    fn histogram(&self, out: &mut String, h: &Histogram) {
        let sep = self.comma;
        out.push('{');
        self.key(out, "", "buckets");
        out.push('[');
        for (bound, &cum) in h.bounds().iter().zip(&h.cumulative()) {
            out.push('[');
            number_into(out, *bound);
            out.push_str(sep);
            uint_into(out, cum);
            out.push(']');
            out.push_str(sep);
        }
        out.push_str("[\"+Inf\"");
        out.push_str(sep);
        uint_into(out, h.count());
        out.push_str("]]");
        out.push_str(sep);
        self.key(out, "", "sum");
        number_into(out, h.sum());
        out.push_str(sep);
        self.key(out, "", "count");
        uint_into(out, h.count());
        out.push('}');
    }
}

/// Renders the registry in layout `l`, every value written straight into
/// the one output string.
fn render_json(reg: &Registry, l: &Layout) -> String {
    // Room for the dumps' events, the bulk of a recording registry's
    // document, so the string grows once or not at all.
    let events: usize = reg
        .recorder()
        .map_or(0, |rec| rec.dumps().iter().map(|d| d.events.len()).sum());
    let mut out = String::with_capacity(4096 + 96 * events);
    out.push('{');
    l.key(&mut out, l.outer, "schema");
    out.push_str("\"logrel-metrics-v1\",");
    l.section(&mut out, "counters", reg.counters(), uint_into);
    out.push(',');
    l.section(&mut out, "gauges", reg.gauges(), number_into);
    out.push(',');
    l.section(&mut out, "histograms", reg.histograms(), |out, h| {
        l.histogram(out, h);
    });
    if let Some(rec) = reg.recorder() {
        out.push(',');
        l.key(&mut out, l.outer, "dumps");
        out.push('[');
        for (i, dump) in rec.dumps().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(l.inner);
            dump_into(&mut out, dump);
        }
        out.push_str(l.outer);
        out.push(']');
    }
    out.push_str(l.end);
    out
}

/// Renders the registry as a self-describing JSON document.
///
/// Layout:
///
/// ```json
/// {
///   "schema": "logrel-metrics-v1",
///   "counters": { "name": 1, ... },
///   "gauges": { "name": 0.5, ... },
///   "histograms": { "name": { "buckets": [[le, cum], ...],
///                              "sum": 1.0, "count": 3 }, ... },
///   "dumps": [ { "trigger": "...", "at": 0, "events": [...] }, ... ]
/// }
/// ```
///
/// `dumps` is present only when the registry carries a flight recorder.
#[must_use]
pub fn to_json(reg: &Registry) -> String {
    render_json(reg, &PRETTY)
}

/// Renders the registry as a single compact `logrel-metrics-v1` JSON
/// line (no interior newlines, no trailing newline) — the wire format of
/// the line-delimited job service, where one response is one line.
///
/// The same renderer as [`to_json`] with the whitespace left out, so the
/// two documents parse to the same value by construction.
#[must_use]
pub fn to_json_line(reg: &Registry) -> String {
    render_json(reg, &COMPACT)
}

/// The `format!`-based renderer [`render_json`] replaced, kept as the
/// byte-for-byte oracle of the in-place one.
#[cfg(test)]
mod oracle {
    use super::Layout;
    use crate::metrics::{Histogram, Registry};
    use crate::recorder::{Dump, DumpTrigger, ObsEvent};
    use logrel_core::json::{self, number};

    fn event_json(event: &ObsEvent) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"kind\": {}", json::string(event.kind())));
        s.push_str(&format!(", \"at\": {}", event.at()));
        match event {
            ObsEvent::Vote {
                task,
                outcome,
                delivered,
                replicas,
                ..
            } => {
                s.push_str(&format!(
                    ", \"task\": {task}, \"outcome\": \"{}\", \"delivered\": {delivered}, \"replicas\": {replicas}",
                    outcome.label()
                ));
            }
            ObsEvent::ReplicaDrop {
                task, host, reason, ..
            } => {
                s.push_str(&format!(
                    ", \"task\": {task}, \"host\": {host}, \"reason\": \"{}\"",
                    reason.label()
                ));
            }
            ObsEvent::HostDown { host, .. } | ObsEvent::HostUp { host, .. } => {
                s.push_str(&format!(", \"host\": {host}"));
            }
            ObsEvent::AlarmRaised {
                comm,
                mean,
                epsilon,
                lrc,
                ..
            } => {
                s.push_str(&format!(
                    ", \"comm\": {comm}, \"mean\": {}, \"epsilon\": {}, \"lrc\": {}",
                    number(*mean),
                    number(*epsilon),
                    number(*lrc)
                ));
            }
            ObsEvent::AlarmCleared { comm, mean, .. } => {
                s.push_str(&format!(", \"comm\": {comm}, \"mean\": {}", number(*mean)));
            }
            ObsEvent::DegraderEngaged { rule, .. } => {
                s.push_str(&format!(", \"rule\": {rule}"));
            }
            ObsEvent::ModeSwitch { event, .. } => {
                s.push_str(&format!(", \"event\": {}", json::string(event)));
            }
        }
        s.push('}');
        s
    }

    fn dump_json(dump: &Dump) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"trigger\": {}",
            json::string(dump.trigger.label())
        ));
        if let DumpTrigger::AlarmRaised { comm } = &dump.trigger {
            s.push_str(&format!(", \"comm\": {comm}"));
        }
        s.push_str(&format!(", \"at\": {}", dump.at));
        s.push_str(", \"events\": [");
        for (i, e) in dump.events.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&event_json(e));
        }
        s.push_str("]}");
        s
    }

    fn key(l: &Layout, out: &mut String, indent: &str, name: &str) {
        out.push_str(indent);
        out.push('"');
        json::escape_into(out, name);
        out.push('"');
        out.push_str(l.colon);
    }

    fn section(
        l: &Layout,
        out: &mut String,
        title: &str,
        entries: impl Iterator<Item = (&'static str, String)>,
    ) {
        key(l, out, l.outer, title);
        out.push('{');
        for (i, (name, value)) in entries.enumerate() {
            if i > 0 {
                out.push(',');
            }
            key(l, out, l.inner, name);
            out.push_str(&value);
        }
        out.push_str(l.outer);
        out.push('}');
    }

    fn histogram(l: &Layout, h: &Histogram) -> String {
        let sep = l.comma;
        let mut out = String::from("{");
        key(l, &mut out, "", "buckets");
        out.push('[');
        for (bound, cum) in h.bounds().iter().zip(&h.cumulative()) {
            out.push_str(&format!("[{}{sep}{cum}]{sep}", number(*bound)));
        }
        out.push_str(&format!("[\"+Inf\"{sep}{}]]{sep}", h.count()));
        key(l, &mut out, "", "sum");
        out.push_str(&number(h.sum()));
        out.push_str(sep);
        key(l, &mut out, "", "count");
        out.push_str(&format!("{}}}", h.count()));
        out
    }

    pub(super) fn render_json(reg: &Registry, l: &Layout) -> String {
        let mut out = String::from("{");
        key(l, &mut out, l.outer, "schema");
        out.push_str("\"logrel-metrics-v1\",");
        section(
            l,
            &mut out,
            "counters",
            reg.counters().map(|(n, v)| (n, v.to_string())),
        );
        out.push(',');
        section(
            l,
            &mut out,
            "gauges",
            reg.gauges().map(|(n, v)| (n, number(v))),
        );
        out.push(',');
        section(
            l,
            &mut out,
            "histograms",
            reg.histograms().map(|(n, h)| (n, histogram(l, h))),
        );
        if let Some(rec) = reg.recorder() {
            out.push(',');
            key(l, &mut out, l.outer, "dumps");
            out.push('[');
            for (i, dump) in rec.dumps().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(l.inner);
                out.push_str(&dump_json(dump));
            }
            out.push_str(l.outer);
            out.push(']');
        }
        out.push_str(l.end);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::names;
    use crate::metrics::MetricsSink;
    use crate::recorder::{DropReason, FlightRecorder, VoteOutcome};
    use logrel_core::json;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> Registry {
        let mut r = Registry::with_recorder(8);
        r.add(names::ROUNDS, 3);
        r.add(names::VOTE_UNANIMOUS, 18);
        r.set_gauge(names::HOSTS_UP, 3.0);
        r.observe(names::REPLICAS_PER_VOTE, 1.0);
        r.event(&ObsEvent::Vote {
            at: 500,
            task: 0,
            outcome: VoteOutcome::Unanimous,
            delivered: 1,
            replicas: 1,
        });
        r.recorder_mut().unwrap().dump_now(500);
        r
    }

    #[test]
    fn prometheus_text_has_help_type_and_samples() {
        let text = to_prometheus(&sample());
        assert!(text.contains("# HELP logrel_rounds_total Simulated rounds completed\n"));
        assert!(text.contains("# TYPE logrel_rounds_total counter\n"));
        assert!(text.contains("logrel_rounds_total 3\n"));
        assert!(text.contains("logrel_hosts_up 3\n"));
        assert!(text.contains("logrel_replicas_per_vote_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("logrel_replicas_per_vote_sum 1\n"));
        assert!(text.contains("logrel_replicas_per_vote_count 1\n"));
        // Cumulative le buckets are monotone: le="1" already holds the obs.
        assert!(text.contains("logrel_replicas_per_vote_bucket{le=\"1\"} 1\n"));
    }

    #[test]
    fn json_is_schema_tagged_and_carries_dumps() {
        let json = to_json(&sample());
        assert!(json.contains("\"schema\": \"logrel-metrics-v1\""));
        assert!(json.contains("\"logrel_rounds_total\": 3"));
        assert!(json.contains("\"dumps\": ["));
        assert!(json.contains("\"trigger\": \"manual\""));
        assert!(json.contains("\"outcome\": \"unanimous\""));
    }

    #[test]
    fn exports_are_deterministic() {
        assert_eq!(to_prometheus(&sample()), to_prometheus(&sample()));
        assert_eq!(to_json(&sample()), to_json(&sample()));
        assert_eq!(to_json_line(&sample()), to_json_line(&sample()));
    }

    #[test]
    fn json_line_is_single_line_and_parses_to_the_pretty_document() {
        let mut reg = sample();
        reg.set_gauge(names::CERTIFY_MIN_SLACK, f64::NEG_INFINITY);
        let line = to_json_line(&reg);
        assert!(!line.contains('\n'), "line format must be newline-free");
        assert!(line.starts_with("{\"schema\":\"logrel-metrics-v1\""));
        let pretty = json::parse(&to_json(&reg)).expect("pretty document parses");
        assert_eq!(json::parse(&line).expect("line parses"), pretty);
        assert!(pretty.get("dumps").is_some());
        let gauges = pretty.get("gauges").unwrap();
        assert_eq!(
            gauges
                .get(names::CERTIFY_MIN_SLACK)
                .and_then(json::Json::as_str),
            Some("-Inf")
        );
    }

    #[test]
    fn json_handles_nonfinite_gauges_as_strings() {
        let mut r = Registry::new();
        r.set_gauge(names::HOSTS_UP, f64::INFINITY);
        let json = to_json(&r);
        assert!(json.contains("\"logrel_hosts_up\": \"+Inf\""));
    }

    /// A float the exporters must spell right: ordinary, integral,
    /// extreme, signed zero or not finite.
    fn float(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::MAX,
            5 => f64::MIN_POSITIVE,
            6 => rng.gen_range(0..1_000u32) as f64,
            _ => rng.gen::<f64>() * 10f64.powi(rng.gen_range(-12..12)),
        }
    }

    /// An instant or index: small, or at the top of its range.
    fn int(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..4) {
            0 => u64::MAX,
            1 => rng.gen(),
            _ => rng.gen_range(0..100),
        }
    }

    /// A mode-switch name that may need escaping or be non-ASCII.
    fn name(rng: &mut StdRng) -> String {
        const PARTS: [&str; 10] = [
            "degrade", "\"", "\\", "\n", "\t", "\u{1}", "\u{1f}", "é", "日本", "🚗",
        ];
        (0..rng.gen_range(0..5))
            .map(|_| PARTS[rng.gen_range(0..PARTS.len())])
            .collect()
    }

    /// An event of any variant, with random fields.
    fn event(rng: &mut StdRng) -> ObsEvent {
        let at = int(rng);
        let idx = |rng: &mut StdRng| int(rng) as usize;
        match rng.gen_range(0..8) {
            0 => ObsEvent::Vote {
                at,
                task: idx(rng),
                outcome: [
                    VoteOutcome::Unanimous,
                    VoteOutcome::Majority,
                    VoteOutcome::Tie,
                    VoteOutcome::Silent,
                ][rng.gen_range(0..4)],
                delivered: idx(rng),
                replicas: idx(rng),
            },
            1 => ObsEvent::ReplicaDrop {
                at,
                task: idx(rng),
                host: idx(rng),
                reason: [
                    DropReason::NotExecuted,
                    DropReason::HostDown,
                    DropReason::Broadcast,
                    DropReason::Warmup,
                    DropReason::Excluded,
                ][rng.gen_range(0..5)],
            },
            2 => ObsEvent::HostDown { at, host: idx(rng) },
            3 => ObsEvent::HostUp { at, host: idx(rng) },
            4 => ObsEvent::AlarmRaised {
                at,
                comm: idx(rng),
                mean: float(rng),
                epsilon: float(rng),
                lrc: float(rng),
            },
            5 => ObsEvent::AlarmCleared {
                at,
                comm: idx(rng),
                mean: float(rng),
            },
            6 => ObsEvent::DegraderEngaged { at, rule: idx(rng) },
            _ => ObsEvent::ModeSwitch {
                at,
                event: name(rng),
            },
        }
    }

    /// A registry with random counters, gauges and histograms (catalogued
    /// names and names that need escaping), and maybe a recorder holding
    /// events and manual, panic and alarm dumps.
    fn registry(rng: &mut StdRng) -> Registry {
        const NAMES: [&str; 6] = [
            names::ROUNDS,
            names::HOSTS_UP,
            names::REPLICAS_PER_VOTE,
            names::ALARM_RAISED,
            "odd \"name\"\n",
            "naïve_total",
        ];
        let mut reg = if rng.gen_bool(0.8) {
            Registry::with_recorder(rng.gen_range(1..40))
        } else {
            Registry::new()
        };
        for _ in 0..rng.gen_range(0..12) {
            let name = NAMES[rng.gen_range(0..NAMES.len())];
            match rng.gen_range(0..3) {
                0 => reg.add(name, int(rng) / 16),
                1 => reg.set_gauge(name, float(rng)),
                _ => reg.observe_n(name, float(rng), rng.gen_range(1..5)),
            }
        }
        for _ in 0..rng.gen_range(0..60) {
            reg.event(&event(rng));
            if let Some(rec) = reg.recorder_mut() {
                match rng.gen_range(0..12) {
                    0 => rec.dump_now(int(rng)),
                    1 => rec.dump_on_panic(int(rng)),
                    _ => {}
                }
            }
        }
        reg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The in-place renderer writes byte for byte what the
        /// `format!`-based one wrote, in both layouts, and the Prometheus
        /// text of the same registry stays what it was.
        #[test]
        fn in_place_json_matches_the_format_renderer(seed in any::<u64>()) {
            let reg = registry(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(to_json(&reg), oracle::render_json(&reg, &PRETTY));
            prop_assert_eq!(to_json_line(&reg), oracle::render_json(&reg, &COMPACT));
            let line = to_json_line(&reg);
            prop_assert_eq!(json::parse(&line), json::parse(&to_json(&reg)));
            prop_assert!(reg.recorder().is_none_or(|r| r.dumps().len() <= FlightRecorder::MAX_DUMPS));
        }
    }
}
