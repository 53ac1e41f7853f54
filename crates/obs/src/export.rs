//! Snapshot export in the `CRITERION_SUMMARY_JSON` flow, and Chrome
//! trace-event export for span traces.
//!
//! The vendored criterion harness appends one JSON line per bench
//! (`{"name":..,"ns_per_iter":..,"iters":..}`) to the file named by the
//! `CRITERION_SUMMARY_JSON` environment variable. [`append_summary_snapshot`]
//! appends metric lines (`{"metric":"<label>/<name>","value":N}`) to the
//! same file, so one CI artifact carries timings and the enforcement
//! counters that explain them side by side.
//!
//! [`chrome_trace`] renders finished spans (see [`crate::span`]) as
//! Chrome trace-event JSON — duration (`ph:"B"`/`ph:"E"`) pairs that
//! `chrome://tracing` and Perfetto's legacy importer load directly.
//! `RIDL_TRACE_JSON=<path>` both enables tracing
//! ([`init_tracing_from_env`]) and names the file the trace is written to
//! at the end of a run ([`write_chrome_trace_env`]).
//!
//! Every line and event is a [`Json`] value rendered by [`crate::json`].

use std::fs::OpenOptions;
use std::io::Write;
use std::sync::OnceLock;

use crate::json::{obj, Json};
use crate::span::{attrs_json, SpanEvent};
use crate::{ConstraintClass, MetricsSnapshot, COUNTER_NAMES};

/// Renders `snap` as JSON lines, one per non-zero counter, each prefixed
/// with `label` (`{"metric":"<label>/<name>","value":N}`). Zero counters
/// are skipped so bench artifacts stay small and diffs meaningful.
pub fn snapshot_jsonl(label: &str, snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut line = |metric: String, value: u64| {
        out.push_str(&obj([("metric", metric.into()), ("value", value.into())]).to_string());
        out.push('\n');
    };
    for (i, name) in COUNTER_NAMES.iter().enumerate() {
        if snap.counters[i] != 0 {
            line(format!("{label}/{name}"), snap.counters[i]);
        }
    }
    for class in ConstraintClass::ALL {
        let k = snap.kind(class);
        for (suffix, value) in [
            ("checks", k.checks),
            ("violations", k.violations),
            ("nanos", k.nanos),
        ] {
            if value != 0 {
                line(format!("{label}/kind.{}.{suffix}", class.name()), value);
            }
        }
    }
    out
}

/// Appends `snap` (rendered by [`snapshot_jsonl`]) to the file named by
/// `CRITERION_SUMMARY_JSON`, creating it if needed. Does nothing when the
/// variable is unset; reports write errors to stderr rather than
/// panicking, mirroring the vendored criterion harness.
pub fn append_summary_snapshot(label: &str, snap: &MetricsSnapshot) {
    let Ok(path) = std::env::var("CRITERION_SUMMARY_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let body = snapshot_jsonl(label, snap);
    if body.is_empty() {
        return;
    }
    match OpenOptions::new().create(true).append(true).open(&path) {
        Ok(mut f) => {
            if let Err(e) = f.write_all(body.as_bytes()) {
                eprintln!("ridl-obs: cannot write {path}: {e}");
            }
        }
        Err(e) => eprintln!("ridl-obs: cannot open {path}: {e}"),
    }
}

// ---- Chrome trace-event export ----

/// One trace event; `ts` is in microseconds since the trace epoch.
fn trace_event(e: &SpanEvent, phase: &str, ts_ns: u64) -> Json {
    let mut fields = vec![
        ("name", Json::from(e.name)),
        ("cat", Json::from("ridl")),
        ("ph", Json::from(phase)),
        ("ts", Json::Float(ts_ns as f64 / 1e3)),
        ("pid", Json::Int(1)),
        ("tid", Json::from(e.thread)),
    ];
    if phase == "B" && !e.attrs.is_empty() {
        fields.push(("args", attrs_json(&e.attrs)));
    }
    obj(fields)
}

/// Renders finished spans as Chrome trace-event JSON: one `B`/`E` pair
/// per span, one event per line, timestamps in microseconds since the
/// trace epoch. Events are emitted thread by thread in nesting order, so
/// begin/end pairs are balanced and timestamps are monotone within each
/// `tid` — the two properties [`validate_chrome_trace`] (and CI) check.
/// Events are rendered one at a time into the output, so a long trace
/// never exists in memory as one value tree.
///
/// Spans whose parent chain was truncated at the collector cap are
/// omitted (a child always finishes before its parent, so a missing
/// parent means the whole enclosing region is incomplete); `dropped` is
/// the cap count reported by [`crate::span::take_events`]. Both counts
/// land in the trace's `otherData` metadata.
pub fn chrome_trace(events: &[SpanEvent], dropped: u64) -> String {
    use std::collections::BTreeMap;
    use std::collections::HashSet;
    let ids: HashSet<u64> = events.iter().map(|e| e.id).collect();
    // thread -> roots; span id -> children. Kept in start order.
    let mut roots: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.parent {
            None => roots.entry(e.thread).or_default().push(i),
            Some(p) if ids.contains(&p) => children.entry(p).or_default().push(i),
            Some(_) => {}
        }
    }
    for list in roots.values_mut().chain(children.values_mut()) {
        list.sort_by_key(|&i| (events[i].start_ns, events[i].id));
    }
    fn emit(
        out: &mut Vec<String>,
        events: &[SpanEvent],
        children: &BTreeMap<u64, Vec<usize>>,
        idx: usize,
    ) {
        let e = &events[idx];
        out.push(trace_event(e, "B", e.start_ns).to_string());
        if let Some(kids) = children.get(&e.id) {
            for &c in kids {
                emit(out, events, children, c);
            }
        }
        out.push(trace_event(e, "E", e.start_ns.saturating_add(e.dur_ns)).to_string());
    }
    let mut lines = Vec::new();
    for list in roots.values() {
        for &r in list {
            emit(&mut lines, events, &children, r);
        }
    }
    // Descendants of an orphan are counted as unexported too.
    let emitted = lines.len() as u64 / 2;
    let other = obj([
        ("spans", emitted.into()),
        ("unexported", (events.len() as u64 - emitted).into()),
        ("dropped_at_cap", dropped.into()),
    ]);
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{other},\"traceEvents\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

/// Enables span tracing when `RIDL_TRACE_JSON` names a file. Checked
/// once per process; returns whether tracing is on afterwards.
pub fn init_tracing_from_env() -> bool {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Ok(path) = std::env::var("RIDL_TRACE_JSON") {
            if !path.is_empty() {
                crate::span::set_tracing(true);
            }
        }
    });
    crate::span::tracing_enabled()
}

/// Writes `events` as Chrome trace JSON to `path`.
pub fn write_chrome_trace(path: &str, events: &[SpanEvent], dropped: u64) -> std::io::Result<()> {
    let text = chrome_trace(events, dropped);
    std::fs::write(path, text)
}

/// Drains the span collector and writes it as Chrome trace JSON to the
/// file named by `RIDL_TRACE_JSON`. Does nothing when the variable is
/// unset; reports I/O errors on stderr once rather than panicking.
/// Returns the path written, if any.
pub fn write_chrome_trace_env() -> Option<String> {
    let path = std::env::var("RIDL_TRACE_JSON").ok()?;
    if path.is_empty() {
        return None;
    }
    let (events, dropped) = crate::span::take_events();
    if events.is_empty() && dropped == 0 {
        // Nothing recorded (or already exported and drained): leave any
        // previously written file alone.
        return None;
    }
    match write_chrome_trace(&path, &events, dropped) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("ridl-obs: cannot write {path}: {e}");
            None
        }
    }
}

/// Summary statistics from a validated Chrome trace file.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChromeTraceStats {
    /// Balanced begin/end pairs found.
    pub spans: u64,
    /// Distinct `tid` values seen.
    pub threads: u64,
    /// `dropped_at_cap` from the trace's `otherData`: spans lost when the
    /// collector hit its cap. Non-zero means the trace is incomplete —
    /// `ridl tracecheck` warns but does not fail.
    pub dropped_at_cap: u64,
}

/// Validates `text` as a Chrome trace JSON document in the shape
/// [`chrome_trace`] emits: every `B` has a matching `E` with the same
/// name on the same `tid` (properly nested), timestamps are monotone
/// non-decreasing within each `tid`, and at least one span is present.
/// CI runs it via `ridl tracecheck`.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    use std::collections::BTreeMap;
    let doc = crate::json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("not a Chrome trace object (no traceEvents)")?;
    let mut stats = ChromeTraceStats {
        dropped_at_cap: doc
            .get("otherData")
            .and_then(|o| o.get("dropped_at_cap"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
        ..ChromeTraceStats::default()
    };
    let mut stacks: BTreeMap<i64, Vec<(&str, f64)>> = BTreeMap::new();
    let mut last_ts: BTreeMap<i64, f64> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let n = i + 1;
        let field = |key: &str| e.get(key).ok_or(format!("event {n}: no {key}"));
        let bad = |key: &str| format!("event {n}: bad {key}");
        let ph = field("ph")?.as_str().ok_or_else(|| bad("ph"))?;
        let name = field("name")?.as_str().ok_or_else(|| bad("name"))?;
        let tid = field("tid")?.as_i64().ok_or_else(|| bad("tid"))?;
        let ts = field("ts")?.as_f64().ok_or_else(|| bad("ts"))?;
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(format!(
                "event {n}: timestamp {ts} goes backwards on tid {tid} (previous {prev})"
            ));
        }
        *prev = ts;
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push((name, ts)),
            "E" => {
                let Some((open, open_ts)) = stack.pop() else {
                    return Err(format!(
                        "event {n}: E event for {name} on tid {tid} with no open span"
                    ));
                };
                if open != name {
                    return Err(format!(
                        "event {n}: E event for {name} closes open span {open} on tid {tid}"
                    ));
                }
                if ts < open_ts {
                    return Err(format!(
                        "event {n}: span {name} ends before it begins on tid {tid}"
                    ));
                }
                stats.spans += 1;
            }
            other => return Err(format!("event {n}: unexpected phase {other}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!(
                "unbalanced trace: span {name} on tid {tid} never ends"
            ));
        }
    }
    stats.threads = stacks.len() as u64;
    if stats.spans == 0 {
        return Err("trace contains no spans".into());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::AttrValue;
    use crate::{metrics, snapshot};

    #[test]
    fn snapshot_jsonl_skips_zeros_and_prefixes_label() {
        let before = snapshot();
        metrics().statements.add(2);
        metrics().per_kind[ConstraintClass::ForeignKey.index()]
            .violations
            .add(1);
        let delta = snapshot().since(&before);
        let text = snapshot_jsonl("unit-test", &delta);
        assert!(text.contains("{\"metric\":\"unit-test/engine.statements\",\"value\":2}"));
        assert!(text.contains("{\"metric\":\"unit-test/kind.foreign_key.violations\",\"value\":1}"));
        assert!(!text.contains("bulk_loads"));
        for line in text.lines() {
            assert!(line.starts_with("{\"metric\":\"unit-test/"));
            assert!(line.ends_with('}'));
        }
    }

    fn ev(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        thread: u64,
    ) -> SpanEvent {
        SpanEvent {
            id,
            parent,
            name,
            start_ns,
            dur_ns,
            thread,
            depth: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn chrome_trace_round_trips_through_validation() {
        let mut root = ev(1, None, "outer", 100, 10_000, 1);
        root.attrs.push(("kind", AttrValue::Str("x \"q\"".into())));
        root.attrs.push(("n", AttrValue::U64(3)));
        let events = vec![
            root,
            ev(2, Some(1), "inner", 500, 1_000, 1),
            ev(3, Some(1), "inner", 2_000, 0, 1),
            ev(4, None, "worker", 600, 300, 2),
        ];
        let text = chrome_trace(&events, 0);
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"args\":{\"kind\":\"x \\\"q\\\"\",\"n\":3}"));
        assert!(
            text.contains("\"ts\":0.1}"),
            "microsecond timestamps: {text}"
        );
        let stats = validate_chrome_trace(&text).expect("well-formed");
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn chrome_trace_omits_orphaned_subtrees() {
        // Parent id 9 was dropped at the cap: its child and grandchild
        // must not be exported (they would break per-tid monotonicity).
        let events = vec![
            ev(1, None, "root", 0, 10_000, 1),
            ev(2, Some(9), "orphan", 2_000, 100, 1),
            ev(3, Some(2), "orphan_child", 2_010, 10, 1),
        ];
        let text = chrome_trace(&events, 5);
        assert!(!text.contains("orphan"));
        assert!(text.contains("\"unexported\":2"));
        assert!(text.contains("\"dropped_at_cap\":5"));
        let stats = validate_chrome_trace(&text).expect("well-formed");
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.dropped_at_cap, 5);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        let unbalanced =
            "{\"traceEvents\":[\n{\"name\":\"a\",\"ph\":\"B\",\"ts\":1.0,\"pid\":1,\"tid\":1}\n]}";
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("never ends"));
        let backwards = "{\"traceEvents\":[\n\
            {\"name\":\"a\",\"ph\":\"B\",\"ts\":5.0,\"pid\":1,\"tid\":1},\n\
            {\"name\":\"a\",\"ph\":\"E\",\"ts\":4.0,\"pid\":1,\"tid\":1}\n]}";
        assert!(validate_chrome_trace(backwards)
            .unwrap_err()
            .contains("backwards"));
        let crossed = "{\"traceEvents\":[\n\
            {\"name\":\"a\",\"ph\":\"B\",\"ts\":1.0,\"pid\":1,\"tid\":1},\n\
            {\"name\":\"b\",\"ph\":\"B\",\"ts\":2.0,\"pid\":1,\"tid\":1},\n\
            {\"name\":\"a\",\"ph\":\"E\",\"ts\":3.0,\"pid\":1,\"tid\":1},\n\
            {\"name\":\"b\",\"ph\":\"E\",\"ts\":4.0,\"pid\":1,\"tid\":1}\n]}";
        assert!(validate_chrome_trace(crossed)
            .unwrap_err()
            .contains("closes open span"));
        assert!(validate_chrome_trace("{\"traceEvents\":[\n]}")
            .unwrap_err()
            .contains("no spans"));
        assert!(validate_chrome_trace("[]").is_err());
        // Truncated JSON is rejected outright, not scanned line by line.
        let text = chrome_trace(&[ev(1, None, "root", 0, 10, 1)], 0);
        assert!(validate_chrome_trace(&text[..text.len() - 4]).is_err());
    }
}
