//! The durability flight recorder: a bounded, mutex-sharded ring buffer
//! of structured events that is *always on* — unlike span tracing, which
//! is opt-in — so that after a crash, a recovery, or a fault injection
//! there is a record of what the durability machinery was doing, in
//! order, without anyone having turned anything on first.
//!
//! Events are small: a process-wide sequence number, a nanosecond offset
//! from the journal epoch, a [`Severity`], a static `kind` string
//! (`wal.append`, `ckpt.decision`, `recover.replay`, …) and a short list
//! of typed attributes (reusing [`AttrValue`] from the span layer). The
//! ring is sharded by thread across [`JOURNAL_SHARDS`] mutexes; each
//! event is inserted whole under one shard lock, so concurrent writers
//! can never tear or interleave an event. When a shard is full the
//! oldest event in that shard is overwritten (and counted) — a flight
//! recorder keeps the most recent history, not the first.
//!
//! The record path costs one atomic fetch-add (the sequence number), one
//! monotonic-clock read, and one rarely-contended mutex push — tens of
//! nanoseconds, cheap enough to leave in the WAL commit path.
//!
//! The journal is also the one channel for discrete events outside the
//! durability machinery: a validator worker panic, for example, is an
//! `Error`-severity `validate.worker_panic` event.
//!
//! Dumps are JSONL (one event per line, first line a `journal.meta`
//! summary), rendered through [`crate::json`]: [`dump_env`] writes the
//! current contents to the file named by `RIDL_JOURNAL_JSONL`, recovery
//! calls it when a store is reopened, and [`install_panic_hook`] chains
//! a hook that dumps on panic (to the env file when set, otherwise a
//! short tail to stderr).

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{obj, Json};
use crate::span::{attrs_json, AttrValue};

/// Event severity, ordered: `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// High-volume operational detail (per-commit WAL appends).
    Debug,
    /// Notable decisions (checkpoint kind chosen, recovery steps).
    Info,
    /// Recoverable anomalies (torn tail discarded, WAL rewind).
    Warn,
    /// Durability failures (WAL poisoned, checkpoint failed).
    Error,
}

impl Severity {
    /// The lowercase name used in dumps and CLI filters.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses a severity name (as printed by [`Severity::name`]).
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "debug" => Some(Severity::Debug),
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// One recorded flight-recorder event.
#[derive(Clone, Debug)]
pub struct JournalEvent {
    /// Process-wide sequence number (1-based, never reused): the total
    /// order across shards.
    pub seq: u64,
    /// Nanoseconds since the journal epoch (first journal activity).
    pub t_ns: u64,
    /// Event severity.
    pub severity: Severity,
    /// Static event kind, dot-namespaced (`wal.fsync`, `ckpt.decision`).
    pub kind: &'static str,
    /// Typed attributes, inserted atomically with the event.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Number of ring shards. Threads hash onto shards, so writers on
/// different shards never contend.
pub const JOURNAL_SHARDS: usize = 8;

/// Events retained per shard; total capacity is
/// `JOURNAL_SHARDS * SHARD_CAPACITY`.
pub const SHARD_CAPACITY: usize = 512;

struct Shard {
    events: VecDeque<JournalEvent>,
    overwritten: u64,
}

impl Shard {
    const fn new() -> Self {
        Shard {
            events: VecDeque::new(),
            overwritten: 0,
        }
    }
}

static SHARDS: [Mutex<Shard>; JOURNAL_SHARDS] = [
    Mutex::new(Shard::new()),
    Mutex::new(Shard::new()),
    Mutex::new(Shard::new()),
    Mutex::new(Shard::new()),
    Mutex::new(Shard::new()),
    Mutex::new(Shard::new()),
    Mutex::new(Shard::new()),
    Mutex::new(Shard::new()),
];

static SEQ: AtomicU64 = AtomicU64::new(1);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn my_shard() -> usize {
    MY_SHARD.with(|c| {
        let mut idx = c.get();
        if idx == usize::MAX {
            idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % JOURNAL_SHARDS;
            c.set(idx);
        }
        idx
    })
}

/// Records one event: sequence number, timestamp, and attributes are
/// captured and inserted whole under a single shard lock, so a reader
/// never observes a torn event. When the shard is full the oldest event
/// is overwritten and counted (see [`overwritten`]).
pub fn record(severity: Severity, kind: &'static str, attrs: Vec<(&'static str, AttrValue)>) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let t_ns = u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX);
    let event = JournalEvent {
        seq,
        t_ns,
        severity,
        kind,
        attrs,
    };
    let mut shard = SHARDS[my_shard()].lock().expect("journal shard poisoned");
    if shard.events.len() >= SHARD_CAPACITY {
        shard.events.pop_front();
        shard.overwritten += 1;
        crate::metrics().journal_overwritten.inc();
    }
    shard.events.push_back(event);
    crate::metrics().journal_events.inc();
}

/// Copies the journal without draining it: all retained events merged
/// across shards in sequence order, plus the total count of events
/// overwritten at capacity.
pub fn snapshot_events() -> (Vec<JournalEvent>, u64) {
    let mut all = Vec::new();
    let mut overwritten = 0;
    for shard in &SHARDS {
        let s = shard.lock().expect("journal shard poisoned");
        all.extend(s.events.iter().cloned());
        overwritten += s.overwritten;
    }
    all.sort_by_key(|e| e.seq);
    (all, overwritten)
}

/// Drains the journal: like [`snapshot_events`] but the ring (and the
/// overwrite counts) are reset.
pub fn take_events() -> (Vec<JournalEvent>, u64) {
    let mut all = Vec::new();
    let mut overwritten = 0;
    for shard in &SHARDS {
        let mut s = shard.lock().expect("journal shard poisoned");
        all.extend(std::mem::take(&mut s.events));
        overwritten += s.overwritten;
        s.overwritten = 0;
    }
    all.sort_by_key(|e| e.seq);
    (all, overwritten)
}

/// Clears the ring and the overwrite counts.
pub fn clear() {
    for shard in &SHARDS {
        let mut s = shard.lock().expect("journal shard poisoned");
        s.events.clear();
        s.overwritten = 0;
    }
}

/// Total events overwritten at capacity since the last clear/drain.
pub fn overwritten() -> u64 {
    SHARDS
        .iter()
        .map(|s| s.lock().expect("journal shard poisoned").overwritten)
        .sum()
}

/// Renders one event as a single JSON line (no trailing newline):
/// `seq`, `t_ns`, `sev`, `kind` and, when present, `attrs`, in the
/// key-sorted order every [`Json`] object renders in.
pub fn event_json(e: &JournalEvent) -> String {
    let mut fields = vec![
        ("seq", Json::from(e.seq)),
        ("t_ns", Json::from(e.t_ns)),
        ("sev", Json::from(e.severity.name())),
        ("kind", Json::from(e.kind)),
    ];
    if !e.attrs.is_empty() {
        fields.push(("attrs", attrs_json(&e.attrs)));
    }
    obj(fields).to_string()
}

/// Renders events as JSONL: a leading `journal.meta` line carrying the
/// retained/overwritten counts, then one line per event in sequence
/// order.
pub fn to_jsonl(events: &[JournalEvent], overwritten: u64) -> String {
    let meta = JournalEvent {
        seq: 0,
        t_ns: 0,
        severity: Severity::Info,
        kind: "journal.meta",
        attrs: vec![
            ("events", events.len().into()),
            ("overwritten", overwritten.into()),
        ],
    };
    let mut out = String::new();
    for e in std::iter::once(&meta).chain(events) {
        out.push_str(&event_json(e));
        out.push('\n');
    }
    out
}

/// Writes the current journal contents (without draining) as JSONL to
/// `path`, replacing any previous dump — each dump is a complete
/// snapshot, so the last one written wins.
pub fn dump_to(path: &str) -> std::io::Result<()> {
    let (events, overwritten) = snapshot_events();
    std::fs::write(path, to_jsonl(&events, overwritten))
}

/// Dumps the journal to the file named by `RIDL_JOURNAL_JSONL`, if set.
/// Returns the path written. Reports I/O errors on stderr rather than
/// panicking — a failed dump must never take down the engine.
pub fn dump_env() -> Option<String> {
    let path = std::env::var("RIDL_JOURNAL_JSONL").ok()?;
    if path.is_empty() {
        return None;
    }
    match dump_to(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("ridl-obs: cannot write journal {path}: {e}");
            None
        }
    }
}

/// Installs a panic hook (once per process, chaining any existing hook)
/// that dumps the journal: to the `RIDL_JOURNAL_JSONL` file when set,
/// otherwise a short tail of the most recent events to stderr — the
/// flight recorder's whole purpose is to still be readable after the
/// crash it just witnessed.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            previous(info);
            match dump_env() {
                Some(path) => eprintln!("ridl-obs: journal dumped to {path}"),
                None => {
                    let (events, overwritten) = snapshot_events();
                    if !events.is_empty() {
                        let tail = events.len().saturating_sub(32);
                        eprintln!(
                            "ridl-obs: journal tail ({} of {} events, {} overwritten):",
                            events.len() - tail,
                            events.len(),
                            overwritten
                        );
                        for e in &events[tail..] {
                            eprintln!("{}", event_json(e));
                        }
                    }
                }
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is process-global; journal tests serialise on one lock so
    // they see only their own events.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn events_record_in_order_with_attrs() {
        let _guard = TEST_LOCK.lock().unwrap();
        clear();
        record(Severity::Info, "test.alpha", vec![("n", AttrValue::U64(1))]);
        record(
            Severity::Warn,
            "test.beta",
            vec![
                ("why", AttrValue::Str("tail".into())),
                ("b", AttrValue::Bool(true)),
            ],
        );
        let (events, overwritten) = snapshot_events();
        assert_eq!(overwritten, 0);
        assert_eq!(events.len(), 2);
        assert!(events[0].seq < events[1].seq);
        assert_eq!(events[0].kind, "test.alpha");
        assert_eq!(events[0].severity, Severity::Info);
        assert_eq!(events[1].attrs.len(), 2);
        assert!(events[0].t_ns <= events[1].t_ns);
        // Snapshot did not drain.
        assert_eq!(snapshot_events().0.len(), 2);
        let (drained, _) = take_events();
        assert_eq!(drained.len(), 2);
        assert!(snapshot_events().0.is_empty());
    }

    #[test]
    fn ring_wraps_keeping_the_most_recent_events() {
        let _guard = TEST_LOCK.lock().unwrap();
        clear();
        // Single-threaded, so everything lands in one shard: overflow it.
        let total = SHARD_CAPACITY + 100;
        let first_seq = SEQ.load(Ordering::Relaxed);
        for i in 0..total {
            record(
                Severity::Debug,
                "test.wrap",
                vec![("i", AttrValue::U64(i as u64))],
            );
        }
        let (events, overwritten) = snapshot_events();
        assert_eq!(events.len(), SHARD_CAPACITY);
        assert_eq!(overwritten, 100);
        // The survivors are exactly the newest SHARD_CAPACITY events, in
        // order, with contiguous sequence numbers.
        for (j, e) in events.iter().enumerate() {
            assert_eq!(e.seq, first_seq + 100 + j as u64);
            assert_eq!(e.attrs[0].1, AttrValue::U64(100 + j as u64));
        }
        clear();
        assert_eq!(overwritten_count_is_reset(), 0);
    }

    fn overwritten_count_is_reset() -> u64 {
        overwritten()
    }

    #[test]
    fn concurrent_writers_never_tear_events() {
        let _guard = TEST_LOCK.lock().unwrap();
        clear();
        const WRITERS: usize = 8;
        const PER_WRITER: usize = 200;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        record(
                            Severity::Info,
                            "test.stress",
                            vec![
                                ("writer", AttrValue::U64(w as u64)),
                                ("i", AttrValue::U64(i as u64)),
                                ("tag", AttrValue::U64((w * PER_WRITER + i) as u64)),
                            ],
                        );
                    }
                });
            }
        });
        let (events, overwritten) = take_events();
        assert_eq!(
            events.len() as u64 + overwritten,
            (WRITERS * PER_WRITER) as u64
        );
        // Every event is whole: all three attrs present and mutually
        // consistent (tag == writer*PER_WRITER + i), and sequence numbers
        // are unique and sorted.
        let mut seen = std::collections::HashSet::new();
        let mut last_seq = 0;
        for e in &events {
            assert!(e.seq > last_seq, "events not in seq order");
            last_seq = e.seq;
            assert_eq!(e.attrs.len(), 3);
            let w = match e.attrs[0].1 {
                AttrValue::U64(v) => v,
                _ => panic!("torn attr"),
            };
            let i = match e.attrs[1].1 {
                AttrValue::U64(v) => v,
                _ => panic!("torn attr"),
            };
            let tag = match e.attrs[2].1 {
                AttrValue::U64(v) => v,
                _ => panic!("torn attr"),
            };
            assert_eq!(tag, w * PER_WRITER as u64 + i, "interleaved event attrs");
            assert!(seen.insert(tag), "duplicate event");
        }
        // Per-writer order is preserved (seq order implies program order
        // within each thread).
        let mut per_writer: Vec<Vec<u64>> = vec![Vec::new(); WRITERS];
        for e in &events {
            let (AttrValue::U64(w), AttrValue::U64(i)) = (&e.attrs[0].1, &e.attrs[1].1) else {
                unreachable!()
            };
            per_writer[*w as usize].push(*i);
        }
        for list in &per_writer {
            assert!(list.windows(2).all(|p| p[0] < p[1]), "writer order lost");
        }
    }

    #[test]
    fn jsonl_dump_shape() {
        let _guard = TEST_LOCK.lock().unwrap();
        clear();
        record(
            Severity::Error,
            "test.dump",
            vec![("msg", AttrValue::Str("a \"b\"".into()))],
        );
        let (events, ov) = snapshot_events();
        let text = to_jsonl(&events, ov);
        let mut lines = text.lines();
        let meta = lines.next().unwrap();
        assert!(meta.contains("\"kind\":\"journal.meta\""));
        assert!(meta.contains("\"events\":1"));
        let line = lines.next().unwrap();
        assert!(line.contains("\"sev\":\"error\""));
        assert!(line.contains("\"kind\":\"test.dump\""));
        assert!(line.contains("\"msg\":\"a \\\"b\\\"\""));
        assert!(lines.next().is_none());
        clear();
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        const KINDS: [&str; 4] = ["test.p.a", "test.p.b", "test.p.c", "test.p.d"];

        proptest! {
            /// Any single-threaded record sequence keeps exactly the
            /// newest `SHARD_CAPACITY` events, in order, and accounts
            /// for every overwritten one.
            #[test]
            fn ring_retention_is_exact(n in 0usize..1500, kind_idx in 0usize..4) {
                let _guard = TEST_LOCK.lock().unwrap();
                clear();
                let kind = KINDS[kind_idx];
                for i in 0..n {
                    record(Severity::Debug, kind, vec![("i", AttrValue::U64(i as u64))]);
                }
                let (events, overwritten) = take_events();
                let kept = n.min(SHARD_CAPACITY);
                prop_assert_eq!(events.len(), kept);
                prop_assert_eq!(overwritten, (n - kept) as u64);
                for (j, e) in events.iter().enumerate() {
                    prop_assert_eq!(e.kind, kind);
                    prop_assert_eq!(&e.attrs[0].1, &AttrValue::U64((n - kept + j) as u64));
                }
                prop_assert!(events.windows(2).all(|p| p[0].seq + 1 == p[1].seq));
            }

            /// JSONL rendering is one well-delimited line per event for
            /// arbitrary (escape-needing) attribute strings.
            #[test]
            fn jsonl_lines_are_well_delimited(s in "\\PC*", n in 0u64..1000) {
                let _guard = TEST_LOCK.lock().unwrap();
                clear();
                record(
                    Severity::Warn,
                    "test.p.json",
                    vec![("s", AttrValue::Str(s)), ("n", AttrValue::U64(n))],
                );
                let (events, ov) = take_events();
                let text = to_jsonl(&events, ov);
                let lines: Vec<&str> = text.lines().collect();
                prop_assert_eq!(lines.len(), 2);
                for line in &lines {
                    prop_assert!(line.starts_with('{') && line.ends_with('}'));
                    // Escaping keeps each event on one line with no raw
                    // control characters.
                    prop_assert!(!line.chars().any(|c| c.is_control()));
                    prop_assert!(crate::json::parse(line).is_ok());
                }
                prop_assert!(lines[1].contains("\"kind\":\"test.p.json\""));
                prop_assert!(lines[1].contains(&format!("\"n\":{n}")));
            }
        }
    }

    #[test]
    fn severity_names_round_trip() {
        for sev in [
            Severity::Debug,
            Severity::Info,
            Severity::Warn,
            Severity::Error,
        ] {
            assert_eq!(Severity::parse(sev.name()), Some(sev));
        }
        assert_eq!(Severity::parse("loud"), None);
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Warn < Severity::Error);
    }
}
