//! The traced run: `bench.<layer>.<call>` spans around every call the
//! benchmark makes into a layer, their self times, the blocking-path
//! accounting and the Chrome trace.
//!
//! Spans are recorded by `ridl_obs`; the bench opens them from its own
//! files with [`call`] and [`timed`]. Like the `ridl_obs` collector, the
//! accumulator here is process-wide: every [`DRAIN_EVERY`] layer calls it
//! drains the collector, far below its cap, keeps the bench spans and
//! counts the layers' internal ones. A span's self time is its duration
//! minus the durations of its direct bench-span children.
//!
//! End-to-end numbers never come from a traced run. Inside one, the
//! measured section alternates traced and untraced blocks, so the same
//! process measures its own tracing overhead.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ridl_obs::span::{self, in_span, SpanEvent};

use crate::stats::Samples;

/// Layer calls between drains of the span collector. A statement records
/// at most a few hundred internal spans, so 64 calls stay far below the
/// collector's cap of [`span::MAX_EVENTS`].
pub const DRAIN_EVERY: u64 = 64;

/// The part of a run a drained span belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Window {
    /// Building the workload's inputs, before timing starts.
    Setup,
    /// The measured section.
    Measured,
    /// The output checks after the measured section.
    Check,
}

struct Acc {
    window: Window,
    /// Self time of every finished bench span, by span name.
    self_ns: BTreeMap<&'static str, Samples>,
    /// Child time already seen for spans that have not finished yet.
    child_ns: BTreeMap<u64, u64>,
    /// Self time of bench spans finished inside the measured section.
    measured_self_ns: u64,
    /// The bench spans, for the Chrome trace.
    kept: Vec<SpanEvent>,
    /// Spans the collector dropped at its cap.
    dropped: u64,
    /// Spans the layers recorded internally (counted, not kept).
    internal: u64,
}

impl Acc {
    const EMPTY: Acc = Acc {
        window: Window::Setup,
        self_ns: BTreeMap::new(),
        child_ns: BTreeMap::new(),
        measured_self_ns: 0,
        kept: Vec::new(),
        dropped: 0,
        internal: 0,
    };
}

static ACC: Mutex<Acc> = Mutex::new(Acc::EMPTY);
static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn acc() -> MutexGuard<'static, Acc> {
    ACC.lock().expect("tracer accumulator poisoned")
}

/// Runs `f`, a call into a layer, inside the bench span `name`.
pub fn call<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let r = in_span(name, f);
    if ENABLED.load(Ordering::Relaxed)
        && CALLS.fetch_add(1, Ordering::Relaxed) % DRAIN_EVERY == DRAIN_EVERY - 1
    {
        drain();
    }
    r
}

/// [`call`], also returning the call's wall time in nanoseconds.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let r = call(name, || {
        let r = f();
        (r, t.elapsed())
    });
    (r.0, u64::try_from(r.1.as_nanos()).unwrap_or(u64::MAX))
}

/// Moves every finished span out of the `ridl_obs` collector into the
/// accumulator, under the current window.
fn drain() {
    let mut acc = acc();
    let (events, dropped) = span::take_events();
    acc.dropped += dropped;
    for mut e in events {
        if !e.name.starts_with("bench.") {
            acc.internal += 1;
            continue;
        }
        let children = acc.child_ns.remove(&e.id).unwrap_or(0);
        let own = e.dur_ns.saturating_sub(children);
        if let Some(p) = e.parent {
            *acc.child_ns.entry(p).or_default() += e.dur_ns;
        }
        acc.self_ns.entry(e.name).or_default().push(own);
        if acc.window == Window::Measured {
            acc.measured_self_ns += own;
        }
        e.attrs.clear();
        acc.kept.push(e);
    }
}

/// The run's handle on span tracing; inert unless tracing was requested.
/// One exists at a time.
pub struct Tracer {
    enabled: bool,
}

impl Tracer {
    /// A tracer; when `enabled`, empties the accumulator and turns on span
    /// tracing and the per-class detail gate process-wide.
    pub fn new(enabled: bool) -> Self {
        if enabled {
            span::clear();
            *acc() = Acc::EMPTY;
            CALLS.store(0, Ordering::Relaxed);
        }
        ENABLED.store(enabled, Ordering::Relaxed);
        let t = Tracer { enabled };
        t.set_active(enabled);
        t
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches span tracing and the detail gate on or off (a no-op in an
    /// untraced run, where both stay off).
    pub fn set_active(&self, on: bool) {
        let on = on && self.enabled;
        span::set_tracing(on);
        ridl_obs::set_detail(on);
    }

    /// Drains what was recorded so far into the current window, then
    /// switches to `w`.
    pub fn set_window(&self, w: Window) {
        if self.enabled {
            drain();
            acc().window = w;
        }
    }

    /// Drains the collector.
    pub fn drain(&self) {
        if self.enabled {
            drain();
        }
    }

    /// Median self time of the spans named `name`, in nanoseconds.
    pub fn self_p50_ns(&self, name: &str) -> Option<f64> {
        acc()
            .self_ns
            .get_mut(name)
            .and_then(|s| s.quantile(0.5))
            .map(|q| q.ns)
    }

    /// Total self time of bench spans inside the measured section.
    pub fn measured_self_ns(&self) -> u64 {
        acc().measured_self_ns
    }

    /// Spans dropped at the collector's cap (must stay 0).
    pub fn dropped(&self) -> u64 {
        acc().dropped
    }

    /// `(bench spans kept, internal spans seen)`.
    pub fn span_counts(&self) -> (usize, u64) {
        let acc = acc();
        (acc.kept.len(), acc.internal)
    }

    /// Writes the bench spans as a Chrome trace.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let acc = acc();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let path = path.to_str().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "trace path is not UTF-8")
        })?;
        ridl_obs::export::write_chrome_trace(path, &acc.kept, acc.dropped)
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        if self.enabled {
            ENABLED.store(false, Ordering::Relaxed);
            span::set_tracing(false);
            ridl_obs::set_detail(false);
        }
    }
}

/// Measured time and finished units of the traced and untraced blocks of
/// a measured section.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockStats {
    /// Measured time, `[untraced, traced]`.
    pub wall: [Duration; 2],
    /// Units finished, `[untraced, traced]`.
    pub units: [u64; 2],
}

impl BlockStats {
    /// How much slower a unit ran traced than untraced, in percent.
    /// 0 when either side finished no unit.
    pub fn overhead_pct(&self) -> f64 {
        let rate = |i: usize| self.units[i] as f64 / self.wall[i].as_secs_f64().max(1e-9);
        if self.units[0] == 0 || self.units[1] == 0 {
            return 0.0;
        }
        (rate(0) / rate(1) - 1.0) * 100.0
    }

    /// Measured time of the traced blocks.
    pub fn traced_wall(&self) -> Duration {
        self.wall[1]
    }

    /// Measured time of all blocks.
    pub fn total_wall(&self) -> Duration {
        self.wall[0] + self.wall[1]
    }
}

/// The clock of a single-threaded measured section. It alternates traced
/// and untraced blocks of at least `len` measured time each, starting
/// traced (in an untraced run every block counts as untraced), and stops
/// while the section checks its outputs ([`Blocks::untimed`]), so checks
/// count neither in throughput nor in the traced accounting.
pub struct Blocks<'a> {
    tracer: &'a Tracer,
    len: Duration,
    /// When the clock last (re)started.
    started: Instant,
    /// Measured time of the current block before `started`.
    banked: Duration,
    traced: bool,
    block_units: u64,
    stats: BlockStats,
}

impl<'a> Blocks<'a> {
    /// Starts the first block.
    pub fn start(tracer: &'a Tracer, len: Duration) -> Self {
        tracer.set_window(Window::Measured);
        tracer.set_active(true);
        Blocks {
            tracer,
            len,
            started: Instant::now(),
            banked: Duration::ZERO,
            traced: tracer.enabled(),
            block_units: 0,
            stats: BlockStats::default(),
        }
    }

    fn elapsed(&self) -> Duration {
        self.banked + self.started.elapsed()
    }

    /// Runs `f` with the clock stopped; the spans it records belong to
    /// the output checks.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.banked += self.started.elapsed();
        self.tracer.set_window(Window::Check);
        let r = f();
        self.tracer.set_window(Window::Measured);
        self.started = Instant::now();
        r
    }

    /// Counts one finished unit; ends the block once it is long enough.
    pub fn unit_done(&mut self) {
        self.block_units += 1;
        if self.elapsed() >= self.len {
            self.close();
            if self.tracer.enabled() {
                self.traced = !self.traced;
                self.tracer.set_active(self.traced);
            }
        }
    }

    /// Books the current block and drains the collector with the clock
    /// stopped.
    fn close(&mut self) {
        let i = usize::from(self.traced);
        self.stats.wall[i] += self.elapsed();
        self.stats.units[i] += self.block_units;
        self.block_units = 0;
        self.banked = Duration::ZERO;
        self.tracer.drain();
        self.started = Instant::now();
    }

    /// Ends the section; tracing stays on for the output checks.
    pub fn finish(mut self) -> BlockStats {
        self.close();
        self.tracer.set_active(true);
        self.tracer.set_window(Window::Check);
        self.stats
    }
}
