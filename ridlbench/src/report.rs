//! The layer calls and constraint classes the per-layer metrics cover,
//! and the result line.

use std::fmt::Write as _;

/// Constraint classes the per-class metrics cover: every class the
/// industrial mapping generates.
pub const CLASSES: [ridl_obs::ConstraintClass; 8] = {
    use ridl_obs::ConstraintClass as C;
    [
        C::Structure,
        C::Key,
        C::ForeignKey,
        C::Frequency,
        C::EqualityView,
        C::SubsetView,
        C::ExclusionView,
        C::RowLocal,
    ]
};

/// Per-layer metrics `(name, unit, span)` that time one kind of layer
/// call: the median self time of the bench span around it.
pub const CALLS: [(&str, &str, &str); 16] = [
    ("analyzer.analyze_ms", "ms", "bench.analyzer.analyze"),
    ("core.map_ms", "ms", "bench.core.map"),
    ("core.map_report_ms", "ms", "bench.core.map_report"),
    ("sqlgen.ddl_ms", "ms", "bench.sqlgen.ddl"),
    ("engine.bulk_load_ms", "ms", "bench.engine.bulk_load"),
    ("engine.insert_us", "us", "bench.engine.insert"),
    ("engine.delete_where_us", "us", "bench.engine.delete_where"),
    ("engine.apply_batch_us", "us", "bench.engine.apply_batch"),
    ("engine.select_us", "us", "bench.engine.select"),
    ("engine.reject_us", "us", "bench.engine.reject"),
    ("engine.load_state_ms", "ms", "bench.engine.load_state"),
    ("relational.validate_ms", "ms", "bench.relational.validate"),
    ("checkpoint.full_ms", "ms", "bench.durable.checkpoint_full"),
    ("checkpoint.delta_ms", "ms", "bench.durable.checkpoint"),
    ("recover.ms", "ms", "bench.durable.recover"),
    ("server.client_codec_us", "us", "bench.server.client_codec"),
];

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Its name (as in `BENCHMARK.json`).
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process in MB (`VmHWM`) since it
/// started or since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Lowers this process's peak resident set size to its current one
/// (writing `5` to `/proc/self/clear_refs`, Linux 4.0 and later), so the
/// next [`peak_rss_mb`] covers only what runs after the call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset the peak RSS through /proc/self/clear_refs: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resetting_the_peak_forgets_a_freed_buffer() {
        const MB: usize = 1 << 20;
        let buffer = std::hint::black_box(vec![1u8; 128 * MB]);
        let with_buffer = peak_rss_mb().unwrap();
        drop(buffer);
        reset_peak_rss().unwrap();
        let after = peak_rss_mb().unwrap();
        assert!(
            after < with_buffer - 64.0,
            "peak {after:.1} MB after the reset, {with_buffer:.1} MB with the buffer"
        );
    }
}
