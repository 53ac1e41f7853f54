//! Smoke tests: every workload at tiny scale, checked against the names
//! `BENCHMARK.json` declares, untraced and traced.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ridl_server::json::{parse, Json};
use ridlbench::trace::Tracer;
use ridlbench::workloads::{self, Config, Outcome, Scale, Workload};

/// Span tracing and the metric counters are process-wide, so runs in one
/// test binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json` at the repository root.
fn benchmark() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    parse(&text).expect("BENCHMARK.json parses")
}

/// The `name` of every entry of the list `key`.
fn names(bench: &Json, key: &str) -> Vec<String> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no list {key}"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("entry has a name")
                .to_owned()
        })
        .collect()
}

fn run(w: Workload, traced: bool) -> Outcome {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let work_dir: PathBuf = manifest_dir().join(".work").join(format!(
        "smoke-{}-{traced}-{}",
        w.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&work_dir).expect("create work dir");
    let cfg = Config {
        seed: 1989,
        seconds: 0.3,
        scale: Scale::tiny(),
        work_dir: work_dir.clone(),
    };
    let tracer = Tracer::new(traced);
    let out = workloads::run(w, &cfg, &tracer).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    drop(tracer);
    let _ = std::fs::remove_dir_all(&work_dir);
    assert!(out.attempted > 0, "{}: nothing attempted", w.name());
    assert_eq!(
        out.failed,
        0,
        "{}: failed ops, first: {:?}\n{}",
        w.name(),
        out.first_failure,
        out.notes.join("\n")
    );
    out
}

#[test]
fn workload_names_match_benchmark_json() {
    let declared = names(&benchmark(), "workloads");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, ours);
}

#[test]
fn every_workload_runs_clean_and_reports_the_declared_end_to_end_metrics() {
    let declared = names(&benchmark(), "end_to_end");
    for w in Workload::ALL {
        let out = run(w, false);
        let emitted: Vec<&str> = out.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(emitted, declared, "{}", w.name());
        for m in &out.end_to_end {
            assert!(m.value > 0.0, "{}: {} reads {}", w.name(), m.name, m.value);
        }
    }
}

#[test]
fn traced_runs_report_the_declared_per_layer_metrics_and_drop_no_span() {
    let declared = names(&benchmark(), "per_layer");
    for w in Workload::ALL {
        let out = run(w, true);
        let emitted: Vec<&str> = out.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(emitted, declared, "{}", w.name());
        let dropped = out.per_layer.iter().find(|m| m.name == "obs.span_dropped");
        assert_eq!(dropped.map(|m| m.value), Some(0.0), "{}", w.name());
    }
}
