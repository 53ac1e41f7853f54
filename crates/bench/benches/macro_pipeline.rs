//! Experiment **E-MACRO**: the RIDL-Bench end-to-end macro benchmark.
//!
//! One closed loop through the whole tool chain — synthesize the
//! industrial-band BRM schema, analyze and map it through RIDL-M,
//! generate the calibrated population, `bulk_load` it into a WAL-backed
//! engine, drive mixed mutation/query traffic, stress every constraint
//! class with verified significant examples, checkpoint, commit more
//! traffic, crash, and recover. The same driver backs `ridl bench`
//! (which writes the per-PR `BENCH_<pr>.json` trajectory artifact); here
//! criterion times the loop at reduced scale so the end-to-end number
//! lands in the CRITERION_SUMMARY_JSON artifact next to the micro
//! benches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ridl_bench::pipeline::{run_macro, MacroConfig};
use ridl_workloads::macrobench::MacroParams;

fn bench(c: &mut Criterion) {
    ridl_obs::init_tracing_from_env();
    let obs_before = ridl_obs::snapshot();
    let cfg = MacroConfig {
        params: MacroParams {
            seed: 1989,
            target_rows: 2_000,
        },
        traffic_ops: 200,
        ..MacroConfig::default()
    };
    // One full run up front: print the phase table and fail loudly if any
    // end-to-end expectation (rejected tip, replayed units, clean
    // recovered state) does not hold.
    let art = run_macro(&cfg).expect("macro pipeline runs clean");
    println!(
        "\n== E-MACRO: end-to-end pipeline at {} rows ==",
        art.rows_loaded
    );
    println!(
        "{:<24} {:>10} {:>10} {:>12} {:>10}",
        "phase", "sec", "units", "units/s", "p99(us)"
    );
    for p in &art.phases {
        println!(
            "{:<24} {:>10.4} {:>10} {:>12.0} {:>10.1}",
            p.name,
            p.seconds,
            p.units,
            p.per_second,
            p.p99_ns.unwrap_or(0) as f64 / 1e3
        );
    }
    let mut group = c.benchmark_group("macro_pipeline");
    group.sample_size(10);
    group.bench_function(
        BenchmarkId::new("full_run", format!("{}rows", art.rows_loaded)),
        |b| b.iter(|| run_macro(&cfg).expect("macro pipeline runs clean")),
    );
    group.finish();
    let diff = ridl_obs::snapshot().since(&obs_before);
    ridl_obs::append_summary_snapshot("macro_pipeline", &diff);
    if let Some(path) = ridl_obs::write_chrome_trace_env() {
        eprintln!("macro_pipeline: chrome trace written to {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
