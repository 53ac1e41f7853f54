//! The benchmark program: runs one workload and prints a human-readable
//! report on stderr and the result line as the last line of stdout.
//!
//! ```text
//! ridlbench --workload <design|oltp|serve|restart> [--seed N] [--seconds S] [--trace 0|1|FILE]
//! ```
//!
//! `--trace 1` (or a file name) turns on span tracing: the result line
//! then carries the per-layer metrics instead of the end-to-end ones, and
//! the bench spans are written as a Chrome trace (by default under
//! `ridlbench/.work/`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ridlbench::report;
use ridlbench::trace::Tracer;
use ridlbench::workloads::{self, Config, Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
}

const USAGE: &str =
    "usage: ridlbench --workload <design|oltp|serve|restart> [--seed N] [--seconds S] [--trace 0|1|FILE]";

/// Scratch space inside the benchmark's own directory.
fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1989;
    let mut seconds = 10.0;
    let mut trace = None;
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => trace = Some(value("--trace")?),
            other if workload.is_none() && !other.starts_with('-') => {
                workload = Some(other.to_owned())
            }
            other => return Err(format!("unexpected argument {other}\n{USAGE}")),
        }
    }
    let name = workload.ok_or(USAGE)?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}\n{USAGE}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match trace.as_deref() {
        None | Some("0") => None,
        Some("1") => Some(work_root().join(format!("trace-{name}-{seed}.json"))),
        Some(file) => Some(PathBuf::from(file)),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let scratch = Scratch(work_root().join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("create {}: {e}", scratch.0.display()))?;
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale::full(),
        work_dir: scratch.0.clone(),
    };
    let tracer = Tracer::new(args.trace.is_some());
    let out = workloads::run(args.workload, &cfg, &tracer)?;
    drop(scratch);

    let name = args.workload.name();
    eprintln!(
        "ridlbench {name} seed {} ({} s measured{})",
        args.seed,
        args.seconds,
        if tracer.enabled() { ", traced" } else { "" }
    );
    for line in &out.notes {
        eprintln!("  {line}");
    }
    let metrics = if let Some(path) = &args.trace {
        tracer
            .write_chrome_trace(path)
            .map_err(|e| format!("write trace {}: {e}", path.display()))?;
        eprintln!("  chrome trace: {}", path.display());
        out.per_layer
    } else {
        out.end_to_end
    };
    for m in &metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!("  attempted {}, failed {}", out.attempted, out.failed);
    if let Some(f) = &out.first_failure {
        eprintln!("  first failure: {f}");
    }
    println!(
        "{}",
        report::result_line(out.failed == 0, out.attempted, out.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ridlbench: {e}");
            ExitCode::FAILURE
        }
    }
}
