//! The repository benchmark: three workloads over the lintra optimizer
//! and its served path, with end-to-end metrics (untraced) or per-layer
//! metrics (traced).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile-suite|serve-light|serve-heavy \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`); the lines
//! before it are the human-readable report. Any failed output check
//! makes the run exit with code 1. See `perfbench/README.md`.

mod compile;
mod loadgen;
mod mix;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use lintra_bench::json::Json;

use crate::report::{peak_rss_mb, Report};
use crate::serve::TempDir;
use crate::trace::Trace;

/// Where traces and per-run scratch directories go, relative to the
/// repository root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

/// Workload names; results elsewhere cite them, so they are fixed.
const WORKLOADS: [&str; 3] = ["compile-suite", "serve-light", "serve-heavy"];

/// Parsed command line.
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Per-run scratch directory (journals, epochs, snapshots).
    pub tmp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 30, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let tmp = PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        tmp,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", args.tmp.display());
        return ExitCode::from(2);
    }
    let scratch = TempDir(args.tmp.clone());
    let trace = Trace::new(args.trace);
    let mut rep = Report::default();
    let run = match args.workload.as_str() {
        "compile-suite" => compile::run(&args, &trace, &mut rep).and_then(|()| {
            if trace.enabled() {
                serve::probe_serving_layers(&args, &trace, &mut rep)
            } else {
                Ok(())
            }
        }),
        "serve-light" => serve::light(&args, &trace, &mut rep),
        _ => serve::heavy(&args, &trace, &mut rep),
    };
    drop(scratch);
    if let Err(e) = run {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(1);
    }
    if trace.enabled() {
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match trace.write(&path) {
            Ok(()) => rep.line(format!(
                "{} spans written to {}",
                trace.len(),
                path.display()
            )),
            Err(e) => rep.check(false, format!("writing {}: {e}", path.display())),
        }
    } else {
        rep.set("peak_rss_mb", peak_rss_mb(), "VmHWM of this process");
    }
    rep.line(format!(
        "cores {} (std::thread::available_parallelism)",
        loadgen::nproc()
    ));
    let baseline = Json::parse(include_str!("../baseline.json")).unwrap_or(Json::Null);
    if rep.finish(&args.workload, args.trace, &baseline) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
