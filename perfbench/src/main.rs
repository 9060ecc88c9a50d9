//! One benchmark over seqavf's three user paths, on the production-scale
//! design `xeon_like(seed).scaled(2.0).with_cores(8)` (about 102k nodes):
//!
//! * `cold_sweep` — the `sweep` CLI with no caches;
//! * `warm_query` — `POST /v1/avf` against resident state over a socket;
//! * `edit_loop` — edit one gate, `POST /v1/design-update`, query.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_query --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` spends half the window untraced and half traced, and
//! reports per-layer metrics from spans this benchmark records around the
//! program's public calls. Every op's output is checked against an
//! independent reference; the result's `failed` over `attempted` is the
//! failure ratio. Provenance and a summary go to stdout first; the last
//! stdout line is the JSON result. Run it from the repository root:
//! design files go to `.bench_work/` and are removed at exit, and a traced
//! run leaves its spans in `.bench_work/spans-<workload>-s<seed>.ndjson`.

mod check;
mod design;
mod edit;
mod procfs;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use design::{provenance, RunConfig, Scale};

const USAGE: &str = "usage: seqavf-perfbench --workload <cold_sweep|warm_query|edit_loop> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: Vec<(&str, &str)> = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.iter().any(|(f, _)| f == flag) {
            return Err(format!("duplicate flag {flag}"));
        }
        flags.push((flag.as_str(), value.as_str()));
    }
    let get = |name: &str| flags.iter().find(|(f, _)| *f == name).map(|(_, v)| *v);
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    if let Some((f, _)) = flags
        .iter()
        .find(|(f, _)| !["--workload", "--seed", "--seconds", "--trace"].contains(f))
    {
        return Err(format!("unknown flag {f}"));
    }
    let workload = need("--workload")?.to_owned();
    if !["cold_sweep", "warm_query", "edit_loop"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed: u64 = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let root = PathBuf::from(".bench_work");
    Ok(Args {
        cfg: RunConfig {
            scale: Scale::Production,
            seed,
            seconds,
            trace,
            threads,
            work_dir: root.join(format!("{workload}-s{seed}-p{}", std::process::id())),
            spans_out: root.join(format!("spans-{workload}-s{seed}.ndjson")),
        },
        workload,
    })
}

/// Runs one workload and returns its summary plus result line.
fn run(workload: &str, cfg: &RunConfig) -> Result<(String, String), String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.work_dir.display()))?;
    let measured = match workload {
        "cold_sweep" => workloads::cold_sweep::run(cfg),
        "warm_query" => workloads::warm_query::run(cfg),
        "edit_loop" => workloads::edit_loop::run(cfg),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let (m, facts) = measured?;
    let clients = if workload == "warm_query" {
        cfg.threads
    } else {
        1
    };
    let mut summary = format!(
        "provenance {}\n",
        provenance(cfg, workload, clients, &facts)
    );
    summary.push_str(&format!(
        "{workload}: {} ops attempted, {} failed, {} output checks, fail_ratio {}\n",
        m.tally.attempted,
        m.tally.failed,
        m.tally.checks,
        m.tally.failed as f64 / m.tally.attempted.max(1) as f64
    ));
    let n = m.latencies_ms.len();
    summary.push_str(&format!(
        "untraced latency samples: {n} ({} beyond p90); setup runs: {:?} s\n",
        stats::samples_beyond(n.max(1), 90),
        m.setup_s
    ));
    for msg in &m.tally.messages {
        summary.push_str(&format!("failure: {msg}\n"));
    }
    if cfg.trace {
        summary.push_str(&format!("spans written to {}\n", cfg.spans_out.display()));
    }
    if n == 0 {
        return Err("no op completed inside the window".to_owned());
    }
    Ok((summary, report::result_line(&m, cfg.trace)?))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args.workload, &args.cfg) {
        Ok((summary, line)) => {
            print!("{summary}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
