//! Whole-stack benchmark harness.
//!
//! ```text
//! rsmi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//! ```
//!
//! One process per run: it generates its inputs from the seed, builds the
//! workload's topology (servers, shard servers and the router are threads
//! of this process, talking over 127.0.0.1), measures for about `--seconds`
//! seconds, checks the answers, and prints a header line followed by one
//! result line — the last line of standard output:
//!
//! ```text
//! {"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}, ...}}
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload plus the layer probes and a traced pass, prints the per-layer
//! metrics, and writes the spans to `<out-dir>/<workload>.trace.json`.
//! See `benchmark/README.md` for what each workload and metric is for.

mod metrics;
mod oracle;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Config, Report, WORKLOADS};

const USAGE: &str = "usage: rsmi-benchmark --workload <name> --seed <n> --seconds <s> \
                     --trace <0|1> [--smoke] [--out-dir <dir>]";

/// The `[profile.release]` table of this crate's manifest, which must stay
/// a verbatim copy of the product's.
fn release_profile() -> String {
    include_str!("../Cargo.toml")
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim().is_empty() && !l.starts_with('['))
        .collect::<Vec<_>>()
        .join(", ")
        .replace('"', "'")
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed '{v}'"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                seconds = Some(s.ok_or_else(|| format!("bad --seconds '{v}'"))?);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace '{v}' (0 or 1)")),
                })
            }
            "--smoke" => smoke = true,
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        out_dir,
    })
}

fn header(cfg: &Config, report: &Report) -> String {
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('\\', "/").replace('"', "'")))
        .collect();
    format!(
        "{{\"harness\": \"rsmi-benchmark\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"smoke\": {}, \"rustc\": \"{}\", \"profile\": \"{}; {}\", \
         \"threads\": {}, \"notes\": {{{}}}}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.smoke,
        env!("BENCH_RUSTC"),
        env!("BENCH_PROFILE"),
        release_profile(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        notes.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match cfg.workload.as_str() {
        "mem-read-1m" => workloads::mem_read::run,
        "mem-churn-200k" => workloads::mem_churn::run,
        "wire-read-200k" => workloads::wire_read::run,
        _ => workloads::routed_mixed::run,
    };
    let result = run(&cfg).and_then(|report| {
        let metrics = report.metrics.to_json(cfg.trace)?;
        Ok((report, metrics))
    });
    match result {
        Ok((report, metrics)) => {
            println!("{}", header(&cfg, &report));
            if cfg.trace {
                // For reading beside the layers; bounds apply to untraced
                // runs only.
                if let Ok(end_to_end) = report.metrics.to_json(false) {
                    println!("{{\"end_to_end_while_traced\": {end_to_end}}}");
                }
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
                report.failed == 0,
                report.attempted.max(1),
                report.failed
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", cfg.workload);
            ExitCode::FAILURE
        }
    }
}
