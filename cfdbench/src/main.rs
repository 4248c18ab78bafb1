//! End-to-end benchmark of `cfd_serve::Server`.
//!
//! ```text
//! cargo run --release --manifest-path cfdbench/Cargo.toml -- \
//!     --workload <ingest|audit|disk|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives one server through its public API from two
//! closed-loop client threads, checks every output, prints every metric
//! with its unit and sample count, and ends with one JSON result line.
//! `--trace 1` adds the per-layer figures of a replay through each layer's
//! public functions and writes the spans under `.cfdbench/`. `all` runs
//! each workload in its own process. See `cfdbench/README.md`.

mod audit;
mod disk;
mod flushes;
mod ingest;
mod inputs;
mod load;
mod replay;
mod report;
mod stats;
mod trace;

use cfd::core::Cfd;
use cfd::detect::Violations;
use cfd::relation::interner::interned_count;
use cfd::relation::Relation;
use load::Client;
use report::Outcome;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["ingest", "audit", "disk"];

/// The result line's metrics of an untraced run (`end_to_end` in
/// `BENCHMARK.json`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("primary_mean_ms", "ms"),
    ("primary_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The result line's metrics of a traced run (`per_layer` in
/// `BENCHMARK.json`): the layer figures every workload measures.
const PER_LAYER: [(&str, &str); 11] = [
    ("core.engine_build_ms", "ms"),
    ("session.open_ms", "ms"),
    ("detect.stats_ms", "ms"),
    ("detect.plan_ms", "ms"),
    ("detect.execute_ms", "ms"),
    ("detect.plan_steps", "count"),
    ("detect.violations", "count"),
    ("relation.index_build_ms", "ms"),
    ("relation.interned_values", "count"),
    ("serve.flushes", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// One workload run's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch space inside the working directory.
    pub dir: PathBuf,
}

impl Run {
    /// Prints the span profile and writes the spans out.
    pub fn write_spans(&self, t: &Tracer) -> Result<(), String> {
        print!("{}", report::render_profile(t));
        let path =
            PathBuf::from(".cfdbench").join(format!("spans-{}-{}.jsonl", self.workload, self.seed));
        std::fs::create_dir_all(".cfdbench").map_err(err)?;
        std::fs::write(&path, t.to_json_lines()).map_err(err)?;
        println!("  spans written to {}", path.display());
        Ok(())
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Sets up `SETUPS` times, tearing each set-up down (untimed) before the
/// next, and returns the last one with the median set-up time in seconds.
/// Callers keep one `Server` across the repetitions: with a fresh server
/// (and fresh pool threads) per set-up, the resident set after set-up came
/// out 60 MB apart from run to run, most likely freed memory held in the
/// malloc arenas of exited threads.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(previous) = last.take() {
            teardown(previous)?;
        }
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("SETUPS > 0");
    Ok((last.expect("SETUPS > 0"), median))
}

/// Request durations of one class across clients, in milliseconds.
pub fn durations(clients: &[Client], class: &str) -> Vec<f64> {
    clients
        .iter()
        .flat_map(|c| c.tracer.durations_ms(class))
        .collect()
}

pub fn p50(ms: &[f64]) -> f64 {
    stats::median(ms).unwrap_or(f64::NAN)
}

/// Replays `replays` detections of `rel` and adds the detect-layer
/// figures; each replayed report must equal `expected`.
pub fn detect_figures(
    t: &mut Tracer,
    out: &mut Outcome,
    cfds: &[Cfd],
    rel: &Relation,
    replays: usize,
    expected: &Violations,
) {
    let mut steps = 0;
    for r in 0..replays {
        let (report, n) = replay::detect(t, cfds, rel, r as u64);
        steps = n;
        out.check(
            report.canonical_bytes() == expected.canonical_bytes(),
            || format!("detect replay {r} differs from the published report"),
        );
    }
    for (span, name) in [
        ("detect.stats", "detect.stats_ms"),
        ("detect.plan", "detect.plan_ms"),
        ("detect.execute", "detect.execute_ms"),
        ("relation.index_build", "relation.index_build_ms"),
    ] {
        out.latency_p50(name, &t.durations_ms(span), "ms");
    }
    out.add("detect.plan_steps", steps as f64, "count", replays);
    out.add("detect.violations", expected.total() as f64, "count", 1);
}

/// Figures every traced workload reports from its set-up replay.
pub fn common_layer_figures(t: &Tracer, out: &mut Outcome) {
    out.latency_p50(
        "core.engine_build_ms",
        &t.durations_ms("core.engine_build"),
        "ms",
    );
    out.latency_p50("session.open_ms", &t.durations_ms("session.open"), "ms");
    out.add(
        "relation.interned_values",
        interned_count() as f64,
        "count",
        1,
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; use one of {WORKLOADS:?} or all"
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs this program again on one workload and returns its standard output.
fn child(args: &Args, workload: &str, trace: bool) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(err)?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(err)?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    Ok((
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

/// The `value` of metric `name` in a result line.
fn metric_value(result: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result[result.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    // The untraced throughput the traced one is compared with, measured in
    // its own process so neither run inherits the other's interned values
    // or memory.
    let untraced_ops = if args.trace {
        let (ok, stdout) = child(args, &args.workload, false)?;
        let ops = stdout
            .lines()
            .last()
            .and_then(|l| metric_value(l, "ops_per_s"))
            .filter(|_| ok)
            .ok_or_else(|| format!("untraced run failed:\n{stdout}"))?;
        Some(ops)
    } else {
        None
    };
    let run = Run {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.trace,
        dir: PathBuf::from(".cfdbench").join(format!("run-{}", std::process::id())),
    };
    println!(
        "workload {} seed {} ({})",
        run.workload,
        run.seed,
        if run.traced { "traced" } else { "untraced" }
    );
    let started = Instant::now();
    let result = match run.workload.as_str() {
        "ingest" => ingest::run(&run),
        "audit" => audit::run(&run),
        _ => disk::run(&run),
    };
    let _ = std::fs::remove_dir_all(&run.dir);
    let mut out = result?;
    if let Some(untraced) = untraced_ops {
        let traced = out.get("ops_per_s").unwrap_or(f64::NAN);
        out.add("trace.overhead_ratio", traced / untraced, "ratio", 2);
    }
    println!("  finished in {:.1} s", started.elapsed().as_secs_f64());
    print!("{}", out.render());
    let names: &[(&str, &str)] = if run.traced { &PER_LAYER } else { &END_TO_END };
    println!("{}", out.json(names)?);
    Ok(if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs every workload, each in its own process: the interner never
/// shrinks and RSS is process-wide, so a shared process would leak one
/// workload's values and memory into the next one's figures.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut all_ok = true;
    let mut lines = Vec::new();
    for workload in WORKLOADS {
        let (ok, stdout) = child(args, workload, args.trace)?;
        all_ok &= ok;
        let mut body: Vec<&str> = stdout.lines().collect();
        let result = body.pop().unwrap_or_default();
        println!("{}", body.join("\n"));
        lines.push(format!("\"{workload}\": {result}"));
    }
    println!("{{{}}}", lines.join(", "));
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.workload == "all" {
            run_all(&args)
        } else {
            run_one(&args)
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("cfdbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\"").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn metric_value_reads_a_result_line() {
        let line = "{\"correct\": true, \"metrics\": {\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}";
        assert_eq!(metric_value(line, "ops_per_s"), Some(12.5));
        assert_eq!(metric_value(line, "setup_s"), None);
    }
}
