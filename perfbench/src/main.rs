//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload rank_cold|label_exact|online_replay|all
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--workload all` runs each workload in a process of its own. The
//! last line of standard output is the result object.

use perfbench::{gen::Size, layers, run_timed, RunConfig, Workload};
use std::process::ExitCode;

/// Program knobs that would otherwise leak in from the environment.
const CLEARED_ENV: [&str; 7] = [
    "LS_OBS",
    "LS_OBS_JSONL",
    "LS_OBS_RECORDER",
    "LS_OBS_RECORDER_DUMP",
    "LS_POLLER",
    "LS_NODELAY",
    "LS_EVLOOP_SHARDS",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The checkout's commit, read from `.git` without running git.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `--workload all`: each workload in a child process (so each has its own
/// peak RSS), then one object holding every workload's result.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let output = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("run workload process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        all_ok &= output.status.success();
        let last = stdout.lines().last().filter(|l| l.starts_with('{'));
        results.push(format!("\"{}\": {}", w.name(), last.unwrap_or("null")));
    }
    println!("{{{}}}", results.join(", "));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Pin the pool width and clear every other program knob before any
    // library code reads the environment; telemetry starts off.
    for k in CLEARED_ENV {
        std::env::remove_var(k);
    }
    std::env::set_var("LS_THREADS", threads.to_string());
    ls_obs::set_level(ls_obs::Level::Off);

    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!(
            "perfbench: --workload must be one of rank_cold, label_exact, online_replay, all"
        );
        return ExitCode::from(2);
    };
    let cfg = RunConfig {
        size: Size::full(),
        seed: args.seed,
        seconds: args.seconds,
        warmup: 3.0_f64.min(args.seconds),
        threads,
        setup_reps: 5,
    };
    println!(
        "fingerprint: workload={} trace={} nproc={threads} cpu=\"{}\" LS_THREADS={threads} \
         workers={threads} seed={} seconds={} rev={}",
        workload.name(),
        u8::from(args.trace),
        cpu_model(),
        args.seed,
        args.seconds,
        git_rev(),
    );
    let out = if args.trace {
        let (mut out, spans) = layers::run_traced(workload, &cfg);
        let path = format!(".bench_out/trace-{}-{}.jsonl", workload.name(), args.seed);
        match spans.write_jsonl(std::path::Path::new(&path)) {
            Ok(()) => out.note(format!("{} spans written to {path}", spans.len())),
            Err(e) => out.note(format!("spans not written to {path}: {e}")),
        }
        out
    } else {
        run_timed(workload, &cfg)
    };
    for line in &out.notes {
        println!("{}: {line}", workload.name());
    }
    for m in &out.metrics {
        println!("{}: {} = {} {}", workload.name(), m.name, m.value, m.unit);
    }
    for why in &out.tally.notes {
        println!("{}: FAILED: {why}", workload.name());
    }
    println!(
        "{}: operations attempted {} succeeded {} failed {}",
        workload.name(),
        out.tally.attempted,
        out.tally.attempted - out.tally.failed,
        out.tally.failed
    );
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
