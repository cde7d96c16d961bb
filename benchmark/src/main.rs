//! `xbgp-benchmark --workload <name> --seed <n> --trace <0|1>` runs one
//! workload in this process, checks its outputs, prints every metric by
//! name, and ends with the one-line JSON result.
//!
//! `xbgp-benchmark --repeat <N>` runs N full sets back to back, each
//! workload in a process of its own, and checks that the sets agree.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use xbgp_benchmark::gen::Scale;
use xbgp_benchmark::report::{END_TO_END, PER_LAYER, WORKLOADS};
use xbgp_benchmark::stats::summarize;
use xbgp_benchmark::workload::{run_traced, run_untraced};
use xbgp_obs::json::Value as Json;

/// The seed `BENCHMARK.json`'s baseline was recorded with. A claim made on
/// it has to be confirmed on a second one.
const DEFAULT_SEED: u64 = 1;

/// Per-layer counts that must repeat bit for bit between sets.
fn is_exact_count(name: &str) -> bool {
    name.ends_with("frames_per_best_change")
        || (name.starts_with("core.") && name.ends_with("_per_route"))
        || name.starts_with("vm.insns.")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            // The driver's command line carries `--seconds`. Every sample
            // count is fixed (`gen::Scale`), so the value changes nothing.
            "--seconds" => {
                value.parse::<f64>().map_err(|_| bad("a number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                args.repeat =
                    Some(value.parse().ok().filter(|&n| n >= 2).ok_or_else(|| bad("2 or more"))?)
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: xbgp-benchmark --workload <{}> [--seed N] [--trace 0|1]\n       xbgp-benchmark --repeat N [--seed N]",
        names.join("|")
    )
}

/// Where the spans of a traced run go: `benchmark/out/` of the checkout.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.trace.jsonl"))
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    let scale = Scale::full();
    let result = if args.trace {
        run_traced(workload, &scale, args.seed, &trace_path(workload))
    } else {
        run_untraced(workload, &scale, args.seed)
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for name in report.missing() {
        report.fail(0, format!("metric {name} was not reported"));
    }
    print!("{}", report.human());
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run this binary again for one workload and return the metrics of its
/// result line. A process per run keeps `peak_rss_mb` per workload.
fn child_metrics(workload: &str, args: &Args, trace: bool) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} trace {} failed:\n{stdout}", u8::from(trace)));
    }
    let line = stdout.lines().last().ok_or("no output")?;
    let doc = Json::parse(line)?;
    let metrics = doc.get("metrics").and_then(Json::as_object).ok_or("no metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Json::as_f64).ok_or("metric without value")?;
            Ok((name.clone(), v))
        })
        .collect()
}

/// N sets of (every workload untraced, every workload traced). Prints,
/// for every end-to-end metric × workload, the spread between the sets
/// against the metric's bound; fails when one exceeds it or an exact
/// count differs between sets.
fn repeat(n: usize, args: &Args) -> ExitCode {
    println!("repeat: {n} sets, seed {}", args.seed);
    let mut ok = true;
    for w in &WORKLOADS {
        let mut sets: Vec<Vec<(String, f64)>> = Vec::new();
        let mut counts: Vec<Vec<(String, f64)>> = Vec::new();
        for _ in 0..n {
            for (trace, into) in [(false, &mut sets), (true, &mut counts)] {
                match child_metrics(w.name, args, trace) {
                    Ok(m) => into.push(m),
                    Err(e) => {
                        println!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        let values_of = |sets: &[Vec<(String, f64)>], name: &str| -> Vec<f64> {
            sets.iter()
                .filter_map(|s| s.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect()
        };
        for m in &END_TO_END {
            let values = values_of(&sets, m.name);
            let lo = values.iter().copied().fold(f64::MAX, f64::min);
            let hi = values.iter().copied().fold(f64::MIN, f64::max);
            let median = summarize(&values).map_or(f64::NAN, |s| s.median);
            let spread = (hi - lo) / median;
            let verdict = if values.len() == n && spread <= m.bound {
                "ok"
            } else {
                "EXCEEDS"
            };
            ok &= verdict == "ok";
            println!(
                "{:<10} {:<22} sets {:?} {} spread {:.4} bound {:.2} {verdict}",
                w.name, m.name, values, m.unit, spread, m.bound
            );
        }
        for m in PER_LAYER.iter().filter(|m| is_exact_count(m.name)) {
            let values = values_of(&counts, m.name);
            let same = values.len() == n && values.windows(2).all(|p| p[0] == p[1]);
            ok &= same;
            println!(
                "{:<10} {:<30} sets {:?} {}",
                w.name,
                m.name,
                values,
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    println!("repeat: {}", if ok { "all sets agree" } else { "sets disagree" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return repeat(n, &args);
    }
    match args.workload.as_deref() {
        Some(w) if WORKLOADS.iter().any(|known| known.name == w) => run_one(w, &args),
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
