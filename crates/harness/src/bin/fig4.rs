//! Regenerate Fig. 4: relative performance impact of extension bytecode
//! versus native code, per implementation and use case.
//!
//! Usage: fig4 [--routes N] [--runs N] [--seed N] [--shards N]
//!             [--use-case rr|ov|all] [--dut fir|wren|all]
//!             [--metrics-out FILE] [--trace-out FILE] [--trace-sample N]
//!             [--profile]
//!             [--churn-rounds N] [--churn-withdraw N‰] [--churn-reannounce N‰]
//!             [--churn-flap N‰] [--churn-flap-period N]
//!
//! `--metrics-out` enables DUT instrumentation and writes the merged
//! metrics snapshot of every cell's extension run as a JSON document.
//! `--trace-out` attaches a route-scoped flight recorder to every run and
//! writes the merged per-cell trace timelines as JSONL; `--trace-sample N`
//! traces 1 route in N (default 1 when `--trace-out` is given).
//! `--profile` enables the per-extension VM profiler (`xbgp_prof_*`
//! series in the metrics snapshot).
//! `--churn-rounds N` switches every cell to steady-state churn mode
//! (impact on churn-phase DUT CPU instead of one-shot transfer time; see
//! `xbgp_harness::churn`); the other `--churn-*` flags tune the storm.
//!
//! Paper-scale runbook: `fig4 --routes 724000 --runs 15` reproduces the
//! figure at the RIS-snapshot scale the paper used (budget several
//! CPU-hours); add `--churn-rounds 20` for the churn-mode variant.

use routegen::churn::ChurnSpec;
use xbgp_harness::fig3::{Dut, UseCase};
use xbgp_harness::fig4::{fig4_cell, paper_reference, Fig4Config};
use xbgp_obs::{export, Snapshot};

fn churn_of(cfg: &mut Fig4Config) -> &mut ChurnSpec {
    let seed = cfg.seed;
    cfg.churn.get_or_insert_with(|| ChurnSpec::new(seed, 12))
}

fn per_mille(args: &[String], i: usize) -> u32 {
    let n = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()).unwrap_or_else(|| {
        xbgp_obs::error!("{} needs a number in 0..=1000", args[i]);
        std::process::exit(2);
    });
    if n > 1000 {
        xbgp_obs::error!("{} is per-mille, must be <= 1000", args[i]);
        std::process::exit(2);
    }
    n as u32
}

fn main() {
    let mut cfg = Fig4Config::default();
    let mut duts = vec![Dut::Fir, Dut::Wren];
    let mut cases = vec![UseCase::RouteReflection, UseCase::OriginValidation];
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                xbgp_obs::error!("missing value after {}", args[i]);
                std::process::exit(2);
            })
        };
        let parse_num = |i: usize| -> u64 {
            need(i).parse().unwrap_or_else(|_| {
                xbgp_obs::error!("{} needs a number, got `{}`", args[i], need(i));
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--routes" => cfg.routes = parse_num(i) as usize,
            "--runs" => cfg.runs = parse_num(i) as usize,
            "--seed" => cfg.seed = parse_num(i),
            "--shards" => {
                cfg.shards = parse_num(i) as usize;
                if cfg.shards == 0 {
                    xbgp_obs::error!("--shards must be at least 1");
                    std::process::exit(2);
                }
            }
            "--metrics-out" => {
                cfg.metrics = true;
                metrics_out = Some(need(i).to_string());
            }
            "--trace-out" => {
                trace_out = Some(need(i).to_string());
            }
            "--trace-sample" => {
                cfg.trace_sample = parse_num(i);
                if cfg.trace_sample == 0 {
                    xbgp_obs::error!("--trace-sample must be at least 1");
                    std::process::exit(2);
                }
            }
            "--profile" => {
                cfg.profile = true;
                i += 1;
                continue;
            }
            "--churn-rounds" => {
                let n = parse_num(i) as usize;
                cfg.churn.get_or_insert_with(|| ChurnSpec::new(cfg.seed, n)).rounds = n;
            }
            "--churn-withdraw" => {
                churn_of(&mut cfg).withdraw_per_mille = per_mille(&args, i);
            }
            "--churn-reannounce" => {
                churn_of(&mut cfg).reannounce_per_mille = per_mille(&args, i);
            }
            "--churn-flap" => {
                churn_of(&mut cfg).flap_per_mille = per_mille(&args, i);
            }
            "--churn-flap-period" => {
                churn_of(&mut cfg).flap_period = parse_num(i) as usize;
            }
            "--use-case" => {
                cases = match need(i) {
                    "rr" => vec![UseCase::RouteReflection],
                    "ov" => vec![UseCase::OriginValidation],
                    "all" => cases,
                    other => {
                        xbgp_obs::error!("unknown use case `{other}` (rr|ov|all)");
                        std::process::exit(2);
                    }
                }
            }
            "--dut" => {
                duts = match need(i) {
                    "fir" => vec![Dut::Fir],
                    "wren" => vec![Dut::Wren],
                    "all" => duts,
                    other => {
                        xbgp_obs::error!("unknown dut `{other}` (fir|wren|all)");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                xbgp_obs::error!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if trace_out.is_some() && cfg.trace_sample == 0 {
        cfg.trace_sample = 1;
    }

    println!(
        "# Fig. 4 — {} routes, {} paired runs per cell (seed {}, {} shard{})",
        cfg.routes,
        cfg.runs,
        cfg.seed,
        cfg.shards,
        if cfg.shards == 1 { "" } else { "s" }
    );
    let mut merged = Snapshot::default();
    let mut traces = Vec::new();
    for dut in &duts {
        for case in &cases {
            xbgp_obs::info!("running {} / {} ...", dut.name(), case.name());
            let cell = fig4_cell(*dut, *case, &cfg);
            println!("\n{} / {}", dut.name(), case.name());
            println!("  impact: {}", xbgp_harness::stats::render(&cell.summary));
            println!(
                "  medians: native {:.2} ms, extension {:.2} ms",
                cell.median_native_ns / 1e6,
                cell.median_extension_ns / 1e6
            );
            println!("  {}", paper_reference(*dut, *case));
            if let Some(snap) = cell.metrics {
                merged.merge(snap).expect("cells share the bucket layout");
            }
            traces.extend(cell.trace);
        }
    }
    if let Some(path) = metrics_out {
        let doc = export::to_json(&merged).to_string_pretty();
        if let Err(e) = std::fs::write(&path, doc) {
            xbgp_obs::error!("cannot write metrics to {path}: {e}");
            std::process::exit(2);
        }
        xbgp_obs::info!("metrics written to {path}");
    }
    if let Some(path) = trace_out {
        let dump = xbgp_obs::trace::TraceDump::merge(traces);
        let names = xbgp_harness::trace_point_names();
        if let Err(e) = std::fs::write(&path, dump.to_jsonl(&names)) {
            xbgp_obs::error!("cannot write trace to {path}: {e}");
            std::process::exit(2);
        }
        xbgp_obs::info!(
            "trace written to {path}: {} event(s), {} postmortem(s)",
            dump.events.len(),
            dump.postmortems.len()
        );
    }
}
