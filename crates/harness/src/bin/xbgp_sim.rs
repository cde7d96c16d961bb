//! xbgp-sim — run a declarative network scenario.
//!
//! Usage: xbgp-sim <scenario.json> [--shards N] [--metrics-out FILE]
//!                 [--log-level LEVEL] [--fault-rate R]
//!                 [--trace-out FILE] [--trace-sample N] [--profile]
//!                 [--churn-feed ROUTER] [--churn-routes N] [--churn-rounds N]
//!                 [--churn-seed N] [--churn-withdraw N‰] [--churn-reannounce N‰]
//!                 [--churn-flap N‰] [--churn-flap-period N] [--churn-roa-sweep N‰]
//!                 [--churn-hunt-depth N] [--churn-interval-ms N] [--check-oracle]
//!
//! See `xbgp_harness::scenario` for the document format. Exit code 0 when
//! every `expect_route` check passes, 1 otherwise. `--metrics-out` writes
//! the final per-router metrics snapshot as a JSON document. `--shards N`
//! splits originated prefixes across N replica simulations on worker
//! threads (see `xbgp_harness::shard`); `--shards 1` is the sequential
//! path. `--fault-rate R` (in `[0, 1]`) overrides the scenario's
//! `fault_rate`: every router gets the `fault_inject` probe, which traps
//! mid-chain after staging host mutations on roughly that fraction of
//! inbound runs — a live check that transactional rollback holds under
//! the scenario's real workload.
//!
//! `--trace-out FILE` attaches a route-scoped flight recorder to every
//! router and writes the merged timeline: Chrome/Perfetto `trace_event`
//! JSON when FILE ends in `.chrome.json`, JSONL (one event or postmortem
//! per line) otherwise. `--trace-sample N` traces 1 route in N (default 1
//! — every route — when `--trace-out` is given). `--profile` turns on the
//! per-extension VM profiler; its `xbgp_prof_*` series land in the
//! `--metrics-out` snapshot.
//!
//! The `--churn-*` family overrides (or, with `--churn-feed`, creates)
//! the scenario's `churn` section: a synthetic upstream blasts a
//! generated table at the named router, then replays a seeded storm of
//! withdraw/re-announce rounds, flaps, ROA sweeps and path-hunting
//! cascades. `--check-oracle` forces the end-of-run Loc-RIB comparison
//! against the full-recompute oracle (a mismatch fails the run like any
//! missed `expect_route`). Per-mille flags take 0–1000.

use std::process::ExitCode;
use xbgp_harness::scenario::RunOptions;
use xbgp_obs::export;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_path: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_sample = 0u64;
    let mut profile = false;
    let mut shards = 1usize;
    let mut fault_rate: Option<f64> = None;
    let mut churn_feed: Option<String> = None;
    let mut churn_over: Vec<(&'static str, u64)> = Vec::new();
    let mut check_oracle = false;
    let mut i = 0;
    while i < args.len() {
        // Numeric --churn-* overrides share one parse path.
        let churn_key = match args[i].as_str() {
            "--churn-routes" => Some("routes"),
            "--churn-rounds" => Some("rounds"),
            "--churn-seed" => Some("seed"),
            "--churn-withdraw" => Some("withdraw_per_mille"),
            "--churn-reannounce" => Some("reannounce_per_mille"),
            "--churn-flap" => Some("flap_per_mille"),
            "--churn-flap-period" => Some("flap_period"),
            "--churn-roa-sweep" => Some("roa_sweep_per_mille"),
            "--churn-hunt-depth" => Some("path_hunt_depth"),
            "--churn-interval-ms" => Some("interval_ms"),
            _ => None,
        };
        if let Some(key) = churn_key {
            let Some(n) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) else {
                xbgp_obs::error!("{} needs a non-negative number", args[i]);
                return ExitCode::from(2);
            };
            if key.ends_with("per_mille") && n > 1000 {
                xbgp_obs::error!("{} is per-mille, must be <= 1000", args[i]);
                return ExitCode::from(2);
            }
            churn_over.push((key, n));
            i += 2;
            continue;
        }
        match args[i].as_str() {
            "--churn-feed" => {
                let Some(name) = args.get(i + 1) else {
                    xbgp_obs::error!("missing value after --churn-feed");
                    return ExitCode::from(2);
                };
                churn_feed = Some(name.clone());
                i += 2;
            }
            "--check-oracle" => {
                check_oracle = true;
                i += 1;
            }
            "--shards" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                    xbgp_obs::error!("--shards needs a positive number");
                    return ExitCode::from(2);
                };
                if n == 0 {
                    xbgp_obs::error!("--shards must be at least 1");
                    return ExitCode::from(2);
                }
                shards = n;
                i += 2;
            }
            "--metrics-out" => {
                let Some(path) = args.get(i + 1) else {
                    xbgp_obs::error!("missing value after --metrics-out");
                    return ExitCode::from(2);
                };
                metrics_out = Some(path.clone());
                i += 2;
            }
            "--trace-out" => {
                let Some(path) = args.get(i + 1) else {
                    xbgp_obs::error!("missing value after --trace-out");
                    return ExitCode::from(2);
                };
                trace_out = Some(path.clone());
                i += 2;
            }
            "--trace-sample" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) else {
                    xbgp_obs::error!("--trace-sample needs a positive number");
                    return ExitCode::from(2);
                };
                if n == 0 {
                    xbgp_obs::error!("--trace-sample must be at least 1");
                    return ExitCode::from(2);
                }
                trace_sample = n;
                i += 2;
            }
            "--profile" => {
                profile = true;
                i += 1;
            }
            "--fault-rate" => {
                let Some(r) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) else {
                    xbgp_obs::error!("--fault-rate needs a number in [0, 1]");
                    return ExitCode::from(2);
                };
                if !(0.0..=1.0).contains(&r) {
                    xbgp_obs::error!("--fault-rate must be in [0, 1], got {r}");
                    return ExitCode::from(2);
                }
                fault_rate = Some(r);
                i += 2;
            }
            "--log-level" => {
                let Some(level) =
                    args.get(i + 1).and_then(|s| xbgp_obs::logging::Level::from_str_loose(s))
                else {
                    xbgp_obs::error!("--log-level needs error|warn|info|debug|trace");
                    return ExitCode::from(2);
                };
                xbgp_obs::logging::set_level(level);
                i += 2;
            }
            other if scenario_path.is_none() && !other.starts_with('-') => {
                scenario_path = Some(other.to_string());
                i += 1;
            }
            other => {
                xbgp_obs::error!("unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = scenario_path else {
        xbgp_obs::error!(
            "usage: xbgp-sim <scenario.json> [--shards N] [--metrics-out FILE] \
             [--fault-rate R] [--trace-out FILE] [--trace-sample N] [--profile] \
             [--churn-feed ROUTER] [--churn-routes N] [--churn-rounds N] \
             [--churn-seed N] [--churn-withdraw N] [--churn-reannounce N] \
             [--churn-flap N] [--churn-flap-period N] [--churn-roa-sweep N] \
             [--churn-hunt-depth N] [--churn-interval-ms N] [--check-oracle]"
        );
        return ExitCode::from(2);
    };
    if trace_out.is_some() && trace_sample == 0 {
        trace_sample = 1;
    }
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            xbgp_obs::error!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut scenario = match xbgp_harness::scenario::parse(&json) {
        Ok(s) => s,
        Err(e) => {
            xbgp_obs::error!("invalid scenario: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(r) = fault_rate {
        scenario.fault_rate = r;
    }
    if let Some(feed) = churn_feed {
        match &mut scenario.churn {
            Some(c) => c.feed = feed,
            None => {
                scenario.churn = Some(xbgp_harness::scenario::ChurnSection::new(&feed, 10_000));
            }
        }
    }
    if !churn_over.is_empty() || check_oracle {
        let Some(c) = scenario.churn.as_mut() else {
            xbgp_obs::error!(
                "--churn-*/--check-oracle need a `churn` section in the scenario \
                 or --churn-feed ROUTER"
            );
            return ExitCode::from(2);
        };
        for (key, n) in churn_over {
            match key {
                "routes" => c.routes = n as usize,
                "rounds" => c.rounds = n as usize,
                "seed" => c.seed = n,
                "withdraw_per_mille" => c.withdraw_per_mille = n as u32,
                "reannounce_per_mille" => c.reannounce_per_mille = n as u32,
                "flap_per_mille" => c.flap_per_mille = n as u32,
                "flap_period" => c.flap_period = n as usize,
                "roa_sweep_per_mille" => c.roa_sweep_per_mille = n as u32,
                "path_hunt_depth" => c.path_hunt_depth = n as usize,
                "interval_ms" => c.interval_ms = n,
                _ => unreachable!("key list is closed"),
            }
        }
        if check_oracle {
            c.check_oracle = true;
        }
    }
    let opts = RunOptions { trace_sample, profile, shard_base: 0 };
    match xbgp_harness::scenario::run_sharded_with_options(&scenario, shards, &opts) {
        Ok(report) => {
            println!("scenario: {}", report.name);
            for (desc, ok) in &report.checks {
                println!("  [{}] {desc}", if *ok { "PASS" } else { "FAIL" });
            }
            println!("final tables:");
            for (router, n) in &report.tables {
                println!("  {router:<16} {n} route(s)");
            }
            if scenario.churn.is_some() {
                let applied = report.metrics.counter_sum("xbgp_rib_updates_applied_total");
                let withdrawn = report.metrics.counter_sum("xbgp_rib_withdrawals_total");
                let changes = report.metrics.counter_sum("xbgp_rib_best_changes_total");
                println!(
                    "churn: {applied} update(s) applied, {withdrawn} withdrawal(s), \
                     {changes} best-path change(s)"
                );
            }
            if scenario.fault_rate > 0.0 {
                let faults = report.metrics.counter_sum("xbgp_vmm_errors_total");
                let rollbacks = report.metrics.counter_sum("xbgp_vmm_rollbacks_total");
                let quarantines = report.metrics.counter_sum("xbgp_vmm_quarantines_total");
                println!(
                    "fault injection: {faults} fault(s), {rollbacks} rollback(s), \
                     {quarantines} quarantine(s)"
                );
            }
            if let Some(out) = metrics_out {
                let doc = export::to_json(&report.metrics).to_string_pretty();
                if let Err(e) = std::fs::write(&out, doc) {
                    xbgp_obs::error!("cannot write metrics to {out}: {e}");
                    return ExitCode::from(2);
                }
                xbgp_obs::info!("metrics written to {out}");
            }
            if let Some(out) = trace_out {
                let dump = report.trace.as_ref().expect("tracing was enabled");
                let names = xbgp_harness::trace_point_names();
                let doc = if out.ends_with(".chrome.json") {
                    dump.to_chrome(&names).to_string_pretty()
                } else {
                    dump.to_jsonl(&names)
                };
                if let Err(e) = std::fs::write(&out, doc) {
                    xbgp_obs::error!("cannot write trace to {out}: {e}");
                    return ExitCode::from(2);
                }
                xbgp_obs::info!(
                    "trace written to {out}: {} event(s), {} postmortem(s)",
                    dump.events.len(),
                    dump.postmortems.len()
                );
            }
            if report.all_passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            xbgp_obs::error!("scenario failed to run: {e}");
            ExitCode::from(2)
        }
    }
}
