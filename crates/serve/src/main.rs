//! `xbgp-serve` — drive fir/wren over real TCP with many concurrent
//! peers.
//!
//! ```text
//! xbgp-serve selftest [--dut fir|wren|both] [--sessions N,..] [--gap-ms N,..]
//!                     [--routes N] [--rounds N] [--shards N] [--seed N]
//!                     [--json PATH] [--date D]
//! xbgp-serve bench    (the same, --out PATH for --json)
//! xbgp-serve serve    [--dut fir|wren] [--port P] [--sessions N]
//!                     [--shards N]
//! ```

use std::time::Duration;

use xbgp_driver::Dut;
use xbgp_serve::selftest::{self, SelftestOutcome, SelftestSpec};
use xbgp_serve::server::{ServeConfig, Server};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = &args[1.min(args.len())..];
    let code = match cmd {
        "selftest" => cmd_runs(&args, "64", "0", flag(rest, "--json")),
        "bench" => {
            let out = flag(rest, "--out").unwrap_or_else(|| "BENCH_peer_scaling.json".into());
            cmd_runs(&args, "8,64,256", "0,100", Some(out))
        }
        "serve" => cmd_serve(rest),
        "help" | "--help" | "-h" => {
            eprint!("{}", USAGE);
            0
        }
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
usage: xbgp-serve <command> [options]

commands:
  selftest   run N loopback TCP peers from one thread against a daemon,
             check Loc-RIB parity vs the netsim replay and the
             full-recompute oracle, and each peer's exports
             --dut fir|wren|both (both)   --sessions N,.. (64)
             --routes N (2000)            --rounds N (6)
             --shards N (1)               --seed N (42)
             --gap-ms N,.. (0 = blast)    --json PATH (write the runs)
             --date D (recorded in the JSON)
             one run per dut x sessions x gap
  bench      the selftest over the peer-scaling grid: the same options,
             --sessions (8,64,256)  --gap-ms (0,100)
             --out PATH (BENCH_peer_scaling.json) in place of --json
  serve      hold a daemon open for external BGP speakers on loopback
             --dut fir|wren (fir)         --port P (1790)
             --sessions N (256)           --shards N (1)
";

fn flag(rest: &[String], name: &str) -> Option<String> {
    rest.iter().position(|a| a == name).and_then(|i| rest.get(i + 1)).cloned()
}

fn parse<T: std::str::FromStr>(name: &str, v: &str) -> T
where
    T::Err: std::fmt::Display,
{
    v.trim().parse().unwrap_or_else(|e| {
        eprintln!("bad value for {name}: {e}");
        std::process::exit(2);
    })
}

fn flag_parse<T: std::str::FromStr>(rest: &[String], name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    flag(rest, name).map_or(default, |v| parse(name, &v))
}

/// A comma-separated flag value, or `default`.
fn flag_list(rest: &[String], name: &str, default: &str) -> Vec<u64> {
    flag(rest, name)
        .as_deref()
        .unwrap_or(default)
        .split(',')
        .map(|v| parse(name, v))
        .collect()
}

fn parse_duts(rest: &[String]) -> Vec<Dut> {
    match flag(rest, "--dut").as_deref() {
        None | Some("both") => vec![Dut::Fir, Dut::Wren],
        Some(s) => vec![parse("--dut", s)],
    }
}

/// `selftest` and `bench`: one [`selftest::run`] per dut × sessions ×
/// gap, one JSON row each to `out`. Exits 1 unless every run passed.
fn cmd_runs(args: &[String], sessions: &str, gaps: &str, out: Option<String>) -> i32 {
    let rest = &args[1..];
    let mut base = SelftestSpec::new(Dut::Fir, 0);
    base.routes = flag_parse(rest, "--routes", base.routes);
    base.rounds = flag_parse(rest, "--rounds", base.rounds);
    base.shards = flag_parse(rest, "--shards", base.shards);
    base.seed = flag_parse(rest, "--seed", base.seed);
    let mut rows = Vec::new();
    let mut ok = true;
    for dut in parse_duts(rest) {
        for &n in &flag_list(rest, "--sessions", sessions) {
            for &gap_ms in &flag_list(rest, "--gap-ms", gaps) {
                let round_gap = (gap_ms > 0).then(|| Duration::from_millis(gap_ms));
                let spec = SelftestSpec { dut, sessions: n as usize, round_gap, ..base };
                eprintln!("selftest: dut={} sessions={n} gap={gap_ms}ms", dut.slug());
                let run = selftest::run(&spec);
                let row = json_row(&spec, &run);
                eprintln!("  {row} -> {}", if run.passed(&spec) { "PASS" } else { "FAIL" });
                ok &= run.passed(&spec);
                rows.push(row);
            }
        }
    }
    if let Some(path) = out {
        let json = format!(
            "{{\n  \"command\": \"xbgp-serve {}\",\n  \"date\": \"{}\",\n  \"note\": \
             \"latency = socket read to RIB applied (xbgp-obs histogram, ns); updates_per_sec = \
             updates / elapsed; gap_ms = per-peer pause between churn rounds\",\n  \
             \"runs\": [\n    {}\n  ]\n}}\n",
            args.join(" "),
            flag(rest, "--date").unwrap_or_else(|| "unknown".into()),
            rows.join(",\n    ")
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
    }
    i32::from(!ok)
}

/// One run as one line of JSON.
fn json_row(spec: &SelftestSpec, run: &SelftestOutcome) -> String {
    format!(
        "{{\"dut\": \"{}\", \"sessions\": {}, \"established\": {}, \"routes\": {}, \
         \"rounds\": {}, \"shards\": {}, \"gap_ms\": {}, \"updates\": {}, \
         \"updates_per_sec\": {:.1}, \"best_changes\": {}, \"parity_mismatches\": {}, \
         \"oracle_mismatches\": {}, \"export_mismatches\": {}, \"early_closes\": {}, \
         \"loc_rib_len\": {}, \"p50_latency_ns\": {}, \"p99_latency_ns\": {}, \
         \"elapsed_ms\": {}, \"rejected\": {}, \"passed\": {}}}",
        spec.dut.slug(),
        spec.sessions,
        run.established,
        spec.routes,
        spec.rounds,
        spec.shards,
        spec.round_gap.unwrap_or_default().as_millis(),
        run.updates_applied,
        run.updates_applied as f64 / run.elapsed.as_secs_f64().max(1e-9),
        run.best_changes,
        run.parity_mismatches,
        run.oracle_mismatches,
        run.export_mismatches,
        run.early_closes,
        run.loc_rib_len,
        run.latency.quantile(0.50),
        run.latency.quantile(0.99),
        run.elapsed.as_millis(),
        run.rejected,
        run.passed(spec),
    )
}

fn cmd_serve(rest: &[String]) -> i32 {
    let dut = flag_parse(rest, "--dut", Dut::Fir);
    let mut cfg = ServeConfig::new(dut, flag_parse(rest, "--sessions", 256usize));
    cfg.shards = flag_parse(rest, "--shards", 1usize);
    cfg.bind_port = flag_parse(rest, "--port", 1790u16);
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return 1;
        }
    };
    eprintln!("xbgp-serve: {} listening on {}", dut.slug(), server.addr());
    loop {
        std::thread::sleep(Duration::from_secs(10));
        let c = server.counters();
        eprintln!(
            "sessions={} updates_rx={} prefixes_rx={} withdrawals_rx={}",
            server.established_sessions(),
            c.updates_rx,
            c.prefixes_rx,
            c.withdrawals_rx
        );
    }
}
