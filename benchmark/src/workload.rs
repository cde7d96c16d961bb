//! One run of one workload.
//!
//! Every workload has the same two legs, because every workload has to
//! report every metric (see "Where this departs from the issue" in the
//! README): the four **cells** ({fir, wren} × {native, extension}) over an
//! in-process stream, then a **TCP leg** against `xbgp-serve`. The
//! workload fixes what the cells run and how big each leg is: the four
//! in-process workloads end with a short TCP leg; `serve_tcp` runs the
//! long TCP leg and samples, as its cells, the stream it served.

use std::path::Path;
use std::time::Instant;

use xbgp_wire::Ipv4Prefix;

use crate::calib::{self, Reference};
use crate::gen::{self, InprocInputs, Mode, Scale, ServeInputs};
use crate::inproc::{run_sample, start_daemon, Cell, Sample, CELLS};
use crate::layers::{self, Rows};
use crate::report::Report;
use crate::serve::{self, Leg, PhaseOutcome, ServeOutcome};
use crate::stats::{self, summarize};
use crate::trace::Spans;

/// An export counts as on time this long after its update was due.
const ON_TIME_MS: f64 = 100.0;

/// The inputs of both legs.
pub struct Plan {
    pub name: &'static str,
    pub cells: InprocInputs,
    pub serve: ServeInputs,
}

/// Generate the inputs of `workload` from the seed alone.
pub fn plan(workload: &str, scale: &Scale, seed: u64) -> Option<Plan> {
    let probe = || gen::serve_inputs(&scale.probe, seed);
    let (name, cells, serve) = match workload {
        "table_rr" => {
            ("table_rr", gen::table_inputs(Mode::Rr, scale.table_routes, 1, seed), probe())
        }
        "table_ov" => {
            ("table_ov", gen::table_inputs(Mode::Ov, scale.table_routes, 1, seed), probe())
        }
        "churn_ov" => (
            "churn_ov",
            gen::churn_inputs(scale.churn_routes, scale.churn_rounds, seed),
            probe(),
        ),
        "fanout_rr" => (
            "fanout_rr",
            gen::table_inputs(Mode::Rr, scale.fanout_routes, scale.fanout_sinks, seed),
            probe(),
        ),
        "serve_tcp" => {
            let serve = gen::serve_inputs(&scale.serve, seed);
            ("serve_tcp", gen::served_stream_inputs(&serve, seed), serve)
        }
        _ => return None,
    };
    Some(Plan { name, cells, serve })
}

/// The set-up of the in-process leg, once: input generation, frame
/// encoding and construction of the four daemons with extension load and
/// handshake. Returns the inputs and the seconds it took. Server start and
/// TCP handshake are not in it: they are 13 ms of 2 to 5 ms timer quanta
/// whatever the code does, and are reported as `serve.handshake_ms`.
fn set_up(workload: &str, scale: &Scale, seed: u64) -> (Plan, f64) {
    let start = Instant::now();
    let plan = plan(workload, scale, seed).expect("workload name was checked");
    for cell in CELLS {
        drop(start_daemon(&plan.cells, cell, false));
    }
    let secs = start.elapsed().as_secs_f64();
    (plan, secs)
}

/// Samples of the four cells, as ns per routing update, round by round.
#[derive(Default)]
struct CellSamples {
    /// Wall time as measured.
    wall: [Vec<f64>; 4],
    /// Wall time ÷ the sample's host factor: what `*_route_ns` reports.
    scaled: [Vec<f64>; 4],
    host_factor: Vec<f64>,
    /// Per round and daemon, (extension − native) ÷ native in percent, as
    /// measured.
    impact_pct: [Vec<f64>; 2],
}

impl CellSamples {
    /// Book one round, in [`CELLS`] order. `reference_ns` holds the
    /// reference passes taken before the round, between its cells and
    /// after it: cell `i` ran between passes `i` and `i + 1`.
    fn push_round(&mut self, wall: [f64; 4], reference_ns: [f64; 5]) {
        for (cell, ns) in wall.into_iter().enumerate() {
            let factor = calib::host_factor(reference_ns[cell], reference_ns[cell + 1]);
            self.wall[cell].push(ns);
            self.scaled[cell].push(ns / factor);
            self.host_factor.push(factor);
        }
        self.impact_pct[0].push((wall[1] - wall[0]) / wall[0] * 100.0);
        self.impact_pct[1].push((wall[3] - wall[2]) / wall[2] * 100.0);
    }
}

/// Run one sample and book it: operations attempted and failed, and the
/// native Loc-RIB an extension cell has to reproduce.
fn booked_sample(
    report: &mut Report,
    inputs: &InprocInputs,
    cell: Cell,
    native_rib: &mut Option<Vec<(Ipv4Prefix, Vec<u8>)>>,
    counters: bool,
    spans: Option<&mut Spans>,
) -> Sample {
    let reference = if cell.ext { native_rib.as_deref() } else { None };
    let mut sample = run_sample(inputs, cell, reference, counters, spans);
    report.attempted += inputs.routing_updates;
    if let Some(why) = sample.failure.take() {
        report.fail(inputs.routing_updates, format!("{}: {why}", cell.slug()));
    }
    if !cell.ext {
        *native_rib = Some(std::mem::take(&mut sample.loc_rib));
    }
    sample
}

/// One round: the four cells in [`CELLS`] order (fir-native, fir-ext,
/// wren-native, wren-ext), so a noisy stretch of this shared host hits
/// all four alike, with a reference pass before, between and after them.
fn sample_round(
    report: &mut Report,
    inputs: &InprocInputs,
    reference: &mut Reference,
    samples: &mut CellSamples,
) {
    let mut native_rib = None;
    let mut reference_ns = [reference.pass_ns(); 5];
    let mut wall = [0.0f64; 4];
    for (i, cell) in CELLS.into_iter().enumerate() {
        let sample = booked_sample(report, inputs, cell, &mut native_rib, false, None);
        wall[i] = sample.route_ns(inputs.routing_updates);
        reference_ns[i + 1] = reference.pass_ns();
    }
    samples.push_round(wall, reference_ns);
}

const CELL_METRICS: [&str; 4] = [
    "fir_native_route_ns",
    "fir_ext_route_ns",
    "wren_native_route_ns",
    "wren_ext_route_ns",
];

/// The same cells as measured, before scaling: printed by the untraced run
/// and reported by the traced one.
const WALL_METRICS: [&str; 4] = [
    "cells.fir_native_wall_ns",
    "cells.fir_ext_wall_ns",
    "cells.wren_native_wall_ns",
    "cells.wren_ext_wall_ns",
];

/// Run the TCP leg and book its operations; the Loc-RIB gate is
/// server ≡ its own full-recompute oracle ≡ the in-process replay.
fn tcp_leg(
    report: &mut Report,
    inputs: &ServeInputs,
    counters: bool,
    spans: Option<&mut Spans>,
) -> std::io::Result<ServeOutcome> {
    let outcome = Leg::start(counters)?.run(inputs, spans);
    let operations = inputs.expected.len() as u64 + outcome.low.attempted + outcome.high.attempted;
    report.attempted += operations;
    let missing = outcome.blast_missing + outcome.low.missing + outcome.high.missing;
    if missing > 0 {
        report.fail(
            missing,
            format!("{missing} exports missing {:?} after their phase", serve::EXPORT_DEADLINE),
        );
    }
    let whole_leg = operations - missing;
    let sent = (outcome.low.late_us.len() + outcome.high.late_us.len()) as u64;
    if outcome.session_closed {
        report.fail(whole_leg, "a BGP session closed during the TCP leg".to_string());
    } else if outcome.loc_rib != outcome.oracle_loc_rib {
        report.fail(whole_leg, "server Loc-RIB differs from its full-recompute oracle".to_string());
    } else if outcome.loc_rib != serve::replay_loc_rib(inputs) {
        report.fail(whole_leg, "server Loc-RIB differs from the in-process replay".to_string());
    } else if missing == 0 && sent != outcome.low.attempted + outcome.high.attempted {
        report.fail(0, format!("generator lateness known for {sent} updates only"));
    }
    Ok(outcome)
}

/// VmHWM of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Share of a phase's updates not exported within [`ON_TIME_MS`] of due;
/// an export that never arrived is late.
fn late_share(phase: &PhaseOutcome) -> f64 {
    let on_time = phase.latency_ms.iter().filter(|&&ms| ms <= ON_TIME_MS).count();
    1.0 - on_time as f64 / phase.attempted as f64
}

/// The run that yields the end-to-end numbers: no spans, no daemon
/// counters, no replay.
pub fn run_untraced(workload: &str, scale: &Scale, seed: u64) -> std::io::Result<Report> {
    // Every round sets up afresh and then samples its four cells, so the
    // set-ups are spread over the run like the samples are: set-ups taken
    // back to back all see the same moment of the host, and their median
    // is no steadier than one of them.
    let mut setups = Vec::with_capacity(scale.rounds);
    let mut cells = CellSamples::default();
    let mut reference = Reference::new();
    let (mut plan, first) = set_up(workload, scale, seed);
    let mut report = Report::new(plan.name, seed, false);
    setups.push(first);
    sample_round(&mut report, &plan.cells, &mut reference, &mut cells);
    for _ in 1..scale.rounds {
        // The old inputs go before the new ones come, or the process
        // would hold two sets at its peak.
        drop(plan);
        let (again, secs) = set_up(workload, scale, seed);
        setups.push(secs);
        plan = again;
        sample_round(&mut report, &plan.cells, &mut reference, &mut cells);
    }
    report.put_median("setup_s", summarize(&setups));
    for (i, name) in CELL_METRICS.into_iter().enumerate() {
        report.put_median(name, summarize(&cells.scaled[i]));
    }
    for (i, name) in WALL_METRICS.into_iter().enumerate() {
        if let Some(s) = summarize(&cells.wall[i]) {
            let note = format!("as measured: q1 {:.1} q3 {:.1} n {}", s.q1, s.q3, s.n);
            report.extra(name, s.median, note);
        }
    }
    if let Some(s) = summarize(&cells.host_factor) {
        let note = format!("reference ÷ nominal per sample: q1 {:.3} q3 {:.3}", s.q1, s.q3);
        report.extra("cells.host_factor", s.median, note);
    }
    for (name, impact) in [
        ("fig4.fir_impact_pct", &cells.impact_pct[0]),
        ("fig4.wren_impact_pct", &cells.impact_pct[1]),
    ] {
        if let Some(s) = summarize(impact) {
            report.extra(name, s.median, format!("q1 {:.2} q3 {:.2} n {}", s.q1, s.q3, s.n));
        }
    }

    let tcp = tcp_leg(&mut report, &plan.serve, false, None)?;
    report.put("serve_routes_per_s", Some(tcp.blast_routes_per_s));
    report.put_percentile("serve_p50_ms", &tcp.low.latency_ms, 50.0);
    report.put_percentile("serve_p90_ms", &tcp.low.latency_ms, 90.0);
    report.put("serve_late_1k", Some(late_share(&tcp.high)));
    if let Some(late) = stats::lateness(&tcp.late_us()) {
        report.extra(
            "serve.gen_late_us",
            late.median_us,
            format!(
                "how late the generator ran: median of {} updates, max {:.0} us",
                late.n, late.max_us
            ),
        );
    }
    report.put("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The traced run: spans around every call into a layer, the program's
/// own counters switched on, and the layer replay. Writes the spans to
/// `trace_path` when done.
pub fn run_traced(
    workload: &str,
    scale: &Scale,
    seed: u64,
    trace_path: &Path,
) -> std::io::Result<Report> {
    let plan = plan(workload, scale, seed).expect("workload name was checked");
    let inputs = &plan.cells;
    let mut report = Report::new(plan.name, seed, true);
    let mut spans = Spans::new();

    // Pairs of an untraced and a traced sample per cell and round, the
    // order alternating, so tracing overhead is measured like with like.
    // Only the first round's per-frame spans are kept for the span file
    // (a `churn_ov` round alone is half a million spans); later rounds are
    // traced just the same but into a recorder that is thrown away.
    let mut untraced = CellSamples::default();
    let mut reference = Reference::new();
    let mut overhead_pct = Vec::new();
    let mut deliver: [Vec<f64>; 2] = Default::default();
    let mut drain: [Vec<f64>; 2] = Default::default();
    for round in 0..scale.trace_rounds {
        let mut scratch = Spans::new();
        let spans = if round == 0 { &mut spans } else { &mut scratch };
        let mut native_rib = None;
        let mut plain_ns = [0.0f64; 4];
        let mut reference_ns = [reference.pass_ns(); 5];
        for (i, cell) in CELLS.into_iter().enumerate() {
            let mut pair = [0.0f64; 2];
            for traced in if round % 2 == 0 { [false, true] } else { [true, false] } {
                let from = spans.all().len();
                let parent = traced.then(|| spans.open("sample", i as u64));
                let sample = booked_sample(
                    &mut report,
                    inputs,
                    cell,
                    &mut native_rib,
                    false,
                    traced.then_some(&mut *spans),
                );
                if let Some(parent) = parent {
                    spans.close(parent);
                }
                pair[usize::from(traced)] = sample.route_ns(inputs.routing_updates);
                if traced && !cell.ext {
                    let dut = i / 2;
                    for s in &spans.all()[from..] {
                        let ns = (s.end_ns - s.start_ns) as f64;
                        match s.name {
                            "deliver" => deliver[dut].push(ns),
                            "drain_outbound" => drain[dut].push(ns),
                            _ => {}
                        }
                    }
                }
            }
            plain_ns[i] = pair[0];
            overhead_pct.push((pair[1] - pair[0]) / pair[0] * 100.0);
            reference_ns[i + 1] = reference.pass_ns();
        }
        untraced.push_round(plain_ns, reference_ns);
    }

    // One counted sample per cell: the daemon's own counters, read where
    // the work happens. Counts are exact and repeat bit for bit.
    let mut native_rib = None;
    let counted: Vec<Sample> = CELLS
        .into_iter()
        .map(|cell| booked_sample(&mut report, inputs, cell, &mut native_rib, true, None))
        .collect();
    let updates = inputs.routing_updates as f64;
    for (dut, (frames_metric, prefixes_metric)) in [
        ("fir.frames_per_best_change", "fir.prefixes_tx_per_route"),
        ("wren.frames_per_best_change", "wren.prefixes_tx_per_route"),
    ]
    .into_iter()
    .enumerate()
    {
        let native = &counted[dut * 2];
        let (before, after) = native.counters;
        let best = native.counted("xbgp_rib_best_changes_total").filter(|&n| n > 0);
        report.put(
            frames_metric,
            best.map(|b| (after.updates_tx - before.updates_tx) as f64 / b as f64),
        );
        report
            .put(prefixes_metric, Some((after.prefixes_tx - before.prefixes_tx) as f64 / updates));
    }
    let fir_native = &counted[0];
    let fir_ext = &counted[1];
    for (name, counter) in [
        ("core.runs_per_route", "xbgp_vmm_extension_runs_total"),
        ("core.helper_calls_per_route", "xbgp_vmm_extension_helper_calls_total"),
        ("core.insns_per_route", "xbgp_vmm_extension_insns_total"),
    ] {
        report.put(name, fir_ext.counted(counter).map(|n| n as f64 / updates));
    }
    report.put(
        "rib.best_changes_per_update",
        fir_native.counted("xbgp_rib_best_changes_total").map(|n| n as f64 / updates),
    );
    // An empty histogram is left out of a snapshot: absent means no batch
    // was drained (table transfers decide every route inline).
    let batch_mean = fir_native.snapshots.as_ref().map(|(before, after)| {
        let read = |s: &xbgp_obs::Snapshot| {
            s.histogram_value("xbgp_rib_delta_batch_size", &[])
                .map_or((0, 0), |h| (h.sum, h.count))
        };
        let ((sum0, n0), (sum1, n1)) = (read(before), read(after));
        if n1 > n0 {
            (sum1 - sum0) as f64 / (n1 - n0) as f64
        } else {
            0.0
        }
    });
    report.put("rib.delta_batch_mean", batch_mean);

    let tcp = tcp_leg(&mut report, &plan.serve, true, Some(&mut spans))?;
    let rows = layers::replay(inputs, &fir_native.exported[0], &mut spans);

    for (name, value) in rows.iter() {
        report.put(name, Some(value));
    }
    for (dut, (p50, p99, drain_metric)) in [
        ("fir.deliver_p50_ns", "fir.deliver_p99_ns", "fir.drain_ns"),
        ("wren.deliver_p50_ns", "wren.deliver_p99_ns", "wren.drain_ns"),
    ]
    .into_iter()
    .enumerate()
    {
        report.put_percentile(p50, &deliver[dut], 50.0);
        report.put_tail(p99, &deliver[dut], 99.0);
        report.put(drain_metric, mean(&drain[dut]));
    }

    report.put(
        "serve.sock2rib_mean_ns",
        (tcp.sock2rib.1 > 0).then(|| tcp.sock2rib.0 as f64 / tcp.sock2rib.1 as f64),
    );
    report.put_tail("serve.sock2sock_p99_ms", &tcp.low.latency_ms, 99.0);
    report.put_percentile("serve.sock2sock_p50_ms_1k", &tcp.high.latency_ms, 50.0);
    report.put_tail("serve.gen_late_p99_us", &tcp.late_us(), 99.0);
    report.put("serve.handshake_ms", Some(tcp.handshake_ms));
    report.put(
        "serve.frames_rx_per_route",
        Some(tcp.blast_frames_rx as f64 / plan.serve.expected.len() as f64),
    );

    report.put_median("fig4.fir_impact_pct", summarize(&untraced.impact_pct[0]));
    report.put_median("fig4.wren_impact_pct", summarize(&untraced.impact_pct[1]));
    report.put_median("trace.overhead_pct", summarize(&overhead_pct));
    // The replayed rows are wall times, so the ledger weighs them against
    // the cell's wall time of the same run.
    if let Some(route_ns) = stats::median(&untraced.wall[0]) {
        ledger(&mut report, &rows, inputs, fir_native, route_ns);
    }
    report.put("cells.host_factor", stats::median(&untraced.host_factor));
    for (i, name) in WALL_METRICS.into_iter().enumerate() {
        report.put_median(name, summarize(&untraced.wall[i]));
    }

    spans.write_jsonl(trace_path)?;
    Ok(report)
}

/// The outside-in ledger of the native fir cell: each replayed row times
/// its calls per routing update, as a share of what a routing update
/// costs end to end. `ledger.coverage` is the sum: how much of a route
/// the rows explain. The rest is inside `deliver`, where no span reaches.
fn ledger(report: &mut Report, rows: &Rows, inputs: &InprocInputs, native: &Sample, route_ns: f64) {
    let row = |name: &str| rows.get(name).unwrap_or(0.0);
    let c = rows.counts;
    let updates = inputs.routing_updates as f64;
    let frames_out = native.exported.iter().map(Vec::len).sum::<usize>() as f64;
    let wire = (row("wire.reader_ns") + row("wire.decode_ns") + row("netsim.driver_floor_ns"))
        * c.frames as f64;
    let attrs = (row("fir.attrs_from_wire_ns") + row("fir.intern_ns")) * c.attr_sets as f64;
    let rib = row("rib.insert_ns") * c.inserts as f64
        + row("rib.replace_ns") * c.replaces as f64
        + row("rib.remove_ns") * c.removes as f64
        + row("rib.dirty_cycle_ns") * (c.inserts + c.replaces + c.removes) as f64;
    let rpki = match inputs.mode {
        Mode::Ov => row("rpki.trie_validate_ns") * (c.inserts + c.replaces) as f64,
        Mode::Rr => 0.0,
    };
    let export = (row("fir.attrs_to_wire_ns") + row("wire.encode_ns")) * frames_out;
    let share = |ns: f64| Some(ns / updates / route_ns);
    report.put("ledger.wire_share", share(wire));
    report.put("ledger.attrs_share", share(attrs));
    report.put("ledger.rib_share", share(rib));
    report.put("ledger.rpki_share", share(rpki));
    report.put("ledger.export_share", share(export));
    report.put("ledger.coverage", share(wire + attrs + rib + rpki + export));
}
