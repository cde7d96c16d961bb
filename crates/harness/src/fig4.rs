//! Fig. 4 — relative performance impact of extension bytecode versus
//! native code.
//!
//! For each (implementation × use case) cell the harness runs the Fig. 3
//! experiment `runs` times with distinct workload seeds, pairing a native
//! and an extension run per seed, and reports the boxplot of per-seed
//! relative impacts — the quantity on the paper's y-axis.

use crate::fig3::{self, Dut, Fig3Outcome, Fig3Spec, UseCase};
use crate::stats::{relative_impact_pct, summarize, Summary};
use routegen::churn::ChurnSpec;
use xbgp_obs::trace::TraceDump;
use xbgp_obs::Snapshot;

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Config {
    /// Table size per run (paper: 724k).
    pub routes: usize,
    /// Paired runs per cell (paper: 15).
    pub runs: usize,
    /// Base seed; run `i` uses `seed + i`.
    pub seed: u64,
    /// Collect DUT metrics snapshots (enables timing instrumentation in
    /// both variants, so the pairing stays symmetric).
    pub metrics: bool,
    /// Prefix-hash shards per run (both variants of a pair use the same
    /// count, keeping the pairing symmetric). `1` is the sequential path.
    pub shards: usize,
    /// Route-scoped tracing: sample 1 route in this many (0 = off). Both
    /// variants of a pair trace, keeping the pairing symmetric; the
    /// extension run's dump lands in [`Fig4Cell::trace`].
    pub trace_sample: u64,
    /// Enable the DUT's VM execution profiler in both variants.
    pub profile: bool,
    /// Churn mode: when set, each pair measures steady-state churn (see
    /// [`crate::churn`]) instead of one-shot table transfer. The impact
    /// becomes relative churn-phase DUT CPU (native vs extension), the
    /// medians churn-phase CPU ns, and every run self-checks against the
    /// full-recompute oracle. The spec's `seed` is replaced by the
    /// per-run seed so pairs stay seed-matched.
    pub churn: Option<ChurnSpec>,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            routes: 50_000,
            runs: 15,
            seed: 1,
            metrics: false,
            shards: 1,
            trace_sample: 0,
            profile: false,
            churn: None,
        }
    }
}

/// One cell of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Cell {
    pub dut: Dut,
    pub use_case: UseCase,
    /// Per-seed relative impacts (%).
    pub impacts_pct: Vec<f64>,
    /// Boxplot of `impacts_pct`.
    pub summary: Summary,
    /// Median absolute times, for context.
    pub median_native_ns: f64,
    pub median_extension_ns: f64,
    /// DUT metrics from the cell's last extension run, labeled with the
    /// use case (when `Fig4Config::metrics` is set).
    pub metrics: Option<Snapshot>,
    /// Flight-recorder dump from the cell's last extension run (when
    /// `Fig4Config::trace_sample` is set).
    pub trace: Option<TraceDump>,
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig4Report {
    pub config: Fig4Config,
    pub cells: Vec<Fig4Cell>,
}

/// Run one cell.
pub fn fig4_cell(dut: Dut, use_case: UseCase, cfg: &Fig4Config) -> Fig4Cell {
    let mut impacts = Vec::with_capacity(cfg.runs);
    let mut natives = Vec::with_capacity(cfg.runs);
    let mut extensions = Vec::with_capacity(cfg.runs);
    let mut metrics = None;
    let mut trace = None;
    // Table mode compares table-load time, churn mode churn-phase DUT CPU.
    let measure = |o: &Fig3Outcome| match cfg.churn {
        None => o.elapsed_ns as f64,
        Some(_) => o.churn_cpu_ns as f64,
    };
    for i in 0..cfg.runs {
        let seed = cfg.seed + i as u64;
        let run = |extension: bool| {
            fig3::run(&Fig3Spec {
                extension,
                metrics: cfg.metrics,
                shards: cfg.shards,
                trace_sample: cfg.trace_sample,
                profile: cfg.profile,
                // The churn stream follows the run's seed, so pairs stay
                // seed-matched.
                churn: cfg.churn.map(|c| ChurnSpec { seed, ..c }),
                ..Fig3Spec::new(dut, use_case, cfg.routes, seed)
            })
        };
        let (native, ext) = (run(false), run(true));
        assert_eq!(
            native.prefixes_delivered, ext.prefixes_delivered,
            "both variants must deliver the same table"
        );
        assert_eq!(native.updates_applied, ext.updates_applied, "same churn stream");
        assert_eq!(native.oracle_mismatches, 0, "native run diverged from the oracle");
        assert_eq!(ext.oracle_mismatches, 0, "extension run diverged from the oracle");
        natives.push(measure(&native));
        extensions.push(measure(&ext));
        impacts.push(relative_impact_pct(measure(&native), measure(&ext)));
        if let Some(snap) = ext.metrics {
            metrics = Some(snap.with_labels(&[("use_case", use_case.slug())]));
        }
        if let Some(dump) = ext.trace {
            trace = Some(dump);
        }
    }
    // `cfg.runs` is at least 1 for any runnable figure, so the samples
    // are never empty here; a zero-run config is a caller bug worth the
    // panic message.
    let summary = summarize(&impacts).expect("at least one run per cell");
    Fig4Cell {
        dut,
        use_case,
        impacts_pct: impacts,
        summary,
        median_native_ns: summarize(&natives).expect("at least one run per cell").median,
        median_extension_ns: summarize(&extensions).expect("at least one run per cell").median,
        metrics,
        trace,
    }
}

/// Run the whole figure: both DUTs × both use cases.
pub fn fig4_run(cfg: &Fig4Config) -> Fig4Report {
    let mut cells = Vec::new();
    for dut in [Dut::Fir, Dut::Wren] {
        for use_case in [UseCase::RouteReflection, UseCase::OriginValidation] {
            cells.push(fig4_cell(dut, use_case, cfg));
        }
    }
    Fig4Report { config: *cfg, cells }
}

/// Merge every cell's metrics snapshot into one document (cells are
/// distinguished by their `daemon` and `use_case` labels).
pub fn merged_metrics(report: &Fig4Report) -> Snapshot {
    let mut merged = Snapshot::default();
    for cell in &report.cells {
        if let Some(snap) = &cell.metrics {
            merged.merge(snap.clone()).expect("cells share the bucket layout");
        }
    }
    merged
}

/// The paper's qualitative reference values for side-by-side comparison
/// (medians eyeballed from Fig. 4's boxplots).
pub fn paper_reference(dut: Dut, use_case: UseCase) -> &'static str {
    match (dut, use_case) {
        (Dut::Fir, UseCase::RouteReflection) => "paper xFRR/RR: ≈ +15% (under 20%)",
        (Dut::Wren, UseCase::RouteReflection) => "paper xBIRD/RR: ≈ +18% (under 20%)",
        (Dut::Fir, UseCase::OriginValidation) => "paper xFRR/OV: ≈ -10% (extension FASTER)",
        (Dut::Wren, UseCase::OriginValidation) => "paper xBIRD/OV: ≈ 0% (parity)",
    }
}

/// Render the report as the text analogue of Fig. 4.
pub fn render(report: &Fig4Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Fig. 4 — relative performance impact of extension vs native code\n\
         # routes per run: {}, paired runs per cell: {}\n",
        report.config.routes, report.config.runs
    ));
    if let Some(c) = &report.config.churn {
        out.push_str(&format!(
            "# churn mode: {} rounds (withdraw {}‰, re-announce {}‰, flap period {}); \
             impact is on churn-phase DUT CPU\n",
            c.rounds, c.withdraw_per_mille, c.reannounce_per_mille, c.flap_period
        ));
    }
    for cell in &report.cells {
        out.push_str(&format!(
            "\n{} / {}\n  impact: {}\n  medians: native {:.2} ms, extension {:.2} ms\n  {}\n",
            cell.dut.name(),
            cell.use_case.name(),
            crate::stats::render(&cell.summary),
            cell.median_native_ns / 1e6,
            cell.median_extension_ns / 1e6,
            paper_reference(cell.dut, cell.use_case),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_mode_forwards_trace_profile_and_metrics() {
        let cfg = Fig4Config {
            routes: 200,
            runs: 1,
            metrics: true,
            trace_sample: 1,
            profile: true,
            churn: Some(ChurnSpec::new(1, 3)),
            ..Fig4Config::default()
        };
        let cell = fig4_cell(Dut::Fir, UseCase::OriginValidation, &cfg);
        let trace = cell.trace.expect("tracing requested");
        assert!(!trace.events.is_empty(), "the extension run traced no route");
        let snap = cell.metrics.expect("metrics requested");
        for series in ["xbgp_vmm_run_latency_ns", "xbgp_prof_fuel"] {
            assert!(snap.metrics.iter().any(|m| m.name == series), "{series} missing");
        }
    }
}
