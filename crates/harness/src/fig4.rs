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

/// One cell's parameters: the Fig. 3 run each pair repeats, and how many
/// pairs.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Config {
    /// The run both variants of every pair make; `dut` and `use_case`
    /// pick the cell. A pair overrides only `extension` and the seed:
    /// pair `i` uses `spec.seed + i`, and the churn stream follows it, so
    /// pairs stay seed-matched. Every other field (metrics, shards,
    /// tracing) applies to both variants, keeping the pairing
    /// symmetric.
    ///
    /// With `spec.churn` set, each pair measures steady-state churn (see
    /// [`crate::churn`]) instead of one-shot table transfer: the impact
    /// becomes relative churn-phase DUT CPU, the medians churn-phase CPU
    /// ns, and every run self-checks against the full-recompute oracle.
    pub spec: Fig3Spec,
    /// Paired runs per cell (paper: 15).
    pub runs: usize,
}

impl Default for Fig4Config {
    /// The xFIR route-reflection cell at 50k routes (paper: 724k), 15
    /// pairs from seed 1.
    fn default() -> Self {
        Fig4Config {
            spec: Fig3Spec::new(Dut::Fir, UseCase::RouteReflection, 50_000, 1),
            runs: 15,
        }
    }
}

/// One cell of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Cell {
    /// Per-seed relative impacts (%).
    pub impacts_pct: Vec<f64>,
    /// Boxplot of `impacts_pct`.
    pub summary: Summary,
    /// Median absolute times, for context.
    pub median_native_ns: f64,
    pub median_extension_ns: f64,
    /// DUT metrics from the cell's last extension run, labeled with the
    /// use case (when `spec.metrics` is set).
    pub metrics: Option<Snapshot>,
    /// Flight-recorder dump from the cell's last extension run (when
    /// `spec.trace_sample` is set).
    pub trace: Option<TraceDump>,
}

/// Run one cell.
pub fn fig4_cell(cfg: &Fig4Config) -> Fig4Cell {
    let spec = &cfg.spec;
    let mut impacts = Vec::with_capacity(cfg.runs);
    let mut natives = Vec::with_capacity(cfg.runs);
    let mut extensions = Vec::with_capacity(cfg.runs);
    let mut metrics = None;
    let mut trace = None;
    // Table mode compares table-load time, churn mode churn-phase DUT CPU.
    let measure = |o: &Fig3Outcome| match spec.churn {
        None => o.elapsed_ns as f64,
        Some(_) => o.churn_cpu_ns as f64,
    };
    for i in 0..cfg.runs {
        let seed = spec.seed + i as u64;
        let run = |extension: bool| {
            fig3::run(&Fig3Spec {
                extension,
                seed,
                churn: spec.churn.map(|c| ChurnSpec { seed, ..c }),
                ..*spec
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
            metrics = Some(snap.with_labels(&[("use_case", spec.use_case.slug())]));
        }
        if let Some(dump) = ext.trace {
            trace = Some(dump);
        }
    }
    // The `fig4` binary refuses `--runs 0`, so the samples are never
    // empty here; a zero-run config is a caller bug worth the panic
    // message.
    let summary = summarize(&impacts).expect("at least one run per cell");
    Fig4Cell {
        impacts_pct: impacts,
        summary,
        median_native_ns: summarize(&natives).expect("at least one run per cell").median,
        median_extension_ns: summarize(&extensions).expect("at least one run per cell").median,
        metrics,
        trace,
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_mode_forwards_trace_profile_and_metrics() {
        let cfg = Fig4Config {
            spec: Fig3Spec {
                metrics: true,
                trace_sample: 1,
                churn: Some(ChurnSpec::new(1, 3)),
                ..Fig3Spec::new(Dut::Fir, UseCase::OriginValidation, 200, 1)
            },
            runs: 1,
        };
        let cell = fig4_cell(&cfg);
        let trace = cell.trace.expect("tracing requested");
        assert!(!trace.events.is_empty(), "the extension run traced no route");
        let snap = cell.metrics.expect("metrics requested");
        for series in ["xbgp_vmm_run_latency_ns", "xbgp_prof_fuel"] {
            assert!(snap.metrics.iter().any(|m| m.name == series), "{series} missing");
        }
    }
}
