//! What the benchmark reports: the metric tables `BENCHMARK.json` lists,
//! and the result of one run.

use crate::stats::{percentile, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload prints every one of these with `--trace 0`. "Routing
/// update" is one announced NLRI or one withdrawn prefix absorbed
/// (`DaemonCounters::routing_updates_rx`).
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.2),
    e2e("fir_native_route_ns", "ns", Lower, 0.25),
    e2e("fir_ext_route_ns", "ns", Lower, 0.25),
    e2e("wren_native_route_ns", "ns", Lower, 0.25),
    e2e("wren_ext_route_ns", "ns", Lower, 0.25),
    e2e("serve_routes_per_s", "1/s", Higher, 0.2),
    e2e("serve_p50_ms", "ms", Lower, 0.2),
    e2e("serve_p90_ms", "ms", Lower, 0.25),
    e2e("serve_late_1k", "share", Lower, 0.05),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload prints every one of these with `--trace 1`.
pub const PER_LAYER: [PerLayer; 72] = [
    layer("wire.decode_ns", "ns", Lower),
    layer("wire.reader_ns", "ns", Lower),
    layer("wire.encode_ns", "ns", Lower),
    layer("wire.session_ns", "ns", Lower),
    layer("wire.prefixes_per_frame", "count", Higher),
    layer("wire.frame_bytes", "B", Lower),
    layer("fir.attrs_from_wire_ns", "ns", Lower),
    layer("fir.attrs_to_wire_ns", "ns", Lower),
    layer("fir.intern_ns", "ns", Lower),
    layer("wren.ealist_from_wire_ns", "ns", Lower),
    layer("wren.ealist_to_wire_ns", "ns", Lower),
    layer("fir.deliver_p50_ns", "ns", Lower),
    layer("fir.deliver_p99_ns", "ns", Lower),
    layer("wren.deliver_p50_ns", "ns", Lower),
    layer("wren.deliver_p99_ns", "ns", Lower),
    layer("fir.drain_ns", "ns", Lower),
    layer("wren.drain_ns", "ns", Lower),
    layer("fir.frames_per_best_change", "count", Lower),
    layer("wren.frames_per_best_change", "count", Lower),
    layer("fir.prefixes_tx_per_route", "count", Lower),
    layer("wren.prefixes_tx_per_route", "count", Lower),
    layer("core.load_us.rr", "us", Lower),
    layer("core.load_us.ov", "us", Lower),
    layer("core.run_ns.rr_inbound", "ns", Lower),
    layer("core.run_ns.rr_outbound", "ns", Lower),
    layer("core.run_ns.rr_encode", "ns", Lower),
    layer("core.run_ns.rov_check", "ns", Lower),
    layer("core.run_ns.empty", "ns", Lower),
    layer("core.runs_per_route", "count", Lower),
    layer("core.helper_calls_per_route", "count", Lower),
    layer("core.insns_per_route", "count", Lower),
    layer("vm.load_us.rr_inbound", "us", Lower),
    layer("vm.load_us.rr_outbound", "us", Lower),
    layer("vm.load_us.rr_encode", "us", Lower),
    layer("vm.load_us.rov_check", "us", Lower),
    layer("vm.insn_ns.rov_check", "ns", Lower),
    layer("vm.insns.rr_inbound", "count", Lower),
    layer("vm.insns.rr_outbound", "count", Lower),
    layer("vm.insns.rr_encode", "count", Lower),
    layer("vm.insns.rov_check", "count", Lower),
    layer("rpki.trie_validate_ns", "ns", Lower),
    layer("rpki.hash_validate_ns", "ns", Lower),
    layer("rib.insert_ns", "ns", Lower),
    layer("rib.replace_ns", "ns", Lower),
    layer("rib.remove_ns", "ns", Lower),
    layer("rib.get_ns", "ns", Lower),
    layer("rib.dirty_cycle_ns", "ns", Lower),
    layer("rib.best_changes_per_update", "count", Lower),
    layer("rib.delta_batch_mean", "count", Lower),
    layer("netsim.driver_floor_ns", "ns", Lower),
    layer("serve.sock2rib_mean_ns", "ns", Lower),
    layer("serve.sock2sock_p99_ms", "ms", Lower),
    layer("serve.sock2sock_p50_ms_1k", "ms", Lower),
    layer("serve.gen_late_p99_us", "us", Lower),
    layer("serve.handshake_ms", "ms", Lower),
    layer("serve.frames_rx_per_route", "count", Lower),
    layer("serve.split_ns", "ns", Lower),
    layer("fig4.fir_impact_pct", "%", Lower),
    layer("fig4.wren_impact_pct", "%", Lower),
    layer("obs.observe_ns", "ns", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("ledger.coverage", "share", Higher),
    layer("ledger.wire_share", "share", Lower),
    layer("ledger.attrs_share", "share", Lower),
    layer("ledger.rib_share", "share", Lower),
    layer("ledger.rpki_share", "share", Lower),
    layer("ledger.export_share", "share", Lower),
    layer("cells.host_factor", "x", Lower),
    layer("cells.fir_native_wall_ns", "ns", Lower),
    layer("cells.fir_ext_wall_ns", "ns", Lower),
    layer("cells.wren_native_wall_ns", "ns", Lower),
    layer("cells.wren_ext_wall_ns", "ns", Lower),
];

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "table_rr",
        why: "Fig. 4 route reflection: 50k-route iBGP table, three tiny programs per route, so VMM entry and marshalling dominate the extension cells",
    },
    WorkloadInfo {
        name: "table_ov",
        why: "Fig. 4 origin validation: 50k-route eBGP table, one larger program per route with a ROA lookup, so interpretation and helper dispatch dominate",
    },
    WorkloadInfo {
        name: "churn_ov",
        why: "withdraw storms, flaps, ROA sweeps and path hunting on a loaded 30k-route RIB: replaces, removals and delta re-decision, not inserts",
    },
    WorkloadInfo {
        name: "fanout_rr",
        why: "5k routes reflected to 32 clients: filter, encode and emit once per peer, so export does ten times the work of ingest",
    },
    WorkloadInfo {
        name: "serve_tcp",
        why: "xbgp-serve over loopback TCP, one sender and one receiver: sockets, Session FSM, mpsc hop, core thread and per-session write loop",
    },
];

/// One reported number.
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    /// Quartiles and sample count, when the value is a median of samples.
    pub samples: Option<Summary>,
    /// Free-form context printed after the number.
    pub note: String,
}

/// The result of one run of one workload.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Operations attempted: routing updates delivered in-process plus
    /// routes and updates sent over TCP.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub values: Vec<Value>,
    /// Numbers printed for the reader only, outside the JSON line.
    pub extras: Vec<Value>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Report {
        Report {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: Vec::new(),
            extras: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    pub fn fail(&mut self, operations: u64, why: String) {
        self.failed += operations;
        self.failures.push(why);
    }

    /// Report `name`. A value that could not be measured (or is not a
    /// finite number) makes the run incorrect rather than printing a
    /// made-up number.
    pub fn put(&mut self, name: &'static str, value: Option<f64>) {
        self.put_with(name, value, None, String::new());
    }

    pub fn put_with(
        &mut self,
        name: &'static str,
        value: Option<f64>,
        samples: Option<Summary>,
        note: String,
    ) {
        match value {
            Some(v) if v.is_finite() => self.values.push(Value { name, value: v, samples, note }),
            _ => self.fail(0, format!("metric {name} could not be measured")),
        }
    }

    /// Report the nearest-rank `p`-th percentile of `values`. A sample
    /// with fewer than ten values beyond it makes the run incorrect.
    pub fn put_percentile(&mut self, name: &'static str, values: &[f64], p: f64) {
        let note = format!("nearest-rank p{p} of {} samples", values.len());
        self.put_with(name, percentile(values, p).ok(), None, note);
    }

    /// A per-layer tail row named after `p`: that percentile where the
    /// sample supports it, which is every leg at full scale but the low
    /// phase of the short TCP leg (300 samples), else the highest of the
    /// usual percentiles it does support. The note says which was used.
    pub fn put_tail(&mut self, name: &'static str, values: &[f64], p: f64) {
        let used = [p, 95.0, 90.0, 75.0, 50.0]
            .into_iter()
            .find(|&q| q <= p && percentile(values, q).is_ok())
            .unwrap_or(p);
        self.put_percentile(name, values, used);
    }

    pub fn put_median(&mut self, name: &'static str, samples: Option<Summary>) {
        self.put_with(name, samples.map(|s| s.median), samples, String::new());
    }

    pub fn extra(&mut self, name: &'static str, value: f64, note: String) {
        self.extras.push(Value { name, value, samples: None, note });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    }

    /// The names this run has to report, in table order.
    fn required(&self) -> Vec<&'static str> {
        if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// Metrics of the table this run did not report.
    pub fn missing(&self) -> Vec<&'static str> {
        self.required().into_iter().filter(|n| self.get(n).is_none()).collect()
    }

    /// Every metric by name with unit, median, quartiles and sample count.
    pub fn human(&self) -> String {
        let mut out = format!(
            "workload {} seed {} trace {}\n",
            self.workload,
            self.seed,
            u8::from(self.traced)
        );
        for v in self.values.iter().chain(&self.extras) {
            let unit = Report::unit_of(v.name);
            out.push_str(&format!("  {:<30} {:>16.4} {:<6}", v.name, v.value, unit));
            if let Some(s) = v.samples {
                out.push_str(&format!(" min {:.4} q1 {:.4} q3 {:.4} n {}", s.min, s.q1, s.q3, s.n));
            }
            if !v.note.is_empty() {
                out.push_str(&format!(" ({})", v.note));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  operations attempted {} failed {}\n",
            self.attempted, self.failed
        ));
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, values with all their digits.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .required()
            .into_iter()
            .filter_map(|name| self.get(name).map(|v| (name, v)))
            .map(|(name, v)| {
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", Report::unit_of(name))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbgp_obs::json::Value as Json;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let mut names = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "x")))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(names.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the root of the repository is written by hand;
    /// this keeps it equal to the tables above.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.keys(),
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!((field(j, "name"), field(j, "why")), (w.name.into(), w.why.into()));
        }
        let e2e = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("table_rr", 1, false);
        r.attempted = 10;
        for m in &END_TO_END {
            r.put(m.name, Some(1.25));
        }
        let doc = Json::parse(&r.json_line()).unwrap();
        assert_eq!(doc.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.keys().len(), END_TO_END.len());
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(r.missing().is_empty());

        // An unmeasurable metric makes the run incorrect.
        r.put("peak_rss_mb", Some(f64::NAN));
        assert!(!r.correct());
    }
}
