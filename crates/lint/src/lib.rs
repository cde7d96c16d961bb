//! # xbgp-lint — load-time diagnostics for extension programs
//!
//! Runs the exact pipeline a router applies at load time — assembler →
//! structural verifier → abstract interpretation ([`xbgp_vm::absint`]) —
//! over `.s` sources, and reports what the router would reject plus
//! lint-grade warnings the router ignores (dead stores, branches the
//! analysis proves constant). For a program at one of the two filter
//! points it also says whether one run can answer for every route of an
//! UPDATE, and if not, which granted helper is why; for one at one of the
//! two outbound points, whether the export path can share its runs
//! between peers, and if not, which line of it is why. Because it is the *same* pipeline with the
//! same per-insertion-point helper contracts, a clean lint run is a
//! guarantee: the program loads on any conforming implementation.
//!
//! Diagnostics carry the original slot pc and the decoded mnemonic, so
//! they point into the assembler's output the way the runtime's fault
//! reports do.

use std::collections::HashSet;
use std::fmt;

use xbgp_asm::assemble_with_symbols;
use xbgp_core::api::{abi_symbols, helper, InsertionPoint};
use xbgp_core::contracts::{analysis_options, peer_info_fields, peer_reads, prefix_free, PerPeer};
use xbgp_vm::insn::op;
use xbgp_vm::{absint, verify, Analysis, LoadedProgram};

/// What to lint: one assembly source plus the load context the router
/// would give it (insertion point, helper whitelist, `.equ` definitions).
#[derive(Debug, Clone)]
pub struct LintTarget {
    /// Diagnostic label (file name or extension name).
    pub name: String,
    /// eBPF assembly source.
    pub source: String,
    /// Insertion point the program attaches to; selects the helper
    /// contract table (e.g. `write_buf` is only legal while encoding).
    pub point: InsertionPoint,
    /// Helper ids the manifest whitelists. `None` = all API helpers
    /// (lint-only mode for sources without a manifest).
    pub helpers: Option<HashSet<u32>>,
    /// `NAME=value` constants prepended as `.equ` lines (templates like
    /// `fault_inject.s` assemble against these).
    pub defines: Vec<(String, i64)>,
}

impl LintTarget {
    /// A target with no manifest context: every helper allowed, inbound
    /// filter contracts.
    pub fn bare(name: impl Into<String>, source: impl Into<String>) -> LintTarget {
        LintTarget {
            name: name.into(),
            source: source.into(),
            point: InsertionPoint::BgpInboundFilter,
            helpers: None,
            defines: Vec::new(),
        }
    }
}

/// The outcome of linting one target.
#[derive(Debug)]
pub struct LintReport {
    pub name: String,
    /// Load-time rejections (assembler or verifier). Any entry means the
    /// router would refuse this program.
    pub errors: Vec<String>,
    /// Lint-grade findings the router ignores.
    pub warnings: Vec<String>,
    /// The analysis summary, when verification got that far.
    pub analysis: Option<Analysis>,
    /// For a program at ② `bgp_inbound_filter` or ④
    /// `bgp_outbound_filter`: whether it is prefix-free — one run of its
    /// chain answers for every route of an UPDATE — or the granted helper
    /// that makes it run once per route.
    pub sharing: Option<Result<(), &'static str>>,
    /// For a program at ④ `bgp_outbound_filter` or ⑤
    /// `bgp_encode_message`: the `PeerInfo` bytes of the destination it
    /// can read — peers that agree on them share one run of it in an
    /// update-group — or why it must run once per peer.
    pub grouping: Option<Result<u32, PerPeer>>,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.errors.is_empty()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.errors {
            writeln!(f, "{}: error: {e}", self.name)?;
        }
        for w in &self.warnings {
            writeln!(f, "{}: warning: {w}", self.name)?;
        }
        if let Some(a) = &self.analysis {
            let fuel = match a.worst_fuel {
                Some(n) => n.to_string(),
                None => "unbounded".to_string(),
            };
            writeln!(
                f,
                "{}: ok: worst-case fuel {fuel}, {} of {} memory accesses proven safe, \
                 stack high-water {} bytes",
                self.name,
                a.elided_loads + a.elided_stores,
                a.mem_accesses,
                a.stack_high_water,
            )?;
        }
        match &self.sharing {
            Some(Ok(())) => writeln!(
                f,
                "{}: per-update: grants neither get_prefix nor a side effect",
                self.name
            )?,
            Some(Err(helper)) => writeln!(f, "{}: per-route: grants {helper}", self.name)?,
            None => {}
        }
        match &self.grouping {
            Some(Ok(mask)) => {
                let fields = peer_info_fields(*mask).join(", ");
                writeln!(f, "{}: groupable: reads {{{fields}}}", self.name)?;
            }
            Some(Err(why)) => writeln!(f, "{}: per-peer: {why}", self.name)?,
            None => {}
        }
        Ok(())
    }
}

/// Every API helper id (lint-only mode without a manifest whitelist).
pub fn all_helpers() -> HashSet<u32> {
    helper::TABLE.iter().map(|(_, id)| *id).collect()
}

/// Run the load pipeline over one target.
pub fn lint(target: &LintTarget) -> LintReport {
    let mut report = LintReport {
        name: target.name.clone(),
        errors: Vec::new(),
        warnings: Vec::new(),
        analysis: None,
        sharing: None,
        grouping: None,
    };
    let mut src = String::new();
    for (name, value) in &target.defines {
        src.push_str(&format!(".equ {name}, {value}\n"));
    }
    src.push_str(&target.source);

    let prog = match assemble_with_symbols(&src, &abi_symbols()) {
        Ok(p) => p,
        Err(e) => {
            report.errors.push(e.to_string());
            return report;
        }
    };
    let helpers = target.helpers.clone().unwrap_or_else(all_helpers);
    if let Err(e) = verify(&prog, &helpers) {
        report.errors.push(e.to_string());
        return report;
    }
    let mut lp = LoadedProgram::load(&prog);
    let opts = analysis_options(target.point);
    match absint::analyze(&mut lp, &prog, &opts) {
        Ok(analysis) => {
            report.warnings.extend(analysis.warnings.iter().map(ToString::to_string));
            // Without a manifest, assume the smallest grant that loads the
            // program: the helpers it calls.
            let call = op::CLS_JMP | op::JMP_CALL;
            let granted = target.helpers.clone().unwrap_or_else(|| {
                prog.insns.iter().filter(|i| i.opcode == call).map(|i| i.imm as u32).collect()
            });
            use InsertionPoint::{BgpEncodeMessage, BgpInboundFilter, BgpOutboundFilter};
            if [BgpInboundFilter, BgpOutboundFilter].contains(&target.point) {
                report.sharing = Some(prefix_free(&granted));
            }
            if [BgpOutboundFilter, BgpEncodeMessage].contains(&target.point) {
                report.grouping = Some(peer_reads(&granted, analysis.watched));
            }
            report.analysis = Some(analysis);
        }
        Err(e) => report.errors.push(e.to_string()),
    }
    report
}

/// The load context a shipped program verifies under: its insertion
/// point, granted helper set, and `.equ` template parameters.
pub struct ShippedContext {
    pub point: InsertionPoint,
    pub helpers: HashSet<u32>,
    pub defines: Vec<(String, i64)>,
}

/// The load context of every shipped program, keyed by its `.s` file
/// stem, derived from the actual manifest builders in [`xbgp_progs`] so
/// the linter and the routers can never disagree about a program's
/// helpers or insertion point.
pub fn shipped_context(stem: &str) -> Option<ShippedContext> {
    // File stem → manifest extension name (they differ only for
    // geoloc_out.s, kept short for the assembler listing's sake).
    let ext_name = match stem {
        "export_igp" => "export_igp",
        "geoloc_out" => "geoloc_outbound",
        s => s,
    };
    let mut manifests = vec![
        xbgp_progs::igp_filter::manifest(),
        xbgp_progs::geoloc::manifest(None),
        xbgp_progs::route_reflect::manifest(),
        xbgp_progs::valley_free::manifest(&[], "10.0.0.0/8".parse().expect("static prefix")),
        xbgp_progs::origin_validation::manifest(),
        xbgp_progs::fault_inject::manifest(3),
    ];
    for m in &mut manifests {
        for spec in &m.extensions {
            if spec.name == ext_name {
                let ids =
                    spec.helpers.iter().filter_map(|n| helper::id_of(n)).collect::<HashSet<u32>>();
                // Templates carry their `.equ` parameters; the linter
                // substitutes representative values.
                let defines = if ext_name == "fault_inject" {
                    vec![
                        ("PERIOD".to_string(), 3),
                        ("FAULT_ATTR".to_string(), i64::from(xbgp_progs::fault_inject::FAULT_ATTR)),
                    ]
                } else {
                    Vec::new()
                };
                return Some(ShippedContext { point: spec.insertion_point, helpers: ids, defines });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shipped(stem: &str, source: &str) -> LintTarget {
        let ctx = shipped_context(stem).unwrap_or_else(|| panic!("no shipped context for {stem}"));
        LintTarget {
            name: format!("{stem}.s"),
            source: source.to_string(),
            point: ctx.point,
            helpers: Some(ctx.helpers),
            defines: ctx.defines,
        }
    }

    #[test]
    fn every_shipped_program_lints_clean() {
        let sources = [
            ("export_igp", xbgp_progs::igp_filter::SOURCE),
            ("geoloc_recv", xbgp_progs::geoloc::SRC_RECV),
            ("geoloc_inbound", xbgp_progs::geoloc::SRC_INBOUND),
            ("geoloc_out", xbgp_progs::geoloc::SRC_OUTBOUND),
            ("geoloc_encode", xbgp_progs::geoloc::SRC_ENCODE),
            ("rr_inbound", xbgp_progs::route_reflect::SRC_INBOUND),
            ("rr_outbound", xbgp_progs::route_reflect::SRC_OUTBOUND),
            ("rr_encode", xbgp_progs::route_reflect::SRC_ENCODE),
            ("valley_free", xbgp_progs::valley_free::SOURCE),
            ("rov_check", xbgp_progs::origin_validation::SOURCE),
            ("fault_inject", xbgp_progs::fault_inject::TEMPLATE),
        ];
        for (stem, src) in sources {
            let report = lint(&shipped(stem, src));
            assert!(report.clean(), "{stem} has errors: {:?}", report.errors);
        }
    }

    #[test]
    fn uninit_read_is_an_error() {
        // r7 is callee-saved and never written before use (r1-r5 are
        // argument registers and so defined at entry).
        let report = lint(&LintTarget::bare("t", "mov r0, r7\nexit"));
        assert!(!report.clean());
        assert!(report.errors[0].contains("before any write"), "{:?}", report.errors);
    }

    #[test]
    fn oob_stack_slot_is_an_error() {
        let report = lint(&LintTarget::bare("t", "ldxdw r0, [r10-520]\nexit"));
        assert!(!report.clean());
        assert!(report.errors[0].contains("outside"), "{:?}", report.errors);
    }

    #[test]
    fn write_buf_outside_encode_is_an_error() {
        let mut t =
            LintTarget::bare("t", "mov r1, r10\nsub r1, 8\nmov r2, 8\ncall write_buf\nexit");
        t.point = InsertionPoint::BgpInboundFilter;
        let report = lint(&t);
        assert!(!report.clean());
        assert!(report.errors[0].contains("not allowed"), "{:?}", report.errors);
        t.point = InsertionPoint::BgpEncodeMessage;
        // Same program at the encode point: legal.
        assert!(lint(&t).clean(), "{:?}", lint(&t).errors);
    }

    #[test]
    fn dead_store_is_a_warning_not_an_error() {
        let report = lint(&LintTarget::bare("t", "mov r2, 7\nmov r2, 8\nmov r0, r2\nexit"));
        assert!(report.clean(), "{:?}", report.errors);
        assert!(
            report.warnings.iter().any(|w| w.contains("dead store")),
            "{:?}",
            report.warnings
        );
    }

    #[test]
    fn diagnostics_carry_slot_pc_and_mnemonic() {
        let report = lint(&LintTarget::bare("t", "mov r0, 0\nldxdw r4, [r10-1024]\nexit"));
        let e = &report.errors[0];
        assert!(e.contains("pc 1"), "{e}");
        assert!(e.contains("ldxdw"), "{e}");
    }
}
