//! Prefix-sharded multi-worker route processing.
//!
//! BGP best-route selection is independent per prefix, so a table load
//! splits cleanly into shards by prefix hash: each shard worker owns a
//! complete, self-contained copy of the pipeline — simulator, feeder,
//! a `FirDaemon`/`WrenDaemon` instance and its own `Vmm` with the
//! extension bytecode loaded. Nothing `Rc`-based ever crosses a thread:
//! workers receive only `Send` inputs (wire-format UPDATE frame batches,
//! the shared ROA slice, the manifest with `Arc`'d bytecode) over mpsc
//! channels and return only `Send` outputs (per-shard counters, metric
//! [`Snapshot`]s, wire-encoded Loc-RIB dumps). This keeps the
//! single-threaded daemon internals untouched — per-shard ownership
//! instead of shared-state locking.
//!
//! `N = 1` never enters this module ([`crate::fig3::run`] dispatches here
//! only for `shards > 1`), so a single-shard run is the reference
//! sequential path, byte for byte.

use crate::fig3::{self, Fig3Outcome, Fig3Spec, UseCase};
use crate::stats::{summarize_weighted, Summary};
use routegen::{Route, TableSpec};
use std::sync::mpsc;
use xbgp_obs::trace::TraceDump;
use xbgp_obs::Snapshot;
use xbgp_wire::Ipv4Prefix;

/// UPDATE frames per mpsc message when feeding a worker. Batching
/// amortizes channel overhead: one send moves ~64 × 4 KiB of wire data.
const FRAME_BATCH: usize = 64;

/// Which shard owns `prefix`, out of `shards`.
///
/// FNV-1a over the prefix address and length: cheap, platform-stable,
/// and a pure function of the prefix — ownership does not depend on
/// arrival order, which is what makes shard placement deterministic.
pub fn shard_of(prefix: &Ipv4Prefix, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in prefix.addr().to_be_bytes().into_iter().chain([prefix.len()]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Split a workload into per-shard route lists by prefix hash, preserving
/// the original order within each shard (attribute-sharing runs stay
/// intact, so UPDATE packing keeps working per shard).
pub fn split_routes(routes: &[Route], shards: usize) -> Vec<Vec<Route>> {
    let mut out: Vec<Vec<Route>> =
        (0..shards).map(|_| Vec::with_capacity(routes.len() / shards + 1)).collect();
    for r in routes {
        out[shard_of(&r.prefix, shards)].push(r.clone());
    }
    out
}

/// How shard workers execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One scoped OS thread per non-empty shard — the runtime
    /// configuration.
    Threads,
    /// Shards run back-to-back on the calling thread. Identical code and
    /// results (each shard's simulation is self-contained), but each
    /// shard's CPU accounting runs uncontended — benches use this to
    /// measure per-shard virtual time on hosts with fewer hardware
    /// threads than shards, where preemption would inflate the
    /// wall-clock-sampled CPU charges.
    Inline,
}

/// One worker's result plus enough context to weight aggregates.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    pub shard: usize,
    /// Routes this shard actually processed (shards rarely divide
    /// evenly; aggregate statistics weight by this).
    pub routes: usize,
    pub outcome: Fig3Outcome,
}

/// A sharded Fig. 3 run: the merged outcome plus per-shard detail.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    pub merged: Fig3Outcome,
    /// Per-shard outcomes, sorted by shard index; empty shards omitted.
    pub shards: Vec<ShardOutcome>,
}

impl ShardedRun {
    /// Per-route DUT CPU cost summary across shards, weighted by the
    /// routes each shard actually processed (an uneven last shard
    /// contributes proportionally, not as a full peer).
    pub fn per_route_cpu_summary(&self) -> Summary {
        let values: Vec<f64> = self
            .shards
            .iter()
            .map(|s| s.outcome.dut_cpu_ns as f64 / s.routes.max(1) as f64)
            .collect();
        let weights: Vec<u64> = self.shards.iter().map(|s| s.routes as u64).collect();
        summarize_weighted(&values, &weights).expect("one weight per shard by construction")
    }
}

/// Run a Fig. 3 workload split across `spec.shards` workers.
///
/// The parent generates the full table and the full ROA set once (both
/// are functions of the complete table and the seed — see
/// [`fig3::make_roas`]), splits the routes by prefix hash, pre-encodes
/// each shard's UPDATE frames, and streams them to the workers in
/// batches. Each worker builds its entire pipeline locally and reports
/// one [`ShardOutcome`] back over the result channel.
pub fn run_fig3_sharded(spec: &Fig3Spec, mode: ExecMode) -> ShardedRun {
    let shards = spec.shards.max(1);
    let table = routegen::generate(&TableSpec::new(spec.routes, spec.seed));
    let roas =
        (spec.use_case == UseCase::OriginValidation).then(|| fig3::make_roas(&table, spec.seed));
    let parts = split_routes(&table, shards);
    drop(table);

    let roas = roas.as_deref();
    let mut results: Vec<ShardOutcome> = match mode {
        ExecMode::Inline => parts
            .iter()
            .enumerate()
            .filter(|(_, routes)| !routes.is_empty())
            .map(|(k, routes)| {
                let frames = fig3::encode_frames(spec, routes);
                let outcome = fig3::run_frames(spec, frames, routes.len(), roas, k as u32);
                ShardOutcome { shard: k, routes: routes.len(), outcome }
            })
            .collect(),
        ExecMode::Threads => {
            let (out_tx, out_rx) = mpsc::channel::<ShardOutcome>();
            let mut live = 0usize;
            std::thread::scope(|scope| {
                let mut feeds = Vec::new();
                for (k, routes) in parts.iter().enumerate() {
                    if routes.is_empty() {
                        continue;
                    }
                    live += 1;
                    let (in_tx, in_rx) = mpsc::channel::<Vec<Vec<u8>>>();
                    let out_tx = out_tx.clone();
                    let spec = *spec;
                    let expected = routes.len();
                    scope.spawn(move || {
                        // Drain the batched wire-format UPDATE feed, then
                        // run the complete shard-local pipeline. All
                        // non-`Send` state (daemon, VMM, interning
                        // tables) is born and dies on this thread.
                        let mut frames = Vec::new();
                        for batch in in_rx {
                            frames.extend(batch);
                        }
                        let outcome = fig3::run_frames(&spec, frames, expected, roas, k as u32);
                        let _ = out_tx.send(ShardOutcome { shard: k, routes: expected, outcome });
                    });
                    feeds.push((in_tx, routes));
                }
                drop(out_tx);
                // Feed every worker its shard's frames in batches.
                for (in_tx, routes) in feeds {
                    for batch in fig3::encode_frames(spec, routes).chunks(FRAME_BATCH) {
                        in_tx.send(batch.to_vec()).expect("worker alive until feed closes");
                    }
                    // Dropping in_tx closes the feed; the worker starts.
                }
                out_rx.iter().take(live).collect()
            })
        }
    };
    results.sort_by_key(|r| r.shard);
    ShardedRun { merged: merge_outcomes(spec, &results), shards: results }
}

/// Merge per-shard outcomes into one figure-level outcome:
///
/// * `elapsed_ns` — the **max** across shards. Shards run concurrently,
///   each on its own (virtual) core, so the table load completes when
///   the slowest shard does.
/// * `prefixes_delivered` / `dut_cpu_ns` — sums.
/// * `metrics` — snapshots merged with [`Snapshot::merge`], which sums
///   matching counters, gauges and histogram buckets, so totals match
///   what one daemon over the whole workload would report.
/// * `loc_rib` — concatenated and re-sorted: shard ownership partitions
///   the prefix space, so the union is the whole table.
/// * `trace` — per-shard flight-recorder dumps merged into one timeline
///   ([`TraceDump::merge`] orders by virtual timestamp, then shard).
fn merge_outcomes(spec: &Fig3Spec, results: &[ShardOutcome]) -> Fig3Outcome {
    let mut merged = Fig3Outcome {
        elapsed_ns: 0,
        prefixes_delivered: 0,
        dut_cpu_ns: 0,
        metrics: spec.metrics.then(Snapshot::new),
        loc_rib: spec.rib_dump.then(Vec::new),
        trace: None,
    };
    for r in results {
        merged.elapsed_ns = merged.elapsed_ns.max(r.outcome.elapsed_ns);
        merged.prefixes_delivered += r.outcome.prefixes_delivered;
        merged.dut_cpu_ns += r.outcome.dut_cpu_ns;
        if let (Some(acc), Some(snap)) = (merged.metrics.as_mut(), r.outcome.metrics.as_ref()) {
            acc.merge(snap.clone()).expect("shards share the bucket layout");
        }
        if let (Some(acc), Some(rib)) = (merged.loc_rib.as_mut(), r.outcome.loc_rib.as_ref()) {
            acc.extend(rib.iter().cloned());
        }
    }
    if let Some(rib) = merged.loc_rib.as_mut() {
        rib.sort();
    }
    let dumps: Vec<TraceDump> = results.iter().filter_map(|r| r.outcome.trace.clone()).collect();
    if !dumps.is_empty() {
        merged.trace = Some(TraceDump::merge(dumps));
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig3::Dut;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let p: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
        for shards in 1..=8 {
            let k = shard_of(&p, shards);
            assert!(k < shards);
            assert_eq!(k, shard_of(&p, shards), "pure function of the prefix");
        }
        assert_eq!(shard_of(&p, 1), 0);
    }

    #[test]
    fn split_preserves_every_route_exactly_once() {
        let table = routegen::generate(&TableSpec::new(1000, 3));
        let parts = split_routes(&table, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), table.len());
        for (k, part) in parts.iter().enumerate() {
            for r in part {
                assert_eq!(shard_of(&r.prefix, 4), k);
            }
        }
        // A hash split of 1000 routes should not be pathologically skewed.
        assert!(parts.iter().all(|p| (150..=350).contains(&p.len())));
    }

    #[test]
    fn threads_and_inline_modes_agree() {
        let spec = Fig3Spec {
            dut: Dut::Fir,
            use_case: UseCase::OriginValidation,
            extension: true,
            routes: 300,
            seed: 11,
            metrics: false,
            shards: 3,
            rib_dump: true,
            trace_sample: 0,
            profile: false,
        };
        let threaded = run_fig3_sharded(&spec, ExecMode::Threads);
        let inline = run_fig3_sharded(&spec, ExecMode::Inline);
        assert_eq!(threaded.merged.prefixes_delivered, 300);
        assert_eq!(inline.merged.prefixes_delivered, 300);
        assert_eq!(threaded.merged.loc_rib, inline.merged.loc_rib);
        let (t, i): (Vec<_>, Vec<_>) = (
            threaded.shards.iter().map(|s| (s.shard, s.routes)).collect(),
            inline.shards.iter().map(|s| (s.shard, s.routes)).collect(),
        );
        assert_eq!(t, i);
    }

    #[test]
    fn per_route_summary_weights_by_shard_size() {
        let mk = |shard: usize, routes: usize, cpu: u64| ShardOutcome {
            shard,
            routes,
            outcome: Fig3Outcome {
                elapsed_ns: 0,
                prefixes_delivered: routes,
                dut_cpu_ns: cpu,
                metrics: None,
                loc_rib: None,
                trace: None,
            },
        };
        // Three big shards at 10 ns/route, one tiny straggler at 100.
        let run = ShardedRun {
            merged: mk(0, 0, 0).outcome,
            shards: vec![mk(0, 300, 3000), mk(1, 300, 3000), mk(2, 300, 3000), mk(3, 10, 1000)],
        };
        let s = run.per_route_cpu_summary();
        // Unweighted mean would be (10+10+10+100)/4 = 32.5; weighting by
        // routes keeps the straggler's influence proportional.
        let expect = (3000.0 * 3.0 + 1000.0) / 910.0;
        assert!((s.mean - expect).abs() < 1e-9, "mean {} vs {}", s.mean, expect);
        assert_eq!(s.median, 10.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn sharded_traces_merge_in_timeline_order() {
        let spec = Fig3Spec {
            dut: Dut::Fir,
            use_case: UseCase::OriginValidation,
            extension: true,
            routes: 200,
            seed: 5,
            metrics: false,
            shards: 3,
            rib_dump: false,
            trace_sample: 1,
            profile: false,
        };
        let run = run_fig3_sharded(&spec, ExecMode::Inline);
        let dump = run.merged.trace.as_ref().expect("tracing on");
        assert!(!dump.events.is_empty());
        // Timeline order: virtual timestamps never go backwards.
        assert!(dump.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // Events from more than one shard namespace survived the merge,
        // still attributable through their trace-id shard bits.
        let shards: std::collections::BTreeSet<u32> =
            dump.events.iter().map(|e| e.shard()).collect();
        assert!(shards.len() > 1, "expected multi-shard trace, got {shards:?}");
        // Trace ids from different shards never collide.
        for s in &run.shards {
            let d = s.outcome.trace.as_ref().expect("per-shard dump kept");
            assert!(d.events.iter().all(|e| e.shard() == s.shard as u32), "shard {}", s.shard);
        }
    }
}
