//! Prefix-sharded multi-worker route processing.
//!
//! BGP best-route selection is independent per prefix, so a workload —
//! the table and every churn round replayed against it — splits cleanly
//! into shards by prefix hash. [`partition`] is the one splitter: sharded
//! Fig. 3 runs, sharded scenario churn feeds and the TCP selftest's
//! sessions all cut their workload with it. Each Fig. 3 shard worker owns
//! a complete, self-contained copy of the pipeline — simulator, feeder, a
//! `FirDaemon`/`WrenDaemon` instance and its own `Vmm` with the extension
//! bytecode loaded — built by [`crate::fig3`]'s one chain. Nothing
//! `Rc`-based ever crosses a thread: workers borrow only plain data (their
//! routes and rounds, the shared ROA slice) and return only `Send`
//! outputs (counters, metric [`Snapshot`]s, wire-encoded Loc-RIB dumps).
//! This keeps the single-threaded daemon internals untouched — per-shard
//! ownership instead of shared-state locking.

use crate::fig3::{self, Fig3Outcome, Fig3Spec, UseCase};
use crate::stats::{summarize_weighted, Summary};
use routegen::churn::{churn_rounds, ChurnRound};
use routegen::{Route, TableSpec};
use xbgp_obs::trace::TraceDump;
use xbgp_obs::Snapshot;
use xbgp_wire::Ipv4Prefix;

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

/// Split a workload — a route table plus the churn rounds replayed
/// against it — into `shards` slices by prefix hash. Order is preserved
/// within each slice (attribute-sharing runs stay intact, so UPDATE
/// packing keeps working per shard), and every slice carries one round
/// per input round, possibly empty, so round timing is the same for every
/// shard count. Callers derive the rounds from the *full* table before
/// splitting, so every shard count replays the same logical stream.
pub fn partition(
    routes: &[Route],
    rounds: &[ChurnRound],
    shards: usize,
) -> Vec<(Vec<Route>, Vec<ChurnRound>)> {
    let mut parts: Vec<(Vec<Route>, Vec<ChurnRound>)> = (0..shards)
        .map(|_| {
            (
                Vec::with_capacity(routes.len() / shards + 1),
                vec![ChurnRound::default(); rounds.len()],
            )
        })
        .collect();
    for r in routes {
        parts[shard_of(&r.prefix, shards)].0.push(r.clone());
    }
    for (i, round) in rounds.iter().enumerate() {
        for p in &round.withdrawals {
            parts[shard_of(p, shards)].1[i].withdrawals.push(*p);
        }
        for r in &round.announcements {
            parts[shard_of(&r.prefix, shards)].1[i].announcements.push(r.clone());
        }
    }
    parts
}

/// How shard workers execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One scoped OS thread per non-empty shard — the runtime
    /// configuration, and what [`fig3::run`] uses for `shards > 1`.
    Threads,
    /// Shards run back-to-back on the calling thread. Identical code and
    /// results (each shard's simulation is self-contained), but each
    /// shard's CPU accounting runs uncontended — [`fig3::run`] uses this
    /// for one shard, and the ablation benches to measure per-shard
    /// virtual time on hosts with fewer hardware threads than shards,
    /// where preemption would inflate the wall-clock-sampled CPU charges.
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

/// Run a Fig. 3 workload split across `spec.shards` workers (one chain
/// when `shards <= 1`).
///
/// The parent generates the full table, its churn stream and its ROA set
/// once (all are functions of the complete table and the seed — see
/// `fig3::make_roas`), then [`partition`]s the table and the rounds.
/// Each non-empty slice runs through the Fig. 3 chain, and the outcomes
/// merge field by field into [`ShardedRun::merged`].
pub fn run_fig3_sharded(spec: &Fig3Spec, mode: ExecMode) -> ShardedRun {
    let table = routegen::generate(&TableSpec::new(spec.routes, spec.seed));
    let rounds = spec.churn.map(|c| churn_rounds(&table, &c)).unwrap_or_default();
    let roas =
        (spec.use_case == UseCase::OriginValidation).then(|| fig3::make_roas(&table, spec.seed));
    let parts = partition(&table, &rounds, spec.shards.max(1));
    drop((table, rounds));

    let roas = roas.as_deref();
    let run = |k: usize, (routes, rounds): &(Vec<Route>, Vec<ChurnRound>)| ShardOutcome {
        shard: k,
        routes: routes.len(),
        outcome: fig3::run_chain(spec, routes, rounds, roas, k as u32),
    };
    let live = parts.iter().enumerate().filter(|(_, (routes, _))| !routes.is_empty());
    let shards: Vec<ShardOutcome> = match mode {
        ExecMode::Inline => live.map(|(k, part)| run(k, part)).collect(),
        ExecMode::Threads => std::thread::scope(|scope| {
            let workers: Vec<_> = live.map(|(k, part)| scope.spawn(move || run(k, part))).collect();
            workers.into_iter().map(|w| w.join().expect("shard worker panicked")).collect()
        }),
    };
    ShardedRun { merged: merge(&shards), shards }
}

/// Merge per-shard outcomes into one figure-level outcome:
///
/// * `elapsed_ns`, `churn_cpu_ns`, `convergence_ns` — the **max** across
///   shards. Shards run concurrently, each on its own (virtual) core, so
///   a phase completes when the slowest shard does.
/// * `prefixes_delivered`, `dut_cpu_ns`, `updates_applied`,
///   `best_changes`, `oracle_mismatches` — sums.
/// * `metrics` — snapshots merged with [`Snapshot::merge`], which sums
///   matching counters, gauges and histogram buckets, so totals match
///   what one daemon over the whole workload would report.
/// * `loc_rib` — concatenated and re-sorted: shard ownership partitions
///   the prefix space, so the union is the whole table.
/// * `trace` — per-shard flight-recorder dumps merged into one timeline
///   ([`TraceDump::merge`] orders by virtual timestamp, then shard).
fn merge(shards: &[ShardOutcome]) -> Fig3Outcome {
    let mut acc = Fig3Outcome::default();
    let mut dumps = Vec::new();
    for o in shards.iter().map(|s| &s.outcome) {
        acc.elapsed_ns = acc.elapsed_ns.max(o.elapsed_ns);
        acc.churn_cpu_ns = acc.churn_cpu_ns.max(o.churn_cpu_ns);
        acc.convergence_ns = acc.convergence_ns.max(o.convergence_ns);
        acc.prefixes_delivered += o.prefixes_delivered;
        acc.dut_cpu_ns += o.dut_cpu_ns;
        acc.updates_applied += o.updates_applied;
        acc.best_changes += o.best_changes;
        acc.oracle_mismatches += o.oracle_mismatches;
        if let Some(snap) = &o.metrics {
            let merged = acc.metrics.get_or_insert_with(Snapshot::new);
            merged.merge(snap.clone()).expect("shards share the bucket layout");
        }
        if let Some(rib) = &o.loc_rib {
            acc.loc_rib.get_or_insert_with(Vec::new).extend(rib.iter().cloned());
        }
        dumps.extend(o.trace.clone());
    }
    if let Some(rib) = acc.loc_rib.as_mut() {
        rib.sort();
    }
    acc.trace = (!dumps.is_empty()).then(|| TraceDump::merge(dumps));
    acc
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
        let rounds = churn_rounds(&table, &routegen::churn::ChurnSpec::new(3, 4));
        let parts = partition(&table, &rounds, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|(r, _)| r.len()).sum::<usize>(), table.len());
        for (k, (routes, part_rounds)) in parts.iter().enumerate() {
            assert!(routes.iter().all(|r| shard_of(&r.prefix, 4) == k));
            assert_eq!(part_rounds.len(), rounds.len(), "one slice per round");
            for round in part_rounds {
                assert!(round.withdrawals.iter().all(|p| shard_of(p, 4) == k));
                assert!(round.announcements.iter().all(|r| shard_of(&r.prefix, 4) == k));
            }
        }
        // Every round's updates land in exactly one slice.
        for (i, round) in rounds.iter().enumerate() {
            let n: usize = parts.iter().map(|(_, r)| r[i].update_count()).sum();
            assert_eq!(n, round.update_count());
        }
        // A hash split of 1000 routes should not be pathologically skewed.
        assert!(parts.iter().all(|(r, _)| (150..=350).contains(&r.len())));
    }

    #[test]
    fn threads_and_inline_modes_agree() {
        let spec = Fig3Spec {
            extension: true,
            shards: 3,
            rib_dump: true,
            ..Fig3Spec::new(Dut::Fir, UseCase::OriginValidation, 300, 11)
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
                prefixes_delivered: routes,
                dut_cpu_ns: cpu,
                ..Fig3Outcome::default()
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
            extension: true,
            shards: 3,
            trace_sample: 1,
            ..Fig3Spec::new(Dut::Fir, UseCase::OriginValidation, 200, 5)
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
