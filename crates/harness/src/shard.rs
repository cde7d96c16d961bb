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

/// Run a Fig. 3 workload split across `spec.shards` workers and return
/// each non-empty shard's index and outcome, in shard order. One shard
/// runs on the calling thread; more run on one scoped thread each.
/// [`fig3::run`] [`merge`]s the result.
///
/// The parent generates the full table, its churn stream and its ROA set
/// once (all are functions of the complete table and the seed — see
/// `fig3::make_roas`), then [`partition`]s the table and the rounds.
/// Each non-empty slice runs through the Fig. 3 chain.
pub(crate) fn run_shards(spec: &Fig3Spec) -> Vec<(usize, Fig3Outcome)> {
    let table = routegen::generate(&TableSpec::new(spec.routes, spec.seed));
    let rounds = spec.churn.map(|c| churn_rounds(&table, &c)).unwrap_or_default();
    let roas =
        (spec.use_case == UseCase::OriginValidation).then(|| fig3::make_roas(&table, spec.seed));
    let parts = partition(&table, &rounds, spec.shards.max(1));
    drop((table, rounds));

    let roas = roas.as_deref();
    let run = |k: usize, (routes, rounds): &(Vec<Route>, Vec<ChurnRound>)| {
        (k, fig3::run_chain(spec, routes, rounds, roas, k as u32))
    };
    let live = parts.iter().enumerate().filter(|(_, (routes, _))| !routes.is_empty());
    if spec.shards <= 1 {
        return live.map(|(k, part)| run(k, part)).collect();
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = live.map(|(k, part)| scope.spawn(move || run(k, part))).collect();
        workers.into_iter().map(|w| w.join().expect("shard worker panicked")).collect()
    })
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
pub(crate) fn merge(shards: Vec<(usize, Fig3Outcome)>) -> Fig3Outcome {
    let mut acc = Fig3Outcome::default();
    let mut dumps = Vec::new();
    for (_, o) in shards {
        acc.elapsed_ns = acc.elapsed_ns.max(o.elapsed_ns);
        acc.churn_cpu_ns = acc.churn_cpu_ns.max(o.churn_cpu_ns);
        acc.convergence_ns = acc.convergence_ns.max(o.convergence_ns);
        acc.prefixes_delivered += o.prefixes_delivered;
        acc.dut_cpu_ns += o.dut_cpu_ns;
        acc.updates_applied += o.updates_applied;
        acc.best_changes += o.best_changes;
        acc.oracle_mismatches += o.oracle_mismatches;
        if let Some(snap) = o.metrics {
            let merged = acc.metrics.get_or_insert_with(Snapshot::new);
            merged.merge(snap).expect("shards share the bucket layout");
        }
        if let Some(rib) = o.loc_rib {
            acc.loc_rib.get_or_insert_with(Vec::new).extend(rib);
        }
        dumps.extend(o.trace);
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
    fn sharded_traces_merge_in_timeline_order() {
        let spec = Fig3Spec {
            extension: true,
            shards: 3,
            trace_sample: 1,
            ..Fig3Spec::new(Dut::Fir, UseCase::OriginValidation, 200, 5)
        };
        let outcomes = run_shards(&spec);
        let merged = merge(outcomes.clone());
        let dump = merged.trace.as_ref().expect("tracing on");
        assert!(!dump.events.is_empty());
        // Timeline order: virtual timestamps never go backwards.
        assert!(dump.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // Events from more than one shard namespace survived the merge,
        // still attributable through their trace-id shard bits.
        let shards: std::collections::BTreeSet<u32> =
            dump.events.iter().map(|e| e.shard()).collect();
        assert!(shards.len() > 1, "expected multi-shard trace, got {shards:?}");
        // Trace ids from different shards never collide.
        for (k, outcome) in &outcomes {
            let d = outcome.trace.as_ref().expect("per-shard dump kept");
            assert!(d.events.iter().all(|e| e.shard() == *k as u32), "shard {k}");
        }
    }
}
