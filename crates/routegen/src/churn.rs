//! # Churn stream generation
//!
//! The steady-state benchmarks blast a full table once and measure
//! convergence. Real BGP speakers spend their lives elsewhere: absorbing a
//! continuous trickle (or storm) of UPDATEs against an already-full RIB.
//! This module turns a generated table into a deterministic sequence of
//! churn *rounds*, each a batch of withdrawals and (re-)announcements that
//! a feeder replays against the DUT at a fixed interval.
//!
//! Four churn mechanisms compose, all seeded and all expressed as integer
//! per-mille rates so two runs with the same [`ChurnSpec`] produce the
//! same byte stream:
//!
//! * **Peer flaps** — a fixed subset of the table ([`ChurnSpec::flap_per_mille`])
//!   goes down and comes back together every [`ChurnSpec::flap_period`]
//!   rounds, modelling a session to one upstream bouncing.
//! * **Withdraw/re-announce storms** — each live route is withdrawn with
//!   probability [`ChurnSpec::withdraw_per_mille`] per round and returns
//!   from the withdrawn pool with probability
//!   [`ChurnSpec::reannounce_per_mille`] per round; the ratio of the two
//!   sets the steady-state fraction of the table that is down.
//! * **Path-hunting cascades** — when [`ChurnSpec::path_hunt_depth`] is
//!   non-zero, a withdrawal is preceded by that many successively longer
//!   AS-path announcements (one per round), the way a route is explored
//!   through ever-worse alternatives before it finally disappears.
//! * **ROA delta sweeps** — live routes toggle their origin AS with
//!   probability [`ChurnSpec::roa_sweep_per_mille`] per round (and toggle
//!   back on a later hit), flipping their RPKI validation state and
//!   forcing origin-validation extensions to re-classify them.
//!
//! The generator appends one final **restore round** that re-announces the
//! original route for every prefix not currently live with its original
//! attributes, so the full stream converges back to exactly the initial
//! table. That is what lets the harness pin correctness: at the quiescent
//! point after the last round, the DUT's Loc-RIB must be byte-identical to
//! the Loc-RIB after the initial blast — and to the full-recompute oracle.

use crate::{to_updates, Route};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use xbgp_wire::{Ipv4Prefix, UpdateMsg};

/// Parameters of a churn stream. All rates are integer per-mille so the
/// stream is a pure function of the spec (no float rounding drift).
#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    /// RNG seed — same seed (and table), same stream.
    pub seed: u64,
    /// Number of churn rounds to generate. One restore round is appended
    /// on top, so [`churn_rounds`] returns `rounds + 1` entries.
    pub rounds: usize,
    /// Per-round withdrawal probability (per mille) of each live route.
    pub withdraw_per_mille: u32,
    /// Per-round probability (per mille) that a withdrawn route returns
    /// with its original attributes. Together with `withdraw_per_mille`
    /// this sets the withdraw/re-announce ratio of the storm.
    pub reannounce_per_mille: u32,
    /// Share of the table (per mille) in the flap set.
    pub flap_per_mille: u32,
    /// Rounds between flap transitions: the flap set goes down together,
    /// then comes back together, every `flap_period` rounds. `0` disables
    /// flapping regardless of `flap_per_mille`.
    pub flap_period: usize,
    /// Per-round probability (per mille) that a live route's origin AS
    /// toggles (+1, then back on the next hit), flipping its RPKI
    /// validation state.
    pub roa_sweep_per_mille: u32,
    /// Number of successively longer-path announcements emitted (one per
    /// round) before a storm withdrawal lands. `0` withdraws immediately.
    pub path_hunt_depth: usize,
}

impl ChurnSpec {
    /// A moderate default storm: ~10% of the table cycling, a 5% flap set
    /// bouncing every 4 rounds, a light ROA sweep and 2-step path hunting.
    pub fn new(seed: u64, rounds: usize) -> ChurnSpec {
        ChurnSpec {
            seed,
            rounds,
            withdraw_per_mille: 100,
            reannounce_per_mille: 500,
            flap_per_mille: 50,
            flap_period: 4,
            roa_sweep_per_mille: 20,
            path_hunt_depth: 2,
        }
    }
}

/// One batch of churn: withdrawals first, then announcements, exactly the
/// order [`ChurnRound::to_updates`] encodes them in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnRound {
    pub withdrawals: Vec<Ipv4Prefix>,
    pub announcements: Vec<Route>,
}

impl ChurnRound {
    /// Number of routing updates this round carries (withdrawn prefixes
    /// plus announced NLRI), the unit of the updates/sec benchmarks.
    pub fn update_count(&self) -> usize {
        self.withdrawals.len() + self.announcements.len()
    }

    /// Encode the round as UPDATE messages: withdrawals packed 800 per
    /// message (staying under the 4096-byte limit at 5 bytes/prefix),
    /// then announcements packed by shared attribute set.
    pub fn to_updates(&self, next_hop: u32, local_pref: Option<u32>) -> Vec<UpdateMsg> {
        let mut msgs: Vec<UpdateMsg> =
            self.withdrawals.chunks(800).map(|c| UpdateMsg::withdraw(c.to_vec())).collect();
        msgs.extend(to_updates(&self.announcements, next_hop, local_pref));
        msgs
    }
}

/// Per-route churn state. Flap-set members are tracked separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    /// Up with original attributes.
    Live,
    /// Up with the origin AS toggled by the ROA sweep.
    Shifted,
    /// Mid path-hunt: `stage` longer-path announcements sent so far.
    Hunting(usize),
    /// Down, waiting in the re-announce pool.
    Withdrawn,
}

/// The route announced at path-hunt `stage`: the original path behind
/// `stage` extra (deterministic) transit hops, so each step is strictly
/// worse under shortest-AS-path and the DUT re-runs best-path selection.
fn hunt_route(r: &Route, stage: usize) -> Route {
    let mut hunted = r.clone();
    let filler = 64_000 + (r.prefix.addr() % 512);
    for k in 0..stage {
        hunted.as_path.insert(0, filler + k as u32);
    }
    hunted
}

/// The route with its origin AS toggled (+1): same path length, different
/// origin, so decision outcomes are unchanged but RPKI validation flips.
fn shift_origin(r: &Route) -> Route {
    let mut shifted = r.clone();
    *shifted.as_path.last_mut().expect("generated paths are non-empty") += 1;
    shifted
}

/// Generate the churn stream for `table` per `spec`: `spec.rounds` storm
/// rounds plus the final restore round (see the module docs). Determinism:
/// the result is a pure function of `(table, spec)`.
pub fn churn_rounds(table: &[Route], spec: &ChurnSpec) -> Vec<ChurnRound> {
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0xc3a5_c85c_97cb_3127);
    let n = table.len();
    // Flap membership is drawn once, up front.
    let flap: Vec<usize> = (0..n)
        .filter(|_| spec.flap_period > 0 && rng.gen_range(0u32..1000) < spec.flap_per_mille)
        .collect();
    let flap_set: HashSet<usize> = flap.iter().copied().collect();
    let mut flap_down = false;

    let mut state = vec![St::Live; n];
    let mut rounds = Vec::with_capacity(spec.rounds + 1);
    for r in 0..spec.rounds {
        let mut wd: Vec<Ipv4Prefix> = Vec::new();
        let mut ann: Vec<Route> = Vec::new();
        // (a) the flap set transitions together on period boundaries.
        if spec.flap_period > 0 && !flap.is_empty() && (r + 1) % spec.flap_period == 0 {
            flap_down = !flap_down;
            for &i in &flap {
                if flap_down {
                    wd.push(table[i].prefix);
                } else {
                    ann.push(table[i].clone());
                }
            }
        }
        // (b)–(d) per-route storm / hunting / pool / ROA-sweep machine.
        for i in 0..n {
            if flap_set.contains(&i) {
                continue; // flap members are driven by (a) only
            }
            match state[i] {
                St::Hunting(stage) => {
                    if stage < spec.path_hunt_depth {
                        ann.push(hunt_route(&table[i], stage + 1));
                        state[i] = St::Hunting(stage + 1);
                    } else {
                        wd.push(table[i].prefix);
                        state[i] = St::Withdrawn;
                    }
                }
                St::Withdrawn => {
                    if rng.gen_range(0u32..1000) < spec.reannounce_per_mille {
                        ann.push(table[i].clone());
                        state[i] = St::Live;
                    }
                }
                St::Live | St::Shifted => {
                    if rng.gen_range(0u32..1000) < spec.withdraw_per_mille {
                        if spec.path_hunt_depth > 0 {
                            ann.push(hunt_route(&table[i], 1));
                            state[i] = St::Hunting(1);
                        } else {
                            wd.push(table[i].prefix);
                            state[i] = St::Withdrawn;
                        }
                    } else if rng.gen_range(0u32..1000) < spec.roa_sweep_per_mille {
                        if state[i] == St::Shifted {
                            ann.push(table[i].clone());
                            state[i] = St::Live;
                        } else {
                            ann.push(shift_origin(&table[i]));
                            state[i] = St::Shifted;
                        }
                    }
                }
            }
        }
        rounds.push(ChurnRound { withdrawals: wd, announcements: ann });
    }
    // Restore round: every route not live-with-original-attrs comes back,
    // so the stream converges to exactly the initial table.
    let mut ann: Vec<Route> = Vec::new();
    for i in 0..n {
        if flap_set.contains(&i) {
            if flap_down {
                ann.push(table[i].clone());
            }
        } else if state[i] != St::Live {
            ann.push(table[i].clone());
        }
    }
    rounds.push(ChurnRound { withdrawals: Vec::new(), announcements: ann });
    rounds
}

/// Total routing updates across a stream (see [`ChurnRound::update_count`]).
pub fn total_updates(rounds: &[ChurnRound]) -> u64 {
    rounds.iter().map(|r| r.update_count() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, TableSpec};
    use std::collections::HashMap;

    fn table(n: usize, seed: u64) -> Vec<Route> {
        generate(&TableSpec::new(n, seed))
    }

    #[test]
    fn deterministic_for_a_seed() {
        let t = table(800, 11);
        let spec = ChurnSpec::new(21, 12);
        assert_eq!(churn_rounds(&t, &spec), churn_rounds(&t, &spec));
        let other = ChurnSpec { seed: 22, ..spec };
        assert_ne!(churn_rounds(&t, &spec), churn_rounds(&t, &other));
    }

    #[test]
    fn stream_is_nonempty_and_has_both_kinds() {
        let t = table(1000, 3);
        let rounds = churn_rounds(&t, &ChurnSpec::new(7, 10));
        assert_eq!(rounds.len(), 11, "rounds + restore round");
        assert!(rounds.iter().any(|r| !r.withdrawals.is_empty()));
        assert!(rounds.iter().any(|r| !r.announcements.is_empty()));
        assert!(total_updates(&rounds) > 0);
    }

    /// Replaying the whole stream over the initial table must land back on
    /// exactly the initial table — the invariant the harness oracle check
    /// leans on.
    #[test]
    fn restore_round_converges_to_initial_table() {
        let t = table(1200, 5);
        let rounds = churn_rounds(&t, &ChurnSpec::new(9, 15));
        let mut rib: HashMap<Ipv4Prefix, Route> = t.iter().map(|r| (r.prefix, r.clone())).collect();
        for round in &rounds {
            for p in &round.withdrawals {
                assert!(rib.remove(p).is_some(), "withdrawal of a prefix that is down");
            }
            for r in &round.announcements {
                rib.insert(r.prefix, r.clone());
            }
        }
        assert_eq!(rib.len(), t.len());
        for r in &t {
            assert_eq!(rib.get(&r.prefix), Some(r), "route not restored: {:?}", r.prefix);
        }
    }

    #[test]
    fn flap_set_transitions_on_period_boundaries() {
        let t = table(600, 13);
        let spec = ChurnSpec {
            seed: 31,
            rounds: 8,
            withdraw_per_mille: 0,
            reannounce_per_mille: 0,
            flap_per_mille: 200,
            flap_period: 4,
            roa_sweep_per_mille: 0,
            path_hunt_depth: 0,
        };
        let rounds = churn_rounds(&t, &spec);
        // Only rounds 3 and 7 (period boundaries) carry any churn, plus an
        // empty restore round (the second boundary brought the set back up).
        for (i, r) in rounds.iter().enumerate() {
            match i {
                3 => assert!(!r.withdrawals.is_empty() && r.announcements.is_empty()),
                7 => assert!(r.withdrawals.is_empty() && !r.announcements.is_empty()),
                _ => assert_eq!(r.update_count(), 0, "unexpected churn in round {i}"),
            }
        }
        assert_eq!(rounds[3].withdrawals.len(), rounds[7].announcements.len());
    }

    #[test]
    fn path_hunting_lengthens_then_withdraws() {
        let t = table(400, 17);
        let spec = ChurnSpec {
            seed: 41,
            rounds: 6,
            withdraw_per_mille: 80,
            reannounce_per_mille: 0,
            flap_per_mille: 0,
            flap_period: 0,
            roa_sweep_per_mille: 0,
            path_hunt_depth: 2,
        };
        let rounds = churn_rounds(&t, &spec);
        let originals: HashMap<Ipv4Prefix, &Route> = t.iter().map(|r| (r.prefix, r)).collect();
        // Track per-prefix announcement history: each hunted prefix must
        // announce strictly longer paths before its withdrawal shows up.
        let mut last_len: HashMap<Ipv4Prefix, usize> = HashMap::new();
        let mut saw_hunt = false;
        for round in &rounds[..spec.rounds] {
            for r in &round.announcements {
                let orig = originals[&r.prefix];
                assert!(r.as_path.len() > orig.as_path.len(), "hunt paths are longer");
                assert_eq!(&r.as_path[r.as_path.len() - orig.as_path.len()..], &orig.as_path[..]);
                if let Some(prev) = last_len.insert(r.prefix, r.as_path.len()) {
                    assert!(r.as_path.len() > prev, "each hunt step is strictly longer");
                    saw_hunt = true;
                }
            }
            for p in &round.withdrawals {
                assert!(last_len.contains_key(p), "withdrawal only after hunting");
            }
        }
        assert!(saw_hunt, "expected at least one multi-step hunt");
    }

    #[test]
    fn roa_sweep_toggles_origin_only() {
        let t = table(500, 19);
        let spec = ChurnSpec {
            seed: 51,
            rounds: 10,
            withdraw_per_mille: 0,
            reannounce_per_mille: 0,
            flap_per_mille: 0,
            flap_period: 0,
            roa_sweep_per_mille: 100,
            path_hunt_depth: 0,
        };
        let rounds = churn_rounds(&t, &spec);
        let originals: HashMap<Ipv4Prefix, &Route> = t.iter().map(|r| (r.prefix, r)).collect();
        let mut toggled = false;
        for round in &rounds {
            assert!(round.withdrawals.is_empty());
            for r in &round.announcements {
                let orig = originals[&r.prefix];
                assert_eq!(r.as_path.len(), orig.as_path.len());
                assert_eq!(
                    &r.as_path[..r.as_path.len() - 1],
                    &orig.as_path[..orig.as_path.len() - 1]
                );
                if r.origin_asn() == orig.origin_asn() + 1 {
                    toggled = true;
                } else {
                    assert_eq!(r, orig);
                }
            }
        }
        assert!(toggled, "expected origin toggles");
    }

    #[test]
    fn rounds_encode_within_message_limit() {
        let t = table(3000, 23);
        let spec = ChurnSpec { withdraw_per_mille: 400, ..ChurnSpec::new(29, 4) };
        for round in churn_rounds(&t, &spec) {
            for u in round.to_updates(0x0a00_0001, Some(100)) {
                let frame = xbgp_wire::Message::Update(u).encode(4).unwrap();
                assert!(frame.len() <= xbgp_wire::MAX_MSG_LEN);
            }
        }
    }
}
