//! # routegen — synthetic Internet routing tables
//!
//! The paper feeds its route-reflection and origin-validation benchmarks
//! with a RIPE RIS snapshot of June 2020 (724k IPv4 routes). That data set
//! is not redistributable here, so this crate generates tables with the
//! properties that matter to those benchmarks (see DESIGN.md §1):
//!
//! * a realistic **prefix-length mix** (heavily /24-weighted, as in the
//!   real DFZ),
//! * unique prefixes drawn from unicast space,
//! * AS paths of realistic length (2–7 hops) over a bounded AS pool, so
//!   attribute interning in the FIR daemon sees realistic sharing,
//! * optional COMMUNITIES and MED attributes with DFZ-like frequencies,
//! * a matching **ROA set** marking a configurable fraction of prefixes
//!   valid (75% in §3.4).
//!
//! Everything is deterministic given a seed.
//!
//! Beyond the one-shot table, the [`churn`] module turns a table into a
//! deterministic stream of update *rounds* — withdraw/re-announce storms,
//! peer flaps, ROA delta sweeps and path-hunting cascades — for the
//! steady-state churn benchmarks. The storm's withdraw/re-announce ratio
//! ([`churn::ChurnSpec::withdraw_per_mille`] /
//! [`churn::ChurnSpec::reannounce_per_mille`]) and the flap period
//! ([`churn::ChurnSpec::flap_period`]) are seeded parameters of the spec:
//! same spec, same stream, so every daemon and variant replays the
//! identical byte sequence.

pub mod churn;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use xbgp_wire::attr::Origin;
use xbgp_wire::{AsPath, Ipv4Prefix, PathAttr, UpdateMsg};

/// One synthetic route: a prefix plus the attributes it is announced with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    pub prefix: Ipv4Prefix,
    pub as_path: Vec<u32>,
    pub origin: Origin,
    pub med: Option<u32>,
    pub communities: Vec<u32>,
}

impl Route {
    /// Origin AS (last hop of the path).
    pub fn origin_asn(&self) -> u32 {
        *self.as_path.last().expect("generated paths are non-empty")
    }

    /// Materialize the attribute vector for announcing this route from
    /// `next_hop` (host byte order), with `local_pref` on iBGP sessions.
    pub fn attrs(&self, next_hop: u32, local_pref: Option<u32>) -> Vec<PathAttr> {
        let mut attrs = vec![
            PathAttr::Origin(self.origin),
            PathAttr::AsPath(AsPath::sequence(self.as_path.clone())),
            PathAttr::NextHop(next_hop),
        ];
        if let Some(lp) = local_pref {
            attrs.push(PathAttr::LocalPref(lp));
        }
        if let Some(med) = self.med {
            attrs.push(PathAttr::Med(med));
        }
        if !self.communities.is_empty() {
            attrs.push(PathAttr::Communities(self.communities.clone()));
        }
        attrs
    }
}

/// Table generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TableSpec {
    /// Number of unique prefixes.
    pub routes: usize,
    /// RNG seed — same seed, same table.
    pub seed: u64,
    /// Size of the origin-AS pool.
    pub origin_as_pool: u32,
    /// Size of the transit-AS pool.
    pub transit_as_pool: u32,
}

impl TableSpec {
    /// A table of `routes` prefixes with DFZ-like AS pools scaled down.
    pub fn new(routes: usize, seed: u64) -> TableSpec {
        TableSpec {
            routes,
            seed,
            origin_as_pool: (routes as u32 / 8).clamp(64, 70_000),
            transit_as_pool: 1_000,
        }
    }
}

/// Cumulative prefix-length distribution approximating the IPv4 DFZ.
/// Pairs of `(length, per-mille share)`.
const LEN_MIX: &[(u8, u32)] = &[
    (24, 590),
    (23, 70),
    (22, 95),
    (21, 40),
    (20, 40),
    (19, 30),
    (18, 20),
    (17, 15),
    (16, 65),
    (15, 10),
    (14, 10),
    (13, 5),
    (12, 5),
    (11, 2),
    (10, 2),
    (9, 1),
];

fn pick_len(rng: &mut SmallRng) -> u8 {
    let mut roll = rng.gen_range(0u32..1000);
    for &(len, share) in LEN_MIX {
        if roll < share {
            return len;
        }
        roll -= share;
    }
    8
}

/// Generate a table per `spec`.
pub fn generate(spec: &TableSpec) -> Vec<Route> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut seen: HashSet<Ipv4Prefix> = HashSet::with_capacity(spec.routes * 2);
    let mut routes = Vec::with_capacity(spec.routes);
    // Real tables share AS paths heavily: an origin AS announces many
    // prefixes through a handful of paths. Cache 1-3 paths per origin.
    let mut paths_of: std::collections::HashMap<u32, Vec<Vec<u32>>> =
        std::collections::HashMap::new();
    while routes.len() < spec.routes {
        let len = pick_len(&mut rng);
        // Unicast space: first octet 1..=223, skipping 10/127 look-alikes
        // is unnecessary for a synthetic table.
        let addr = (rng.gen_range(1u32..=223) << 24) | (rng.gen::<u32>() & 0x00ff_ffff);
        let prefix = Ipv4Prefix::new(addr, len);
        if !seen.insert(prefix) {
            continue;
        }
        let origin_as = 100_000 + rng.gen_range(0..spec.origin_as_pool);
        let cached = paths_of.entry(origin_as).or_default();
        let as_path = if !cached.is_empty() && (cached.len() >= 3 || rng.gen_range(0u32..100) < 85)
        {
            cached[rng.gen_range(0..cached.len())].clone()
        } else {
            let hops = 1 + (rng.gen_range(0u32..100) / 25).min(3) + rng.gen_range(0u32..3);
            let mut path = Vec::with_capacity(hops as usize + 1);
            for _ in 0..hops {
                path.push(1_000 + rng.gen_range(0..spec.transit_as_pool));
            }
            path.push(origin_as);
            cached.push(path.clone());
            path
        };
        // Origin code, MED and communities are functions of the origin AS
        // (as they are in practice: set by the origin's export policy), so
        // routes sharing a path also share the full attribute set — which
        // is what lets update packing and attribute interning work.
        let h = u64::from(origin_as).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let origin = match h % 100 {
            0..=84 => Origin::Igp,
            85..=89 => Origin::Egp,
            _ => Origin::Incomplete,
        };
        let med = ((h >> 8) % 100 < 20).then_some(((h >> 16) % 200) as u32);
        let ncomm = match (h >> 24) % 100 {
            0..=59 => 0,
            60..=84 => 1 + (h >> 32) % 2,
            _ => 3 + (h >> 32) % 5,
        };
        let communities = (0..ncomm)
            .map(|i| {
                let c = h.wrapping_mul(i + 3);
                ((64_512 + (c as u32 % 488)) << 16) | ((c >> 40) as u32 % 1000)
            })
            .collect();
        routes.push(Route { prefix, as_path, origin, med, communities });
    }
    routes
}

/// ROA generation matching §3.4: `valid_fraction` of the prefixes get a
/// ROA authorizing their actual origin; half of the remainder get a ROA
/// for a *different* AS (→ Invalid), the other half get none (→ NotFound).
pub fn make_roas(routes: &[Route], valid_fraction: f64, seed: u64) -> Vec<rpki_entry::Entry> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut roas = Vec::new();
    for r in routes {
        let roll: f64 = rng.gen();
        if roll < valid_fraction {
            roas.push(rpki_entry::Entry {
                prefix: r.prefix,
                max_len: r.prefix.len(),
                asn: r.origin_asn(),
            });
        } else if roll < valid_fraction + (1.0 - valid_fraction) / 2.0 {
            roas.push(rpki_entry::Entry {
                prefix: r.prefix,
                max_len: r.prefix.len(),
                asn: r.origin_asn() + 1,
            });
        }
        // else: no ROA → NotFound.
    }
    roas
}

/// Minimal ROA record, structurally identical to `rpki::Roa` but kept local
/// so this crate does not depend on the `rpki` crate (the harness converts).
pub mod rpki_entry {
    use xbgp_wire::Ipv4Prefix;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Entry {
        pub prefix: Ipv4Prefix,
        pub max_len: u8,
        pub asn: u32,
    }
}

/// Pack routes into UPDATE messages the way real speakers do: routes
/// sharing one attribute set share UPDATEs (split at ~700 NLRI to stay
/// under the 4096-byte message limit). Grouping is by attribute set in
/// first-seen order, which is how a speaker drains its Adj-RIB-Out.
pub fn to_updates(routes: &[Route], next_hop: u32, local_pref: Option<u32>) -> Vec<UpdateMsg> {
    let mut order: Vec<Vec<PathAttr>> = Vec::new();
    let mut groups: std::collections::HashMap<Vec<PathAttr>, Vec<Ipv4Prefix>> =
        std::collections::HashMap::new();
    for r in routes {
        let attrs = r.attrs(next_hop, local_pref);
        let entry = groups.entry(attrs.clone()).or_default();
        if entry.is_empty() {
            order.push(attrs);
        }
        entry.push(r.prefix);
    }
    let mut updates = Vec::new();
    for attrs in order {
        let nlri = groups.remove(&attrs).expect("group exists");
        for chunk in nlri.chunks(700) {
            updates.push(UpdateMsg::announce(attrs.clone(), chunk.to_vec()));
        }
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let spec = TableSpec::new(500, 42);
        assert_eq!(generate(&spec), generate(&spec));
        let other = TableSpec::new(500, 43);
        assert_ne!(generate(&spec), generate(&other));
    }

    #[test]
    fn exact_count_and_unique_prefixes() {
        let routes = generate(&TableSpec::new(2000, 7));
        assert_eq!(routes.len(), 2000);
        let set: HashSet<Ipv4Prefix> = routes.iter().map(|r| r.prefix).collect();
        assert_eq!(set.len(), 2000);
    }

    #[test]
    fn prefix_length_mix_is_slash24_heavy() {
        let routes = generate(&TableSpec::new(10_000, 1));
        let n24 = routes.iter().filter(|r| r.prefix.len() == 24).count();
        let frac = n24 as f64 / routes.len() as f64;
        assert!((0.5..0.7).contains(&frac), "/24 share {frac} out of expected band");
        assert!(routes.iter().all(|r| (8..=24).contains(&r.prefix.len())));
    }

    #[test]
    fn paths_are_realistic() {
        let routes = generate(&TableSpec::new(5000, 3));
        for r in &routes {
            assert!(!r.as_path.is_empty());
            assert!(r.as_path.len() <= 8, "path too long: {:?}", r.as_path);
            assert!(r.origin_asn() >= 100_000, "origin drawn from origin pool");
        }
        let avg: f64 =
            routes.iter().map(|r| r.as_path.len() as f64).sum::<f64>() / routes.len() as f64;
        assert!((2.0..6.0).contains(&avg), "average path length {avg}");
    }

    #[test]
    fn roas_hit_requested_valid_fraction() {
        let routes = generate(&TableSpec::new(4000, 9));
        let roas = make_roas(&routes, 0.75, 9);
        let valid = routes
            .iter()
            .filter(|r| roas.iter().any(|roa| roa.prefix == r.prefix && roa.asn == r.origin_asn()))
            .count();
        let frac = valid as f64 / routes.len() as f64;
        assert!((0.72..0.78).contains(&frac), "valid fraction {frac}");
    }

    #[test]
    fn updates_pack_and_round_trip() {
        let routes = generate(&TableSpec::new(3000, 5));
        let updates = to_updates(&routes, 0x0a00_0001, Some(100));
        // Packing must compress: far fewer messages than routes.
        assert!(updates.len() < routes.len());
        // Every prefix appears exactly once across all NLRI.
        let mut seen = HashSet::new();
        for u in &updates {
            assert!(!u.nlri.is_empty());
            for p in &u.nlri {
                assert!(seen.insert(*p));
            }
            // And each encodes within the BGP message limit.
            let frame = xbgp_wire::Message::Update(u.clone()).encode(4).unwrap();
            assert!(frame.len() <= xbgp_wire::MAX_MSG_LEN);
        }
        assert_eq!(seen.len(), routes.len());
    }

    #[test]
    fn attrs_include_optional_fields_when_set() {
        let r = Route {
            prefix: "10.0.0.0/24".parse().unwrap(),
            as_path: vec![1, 2],
            origin: Origin::Igp,
            med: Some(5),
            communities: vec![0xffff_0001],
        };
        let attrs = r.attrs(7, Some(200));
        assert!(attrs.iter().any(|a| matches!(a, PathAttr::Med(5))));
        assert!(attrs.iter().any(|a| matches!(a, PathAttr::LocalPref(200))));
        assert!(attrs.iter().any(|a| matches!(a, PathAttr::Communities(_))));
        let bare = r.attrs(7, None);
        assert!(!bare.iter().any(|a| matches!(a, PathAttr::LocalPref(_))));
    }
}
