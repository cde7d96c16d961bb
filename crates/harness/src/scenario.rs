//! Declarative simulation scenarios.
//!
//! `xbgp-sim` (the companion binary) runs a JSON-described network: a set
//! of FIR/WREN routers, links, xBGP extension presets, and a timeline of
//! failures and assertions. This is the operator-facing face of the
//! reproduction — the equivalent of wiring up the paper's VMs, in one
//! file:
//!
//! ```json
//! {
//!   "name": "listing1-demo",
//!   "routers": [
//!     { "name": "london", "implementation": "fir", "asn": 65000,
//!       "router_id": "10.0.0.1",
//!       "originate": ["203.0.113.0/24"] },
//!     { "name": "berlin", "implementation": "fir", "asn": 65000,
//!       "router_id": "10.0.0.3",
//!       "extensions": { "preset": "igp_filter" } },
//!     { "name": "peer", "implementation": "wren", "asn": 65009,
//!       "router_id": "10.0.0.9" }
//!   ],
//!   "links": [
//!     { "a": "london", "b": "berlin" },
//!     { "a": "berlin", "b": "peer" }
//!   ],
//!   "igp": { "members": ["london", "berlin"],
//!            "links": [ { "a": "london", "b": "berlin", "metric": 10 } ] },
//!   "events": [
//!     { "at_secs": 5,  "expect_route": { "router": "peer", "prefix": "203.0.113.0/24", "present": true } },
//!     { "at_secs": 10, "fail_igp_link": { "a": "london", "b": "berlin" } },
//!     { "at_secs": 11, "flap_link": { "a": "london", "b": "berlin" } },
//!     { "at_secs": 60, "expect_route": { "router": "peer", "prefix": "203.0.113.0/24", "present": false } }
//!   ]
//! }
//! ```
//!
//! Documents are parsed with [`xbgp_obs::json`]; unknown fields are
//! rejected so typos in scenario files fail loudly instead of being
//! silently ignored.

use crate::dut::{build, DaemonSpec, Dut, DutNode};
use crate::feeder::{encode_frames, replay_rounds, Feeder};
use netsim::{LinkId, NodeId, Sim, SimConfig};
use routegen::churn::ChurnSpec;
use std::collections::HashMap;
use xbgp_core::Manifest;
use xbgp_obs::json::Value;
use xbgp_obs::trace::{TraceConfig, TraceDump};
use xbgp_wire::attr::decode_attrs;
use xbgp_wire::prefix::parse_addr;
use xbgp_wire::{Ipv4Prefix, PathAttr};

const SEC: u64 = 1_000_000_000;

/// Top-level scenario document.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    pub routers: Vec<RouterSpec>,
    pub links: Vec<LinkSpec>,
    pub igp: Option<IgpSpec>,
    pub events: Vec<Event>,
    /// Optional churn workload: a synthetic upstream feeder blasts a
    /// generated table at one router, then replays a seeded churn stream
    /// (withdraw storms, flaps, ROA sweeps, path hunting) in timed rounds
    /// and checks every router against its full-recompute oracle.
    pub churn: Option<ChurnSection>,
    /// Virtual time to run after the last event (seconds). Default 10.
    pub settle_secs: u64,
    /// Fault-injection rate in `[0, 1]`: when positive, every router gets
    /// the `fault_inject` probe appended to its manifest, trapping
    /// mid-chain (after staging host mutations) on roughly this fraction
    /// of inbound-filter invocations. Exercises the transactional
    /// execution contract under a real workload; default 0 (off).
    pub fault_rate: f64,
}

#[derive(Debug, Clone)]
pub struct RouterSpec {
    pub name: String,
    /// `"fir"` or `"wren"`.
    pub implementation: String,
    pub asn: u32,
    /// Dotted-quad BGP identifier / address.
    pub router_id: String,
    pub originate: Vec<String>,
    /// Neighbors (by router name) treated as route-reflection clients.
    pub rr_clients: Vec<String>,
    /// Enable native RFC 4456 reflection.
    pub native_rr: bool,
    /// Inline validator-CSV ROA rows for native origin validation.
    pub native_roas_csv: Option<String>,
    /// xBGP extensions to load.
    pub extensions: Option<ExtensionSpecJson>,
    /// `get_xtra` configuration (values hex-encoded).
    pub xtra_hex: HashMap<String, String>,
}

/// Either a bundled preset or a full inline manifest.
#[derive(Debug, Clone)]
pub struct ExtensionSpecJson {
    /// One of: `igp_filter`, `route_reflect`, `origin_validation`,
    /// `geoloc`, `valley_free`.
    pub preset: Option<String>,
    /// Parameters for the preset (see `build_manifest`).
    pub params: HashMap<String, Value>,
    /// Full manifest document (as produced by `Manifest::to_json`),
    /// overriding `preset`.
    pub manifest: Option<Value>,
    /// Validator-CSV ROA rows backing the `rpki_check_origin` helper.
    pub roas_csv: Option<String>,
}

#[derive(Debug, Clone)]
pub struct LinkSpec {
    pub a: String,
    pub b: String,
    /// One-way latency in microseconds (default 100).
    pub latency_us: u64,
}

#[derive(Debug, Clone)]
pub struct IgpSpec {
    pub members: Vec<String>,
    pub links: Vec<IgpLinkSpec>,
}

#[derive(Debug, Clone)]
pub struct IgpLinkSpec {
    pub a: String,
    pub b: String,
    pub metric: u32,
}

/// One timeline entry: exactly one action, at a virtual time.
#[derive(Debug, Clone)]
pub struct Event {
    pub at_secs: u64,
    pub fail_link: Option<LinkRef>,
    pub restore_link: Option<LinkRef>,
    /// Fail and immediately restore (forces re-export with fresh state).
    pub flap_link: Option<LinkRef>,
    pub fail_igp_link: Option<LinkRef>,
    pub expect_route: Option<ExpectRoute>,
}

#[derive(Debug, Clone)]
pub struct LinkRef {
    pub a: String,
    pub b: String,
}

#[derive(Debug, Clone)]
pub struct ExpectRoute {
    pub router: String,
    pub prefix: String,
    pub present: bool,
    /// With `present`: the best route's AS_PATH must also read exactly
    /// these ASNs, nearest first.
    pub as_path: Option<Vec<u32>>,
}

/// Churn workload description. A synthetic feeder peers eBGP (AS 64999,
/// 10.255.255.254) with the named router, blasts `routes` generated
/// prefixes, and replays the churn rounds of `spec` (see
/// [`routegen::churn`] for the stream semantics) on the
/// [`Feeder::load_rounds`] clock. The document's churn keys besides
/// `feed` and `routes` are `spec`'s fields, defaulting to
/// `ChurnSpec::new(1, 8)`; all rates are integer per-mille.
#[derive(Debug, Clone)]
pub struct ChurnSection {
    /// Router (by name) the feeder peers with.
    pub feed: String,
    /// Initial table size (the table derives from `spec.seed`).
    pub routes: usize,
    pub spec: ChurnSpec,
}

// ---------------------------------------------------------------------------
// JSON → spec decoding. Each `from_value` rejects unknown fields, like
// serde's `deny_unknown_fields`, so scenario typos surface immediately.

fn check_fields(v: &Value, ctx: &str, allowed: &[&str]) -> Result<(), String> {
    if v.as_object().is_none() {
        return Err(format!("{ctx}: expected an object"));
    }
    for key in v.keys() {
        if !allowed.contains(&key) {
            return Err(format!("{ctx}: unknown field `{key}`"));
        }
    }
    Ok(())
}

fn str_field(v: &Value, ctx: &str, key: &str) -> Result<String, String> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing `{key}`"))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: `{key}` must be a string"))
}

fn u64_field(v: &Value, ctx: &str, key: &str) -> Result<u64, String> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing `{key}`"))?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: `{key}` must be a non-negative integer"))
}

fn u64_field_or(v: &Value, ctx: &str, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(n) => n
            .as_u64()
            .ok_or_else(|| format!("{ctx}: `{key}` must be a non-negative integer")),
    }
}

fn f64_field_or(v: &Value, ctx: &str, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(n) => n.as_f64().ok_or_else(|| format!("{ctx}: `{key}` must be a number")),
    }
}

fn bool_field_or(v: &Value, ctx: &str, key: &str, default: bool) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(default),
        Some(b) => b.as_bool().ok_or_else(|| format!("{ctx}: `{key}` must be a boolean")),
    }
}

fn opt_str_field(v: &Value, ctx: &str, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("{ctx}: `{key}` must be a string")),
    }
}

fn str_list_field(v: &Value, ctx: &str, key: &str) -> Result<Vec<String>, String> {
    match v.get(key) {
        None => Ok(Vec::new()),
        Some(arr) => arr
            .as_array()
            .ok_or_else(|| format!("{ctx}: `{key}` must be an array of strings"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("{ctx}: `{key}` entries must be strings"))
            })
            .collect(),
    }
}

fn list_field<'a, T>(
    v: &'a Value,
    ctx: &str,
    key: &str,
    required: bool,
    decode: impl Fn(&'a Value, String) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let arr = match v.get(key) {
        None if required => return Err(format!("{ctx}: missing `{key}`")),
        None => return Ok(Vec::new()),
        Some(arr) => arr.as_array().ok_or_else(|| format!("{ctx}: `{key}` must be an array"))?,
    };
    arr.iter()
        .enumerate()
        .map(|(i, item)| decode(item, format!("{ctx}: {key}[{i}]")))
        .collect()
}

impl Scenario {
    pub fn from_value(v: &Value) -> Result<Scenario, String> {
        let ctx = "scenario";
        check_fields(
            v,
            ctx,
            &[
                "name",
                "routers",
                "links",
                "igp",
                "events",
                "churn",
                "settle_secs",
                "fault_rate",
            ],
        )?;
        let fault_rate = f64_field_or(v, ctx, "fault_rate", 0.0)?;
        if !(0.0..=1.0).contains(&fault_rate) {
            return Err(format!("{ctx}: `fault_rate` must be in [0, 1], got {fault_rate}"));
        }
        Ok(Scenario {
            name: str_field(v, ctx, "name")?,
            routers: list_field(v, ctx, "routers", true, |r, c| RouterSpec::from_value(r, &c))?,
            links: list_field(v, ctx, "links", true, |l, c| LinkSpec::from_value(l, &c))?,
            igp: match v.get("igp") {
                None | Some(Value::Null) => None,
                Some(spec) => Some(IgpSpec::from_value(spec)?),
            },
            events: list_field(v, ctx, "events", false, |e, c| Event::from_value(e, &c))?,
            churn: match v.get("churn") {
                None | Some(Value::Null) => None,
                Some(spec) => Some(ChurnSection::from_value(spec)?),
            },
            settle_secs: u64_field_or(v, ctx, "settle_secs", 10)?,
            fault_rate,
        })
    }
}

impl RouterSpec {
    fn from_value(v: &Value, ctx: &str) -> Result<RouterSpec, String> {
        check_fields(
            v,
            ctx,
            &[
                "name",
                "implementation",
                "asn",
                "router_id",
                "originate",
                "rr_clients",
                "native_rr",
                "native_roas_csv",
                "extensions",
                "xtra_hex",
            ],
        )?;
        let mut xtra_hex = HashMap::new();
        if let Some(obj) = v.get("xtra_hex") {
            let members =
                obj.as_object().ok_or_else(|| format!("{ctx}: `xtra_hex` must be an object"))?;
            for (key, hex) in members {
                let hex = hex
                    .as_str()
                    .ok_or_else(|| format!("{ctx}: xtra_hex `{key}` must be a hex string"))?;
                xtra_hex.insert(key.clone(), hex.to_string());
            }
        }
        Ok(RouterSpec {
            name: str_field(v, ctx, "name")?,
            implementation: str_field(v, ctx, "implementation")?,
            asn: u64_field(v, ctx, "asn")?
                .try_into()
                .map_err(|_| format!("{ctx}: `asn` out of range"))?,
            router_id: str_field(v, ctx, "router_id")?,
            originate: str_list_field(v, ctx, "originate")?,
            rr_clients: str_list_field(v, ctx, "rr_clients")?,
            native_rr: bool_field_or(v, ctx, "native_rr", false)?,
            native_roas_csv: opt_str_field(v, ctx, "native_roas_csv")?,
            extensions: match v.get("extensions") {
                None | Some(Value::Null) => None,
                Some(spec) => Some(ExtensionSpecJson::from_value(spec, ctx)?),
            },
            xtra_hex,
        })
    }
}

impl ExtensionSpecJson {
    fn from_value(v: &Value, ctx: &str) -> Result<ExtensionSpecJson, String> {
        let ctx = format!("{ctx}: extensions");
        check_fields(v, &ctx, &["preset", "params", "manifest", "roas_csv"])?;
        let mut params = HashMap::new();
        if let Some(obj) = v.get("params") {
            let members =
                obj.as_object().ok_or_else(|| format!("{ctx}: `params` must be an object"))?;
            for (key, value) in members {
                params.insert(key.clone(), value.clone());
            }
        }
        Ok(ExtensionSpecJson {
            preset: opt_str_field(v, &ctx, "preset")?,
            params,
            manifest: v.get("manifest").filter(|m| !matches!(m, Value::Null)).cloned(),
            roas_csv: opt_str_field(v, &ctx, "roas_csv")?,
        })
    }
}

impl LinkSpec {
    fn from_value(v: &Value, ctx: &str) -> Result<LinkSpec, String> {
        check_fields(v, ctx, &["a", "b", "latency_us"])?;
        Ok(LinkSpec {
            a: str_field(v, ctx, "a")?,
            b: str_field(v, ctx, "b")?,
            latency_us: u64_field_or(v, ctx, "latency_us", 100)?,
        })
    }
}

impl IgpSpec {
    fn from_value(v: &Value) -> Result<IgpSpec, String> {
        let ctx = "scenario: igp";
        check_fields(v, ctx, &["members", "links"])?;
        Ok(IgpSpec {
            members: str_list_field(v, ctx, "members")?,
            links: list_field(v, ctx, "links", true, |l, c| IgpLinkSpec::from_value(l, &c))?,
        })
    }
}

impl IgpLinkSpec {
    fn from_value(v: &Value, ctx: &str) -> Result<IgpLinkSpec, String> {
        check_fields(v, ctx, &["a", "b", "metric"])?;
        Ok(IgpLinkSpec {
            a: str_field(v, ctx, "a")?,
            b: str_field(v, ctx, "b")?,
            metric: u64_field(v, ctx, "metric")?
                .try_into()
                .map_err(|_| format!("{ctx}: `metric` out of range"))?,
        })
    }
}

impl Event {
    fn from_value(v: &Value, ctx: &str) -> Result<Event, String> {
        check_fields(
            v,
            ctx,
            &[
                "at_secs",
                "fail_link",
                "restore_link",
                "flap_link",
                "fail_igp_link",
                "expect_route",
            ],
        )?;
        let link = |key: &str| -> Result<Option<LinkRef>, String> {
            match v.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(r) => Ok(Some(LinkRef::from_value(r, &format!("{ctx}: {key}"))?)),
            }
        };
        Ok(Event {
            at_secs: u64_field(v, ctx, "at_secs")?,
            fail_link: link("fail_link")?,
            restore_link: link("restore_link")?,
            flap_link: link("flap_link")?,
            fail_igp_link: link("fail_igp_link")?,
            expect_route: match v.get("expect_route") {
                None | Some(Value::Null) => None,
                Some(e) => Some(ExpectRoute::from_value(e, &format!("{ctx}: expect_route"))?),
            },
        })
    }
}

impl ChurnSection {
    fn from_value(v: &Value) -> Result<ChurnSection, String> {
        let ctx = "scenario: churn";
        check_fields(
            v,
            ctx,
            &[
                "feed",
                "routes",
                "seed",
                "rounds",
                "withdraw_per_mille",
                "reannounce_per_mille",
                "flap_per_mille",
                "flap_period",
                "roa_sweep_per_mille",
                "path_hunt_depth",
            ],
        )?;
        let mut spec = ChurnSpec::new(1, 8);
        let count = |key: &str, field: &mut usize| -> Result<(), String> {
            *field = u64_field_or(v, ctx, key, *field as u64)? as usize;
            Ok(())
        };
        count("rounds", &mut spec.rounds)?;
        count("flap_period", &mut spec.flap_period)?;
        count("path_hunt_depth", &mut spec.path_hunt_depth)?;
        let per_mille = |key: &str, field: &mut u32| -> Result<(), String> {
            let n = u64_field_or(v, ctx, key, u64::from(*field))?;
            if n > 1000 {
                return Err(format!("{ctx}: `{key}` is per-mille, must be ≤ 1000 (got {n})"));
            }
            *field = n as u32;
            Ok(())
        };
        per_mille("withdraw_per_mille", &mut spec.withdraw_per_mille)?;
        per_mille("reannounce_per_mille", &mut spec.reannounce_per_mille)?;
        per_mille("flap_per_mille", &mut spec.flap_per_mille)?;
        per_mille("roa_sweep_per_mille", &mut spec.roa_sweep_per_mille)?;
        spec.seed = u64_field_or(v, ctx, "seed", spec.seed)?;
        Ok(ChurnSection {
            feed: str_field(v, ctx, "feed")?,
            routes: u64_field(v, ctx, "routes")? as usize,
            spec,
        })
    }
}

impl LinkRef {
    fn from_value(v: &Value, ctx: &str) -> Result<LinkRef, String> {
        check_fields(v, ctx, &["a", "b"])?;
        Ok(LinkRef { a: str_field(v, ctx, "a")?, b: str_field(v, ctx, "b")? })
    }
}

impl ExpectRoute {
    fn from_value(v: &Value, ctx: &str) -> Result<ExpectRoute, String> {
        check_fields(v, ctx, &["router", "prefix", "present", "as_path"])?;
        let present = v
            .get("present")
            .and_then(Value::as_bool)
            .ok_or_else(|| format!("{ctx}: `present` must be a boolean"))?;
        let as_path = match v.get("as_path") {
            None | Some(Value::Null) => None,
            Some(_) if !present => {
                return Err(format!("{ctx}: `as_path` needs `present: true`"));
            }
            Some(arr) => Some(
                arr.as_array()
                    .ok_or_else(|| format!("{ctx}: `as_path` must be an array of ASNs"))?
                    .iter()
                    .map(|n| n.as_u64().and_then(|n| u32::try_from(n).ok()))
                    .collect::<Option<Vec<u32>>>()
                    .ok_or_else(|| format!("{ctx}: `as_path` entries must be ASNs"))?,
            ),
        };
        Ok(ExpectRoute {
            router: str_field(v, ctx, "router")?,
            prefix: str_field(v, ctx, "prefix")?,
            present,
            as_path,
        })
    }
}

/// How to run a scenario, beyond what the document itself describes
/// (operator flags on `xbgp-sim`, not scenario content).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Trace 1 route in this many through every router's flight recorder
    /// (0 = tracing off). Router `i` records trace ids under namespace
    /// `i`, so per-router timelines stay attributable after the merge.
    pub trace_sample: u64,
}

/// Outcome of a scenario run.
#[derive(Debug)]
pub struct ScenarioReport {
    pub name: String,
    /// `(description, passed)` per expectation, in timeline order.
    pub checks: Vec<(String, bool)>,
    /// Final `(router, table size)` summary.
    pub tables: Vec<(String, usize)>,
    /// Merged final metrics of every router, each tagged with a
    /// `router` label on top of its `daemon` label. Every router runs
    /// with [`DaemonSpec::metrics`] on, so the VMM series are complete.
    pub metrics: xbgp_obs::Snapshot,
    /// Every router's flight-recorder dump merged into one timeline
    /// (when [`RunOptions::trace_sample`] is set).
    pub trace: Option<TraceDump>,
}

impl ScenarioReport {
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Build a preset manifest by name.
fn build_manifest(spec: &ExtensionSpecJson) -> Result<Manifest, String> {
    if let Some(doc) = &spec.manifest {
        return Manifest::from_json(&doc.to_string());
    }
    let preset = spec.preset.as_deref().ok_or("extensions need `preset` or `manifest`")?;
    let get_u64 = |key: &str| -> Option<u64> { spec.params.get(key).and_then(Value::as_u64) };
    match preset {
        "igp_filter" => Ok(xbgp_progs::igp_filter::manifest()),
        "route_reflect" => Ok(xbgp_progs::route_reflect::manifest()),
        "origin_validation" => Ok(xbgp_progs::origin_validation::manifest()),
        "geoloc" => Ok(xbgp_progs::geoloc::manifest(get_u64("max_dist2"))),
        "valley_free" => {
            let pairs: Vec<(u32, u32)> = spec
                .params
                .get("pairs")
                .and_then(Value::as_array)
                .ok_or("valley_free needs params.pairs: [[below, above], ...]")?
                .iter()
                .map(|p| {
                    let pair = p.as_array().ok_or("pair must be [below, above]")?;
                    let below = pair.first().and_then(|v| v.as_u64());
                    let above = pair.get(1).and_then(|v| v.as_u64());
                    match (below, above) {
                        (Some(b), Some(a)) => Ok((b as u32, a as u32)),
                        _ => Err("pair must be two ASNs".to_string()),
                    }
                })
                .collect::<Result<_, String>>()?;
            let dc: Ipv4Prefix = spec
                .params
                .get("dc_prefix")
                .and_then(Value::as_str)
                .ok_or("valley_free needs params.dc_prefix")?
                .parse()
                .map_err(|e: String| e)?;
            Ok(xbgp_progs::valley_free::manifest(&pairs, dc))
        }
        other => Err(format!("unknown preset `{other}`")),
    }
}

/// Run a scenario to completion with default observability options.
pub fn run(scenario: &Scenario) -> Result<ScenarioReport, String> {
    run_with_options(scenario, &RunOptions::default())
}

/// Run a scenario to completion.
pub fn run_with_options(scenario: &Scenario, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let mut sim = Sim::new(SimConfig::default());
    let trace_cfg = |router_idx: usize| {
        (opts.trace_sample > 0).then_some(TraceConfig {
            sample_every: opts.trace_sample,
            capacity: 0,
            shard: router_idx as u32,
        })
    };

    // Resolve routers.
    let mut by_name: HashMap<String, (usize, NodeId)> = HashMap::new();
    let mut nodes = Vec::new();
    for (i, r) in scenario.routers.iter().enumerate() {
        let id = sim.reserve_node();
        if by_name.insert(r.name.clone(), (i, id)).is_some() {
            return Err(format!("duplicate router name `{}`", r.name));
        }
        nodes.push(id);
    }
    let addr_of = |name: &str| -> Result<u32, String> {
        let (i, _) = by_name.get(name).ok_or(format!("unknown router `{name}`"))?;
        parse_addr(&scenario.routers[*i].router_id)
    };

    // Links.
    let mut link_ids: HashMap<(String, String), LinkId> = HashMap::new();
    let mut links_of: HashMap<String, Vec<(LinkId, String)>> = HashMap::new();
    for l in &scenario.links {
        let (_, na) = *by_name.get(&l.a).ok_or(format!("unknown router `{}`", l.a))?;
        let (_, nb) = *by_name.get(&l.b).ok_or(format!("unknown router `{}`", l.b))?;
        if l.a == l.b {
            return Err(format!("link {}–{} connects a router to itself", l.a, l.b));
        }
        // A second a–b link would shadow the first in `find_link`.
        if link_ids.contains_key(&(l.a.clone(), l.b.clone())) {
            return Err(format!("duplicate link {}–{}", l.a, l.b));
        }
        let id = sim.connect(na, nb, l.latency_us * 1_000);
        link_ids.insert((l.a.clone(), l.b.clone()), id);
        link_ids.insert((l.b.clone(), l.a.clone()), id);
        links_of.entry(l.a.clone()).or_default().push((id, l.b.clone()));
        links_of.entry(l.b.clone()).or_default().push((id, l.a.clone()));
    }
    let find_link = |r: &LinkRef| -> Result<LinkId, String> {
        link_ids
            .get(&(r.a.clone(), r.b.clone()))
            .copied()
            .ok_or(format!("no link {}–{}", r.a, r.b))
    };

    // Churn feeder: a synthetic upstream peering eBGP with the feed
    // router, its rounds loaded (and so armed) from the start.
    const FEEDER_ASN: u32 = 64_999;
    const FEEDER_ADDR: u32 = 0x0aff_fffe; // 10.255.255.254
    let mut churn_feed: Option<(NodeId, LinkId)> = None;
    if let Some(c) = &scenario.churn {
        let (fi, feed_node) =
            *by_name.get(&c.feed).ok_or(format!("churn: unknown router `{}`", c.feed))?;
        if scenario.routers[fi].asn == FEEDER_ASN {
            return Err(format!(
                "churn: router `{}` uses AS {FEEDER_ASN}, reserved for the feeder",
                c.feed
            ));
        }
        let table = routegen::generate(&routegen::TableSpec::new(c.routes, c.spec.seed));
        let rounds = routegen::churn::churn_rounds(&table, &c.spec);
        let mut feeder = Feeder::new(
            FEEDER_ASN,
            FEEDER_ADDR,
            encode_frames(routegen::to_updates(&table, FEEDER_ADDR, None)),
        );
        feeder.load_rounds(
            rounds.iter().map(|r| encode_frames(r.to_updates(FEEDER_ADDR, None))).collect(),
        );
        let f = sim.add_node(Box::new(feeder));
        let l = sim.connect(f, feed_node, 100_000);
        churn_feed = Some((f, l));
    }

    // IGP.
    let shared_igp = match &scenario.igp {
        Some(spec) => {
            let mut net = igp::IgpNetwork::new();
            for m in &spec.members {
                net.add_router(addr_of(m)?);
            }
            for l in &spec.links {
                net.add_link(addr_of(&l.a)?, addr_of(&l.b)?, l.metric);
            }
            Some(igp::shared(net))
        }
        None => None,
    };

    // Instantiate routers.
    for r in &scenario.routers {
        let my_addr = parse_addr(&r.router_id)?;
        let originate: Vec<(Ipv4Prefix, u32)> = r
            .originate
            .iter()
            .map(|p| p.parse::<Ipv4Prefix>().map(|px| (px, my_addr)))
            .collect::<Result<_, _>>()?;
        let mut manifest = r.extensions.as_ref().map(build_manifest).transpose()?;
        if scenario.fault_rate > 0.0 {
            // A rate of 1/N becomes "trap every Nth inbound run". The probe
            // delegates (`next`) on clean runs, so appending it leaves the
            // router's own chain semantics intact.
            let period = (1.0 / scenario.fault_rate).round().max(1.0) as u64;
            manifest
                .get_or_insert_with(Manifest::new)
                .push(xbgp_progs::fault_inject::extension(period));
        }
        let xbgp_roas = match r.extensions.as_ref().and_then(|e| e.roas_csv.as_deref()) {
            Some(csv) => Some(rpki::parse_roa_csv(csv).map_err(|e| e.to_string())?),
            None => None,
        };
        let native_roas = match r.native_roas_csv.as_deref() {
            Some(csv) => Some(rpki::parse_roa_csv(csv).map_err(|e| e.to_string())?),
            None => None,
        };
        let xtra: Vec<(String, Vec<u8>)> = r
            .xtra_hex
            .iter()
            .map(|(k, v)| xbgp_core::manifest::from_hex(v).map(|bytes| (k.clone(), bytes)))
            .collect::<Result<_, _>>()?;
        let peers: Vec<(LinkId, String)> = links_of.get(&r.name).cloned().unwrap_or_default();

        let (idx, node) = by_name[&r.name];
        let dut: Dut = r.implementation.parse()?;
        let mut dspec = DaemonSpec::new(r.asn, my_addr);
        for (link, peer_name) in &peers {
            let peer_addr = addr_of(peer_name)?;
            let peer_asn = scenario.routers[by_name[peer_name].0].asn;
            dspec = if r.rr_clients.contains(peer_name) {
                dspec.rr_client(*link, peer_addr, peer_asn)
            } else {
                dspec.neighbor(*link, peer_addr, peer_asn)
            };
        }
        if let Some((_, l)) = churn_feed {
            if scenario.churn.as_ref().is_some_and(|c| c.feed == r.name) {
                dspec = dspec.neighbor(l, FEEDER_ADDR, FEEDER_ASN);
            }
        }
        dspec.originate = originate;
        dspec.native_rr = r.native_rr;
        dspec.native_rov = native_roas;
        dspec.xbgp = manifest;
        dspec.xbgp_roas = xbgp_roas;
        dspec.igp = shared_igp.clone();
        dspec.xtra = xtra;
        dspec.trace = trace_cfg(idx);
        dspec.metrics = true;
        sim.replace_node(node, Box::new(build(dut, dspec)));
    }

    // Timeline.
    let mut checks = Vec::new();
    let mut events: Vec<&Event> = scenario.events.iter().collect();
    events.sort_by_key(|e| e.at_secs);
    // Does `e.router` hold a best route for `e.prefix` (over `e.as_path`,
    // when given)?
    let route_matches = |sim: &mut Sim, e: &ExpectRoute| -> Result<bool, String> {
        let (_, node) = *by_name.get(&e.router).ok_or(format!("unknown router `{}`", e.router))?;
        let p: Ipv4Prefix = e.prefix.parse()?;
        let d = &sim.node_ref::<DutNode>(node).0;
        Ok(match &e.as_path {
            None => d.has_best_route(&p) == e.present,
            Some(want) => best_as_path(&d.loc_rib_dump(), &p).as_ref() == Some(want),
        })
    };
    let mut last = 0u64;
    for ev in events {
        sim.run_until(ev.at_secs * SEC);
        last = ev.at_secs;
        if let Some(r) = &ev.fail_link {
            sim.set_link_up(find_link(r)?, false);
        }
        if let Some(r) = &ev.restore_link {
            sim.set_link_up(find_link(r)?, true);
        }
        if let Some(r) = &ev.flap_link {
            let l = find_link(r)?;
            sim.set_link_up(l, false);
            sim.run_until(ev.at_secs * SEC + SEC);
            sim.set_link_up(l, true);
        }
        if let Some(r) = &ev.fail_igp_link {
            let igp = shared_igp.as_ref().ok_or("scenario has no igp section")?;
            if !igp.borrow_mut().set_link_up(addr_of(&r.a)?, addr_of(&r.b)?, false) {
                return Err(format!("no IGP link {}–{}", r.a, r.b));
            }
        }
        if let Some(e) = &ev.expect_route {
            let via = match &e.as_path {
                Some(path) => format!(" via AS path {path:?}"),
                None => String::new(),
            };
            checks.push((
                format!(
                    "t={}s: {} {} {}{via}",
                    ev.at_secs,
                    e.router,
                    if e.present { "has" } else { "does not have" },
                    e.prefix
                ),
                route_matches(&mut sim, e)?,
            ));
        }
    }
    sim.run_until((last + scenario.settle_secs) * SEC);

    // Churn epilogue: replay every round to convergence, then pin
    // correctness — each router's incremental Loc-RIB must be
    // byte-identical to its full-recompute oracle. Oracle results join the
    // check list, so a divergence fails the scenario like any missed
    // `expect_route`.
    if let Some((f, _)) = churn_feed {
        replay_rounds(&mut sim, f)?;
        for (i, r) in scenario.routers.iter().enumerate() {
            let diff = {
                let d = sim.node_mut::<DutNode>(nodes[i]);
                let incremental = d.0.loc_rib_dump();
                crate::churn::dump_diff(&incremental, &d.0.oracle_loc_rib_dump())
            };
            checks.push((
                format!("churn oracle: {} incremental Loc-RIB matches full recompute", r.name),
                diff == 0,
            ));
        }
    }

    // Final tables, metrics and traces.
    let mut tables = Vec::new();
    let mut metrics = xbgp_obs::Snapshot::default();
    let mut dumps = Vec::new();
    for (i, r) in scenario.routers.iter().enumerate() {
        let node = nodes[i];
        let (n, snap, dump) = {
            let d = sim.node_mut::<DutNode>(node);
            (d.0.loc_rib_len(), d.0.metrics_snapshot(), d.0.take_trace())
        };
        tables.push((r.name.clone(), n));
        metrics
            .merge(snap.with_labels(&[("router", &r.name)]))
            .expect("routers share the bucket layout");
        dumps.extend(dump);
    }
    let trace = (opts.trace_sample > 0).then(|| TraceDump::merge(dumps));
    Ok(ScenarioReport { name: scenario.name.clone(), checks, tables, metrics, trace })
}

/// The AS_PATH of the best route to `prefix` in a Loc-RIB dump
/// (`Daemon::loc_rib_dump`), nearest ASN first.
fn best_as_path(rib: &[(Ipv4Prefix, Vec<u8>)], prefix: &Ipv4Prefix) -> Option<Vec<u32>> {
    let i = rib.binary_search_by_key(prefix, |(p, _)| *p).ok()?;
    decode_attrs(&rib[i].1, 4).ok()?.into_iter().find_map(|a| match a {
        PathAttr::AsPath(path) => Some(path.asns().collect()),
        _ => None,
    })
}

/// Parse a scenario document from JSON.
pub fn parse(json: &str) -> Result<Scenario, String> {
    let doc = Value::parse(json)?;
    Scenario::from_value(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A committed document under `scenarios/`.
    fn document(file: &str) -> Scenario {
        let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        parse(&json).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn every_committed_document_passes() {
        // Each scenario under scenarios/ parses, checks something, and
        // passes every check: the Fig. 5 fabrics, Listing 1, the route
        // reflector, the fault and churn fixtures.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .expect("scenarios/ present")
            .map(|e| e.expect("readable entry").file_name().into_string().expect("UTF-8 name"))
            .filter(|f| f.ends_with(".json"))
            .collect();
        files.sort();
        assert!(files.len() >= 7, "{files:?}");
        for file in files {
            let report = run(&document(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!report.checks.is_empty(), "{file} checks nothing");
            assert!(report.all_passed(), "{file}: {:?}", report.checks);
        }
    }

    #[test]
    fn listing1_scenario_runs_and_passes() {
        let report = run(&document("listing1_igp_filter.json")).expect("runs");
        assert_eq!(report.checks.len(), 2);
        assert!(report.all_passed(), "{:?}", report.checks);
        // After the IGP failure London is unreachable, so berlin's and
        // peer's tables shrink.
        let peer_table = report.tables.iter().find(|(n, _)| n == "peer").unwrap();
        assert_eq!(peer_table.1, 0);
        // Every router runs with metrics on, so the chain-run counter
        // splits exactly into its outcomes.
        let m = &report.metrics;
        let runs = m.counter_sum("xbgp_vmm_runs_total");
        assert!(runs > 0, "VMM chain runs are counted");
        assert_eq!(
            runs,
            m.counter_sum("xbgp_vmm_values_total")
                + m.counter_sum("xbgp_vmm_fallbacks_total")
                + m.counter_sum("xbgp_vmm_errors_total")
        );
    }

    #[test]
    fn as_path_rows_compare_the_best_path() {
        // The valley path L10 takes after the double failure, and a wrong
        // one: the row passes only on the exact path.
        let mut scenario = document("fig5_valley_free.json");
        let row = scenario.events.iter_mut().rev().find_map(|e| e.expect_route.as_mut());
        let row = row.expect("post-failure row");
        assert_eq!(row.as_path.as_deref(), Some(&[65202, 65102, 65201, 65104][..]));
        row.as_path = Some(vec![65202, 65103, 65201, 65104]);
        let report = run(&scenario).expect("runs");
        let (desc, ok) = report.checks.last().unwrap();
        assert!(!ok && desc.contains("via AS path"), "{desc}");

        let err = parse(
            r#"{"name": "x", "routers": [], "links": [], "events": [ { "at_secs": 1,
                 "expect_route": { "router": "a", "prefix": "10.0.0.0/8",
                                   "present": false, "as_path": [1] } } ] }"#,
        )
        .unwrap_err();
        assert!(err.contains("as_path"), "{err}");
    }

    #[test]
    fn duplicate_and_self_links_are_rejected() {
        let base = r#"{
            "name": "links",
            "routers": [
                { "name": "a", "implementation": "fir", "asn": 65001,
                  "router_id": "10.0.0.1", "originate": ["10.1.0.0/16"] },
                { "name": "b", "implementation": "wren", "asn": 65002,
                  "router_id": "10.0.0.2" }
            ],
            "links": [ LINKS ],
            "events": [
                { "at_secs": 6, "fail_link": { "a": "a", "b": "b" } },
                { "at_secs": 20, "expect_route": { "router": "b", "prefix": "10.1.0.0/16", "present": false } }
            ]
        }"#;
        let run_links = |links: &str| run(&parse(&base.replace("LINKS", links)).unwrap());
        assert!(run_links(r#"{ "a": "a", "b": "b" }"#).unwrap().all_passed());
        for (links, pair) in [
            (r#"{ "a": "a", "b": "b" }, { "a": "a", "b": "b" }"#, "a–b"),
            (r#"{ "a": "a", "b": "b" }, { "a": "b", "b": "a" }"#, "b–a"),
            (r#"{ "a": "a", "b": "b" }, { "a": "a", "b": "a" }"#, "a–a"),
        ] {
            let err = run_links(links).unwrap_err();
            assert!(err.contains(pair), "{links}: {err}");
        }
    }

    #[test]
    fn mixed_implementations_cross_validate() {
        let json = r#"{
            "name": "interop",
            "routers": [
                { "name": "a", "implementation": "fir", "asn": 65001,
                  "router_id": "10.0.0.1", "originate": ["10.1.0.0/16"] },
                { "name": "b", "implementation": "wren", "asn": 65002,
                  "router_id": "10.0.0.2", "originate": ["10.2.0.0/16"] }
            ],
            "links": [ { "a": "a", "b": "b" } ],
            "events": [
                { "at_secs": 5, "expect_route": { "router": "a", "prefix": "10.2.0.0/16", "present": true } },
                { "at_secs": 5, "expect_route": { "router": "b", "prefix": "10.1.0.0/16", "present": true } }
            ]
        }"#;
        let report = run(&parse(json).unwrap()).unwrap();
        assert!(report.all_passed(), "{:?}", report.checks);
        assert!(report.tables.iter().all(|(_, n)| *n == 2));
    }

    #[test]
    fn ov_preset_with_roa_csv() {
        let json = r#"{
            "name": "ov",
            "routers": [
                { "name": "src", "implementation": "fir", "asn": 65001,
                  "router_id": "10.0.0.1", "originate": ["10.1.0.0/16"] },
                { "name": "dut", "implementation": "wren", "asn": 65002,
                  "router_id": "10.0.0.2",
                  "extensions": { "preset": "origin_validation",
                                   "roas_csv": "AS65001,10.1.0.0/16,16,test\n" } }
            ],
            "links": [ { "a": "src", "b": "dut" } ],
            "events": [
                { "at_secs": 5, "expect_route": { "router": "dut", "prefix": "10.1.0.0/16", "present": true } }
            ]
        }"#;
        let report = run(&parse(json).unwrap()).unwrap();
        assert!(report.all_passed(), "{:?}", report.checks);
    }

    #[test]
    fn multi_prefix_scenario_passes_every_check() {
        // Several prefixes each way, with a check on each and one on a
        // prefix nobody originates.
        let json = r#"{
            "name": "multi_prefix",
            "routers": [
                { "name": "a", "implementation": "fir", "asn": 65001,
                  "router_id": "10.0.0.1",
                  "originate": ["10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16", "10.4.0.0/16"] },
                { "name": "b", "implementation": "wren", "asn": 65002,
                  "router_id": "10.0.0.2", "originate": ["10.9.0.0/16"] }
            ],
            "links": [ { "a": "a", "b": "b" } ],
            "events": [
                { "at_secs": 5, "expect_route": { "router": "b", "prefix": "10.1.0.0/16", "present": true } },
                { "at_secs": 5, "expect_route": { "router": "b", "prefix": "10.2.0.0/16", "present": true } },
                { "at_secs": 5, "expect_route": { "router": "b", "prefix": "10.3.0.0/16", "present": true } },
                { "at_secs": 5, "expect_route": { "router": "a", "prefix": "10.9.0.0/16", "present": true } },
                { "at_secs": 5, "expect_route": { "router": "b", "prefix": "10.7.0.0/16", "present": false } }
            ]
        }"#;
        let report = run(&parse(json).unwrap()).unwrap();
        assert!(report.all_passed(), "{:?}", report.checks);
        assert_eq!(report.checks.len(), 5);
        assert!(report.tables.iter().all(|(_, n)| *n == 5), "{:?}", report.tables);
    }

    #[test]
    fn fault_rate_injects_the_probe_and_routing_survives() {
        // Every inbound run faults (rate 1.0): all staged mutations roll
        // back, every route still converges natively, and the rollbacks
        // are visible in the merged metrics. The probe quarantines itself
        // at rate 1.0 (three consecutive faults), which must also show up.
        let json = r#"{
            "name": "fault-smoke",
            "routers": [
                { "name": "a", "implementation": "fir", "asn": 65001,
                  "router_id": "10.0.0.1",
                  "originate": ["10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16", "10.4.0.0/16"] },
                { "name": "b", "implementation": "wren", "asn": 65002,
                  "router_id": "10.0.0.2", "originate": ["10.9.0.0/16"] }
            ],
            "links": [ { "a": "a", "b": "b" } ],
            "events": [
                { "at_secs": 5, "expect_route": { "router": "b", "prefix": "10.1.0.0/16", "present": true } },
                { "at_secs": 5, "expect_route": { "router": "a", "prefix": "10.9.0.0/16", "present": true } }
            ],
            "fault_rate": 1.0
        }"#;
        let scenario = parse(json).unwrap();
        assert_eq!(scenario.fault_rate, 1.0);
        let report = run(&scenario).unwrap();
        assert!(report.all_passed(), "{:?}", report.checks);
        assert!(report.tables.iter().all(|(_, n)| *n == 5), "{:?}", report.tables);
        assert!(report.metrics.counter_sum("xbgp_vmm_rollbacks_total") > 0, "rollbacks counted");
        assert!(report.metrics.counter_sum("xbgp_vmm_quarantines_total") > 0);

        // A gentler rate (every 2nd run) never trips the breaker.
        let json = json.replace("\"fault_rate\": 1.0", "\"fault_rate\": 0.5");
        let report = run(&parse(&json).unwrap()).unwrap();
        assert!(report.all_passed(), "{:?}", report.checks);
        assert!(report.metrics.counter_sum("xbgp_vmm_rollbacks_total") > 0);
        assert_eq!(report.metrics.counter_sum("xbgp_vmm_quarantines_total"), 0);
    }

    #[test]
    fn trace_reconstructs_route_flow_and_fault_postmortem() {
        use xbgp_obs::trace::TraceKind;
        // The fault_smoke fixture with rate 1.0: every inbound-filter run
        // stages a host mutation then traps, so a sampled route's
        // timeline carries the whole ingest → decode → hook → rollback →
        // decision → propagate flow, and the probe's quarantine leaves a
        // postmortem naming the faulting pc and insertion point.
        let json = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/fault_smoke.json"
        ))
        .expect("fixture present");
        let mut scenario = parse(&json).expect("parses");
        scenario.fault_rate = 1.0;
        let opts = RunOptions { trace_sample: 1 };
        let report = run_with_options(&scenario, &opts).expect("runs");
        assert!(report.all_passed(), "{:?}", report.checks);

        let dump = report.trace.as_ref().expect("tracing on");
        let ids = |kind: TraceKind| -> std::collections::BTreeSet<u64> {
            dump.events.iter().filter(|e| e.kind == kind).map(|e| e.trace_id).collect()
        };
        // At least one sampled route reconstructs end to end, rollback
        // included: the same trace id appears at every stage.
        let full: Vec<u64> = ids(TraceKind::Decode)
            .intersection(&ids(TraceKind::TxnRollback))
            .copied()
            .collect::<std::collections::BTreeSet<u64>>()
            .intersection(&ids(TraceKind::Decision))
            .copied()
            .collect::<std::collections::BTreeSet<u64>>()
            .intersection(&ids(TraceKind::Propagate))
            .copied()
            .collect();
        assert!(!full.is_empty(), "no trace id spans decode→rollback→decision→propagate");
        assert!(!ids(TraceKind::Ingest).is_empty());
        assert!(!ids(TraceKind::Fault).is_empty());

        // The quarantined probe's postmortem names the faulting pc and
        // the insertion point, and carries the flight-recorder context.
        let pm = dump
            .postmortems
            .iter()
            .find(|pm| pm.quarantined)
            .expect("rate 1.0 trips the breaker");
        assert_eq!(pm.extension, "fault_inject");
        assert_eq!(usize::from(pm.point), 1, "inbound filter");
        assert!(pm.pc.is_some(), "faulting pc recorded");
        assert!(!pm.events.is_empty(), "last-N context attached");
        let fault = pm.events.iter().rev().find(|e| e.kind == TraceKind::Fault);
        assert_eq!(fault.map(|e| e.a), pm.pc, "context fault matches the pc");

        // Metrics ran alongside: the xbgp_prof_* series are exported.
        assert!(
            report.metrics.metrics.iter().any(|m| m.name.starts_with("xbgp_prof_")),
            "per-layer series exported"
        );

        // The merged multi-router dump round-trips through JSONL.
        let names = crate::trace_point_names();
        let back = xbgp_obs::trace::TraceDump::from_jsonl(&dump.to_jsonl(&names), &names)
            .expect("round-trips");
        assert_eq!(back.events.len(), dump.events.len());
        assert_eq!(back.postmortems.len(), dump.postmortems.len());
    }

    #[test]
    fn churn_storm_fixture_passes_oracle() {
        // The committed fixture, scaled down for test time: the feeder
        // blasts a table at the FIR dut (which re-exports to the WREN
        // edge), replays the storm, and every router's incremental
        // Loc-RIB must match its full-recompute oracle, with fault
        // injection live.
        let mut scenario = document("churn_storm.json");
        let churn = scenario.churn.as_mut().unwrap();
        churn.routes = 500;
        churn.spec.rounds = 6;
        let report = run(&scenario).expect("runs");
        assert!(report.all_passed(), "{:?}", report.checks);
        let oracle_checks =
            report.checks.iter().filter(|(d, _)| d.starts_with("churn oracle")).count();
        assert_eq!(oracle_checks, 2, "one oracle verdict per router");
        // The churn counters made it into the merged metrics.
        assert!(report.metrics.counter_sum("xbgp_rib_best_changes_total") > 0);
        assert!(report.metrics.counter_sum("xbgp_rib_withdrawals_total") > 0);
        // The feed router ends holding its peer's prefix + the table.
        let dut = report.tables.iter().find(|(n, _)| n == "dut").unwrap();
        assert_eq!(dut.1, 501, "restore round converged");
    }

    #[test]
    fn churn_rejects_unknown_fields_and_bad_rates() {
        let base = r#"{
            "name": "x",
            "routers": [ { "name": "a", "implementation": "fir", "asn": 1, "router_id": "10.0.0.1" } ],
            "links": [],
            "churn": { "feed": "a", "routes": 10, CHURN }
        }"#;
        let err = parse(&base.replace("CHURN", "\"widthdraw_per_mille\": 5")).unwrap_err();
        assert!(err.contains("widthdraw_per_mille"), "{err}");
        let err = parse(&base.replace("CHURN", "\"withdraw_per_mille\": 1500")).unwrap_err();
        assert!(err.contains("per-mille"), "{err}");
        for gone in ["interval_ms", "start_secs"] {
            let err = parse(&base.replace("CHURN", &format!("\"{gone}\": 1"))).unwrap_err();
            assert!(err.contains(gone), "{err}");
        }
        let ok = parse(&base.replace("CHURN", "\"withdraw_per_mille\": 200")).unwrap();
        let spec = ok.churn.as_ref().unwrap().spec;
        assert_eq!(spec.withdraw_per_mille, 200);
        assert_eq!(
            ChurnSpec { withdraw_per_mille: 500, ..spec },
            ChurnSpec { withdraw_per_mille: 500, ..ChurnSpec::new(1, 8) },
            "every other key defaults"
        );
    }

    #[test]
    fn fault_rate_out_of_range_is_rejected() {
        let err =
            parse(r#"{"name": "x", "routers": [], "links": [], "fault_rate": 1.5}"#).unwrap_err();
        assert!(err.contains("fault_rate"), "{err}");
    }

    #[test]
    fn unknown_names_are_rejected() {
        let json = r#"{
            "name": "bad",
            "routers": [
                { "name": "a", "implementation": "fir", "asn": 1, "router_id": "10.0.0.1" }
            ],
            "links": [ { "a": "a", "b": "ghost" } ]
        }"#;
        assert!(run(&parse(json).unwrap()).unwrap_err().contains("ghost"));

        let json = r#"{
            "name": "bad2",
            "routers": [
                { "name": "a", "implementation": "quagga", "asn": 1, "router_id": "10.0.0.1" }
            ],
            "links": []
        }"#;
        assert!(run(&parse(json).unwrap()).unwrap_err().contains("quagga"));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let json = r#"{
            "name": "typo",
            "routers": [
                { "name": "a", "implementation": "fir", "asn": 1,
                  "router_id": "10.0.0.1", "originate_prefixes": [] }
            ],
            "links": []
        }"#;
        let err = parse(json).unwrap_err();
        assert!(err.contains("originate_prefixes"), "{err}");

        let err =
            parse(r#"{"name": "x", "routers": [], "links": [], "sette_secs": 1}"#).unwrap_err();
        assert!(err.contains("sette_secs"), "{err}");
    }
}
