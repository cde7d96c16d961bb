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
use netsim::{LinkId, NodeId, Sim, SimConfig};
use std::collections::HashMap;
use xbgp_core::Manifest;
use xbgp_obs::json::Value;
use xbgp_obs::trace::{TraceConfig, TraceDump};
use xbgp_wire::prefix::parse_addr;
use xbgp_wire::Ipv4Prefix;

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
    /// (withdraw storms, flaps, ROA sweeps, path hunting) in timed rounds.
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
}

/// Churn workload description (see [`routegen::churn`] for the stream
/// semantics). A synthetic feeder peers eBGP (AS 64999, 10.255.255.254)
/// with the named router, blasts `routes` generated prefixes, and — once
/// `start_secs` have passed after the blast — replays the churn rounds
/// every `interval_ms`. All rates are integer per-mille.
#[derive(Debug, Clone)]
pub struct ChurnSection {
    /// Router (by name) the feeder peers with.
    pub feed: String,
    /// Initial table size.
    pub routes: usize,
    /// Stream seed (table and churn derive from it).
    pub seed: u64,
    /// Storm rounds (a final restore round is appended automatically).
    pub rounds: usize,
    pub withdraw_per_mille: u32,
    pub reannounce_per_mille: u32,
    pub flap_per_mille: u32,
    pub flap_period: usize,
    pub roa_sweep_per_mille: u32,
    pub path_hunt_depth: usize,
    /// Virtual-time gap between rounds (default 200).
    pub interval_ms: u64,
    /// Delay between blast and the first round (default 5).
    pub start_secs: u64,
    /// After the last round, compare every router's incremental Loc-RIB
    /// against its full-recompute oracle and report a check per router
    /// (default true).
    pub check_oracle: bool,
    /// Internal `(replica, shards)` filter set by [`run_sharded`]: the
    /// replica feeds only the prefixes it owns, from a stream always
    /// derived from the full table. Not part of the JSON format.
    pub shard: Option<(usize, usize)>,
}

impl ChurnSection {
    /// A churn section with the documented defaults (the values a JSON
    /// section gets when it names only `feed` and `routes`).
    pub fn new(feed: &str, routes: usize) -> ChurnSection {
        ChurnSection {
            feed: feed.to_string(),
            routes,
            seed: 1,
            rounds: 8,
            withdraw_per_mille: 100,
            reannounce_per_mille: 500,
            flap_per_mille: 50,
            flap_period: 4,
            roa_sweep_per_mille: 20,
            path_hunt_depth: 2,
            interval_ms: 200,
            start_secs: 5,
            check_oracle: true,
            shard: None,
        }
    }

    fn spec(&self) -> routegen::churn::ChurnSpec {
        routegen::churn::ChurnSpec {
            seed: self.seed,
            rounds: self.rounds,
            withdraw_per_mille: self.withdraw_per_mille,
            reannounce_per_mille: self.reannounce_per_mille,
            flap_per_mille: self.flap_per_mille,
            flap_period: self.flap_period,
            roa_sweep_per_mille: self.roa_sweep_per_mille,
            path_hunt_depth: self.path_hunt_depth,
        }
    }
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
                "interval_ms",
                "start_secs",
                "check_oracle",
            ],
        )?;
        let per_mille = |key: &str, default: u64| -> Result<u32, String> {
            let n = u64_field_or(v, ctx, key, default)?;
            if n > 1000 {
                return Err(format!("{ctx}: `{key}` is per-mille, must be ≤ 1000 (got {n})"));
            }
            Ok(n as u32)
        };
        Ok(ChurnSection {
            feed: str_field(v, ctx, "feed")?,
            routes: u64_field(v, ctx, "routes")? as usize,
            seed: u64_field_or(v, ctx, "seed", 1)?,
            rounds: u64_field_or(v, ctx, "rounds", 8)? as usize,
            withdraw_per_mille: per_mille("withdraw_per_mille", 100)?,
            reannounce_per_mille: per_mille("reannounce_per_mille", 500)?,
            flap_per_mille: per_mille("flap_per_mille", 50)?,
            flap_period: u64_field_or(v, ctx, "flap_period", 4)? as usize,
            roa_sweep_per_mille: per_mille("roa_sweep_per_mille", 20)?,
            path_hunt_depth: u64_field_or(v, ctx, "path_hunt_depth", 2)? as usize,
            interval_ms: u64_field_or(v, ctx, "interval_ms", 200)?,
            start_secs: u64_field_or(v, ctx, "start_secs", 5)?,
            check_oracle: bool_field_or(v, ctx, "check_oracle", true)?,
            shard: None,
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
        check_fields(v, ctx, &["router", "prefix", "present"])?;
        Ok(ExpectRoute {
            router: str_field(v, ctx, "router")?,
            prefix: str_field(v, ctx, "prefix")?,
            present: v
                .get("present")
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("{ctx}: `present` must be a boolean"))?,
        })
    }
}

/// Runtime observability knobs for a scenario run, beyond what the
/// document itself describes (operator flags on `xbgp-sim`, not scenario
/// content).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Trace 1 route in this many through every router's flight recorder
    /// (0 = tracing off).
    pub trace_sample: u64,
    /// Enable every router's VM execution profiler (`xbgp_prof_*`
    /// series in the metrics snapshot).
    pub profile: bool,
    /// Trace-id namespace base: router `i` records under shard
    /// `(shard_base << 8) | i`, so per-router timelines from sharded
    /// replicas stay attributable after the merge.
    pub shard_base: u32,
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
    /// `router` label on top of its `daemon` label.
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

struct Placeholder;
impl netsim::Node for Placeholder {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
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
            shard: (opts.shard_base << 8) | router_idx as u32,
        })
    };

    // Resolve routers.
    let mut by_name: HashMap<String, (usize, NodeId)> = HashMap::new();
    let mut nodes = Vec::new();
    for (i, r) in scenario.routers.iter().enumerate() {
        let id = sim.add_node(Box::new(Placeholder));
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
    // router. The stream is always generated over the full table, then
    // filtered to this replica's prefixes, so every shard count replays
    // the same logical churn.
    const FEEDER_ASN: u32 = 64_999;
    const FEEDER_ADDR: u32 = 0x0aff_fffe; // 10.255.255.254
    let mut churn_feed: Option<(NodeId, LinkId, usize)> = None;
    if let Some(c) = &scenario.churn {
        let (fi, feed_node) =
            *by_name.get(&c.feed).ok_or(format!("churn: unknown router `{}`", c.feed))?;
        if scenario.routers[fi].asn == FEEDER_ASN {
            return Err(format!(
                "churn: router `{}` uses AS {FEEDER_ASN}, reserved for the feeder",
                c.feed
            ));
        }
        let mut table = routegen::generate(&routegen::TableSpec::new(c.routes, c.seed));
        let mut rounds = routegen::churn::churn_rounds(&table, &c.spec());
        if let Some((k, m)) = c.shard {
            table.retain(|r| crate::shard::shard_of(&r.prefix, m) == k);
            for round in &mut rounds {
                round.withdrawals.retain(|p| crate::shard::shard_of(p, m) == k);
                round.announcements.retain(|r| crate::shard::shard_of(&r.prefix, m) == k);
            }
        }
        let enc = |u: xbgp_wire::UpdateMsg| {
            xbgp_wire::Message::Update(u).encode(4).expect("update encodes")
        };
        let frames: Vec<Vec<u8>> =
            routegen::to_updates(&table, FEEDER_ADDR, None).into_iter().map(enc).collect();
        let round_frames: Vec<Vec<Vec<u8>>> = rounds
            .iter()
            .map(|r| r.to_updates(FEEDER_ADDR, None).into_iter().map(enc).collect())
            .collect();
        let n_rounds = round_frames.len();
        let f = sim.add_node(Box::new(
            crate::feeder::Feeder::new(FEEDER_ASN, FEEDER_ADDR, frames).with_churn(
                round_frames,
                c.start_secs * SEC,
                c.interval_ms * 1_000_000,
            ),
        ));
        let l = sim.connect(f, feed_node, 100_000);
        churn_feed = Some((f, l, n_rounds));
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
        if let Some((_, l, _)) = churn_feed {
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
        dspec.profile = opts.profile;
        sim.replace_node(node, Box::new(build(dut, dspec)));
    }

    // Timeline.
    let mut checks = Vec::new();
    let mut events: Vec<&Event> = scenario.events.iter().collect();
    events.sort_by_key(|e| e.at_secs);
    let has_route = |sim: &mut Sim, router: &str, prefix: &str| -> Result<bool, String> {
        let (_, node) = *by_name.get(router).ok_or(format!("unknown router `{router}`"))?;
        let p: Ipv4Prefix = prefix.parse()?;
        Ok(sim.node_ref::<DutNode>(node).0.has_best_route(&p))
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
            let got = has_route(&mut sim, &e.router, &e.prefix)?;
            checks.push((
                format!(
                    "t={}s: {} {} {}",
                    ev.at_secs,
                    e.router,
                    if e.present { "has" } else { "does not have" },
                    e.prefix
                ),
                got == e.present,
            ));
        }
    }
    sim.run_until((last + scenario.settle_secs) * SEC);

    // Churn epilogue: run until every round has been replayed, settle so
    // the final (restore) round converges, then pin correctness — each
    // router's incremental Loc-RIB must be byte-identical to its
    // full-recompute oracle. Oracle results join the check list, so a
    // divergence fails the scenario like any missed `expect_route`.
    if let Some((f, _, n_rounds)) = churn_feed {
        let mut deadline = sim.now();
        loop {
            if sim.node_ref::<crate::feeder::Feeder>(f).rounds_sent >= n_rounds {
                break;
            }
            deadline += 30 * SEC;
            if deadline > 1_000_000 * SEC {
                return Err("churn rounds stalled".to_string());
            }
            sim.run_until(deadline);
        }
        let settle = sim.now() + scenario.settle_secs.max(5) * SEC;
        sim.run_until(settle);
        if scenario.churn.as_ref().is_some_and(|c| c.check_oracle) {
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

/// Run a scenario with its originated prefixes split across `shards`
/// replica simulations.
///
/// BGP propagation is independent per prefix over a fixed topology, so a
/// scenario shards the same way a table load does (see [`crate::shard`]):
/// replica `k` runs the full topology and the full failure timeline but
/// originates only the prefixes whose [`crate::shard::shard_of`] hash is
/// `k`, and each `expect_route` check is evaluated in the replica owning
/// its prefix. Each replica's complete state lives on its own worker
/// thread; only the `Send` [`ScenarioReport`]s come back. The merged
/// report has checks reassembled in timeline order, per-router table
/// sizes summed, and metric snapshots merged (matching counters sum).
/// `shards <= 1` is exactly [`run`].
pub fn run_sharded(scenario: &Scenario, shards: usize) -> Result<ScenarioReport, String> {
    run_sharded_with_options(scenario, shards, &RunOptions::default())
}

/// [`run_sharded`] with observability options. Each replica records
/// trace ids under its own shard namespace (`shard_base = k`), so the
/// merged timeline stays attributable to both replica and router.
pub fn run_sharded_with_options(
    scenario: &Scenario,
    shards: usize,
    opts: &RunOptions,
) -> Result<ScenarioReport, String> {
    if shards <= 1 {
        return run_with_options(scenario, opts);
    }
    let owner = |prefix: &str| -> usize {
        match prefix.parse::<Ipv4Prefix>() {
            Ok(p) => crate::shard::shard_of(&p, shards),
            // Unparseable prefixes go to replica 0, whose own run()
            // surfaces the error.
            Err(_) => 0,
        }
    };
    let replicas: Vec<Scenario> = (0..shards)
        .map(|k| {
            let mut s = scenario.clone();
            for r in &mut s.routers {
                r.originate.retain(|p| owner(p) == k);
            }
            for e in &mut s.events {
                if e.expect_route.as_ref().is_some_and(|x| owner(&x.prefix) != k) {
                    e.expect_route = None;
                }
            }
            if let Some(c) = &mut s.churn {
                c.shard = Some((k, shards));
            }
            s
        })
        .collect();

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        for (k, replica) in replicas.iter().enumerate() {
            let tx = tx.clone();
            let opts = RunOptions { shard_base: k as u32, ..*opts };
            scope.spawn(move || {
                let _ = tx.send((k, run_with_options(replica, &opts)));
            });
        }
    });
    drop(tx);
    let mut collected: Vec<(usize, Result<ScenarioReport, String>)> = rx.iter().collect();
    collected.sort_by_key(|(k, _)| *k);
    let mut reports = Vec::with_capacity(shards);
    for (_, r) in collected {
        reports.push(r?);
    }

    // Each replica evaluated its own checks in timeline order; replay the
    // original (sorted) timeline and pull every check from its owner so
    // the merged list reads exactly like a sequential run's.
    let mut queues: Vec<std::collections::VecDeque<(String, bool)>> =
        reports.iter_mut().map(|r| std::mem::take(&mut r.checks).into()).collect();
    let mut events: Vec<&Event> = scenario.events.iter().collect();
    events.sort_by_key(|e| e.at_secs);
    let mut checks = Vec::new();
    for ev in events {
        if let Some(x) = &ev.expect_route {
            if let Some(c) = queues[owner(&x.prefix)].pop_front() {
                checks.push(c);
            }
        }
    }
    // Churn-oracle checks are not tied to timeline events: every replica
    // self-checks its own RIBs, and the merged report ANDs the verdicts
    // per description (the invariant is per-RIB, so all must hold).
    let mut oracle_checks: Vec<(String, bool)> = Vec::new();
    for q in &mut queues {
        while let Some((desc, ok)) = q.pop_front() {
            match oracle_checks.iter_mut().find(|(d, _)| *d == desc) {
                Some(e) => e.1 &= ok,
                None => oracle_checks.push((desc, ok)),
            }
        }
    }
    checks.extend(oracle_checks);

    let mut tables = std::mem::take(&mut reports[0].tables);
    for r in &reports[1..] {
        for (acc, (name, n)) in tables.iter_mut().zip(&r.tables) {
            debug_assert_eq!(&acc.0, name);
            acc.1 += n;
        }
    }
    let mut metrics = xbgp_obs::Snapshot::default();
    let mut dumps = Vec::new();
    for r in reports {
        metrics.merge(r.metrics).expect("replicas share the bucket layout");
        dumps.extend(r.trace);
    }
    let trace = (opts.trace_sample > 0).then(|| TraceDump::merge(dumps));
    Ok(ScenarioReport { name: scenario.name.clone(), checks, tables, metrics, trace })
}

/// Parse a scenario document from JSON.
pub fn parse(json: &str) -> Result<Scenario, String> {
    let doc = Value::parse(json)?;
    Scenario::from_value(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING1: &str = r#"{
        "name": "listing1-demo",
        "routers": [
            { "name": "london", "implementation": "fir", "asn": 65000,
              "router_id": "10.0.0.1", "originate": ["203.0.113.0/24"] },
            { "name": "berlin", "implementation": "fir", "asn": 65000,
              "router_id": "10.0.0.3",
              "extensions": { "preset": "igp_filter" } },
            { "name": "peer", "implementation": "wren", "asn": 65009,
              "router_id": "10.0.0.9" }
        ],
        "links": [
            { "a": "london", "b": "berlin" },
            { "a": "berlin", "b": "peer" }
        ],
        "igp": {
            "members": ["london", "berlin", "amsterdam-stub", "newyork-stub"],
            "links": [
                { "a": "london", "b": "berlin", "metric": 10 }
            ]
        },
        "events": [
            { "at_secs": 5,
              "expect_route": { "router": "peer", "prefix": "203.0.113.0/24", "present": true } },
            { "at_secs": 10, "fail_igp_link": { "a": "london", "b": "berlin" } },
            { "at_secs": 11, "flap_link": { "a": "london", "b": "berlin" } },
            { "at_secs": 60,
              "expect_route": { "router": "peer", "prefix": "203.0.113.0/24", "present": false } }
        ]
    }"#;

    #[test]
    fn listing1_scenario_runs_and_passes() {
        // The igp members list includes stub names that are not BGP
        // routers — resolve only real ones.
        let mut scenario = parse(LISTING1).expect("parses");
        scenario.igp.as_mut().unwrap().members.retain(|m| !m.ends_with("-stub"));
        let report = run(&scenario).expect("runs");
        assert_eq!(report.checks.len(), 2);
        assert!(report.all_passed(), "{:?}", report.checks);
        // After the IGP failure London is unreachable, so berlin's and
        // peer's tables shrink.
        let peer_table = report.tables.iter().find(|(n, _)| n == "peer").unwrap();
        assert_eq!(peer_table.1, 0);
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
    fn sharded_scenario_matches_sequential_run() {
        // Several prefixes spread across shards, with checks on each, so
        // every replica owns some of the work.
        let json = r#"{
            "name": "sharded",
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
        let scenario = parse(json).unwrap();
        let seq = run(&scenario).unwrap();
        for shards in [1, 2, 4] {
            let sharded = run_sharded(&scenario, shards).unwrap();
            assert_eq!(sharded.checks, seq.checks, "shards={shards}");
            assert_eq!(sharded.tables, seq.tables, "shards={shards}");
            assert!(sharded.all_passed());
        }
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
        let opts = RunOptions { trace_sample: 1, profile: true, ..Default::default() };
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

        // The profiler ran alongside: xbgp_prof_* series are exported.
        assert!(
            report.metrics.metrics.iter().any(|m| m.name.starts_with("xbgp_prof_")),
            "profiler series exported"
        );

        // The merged multi-router dump round-trips through JSONL.
        let names = crate::trace_point_names();
        let back = xbgp_obs::trace::TraceDump::from_jsonl(&dump.to_jsonl(&names), &names)
            .expect("round-trips");
        assert_eq!(back.events.len(), dump.events.len());
        assert_eq!(back.postmortems.len(), dump.postmortems.len());
    }

    #[test]
    fn churn_storm_fixture_passes_oracle_sequential_and_sharded() {
        // The committed fixture, scaled down for test time: the feeder
        // blasts a table at the FIR dut (which re-exports to the WREN
        // edge), replays the storm, and every router's incremental
        // Loc-RIB must match its full-recompute oracle — sequentially and
        // sharded, with fault injection live.
        let json = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/churn_storm.json"
        ))
        .expect("fixture present");
        let mut scenario = parse(&json).expect("parses");
        let churn = scenario.churn.as_mut().unwrap();
        churn.routes = 500;
        churn.rounds = 6;
        for shards in [1, 2] {
            let report = run_sharded(&scenario, shards).expect("runs");
            assert!(report.all_passed(), "shards={shards}: {:?}", report.checks);
            let oracle_checks =
                report.checks.iter().filter(|(d, _)| d.starts_with("churn oracle")).count();
            assert_eq!(oracle_checks, 2, "one oracle verdict per router");
            // The churn counters made it into the merged metrics.
            assert!(report.metrics.counter_sum("xbgp_rib_best_changes_total") > 0);
            assert!(report.metrics.counter_sum("xbgp_rib_withdrawals_total") > 0);
            // The feed router ends holding its peer's prefix + the table.
            let dut = report.tables.iter().find(|(n, _)| n == "dut").unwrap();
            assert_eq!(dut.1, 501, "restore round converged, shards={shards}");
        }
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
        let ok = parse(&base.replace("CHURN", "\"withdraw_per_mille\": 200")).unwrap();
        assert_eq!(ok.churn.as_ref().unwrap().withdraw_per_mille, 200);
        assert_eq!(ok.churn.as_ref().unwrap().reannounce_per_mille, 500, "default");
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
