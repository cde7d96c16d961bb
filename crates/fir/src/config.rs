//! Daemon configuration.

use igp::SharedIgp;
use netsim::LinkId;
use rpki::Roa;
use xbgp_core::Manifest;
use xbgp_obs::trace::TraceConfig;
use xbgp_wire::Ipv4Prefix;

/// One configured BGP neighbor, reached over a netsim link.
#[derive(Debug, Clone)]
pub struct PeerCfg {
    /// The simulator link this neighbor is reached over.
    pub link: LinkId,
    /// The neighbor's address (doubles as its expected BGP identifier).
    pub peer_addr: u32,
    /// The neighbor's AS number; equal to ours ⇒ iBGP session.
    pub peer_asn: u32,
    /// Treat this iBGP neighbor as a route-reflection client.
    pub rr_client: bool,
}

/// Full configuration of one FIR daemon instance.
pub struct FirConfig {
    pub asn: u32,
    /// BGP identifier; also this router's address in the simulation.
    pub router_id: u32,
    /// Hold time proposed in OPEN (seconds). Keepalives at a third of the
    /// negotiated value.
    pub hold_time_secs: u16,
    pub peers: Vec<PeerCfg>,
    /// Enable native RFC 4456 route reflection (ORIGINATOR_ID and
    /// CLUSTER_LIST handling). Disabled when the paper's §3.2 extension
    /// provides reflection instead.
    pub native_rr: bool,
    /// Cluster id for reflection; defaults to the router id.
    pub cluster_id: Option<u32>,
    /// Load these ROAs into FIR's native trie-based origin validation.
    /// Validation tags routes; it does not discard them (§3.4).
    pub native_rov: Option<Vec<Roa>>,
    /// xBGP manifest to load into the VMM.
    pub xbgp: Option<Manifest>,
    /// ROAs backing the xBGP `rpki_check_origin` helper (the extension's
    /// own hash table, per §3.4 — distinct from the native trie).
    pub xbgp_roas: Option<Vec<Roa>>,
    /// Link-state IGP this router participates in (nexthop metrics).
    pub igp: Option<SharedIgp>,
    /// Routes to originate locally at startup: `(prefix, nexthop)`.
    pub originate: Vec<(Ipv4Prefix, u32)>,
    /// LOCAL_PREF assigned to routes learned over eBGP (default 100).
    pub default_local_pref: u32,
    /// Static key → value data exposed to extensions via `get_xtra`
    /// (router coordinates, cluster tables, …) in addition to manifest
    /// data.
    pub xtra: Vec<(String, Vec<u8>)>,
    /// Enable timing instrumentation: hook-site and VMM latency
    /// histograms fill in (two clock reads per hook). Counters are
    /// collected regardless.
    pub metrics: bool,
    /// Route-scoped tracing: attach a flight recorder with this sampling
    /// and shard configuration. `None` (the default) records nothing and
    /// keeps the hot path trace-free.
    pub trace: Option<TraceConfig>,
    /// Enable the VM execution profiler (`xbgp_prof_*` metric series).
    pub profile: bool,
    /// Disable delta recomputation: mark *every* net dirty at the end of
    /// each UPDATE batch, re-deciding the full table. Byte-identical
    /// outcomes to the incremental default — this exists as the ablation
    /// baseline for the churn benchmarks.
    pub full_recompute: bool,
}

impl FirConfig {
    /// A minimal configuration with mandatory fields; everything else off.
    pub fn new(asn: u32, router_id: u32) -> FirConfig {
        FirConfig {
            asn,
            router_id,
            hold_time_secs: 90,
            peers: Vec::new(),
            native_rr: false,
            cluster_id: None,
            native_rov: None,
            xbgp: None,
            xbgp_roas: None,
            igp: None,
            originate: Vec::new(),
            default_local_pref: 100,
            xtra: Vec::new(),
            metrics: false,
            trace: None,
            profile: false,
            full_recompute: false,
        }
    }

    /// Turn on timing instrumentation (see the `metrics` field).
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Attach a route-scoped flight recorder (see the `trace` field).
    pub fn with_trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Turn on the VM execution profiler (see the `profile` field).
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Run the full-recompute decision baseline (see the
    /// `full_recompute` field).
    pub fn with_full_recompute(mut self) -> Self {
        self.full_recompute = true;
        self
    }

    /// Add a neighbor (the unified [`xbgp_driver::DaemonSpec`] builder
    /// vocabulary; wren spells this identically).
    pub fn neighbor(mut self, link: LinkId, peer_addr: u32, peer_asn: u32) -> Self {
        xbgp_obs::debug!("fir {}: neighbor {peer_addr} (AS{peer_asn})", self.router_id);
        self.peers.push(PeerCfg { link, peer_addr, peer_asn, rr_client: false });
        self
    }

    /// Add a route-reflection client neighbor (iBGP).
    pub fn rr_client(mut self, link: LinkId, peer_addr: u32, peer_asn: u32) -> Self {
        xbgp_obs::debug!("fir {}: rr-client {peer_addr} (AS{peer_asn})", self.router_id);
        self.peers.push(PeerCfg { link, peer_addr, peer_asn, rr_client: true });
        self
    }

    /// Build a FIR configuration from the unified driver-seam spec (see
    /// [`xbgp_driver::DaemonSpec`]): one neighbor vocabulary, fir field
    /// names resolved here and nowhere else.
    pub fn from_spec(spec: xbgp_driver::DaemonSpec) -> FirConfig {
        let mut cfg = FirConfig::new(spec.asn, spec.router_id);
        cfg.hold_time_secs = spec.hold_time_secs;
        for n in &spec.neighbors {
            cfg = if n.rr_client {
                cfg.rr_client(n.link, n.addr, n.asn)
            } else {
                cfg.neighbor(n.link, n.addr, n.asn)
            };
        }
        cfg.native_rr = spec.native_rr;
        cfg.cluster_id = spec.cluster_id;
        cfg.native_rov = spec.native_rov;
        cfg.xbgp = spec.xbgp;
        cfg.xbgp_roas = spec.xbgp_roas;
        cfg.igp = spec.igp;
        cfg.originate = spec.originate;
        cfg.default_local_pref = spec.default_local_pref;
        cfg.xtra = spec.xtra;
        cfg.metrics = spec.metrics;
        cfg.trace = spec.trace;
        cfg.profile = spec.profile;
        cfg.full_recompute = spec.full_recompute;
        cfg
    }
}
