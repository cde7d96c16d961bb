//! WREN configuration (BIRD's protocol + channel model).

use igp::SharedIgp;
use netsim::LinkId;
use rpki::Roa;
use xbgp_core::Manifest;
use xbgp_obs::trace::TraceConfig;
use xbgp_wire::Ipv4Prefix;

/// One BGP channel: a neighbor and its per-channel policy.
#[derive(Debug, Clone)]
pub struct ChannelCfg {
    pub link: LinkId,
    /// Neighbor address / expected BGP identifier.
    pub neighbor: u32,
    pub neighbor_as: u32,
    /// iBGP route-reflection client.
    pub rr_client: bool,
}

/// Full configuration of one WREN daemon instance.
pub struct WrenConfig {
    pub local_as: u32,
    pub router_id: u32,
    pub hold_time_secs: u16,
    pub channels: Vec<ChannelCfg>,
    /// Native RFC 4456 route reflection.
    pub rr_enabled: bool,
    pub rr_cluster_id: Option<u32>,
    /// ROAs for WREN's native hash-table origin validation (tagging only).
    pub roa_table: Option<Vec<Roa>>,
    /// xBGP manifest.
    pub xbgp: Option<Manifest>,
    /// ROAs backing the xBGP `rpki_check_origin` helper.
    pub xbgp_roas: Option<Vec<Roa>>,
    pub igp: Option<SharedIgp>,
    /// Locally originated routes: `(prefix, nexthop)`.
    pub originate: Vec<(Ipv4Prefix, u32)>,
    pub default_local_pref: u32,
    /// `get_xtra` configuration data.
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
    /// Disable delta recomputation: after every UPDATE batch, resort and
    /// re-propagate *every* net instead of only those the batch touched.
    /// Byte-identical outcomes to the incremental default — this exists
    /// as the ablation baseline for the churn benchmarks.
    pub full_recompute: bool,
}

impl WrenConfig {
    pub fn new(local_as: u32, router_id: u32) -> WrenConfig {
        WrenConfig {
            local_as,
            router_id,
            hold_time_secs: 90,
            channels: Vec::new(),
            rr_enabled: false,
            rr_cluster_id: None,
            roa_table: None,
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

    /// Add a neighbor channel (the unified [`xbgp_driver::DaemonSpec`]
    /// builder vocabulary; fir spells this identically).
    pub fn neighbor(mut self, link: LinkId, neighbor: u32, neighbor_as: u32) -> Self {
        self.channels.push(ChannelCfg { link, neighbor, neighbor_as, rr_client: false });
        self
    }

    /// Add a route-reflection client channel (iBGP).
    pub fn rr_client(mut self, link: LinkId, neighbor: u32, neighbor_as: u32) -> Self {
        self.channels.push(ChannelCfg { link, neighbor, neighbor_as, rr_client: true });
        self
    }

    /// Build a WREN configuration from the unified driver-seam spec (see
    /// [`xbgp_driver::DaemonSpec`]): one neighbor vocabulary, wren field
    /// names (`local_as`, `rr_enabled`, `roa_table`, …) resolved here and
    /// nowhere else.
    pub fn from_spec(spec: xbgp_driver::DaemonSpec) -> WrenConfig {
        let mut cfg = WrenConfig::new(spec.asn, spec.router_id);
        cfg.hold_time_secs = spec.hold_time_secs;
        for n in &spec.neighbors {
            cfg = if n.rr_client {
                cfg.rr_client(n.link, n.addr, n.asn)
            } else {
                cfg.neighbor(n.link, n.addr, n.asn)
            };
        }
        cfg.rr_enabled = spec.native_rr;
        cfg.rr_cluster_id = spec.cluster_id;
        cfg.roa_table = spec.native_rov;
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
