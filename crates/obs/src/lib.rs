//! # xbgp-obs — cross-stack observability for the xBGP reproduction
//!
//! The paper's safety story is that libxbgp *monitors* extension execution
//! (§2.1: terminate-on-fault, fall back to native). Monitoring needs
//! first-class telemetry, so this crate provides the substrate every layer
//! reports through:
//!
//! * **Histograms** ([`Histogram`]): lock-free log2 buckets — one
//!   `fetch_add` per observation, constant memory, good-enough latency
//!   quantiles.
//! * **Snapshots** ([`Snapshot`]): a point-in-time copy of every metric.
//!   Each component keeps plain integer counters and histograms of its
//!   own and pushes them with [`Snapshot::push_counter`] /
//!   [`Snapshot::push_gauge`] / [`Snapshot::push_histogram`] on demand,
//!   so the hot path pays an increment, never a lookup; shard snapshots
//!   combine with [`Snapshot::merge`].
//! * **Exporters** ([`export::to_prometheus`], [`export::to_json`]): the
//!   Prometheus text exposition format (with a line parser for round-trip
//!   tests) and a JSON document.
//! * **Logging facade** ([`logging`], [`error!`], [`warn!`], [`info!`],
//!   [`debug!`], [`trace!`]): level-filtered, host-pluggable sink replacing
//!   the ad-hoc `eprintln!` calls that used to be scattered across crates.
//! * **JSON codec** ([`json`]): a dependency-free parser/writer also used
//!   by manifests and scenario files (the build environment has no
//!   registry access, so serde is not available; see `shims/README.md`).
//! * **Tracing** ([`trace`]): route-scoped flight recorder — per-thread
//!   ring buffers of fixed-size [`trace::TraceEvent`]s, deterministic
//!   1-in-N route sampling, JSONL/Chrome exporters, and fault
//!   [`trace::Postmortem`] records.

pub mod export;
pub mod json;
pub mod logging;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use metrics::{Histogram, HistogramSnapshot, MergeError, HISTOGRAM_BUCKETS};
pub use registry::{Metric, MetricValue, Snapshot};
pub use trace::{Postmortem, TraceConfig, TraceDump, TraceEvent, TraceKind, Tracer};
