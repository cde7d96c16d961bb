//! Route-scoped tracing: flight recorder, deterministic sampling, trace
//! exporters, and fault postmortems.
//!
//! The paper's operator story (§2.1) is that libxbgp *monitors* extension
//! execution and stops misbehaving bytecode. Counting faults (the metrics
//! layer) says how often that happened; this module says *which route,
//! which insertion point, which helper call*. The design invariants:
//!
//! * **Fixed-size events.** A [`TraceEvent`] is a `Copy` struct of scalar
//!   fields; variable-length data (extension names) is interned into a
//!   per-recorder table and referenced by `u16` id, so recording an event
//!   is a handful of stores and never allocates.
//! * **Lock-free by ownership.** Each shard/daemon thread owns its
//!   [`Tracer`] outright and pushes through `&mut self` — a ring-buffer
//!   write with no atomics, no locks, and no sharing. Cross-thread
//!   aggregation happens only at the end of a run, when each thread's
//!   [`TraceDump`] (a plain `Send` value) crosses the existing result
//!   channel and [`TraceDump::merge`] interleaves the timelines.
//! * **Deterministic sampling.** Route sampling is 1-in-N by a per-shard
//!   route counter (`route_seq % N == 0`), not by hashing or randomness:
//!   the same workload traces the same routes on every run, and the
//!   decision is independent of the shard's trace-id base so sharded and
//!   sequential runs sample equivalently.
//! * **Monotonic trace ids.** A trace id is allocated at UPDATE ingest:
//!   `((shard + 1) << TRACE_SHARD_SHIFT) | ingest_seq`. Ids are strictly
//!   increasing within a shard and globally unique across shards, so they
//!   survive the shard mpsc boundary and a merged timeline can still
//!   attribute every event. (Shard indices below 2^13 keep ids under
//!   2^53, exact in the JSON exporters' f64 numbers.)
//! * **Timestamps are virtual.** `ts_ns` is simulator time, pushed in via
//!   [`Tracer::set_now`] at ingest — deterministic across runs and
//!   comparable across shards; the per-recorder `seq` breaks ties.
//!
//! Exporters emit JSONL (one object per line, `"type":"event"` /
//! `"type":"postmortem"`) and the Chrome/Perfetto `trace_event` format
//! (point enter/exit become `B`/`E` duration pairs; everything else an
//! instant event).

use crate::json::Value;

/// Default flight-recorder capacity (events per recorder).
pub const DEFAULT_RING_CAPACITY: usize = 4096;
/// How many trailing events a fault postmortem snapshots.
pub const POSTMORTEM_EVENTS: usize = 32;
/// How many postmortems a recorder retains (oldest dropped first).
pub const MAX_POSTMORTEMS: usize = 64;
/// Bit position of the shard namespace inside a trace id.
pub const TRACE_SHARD_SHIFT: u32 = 40;
/// `point` value for events not tied to an insertion point.
pub const NO_POINT: u8 = u8::MAX;
/// `ext` value for events not tied to an extension.
pub const NO_EXT: u16 = u16::MAX;

/// What a [`TraceEvent`] describes. The `a`/`b` payload fields are
/// kind-specific; the table below is the contract the exporters print.
///
/// | kind          | `a`                         | `b`                      |
/// |---------------|-----------------------------|--------------------------|
/// | `Ingest`      | peer router id              | NLRI count               |
/// | `Decode`      | packed prefix               | 0                        |
/// | `PointEnter`  | chain length                | 0                        |
/// | `PointExit`   | outcome (0 val/1 fb/2 abrt) | 0                        |
/// | `HelperCall`  | helper id                   | latency ns (with metrics on) |
/// | `TxnStage`    | op (1 set/2 add/3 rm/4 buf/5 rib) | attr code / 0      |
/// | `TxnCommit`   | staged op count             | 0                        |
/// | `TxnRollback` | staged op count             | 0                        |
/// | `Decision`    | packed prefix               | 1 if best changed        |
/// | `Propagate`   | packed prefix               | peer router id           |
/// | `Fault`       | faulting pc (`u64::MAX` unknown) | error code          |
/// | `Quarantine`  | consecutive faults          | 0                        |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    Ingest = 0,
    Decode = 1,
    PointEnter = 2,
    PointExit = 3,
    HelperCall = 4,
    TxnStage = 5,
    TxnCommit = 6,
    TxnRollback = 7,
    Decision = 8,
    Propagate = 9,
    Fault = 10,
    Quarantine = 11,
}

impl TraceKind {
    /// Every kind, in discriminant order.
    pub const ALL: [TraceKind; 12] = [
        TraceKind::Ingest,
        TraceKind::Decode,
        TraceKind::PointEnter,
        TraceKind::PointExit,
        TraceKind::HelperCall,
        TraceKind::TxnStage,
        TraceKind::TxnCommit,
        TraceKind::TxnRollback,
        TraceKind::Decision,
        TraceKind::Propagate,
        TraceKind::Fault,
        TraceKind::Quarantine,
    ];

    /// Exporter spelling of this kind.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Ingest => "ingest",
            TraceKind::Decode => "decode",
            TraceKind::PointEnter => "point_enter",
            TraceKind::PointExit => "point_exit",
            TraceKind::HelperCall => "helper_call",
            TraceKind::TxnStage => "txn_stage",
            TraceKind::TxnCommit => "txn_commit",
            TraceKind::TxnRollback => "txn_rollback",
            TraceKind::Decision => "decision",
            TraceKind::Propagate => "propagate",
            TraceKind::Fault => "fault",
            TraceKind::Quarantine => "quarantine",
        }
    }

    /// Inverse of [`TraceKind::name`], for the JSONL parser.
    pub fn from_name(name: &str) -> Option<TraceKind> {
        TraceKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One fixed-size flight-recorder entry. `Copy`, no heap data: the ring
/// buffer is a flat `Vec<TraceEvent>` and recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Route-scope id allocated at UPDATE ingest; 0 = no scope.
    pub trace_id: u64,
    /// Per-recorder monotonic sequence number (total-pushed order).
    pub seq: u64,
    /// Virtual (simulator) time of the event.
    pub ts_ns: u64,
    pub kind: TraceKind,
    /// Insertion-point index (`InsertionPoint::ALL` order) or [`NO_POINT`].
    pub point: u8,
    /// Interned extension-name id or [`NO_EXT`].
    pub ext: u16,
    /// Kind-specific payload (see [`TraceKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`TraceKind`]).
    pub b: u64,
}

impl TraceEvent {
    /// Shard namespace this event's trace id was allocated in (0 when the
    /// event has no scope).
    pub fn shard(&self) -> u32 {
        (self.trace_id >> TRACE_SHARD_SHIFT).saturating_sub(1) as u32
    }
}

/// Pack a prefix into an event payload: `addr << 8 | len`.
///
/// IPv4-only: the address is a host-order `u32`, mirroring the wire
/// crate's `Ipv4Prefix`. An IPv6 route scope would need a second payload
/// word (or an address-table indirection) — today's daemons never trace
/// one, so the encoding stays a single `u64`.
pub fn pack_prefix(addr: u32, len: u8) -> u64 {
    (u64::from(addr) << 8) | u64::from(len)
}

/// Inverse of [`pack_prefix`].
pub fn unpack_prefix(packed: u64) -> (u32, u8) {
    ((packed >> 8) as u32, packed as u8)
}

/// Tracer configuration. `Copy` so harness spec structs that embed it can
/// stay `Copy` across shard-thread spawns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Trace 1 route in `sample_every`; 0 disables tracing entirely.
    pub sample_every: u64,
    /// Flight-recorder ring capacity (0 = [`DEFAULT_RING_CAPACITY`]).
    pub capacity: usize,
    /// Shard namespace for trace ids (and timeline-merge ordering).
    pub shard: u32,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { sample_every: 1, capacity: DEFAULT_RING_CAPACITY, shard: 0 }
    }
}

/// A fault postmortem: the structured record the VMM exports when an
/// extension traps, exhausts its fuel budget, or is quarantined. Carries
/// the trailing flight-recorder events for the offending extension (and
/// the route scope it faulted in), so the record explains *what led up to*
/// the fault, not just that one happened.
#[derive(Debug, Clone, PartialEq)]
pub struct Postmortem {
    /// Name of the offending extension.
    pub extension: String,
    /// Insertion point the fault happened at (`InsertionPoint::ALL` index).
    pub point: u8,
    /// Route scope active when the fault happened (0 = none).
    pub trace_id: u64,
    /// Virtual time of the fault.
    pub ts_ns: u64,
    /// Human-readable fault description (the `VmError` display form).
    pub error: String,
    /// Faulting program counter, when the fault carries one.
    pub pc: Option<u64>,
    /// True when this fault tripped the quarantine circuit breaker.
    pub quarantined: bool,
    /// Up to [`POSTMORTEM_EVENTS`] trailing events involving the
    /// extension or its route scope, oldest first.
    pub events: Vec<TraceEvent>,
}

/// Per-thread flight recorder: a fixed-capacity ring of [`TraceEvent`]s
/// plus the sampling and id-allocation state. Owned by exactly one thread
/// (`&mut self` everywhere) — see the module docs for why that makes it
/// lock-free.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    ring: Vec<TraceEvent>,
    /// Next write position in `ring` once it is full.
    head: usize,
    /// Total events ever pushed (monotonic `seq` source).
    pushed: u64,
    ext_names: Vec<String>,
    now_ns: u64,
    /// UPDATEs ingested (trace-id allocation).
    ingest_seq: u64,
    /// Routes seen (sampling decisions).
    route_seq: u64,
    current_trace: u64,
    route_active: bool,
    postmortems: Vec<Postmortem>,
}

impl Tracer {
    pub fn new(cfg: TraceConfig) -> Tracer {
        let capacity = if cfg.capacity == 0 {
            DEFAULT_RING_CAPACITY
        } else {
            cfg.capacity
        };
        Tracer {
            cfg: TraceConfig { capacity, ..cfg },
            ring: Vec::with_capacity(capacity),
            head: 0,
            pushed: 0,
            ext_names: Vec::new(),
            now_ns: 0,
            ingest_seq: 0,
            route_seq: 0,
            current_trace: 0,
            route_active: false,
            postmortems: Vec::new(),
        }
    }

    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Advance the virtual clock (called by the daemon with `ctx.now()`).
    pub fn set_now(&mut self, ns: u64) {
        self.now_ns = ns;
    }

    pub fn now(&self) -> u64 {
        self.now_ns
    }

    /// Intern an extension name, returning its stable event id.
    pub fn intern(&mut self, name: &str) -> u16 {
        if let Some(i) = self.ext_names.iter().position(|n| n == name) {
            return i as u16;
        }
        assert!(self.ext_names.len() < usize::from(NO_EXT), "extension name table full");
        self.ext_names.push(name.to_string());
        (self.ext_names.len() - 1) as u16
    }

    pub fn ext_name(&self, id: u16) -> Option<&str> {
        self.ext_names.get(usize::from(id)).map(String::as_str)
    }

    fn push(&mut self, kind: TraceKind, point: u8, ext: u16, a: u64, b: u64) {
        let ev = TraceEvent {
            trace_id: self.current_trace,
            seq: self.pushed,
            ts_ns: self.now_ns,
            kind,
            point,
            ext,
            a,
            b,
        };
        if self.ring.len() < self.cfg.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.cfg.capacity;
        }
        self.pushed += 1;
    }

    /// Start a new UPDATE scope: allocate the monotonic trace id and
    /// record the ingest event. Returns the id (also retrievable via
    /// [`Tracer::current_trace`]).
    pub fn on_ingest(&mut self, peer: u64, nlri: u64) -> u64 {
        self.ingest_seq += 1;
        self.current_trace =
            ((u64::from(self.cfg.shard) + 1) << TRACE_SHARD_SHIFT) | self.ingest_seq;
        self.route_active = false;
        self.push(TraceKind::Ingest, NO_POINT, NO_EXT, peer, nlri);
        self.current_trace
    }

    /// The trace id of the UPDATE currently being processed (0 if none).
    pub fn current_trace(&self) -> u64 {
        self.current_trace
    }

    /// Start one route of the current UPDATE. Applies the deterministic
    /// 1-in-N sampling decision; when sampled, records the decode event
    /// and arms [`Tracer::route_active`] so per-route events flow until
    /// [`Tracer::end_route`].
    pub fn begin_route(&mut self, packed_prefix: u64) -> bool {
        let n = self.cfg.sample_every;
        let sampled = n > 0 && self.route_seq.is_multiple_of(n);
        self.route_seq += 1;
        self.route_active = sampled;
        if sampled {
            self.push(TraceKind::Decode, NO_POINT, NO_EXT, packed_prefix, 0);
        }
        sampled
    }

    pub fn end_route(&mut self) {
        self.route_active = false;
    }

    /// Is the current route sampled? Gates every per-route event.
    pub fn route_active(&self) -> bool {
        self.route_active
    }

    /// Record an event for the current route; dropped when the route is
    /// not sampled.
    pub fn record(&mut self, kind: TraceKind, point: u8, ext: u16, a: u64, b: u64) {
        if self.route_active {
            self.push(kind, point, ext, a, b);
        }
    }

    /// Record an event regardless of sampling (faults and quarantines:
    /// the flight recorder must never miss the crash itself).
    pub fn record_always(&mut self, kind: TraceKind, point: u8, ext: u16, a: u64, b: u64) {
        self.push(kind, point, ext, a, b);
    }

    /// The ring contents, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        if self.ring.len() < self.cfg.capacity {
            self.ring.clone()
        } else {
            let mut v = Vec::with_capacity(self.ring.len());
            v.extend_from_slice(&self.ring[self.head..]);
            v.extend_from_slice(&self.ring[..self.head]);
            v
        }
    }

    /// Total events ever recorded (≥ ring length once it wraps).
    pub fn total_recorded(&self) -> u64 {
        self.pushed
    }

    /// Build and retain a postmortem for a fault of `extension` (interned
    /// id `ext`): the last [`POSTMORTEM_EVENTS`] ring events involving
    /// that extension or the current route scope.
    #[allow(clippy::too_many_arguments)]
    pub fn postmortem(
        &mut self,
        extension: &str,
        ext: u16,
        point: u8,
        error: &str,
        pc: Option<u64>,
        quarantined: bool,
    ) {
        let scope = self.current_trace;
        let mut events: Vec<TraceEvent> = self
            .events()
            .into_iter()
            .filter(|e| e.ext == ext || (scope != 0 && e.trace_id == scope))
            .collect();
        if events.len() > POSTMORTEM_EVENTS {
            events.drain(..events.len() - POSTMORTEM_EVENTS);
        }
        self.postmortems.push(Postmortem {
            extension: extension.to_string(),
            point,
            trace_id: scope,
            ts_ns: self.now_ns,
            error: error.to_string(),
            pc,
            quarantined,
            events,
        });
        if self.postmortems.len() > MAX_POSTMORTEMS {
            let excess = self.postmortems.len() - MAX_POSTMORTEMS;
            self.postmortems.drain(..excess);
        }
    }

    pub fn postmortems(&self) -> &[Postmortem] {
        &self.postmortems
    }

    /// Extract everything recorded so far as a `Send` dump, leaving the
    /// recorder empty (name table kept, so interned ids stay stable).
    pub fn take_dump(&mut self) -> TraceDump {
        let events = self.events();
        self.ring.clear();
        self.head = 0;
        TraceDump {
            shard: self.cfg.shard,
            events,
            ext_names: self.ext_names.clone(),
            postmortems: std::mem::take(&mut self.postmortems),
        }
    }
}

/// A thread's extracted trace: plain data, `Send`, mergeable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceDump {
    pub shard: u32,
    pub events: Vec<TraceEvent>,
    /// Extension-name table the events' `ext` ids index into.
    pub ext_names: Vec<String>,
    pub postmortems: Vec<Postmortem>,
}

impl TraceDump {
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.postmortems.is_empty()
    }

    /// Merge per-shard dumps into one timeline, ordered by
    /// `(ts_ns, shard, seq)` — virtual time first (deterministic and
    /// cross-shard comparable), shard then sequence as tie-breakers.
    /// Extension ids are remapped into a shared name table.
    pub fn merge(dumps: Vec<TraceDump>) -> TraceDump {
        let mut names: Vec<String> = Vec::new();
        let mut intern = |n: &str| -> u16 {
            if let Some(i) = names.iter().position(|x| x == n) {
                return i as u16;
            }
            names.push(n.to_string());
            (names.len() - 1) as u16
        };
        let mut keyed: Vec<(u64, u32, u64, TraceEvent)> = Vec::new();
        let mut postmortems: Vec<Postmortem> = Vec::new();
        for dump in dumps {
            let remap: Vec<u16> = dump.ext_names.iter().map(|n| intern(n)).collect();
            let fix = |mut e: TraceEvent| {
                if e.ext != NO_EXT {
                    e.ext = remap.get(usize::from(e.ext)).copied().unwrap_or(NO_EXT);
                }
                e
            };
            for ev in dump.events {
                let ev = fix(ev);
                keyed.push((ev.ts_ns, dump.shard, ev.seq, ev));
            }
            for mut pm in dump.postmortems {
                pm.events = pm.events.into_iter().map(fix).collect();
                postmortems.push(pm);
            }
        }
        keyed.sort_by_key(|(ts, shard, seq, _)| (*ts, *shard, *seq));
        postmortems.sort_by_key(|pm| pm.ts_ns);
        TraceDump {
            shard: 0,
            events: keyed.into_iter().map(|(_, _, _, e)| e).collect(),
            ext_names: names,
            postmortems,
        }
    }

    fn event_json(&self, e: &TraceEvent, point_names: &[&str]) -> Value {
        let point = match usize::from(e.point) {
            p if e.point != NO_POINT && p < point_names.len() => {
                Value::Str(point_names[p].to_string())
            }
            _ if e.point == NO_POINT => Value::Null,
            p => Value::Num(p as f64),
        };
        let ext = match self.ext_names.get(usize::from(e.ext)) {
            Some(n) if e.ext != NO_EXT => Value::Str(n.clone()),
            _ => Value::Null,
        };
        Value::Obj(vec![
            ("type".into(), "event".into()),
            ("trace_id".into(), e.trace_id.into()),
            ("seq".into(), e.seq.into()),
            ("ts_ns".into(), e.ts_ns.into()),
            ("kind".into(), e.kind.name().into()),
            ("point".into(), point),
            ("ext".into(), ext),
            ("a".into(), e.a.into()),
            ("b".into(), e.b.into()),
        ])
    }

    fn postmortem_json(&self, pm: &Postmortem, point_names: &[&str]) -> Value {
        let point = match usize::from(pm.point) {
            p if pm.point != NO_POINT && p < point_names.len() => {
                Value::Str(point_names[p].to_string())
            }
            _ if pm.point == NO_POINT => Value::Null,
            p => Value::Num(p as f64),
        };
        Value::Obj(vec![
            ("type".into(), "postmortem".into()),
            ("extension".into(), pm.extension.clone().into()),
            ("point".into(), point),
            ("trace_id".into(), pm.trace_id.into()),
            ("ts_ns".into(), pm.ts_ns.into()),
            ("error".into(), pm.error.clone().into()),
            ("pc".into(), pm.pc.map_or(Value::Null, Value::from)),
            ("quarantined".into(), pm.quarantined.into()),
            (
                "events".into(),
                Value::Arr(pm.events.iter().map(|e| self.event_json(e, point_names)).collect()),
            ),
        ])
    }

    /// JSONL export: one compact JSON object per line; events first (in
    /// timeline order), then postmortems.
    pub fn to_jsonl(&self, point_names: &[&str]) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&self.event_json(e, point_names).to_string());
            out.push('\n');
        }
        for pm in &self.postmortems {
            out.push_str(&self.postmortem_json(pm, point_names).to_string());
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL export back into a dump — the round-trip proof that
    /// what we emit is machine-readable. Extension names are re-interned
    /// in order of appearance; `shard` is not serialized and comes back 0.
    pub fn from_jsonl(input: &str, point_names: &[&str]) -> Result<TraceDump, String> {
        fn intern(names: &mut Vec<String>, n: &str) -> u16 {
            if let Some(i) = names.iter().position(|x| x == n) {
                return i as u16;
            }
            names.push(n.to_string());
            (names.len() - 1) as u16
        }
        fn parse_point(point_names: &[&str], v: &Value) -> Result<u8, String> {
            match v {
                Value::Null => Ok(NO_POINT),
                Value::Str(s) => point_names
                    .iter()
                    .position(|p| p == s)
                    .map(|p| p as u8)
                    .ok_or_else(|| format!("unknown point `{s}`")),
                Value::Num(n) => Ok(*n as u8),
                _ => Err("bad point".into()),
            }
        }
        fn need(v: &Value, k: &str) -> Result<u64, String> {
            v.get(k).and_then(Value::as_u64).ok_or_else(|| format!("missing field `{k}`"))
        }
        fn parse_event(
            names: &mut Vec<String>,
            point_names: &[&str],
            v: &Value,
        ) -> Result<TraceEvent, String> {
            let kind = v
                .get("kind")
                .and_then(Value::as_str)
                .and_then(TraceKind::from_name)
                .ok_or("bad kind")?;
            let ext = match v.get("ext") {
                Some(Value::Str(n)) => intern(names, n),
                _ => NO_EXT,
            };
            Ok(TraceEvent {
                trace_id: need(v, "trace_id")?,
                seq: need(v, "seq")?,
                ts_ns: need(v, "ts_ns")?,
                kind,
                point: parse_point(point_names, v.get("point").unwrap_or(&Value::Null))?,
                ext,
                a: need(v, "a")?,
                b: need(v, "b")?,
            })
        }
        let mut dump = TraceDump::default();
        for (no, line) in input.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Value::parse(line).map_err(|e| format!("line {}: {e}", no + 1))?;
            match v.get("type").and_then(Value::as_str) {
                Some("event") => {
                    let ev = parse_event(&mut dump.ext_names, point_names, &v)?;
                    dump.events.push(ev);
                }
                Some("postmortem") => {
                    let events = v
                        .get("events")
                        .and_then(Value::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .map(|e| parse_event(&mut dump.ext_names, point_names, e))
                        .collect::<Result<Vec<_>, _>>()?;
                    dump.postmortems.push(Postmortem {
                        extension: v
                            .get("extension")
                            .and_then(Value::as_str)
                            .ok_or("missing extension")?
                            .to_string(),
                        point: parse_point(point_names, v.get("point").unwrap_or(&Value::Null))?,
                        trace_id: need(&v, "trace_id")?,
                        ts_ns: need(&v, "ts_ns")?,
                        error: v
                            .get("error")
                            .and_then(Value::as_str)
                            .ok_or("missing error")?
                            .to_string(),
                        pc: v.get("pc").and_then(Value::as_u64),
                        quarantined: v.get("quarantined").and_then(Value::as_bool).unwrap_or(false),
                        events,
                    });
                }
                other => return Err(format!("line {}: bad type {other:?}", no + 1)),
            }
        }
        Ok(dump)
    }

    /// Chrome/Perfetto `trace_event` export: `PointEnter`/`PointExit`
    /// become `B`/`E` duration pairs; everything else an instant (`i`)
    /// event. `tid` is the shard namespace + 1, so per-shard timelines
    /// render as separate tracks.
    pub fn to_chrome(&self, point_names: &[&str]) -> Value {
        let name_of = |e: &TraceEvent| -> String {
            if e.point != NO_POINT {
                if let Some(p) = point_names.get(usize::from(e.point)) {
                    return format!("{}:{}", e.kind.name(), p);
                }
            }
            e.kind.name().to_string()
        };
        let mut events: Vec<Value> = Vec::with_capacity(self.events.len());
        for e in &self.events {
            let ph = match e.kind {
                TraceKind::PointEnter => "B",
                TraceKind::PointExit => "E",
                _ => "i",
            };
            let mut obj = vec![
                ("name".into(), Value::Str(name_of(e))),
                ("cat".into(), "xbgp".into()),
                ("ph".into(), ph.into()),
                ("ts".into(), Value::Num(e.ts_ns as f64 / 1000.0)),
                ("pid".into(), Value::Num(1.0)),
                ("tid".into(), Value::Num(f64::from(e.shard()) + 1.0)),
            ];
            if ph == "i" {
                obj.push(("s".into(), "t".into()));
            }
            let mut args = vec![
                ("trace_id".into(), Value::from(e.trace_id)),
                ("seq".into(), Value::from(e.seq)),
                ("a".into(), Value::from(e.a)),
                ("b".into(), Value::from(e.b)),
            ];
            if let Some(n) = self.ext_names.get(usize::from(e.ext)) {
                if e.ext != NO_EXT {
                    args.push(("ext".into(), Value::Str(n.clone())));
                }
            }
            obj.push(("args".into(), Value::Obj(args)));
            events.push(Value::Obj(obj));
        }
        Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), "ms".into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POINTS: [&str; 5] = [
        "bgp_receive_message",
        "bgp_inbound_filter",
        "bgp_decision",
        "bgp_outbound_filter",
        "bgp_encode_message",
    ];

    fn tracer(sample: u64, capacity: usize, shard: u32) -> Tracer {
        Tracer::new(TraceConfig { sample_every: sample, capacity, shard })
    }

    #[test]
    fn trace_ids_are_monotonic_and_shard_scoped() {
        let mut t0 = tracer(1, 64, 0);
        let mut t1 = tracer(1, 64, 1);
        let a = t0.on_ingest(9, 1);
        let b = t0.on_ingest(9, 1);
        let c = t1.on_ingest(9, 1);
        assert!(b > a, "monotonic within a shard");
        assert_ne!(a, c, "distinct across shards");
        assert_eq!(TraceEvent { trace_id: c, ..t1.events()[0] }.shard(), 1);
    }

    #[test]
    fn sampling_is_deterministic_one_in_n() {
        let mut t = tracer(4, 256, 0);
        t.on_ingest(1, 12);
        let sampled: Vec<bool> = (0..12).map(|i| t.begin_route(pack_prefix(i, 24))).collect();
        let expect: Vec<bool> = (0..12).map(|i| i % 4 == 0).collect();
        assert_eq!(sampled, expect);
        // Independent of the shard id base: shard 7 samples identically.
        let mut t7 = tracer(4, 256, 7);
        t7.on_ingest(1, 12);
        let sampled7: Vec<bool> = (0..12).map(|i| t7.begin_route(pack_prefix(i, 24))).collect();
        assert_eq!(sampled7, expect);
    }

    #[test]
    fn unsampled_routes_record_nothing() {
        let mut t = tracer(2, 64, 0);
        t.on_ingest(1, 2);
        assert!(t.begin_route(pack_prefix(1, 24)));
        t.record(TraceKind::PointEnter, 1, NO_EXT, 1, 0);
        t.end_route();
        assert!(!t.begin_route(pack_prefix(2, 24)));
        t.record(TraceKind::PointEnter, 1, NO_EXT, 1, 0);
        t.end_route();
        let kinds: Vec<TraceKind> = t.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![TraceKind::Ingest, TraceKind::Decode, TraceKind::PointEnter],
            "the second (unsampled) route contributed nothing"
        );
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest_events_in_order() {
        let mut t = tracer(1, 8, 0);
        t.on_ingest(1, 100);
        t.begin_route(pack_prefix(0, 24));
        for i in 0..100u64 {
            t.record(TraceKind::HelperCall, NO_POINT, NO_EXT, i, 0);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 8, "capacity bounds the ring");
        assert_eq!(t.total_recorded(), 102);
        // The survivors are the newest 8, oldest-first, seq strictly rising.
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (94..102).collect::<Vec<u64>>());
        let args: Vec<u64> = evs.iter().map(|e| e.a).collect();
        assert_eq!(args, (92..100).collect::<Vec<u64>>());
    }

    #[test]
    fn merge_orders_across_shards_by_time_then_shard_then_seq() {
        let mut shard0 = tracer(1, 64, 0);
        let mut shard1 = tracer(1, 64, 1);
        shard0.set_now(100);
        shard0.on_ingest(1, 1);
        shard1.set_now(50);
        shard1.on_ingest(2, 1);
        shard1.set_now(100);
        shard1.on_ingest(3, 1);
        shard0.set_now(200);
        shard0.on_ingest(4, 1);
        let merged = TraceDump::merge(vec![shard0.take_dump(), shard1.take_dump()]);
        let order: Vec<(u64, u32)> = merged.events.iter().map(|e| (e.ts_ns, e.shard())).collect();
        assert_eq!(order, vec![(50, 1), (100, 0), (100, 1), (200, 0)]);
        // Ids stay globally unique after the merge.
        let mut ids: Vec<u64> = merged.events.iter().map(|e| e.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn merge_remaps_extension_ids_into_a_shared_table() {
        let mut a = tracer(1, 64, 0);
        let mut b = tracer(1, 64, 1);
        let ra = a.intern("rov");
        let fb = b.intern("filter");
        let rb = b.intern("rov");
        assert_eq!(ra, 0);
        assert_eq!((fb, rb), (0, 1));
        a.on_ingest(1, 1);
        a.begin_route(1);
        a.record(TraceKind::HelperCall, 1, ra, 21, 0);
        b.on_ingest(1, 1);
        b.begin_route(1);
        b.record(TraceKind::HelperCall, 1, rb, 21, 0);
        let merged = TraceDump::merge(vec![a.take_dump(), b.take_dump()]);
        let helper_exts: Vec<&str> = merged
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::HelperCall)
            .map(|e| merged.ext_names[usize::from(e.ext)].as_str())
            .collect();
        assert_eq!(helper_exts, vec!["rov", "rov"]);
    }

    #[test]
    fn postmortem_carries_trailing_events_for_the_extension() {
        let mut t = tracer(1, 128, 0);
        let ext = t.intern("crasher");
        let other = t.intern("bystander");
        t.on_ingest(1, 1);
        t.begin_route(pack_prefix(7, 24));
        for i in 0..40u64 {
            t.record(TraceKind::HelperCall, 1, ext, i, 0);
        }
        t.record_always(TraceKind::Fault, 1, ext, 3, 1);
        t.postmortem("crasher", ext, 1, "memory fault", Some(3), true);
        // A later fault of another extension must not inherit them.
        let pm = &t.postmortems()[0];
        assert_eq!(pm.extension, "crasher");
        assert_eq!(pm.pc, Some(3));
        assert_eq!(pm.point, 1);
        assert!(pm.quarantined);
        assert_eq!(pm.events.len(), POSTMORTEM_EVENTS);
        assert_eq!(pm.events.last().unwrap().kind, TraceKind::Fault);
        assert!(pm.events.iter().all(|e| e.ext == ext || e.trace_id == pm.trace_id));
        let _ = other;
    }

    #[test]
    fn jsonl_round_trips() {
        let mut t = tracer(1, 64, 0);
        let ext = t.intern("rov");
        t.set_now(1234);
        t.on_ingest(0x0a000001, 2);
        t.begin_route(pack_prefix(0x0a010000, 16));
        t.record(TraceKind::PointEnter, 1, NO_EXT, 1, 0);
        t.record(TraceKind::HelperCall, 1, ext, 21, 55);
        t.record(TraceKind::TxnRollback, 1, ext, 2, 0);
        t.record(TraceKind::PointExit, 1, NO_EXT, 2, 0);
        t.record_always(TraceKind::Fault, 1, ext, 9, 1);
        t.postmortem("rov", ext, 1, "helper 21 failed", Some(9), false);
        let dump = t.take_dump();
        let jsonl = dump.to_jsonl(&POINTS);
        let parsed = TraceDump::from_jsonl(&jsonl, &POINTS).unwrap();
        assert_eq!(parsed.events, dump.events);
        assert_eq!(parsed.postmortems, dump.postmortems);
        assert_eq!(parsed.to_jsonl(&POINTS), jsonl);
    }

    #[test]
    fn chrome_export_is_valid_json_with_balanced_spans() {
        let mut t = tracer(1, 64, 3);
        t.set_now(1000);
        t.on_ingest(1, 1);
        t.begin_route(pack_prefix(1, 24));
        t.record(TraceKind::PointEnter, 1, NO_EXT, 1, 0);
        t.record(TraceKind::PointExit, 1, NO_EXT, 0, 0);
        let dump = t.take_dump();
        let doc = dump.to_chrome(&POINTS);
        let parsed = Value::parse(&doc.to_string()).unwrap();
        let events = parsed.get("traceEvents").and_then(Value::as_array).unwrap();
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .count()
        };
        assert_eq!(phase("B"), 1);
        assert_eq!(phase("E"), 1);
        assert_eq!(phase("i"), 2, "ingest + decode");
        // Shard 3 renders on tid 4.
        assert!(events.iter().all(|e| e.get("tid").and_then(Value::as_u64) == Some(4)));
    }

    #[test]
    fn take_dump_resets_ring_but_keeps_name_table() {
        let mut t = tracer(1, 64, 0);
        let id = t.intern("rov");
        t.on_ingest(1, 1);
        let d1 = t.take_dump();
        assert_eq!(d1.events.len(), 1);
        assert_eq!(t.intern("rov"), id, "ids stable across dumps");
        assert!(t.events().is_empty());
    }

    #[test]
    fn prefix_packing_round_trips() {
        let (addr, len) = unpack_prefix(pack_prefix(0xc0a80000, 16));
        assert_eq!((addr, len), (0xc0a80000, 16));
    }
}
