//! The Virtual Machine Manager (§2.1).
//!
//! The VMM is the multiplexer between a host BGP implementation and the
//! extension bytecodes attached to its insertion points:
//!
//! * at load time it decodes each bytecode, resolves the helper names the
//!   manifest declares, and **verifies** the program against exactly that
//!   helper set (a call to an undeclared helper is rejected statically);
//! * at run time, [`Vmm::run`] executes the ordered chain of extensions for
//!   an insertion point. An extension either produces a result (returned to
//!   the host), calls `next()` (the VMM runs the following extension, or —
//!   after the last one — reports [`VmmOutcome::Fallback`] so the host uses
//!   its native code), or **faults**, in which case the VMM stops it,
//!   records the error, notifies the host through its logger, and falls
//!   back to native behaviour;
//! * it owns the extension memory spaces: a fresh ephemeral heap per
//!   invocation (`ctx_malloc`, freed automatically on return) and one
//!   persistent space per *program group* shared by the bytecodes of the
//!   same xBGP program (`ctx_shared_malloc` / `ctx_shared_get`, and
//!   mapped only into runs of a bytecode granted one of them) but
//!   unreachable from any other program — eBPF-VM-enforced isolation;
//! * execution is **transactional** (DESIGN.md §4d): host mutations
//!   (`set_attr` / `add_attr` / `remove_attr` / `write_buf` /
//!   `rib_add_route`) are staged in a per-chain [`Txn`] buffer — with
//!   read-your-writes visibility across the chain — and committed to the
//!   [`HostApi`] only when the chain ends cleanly. A trap, fuel
//!   exhaustion or helper fault discards the buffer, leaving the host
//!   byte-identical to a run with no extensions at all;
//! * a per-extension circuit breaker quarantines any extension that
//!   faults [`QUARANTINE_THRESHOLD`] times in a row: it is dropped from
//!   its insertion point's cached chain (a success resets the streak)
//!   and the eviction is counted in the metrics snapshot.

use crate::api::{self, helper, InsertionPoint};
use crate::host::{HostApi, HostError, HostOp};
use crate::manifest::Manifest;
use crate::policy::OnFault;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xbgp_obs::trace::{TraceConfig, TraceDump, TraceKind, Tracer, NO_EXT};
use xbgp_obs::{Histogram, Snapshot};
use xbgp_vm::{
    interp::HelperOutcome, verify_and_load_with, ExecOutcome, HelperDispatcher, LoadedProgram,
    MemoryMap, Region, RegionKind, VerifyError, VmConfig, VmError, HEAP_BASE, SHARED_BASE,
};
use xbgp_wire::Ipv4Prefix;

/// Process-wide count of verify+pre-decode passes ([`verify_and_load_with`]
/// calls). Loading a program is the expensive, once-per-VMM step; tests
/// use this counter to prove a run verifies every program exactly once,
/// never once per batch of routes.
static VERIFY_LOADS: AtomicU64 = AtomicU64::new(0);

/// Total verify+pre-decode passes performed by this process so far.
pub fn verify_load_count() -> u64 {
    VERIFY_LOADS.load(Ordering::Relaxed)
}

/// Size of the per-invocation ephemeral heap.
pub const HEAP_SIZE: usize = 16 * 1024;
/// Size of each program group's persistent shared space.
pub const SHARED_SIZE: usize = 64 * 1024;
/// Consecutive faults after which an extension is quarantined: removed
/// from its insertion point's chain until the VMM is reloaded. A single
/// clean run (value or `next()`) resets the streak.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// Load-time errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmmError {
    /// Bytecode could not be decoded.
    BadBytecode { extension: String, reason: String },
    /// A declared helper name is unknown.
    UnknownHelperName { extension: String, name: String },
    /// The verifier rejected the program.
    Rejected {
        extension: String,
        error: VerifyError,
    },
}

impl fmt::Display for VmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmmError::BadBytecode { extension, reason } => {
                write!(f, "extension `{extension}`: bad bytecode: {reason}")
            }
            VmmError::UnknownHelperName { extension, name } => {
                write!(f, "extension `{extension}`: unknown helper `{name}`")
            }
            VmmError::Rejected { extension, error } => {
                write!(f, "extension `{extension}`: rejected by verifier: {error}")
            }
        }
    }
}

impl std::error::Error for VmmError {}

/// Result of running an insertion point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmmOutcome {
    /// An extension produced this value; the host must use it instead of
    /// its native behaviour.
    Value(u64),
    /// No extension handled the operation (none attached, all delegated
    /// with `next()`, or a faulting extension's policy was
    /// `on_fault: fallback`): run the native code.
    Fallback,
    /// An extension with `on_fault: abort` faulted. Staged mutations were
    /// rolled back, exactly as for `Fallback`, but the host must *fail
    /// closed*: filter points treat the route as rejected instead of
    /// widening policy by falling through to native acceptance.
    Aborted,
}

struct Extension {
    name: String,
    /// Index into `Vmm::shared` of this extension's program group.
    shared_idx: usize,
    /// The verified program, pre-decoded once at load time
    /// ([`verify_and_load_with`]); invocations execute it directly with no
    /// per-run decoding or jump-target resolution.
    prog: LoadedProgram,
    /// Manifest-declared fuel budget; `None` uses the VMM's default.
    fuel_override: Option<u64>,
    /// What a fault at this extension means for the host.
    on_fault: OnFault,
    /// Bytes of the destination's `PeerInfo` a run can depend on
    /// ([`crate::contracts::peer_reads`]); every byte when its runs
    /// cannot be shared between peers.
    peer_mask: u32,
    /// Granted neither `get_prefix` nor a side-effecting helper
    /// ([`crate::contracts::prefix_free`]).
    prefix_free: bool,
    /// Granted `ctx_shared_get` or `ctx_shared_malloc`. Only then is the
    /// program group's persistent space mapped into a run, so a program
    /// without the grant keeps no state between runs there, whatever
    /// address it forges.
    shared_access: bool,
    /// Circuit-breaker state: faults since the last clean run.
    consecutive_faults: u32,
    /// Tripped breaker: the extension was evicted from its chain.
    quarantined: bool,
    runs: u64,
    errors: u64,
    /// Runs that ended in `next()` (delegated to the rest of the chain).
    fallbacks: u64,
    helper_calls: u64,
    insns_retired: u64,
    /// Per-run wall-clock latency in nanoseconds. Only populated when the
    /// VMM's metrics are enabled (timing costs two clock reads per run).
    latency: Histogram,
    /// Fuel consumed per run (metrics-enabled runs only), read from the
    /// [`RunMetrics`] the metered run already returns.
    ///
    /// [`RunMetrics`]: xbgp_vm::interp::RunMetrics
    fuel: Histogram,
    /// Pooled sandbox: stack, ephemeral heap and (swapped-in) shared
    /// regions stay mapped across runs so an invocation costs no
    /// allocation. The stack is re-zeroed fully and the heap up to the
    /// previous run's allocation watermark (the buffers are
    /// per-extension, so residual bytes beyond the watermark are never
    /// another extension's data).
    mem: MemoryMap,
    heap_watermark: usize,
    /// Region-table indices of the pooled stack/heap/shared regions,
    /// resolved once at load time so the per-run refresh does no kind
    /// scans.
    ri_stack: usize,
    ri_heap: usize,
    ri_shared: usize,
    /// Interned flight-recorder name id ([`NO_EXT`] until tracing is
    /// enabled), copied into every trace event this extension produces.
    trace_ext: u16,
}

/// Calls and cumulative nanoseconds of one helper, indexed by helper id
/// in [`Vmm::helpers`] (ids are dense from 1; slot 0 stays empty).
/// Filled by the dispatcher — the one place every helper call already
/// funnels through — only when metrics are on.
#[derive(Default, Clone, Copy)]
struct HelperTotals {
    calls: u64,
    ns: u64,
}

/// Slots in [`Vmm::helpers`]: one per helper id.
const HELPER_SLOTS: usize = helper::TABLE.len() + 1;

#[derive(Default)]
struct SharedMeta {
    /// key → (virtual address, size) inside the group's shared region.
    allocs: HashMap<u64, (u64, u64)>,
    used: usize,
}

struct SharedSpace {
    group: String,
    data: Vec<u8>,
    meta: SharedMeta,
}

/// Per-extension execution statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtensionStats {
    pub name: String,
    pub insertion_point: InsertionPoint,
    pub runs: u64,
    pub errors: u64,
    /// Runs that delegated with `next()`.
    pub fallbacks: u64,
    /// Total helper calls issued across all runs.
    pub helper_calls: u64,
    /// Total eBPF instructions retired across all runs.
    pub insns_retired: u64,
    /// Tripped circuit breaker: the extension was evicted from its chain
    /// after [`QUARANTINE_THRESHOLD`] consecutive faults.
    pub quarantined: bool,
}

/// Per-insertion-point chain counters. `runs` counts every [`Vmm::run`]
/// invocation for the point; each run ends as exactly one of `values`
/// (an extension produced a result), `fallbacks` (no extension attached
/// or the whole chain delegated) or `errors` (an extension faulted).
#[derive(Default)]
struct PointMetrics {
    runs: u64,
    values: u64,
    fallbacks: u64,
    /// Faulted runs. Unlike the outcome counters above, this increments
    /// whether or not metrics are enabled: faults are rare and the CI
    /// fault-injection smoke compares it against `rollbacks`.
    errors: u64,
    /// Faulted runs whose transaction buffer held staged mutations that
    /// were discarded. Always counted (see `errors`).
    rollbacks: u64,
    /// Faulted runs surfaced as [`VmmOutcome::Aborted`] (fail-closed).
    /// Always counted.
    aborts: u64,
    /// End-to-end chain latency in nanoseconds (metrics-enabled runs only).
    latency: Histogram,
    /// Nanoseconds the point's extensions spent inside helper calls
    /// (metrics-enabled runs only). The rest of the extensions' latency
    /// is VM time.
    helper_ns: u64,
}

/// Dense index of an insertion point into per-point tables.
fn point_index(p: InsertionPoint) -> usize {
    match p {
        InsertionPoint::BgpReceiveMessage => 0,
        InsertionPoint::BgpInboundFilter => 1,
        InsertionPoint::BgpDecision => 2,
        InsertionPoint::BgpOutboundFilter => 3,
        InsertionPoint::BgpEncodeMessage => 4,
    }
}

/// Staged final state of one attribute: `Some((flags, payload))` is a
/// set/replace, `None` a removal tombstone.
type StagedAttr = Option<(u8, Vec<u8>)>;

/// Host mutations staged by one extension chain, committed only when the
/// chain ends cleanly (a value, or every extension delegated). Any fault
/// discards the buffer instead, so the host observes either the whole
/// chain's effects or none of them.
///
/// Reads during the chain are *read-your-writes*: `get_attr`, `has_attr`
/// and `add_attr` consult the staged overlay before the host, so an
/// extension sees the attributes a predecessor in the chain staged.
#[derive(Default)]
struct Txn {
    /// Final staged state per attribute code, in first-touch order:
    /// `Some((flags, payload))` = set/replace, `None` = removal. One entry
    /// per code — restaging overwrites in place — so the commit applies
    /// final states, never intermediate ones.
    attrs: Vec<(u8, StagedAttr)>,
    /// Bytes staged by `write_buf`, appended to the host buffer on commit.
    out_buf: Vec<u8>,
    /// Routes staged by `rib_add_route`, installed in call order.
    rib_adds: Vec<(Ipv4Prefix, u32)>,
}

impl Txn {
    fn is_empty(&self) -> bool {
        self.attrs.is_empty() && self.out_buf.is_empty() && self.rib_adds.is_empty()
    }

    /// Staged operation count, for `txn_commit`/`txn_rollback` trace
    /// payloads (the buffered write counts once, whatever its length).
    fn op_count(&self) -> usize {
        self.attrs.len() + usize::from(!self.out_buf.is_empty()) + self.rib_adds.len()
    }

    /// The staged overlay for `code`: `None` = untouched (read through to
    /// the host), `Some(None)` = staged removal, `Some(Some(..))` = staged
    /// value.
    fn staged(&self, code: u8) -> Option<&StagedAttr> {
        self.attrs.iter().find(|(c, _)| *c == code).map(|(_, e)| e)
    }

    fn stage_attr(&mut self, code: u8, entry: StagedAttr) {
        match self.attrs.iter_mut().find(|(c, _)| *c == code) {
            Some(slot) => slot.1 = entry,
            None => self.attrs.push((code, entry)),
        }
    }

    /// Replay the staged mutations against the host. Every operation was
    /// validated by `HostApi::check_op` at stage time, so an error here is
    /// a host-side contract bug; the caller logs and counts it.
    fn commit(self, host: &mut dyn HostApi) -> Result<(), HostError> {
        for (code, entry) in self.attrs {
            match entry {
                Some((flags, value)) => host.set_attr(code, flags, &value)?,
                // A stage-time removal may target an attribute that only
                // ever existed inside the overlay (set then removed).
                None => {
                    if host.has_attr(code) {
                        host.remove_attr(code)?;
                    }
                }
            }
        }
        if !self.out_buf.is_empty() {
            host.write_buf(&self.out_buf)?;
        }
        for (prefix, nexthop) in self.rib_adds {
            host.rib_add_route(prefix, nexthop)?;
        }
        Ok(())
    }
}

/// The Virtual Machine Manager. See the module documentation.
pub struct Vmm {
    /// Extension storage, indexed by the per-point attachment lists.
    exts: Vec<(InsertionPoint, Extension)>,
    /// Ordered extension indices per insertion point (indexed by
    /// [`point_index`]).
    attached: [Vec<usize>; 5],
    /// Per point (indexed by [`point_index`]): every extension in the
    /// attached chain is prefix-free. Cached at load and whenever the
    /// circuit breaker changes a chain.
    prefix_free: [bool; 5],
    shared: Vec<SharedSpace>,
    xtra: HashMap<String, Vec<u8>>,
    vm_config: VmConfig,
    /// Most recent runtime fault, for host diagnostics. Cleared when a
    /// subsequent chain run completes without faulting.
    last_error: Option<(String, VmError)>,
    /// Extensions evicted by the circuit breaker since load.
    quarantines: u64,
    /// Commit-time host failures (should be zero: `check_op` validates
    /// every staged operation, so this counts host-side contract bugs).
    commit_faults: u64,
    /// Per-point outcome counters, indexed by [`point_index`].
    points: [PointMetrics; 5],
    /// When set, every layer of a run gets one clock: the chain, each
    /// extension and each helper call are timed, outcome, instruction
    /// and helper counters accumulate, and the latency and fuel
    /// histograms fill in. Off by default so the hot path pays a single
    /// branch.
    metrics_enabled: bool,
    /// Per-helper call and nanosecond totals (metrics-enabled runs only).
    helpers: [HelperTotals; HELPER_SLOTS],
    /// Reusable marshalling buffer lent to the helper dispatcher, so
    /// variable-length helper transfers (`get_attr` etc.) allocate at most
    /// once over the VMM's lifetime instead of once per call.
    scratch: Vec<u8>,
    /// Route-scoped flight recorder ([`Vmm::enable_trace`]); `None` keeps
    /// the hot path to a handful of predictable is-some branches.
    tracer: Option<Box<Tracer>>,
}

impl Vmm {
    /// Load a manifest: decode, resolve helpers, verify, attach.
    pub fn from_manifest(manifest: &Manifest) -> Result<Vmm, VmmError> {
        let mut vmm = Vmm {
            exts: Vec::new(),
            attached: Default::default(),
            prefix_free: [true; 5],
            shared: Vec::new(),
            xtra: manifest.xtra.iter().map(|(k, v)| (k.clone(), v.0.clone())).collect(),
            vm_config: VmConfig::default(),
            last_error: None,
            quarantines: 0,
            commit_faults: 0,
            points: Default::default(),
            metrics_enabled: false,
            helpers: [HelperTotals::default(); HELPER_SLOTS],
            scratch: Vec::new(),
            tracer: None,
        };
        for spec in &manifest.extensions {
            let prog = spec
                .program()
                .map_err(|reason| VmmError::BadBytecode { extension: spec.name.clone(), reason })?;
            let mut ids = std::collections::HashSet::new();
            for name in &spec.helpers {
                match helper::id_of(name) {
                    Some(id) => {
                        ids.insert(id);
                    }
                    None => {
                        return Err(VmmError::UnknownHelperName {
                            extension: spec.name.clone(),
                            name: name.clone(),
                        })
                    }
                }
            }
            // Structural verification plus the abstract-interpretation
            // pass, parameterized by this insertion point's helper
            // contracts (e.g. `write_buf` is only legal while encoding).
            let opts = crate::contracts::analysis_options(spec.insertion_point);
            let loaded = verify_and_load_with(&prog, &ids, &opts)
                .map_err(|error| VmmError::Rejected { extension: spec.name.clone(), error })?;
            VERIFY_LOADS.fetch_add(1, Ordering::Relaxed);
            let idx = vmm.exts.len();
            let group = if spec.program.is_empty() {
                spec.name.clone()
            } else {
                spec.program.clone()
            };
            let shared_idx = match vmm.shared.iter().position(|s| s.group == group) {
                Some(i) => i,
                None => {
                    vmm.shared.push(SharedSpace {
                        group,
                        data: vec![0; SHARED_SIZE],
                        meta: SharedMeta::default(),
                    });
                    vmm.shared.len() - 1
                }
            };
            let mut mem = MemoryMap::new();
            mem.map(Region::new(
                RegionKind::Stack,
                xbgp_vm::STACK_BASE,
                vec![0; xbgp_vm::STACK_SIZE],
                true,
            ));
            mem.map(Region::new(RegionKind::Heap, HEAP_BASE, vec![0; HEAP_SIZE], true));
            // Shared data is swapped in from the group space per run; an
            // empty placeholder keeps the region table stable.
            mem.map(Region::new(RegionKind::Shared, SHARED_BASE, Vec::new(), true));
            let ri_stack = mem.region_index(RegionKind::Stack).expect("stack just mapped");
            let ri_heap = mem.region_index(RegionKind::Heap).expect("heap just mapped");
            let ri_shared = mem.region_index(RegionKind::Shared).expect("shared just mapped");
            vmm.exts.push((
                spec.insertion_point,
                Extension {
                    name: spec.name.clone(),
                    shared_idx,
                    fuel_override: spec.fuel,
                    on_fault: spec.on_fault,
                    peer_mask: crate::contracts::peer_reads(&ids, loaded.watched_reads())
                        .unwrap_or(crate::contracts::PEER_INFO_ALL),
                    prefix_free: crate::contracts::prefix_free(&ids).is_ok(),
                    shared_access: ids.contains(&helper::CTX_SHARED_GET)
                        || ids.contains(&helper::CTX_SHARED_MALLOC),
                    prog: loaded,
                    consecutive_faults: 0,
                    quarantined: false,
                    runs: 0,
                    errors: 0,
                    fallbacks: 0,
                    helper_calls: 0,
                    insns_retired: 0,
                    latency: Histogram::new(),
                    fuel: Histogram::new(),
                    mem,
                    heap_watermark: 0,
                    ri_stack,
                    ri_heap,
                    ri_shared,
                    trace_ext: NO_EXT,
                },
            ));
            vmm.attached[point_index(spec.insertion_point)].push(idx);
        }
        for pi in 0..vmm.attached.len() {
            vmm.cache_prefix_free(pi);
        }
        Ok(vmm)
    }

    fn cache_prefix_free(&mut self, pi: usize) {
        self.prefix_free[pi] = self.attached[pi].iter().all(|&i| self.exts[i].1.prefix_free);
    }

    /// An empty VMM: every insertion point falls back to native code.
    pub fn empty() -> Vmm {
        Vmm::from_manifest(&Manifest::new()).expect("empty manifest always loads")
    }

    /// Toggle proof-carrying runtime-check elision for every attached
    /// extension (on by default). Off forces every memory access through
    /// the fully checked path and re-arms the per-instruction fuel
    /// ledger. The two modes are contractually bit-for-bit identical —
    /// same outcomes, memory, metrics and faults at the same slot pcs
    /// (the `absint_soundness` and ablation suites assert it) — so this
    /// is an experiment/diagnostics knob, not a safety valve.
    pub fn set_check_elision(&mut self, on: bool) {
        for (_, e) in &mut self.exts {
            e.prog.set_elide(on);
        }
    }

    /// Is any extension attached to `point`? Hosts use this to skip
    /// building an execution context when nothing is attached.
    pub fn has_extensions(&self, point: InsertionPoint) -> bool {
        !self.attached[point_index(point)].is_empty()
    }

    /// The bytes of a peer's marshalled `PeerInfo` the chains loaded at
    /// `points` can observe, one bit per byte offset; every byte
    /// ([`crate::contracts::PEER_INFO_ALL`]) as soon as one program's runs
    /// cannot be shared between peers. Peers that agree on these bytes get
    /// identical runs. Taken over everything loaded: quarantine only
    /// removes programs, so a mask read at load time stays sound.
    pub fn peer_read_mask(&self, points: &[InsertionPoint]) -> u32 {
        self.exts
            .iter()
            .filter(|(point, _)| points.contains(point))
            .fold(0, |mask, (_, e)| mask | e.peer_mask)
    }

    /// Can one clean run at `point` answer for every route of an UPDATE?
    /// True when every extension attached there is prefix-free
    /// ([`crate::contracts::prefix_free`]), vacuously so for an empty
    /// chain. Unlike [`Vmm::peer_read_mask`] this follows quarantine: it
    /// is re-cached when the circuit breaker removes a program, which can
    /// only make it true.
    pub fn prefix_free(&self, point: InsertionPoint) -> bool {
        self.prefix_free[point_index(point)]
    }

    /// Runs at `point` that faulted so far, counted whether or not metrics
    /// are on. A host reads it around a run to tell a clean
    /// [`VmmOutcome::Fallback`] from the one a faulting extension's
    /// `on_fault: fallback` produces.
    pub fn faults(&self, point: InsertionPoint) -> u64 {
        self.points[point_index(point)].errors
    }

    /// Execute the extension chain for `point` with `host` as the
    /// execution context.
    pub fn run(&mut self, point: InsertionPoint, host: &mut dyn HostApi) -> VmmOutcome {
        let pi = point_index(point);
        // One predictable branch decides whether any accounting happens;
        // an untracked VMM pays nothing else on the hot path.
        let track = self.metrics_enabled;
        if track {
            self.points[pi].runs += 1;
        }
        let chain_len = self.attached[pi].len();
        if chain_len == 0 {
            if track {
                self.points[pi].fallbacks += 1;
            }
            return VmmOutcome::Fallback;
        }
        let chain_start = track.then(Instant::now);
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(TraceKind::PointEnter, pi as u8, NO_EXT, chain_len as u64, 0);
        }
        // All host mutations of this chain stage here; nothing touches
        // the host until the chain's outcome is known (DESIGN.md §4d).
        let mut txn = Txn::default();
        for k in 0..chain_len {
            // The chain was resolved at load time (`attached` caches the
            // extension indices per insertion point), so dispatching a hook
            // does no name lookups and clones nothing.
            let idx = self.attached[pi][k];
            let ext = &mut self.exts[idx].1;
            let shared_idx = ext.shared_idx;

            // Refresh the pooled sandbox in place: zero the stack fully,
            // the heap up to the previous allocation watermark, and swap
            // the program group's persistent space in if the program was
            // granted it. Region indices were cached at load time, so no
            // region-table scans happen here.
            let watermark = ext.heap_watermark;
            let shared_access = ext.shared_access;
            ext.mem.region_at_mut(ext.ri_stack).data.fill(0);
            ext.mem.region_at_mut(ext.ri_heap).data[..watermark].fill(0);
            if shared_access {
                std::mem::swap(
                    &mut ext.mem.region_at_mut(ext.ri_shared).data,
                    &mut self.shared[shared_idx].data,
                );
            }

            // The per-invocation policy: manifest overrides, VMM defaults.
            let cfg = VmConfig { fuel: ext.fuel_override.unwrap_or(self.vm_config.fuel) };
            let ext_start = track.then(Instant::now);
            let (outcome, heap_used, helper_ns, metrics) = {
                let mut dispatcher = Dispatcher {
                    host,
                    xtra: &self.xtra,
                    shared: &mut self.shared[shared_idx].meta,
                    scratch: &mut self.scratch,
                    txn: &mut txn,
                    heap_used: 0,
                    tracer: self.tracer.as_deref_mut(),
                    metrics: track,
                    helpers: &mut self.helpers,
                    helper_ns: 0,
                    pi,
                    ext_tid: ext.trace_ext,
                };
                // Split borrow: the program and the memory map are
                // disjoint fields of the extension.
                let (outcome, metrics) =
                    ext.prog.run_metered(cfg, &mut ext.mem, &mut dispatcher, &[]);
                (outcome, dispatcher.heap_used, dispatcher.helper_ns, metrics)
            };

            // Swap the shared space back regardless of outcome.
            if shared_access {
                std::mem::swap(
                    &mut ext.mem.region_at_mut(ext.ri_shared).data,
                    &mut self.shared[shared_idx].data,
                );
            }
            ext.heap_watermark = heap_used;
            ext.runs += 1;
            if let Some(start) = ext_start {
                ext.latency.observe(start.elapsed().as_nanos() as u64);
                ext.fuel.observe(metrics.fuel_consumed);
                ext.helper_calls += metrics.helper_calls;
                ext.insns_retired += metrics.insns_retired;
                self.points[pi].helper_ns += helper_ns;
            }
            match outcome {
                Ok(ExecOutcome::Return(v)) => {
                    ext.consecutive_faults = 0;
                    let name_idx = idx;
                    self.last_error = None;
                    if track {
                        self.points[pi].values += 1;
                        self.finish_run(pi, chain_start);
                    }
                    self.commit(pi, name_idx, txn, host);
                    if let Some(t) = self.tracer.as_deref_mut() {
                        t.record(TraceKind::PointExit, pi as u8, NO_EXT, 0, 0);
                    }
                    return VmmOutcome::Value(v);
                }
                Ok(ExecOutcome::Next) => {
                    ext.consecutive_faults = 0;
                    if track {
                        ext.fallbacks += 1;
                    }
                    continue;
                }
                Err(e) => {
                    // Monitored execution: stop the faulty extension, roll
                    // the staged mutations back, tell the host, and honour
                    // the extension's fault policy.
                    ext.errors += 1;
                    ext.consecutive_faults += 1;
                    let trip = ext.consecutive_faults >= QUARANTINE_THRESHOLD && !ext.quarantined;
                    if trip {
                        ext.quarantined = true;
                    }
                    let on_fault = ext.on_fault;
                    let name = ext.name.clone();
                    let ext_tid = ext.trace_ext;
                    let streak = ext.consecutive_faults;
                    let rolled_back = !txn.is_empty();
                    let staged_ops = txn.op_count() as u64;
                    drop(txn); // discard staged mutations: byte-identical native state
                    host.log(&format!("xbgp: extension `{name}` aborted: {e}"));
                    if let Some(t) = self.tracer.as_deref_mut() {
                        // Fault-path events bypass sampling: the flight
                        // recorder must never miss the crash itself, and
                        // the postmortem wants the lead-up in the ring.
                        if rolled_back {
                            t.record_always(
                                TraceKind::TxnRollback,
                                pi as u8,
                                ext_tid,
                                staged_ops,
                                0,
                            );
                        }
                        t.record_always(
                            TraceKind::Fault,
                            pi as u8,
                            ext_tid,
                            e.pc() as u64,
                            e.code(),
                        );
                        if trip {
                            t.record_always(
                                TraceKind::Quarantine,
                                pi as u8,
                                ext_tid,
                                u64::from(streak),
                                0,
                            );
                        }
                        t.postmortem(
                            &name,
                            ext_tid,
                            pi as u8,
                            &e.to_string(),
                            Some(e.pc() as u64),
                            trip,
                        );
                    }
                    self.last_error = Some((name.clone(), e));
                    // Fault-path counters are unconditional: faults are
                    // rare, and rollback accounting must not depend on
                    // whether the host enabled metrics.
                    self.points[pi].errors += 1;
                    if rolled_back {
                        self.points[pi].rollbacks += 1;
                    }
                    if trip {
                        // Re-cache the chain without the quarantined
                        // extension; subsequent runs never dispatch it.
                        self.attached[pi].retain(|&i| i != idx);
                        self.cache_prefix_free(pi);
                        self.quarantines += 1;
                        host.log(&format!(
                            "xbgp: extension `{name}` quarantined after \
                             {QUARANTINE_THRESHOLD} consecutive faults"
                        ));
                    }
                    if track {
                        self.finish_run(pi, chain_start);
                    }
                    let out = match on_fault {
                        OnFault::Fallback => VmmOutcome::Fallback,
                        OnFault::Abort => {
                            self.points[pi].aborts += 1;
                            VmmOutcome::Aborted
                        }
                    };
                    if let Some(t) = self.tracer.as_deref_mut() {
                        let code = if out == VmmOutcome::Aborted { 2 } else { 1 };
                        t.record(TraceKind::PointExit, pi as u8, NO_EXT, code, 0);
                    }
                    return out;
                }
            }
        }
        // The whole chain delegated with `next()`: a clean fallback. The
        // chain may still have staged mutations (an extension can mutate
        // and then delegate); they commit exactly like a value outcome.
        self.last_error = None;
        if track {
            self.points[pi].fallbacks += 1;
            self.finish_run(pi, chain_start);
        }
        let last = *self.attached[pi].last().expect("chain non-empty");
        self.commit(pi, last, txn, host);
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(TraceKind::PointExit, pi as u8, NO_EXT, 1, 0);
        }
        VmmOutcome::Fallback
    }

    /// Apply a chain's staged mutations to the host. `check_op` validated
    /// every operation at stage time, so a failure here is a host bug: it
    /// is logged against the extension that ended the chain and counted
    /// in `xbgp_vmm_commit_faults_total`, and the remaining staged
    /// operations are dropped.
    fn commit(&mut self, pi: usize, ext_idx: usize, txn: Txn, host: &mut dyn HostApi) {
        if txn.is_empty() {
            return;
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(TraceKind::TxnCommit, pi as u8, NO_EXT, txn.op_count() as u64, 0);
        }
        if let Err(e) = txn.commit(host) {
            self.commit_faults += 1;
            let name = &self.exts[ext_idx].1.name;
            host.log(&format!("xbgp: commit after extension `{name}` failed: {e}"));
        }
    }

    /// Observe the end-to-end latency of a run with attached extensions.
    fn finish_run(&mut self, pi: usize, start: Option<Instant>) {
        if let Some(t0) = start {
            self.points[pi].latency.observe(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Read an allocation out of a program group's persistent memory
    /// (observability: lets hosts/tests inspect what extensions persist,
    /// e.g. the origin-validation counters of §3.4).
    pub fn shared_read(&self, group: &str, key: u64) -> Option<Vec<u8>> {
        let space = self.shared.iter().find(|s| s.group == group)?;
        let (addr, size) = space.meta.allocs.get(&key)?;
        let off = (addr - SHARED_BASE) as usize;
        Some(space.data[off..off + *size as usize].to_vec())
    }

    /// The most recent runtime fault, if any.
    pub fn last_error(&self) -> Option<(&str, &VmError)> {
        self.last_error.as_ref().map(|(n, e)| (n.as_str(), e))
    }

    /// Execution statistics for every loaded extension.
    pub fn stats(&self) -> Vec<ExtensionStats> {
        self.exts
            .iter()
            .map(|(point, e)| ExtensionStats {
                name: e.name.clone(),
                insertion_point: *point,
                runs: e.runs,
                errors: e.errors,
                fallbacks: e.fallbacks,
                helper_calls: e.helper_calls,
                insns_retired: e.insns_retired,
                quarantined: e.quarantined,
            })
            .collect()
    }

    /// Enable metrics: subsequent runs collect per-point outcome counters,
    /// per-extension helper/instruction counters and fuel histograms, and
    /// one clock per layer — the chain, each extension, each helper call.
    /// Off by default so an untracked VMM's hot path pays a single
    /// predictable branch.
    pub fn enable_metrics(&mut self) {
        self.metrics_enabled = true;
    }

    /// Attach a route-scoped flight recorder. Every loaded extension's
    /// name is interned up front, so recording an event never allocates.
    /// The host drives the route scope through [`Vmm::tracer_mut`]
    /// (`on_ingest` / `begin_route` / `set_now`); the VMM itself records
    /// the point enter/exit, helper, transaction, fault and quarantine
    /// events.
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        let mut tracer = Box::new(Tracer::new(cfg));
        for (_, e) in &mut self.exts {
            e.trace_ext = tracer.intern(&e.name);
        }
        self.tracer = Some(tracer);
    }

    /// The attached flight recorder, if tracing is enabled.
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }

    /// Whether a flight recorder is attached.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Drain the flight recorder into a mergeable [`TraceDump`] (ring and
    /// postmortems cleared; interned ids stay stable). `None` when
    /// tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<TraceDump> {
        self.tracer.as_deref_mut().map(Tracer::take_dump)
    }

    /// Point-in-time snapshot of every VMM metric:
    ///
    /// * `xbgp_vmm_runs_total{point}` and its outcome split
    ///   `xbgp_vmm_values_total` / `xbgp_vmm_fallbacks_total` /
    ///   `xbgp_vmm_errors_total` / `xbgp_vmm_rollbacks_total` /
    ///   `xbgp_vmm_aborts_total` (the fault-path counters count even with
    ///   metrics disabled);
    /// * `xbgp_vmm_quarantines_total` and `xbgp_vmm_commit_faults_total`
    ///   (unlabelled), plus a per-extension
    ///   `xbgp_vmm_extension_quarantined` 0/1 gauge-as-counter;
    /// * per-extension `xbgp_vmm_extension_runs_total` /
    ///   `..._errors_total` / `..._fallbacks_total` /
    ///   `..._helper_calls_total` / `..._insns_total`, labelled
    ///   `{extension,point}`;
    /// * with metrics on ([`Vmm::enable_metrics`]), one series per clock:
    ///   `xbgp_vmm_run_latency_ns{point}` (the chain),
    ///   `xbgp_vmm_extension_latency_ns{extension,point}` (each
    ///   extension) and `xbgp_prof_helper_calls_total` /
    ///   `xbgp_prof_helper_ns_total` `{helper}` (each helper, once
    ///   called); plus `xbgp_prof_fuel{extension,point}` histograms and
    ///   the per-point split of extension time into
    ///   `xbgp_prof_point_helper_ns_total` and `xbgp_prof_point_vm_ns_total`
    ///   (the point's extension latency sum minus its helper share).
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        for point in InsertionPoint::ALL {
            let pm = &self.points[point_index(point)];
            let labels = [("point", point.name())];
            s.push_counter("xbgp_vmm_runs_total", &labels, pm.runs);
            s.push_counter("xbgp_vmm_values_total", &labels, pm.values);
            s.push_counter("xbgp_vmm_fallbacks_total", &labels, pm.fallbacks);
            s.push_counter("xbgp_vmm_errors_total", &labels, pm.errors);
            s.push_counter("xbgp_vmm_rollbacks_total", &labels, pm.rollbacks);
            s.push_counter("xbgp_vmm_aborts_total", &labels, pm.aborts);
            if self.metrics_enabled {
                s.push_histogram("xbgp_vmm_run_latency_ns", &labels, pm.latency.snapshot());
            }
        }
        s.push_counter("xbgp_vmm_quarantines_total", &[], self.quarantines);
        s.push_counter("xbgp_vmm_commit_faults_total", &[], self.commit_faults);
        for (point, e) in &self.exts {
            let labels = [("extension", e.name.as_str()), ("point", point.name())];
            s.push_counter("xbgp_vmm_extension_runs_total", &labels, e.runs);
            s.push_counter("xbgp_vmm_extension_errors_total", &labels, e.errors);
            s.push_counter("xbgp_vmm_extension_fallbacks_total", &labels, e.fallbacks);
            s.push_counter("xbgp_vmm_extension_helper_calls_total", &labels, e.helper_calls);
            s.push_counter("xbgp_vmm_extension_insns_total", &labels, e.insns_retired);
            s.push_counter("xbgp_vmm_extension_quarantined", &labels, u64::from(e.quarantined));
            if self.metrics_enabled {
                s.push_histogram("xbgp_vmm_extension_latency_ns", &labels, e.latency.snapshot());
                s.push_histogram("xbgp_prof_fuel", &labels, e.fuel.snapshot());
            }
        }
        if self.metrics_enabled {
            for (id, h) in self.helpers.iter().enumerate().filter(|(_, h)| h.calls > 0) {
                let labels = [("helper", helper::name_of(id as u32).unwrap_or("unknown"))];
                s.push_counter("xbgp_prof_helper_calls_total", &labels, h.calls);
                s.push_counter("xbgp_prof_helper_ns_total", &labels, h.ns);
            }
            for point in InsertionPoint::ALL {
                let labels = [("point", point.name())];
                let helper_ns = self.points[point_index(point)].helper_ns;
                let ext_ns: u64 = self
                    .exts
                    .iter()
                    .filter(|(p, _)| *p == point)
                    .map(|(_, e)| e.latency.snapshot().sum)
                    .sum();
                s.push_counter("xbgp_prof_point_helper_ns_total", &labels, helper_ns);
                s.push_counter(
                    "xbgp_prof_point_vm_ns_total",
                    &labels,
                    ext_ns.saturating_sub(helper_ns),
                );
            }
        }
        s
    }
}

/// Translates helper calls from the VM into `HostApi` calls, mediating all
/// data movement through the sandboxed memory map.
struct Dispatcher<'a> {
    host: &'a mut dyn HostApi,
    xtra: &'a HashMap<String, Vec<u8>>,
    shared: &'a mut SharedMeta,
    /// VMM-owned marshalling buffer, reused across helper calls and runs.
    scratch: &'a mut Vec<u8>,
    /// Chain-scoped transaction: every host mutation stages here and
    /// reaches the host only if the whole chain finishes cleanly.
    txn: &'a mut Txn,
    heap_used: usize,
    /// Flight recorder, present only while tracing is enabled: helper
    /// calls and staged mutations become route-scoped events.
    tracer: Option<&'a mut Tracer>,
    /// Metrics are on: time every helper call into `helpers` and
    /// `helper_ns`.
    metrics: bool,
    /// The VMM's per-helper totals (see [`HelperTotals`]).
    helpers: &'a mut [HelperTotals; HELPER_SLOTS],
    /// Nanoseconds this run spent in helper calls (metrics on only).
    helper_ns: u64,
    /// Insertion-point index of the running chain (event labels).
    pi: usize,
    /// Interned trace-name id of the running extension.
    ext_tid: u16,
}

/// The staged-mutation op a helper id maps to for the `txn_stage` trace
/// payload: `(op, attr_code)` with op 1 set / 2 add / 3 remove /
/// 4 write-buf / 5 rib-add.
fn stage_op(id: u32, args: &[u64; 5]) -> Option<(u64, u64)> {
    match id {
        helper::SET_ATTR => Some((1, args[0])),
        helper::ADD_ATTR => Some((2, args[0])),
        helper::REMOVE_ATTR => Some((3, args[0])),
        helper::WRITE_BUF => Some((4, 0)),
        helper::RIB_ADD_ROUTE => Some((5, 0)),
        _ => None,
    }
}

impl Dispatcher<'_> {
    /// Bump-allocate `size` bytes (8-aligned) in the ephemeral heap.
    fn heap_alloc(&mut self, size: usize) -> Option<u64> {
        let aligned = (size + 7) & !7;
        if self.heap_used + aligned > HEAP_SIZE {
            return None;
        }
        let addr = HEAP_BASE + self.heap_used as u64;
        self.heap_used += aligned;
        Some(addr)
    }

    /// Allocate and fill a marshalled struct, returning its address.
    fn marshal(&mut self, mem: &mut MemoryMap, bytes: &[u8]) -> Result<u64, VmError> {
        let Some(addr) = self.heap_alloc(bytes.len()) else {
            return Ok(0);
        };
        mem.write_bytes(addr, bytes)?;
        Ok(addr)
    }
}

fn fault(helper: u32, reason: impl Into<String>) -> VmError {
    // `pc` is a placeholder; the interpreter stamps the faulting
    // instruction's pc at the call site (`VmError::at_pc`).
    VmError::HelperFault { pc: 0, helper, reason: reason.into() }
}

impl HelperDispatcher for Dispatcher<'_> {
    fn call(
        &mut self,
        id: u32,
        args: [u64; 5],
        mem: &mut MemoryMap,
    ) -> Result<HelperOutcome, VmError> {
        // Fast path: neither tracing nor metrics — one predictable
        // branch, then straight into the helper switch. The interpreter's
        // metered loop above this is untouched either way.
        if !self.metrics && self.tracer.is_none() {
            return self.dispatch(id, args, mem);
        }
        let t0 = self.metrics.then(Instant::now);
        let out = self.dispatch(id, args, mem);
        let ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        if self.metrics {
            self.helper_ns += ns;
            if let Some(h) = self.helpers.get_mut(id as usize) {
                h.calls += 1;
                h.ns += ns;
            }
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            if t.route_active() {
                t.record(TraceKind::HelperCall, self.pi as u8, self.ext_tid, u64::from(id), ns);
                // A successful staging helper also leaves a `txn_stage`
                // breadcrumb, so a trace shows what a later commit or
                // rollback acted on.
                if let Ok(HelperOutcome::Value(v)) = &out {
                    if *v != api::XBGP_FAIL {
                        if let Some((op, attr)) = stage_op(id, &args) {
                            t.record(TraceKind::TxnStage, self.pi as u8, self.ext_tid, op, attr);
                        }
                    }
                }
            }
        }
        out
    }
}

impl Dispatcher<'_> {
    /// The helper switch proper, shared by the instrumented and
    /// fast-path entries of [`HelperDispatcher::call`].
    fn dispatch(
        &mut self,
        id: u32,
        args: [u64; 5],
        mem: &mut MemoryMap,
    ) -> Result<HelperOutcome, VmError> {
        use HelperOutcome::Value;
        let out = match id {
            helper::NEXT => return Ok(HelperOutcome::Next),
            helper::ARG_LEN => match self.host.arg(args[0] as u32) {
                Some(a) => Value(a.len() as u64),
                None => Value(api::XBGP_FAIL),
            },
            helper::GET_ARG => {
                let (idx, dst, cap) = (args[0] as u32, args[1], args[2] as usize);
                // Copy straight from the host's borrow into sandbox memory;
                // no intermediate allocation.
                let Dispatcher { host, .. } = self;
                match host.arg(idx) {
                    Some(a) if a.len() <= cap => {
                        let n = a.len() as u64;
                        mem.write_bytes(dst, a)?;
                        Value(n)
                    }
                    _ => Value(api::XBGP_FAIL),
                }
            }
            helper::GET_PEER_INFO => {
                let bytes = self.host.peer_info().to_bytes();
                Value(self.marshal(mem, &bytes)?)
            }
            helper::GET_NEXTHOP => match self.host.nexthop_info() {
                Some(nh) => Value(self.marshal(mem, &nh.to_bytes())?),
                None => Value(0),
            },
            helper::GET_PREFIX => match self.host.prefix() {
                Some(p) => {
                    let mut b = [0u8; api::PREFIX_INFO_SIZE];
                    b[0..4].copy_from_slice(&p.addr().to_le_bytes());
                    b[4..8].copy_from_slice(&u32::from(p.len()).to_le_bytes());
                    Value(self.marshal(mem, &b)?)
                }
                None => Value(0),
            },
            helper::GET_ATTR => {
                let (code, dst, cap) = (args[0] as u8, args[1], args[2] as usize);
                // Marshal through the VMM's reused scratch buffer instead
                // of a fresh Vec per call. Reads see the chain's own staged
                // writes first (read-your-writes), then the host.
                let Dispatcher { host, scratch, txn, .. } = self;
                scratch.clear();
                let flags = match txn.staged(code) {
                    Some(Some((flags, value))) => {
                        scratch.extend_from_slice(value);
                        Some(*flags)
                    }
                    Some(None) => None, // staged removal
                    None => host.get_attr_into(code, scratch),
                };
                match flags {
                    Some(_) if scratch.len() <= cap => {
                        mem.write_bytes(dst, scratch)?;
                        Value(scratch.len() as u64)
                    }
                    _ => Value(api::XBGP_FAIL),
                }
            }
            helper::SET_ATTR => {
                let (code, flags, ptr, len) =
                    (args[0] as u8, args[1] as u8, args[2], args[3] as usize);
                let data = mem.slice(ptr, len)?;
                match self.host.check_op(&HostOp::SetAttr { code, flags, value: data }) {
                    Ok(()) => {
                        self.txn.stage_attr(code, Some((flags, data.to_vec())));
                        Value(0)
                    }
                    Err(e) if e.recoverable() => Value(api::XBGP_FAIL),
                    Err(e) => return Err(fault(id, e.to_string())),
                }
            }
            helper::ADD_ATTR => {
                let (code, flags, ptr, len) =
                    (args[0] as u8, args[1] as u8, args[2], args[3] as usize);
                let present = match self.txn.staged(code) {
                    Some(entry) => entry.is_some(),
                    None => self.host.has_attr(code),
                };
                if present {
                    Value(api::XBGP_FAIL)
                } else {
                    let data = mem.slice(ptr, len)?;
                    match self.host.check_op(&HostOp::SetAttr { code, flags, value: data }) {
                        Ok(()) => {
                            self.txn.stage_attr(code, Some((flags, data.to_vec())));
                            Value(0)
                        }
                        Err(e) if e.recoverable() => Value(api::XBGP_FAIL),
                        Err(e) => return Err(fault(id, e.to_string())),
                    }
                }
            }
            helper::REMOVE_ATTR => {
                let code = args[0] as u8;
                let present = match self.txn.staged(code) {
                    Some(entry) => entry.is_some(),
                    None => self.host.has_attr(code),
                };
                if !present {
                    // `AttrNotPresent`: recoverable by definition.
                    Value(api::XBGP_FAIL)
                } else {
                    match self.host.check_op(&HostOp::RemoveAttr { code }) {
                        Ok(()) => {
                            self.txn.stage_attr(code, None);
                            Value(0)
                        }
                        Err(e) if e.recoverable() => Value(api::XBGP_FAIL),
                        Err(e) => return Err(fault(id, e.to_string())),
                    }
                }
            }
            helper::GET_XTRA => {
                let (key_ptr, key_len, dst, cap) =
                    (args[0], args[1] as usize, args[2], args[3] as usize);
                let key_bytes = mem.slice(key_ptr, key_len)?;
                let key =
                    std::str::from_utf8(key_bytes).map_err(|_| fault(id, "non-UTF-8 xtra key"))?;
                // Borrow manifest-level xtra data in place; only a
                // host-provided answer needs an owned buffer.
                let owned;
                let data: Option<&[u8]> = match self.host.get_xtra(key) {
                    Some(v) => {
                        owned = v;
                        Some(&owned)
                    }
                    None => self.xtra.get(key).map(Vec::as_slice),
                };
                match data {
                    Some(v) if v.len() <= cap => {
                        mem.write_bytes(dst, v)?;
                        Value(v.len() as u64)
                    }
                    _ => Value(api::XBGP_FAIL),
                }
            }
            helper::WRITE_BUF => {
                let (ptr, len) = (args[0], args[1] as usize);
                let data = mem.slice(ptr, len)?;
                match self.host.check_op(&HostOp::WriteBuf { len }) {
                    Ok(()) => {
                        self.txn.out_buf.extend_from_slice(data);
                        Value(len as u64)
                    }
                    Err(e) if e.recoverable() => Value(api::XBGP_FAIL),
                    Err(e) => return Err(fault(id, e.to_string())),
                }
            }
            helper::EBPF_MEMCPY => {
                let (dst, src, len) = (args[0], args[1], args[2] as usize);
                mem.copy_within(dst, src, len)?;
                Value(dst)
            }
            helper::BPF_HTONL | helper::BPF_NTOHL => {
                Value(u64::from((args[0] as u32).swap_bytes()))
            }
            helper::BPF_HTONS | helper::BPF_NTOHS => {
                Value(u64::from((args[0] as u16).swap_bytes()))
            }
            helper::EBPF_PRINT => {
                let (ptr, len) = (args[0], args[1] as usize);
                let data = mem.slice(ptr, len)?;
                let msg = String::from_utf8_lossy(data);
                self.host.log(&msg);
                Value(0)
            }
            helper::CTX_MALLOC => Value(self.heap_alloc(args[0] as usize).unwrap_or(0)),
            helper::CTX_SHARED_MALLOC => {
                let (key, size) = (args[0], args[1] as usize);
                if self.shared.allocs.contains_key(&key) {
                    Value(0)
                } else {
                    let aligned = (size + 7) & !7;
                    if self.shared.used + aligned > SHARED_SIZE {
                        Value(0)
                    } else {
                        let addr = SHARED_BASE + self.shared.used as u64;
                        self.shared.used += aligned;
                        self.shared.allocs.insert(key, (addr, size as u64));
                        Value(addr)
                    }
                }
            }
            helper::CTX_SHARED_GET => {
                Value(self.shared.allocs.get(&args[0]).map(|(a, _)| *a).unwrap_or(0))
            }
            helper::RPKI_CHECK_ORIGIN => {
                let (addr, plen, asn) = (args[0] as u32, args[1] as u8, args[2] as u32);
                if plen > 32 {
                    return Err(fault(id, format!("invalid prefix length {plen}")));
                }
                Value(self.host.check_origin(Ipv4Prefix::new(addr, plen), asn))
            }
            helper::RIB_ADD_ROUTE => {
                let (addr, plen, nexthop) = (args[0] as u32, args[1] as u8, args[2] as u32);
                if plen > 32 {
                    return Err(fault(id, format!("invalid prefix length {plen}")));
                }
                let prefix = Ipv4Prefix::new(addr, plen);
                match self.host.check_op(&HostOp::RibAddRoute { prefix, nexthop }) {
                    Ok(()) => {
                        self.txn.rib_adds.push((prefix, nexthop));
                        Value(0)
                    }
                    Err(e) if e.recoverable() => Value(api::XBGP_FAIL),
                    Err(e) => return Err(fault(id, e.to_string())),
                }
            }
            // `pc: 0` is a placeholder stamped over by the interpreter.
            other => return Err(VmError::UnknownHelper { pc: 0, helper: other }),
        };
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{NextHopInfo, PeerType, EBGP_SESSION, FILTER_REJECT};
    use crate::host::MockHost;
    use crate::manifest::ExtensionSpec;
    use std::sync::{PoisonError, RwLock};
    use xbgp_asm::assemble_with_symbols;

    impl Vmm {
        /// Override the default per-run instruction budget. Extensions
        /// whose manifest entry declares its own `fuel` keep that value.
        fn set_fuel(&mut self, fuel: u64) {
            self.vm_config = VmConfig { fuel };
        }
    }

    fn spec(name: &str, point: InsertionPoint, helpers: &[&str], src: &str) -> ExtensionSpec {
        let prog = assemble_with_symbols(src, &crate::api::abi_symbols()).expect("assembles");
        ExtensionSpec::from_program(name, "test_group", point, helpers, &prog)
    }

    /// [`VERIFY_LOADS`] is process-wide and `cargo test` runs this
    /// module's tests on parallel threads: every test loads its VMMs under
    /// the shared side of this lock (via [`from_manifest`]) and the
    /// counter test holds the exclusive side, so the deltas it asserts on
    /// contain only its own loads.
    static LOAD_LOCK: RwLock<()> = RwLock::new(());

    fn from_manifest(m: &Manifest) -> Result<Vmm, VmmError> {
        let _shared = LOAD_LOCK.read().unwrap_or_else(PoisonError::into_inner);
        Vmm::from_manifest(m)
    }

    fn load(specs: Vec<ExtensionSpec>) -> Vmm {
        let mut m = Manifest::new();
        for s in specs {
            m.push(s);
        }
        from_manifest(&m).expect("loads")
    }

    #[test]
    fn verify_load_counter_counts_per_vmm_not_per_run() {
        // One manifest, four VMMs: each load pays
        // one verify+pre-decode per extension; runs pay none.
        let mut m = Manifest::new();
        m.push(spec("a", InsertionPoint::BgpInboundFilter, &[], "mov r0, 1\nexit"));
        m.push(spec("b", InsertionPoint::BgpDecision, &[], "mov r0, 1\nexit"));
        let _exclusive = LOAD_LOCK.write().unwrap_or_else(PoisonError::into_inner);
        let before = verify_load_count();
        let mut vmms: Vec<Vmm> = (0..4).map(|_| Vmm::from_manifest(&m).expect("loads")).collect();
        assert_eq!(verify_load_count() - before, 4 * 2);
        let mut host = MockHost::default();
        for vmm in &mut vmms {
            for _ in 0..10 {
                vmm.run(InsertionPoint::BgpInboundFilter, &mut host);
            }
        }
        assert_eq!(verify_load_count() - before, 4 * 2, "runs never re-verify");
    }

    #[test]
    fn manifest_clones_share_bytecode_storage() {
        // A manifest cloned for each VMM built from it shares its Arc'd
        // bytecode, not duplicated.
        let mut m = Manifest::new();
        m.push(spec("a", InsertionPoint::BgpInboundFilter, &[], "mov r0, 1\nexit"));
        let clone = m.clone();
        assert!(std::sync::Arc::ptr_eq(&m.extensions[0].bytecode, &clone.extensions[0].bytecode));
    }

    #[test]
    fn empty_vmm_always_falls_back() {
        let mut vmm = Vmm::empty();
        let mut host = MockHost::default();
        for p in InsertionPoint::ALL {
            assert_eq!(vmm.run(p, &mut host), VmmOutcome::Fallback);
            assert!(!vmm.has_extensions(p));
        }
    }

    #[test]
    fn extension_value_is_returned() {
        let mut vmm =
            load(vec![spec("ret7", InsertionPoint::BgpInboundFilter, &[], "mov r0, 7\nexit")]);
        let mut host = MockHost::default();
        assert!(vmm.has_extensions(InsertionPoint::BgpInboundFilter));
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Value(7));
        // Other points still fall back.
        assert_eq!(vmm.run(InsertionPoint::BgpOutboundFilter, &mut host), VmmOutcome::Fallback);
    }

    #[test]
    fn next_chains_to_following_extension_then_native() {
        let first =
            spec("delegate", InsertionPoint::BgpInboundFilter, &["next"], "call next\nexit");
        let second = spec("answer", InsertionPoint::BgpInboundFilter, &[], "mov r0, 42\nexit");
        let mut vmm = load(vec![first.clone(), second]);
        let mut host = MockHost::default();
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Value(42));

        // A chain where everyone delegates falls back to native code.
        let mut vmm = load(vec![first.clone(), first]);
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Fallback);
    }

    #[test]
    fn faulting_extension_falls_back_and_is_recorded() {
        // Dereference an unmapped address.
        let mut vmm = load(vec![spec(
            "crasher",
            InsertionPoint::BgpInboundFilter,
            &[],
            "lddw r1, 0x999999999\nldxb r0, [r1]\nexit",
        )]);
        let mut host = MockHost::default();
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Fallback);
        let (name, err) = vmm.last_error().expect("error recorded");
        assert_eq!(name, "crasher");
        assert!(matches!(err, VmError::MemFault { .. }));
        assert_eq!(host.logs.len(), 1, "host notified of the error");
        assert!(host.logs[0].contains("crasher"));
        let stats = vmm.stats();
        assert_eq!(stats[0].runs, 1);
        assert_eq!(stats[0].errors, 1);
    }

    #[test]
    fn last_error_is_cleared_by_a_subsequent_successful_run() {
        let mut vmm = load(vec![
            spec(
                "crasher",
                InsertionPoint::BgpInboundFilter,
                &[],
                "lddw r1, 0x999999999\nldxb r0, [r1]\nexit",
            ),
            spec("ret7", InsertionPoint::BgpDecision, &[], "mov r0, 7\nexit"),
            spec("delegate", InsertionPoint::BgpOutboundFilter, &["next"], "call next\nexit"),
        ]);
        let mut host = MockHost::default();
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Fallback);
        assert!(vmm.last_error().is_some());

        // A later run that returns a value clears the stale diagnostic.
        assert_eq!(vmm.run(InsertionPoint::BgpDecision, &mut host), VmmOutcome::Value(7));
        assert!(vmm.last_error().is_none(), "cleared after a successful run");

        // A clean all-`next()` fallback is also a successful run.
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Fallback);
        assert!(vmm.last_error().is_some());
        assert_eq!(vmm.run(InsertionPoint::BgpOutboundFilter, &mut host), VmmOutcome::Fallback);
        assert!(vmm.last_error().is_none(), "cleared after a clean fallback");
    }

    #[test]
    fn metrics_snapshot_records_outcomes_and_faults() {
        let mut vmm = load(vec![
            spec(
                "crasher",
                InsertionPoint::BgpInboundFilter,
                &[],
                "lddw r1, 0x999999999\nldxb r0, [r1]\nexit",
            ),
            spec("ret7", InsertionPoint::BgpDecision, &[], "mov r0, 7\nexit"),
        ]);
        vmm.enable_metrics();
        let mut host = MockHost::default();
        assert_eq!(
            vmm.run(InsertionPoint::BgpInboundFilter, &mut host),
            VmmOutcome::Fallback,
            "fault falls back to native behaviour"
        );
        vmm.run(InsertionPoint::BgpDecision, &mut host);
        vmm.run(InsertionPoint::BgpDecision, &mut host);
        // A point with nothing attached still counts its (fallback) runs.
        vmm.run(InsertionPoint::BgpEncodeMessage, &mut host);

        let s = vmm.metrics_snapshot();
        let inbound = [("point", "bgp_inbound_filter")];
        assert_eq!(s.counter_value("xbgp_vmm_runs_total", &inbound), Some(1));
        assert_eq!(s.counter_value("xbgp_vmm_errors_total", &inbound), Some(1));
        assert_eq!(s.counter_value("xbgp_vmm_values_total", &inbound), Some(0));
        let decision = [("point", "bgp_decision")];
        assert_eq!(s.counter_value("xbgp_vmm_runs_total", &decision), Some(2));
        assert_eq!(s.counter_value("xbgp_vmm_values_total", &decision), Some(2));
        assert_eq!(
            s.counter_value("xbgp_vmm_fallbacks_total", &[("point", "bgp_encode_message")]),
            Some(1)
        );
        assert_eq!(
            s.counter_value("xbgp_vmm_extension_errors_total", &[("extension", "crasher")]),
            Some(1)
        );
        // `mov r0, 7; exit` is 2 instructions, run twice.
        assert_eq!(
            s.counter_value("xbgp_vmm_extension_insns_total", &[("extension", "ret7")]),
            Some(4)
        );
    }

    #[test]
    fn enabled_metrics_time_runs_and_count_helper_calls() {
        let mut vmm = load(vec![spec(
            "delegate",
            InsertionPoint::BgpInboundFilter,
            &["next"],
            "call next\nexit",
        )]);
        let labels = [("point", "bgp_inbound_filter")];
        assert!(
            vmm.metrics_snapshot()
                .histogram_value("xbgp_vmm_run_latency_ns", &labels)
                .is_none(),
            "no clock series before metrics are enabled"
        );
        vmm.enable_metrics();
        let mut host = MockHost::default();
        for _ in 0..3 {
            assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Fallback);
        }
        let stats = vmm.stats();
        assert_eq!(stats[0].runs, 3);
        assert_eq!(stats[0].fallbacks, 3);
        assert_eq!(stats[0].helper_calls, 3);
        // Only the `call next` instruction retires; `exit` is never reached.
        assert_eq!(stats[0].insns_retired, 3);

        let s = vmm.metrics_snapshot();
        assert_eq!(
            s.histogram_value("xbgp_vmm_run_latency_ns", &labels)
                .expect("latency histogram present when metrics are enabled")
                .count,
            3
        );
        assert_eq!(
            s.histogram_value("xbgp_vmm_extension_latency_ns", &[("extension", "delegate")])
                .expect("per-extension latency")
                .count,
            3
        );
    }

    #[test]
    fn runaway_extension_is_stopped() {
        let mut vmm =
            load(vec![spec("spinner", InsertionPoint::BgpDecision, &[], "loop: ja loop")]);
        vmm.set_fuel(10_000);
        let mut host = MockHost::default();
        assert_eq!(vmm.run(InsertionPoint::BgpDecision, &mut host), VmmOutcome::Fallback);
        assert!(matches!(vmm.last_error(), Some((_, VmError::FuelExhausted { .. }))));
    }

    #[test]
    fn verifier_enforces_declared_helpers() {
        // Program calls get_peer_info but only declares next.
        let prog =
            assemble_with_symbols("call get_peer_info\nexit", &crate::api::abi_symbols()).unwrap();
        let mut m = Manifest::new();
        m.push(ExtensionSpec::from_program(
            "sneaky",
            "g",
            InsertionPoint::BgpInboundFilter,
            &["next"],
            &prog,
        ));
        match from_manifest(&m) {
            Err(VmmError::Rejected { extension, error }) => {
                assert_eq!(extension, "sneaky");
                assert!(matches!(error, VerifyError::UnknownHelper { .. }));
            }
            Ok(_) => panic!("expected rejection, got a loaded VMM"),
            Err(other) => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn unknown_helper_name_in_manifest_rejected() {
        let prog = assemble_with_symbols("mov r0, 0\nexit", &crate::api::abi_symbols()).unwrap();
        let mut m = Manifest::new();
        m.push(ExtensionSpec::from_program(
            "x",
            "g",
            InsertionPoint::BgpInboundFilter,
            &["frobnicate"],
            &prog,
        ));
        assert!(matches!(from_manifest(&m), Err(VmmError::UnknownHelperName { .. })));
    }

    #[test]
    fn peer_info_reaches_extension() {
        // Return the peer type read through get_peer_info.
        let src = r"
            call get_peer_info
            ldxw r0, [r0+PEER_INFO_OFF_TYPE]
            exit
        ";
        let mut vmm = load(vec![spec(
            "peer_type",
            InsertionPoint::BgpInboundFilter,
            &["get_peer_info"],
            src,
        )]);
        let mut host = MockHost::default();
        host.peer.peer_type = PeerType::Ebgp;
        assert_eq!(
            vmm.run(InsertionPoint::BgpInboundFilter, &mut host),
            VmmOutcome::Value(EBGP_SESSION)
        );
        host.peer.peer_type = PeerType::Ibgp;
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Value(0));
    }

    #[test]
    fn nexthop_metric_filter_like_listing_1() {
        // The paper's Listing 1 shape: reject eBGP routes whose nexthop
        // IGP metric exceeds 1000, else next().
        let src = r"
            .equ MAX_METRIC, 1000
            call get_peer_info
            ldxw r6, [r0+PEER_INFO_OFF_TYPE]
            jeq r6, EBGP_SESSION, ebgp
            call next
        ebgp:
            call get_nexthop
            jeq r0, 0, reject
            ldxw r7, [r0+NEXTHOP_OFF_IGP_METRIC]
            jgt r7, MAX_METRIC, reject
            call next
        reject:
            mov r0, FILTER_REJECT
            exit
        ";
        let mut vmm = load(vec![spec(
            "export_igp",
            InsertionPoint::BgpOutboundFilter,
            &["get_peer_info", "get_nexthop", "next"],
            src,
        )]);
        let mut host = MockHost::default();
        host.peer.peer_type = PeerType::Ebgp;
        host.nexthop = Some(NextHopInfo { addr: 1, igp_metric: 2000, reachable: true });
        assert_eq!(
            vmm.run(InsertionPoint::BgpOutboundFilter, &mut host),
            VmmOutcome::Value(FILTER_REJECT)
        );
        host.nexthop = Some(NextHopInfo { addr: 1, igp_metric: 10, reachable: true });
        assert_eq!(vmm.run(InsertionPoint::BgpOutboundFilter, &mut host), VmmOutcome::Fallback);
        host.peer.peer_type = PeerType::Ibgp;
        host.nexthop = Some(NextHopInfo { addr: 1, igp_metric: 2000, reachable: true });
        assert_eq!(
            vmm.run(InsertionPoint::BgpOutboundFilter, &mut host),
            VmmOutcome::Fallback,
            "iBGP sessions are not filtered"
        );
    }

    #[test]
    fn attributes_read_and_written_through_host() {
        // Read LOCAL_PREF (4 bytes NBO) into the stack, add 10, set it back.
        let src = r"
            mov r6, r10
            sub r6, 8
            mov r1, ATTR_LOCAL_PREF
            mov r2, r6
            mov r3, 4
            call get_attr
            jeq r0, -1, fail
            ldxw r1, [r6]
            be32 r1            ; wire is big-endian; make it host order
            add r1, 10
            be32 r1            ; back to network order
            stxw [r6], r1
            mov r1, ATTR_LOCAL_PREF
            mov r2, ATTR_FLAGS_WELL_KNOWN
            mov r3, r6
            mov r4, 4
            call set_attr
            mov r0, 0
            exit
        fail:
            mov r0, 1
            exit
        ";
        let mut vmm = load(vec![spec(
            "bump_pref",
            InsertionPoint::BgpInboundFilter,
            &["get_attr", "set_attr"],
            src,
        )]);
        let mut host = MockHost::default();
        host.attrs.push((5, 0x40, 100u32.to_be_bytes().to_vec()));
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Value(0));
        assert_eq!(host.attrs[0].2, 110u32.to_be_bytes().to_vec());
    }

    #[test]
    fn add_attr_fails_when_attribute_exists() {
        let src = r"
            mov r1, 66
            mov r2, ATTR_FLAGS_OPT_TRANS
            mov r3, r10
            sub r3, 8
            stdw [r10-8], 0
            mov r4, 8
            call add_attr
            exit
        ";
        let mut vmm =
            load(vec![spec("adder", InsertionPoint::BgpReceiveMessage, &["add_attr"], src)]);
        let mut host = MockHost::default();
        assert_eq!(vmm.run(InsertionPoint::BgpReceiveMessage, &mut host), VmmOutcome::Value(0));
        assert_eq!(host.attrs.len(), 1);
        assert_eq!(host.attrs[0].0, 66);
        // Second add fails: attribute already present.
        assert_eq!(
            vmm.run(InsertionPoint::BgpReceiveMessage, &mut host),
            VmmOutcome::Value(api::XBGP_FAIL)
        );
        assert_eq!(host.attrs.len(), 1);
    }

    /// `set_attr(66, <8 zero bytes>)` then dereference an unmapped address.
    const STAGE_THEN_TRAP: &str = r"
        mov r1, 66
        mov r2, ATTR_FLAGS_OPT_TRANS
        mov r3, r10
        sub r3, 8
        stdw [r10-8], 0
        mov r4, 8
        call set_attr
        mov r1, 66
        mov r2, ATTR_FLAGS_OPT_TRANS
        mov r3, r10
        sub r3, 8
        mov r4, 8
        call set_attr
        lddw r1, 0x999999999
        ldxb r0, [r1]
        exit
    ";

    #[test]
    fn trap_after_staged_mutations_rolls_back_host() {
        let mut vmm = load(vec![spec(
            "stage_then_trap",
            InsertionPoint::BgpInboundFilter,
            &["set_attr"],
            STAGE_THEN_TRAP,
        )]);
        let mut host = MockHost::default();
        host.attrs.push((5, 0x40, 100u32.to_be_bytes().to_vec()));
        let native = host.attrs.clone();
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Fallback);
        assert_eq!(host.attrs, native, "staged set_attr never reached the host");
        assert!(host.out_buf.is_empty());
        // Fault-path counters count even with metrics disabled.
        let s = vmm.metrics_snapshot();
        let inbound = [("point", "bgp_inbound_filter")];
        assert_eq!(s.counter_value("xbgp_vmm_rollbacks_total", &inbound), Some(1));
        assert_eq!(s.counter_value("xbgp_vmm_errors_total", &inbound), Some(1));
    }

    #[test]
    fn chain_reads_see_staged_writes_and_commit_on_value() {
        // First extension stages attribute 66 = [7, 0, ...] and delegates;
        // the second reads it back through get_attr (served from the
        // transaction overlay) and returns its first byte.
        let writer_src = r"
            mov r1, 66
            mov r2, ATTR_FLAGS_OPT_TRANS
            mov r3, r10
            sub r3, 8
            stdw [r10-8], 7
            mov r4, 8
            call add_attr
            call next
            exit
        ";
        let reader_src = r"
            mov r1, 66
            mov r2, r10
            sub r2, 8
            mov r3, 8
            call get_attr
            jeq r0, -1, missing
            ldxb r0, [r10-8]
            exit
        missing:
            mov r0, 255
            exit
        ";
        let mut vmm = load(vec![
            spec("writer", InsertionPoint::BgpInboundFilter, &["add_attr", "next"], writer_src),
            spec("reader", InsertionPoint::BgpInboundFilter, &["get_attr"], reader_src),
        ]);
        let mut host = MockHost::default();
        assert_eq!(
            vmm.run(InsertionPoint::BgpInboundFilter, &mut host),
            VmmOutcome::Value(7),
            "reader saw the writer's staged attribute"
        );
        assert_eq!(host.attrs.len(), 1, "value outcome committed the staged write");
        assert_eq!(host.attrs[0].0, 66);
    }

    #[test]
    fn staged_writes_commit_on_clean_all_next_fallback() {
        let writer_src = r"
            mov r1, 66
            mov r2, ATTR_FLAGS_OPT_TRANS
            mov r3, r10
            sub r3, 8
            stdw [r10-8], 7
            mov r4, 8
            call add_attr
            call next
            exit
        ";
        let mut vmm = load(vec![spec(
            "writer",
            InsertionPoint::BgpInboundFilter,
            &["add_attr", "next"],
            writer_src,
        )]);
        let mut host = MockHost::default();
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Fallback);
        assert_eq!(host.attrs.len(), 1, "clean delegation is a committing outcome");
    }

    #[test]
    fn quarantine_trips_after_consecutive_faults() {
        let mut vmm = load(vec![spec(
            "crasher",
            InsertionPoint::BgpInboundFilter,
            &[],
            "lddw r1, 0x999999999\nldxb r0, [r1]\nexit",
        )]);
        let mut host = MockHost::default();
        for _ in 0..QUARANTINE_THRESHOLD {
            assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Fallback);
        }
        let stats = vmm.stats();
        assert!(stats[0].quarantined);
        assert_eq!(stats[0].runs, u64::from(QUARANTINE_THRESHOLD));
        assert!(
            !vmm.has_extensions(InsertionPoint::BgpInboundFilter),
            "chain re-cached without it"
        );
        assert!(
            host.logs.iter().any(|l| l.contains("quarantined")),
            "host told about the quarantine"
        );
        // Further runs never dispatch the quarantined extension.
        vmm.run(InsertionPoint::BgpInboundFilter, &mut host);
        assert_eq!(vmm.stats()[0].runs, u64::from(QUARANTINE_THRESHOLD));
        let s = vmm.metrics_snapshot();
        assert_eq!(s.counter_value("xbgp_vmm_quarantines_total", &[]), Some(1));
        assert_eq!(
            s.counter_value("xbgp_vmm_extension_quarantined", &[("extension", "crasher")]),
            Some(1)
        );
    }

    /// The per-point answer is cached at load, follows the chain through
    /// quarantine, and a faulting run is visible in `faults` although its
    /// outcome is the same `Fallback` a clean delegation returns.
    #[test]
    fn prefix_freedom_is_cached_per_point_and_follows_quarantine() {
        let point = InsertionPoint::BgpInboundFilter;
        let reader =
            spec("reader", point, &["get_prefix", "next"], "call get_prefix\ncall next\nexit");
        let crasher =
            spec("crasher", point, &["get_prefix"], "lddw r1, 0x999999999\nldxb r0, [r1]\nexit");
        let free = spec("free", InsertionPoint::BgpOutboundFilter, &["next"], "call next\nexit");
        let vmm = load(vec![reader, free]);
        assert!(!vmm.prefix_free(point));
        assert!(vmm.prefix_free(InsertionPoint::BgpOutboundFilter));
        assert!(vmm.prefix_free(InsertionPoint::BgpDecision), "an empty chain");

        let mut vmm = load(vec![crasher]);
        let mut host = MockHost::default();
        for k in 1..=u64::from(QUARANTINE_THRESHOLD) {
            assert!(!vmm.prefix_free(point));
            assert_eq!(vmm.run(point, &mut host), VmmOutcome::Fallback);
            assert_eq!(vmm.faults(point), k);
        }
        assert!(vmm.prefix_free(point), "re-cached without the quarantined program");
        assert_eq!(vmm.run(point, &mut host), VmmOutcome::Fallback);
        assert_eq!(vmm.faults(point), u64::from(QUARANTINE_THRESHOLD));
    }

    /// A program group's persistent space is mapped only into runs of a
    /// program granted `ctx_shared_*`: a forged address reaches nothing
    /// without the grant, so such a program keeps no state there.
    #[test]
    fn shared_space_is_mapped_only_with_the_grant() {
        let point = InsertionPoint::BgpInboundFilter;
        let owner = spec(
            "owner",
            point,
            &["ctx_shared_malloc", "next"],
            "mov r1, 1\nmov r2, 8\ncall ctx_shared_malloc\njeq r0, 0, +1\nstdw [r0+0], 7
             call next\nexit",
        );
        let forger = spec(
            "forger",
            point,
            &["next"],
            "lddw r1, 0x40000000\nldxdw r6, [r1+0]\ncall next\nexit",
        );
        let mut vmm = load(vec![owner, forger]);
        let mut host = MockHost::default();
        assert_eq!(vmm.run(point, &mut host), VmmOutcome::Fallback);
        assert_eq!(vmm.shared_read("test_group", 1), Some(7u64.to_le_bytes().to_vec()));
        let stats = vmm.stats();
        assert_eq!((stats[0].errors, stats[1].errors), (0, 1), "the forged load faulted");
        assert!(matches!(vmm.last_error(), Some(("forger", VmError::MemFault { .. }))));
    }

    #[test]
    fn clean_run_resets_the_fault_streak() {
        // A bounded loop: faults under a tiny budget, returns under a
        // large one — lets the test alternate outcomes via set_fuel.
        let src = r"
            mov r1, 100
        loop:
            sub r1, 1
            jne r1, 0, loop
            mov r0, 0
            exit
        ";
        let mut vmm = load(vec![spec("bounded", InsertionPoint::BgpDecision, &[], src)]);
        let mut host = MockHost::default();
        vmm.set_fuel(10);
        for _ in 0..QUARANTINE_THRESHOLD - 1 {
            assert_eq!(vmm.run(InsertionPoint::BgpDecision, &mut host), VmmOutcome::Fallback);
        }
        vmm.set_fuel(1_000_000);
        assert_eq!(vmm.run(InsertionPoint::BgpDecision, &mut host), VmmOutcome::Value(0));
        vmm.set_fuel(10);
        for _ in 0..QUARANTINE_THRESHOLD - 1 {
            assert_eq!(vmm.run(InsertionPoint::BgpDecision, &mut host), VmmOutcome::Fallback);
        }
        assert!(!vmm.stats()[0].quarantined, "the clean run reset the streak");
        assert!(vmm.has_extensions(InsertionPoint::BgpDecision));
        vmm.run(InsertionPoint::BgpDecision, &mut host);
        assert!(vmm.stats()[0].quarantined, "the streak completed after the reset");
    }

    #[test]
    fn abort_policy_fails_closed_instead_of_falling_back() {
        let mut s = spec(
            "strict",
            InsertionPoint::BgpInboundFilter,
            &[],
            "lddw r1, 0x999999999\nldxb r0, [r1]\nexit",
        );
        s.on_fault = crate::policy::OnFault::Abort;
        let mut vmm = load(vec![s]);
        let mut host = MockHost::default();
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Aborted);
        let snap = vmm.metrics_snapshot();
        let inbound = [("point", "bgp_inbound_filter")];
        assert_eq!(snap.counter_value("xbgp_vmm_aborts_total", &inbound), Some(1));
        assert_eq!(snap.counter_value("xbgp_vmm_errors_total", &inbound), Some(1));
    }

    #[test]
    fn manifest_fuel_override_beats_the_vmm_default() {
        let mut s = spec("spinner", InsertionPoint::BgpDecision, &[], "loop: ja loop");
        s.fuel = Some(50);
        let mut vmm = load(vec![s]);
        vmm.set_fuel(u64::MAX); // the global default must not apply
        let mut host = MockHost::default();
        assert_eq!(vmm.run(InsertionPoint::BgpDecision, &mut host), VmmOutcome::Fallback);
        assert!(matches!(vmm.last_error(), Some((_, VmError::FuelExhausted { .. }))));
    }

    #[test]
    fn mem_cap_limits_ephemeral_allocation() {
        // ctx_malloc(arena - 64), then ctx_malloc(64) twice; returns how
        // many came back non-null.
        let src = format!(
            r"
            mov r6, 0
            mov r1, {}
            call ctx_malloc
            jeq r0, 0, second
            add r6, 1
        second:
            mov r1, 64
            call ctx_malloc
            jeq r0, 0, third
            add r6, 1
        third:
            mov r1, 64
            call ctx_malloc
            jeq r0, 0, done
            add r6, 1
        done:
            mov r0, r6
            exit
        ",
            HEAP_SIZE - 64
        );
        let mut vmm =
            load(vec![spec("allocator", InsertionPoint::BgpDecision, &["ctx_malloc"], &src)]);
        let mut host = MockHost::default();
        for _ in 0..2 {
            assert_eq!(
                vmm.run(InsertionPoint::BgpDecision, &mut host),
                VmmOutcome::Value(2),
                "the third allocation exceeds the arena; every run starts with all of it"
            );
        }
    }

    #[test]
    fn read_only_attr_write_is_a_hard_fault_with_rollback() {
        // Stage one good write, then hit a denied code: the whole
        // transaction — including the good write — must roll back.
        let src = r"
            mov r1, 66
            mov r2, ATTR_FLAGS_OPT_TRANS
            mov r3, r10
            sub r3, 8
            stdw [r10-8], 0
            mov r4, 8
            call set_attr
            mov r1, 5
            mov r2, ATTR_FLAGS_WELL_KNOWN
            mov r3, r10
            sub r3, 8
            mov r4, 4
            call set_attr
            mov r0, 0
            exit
        ";
        let mut vmm =
            load(vec![spec("toucher", InsertionPoint::BgpInboundFilter, &["set_attr"], src)]);
        let mut host = MockHost { deny_attrs: vec![5], ..MockHost::default() };
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Fallback);
        let (name, err) = vmm.last_error().expect("hard fault recorded");
        assert_eq!(name, "toucher");
        match err {
            VmError::HelperFault { reason, .. } => {
                assert!(reason.contains("read-only"), "typed reason surfaced: {reason}")
            }
            other => panic!("expected HelperFault, got {other:?}"),
        }
        assert!(host.attrs.is_empty(), "the staged attribute 66 rolled back too");
    }

    #[test]
    fn xtra_lookup_prefers_host_then_manifest() {
        let src = r#"
            mov r1, r10
            sub r1, 8
            stb [r10-8], 107   ; 'k'
            mov r2, 1
            mov r3, r10
            sub r3, 16
            mov r4, 8
            call get_xtra
            jeq r0, -1, missing
            ldxb r0, [r10-16]
            exit
        missing:
            mov r0, 255
            exit
        "#;
        let prog = assemble_with_symbols(src, &crate::api::abi_symbols()).unwrap();
        let mut m = Manifest::new();
        m.push(ExtensionSpec::from_program(
            "xtra_reader",
            "g",
            InsertionPoint::BgpInboundFilter,
            &["get_xtra"],
            &prog,
        ));
        m.set_xtra("k", vec![9]);
        let mut vmm = from_manifest(&m).unwrap();

        // Manifest data is visible...
        let mut host = MockHost::default();
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Value(9));
        // ...but host configuration shadows it.
        host.xtra.push(("k".into(), vec![3]));
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Value(3));
    }

    #[test]
    fn shared_memory_persists_within_a_group_and_is_isolated_across_groups() {
        // One extension stores a counter in shared memory; a second
        // extension of the same group increments it. A third extension in
        // a different group must not see the allocation.
        let writer = r"
            mov r1, 1          ; key
            mov r2, 8
            call ctx_shared_malloc
            jeq r0, 0, already
            stdw [r0], 100
            mov r0, 0
            exit
        already:
            mov r1, 1
            call ctx_shared_get
            ldxdw r2, [r0]
            add r2, 1
            stxdw [r0], r2
            mov r0, r2
            exit
        ";
        let probe = r"
            mov r1, 1
            call ctx_shared_get
            exit
        ";
        let w = spec(
            "writer",
            InsertionPoint::BgpInboundFilter,
            &["ctx_shared_malloc", "ctx_shared_get"],
            writer,
        );
        let probe_prog = assemble_with_symbols(probe, &crate::api::abi_symbols()).unwrap();
        let other = ExtensionSpec::from_program(
            "other_group_probe",
            "another_group",
            InsertionPoint::BgpOutboundFilter,
            &["ctx_shared_get"],
            &probe_prog,
        );
        let mut vmm = load(vec![w, other]);
        let mut host = MockHost::default();
        // First run allocates and stores 100.
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Value(0));
        // Second run sees the persisted value and increments it.
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Value(101));
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Value(102));
        // The other group's probe finds nothing under the same key.
        assert_eq!(vmm.run(InsertionPoint::BgpOutboundFilter, &mut host), VmmOutcome::Value(0));
    }

    #[test]
    fn ephemeral_heap_is_cleared_between_runs() {
        // Allocate, write a sentinel, return the previous content: always 0.
        let src = r"
            mov r1, 64
            call ctx_malloc
            ldxdw r6, [r0]     ; previous content
            lddw r2, 0xdeadbeefdeadbeef
            stxdw [r0], r2
            mov r0, r6
            exit
        ";
        let mut vmm =
            load(vec![spec("heap_probe", InsertionPoint::BgpInboundFilter, &["ctx_malloc"], src)]);
        let mut host = MockHost::default();
        for _ in 0..3 {
            assert_eq!(
                vmm.run(InsertionPoint::BgpInboundFilter, &mut host),
                VmmOutcome::Value(0),
                "ephemeral memory must be freed and zeroed after each run"
            );
        }
    }

    #[test]
    fn write_buf_and_print_reach_host() {
        let src = r#"
            stb [r10-4], 0xab
            stb [r10-3], 0xcd
            mov r1, r10
            sub r1, 4
            mov r2, 2
            call write_buf
            mov r1, r10
            sub r1, 4
            mov r2, 2
            call ebpf_print
            mov r0, 0
            exit
        "#;
        let mut vmm = load(vec![spec(
            "writer",
            InsertionPoint::BgpEncodeMessage,
            &["write_buf", "ebpf_print"],
            src,
        )]);
        let mut host = MockHost::default();
        assert_eq!(vmm.run(InsertionPoint::BgpEncodeMessage, &mut host), VmmOutcome::Value(0));
        assert_eq!(host.out_buf, vec![0xab, 0xcd]);
        assert_eq!(host.logs.len(), 1);
    }

    #[test]
    fn byte_order_helpers() {
        let src = r"
            mov r1, 0x11223344
            call bpf_htonl
            exit
        ";
        let mut vmm = load(vec![spec("swap", InsertionPoint::BgpDecision, &["bpf_htonl"], src)]);
        let mut host = MockHost::default();
        assert_eq!(
            vmm.run(InsertionPoint::BgpDecision, &mut host),
            VmmOutcome::Value(u64::from(0x1122_3344u32.swap_bytes()))
        );
    }

    #[test]
    fn rov_helper_consults_host() {
        let src = r"
            mov r1, 0x0a000000 ; 10.0.0.0
            mov r2, 8
            mov r3, 65001
            call rpki_check_origin
            exit
        ";
        let mut vmm =
            load(vec![spec("rov", InsertionPoint::BgpInboundFilter, &["rpki_check_origin"], src)]);
        let mut host = MockHost { rov_answer: api::ROV_INVALID, ..Default::default() };
        assert_eq!(
            vmm.run(InsertionPoint::BgpInboundFilter, &mut host),
            VmmOutcome::Value(api::ROV_INVALID)
        );
    }

    #[test]
    fn get_arg_copies_message_bytes() {
        let src = r"
            mov r1, 0          ; arg index
            call arg_len
            jeq r0, -1, fail
            mov r6, r0         ; length
            mov r1, 0
            mov r2, r10
            sub r2, 16
            mov r3, 16
            call get_arg
            jeq r0, -1, fail
            ldxb r0, [r10-16]  ; first byte of the message
            exit
        fail:
            mov r0, 255
            exit
        ";
        let mut vmm = load(vec![spec(
            "arg_reader",
            InsertionPoint::BgpReceiveMessage,
            &["get_arg", "arg_len"],
            src,
        )]);
        let mut host = MockHost::default();
        host.args.push(vec![0x42, 1, 2, 3]);
        assert_eq!(vmm.run(InsertionPoint::BgpReceiveMessage, &mut host), VmmOutcome::Value(0x42));
        // Without an argument the helpers report failure.
        host.args.clear();
        assert_eq!(vmm.run(InsertionPoint::BgpReceiveMessage, &mut host), VmmOutcome::Value(255));
    }

    #[test]
    fn prefix_helper_marshals_route_prefix() {
        let src = r"
            call get_prefix
            jeq r0, 0, missing
            ldxw r1, [r0+PREFIX_OFF_LEN]
            ldxw r0, [r0+PREFIX_OFF_ADDR]
            add r0, r1
            exit
        missing:
            mov r0, 0
            exit
        ";
        let mut vmm = load(vec![spec(
            "prefix_reader",
            InsertionPoint::BgpInboundFilter,
            &["get_prefix"],
            src,
        )]);
        let mut host = MockHost {
            prefix: Some("10.0.0.0/8".parse().unwrap()),
            ..Default::default()
        };
        assert_eq!(
            vmm.run(InsertionPoint::BgpInboundFilter, &mut host),
            VmmOutcome::Value(0x0a00_0000 + 8)
        );
    }

    #[test]
    fn rib_add_route_uses_hidden_context() {
        let src = r"
            mov r1, 0x0a010000
            mov r2, 16
            mov r3, 0x0a000001
            call rib_add_route
            exit
        ";
        let mut vmm = load(vec![spec(
            "installer",
            InsertionPoint::BgpReceiveMessage,
            &["rib_add_route"],
            src,
        )]);
        let mut host = MockHost::default();
        assert_eq!(vmm.run(InsertionPoint::BgpReceiveMessage, &mut host), VmmOutcome::Value(0));
        assert_eq!(host.rib, vec![("10.1.0.0/16".parse().unwrap(), 0x0a00_0001)]);
    }

    /// Stage `add_attr(66, ..)` and return a value, so the trace shows a
    /// full enter → helper → stage → commit → exit flow.
    const STAGE_THEN_VALUE: &str = r"
        mov r1, 66
        mov r2, ATTR_FLAGS_OPT_TRANS
        mov r3, r10
        sub r3, 8
        stdw [r10-8], 7
        mov r4, 8
        call add_attr
        mov r0, 1
        exit
    ";

    #[test]
    fn trace_records_the_point_helper_and_commit_flow() {
        use xbgp_obs::trace::pack_prefix;

        let mut vmm = load(vec![spec(
            "writer",
            InsertionPoint::BgpInboundFilter,
            &["add_attr"],
            STAGE_THEN_VALUE,
        )]);
        vmm.enable_trace(TraceConfig { sample_every: 1, capacity: 0, shard: 0 });
        let mut host = MockHost::default();

        let t = vmm.tracer_mut().expect("tracing enabled");
        t.set_now(50);
        let tid = t.on_ingest(9, 1);
        assert!(t.begin_route(pack_prefix(0x0a01_0000, 16)), "1-in-1 samples everything");
        assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Value(1));
        vmm.tracer_mut().unwrap().end_route();

        let dump = vmm.take_trace().expect("dump available");
        let kinds: Vec<TraceKind> = dump.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Ingest,
                TraceKind::Decode,
                TraceKind::PointEnter,
                TraceKind::HelperCall,
                TraceKind::TxnStage,
                TraceKind::TxnCommit,
                TraceKind::PointExit,
            ]
        );
        assert!(dump.events.iter().all(|e| e.trace_id == tid), "whole flow carries the scope id");
        let helper_ev = &dump.events[3];
        assert_eq!(helper_ev.a, u64::from(helper::ADD_ATTR));
        assert_eq!(dump.ext_names[usize::from(helper_ev.ext)], "writer");
        let stage = &dump.events[4];
        assert_eq!((stage.a, stage.b), (2, 66), "add op staged attribute 66");
        assert_eq!(dump.events[5].a, 1, "one staged op committed");
        assert_eq!(dump.events[6].a, 0, "value outcome");

        // The next route is unsampled under 1-in-2: nothing is recorded.
        let mut vmm2 = load(vec![spec(
            "writer",
            InsertionPoint::BgpInboundFilter,
            &["add_attr"],
            STAGE_THEN_VALUE,
        )]);
        vmm2.enable_trace(TraceConfig { sample_every: 2, capacity: 0, shard: 0 });
        let t = vmm2.tracer_mut().unwrap();
        t.on_ingest(9, 2);
        assert!(t.begin_route(1), "route 0 sampled");
        vmm2.run(InsertionPoint::BgpInboundFilter, &mut host);
        let before = vmm2.tracer_mut().unwrap().total_recorded();
        assert!(!vmm2.tracer_mut().unwrap().begin_route(2), "route 1 skipped");
        vmm2.run(InsertionPoint::BgpInboundFilter, &mut host);
        assert_eq!(
            vmm2.tracer_mut().unwrap().total_recorded(),
            before,
            "unsampled route recorded nothing"
        );
    }

    #[test]
    fn fault_postmortem_names_the_pc_and_insertion_point() {
        // The e2e contract for the flight recorder: quarantine an
        // extension and check the postmortem pins the faulting pc, the
        // insertion point, and the lead-up events.
        let mut vmm = load(vec![spec(
            "stage_then_trap",
            InsertionPoint::BgpInboundFilter,
            &["set_attr"],
            STAGE_THEN_TRAP,
        )]);
        vmm.enable_trace(TraceConfig { sample_every: 1, capacity: 0, shard: 3 });
        let mut host = MockHost::default();
        host.attrs.push((5, 0x40, 100u32.to_be_bytes().to_vec()));
        for i in 0..QUARANTINE_THRESHOLD {
            let t = vmm.tracer_mut().unwrap();
            t.set_now(u64::from(i) * 100);
            t.on_ingest(7, 1);
            t.begin_route(1);
            assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Fallback);
            vmm.tracer_mut().unwrap().end_route();
        }

        let dump = vmm.take_trace().expect("dump available");
        assert_eq!(dump.postmortems.len(), QUARANTINE_THRESHOLD as usize);
        let pm = dump.postmortems.last().unwrap();
        assert_eq!(pm.extension, "stage_then_trap");
        assert_eq!(pm.point, point_index(InsertionPoint::BgpInboundFilter) as u8);
        assert!(pm.quarantined, "final fault tripped the breaker");
        // STAGE_THEN_TRAP faults at the `ldxb` after two `set_attr` calls
        // and a two-slot `lddw`: original slot 15.
        assert_eq!(pm.pc, Some(15));
        assert!(pm.error.contains("memory fault"), "VmError display form: {}", pm.error);
        assert_ne!(pm.trace_id, 0, "fault happened inside a route scope");

        // The trailing events reconstruct the lead-up: the staged helper
        // calls, the rollback of the staged writes, and the fault itself.
        let kinds: Vec<TraceKind> = pm.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceKind::HelperCall));
        assert!(kinds.contains(&TraceKind::TxnRollback));
        assert!(kinds.contains(&TraceKind::Fault));
        assert!(kinds.contains(&TraceKind::Quarantine), "breaker event captured");
        assert!(pm.events.len() <= xbgp_obs::trace::POSTMORTEM_EVENTS);
        let fault_ev = pm.events.iter().find(|e| e.kind == TraceKind::Fault).unwrap();
        assert_eq!(fault_ev.a, 15, "fault event carries the pc");
        assert_eq!(fault_ev.b, 1, "MemFault error code");
        let rollback = pm.events.iter().find(|e| e.kind == TraceKind::TxnRollback).unwrap();
        assert_eq!(rollback.a, 1, "one staged op (set then restaged) was discarded");

        // Quarantine metrics still line up with the trace.
        let s = vmm.metrics_snapshot();
        assert_eq!(s.counter_value("xbgp_vmm_quarantines_total", &[]), Some(1));
    }

    /// A faulting counted-loop program with elidable stack traffic and a
    /// staged attribute write: toggling check elision must leave every
    /// observable — outcomes, staged host mutations, per-extension
    /// metrics — byte-identical (DESIGN.md §4i).
    #[test]
    fn check_elision_ablation_is_invisible_through_the_vmm() {
        const LOOP_STAGE_TRAP: &str = "\
        mov r6, 0
        mov r7, 8
loop:   stxdw [r10-8], r7
        ldxdw r1, [r10-8]
        add r6, r1
        add r7, -1
        jne r7, 0, loop
        mov r1, 99
        mov r2, ATTR_FLAGS_OPT_TRANS
        mov r3, r10
        sub r3, 8
        stxdw [r10-8], r6
        mov r4, 8
        call set_attr
        jne r6, 36, done
        lddw r1, 0x999999999
        ldxb r0, [r1]
done:   mov r0, r6
        exit";
        let make = || {
            load(vec![spec(
                "abl",
                InsertionPoint::BgpInboundFilter,
                &["set_attr"],
                LOOP_STAGE_TRAP,
            )])
        };
        let mut on = make();
        let mut off = make();
        off.set_check_elision(false);
        on.enable_metrics();
        off.enable_metrics();
        let mut host_on = MockHost::default();
        let mut host_off = MockHost::default();
        for _ in 0..5 {
            let a = on.run(InsertionPoint::BgpInboundFilter, &mut host_on);
            let b = off.run(InsertionPoint::BgpInboundFilter, &mut host_off);
            assert_eq!(a, b, "outcome diverged");
        }
        // The sum 8+7+..+1 = 36 trips the trap, so the staged write is
        // rolled back every run: the host must have seen nothing.
        assert_eq!(host_on.attrs, host_off.attrs);
        assert!(host_on.attrs.is_empty(), "rollback erased the staged attr");
        assert_eq!(on.stats(), off.stats(), "metrics diverged");
        assert!(on.stats()[0].insns_retired > 0, "metrics were actually recorded");
    }

    /// Metrics give each layer of a run one clock — the chain, each
    /// extension, each helper call — and the `xbgp_prof_*` series are
    /// derived from those clocks, not from clocks of their own.
    #[test]
    fn profiler_exports_fuel_and_helper_series() {
        let mut vmm = load(vec![
            spec("writer", InsertionPoint::BgpInboundFilter, &["add_attr"], STAGE_THEN_VALUE),
            spec("ret7", InsertionPoint::BgpDecision, &[], "mov r0, 7\nexit"),
        ]);
        vmm.enable_metrics();
        let mut host = MockHost::default();
        for _ in 0..4 {
            assert_eq!(vmm.run(InsertionPoint::BgpInboundFilter, &mut host), VmmOutcome::Value(1));
            vmm.run(InsertionPoint::BgpDecision, &mut host);
        }
        let s = vmm.metrics_snapshot();
        assert_eq!(
            s.counter_value("xbgp_prof_helper_calls_total", &[("helper", "add_attr")]),
            Some(4)
        );
        let helper_ns = s
            .counter_value("xbgp_prof_helper_ns_total", &[("helper", "add_attr")])
            .expect("latency attributed per helper");
        assert!(
            s.find("xbgp_prof_helper_calls_total", &[("helper", "get_attr")]).is_none(),
            "only called helpers are exported"
        );
        assert_eq!(
            s.counter_sum("xbgp_prof_helper_calls_total"),
            s.counter_sum("xbgp_vmm_extension_helper_calls_total"),
            "the dispatcher and the interpreter count the same calls"
        );

        for (ext, point) in [("writer", "bgp_inbound_filter"), ("ret7", "bgp_decision")] {
            let labels = [("point", point)];
            let ext_ns = s
                .histogram_value("xbgp_vmm_extension_latency_ns", &[("extension", ext)])
                .expect("per-extension latency")
                .sum;
            let vm = s.counter_value("xbgp_prof_point_vm_ns_total", &labels).unwrap();
            let helper = s.counter_value("xbgp_prof_point_helper_ns_total", &labels).unwrap();
            assert_eq!(vm + helper, ext_ns, "{point}: VM + helper time is the extension clock");
            let fuel = s
                .histogram_value("xbgp_prof_fuel", &[("extension", ext)])
                .expect("per-extension fuel histogram");
            let runs = s.counter_value("xbgp_vmm_extension_runs_total", &[("extension", ext)]);
            assert_eq!(Some(fuel.count), runs, "{ext}: one fuel sample per run");
        }
        assert_eq!(
            s.counter_value("xbgp_prof_point_helper_ns_total", &[("point", "bgp_inbound_filter")]),
            Some(helper_ns),
            "one helper at the point: its time is the point's helper time"
        );
        // STAGE_THEN_VALUE retires 9 instructions per run.
        let fuel = s.histogram_value("xbgp_prof_fuel", &[("extension", "writer")]).unwrap();
        assert_eq!(fuel.sum, 4 * 9);

        // Metrics off: no xbgp_prof_* series in the snapshot.
        let mut vmm = load(vec![spec(
            "writer",
            InsertionPoint::BgpInboundFilter,
            &["add_attr"],
            STAGE_THEN_VALUE,
        )]);
        vmm.run(InsertionPoint::BgpInboundFilter, &mut MockHost::default());
        let s = vmm.metrics_snapshot();
        assert!(!s.metrics.iter().any(|m| m.name.starts_with("xbgp_prof_")));
    }
}
