//! The layer replay: public functions of each layer, timed from here over
//! the *same* generated inputs the cells ran on.
//!
//! A row is the median over a few passes of (wall ns of one pass over all
//! inputs) ÷ (calls in the pass). Each pass is one span. Nothing inside
//! the program is instrumented; what these rows do not add up to is
//! reported as `ledger.coverage`.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use bgp_fir::attrs::{AttrInternTable, FirAttrs};
use bgp_wren::ealist::EaList;
use netsim::{LinkId, Node, NodeCtx, NodeDriver};
use rpki::{RoaHashTable, RoaTable, RoaTrie};
use xbgp_core::api::{self, helper, InsertionPoint, PeerInfo, PeerType};
use xbgp_core::host::MockHost;
use xbgp_core::{ExtensionSpec, Manifest, Vmm};
use xbgp_progs::{origin_validation, route_reflect};
use xbgp_rib::dirty::DirtySet;
use xbgp_rib::map::PrefixMap;
use xbgp_vm::interp::HelperOutcome;
use xbgp_vm::{
    verify_and_load, HelperDispatcher, LoadedProgram, MemoryMap, Program, Region, RegionKind,
    VmConfig, VmError, HEAP_BASE, SHARED_BASE,
};
use xbgp_wire::{
    AsPath, Ipv4Prefix, Message, MsgReader, OpenMsg, PathAttr, Session, SessionConfig, SessionState,
};

use crate::gen::InprocInputs;
use crate::stats::median;
use crate::trace::Spans;

/// Passes per row; the row is their median.
const PASSES: usize = 5;

/// What the ingress stream asks of the layers, counted once so the
/// ledger can weigh each row by calls per routing update.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCounts {
    pub frames: usize,
    /// Frames that carry path attributes.
    pub attr_sets: usize,
    /// Announced prefixes not in the table at that point.
    pub inserts: usize,
    /// Announced prefixes already in the table.
    pub replaces: usize,
    pub removes: usize,
}

/// Rows in the order they were measured.
pub struct Rows {
    rows: Vec<(&'static str, f64)>,
    pub counts: StreamCounts,
}

impl Rows {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.rows.iter().copied()
    }
}

struct Replay<'a> {
    spans: &'a mut Spans,
    rows: Vec<(&'static str, f64)>,
}

impl Replay<'_> {
    /// Time `PASSES` passes of `pass` over fresh state from `fresh` and
    /// return the median ns per call. State is built and dropped outside
    /// the clock; each pass is one span called `name`.
    fn time<S, R>(
        &mut self,
        name: &'static str,
        calls: usize,
        mut fresh: impl FnMut() -> S,
        mut pass: impl FnMut(S) -> R,
    ) -> f64 {
        let mut per_call = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            let state = fresh();
            let start = self.spans.begin();
            let t = Instant::now();
            let kept = pass(state);
            let ns = t.elapsed().as_nanos() as f64;
            self.spans.end(start, name, calls as u64);
            drop(black_box(kept));
            per_call.push(ns / calls.max(1) as f64);
        }
        median(&per_call).expect("PASSES > 0")
    }

    /// [`Replay::time`], reported as the row `name` in ns per call.
    fn row<S, R>(
        &mut self,
        name: &'static str,
        calls: usize,
        fresh: impl FnMut() -> S,
        pass: impl FnMut(S) -> R,
    ) {
        let ns = self.time(name, calls, fresh, pass);
        self.put(name, ns);
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.rows.push((name, value));
    }
}

/// A node that does nothing: what `deliver` + `drain_outbound` cost when
/// the daemon costs nothing.
struct Idle;

impl Node for Idle {
    fn on_data(&mut self, _ctx: &mut NodeCtx<'_>, _link: LinkId, _data: &[u8]) {}

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Run every row over `inputs`; `exported` is what one sink of the native
/// fir cell received.
pub fn replay(inputs: &InprocInputs, exported: &[Vec<u8>], spans: &mut Spans) -> Rows {
    let mut r = Replay { spans, rows: Vec::new() };
    wire_rows(&mut r, inputs, exported);
    attr_rows(&mut r, inputs);
    rpki_rows(&mut r, inputs);
    rib_rows(&mut r, inputs);
    core_rows(&mut r);
    vm_rows(&mut r);
    floor_rows(&mut r, inputs);
    Rows { rows: r.rows, counts: stream_counts(inputs) }
}

fn stream_counts(inputs: &InprocInputs) -> StreamCounts {
    let mut counts = StreamCounts { frames: inputs.timed.len(), ..StreamCounts::default() };
    // `churn_ov` starts from the loaded table.
    let mut table: HashSet<Ipv4Prefix> = if inputs.preload.is_empty() {
        HashSet::new()
    } else {
        inputs.table.iter().map(|r| r.prefix).collect()
    };
    for frame in &inputs.timed {
        let Ok(Message::Update(u)) = Message::decode(frame, 4) else {
            continue;
        };
        counts.attr_sets += usize::from(!u.attrs.is_empty());
        for p in &u.withdrawn {
            counts.removes += usize::from(table.remove(p));
        }
        for p in u.nlri {
            if table.insert(p) {
                counts.inserts += 1;
            } else {
                counts.replaces += 1;
            }
        }
    }
    counts
}

fn wire_rows(r: &mut Replay<'_>, inputs: &InprocInputs, exported: &[Vec<u8>]) {
    let frames = &inputs.timed;
    r.row(
        "wire.decode_ns",
        frames.len(),
        || (),
        |()| {
            for f in frames {
                black_box(Message::decode(black_box(f), 4).expect("generated frame decodes"));
            }
        },
    );
    r.row("wire.reader_ns", frames.len(), MsgReader::new, |mut reader| {
        for f in frames {
            reader.push(f);
            black_box(reader.next_frame().expect("frame boundary"));
        }
    });
    let out_msgs: Vec<Message> = exported
        .iter()
        .map(|f| Message::decode(f, 4).expect("exported frame decodes"))
        .collect();
    r.row(
        "wire.encode_ns",
        out_msgs.len(),
        || (),
        |()| {
            for m in &out_msgs {
                black_box(m.encode(4).expect("re-encodes"));
            }
        },
    );
    r.row("wire.session_ns", frames.len(), established_session, |mut fsm| {
        for (i, f) in frames.iter().enumerate() {
            black_box(fsm.on_bytes(i as u64, f));
        }
        fsm
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    r.put("wire.prefixes_per_frame", inputs.routing_updates as f64 / frames.len() as f64);
    r.put("wire.frame_bytes", bytes as f64 / frames.len() as f64);
    r.row(
        "serve.split_ns",
        frames.len(),
        || (),
        |()| {
            for f in frames {
                black_box(xbgp_serve::split_update(f, 2).expect("generated frame splits"));
            }
        },
    );
}

/// A `Session` that has been through OPEN and KEEPALIVE, hold time off.
fn established_session() -> Session {
    let mut fsm = Session::new(SessionConfig {
        local_asn: 65_002,
        router_id: 2,
        hold_time_secs: 0,
        expect_asn: None,
    });
    fsm.start(0);
    for m in [Message::Open(OpenMsg::standard(65_001, 0, 1)), Message::Keepalive] {
        fsm.on_bytes(0, &m.encode(4).expect("handshake encodes"));
    }
    assert_eq!(fsm.state(), SessionState::Established);
    fsm
}

/// The attribute set of every announcing ingress frame: routegen packs
/// one set per frame, so this is "per distinct attribute set" up to the
/// 700-prefix frame split.
fn attr_sets(inputs: &InprocInputs) -> Vec<Vec<PathAttr>> {
    inputs
        .timed
        .iter()
        .filter_map(|f| match Message::decode(f, 4) {
            Ok(Message::Update(u)) if !u.attrs.is_empty() => Some(u.attrs),
            _ => None,
        })
        .collect()
}

fn attr_rows(r: &mut Replay<'_>, inputs: &InprocInputs) {
    let sets = attr_sets(inputs);
    let n = sets.len();
    r.row(
        "fir.attrs_from_wire_ns",
        n,
        || (),
        |()| {
            for s in &sets {
                black_box(FirAttrs::from_wire(s).expect("generated attributes convert"));
            }
        },
    );
    let fir: Vec<FirAttrs> =
        sets.iter().map(|s| FirAttrs::from_wire(s).expect("converts")).collect();
    r.row(
        "fir.attrs_to_wire_ns",
        n,
        || (),
        |()| {
            for a in &fir {
                black_box(a.to_wire());
            }
        },
    );
    r.row(
        "fir.intern_ns",
        n,
        || (AttrInternTable::new(), fir.clone()),
        |(mut table, owned)| {
            for a in owned {
                black_box(table.intern(a));
            }
            table
        },
    );
    r.row(
        "wren.ealist_from_wire_ns",
        n,
        || (),
        |()| {
            for s in &sets {
                black_box(EaList::from_wire(s).expect("generated attributes convert"));
            }
        },
    );
    let wren: Vec<EaList> = sets.iter().map(|s| EaList::from_wire(s).expect("converts")).collect();
    r.row(
        "wren.ealist_to_wire_ns",
        n,
        || (),
        |()| {
            for a in &wren {
                black_box(a.to_wire());
            }
        },
    );
}

fn rpki_rows(r: &mut Replay<'_>, inputs: &InprocInputs) {
    let mut trie = RoaTrie::new();
    let mut hash = RoaHashTable::new();
    for roa in &inputs.roas {
        trie.insert(*roa);
        hash.insert(*roa);
    }
    let routes: Vec<(Ipv4Prefix, u32)> =
        inputs.table.iter().map(|t| (t.prefix, t.origin_asn())).collect();
    r.row(
        "rpki.trie_validate_ns",
        routes.len(),
        || (),
        |()| {
            for &(p, asn) in &routes {
                black_box(trie.validate(p, asn));
            }
        },
    );
    r.row(
        "rpki.hash_validate_ns",
        routes.len(),
        || (),
        |()| {
            for &(p, asn) in &routes {
                black_box(hash.validate(p, asn));
            }
        },
    );
}

/// Prefixes of the ingress stream, frame by frame, in stream order.
fn prefixes_by_frame(inputs: &InprocInputs) -> Vec<Vec<Ipv4Prefix>> {
    inputs
        .timed
        .iter()
        .filter_map(|f| match Message::decode(f, 4) {
            Ok(Message::Update(u)) => Some(u.withdrawn.into_iter().chain(u.nlri).collect()),
            _ => None,
        })
        .collect()
}

fn rib_rows(r: &mut Replay<'_>, inputs: &InprocInputs) {
    let by_frame = prefixes_by_frame(inputs);
    // Every distinct prefix once, in first-seen order.
    let mut seen = HashSet::new();
    let keys: Vec<Ipv4Prefix> =
        by_frame.iter().flatten().copied().filter(|p| seen.insert(*p)).collect();
    let full = || -> PrefixMap<u32> { keys.iter().map(|p| (*p, 0u32)).collect() };
    r.row("rib.insert_ns", keys.len(), PrefixMap::<u32>::new, |mut map| {
        for p in &keys {
            black_box(map.insert(*p, 1));
        }
        map
    });
    r.row("rib.replace_ns", keys.len(), full, |mut map| {
        for p in &keys {
            black_box(map.insert(*p, 2));
        }
        map
    });
    r.row("rib.get_ns", keys.len(), full, |map| {
        for p in &keys {
            black_box(map.get(p));
        }
        map
    });
    r.row("rib.remove_ns", keys.len(), full, |mut map| {
        for p in &keys {
            black_box(map.remove(p));
        }
        map
    });
    // One mark per prefix and one ordered drain per frame, as a daemon
    // does per UPDATE; the row is per prefix.
    let marks: usize = by_frame.iter().map(Vec::len).sum();
    r.row("rib.dirty_cycle_ns", marks, DirtySet::new, |mut dirty| {
        for frame in &by_frame {
            for p in frame {
                dirty.mark(*p);
            }
            black_box(dirty.drain_ordered());
        }
        dirty
    });
}

/// Invocations per pass of the `core.run_ns.*` and `vm.*` rows.
const RUNS: usize = 10_000;

fn ibgp_client() -> PeerInfo {
    PeerInfo {
        router_id: 0x0a00_0009,
        asn: 65_000,
        peer_type: PeerType::Ibgp,
        local_router_id: 0x0a00_0001,
        local_asn: 65_000,
        flags: api::PEER_FLAG_RR_CLIENT,
    }
}

fn as_path_payload(asns: &[u32]) -> Vec<u8> {
    let mut body = Vec::new();
    AsPath::sequence(asns.to_vec()).encode_body(&mut body, 4);
    body
}

/// A host shaped like what the daemons present for a table route: an
/// iBGP client session, a four-hop path, the source peer as argument 0.
fn route_host() -> MockHost {
    MockHost {
        peer: ibgp_client(),
        prefix: Some(Ipv4Prefix::new(0xc000_0200, 24)),
        args: vec![PeerInfo { router_id: 0x0a00_0005, ..ibgp_client() }.to_bytes().to_vec()],
        attrs: vec![(2, 0x40, as_path_payload(&[1_001, 1_002, 1_003, 100_001]))],
        rov_answer: api::ROV_VALID,
        ..MockHost::default()
    }
}

fn core_rows(r: &mut Replay<'_>) {
    for (name, manifest) in [
        ("core.load_us.rr", route_reflect::manifest()),
        ("core.load_us.ov", origin_validation::manifest()),
    ] {
        // One load per pass; the row is µs, not ns.
        let ns =
            r.time(name, 1, || (), |()| Vmm::from_manifest(&manifest).expect("manifest loads"));
        r.put(name, ns / 1e3);
    }

    let mut empty = Manifest::new();
    empty.push(ExtensionSpec::from_program(
        "empty",
        "benchmark",
        InsertionPoint::BgpInboundFilter,
        &[],
        &xbgp_progs::assemble("mov r0, 1\nexit"),
    ));
    let rr = route_reflect::manifest();
    let ov = origin_validation::manifest();
    for (name, manifest, point) in [
        ("core.run_ns.rr_inbound", &rr, InsertionPoint::BgpInboundFilter),
        ("core.run_ns.rr_outbound", &rr, InsertionPoint::BgpOutboundFilter),
        ("core.run_ns.rr_encode", &rr, InsertionPoint::BgpEncodeMessage),
        ("core.run_ns.rov_check", &ov, InsertionPoint::BgpInboundFilter),
        ("core.run_ns.empty", &empty, InsertionPoint::BgpInboundFilter),
    ] {
        r.row(
            name,
            RUNS,
            || (Vmm::from_manifest(manifest).expect("manifest loads"), route_host()),
            |(mut vmm, mut host)| {
                for _ in 0..RUNS {
                    host.out_buf.clear();
                    black_box(vmm.run(point, &mut host));
                }
                vmm
            },
        );
    }
}

/// The helpers the four bundled programs call, backed by two flat
/// regions, so `LoadedProgram::run_metered` can run without the VMM. It
/// answers like [`route_host`]; nothing is staged or committed.
struct StubHelpers {
    heap_used: u64,
    shared_set: bool,
    path: Vec<u8>,
}

const STUB_HEAP: usize = 2_048;
const STUB_SHARED: usize = 64;

impl StubHelpers {
    fn alloc(&mut self, size: u64) -> u64 {
        let addr = HEAP_BASE + self.heap_used;
        self.heap_used += (size + 7) & !7;
        if self.heap_used as usize > STUB_HEAP {
            return 0;
        }
        addr
    }

    fn marshal(&mut self, mem: &mut MemoryMap, bytes: &[u8]) -> Result<u64, VmError> {
        let addr = self.alloc(bytes.len() as u64);
        mem.write_bytes(addr, bytes)?;
        Ok(addr)
    }
}

impl HelperDispatcher for StubHelpers {
    fn call(
        &mut self,
        id: u32,
        args: [u64; 5],
        mem: &mut MemoryMap,
    ) -> Result<HelperOutcome, VmError> {
        use HelperOutcome::{Next, Value};
        Ok(match id {
            helper::NEXT => Next,
            helper::GET_PEER_INFO => Value(self.marshal(mem, &ibgp_client().to_bytes())?),
            helper::GET_ARG => {
                let blob = PeerInfo { router_id: 0x0a00_0005, ..ibgp_client() }.to_bytes();
                mem.write_bytes(args[1], &blob)?;
                Value(blob.len() as u64)
            }
            helper::GET_PREFIX => {
                let mut b = [0u8; api::PREFIX_INFO_SIZE];
                b[0..4].copy_from_slice(&0xc000_0200u32.to_le_bytes());
                b[4..8].copy_from_slice(&24u32.to_le_bytes());
                Value(self.marshal(mem, &b)?)
            }
            helper::GET_ATTR if args[0] == 2 => {
                mem.write_bytes(args[1], &self.path)?;
                Value(self.path.len() as u64)
            }
            helper::GET_ATTR => Value(api::XBGP_FAIL),
            helper::CTX_MALLOC => Value(self.alloc(args[0])),
            helper::CTX_SHARED_GET if self.shared_set => Value(SHARED_BASE),
            helper::CTX_SHARED_GET => Value(0),
            helper::CTX_SHARED_MALLOC => {
                self.shared_set = true;
                Value(SHARED_BASE)
            }
            helper::RPKI_CHECK_ORIGIN => Value(api::ROV_VALID),
            helper::BPF_HTONL => Value(u64::from((args[0] as u32).to_be())),
            helper::WRITE_BUF => Value(args[1]),
            other => return Err(VmError::UnknownHelper { pc: 0, helper: other }),
        })
    }
}

fn vm_rows(r: &mut Replay<'_>) {
    let known = api::all_helper_ids();
    let programs: [(&'static str, &'static str, Option<&'static str>, Program); 4] = [
        (
            "vm.load_us.rr_inbound",
            "vm.insns.rr_inbound",
            None,
            xbgp_progs::assemble(route_reflect::SRC_INBOUND),
        ),
        (
            "vm.load_us.rr_outbound",
            "vm.insns.rr_outbound",
            None,
            xbgp_progs::assemble(route_reflect::SRC_OUTBOUND),
        ),
        (
            "vm.load_us.rr_encode",
            "vm.insns.rr_encode",
            None,
            xbgp_progs::assemble(route_reflect::SRC_ENCODE),
        ),
        (
            "vm.load_us.rov_check",
            "vm.insns.rov_check",
            Some("vm.insn_ns.rov_check"),
            xbgp_progs::assemble(origin_validation::SOURCE),
        ),
    ];
    for (load_row, insns_row, insn_ns_row, prog) in &programs {
        let ns = r.time(load_row, 1, || (), |()| verify_and_load(prog, &known).expect("verifies"));
        r.put(load_row, ns / 1e3);

        let loaded = verify_and_load(prog, &known).expect("verifies");
        let insns = run_stubbed(&loaded, 1);
        r.put(insns_row, insns as f64);
        if let Some(insn_ns_row) = insn_ns_row {
            let per_run = r.time(insn_ns_row, RUNS, || (), |()| run_stubbed(&loaded, RUNS));
            r.put(insn_ns_row, per_run / insns as f64);
        }
    }
}

/// Run `loaded` `runs` times against [`StubHelpers`]; returns the
/// instructions one run retired.
fn run_stubbed(loaded: &LoadedProgram, runs: usize) -> u64 {
    let mut mem = MemoryMap::new();
    mem.map(Region::new(RegionKind::Heap, HEAP_BASE, vec![0; STUB_HEAP], true));
    mem.map(Region::new(RegionKind::Shared, SHARED_BASE, vec![0; STUB_SHARED], true));
    let mut helpers = StubHelpers {
        heap_used: 0,
        shared_set: false,
        path: as_path_payload(&[1_001, 1_002, 1_003, 100_001]),
    };
    let mut insns = 0;
    let mut faults = 0;
    for _ in 0..runs {
        helpers.heap_used = 0;
        if let Some(stack) = mem.region_of_mut(RegionKind::Stack) {
            stack.data.fill(0);
        }
        let (outcome, metrics) =
            loaded.run_metered(VmConfig::default(), &mut mem, &mut helpers, &[]);
        insns = metrics.insns_retired;
        faults += usize::from(outcome.is_err());
    }
    assert_eq!(faults, 0, "a bundled program faulted against the stub helpers");
    insns
}

fn floor_rows(r: &mut Replay<'_>, inputs: &InprocInputs) {
    let frames = &inputs.timed;
    r.row(
        "netsim.driver_floor_ns",
        frames.len(),
        || {
            let mut d = NodeDriver::new(Box::new(Idle), 2);
            d.start(0);
            d
        },
        |mut d| {
            for (i, f) in frames.iter().enumerate() {
                d.deliver(i as u64, LinkId(0), f);
                black_box(d.drain_outbound());
            }
            d
        },
    );
    let h = xbgp_obs::Histogram::new();
    r.row(
        "obs.observe_ns",
        RUNS,
        || (),
        |()| {
            for i in 0..RUNS as u64 {
                h.observe(black_box(i * 37));
            }
        },
    );
}
