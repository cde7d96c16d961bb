//! The in-process workloads: one daemon hosted on a `netsim::NodeDriver`
//! the way `xbgp_serve::daemon_core` hosts it, fed pre-encoded UPDATE
//! frames on link 0, with every other link a sink.
//!
//! The timed region is, per frame, `deliver` then `drain_outbound`; what
//! is drained is kept and only parsed after the clock has stopped. No
//! feeder or sink node runs, so the time is the daemon's alone.

use std::collections::BTreeSet;
use std::time::Instant;

use netsim::{LinkId, NodeDriver};
use xbgp_driver::{DaemonCounters, DaemonSpec, Dut, DutNode};
use xbgp_obs::Snapshot;
use xbgp_progs::{origin_validation, route_reflect};
use xbgp_wire::msg::deframe;
use xbgp_wire::{Ipv4Prefix, Message, MsgReader, MsgType, OpenMsg, UpdateMsg};

use crate::gen::{InprocInputs, Mode};
use crate::trace::Spans;

/// One of the four cells of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub dut: Dut,
    /// Run the use case as extension bytecode instead of native code.
    pub ext: bool,
}

/// Sampling order of a round: the native and extension cell of a daemon
/// sit next to each other so a slow stretch of the host hits both.
pub const CELLS: [Cell; 4] = [
    Cell { dut: Dut::Fir, ext: false },
    Cell { dut: Dut::Fir, ext: true },
    Cell { dut: Dut::Wren, ext: false },
    Cell { dut: Dut::Wren, ext: true },
];

impl Cell {
    /// `fir_native`, `wren_ext`, … — the prefix of the cell's metric name.
    pub fn slug(self) -> String {
        format!("{}_{}", self.dut.slug(), if self.ext { "ext" } else { "native" })
    }
}

/// Virtual ns between two delivered frames. Hold time 0 arms no timers,
/// so the value only has to move the clock forwards.
const TICK_NS: u64 = 1_000;

const DUT_ADDR: u32 = 2;
const FEEDER_ADDR: u32 = 1;

fn sink_addr(i: usize) -> u32 {
    3 + i as u32
}

/// `(feeder, daemon, sink)` AS numbers.
fn asns(mode: Mode) -> (u32, u32, u32) {
    match mode {
        Mode::Rr => (65_000, 65_000, 65_000),
        Mode::Ov => (65_001, 65_002, 65_003),
    }
}

fn daemon_spec(inputs: &InprocInputs, cell: Cell, counters: bool) -> DaemonSpec {
    let (feeder_asn, dut_asn, sink_asn) = asns(inputs.mode);
    let mut spec = DaemonSpec::new(dut_asn, DUT_ADDR);
    spec.hold_time_secs = 0;
    spec.metrics = counters;
    match inputs.mode {
        Mode::Rr => {
            spec = spec.rr_client(LinkId(0), FEEDER_ADDR, feeder_asn);
            for i in 0..inputs.sinks {
                spec = spec.rr_client(LinkId(1 + i), sink_addr(i), sink_asn);
            }
            spec.native_rr = !cell.ext;
            spec.xbgp = cell.ext.then(route_reflect::manifest);
        }
        Mode::Ov => {
            spec = spec.neighbor(LinkId(0), FEEDER_ADDR, feeder_asn);
            for i in 0..inputs.sinks {
                spec = spec.neighbor(LinkId(1 + i), sink_addr(i), sink_asn);
            }
            if cell.ext {
                spec.xbgp = Some(origin_validation::manifest());
                spec.xbgp_roas = Some(inputs.roas.clone());
            } else {
                spec.native_rov = Some(inputs.roas.clone());
            }
        }
    }
    spec
}

/// Bring the daemon's session on `link` up the way `daemon_core` does: a
/// synthetic OPEN with hold time 0 from the neighbour, then a KEEPALIVE.
pub fn establish(driver: &mut NodeDriver, link: LinkId, asn: u32, addr: u32) {
    for message in [Message::Open(OpenMsg::standard(asn, 0, addr)), Message::Keepalive] {
        driver.deliver(0, link, &message.encode(4).expect("handshake message encodes"));
    }
}

/// A daemon on a driver with every session established.
pub fn start_daemon(inputs: &InprocInputs, cell: Cell, counters: bool) -> NodeDriver {
    let (feeder_asn, _, sink_asn) = asns(inputs.mode);
    let node = xbgp_harness::dut::build(cell.dut, daemon_spec(inputs, cell, counters));
    let mut driver = NodeDriver::new(Box::new(node), 1 + inputs.sinks);
    driver.start(0);
    for link in 0..1 + inputs.sinks {
        let (asn, addr) = match link {
            0 => (feeder_asn, FEEDER_ADDR),
            _ => (sink_asn, sink_addr(link - 1)),
        };
        establish(&mut driver, LinkId(link), asn, addr);
    }
    // The daemon's own OPENs and KEEPALIVEs; nobody is there to read them.
    driver.drain_outbound();
    driver
}

/// What one sample leaves behind for the correctness gate and the ledger.
pub struct Sample {
    /// Wall ns of the timed region.
    pub ns: u64,
    pub loc_rib: Vec<(Ipv4Prefix, Vec<u8>)>,
    /// `Daemon::counters()` when the clock started and when it stopped.
    pub counters: (DaemonCounters, DaemonCounters),
    /// Daemon metrics at the same two points, when the sample ran with
    /// the daemon's counters on.
    pub snapshots: Option<(Snapshot, Snapshot)>,
    /// Exported UPDATE frames per sink, in emission order.
    pub exported: Vec<Vec<Vec<u8>>>,
    /// Why the sample failed the correctness gate, if it did.
    pub failure: Option<String>,
}

impl Sample {
    /// Wall ns of the timed region per routing update delivered.
    pub fn route_ns(&self, routing_updates: u64) -> f64 {
        self.ns as f64 / routing_updates as f64
    }

    /// How far the daemon counter `name` (summed over its labels) moved
    /// inside the timed region. `None` without daemon counters.
    pub fn counted(&self, name: &str) -> Option<u64> {
        let (before, after) = self.snapshots.as_ref()?;
        Some(after.counter_sum(name) - before.counter_sum(name))
    }
}

/// Run one sample of `cell`. `native_rib` is the Loc-RIB of the native
/// cell of the same round, which an extension cell must reproduce byte
/// for byte. With `spans`, every call into the driver is recorded.
pub fn run_sample(
    inputs: &InprocInputs,
    cell: Cell,
    native_rib: Option<&[(Ipv4Prefix, Vec<u8>)]>,
    counters: bool,
    spans: Option<&mut Spans>,
) -> Sample {
    let mut driver = start_daemon(inputs, cell, counters);
    let mut tick = TICK_NS;
    let mut drained: Vec<(LinkId, Vec<u8>)> =
        Vec::with_capacity((inputs.preload.len() + inputs.timed.len()) * inputs.sinks * 2);
    for frame in &inputs.preload {
        driver.deliver(tick, LinkId(0), frame);
        tick += TICK_NS;
        drained.append(&mut driver.drain_outbound());
    }

    let daemon = &driver.node_mut::<DutNode>().0;
    let counters_before = daemon.counters();
    let snapshot_before = counters.then(|| daemon.metrics_snapshot());

    let start = Instant::now();
    match spans {
        None => {
            for frame in &inputs.timed {
                driver.deliver(tick, LinkId(0), frame);
                tick += TICK_NS;
                drained.append(&mut driver.drain_outbound());
            }
        }
        Some(spans) => {
            for (i, frame) in inputs.timed.iter().enumerate() {
                let s = spans.begin();
                driver.deliver(tick, LinkId(0), frame);
                spans.end(s, "deliver", i as u64);
                tick += TICK_NS;
                let s = spans.begin();
                let mut out = driver.drain_outbound();
                spans.end(s, "drain_outbound", i as u64);
                drained.append(&mut out);
            }
        }
    }
    let ns = start.elapsed().as_nanos() as u64;

    let daemon = &mut driver.node_mut::<DutNode>().0;
    let loc_rib = daemon.loc_rib_dump();
    let oracle = daemon.oracle_loc_rib_dump();
    let counters = (counters_before, daemon.counters());
    let snapshots = snapshot_before.map(|before| (before, daemon.metrics_snapshot()));
    let exported = split_by_sink(drained, inputs.sinks);

    let failure = if loc_rib != oracle {
        Some("Loc-RIB differs from the full-recompute oracle".to_string())
    } else if native_rib.is_some_and(|n| n != loc_rib.as_slice()) {
        Some("extension Loc-RIB differs from the native cell's".to_string())
    } else if loc_rib.len() != inputs.expected.len()
        || loc_rib.iter().zip(&inputs.expected).any(|((p, _), e)| p != e)
    {
        Some("Loc-RIB does not hold exactly the expected prefixes".to_string())
    } else {
        exported.iter().enumerate().find_map(|(i, frames)| match held_prefixes(frames) {
            Ok(held) if held.iter().eq(inputs.expected.iter()) => None,
            Ok(held) => Some(format!(
                "sink {i} holds {} prefixes, expected {}",
                held.len(),
                inputs.expected.len()
            )),
            Err(e) => Some(format!("sink {i}: {e}")),
        })
    };
    Sample { ns, loc_rib, counters, snapshots, exported, failure }
}

/// Reassemble the per-link byte chunks into UPDATE frames per sink
/// (link 0 is the feeder; what the daemon sends back there is dropped).
fn split_by_sink(drained: Vec<(LinkId, Vec<u8>)>, sinks: usize) -> Vec<Vec<Vec<u8>>> {
    let mut readers: Vec<MsgReader> = (0..sinks).map(|_| MsgReader::new()).collect();
    let mut frames: Vec<Vec<Vec<u8>>> = vec![Vec::new(); sinks];
    for (link, bytes) in drained {
        let Some(sink) = link.0.checked_sub(1) else {
            continue;
        };
        readers[sink].push(&bytes);
        while let Ok(Some(frame)) = readers[sink].next_frame() {
            if matches!(deframe(&frame), Ok((MsgType::Update, _))) {
                frames[sink].push(frame);
            }
        }
    }
    frames
}

/// The prefixes a peer holds after applying `frames` in order.
fn held_prefixes(frames: &[Vec<u8>]) -> Result<BTreeSet<Ipv4Prefix>, String> {
    let mut held = BTreeSet::new();
    for frame in frames {
        let (_, body) = deframe(frame).map_err(|e| format!("bad frame: {e:?}"))?;
        let update = UpdateMsg::decode_body(body, 4).map_err(|e| format!("bad UPDATE: {e:?}"))?;
        for p in &update.withdrawn {
            held.remove(p);
        }
        held.extend(update.nlri);
    }
    Ok(held)
}
