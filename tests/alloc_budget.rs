//! The allocation budget of the native per-route path, exact.
//!
//! A counting global allocator wraps `System` and keeps its counts per
//! thread, so the tests of this binary running side by side do not mix.
//! Each test sends one fixed table (`routegen`, 2 000 routes, seed 1, as
//! `to_updates` packs it) through a native route-reflecting daemon on a
//! `NodeDriver`, from one RR client to another — the `table_rr` cell of
//! the benchmark at small scale — and pins the number of heap
//! allocations the transfer makes: every frame's `deliver` and
//! `drain_outbound`, nothing else. The counts are the same in debug and
//! release builds (CI runs this binary in release too). A change that
//! allocates more per route fails here; one that allocates less lowers
//! the pinned numbers. Under the exact pins sit the per-route ceilings
//! the native path is held to: 4 on fir, 6 on wren.
//!
//! The same transfer pins what the sink receives: an FNV-1a digest of
//! its byte stream, equal on both daemons, recorded when export still
//! went through a typed `Vec<PathAttr>` and `encode_update`. Writing the
//! stored attributes straight into the frame must not change a byte — on
//! a 4-octet sink, and on a 2-octet one, where AS_PATH is narrowed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use netsim::{LinkId, NodeDriver};
use routegen::{to_updates, TableSpec};
use xbgp_harness::dut::{build, DaemonSpec, Dut, DutNode};
use xbgp_wire::{Capability, Message, OpenMsg};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: a thread's last frees can run after its locals are gone.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract for us; the
// counters are const-initialised thread locals without a destructor, so
// touching them never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: our caller meets `alloc`'s contract, which is System's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; our caller meets the rest of the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and reallocations made on this thread so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    allocs: u64,
    reallocs: u64,
}

fn counts() -> Counts {
    Counts {
        allocs: ALLOCS.with(Cell::get),
        reallocs: REALLOCS.with(Cell::get),
    }
}

const ROUTES: usize = 2_000;
const SEED: u64 = 1;
const ASN: u32 = 65_000;
/// `(link, router id)` of the feeder and the one sink, both RR clients.
const PEERS: [(LinkId, u32); 2] = [(LinkId(0), 1), (LinkId(1), 3)];
const SINK: LinkId = PEERS[1].0;

/// FNV-1a (64-bit) of the sink's byte stream over a 4-octet session and
/// over a 2-octet one: 468 frames, 47 698 and 43 480 octets.
const SINK_DIGEST_4: u64 = 0xca79_557b_7e6e_91ef;
const SINK_DIGEST_2: u64 = 0x98dd_91b6_e91a_c6a7;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// What one transfer of the table through a daemon cost and delivered.
struct Transfer {
    spent: Counts,
    frames: usize,
    /// [`fnv1a`] of every frame sent to the sink, in order.
    digest: u64,
}

/// Transfer the table through `dut` to a sink whose session carries
/// `sink_width`-octet AS numbers.
fn table_transfer(dut: Dut, sink_width: usize) -> Transfer {
    let table = routegen::generate(&TableSpec::new(ROUTES, SEED));
    let frames: Vec<Vec<u8>> = to_updates(&table, 1, Some(100))
        .into_iter()
        .map(|u| Message::Update(u).encode(4).expect("generated UPDATE fits a frame"))
        .collect();

    let mut spec = DaemonSpec::new(ASN, 2);
    spec.hold_time_secs = 0;
    spec.native_rr = true;
    for (link, addr) in PEERS {
        spec = spec.rr_client(link, addr, ASN);
    }
    let mut driver = NodeDriver::new(Box::new(build(dut, spec)), PEERS.len());
    driver.start(0);
    for (link, addr) in PEERS {
        let mut open = OpenMsg::standard(ASN, 0, addr);
        if link == SINK && sink_width == 2 {
            open.capabilities.retain(|c| !matches!(c, Capability::FourOctetAs(_)));
        }
        for message in [Message::Open(open), Message::Keepalive] {
            driver.deliver(0, link, &message.encode(4).unwrap());
        }
    }
    driver.drain_outbound();

    let mut exported = 0;
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let before = counts();
    for (i, frame) in frames.iter().enumerate() {
        driver.deliver(1_000 * (i as u64 + 1), LinkId(0), frame);
        for (link, sent) in driver.drain_outbound() {
            exported += 1;
            if link == SINK {
                digest = fnv1a(digest, &sent);
            }
        }
    }
    let after = counts();

    assert_eq!(driver.node_mut::<DutNode>().0.loc_rib_len(), ROUTES);
    assert!(exported > 0, "the sink was sent nothing");
    let spent = Counts {
        allocs: after.allocs - before.allocs,
        reallocs: after.reallocs - before.reallocs,
    };
    eprintln!(
        "{dut:?}: {ROUTES} routes in {} UPDATEs: {spent:?}, {:.2} allocations per route",
        frames.len(),
        spent.allocs as f64 / ROUTES as f64
    );
    Transfer { spent, frames: frames.len(), digest }
}

/// Allocations per route of a transfer.
fn per_route(t: &Transfer) -> f64 {
    t.spent.allocs as f64 / ROUTES as f64
}

#[test]
fn the_allocator_counts_this_threads_allocations() {
    let before = counts();
    let v: Vec<u8> = black_box(Vec::with_capacity(16));
    let mut w = black_box(v);
    w.extend_from_slice(black_box(&[0; 64]));
    drop(black_box(w));
    let after = counts();
    assert_eq!(after.allocs - before.allocs, 1);
    assert_eq!(after.reallocs - before.reallocs, 1);
}

#[test]
fn fir_native_table_transfer_allocates_exactly() {
    let t = table_transfer(Dut::Fir, 4);
    assert_eq!(t.frames, 468);
    assert_eq!(t.digest, SINK_DIGEST_4, "the sink's bytes changed");
    assert!(per_route(&t) <= 4.0, "{:.2} allocations per route", per_route(&t));
    assert_eq!(t.spent, Counts { allocs: 7_107, reallocs: 37 });
}

#[test]
fn wren_native_table_transfer_allocates_exactly() {
    let t = table_transfer(Dut::Wren, 4);
    assert_eq!(t.frames, 468);
    assert_eq!(t.digest, SINK_DIGEST_4, "the sink's bytes changed");
    assert!(per_route(&t) <= 6.0, "{:.2} allocations per route", per_route(&t));
    assert_eq!(t.spent, Counts { allocs: 6_231, reallocs: 37 });
}

/// A 2-octet sink is its own update-group; its frames narrow AS_PATH.
#[test]
fn a_two_octet_sink_receives_the_pinned_bytes_from_both_daemons() {
    for dut in [Dut::Fir, Dut::Wren] {
        assert_eq!(table_transfer(dut, 2).digest, SINK_DIGEST_2, "{dut:?}");
    }
}
