//! # xbgp-serve — many-peer TCP runtime for the xBGP daemons
//!
//! The netsim harnesses drive fir and wren in virtual time; this crate
//! drives the **same daemons, unmodified,** over real TCP sockets with
//! hundreds of concurrent peers. The daemon never learns it left the
//! simulator: it still lives single-threaded behind
//! [`netsim::NodeDriver`], configured through the same
//! [`xbgp_driver::DaemonSpec`], and speaks wire frames over `LinkId`s
//! that now mean session slots instead of simulated cables.
//!
//! Layer map (`1 + shards` threads, wire frames on every edge):
//!
//! * [`server`] — one I/O thread that sleeps only in `poll(2)`: it owns
//!   the listener and every nonblocking session socket, each with a real
//!   BGP FSM ([`xbgp_wire::Session`]: OPEN/KEEPALIVE/NOTIFICATION,
//!   hold-timer enforcement, NOTIFY-and-close on malformed input), a
//!   capped outbound buffer and a paced inbound side
//!   ([`server::INGRESS_RATE`]).
//! * [`io`] — what that loop and the test client are built from: the
//!   `poll` shim (the workspace's one `unsafe` block), the waker, the
//!   outbound buffer, the per-session read budget, and the nonblocking
//!   connection pump.
//! * [`daemon_core`] — one daemon per shard core thread on a
//!   `NodeDriver`, owning a disjoint prefix slice; the I/O thread fans
//!   validated UPDATE frames in over mpsc channels, best-path changes
//!   come back as one buffer per session per flush.
//! * [`split`] — cuts UPDATE frames along prefix-hash shard boundaries
//!   without re-encoding attribute bytes.
//! * [`client`] — loopback test peers; [`selftest`] — end-to-end parity
//!   harness (TCP Loc-RIB ≡ netsim-replay Loc-RIB ≡ oracle);
//!   [`bench`] — the peer-scaling grid behind `BENCH_peer_scaling.json`.

pub mod bench;
pub mod client;
pub mod daemon_core;
pub mod io;
pub mod selftest;
pub mod server;
pub mod split;

pub use client::{ClientOutcome, ClientPlan};
pub use selftest::{SelftestOutcome, SelftestSpec};
pub use server::{ServeConfig, Server};
pub use split::split_update;
