//! # netsim — deterministic discrete-event network simulator
//!
//! Replaces the paper's testbed of three VMs on a laptop (Fig. 3) with a
//! reproducible substrate. Design follows the smoltcp philosophy: an
//! event-driven core with no hidden concurrency, plus explicit fault
//! injection.
//!
//! * **Virtual time** in nanoseconds, advanced only by the event queue.
//! * **Nodes** implement [`Node`] and react to three stimuli: stream data
//!   arriving on a link, timers they armed, and link up/down transitions.
//! * **Links** are reliable, in-order, full-duplex byte streams (the
//!   TCP-like service BGP assumes) with configurable propagation latency.
//!   Taking a link down drops in-flight and future bytes and notifies both
//!   endpoints — the moral equivalent of a TCP reset, used by the Fig. 5
//!   failure scenarios.
//! * **CPU accounting** (optional): when enabled, the wall-clock time spent
//!   inside a node's event handler is charged as virtual busy time of that
//!   node, serializing its event processing. This is how the Fig. 4
//!   experiment turns "extension code is slower/faster than native code"
//!   into a measurable difference of virtual completion times while staying
//!   deterministic in event *order*.
//!
//! The simulator is intentionally synchronous and single-threaded: BGP
//! convergence experiments need determinism more than parallelism (see the
//! guides' advice that async buys nothing for pure computation).

pub mod driver;
pub mod sim;

pub use driver::NodeDriver;
pub use sim::{LinkId, Node, NodeCtx, NodeId, Sim, SimConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// Echoes every received chunk back on the same link, once.
    struct Echo {
        received: Vec<Vec<u8>>,
    }

    impl Node for Echo {
        fn on_data(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, data: &[u8]) {
            self.received.push(data.to_vec());
            ctx.send(link, data);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends one message at start, records replies and timer firings.
    struct Pinger {
        link: Option<LinkId>,
        got: Vec<(u64, Vec<u8>)>,
        timer_fired_at: Option<u64>,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            let link = ctx.links()[0];
            self.link = Some(link);
            ctx.send(link, b"ping");
            ctx.set_timer(1_000_000, 7);
        }
        fn on_data(&mut self, ctx: &mut NodeCtx<'_>, _link: LinkId, data: &[u8]) {
            self.got.push((ctx.now(), data.to_vec()));
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
            assert_eq!(token, 7);
            self.timer_fired_at = Some(ctx.now());
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn ping_pong_with_latency() {
        let mut sim = Sim::new(SimConfig::default());
        let a =
            sim.add_node(Box::new(Pinger { link: None, got: Vec::new(), timer_fired_at: None }));
        let b = sim.add_node(Box::new(Echo { received: Vec::new() }));
        sim.connect(a, b, 500); // 500 ns each way
        sim.run_until_idle(10_000_000);

        let pinger: &Pinger = sim.node_ref(a);
        assert_eq!(pinger.got.len(), 1);
        assert_eq!(pinger.got[0].1, b"ping");
        // Round trip = 2 × 500 ns.
        assert_eq!(pinger.got[0].0, 1000);
        assert_eq!(pinger.timer_fired_at, Some(1_000_000));
    }

    #[test]
    fn link_down_drops_data_and_notifies() {
        struct Watcher {
            events: Vec<(LinkId, bool)>,
            data: usize,
        }
        impl Node for Watcher {
            fn on_data(&mut self, _ctx: &mut NodeCtx<'_>, _link: LinkId, data: &[u8]) {
                self.data += data.len();
            }
            fn on_link_event(&mut self, _ctx: &mut NodeCtx<'_>, link: LinkId, up: bool) {
                self.events.push((link, up));
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Talker;
        impl Node for Talker {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                let l = ctx.links()[0];
                ctx.send(l, b"hello");
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut sim = Sim::new(SimConfig::default());
        let t = sim.add_node(Box::new(Talker));
        let w = sim.add_node(Box::new(Watcher { events: Vec::new(), data: 0 }));
        let l = sim.connect(t, w, 100);
        // Cut the link before the data can arrive.
        sim.set_link_up(l, false);
        sim.run_until_idle(1_000_000);
        let watcher: &Watcher = sim.node_ref(w);
        assert_eq!(watcher.data, 0, "in-flight data dropped on link failure");
        assert_eq!(watcher.events, vec![(l, false)]);
    }

    #[test]
    fn link_restore_allows_traffic_again() {
        struct Repeater;
        impl Node for Repeater {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(50, 1);
            }
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
                let l = ctx.links()[0];
                ctx.send(l, b"x");
                ctx.set_timer(50, 1);
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Counter {
            n: usize,
        }
        impl Node for Counter {
            fn on_data(&mut self, _ctx: &mut NodeCtx<'_>, _l: LinkId, data: &[u8]) {
                self.n += data.len();
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut sim = Sim::new(SimConfig::default());
        let r = sim.add_node(Box::new(Repeater));
        let c = sim.add_node(Box::new(Counter { n: 0 }));
        let l = sim.connect(r, c, 10);
        sim.set_link_up(l, false);
        sim.run_until(1_000);
        assert_eq!(sim.node_ref::<Counter>(c).n, 0);
        sim.set_link_up(l, true);
        sim.run_until(2_000);
        assert!(sim.node_ref::<Counter>(c).n > 0);
    }

    #[test]
    fn events_process_in_timestamp_order() {
        struct Recorder {
            seen: Vec<u64>,
        }
        impl Node for Recorder {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                // Armed out of order; must fire in order.
                ctx.set_timer(300, 3);
                ctx.set_timer(100, 1);
                ctx.set_timer(200, 2);
            }
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, token: u64) {
                self.seen.push(token);
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let r = sim.add_node(Box::new(Recorder { seen: Vec::new() }));
        sim.run_until_idle(1_000_000);
        assert_eq!(sim.node_ref::<Recorder>(r).seen, vec![1, 2, 3]);
    }

    #[test]
    fn cancel_timer_suppresses_firing() {
        struct C {
            fired: bool,
        }
        impl Node for C {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(100, 9);
                ctx.cancel_timer(9);
            }
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {
                self.fired = true;
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let c = sim.add_node(Box::new(C { fired: false }));
        sim.run_until_idle(10_000);
        assert!(!sim.node_ref::<C>(c).fired);
    }

    #[test]
    fn a_filled_reservation_runs_the_replacement() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.reserve_node();
        let b = sim.add_node(Box::new(Echo { received: Vec::new() }));
        sim.connect(a, b, 500);
        sim.replace_node(a, Box::new(Pinger { link: None, got: Vec::new(), timer_fired_at: None }));
        sim.run_until_idle(10_000_000);
        assert_eq!(sim.node_ref::<Pinger>(a).got.len(), 1);
    }

    #[test]
    #[should_panic(expected = "reserved but never filled")]
    fn starting_with_an_unfilled_reservation_panics() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.reserve_node();
        let b = sim.add_node(Box::new(Echo { received: Vec::new() }));
        sim.connect(a, b, 500);
        sim.run_until(1_000);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        // Two simulations built identically must produce identical event
        // outcomes (timestamps included) — the property every experiment
        // in this workspace leans on.
        fn run_once() -> Vec<(u64, Vec<u8>)> {
            let mut sim = Sim::new(SimConfig::default());
            let a = sim.add_node(Box::new(Pinger {
                link: None,
                got: Vec::new(),
                timer_fired_at: None,
            }));
            let b = sim.add_node(Box::new(Echo { received: Vec::new() }));
            sim.connect(a, b, 777);
            sim.run_until_idle(10_000_000);
            sim.node_ref::<Pinger>(a).got.clone()
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn cpu_accounting_serializes_node_time() {
        // With accounting on, a node that burns CPU pushes its outputs
        // later in virtual time.
        struct Burner;
        impl Node for Burner {
            fn on_data(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, _data: &[u8]) {
                // Busy-work the accountant can observe.
                let mut acc = 0u64;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_mul(31).wrapping_add(i);
                }
                ctx.send(link, &acc.to_le_bytes());
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Src {
            reply_at: Option<u64>,
        }
        impl Node for Src {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                let l = ctx.links()[0];
                ctx.send(l, b"go");
            }
            fn on_data(&mut self, ctx: &mut NodeCtx<'_>, _l: LinkId, _d: &[u8]) {
                self.reply_at = Some(ctx.now());
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut sim = Sim::new(SimConfig { cpu_accounting: true });
        let s = sim.add_node(Box::new(Src { reply_at: None }));
        let b = sim.add_node(Box::new(Burner));
        sim.connect(s, b, 10);
        sim.run_until_idle(u64::MAX / 2);
        let reply = sim.node_ref::<Src>(s).reply_at.expect("got reply");
        assert!(reply > 20, "busy time must delay the reply, got {reply}");
        assert!(sim.cpu_time(b) > 0);
    }
}
