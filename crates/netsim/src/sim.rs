//! The simulator core: event queue, nodes, links, timers, CPU accounting.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::Instant;

/// Identifies a node in one [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a link in one [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Behaviour of a simulated host/router.
///
/// All methods receive a [`NodeCtx`] for interacting with the simulation
/// (sending data, arming timers, reading the clock).
pub trait Node {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}
    /// Stream data arrived on `link`. Chunk boundaries are *not*
    /// meaningful; reassemble with a framing reader.
    fn on_data(&mut self, _ctx: &mut NodeCtx<'_>, _link: LinkId, _data: &[u8]) {}
    /// A timer armed with [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}
    /// `link` changed administrative state.
    fn on_link_event(&mut self, _ctx: &mut NodeCtx<'_>, _link: LinkId, _up: bool) {}
    /// Downcast support so the harness can inspect concrete node types.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The stand-in behind [`Sim::reserve_node`]; the simulator refuses to
/// start while one is still in place.
struct Reserved;

impl Node for Reserved {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Simulator tuning.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimConfig {
    /// Charge measured wall-clock handler time as virtual node busy time.
    /// Off by default (fully deterministic virtual timings); the Fig. 4
    /// harness turns it on to surface extension-vs-native compute cost.
    pub cpu_accounting: bool,
}

#[derive(Debug)]
enum EventKind {
    Start(NodeId),
    Data {
        to: NodeId,
        link: LinkId,
        data: Vec<u8>,
    },
    Timer {
        node: NodeId,
        token: u64,
        timer_id: u64,
    },
    LinkEvent {
        node: NodeId,
        link: LinkId,
        up: bool,
    },
}

struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct Link {
    a: NodeId,
    b: NodeId,
    latency: u64,
    up: bool,
}

struct NodeSlot {
    node: Box<dyn Node>,
    links: Vec<LinkId>,
    busy_until: u64,
    cpu_ns: u64,
    /// Still-armed timer instances: token → unique timer ids.
    active_timers: HashMap<u64, HashSet<u64>>,
}

/// Actions a node can take while handling an event.
pub struct NodeCtx<'a> {
    now: u64,
    node: NodeId,
    links: &'a [LinkId],
    actions: Vec<Action>,
}

pub(crate) enum Action {
    Send { link: LinkId, data: Vec<u8> },
    SetTimer { delay: u64, token: u64 },
    CancelTimer { token: u64 },
}

impl<'a> NodeCtx<'a> {
    /// Build a context for a node hosted outside a [`Sim`] (see
    /// [`crate::driver::NodeDriver`]). The caller supplies the clock and
    /// applies the queued actions itself via [`NodeCtx::into_actions`].
    pub(crate) fn standalone(now: u64, node: NodeId, links: &'a [LinkId]) -> NodeCtx<'a> {
        NodeCtx { now, node, links, actions: Vec::new() }
    }

    /// Consume the context, returning the actions the handler queued.
    pub(crate) fn into_actions(self) -> Vec<Action> {
        self.actions
    }
}

impl NodeCtx<'_> {
    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Links attached to this node, in attachment order.
    pub fn links(&self) -> &[LinkId] {
        self.links
    }

    /// Queue stream data on `link`. Delivered after the link latency
    /// (dropped if the link is or goes down first).
    pub fn send(&mut self, link: LinkId, data: &[u8]) {
        self.actions.push(Action::Send { link, data: data.to_vec() });
    }

    /// Arm a timer firing after `delay` ns, tagged with `token`.
    /// Re-arming the same token is allowed; each firing carries the token.
    pub fn set_timer(&mut self, delay: u64, token: u64) {
        self.actions.push(Action::SetTimer { delay, token });
    }

    /// Cancel every pending timer with this token.
    pub fn cancel_timer(&mut self, token: u64) {
        self.actions.push(Action::CancelTimer { token });
    }
}

/// The discrete-event simulator. See the crate documentation.
pub struct Sim {
    config: SimConfig,
    nodes: Vec<NodeSlot>,
    links: Vec<Link>,
    queue: BinaryHeap<Reverse<Event>>,
    now: u64,
    seq: u64,
    started: bool,
}

impl Sim {
    pub fn new(config: SimConfig) -> Sim {
        Sim {
            config,
            nodes: Vec::new(),
            links: Vec::new(),
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            started: false,
        }
    }

    /// Register a node. Its `on_start` runs when the simulation starts.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSlot {
            node,
            links: Vec::new(),
            busy_until: 0,
            cpu_ns: 0,
            active_timers: HashMap::new(),
        });
        id
    }

    /// Reserve a node slot to fill later with [`Sim::replace_node`]. Link
    /// ids must exist before the daemon configurations that reference them
    /// can be built, so topologies reserve their routers, connect them,
    /// and fill each slot before the simulation starts. Starting with a
    /// slot still reserved panics.
    pub fn reserve_node(&mut self) -> NodeId {
        assert!(!self.started, "cannot reserve a node after the simulation started");
        self.add_node(Box::new(Reserved))
    }

    /// Replace a node's behaviour (typically a [`Sim::reserve_node`] slot)
    /// before the simulation starts.
    pub fn replace_node(&mut self, id: NodeId, node: Box<dyn Node>) {
        assert!(!self.started, "cannot replace a node after the simulation started");
        self.nodes[id.0].node = node;
    }

    /// Create a full-duplex link between `a` and `b` with the given one-way
    /// propagation latency in nanoseconds.
    pub fn connect(&mut self, a: NodeId, b: NodeId, latency: u64) -> LinkId {
        let id = LinkId(self.links.len());
        self.links.push(Link { a, b, latency, up: true });
        self.nodes[a.0].links.push(id);
        self.nodes[b.0].links.push(id);
        id
    }

    /// Administratively raise or lower a link. Lowering drops all in-flight
    /// data on it and notifies both endpoints; raising notifies only.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        if self.links[link.0].up == up {
            return;
        }
        self.links[link.0].up = up;
        if !up {
            // Drop in-flight data on this link.
            let mut rest: Vec<Reverse<Event>> = self.queue.drain().collect();
            rest.retain(
                |Reverse(e)| !matches!(&e.kind, EventKind::Data { link: l, .. } if *l == link),
            );
            self.queue.extend(rest);
        }
        let (a, b) = (self.links[link.0].a, self.links[link.0].b);
        for node in [a, b] {
            self.push(self.now, EventKind::LinkEvent { node, link, up });
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total measured CPU nanoseconds charged to `node` (0 unless CPU
    /// accounting is enabled).
    pub fn cpu_time(&self, node: NodeId) -> u64 {
        self.nodes[node.0].cpu_ns
    }

    /// Borrow a node downcast to its concrete type. Panics on type
    /// mismatch — a harness bug, not a simulation condition.
    pub fn node_ref<T: 'static>(&mut self, id: NodeId) -> &T {
        self.nodes[id.0]
            .node
            .as_any_mut()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutably borrow a node downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.0]
            .node
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event { time, seq, kind }));
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            assert!(
                !self.nodes[i].node.as_any_mut().is::<Reserved>(),
                "node {i} was reserved but never filled with replace_node"
            );
            self.push(0, EventKind::Start(NodeId(i)));
        }
    }

    /// Run until the queue is empty or virtual time exceeds `max_time`.
    /// Returns the number of events processed.
    pub fn run_until_idle(&mut self, max_time: u64) -> u64 {
        self.run_inner(max_time, true)
    }

    /// Run all events with `time <= until`, then set the clock to `until`.
    pub fn run_until(&mut self, until: u64) -> u64 {
        let n = self.run_inner(until, false);
        self.now = self.now.max(until);
        n
    }

    fn run_inner(&mut self, max_time: u64, _idle: bool) -> u64 {
        self.start_if_needed();
        let mut processed = 0u64;
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.time > max_time {
                break;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked");
            self.now = self.now.max(ev.time);
            processed += 1;
            self.dispatch(ev);
        }
        processed
    }

    fn dispatch(&mut self, ev: Event) {
        type NodeCall = Box<dyn for<'c> FnOnce(&mut dyn Node, &mut NodeCtx<'c>)>;
        let (node_id, call): (NodeId, NodeCall) = match ev.kind {
            EventKind::Start(n) => (n, Box::new(|node, ctx| node.on_start(ctx))),
            EventKind::Data { to, link, data } => {
                (to, Box::new(move |node, ctx| node.on_data(ctx, link, &data)))
            }
            EventKind::Timer { node, token, timer_id } => {
                // Fire only if this instance is still armed (not
                // cancelled); firing disarms it.
                let slot = &mut self.nodes[node.0];
                let live =
                    slot.active_timers.get_mut(&token).is_some_and(|set| set.remove(&timer_id));
                if !live {
                    return;
                }
                (node, Box::new(move |n, ctx| n.on_timer(ctx, token)))
            }
            EventKind::LinkEvent { node, link, up } => {
                (node, Box::new(move |n, ctx| n.on_link_event(ctx, link, up)))
            }
        };

        let slot = &mut self.nodes[node_id.0];
        let links_snapshot = slot.links.clone();
        let begin = slot.busy_until.max(self.now);
        let mut ctx = NodeCtx {
            now: begin,
            node: node_id,
            links: &links_snapshot,
            actions: Vec::new(),
        };
        let wall_start = self.config.cpu_accounting.then(Instant::now);
        call(slot.node.as_mut(), &mut ctx);
        let cpu = wall_start.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
        let finish = begin + cpu;
        let slot = &mut self.nodes[node_id.0];
        slot.cpu_ns += cpu;
        slot.busy_until = finish;

        // Apply queued actions relative to the completion time.
        for action in ctx.actions {
            match action {
                Action::Send { link, data } => {
                    let l = &self.links[link.0];
                    if !l.up {
                        continue;
                    }
                    let to = if l.a == node_id { l.b } else { l.a };
                    let at = finish + l.latency;
                    self.push(at, EventKind::Data { to, link, data });
                }
                Action::SetTimer { delay, token } => {
                    let timer_id = self.seq;
                    self.nodes[node_id.0].active_timers.entry(token).or_default().insert(timer_id);
                    self.push(finish + delay, EventKind::Timer { node: node_id, token, timer_id });
                }
                Action::CancelTimer { token } => {
                    self.nodes[node_id.0].active_timers.remove(&token);
                }
            }
        }
    }
}
