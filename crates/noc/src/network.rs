//! The network state machine: input-buffered routers joined by
//! bandwidth-modeled links, driven by an internal event queue.
//!
//! ## Model
//!
//! Every node (host, cube, interface chip) is a router with:
//!
//! - one **input buffer per (port, virtual channel)** — ports are the
//!   node's links plus its *local* injection ports (1 for the host, 4 for a
//!   cube: its four quadrant controllers, reproducing the §3.2 arbitration
//!   imbalance where local vaults outnumber the through port);
//! - one **ejection buffer per virtual channel**, from which the owner
//!   (host core or cube logic) pulls packets — a full ejection buffer backs
//!   pressure up into the network;
//! - one **arbiter per output** (each link, plus ejection), implementing
//!   the configured [`crate::ArbiterKind`].
//!
//! Links are full-duplex; each direction carries one packet at a time and
//! is occupied for the packet's serialization time, with a fixed SerDes
//! latency added on top before the packet lands in the neighbor's input
//! buffer. Buffer space is reserved at send time (credit-based flow
//! control), so packets are never dropped.
//!
//! Responses have strict priority over requests at every output, but a
//! blocked response never blocks a request: candidates that lack downstream
//! space simply do not contend.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use mn_sim::{ArenaRef, EventQueue, GenArena, KernelCounters, SimTime};
use mn_topo::{NodeId, NodeKind, PathClass, RoutingTable, Topology};

use crate::arbiter::{ArbiterImpl, Candidate};
use crate::config::{LinkDuplex, NocConfig};
use crate::fault::{FaultModel, FaultStats};
use crate::packet::{Packet, PacketId, VirtualChannel};
use crate::stats::NetStats;
use crate::telem::{FlightEntry, NetTelem, NetTelemetry};

const VC: usize = VirtualChannel::COUNT;

/// Conversion into a shared topology handle for [`Network`] construction.
///
/// Campaigns fan thousands of short per-port jobs over the same topology;
/// passing an `Arc<Topology>` (or a reference to one) shares it, while a
/// plain `&Topology` clones once for callers that don't care.
pub trait IntoSharedTopology {
    /// Produces the shared handle.
    fn into_shared(self) -> Arc<Topology>;
}

impl IntoSharedTopology for Arc<Topology> {
    fn into_shared(self) -> Arc<Topology> {
        self
    }
}

impl IntoSharedTopology for &Arc<Topology> {
    fn into_shared(self) -> Arc<Topology> {
        Arc::clone(self)
    }
}

impl IntoSharedTopology for Topology {
    fn into_shared(self) -> Arc<Topology> {
        Arc::new(self)
    }
}

impl IntoSharedTopology for &Topology {
    fn into_shared(self) -> Arc<Topology> {
        Arc::new(self.clone())
    }
}

/// Error returned when a local injection buffer has no space; retry after
/// the network drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkFull;

impl fmt::Display for NetworkFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injection buffer is full")
    }
}

impl Error for NetworkFull {}

/// Error building a [`Network`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// Hard link failures severed the network: the listed cubes cannot
    /// exchange traffic with the host on every path class even after
    /// routing around the dead links. Reported at construction — a
    /// partitioned network would otherwise strand packets forever and
    /// present as a hang.
    Partitioned {
        /// Cubes unreachable from the host (ascending id order).
        unreachable: Vec<NodeId>,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Partitioned { unreachable } => {
                write!(
                    f,
                    "dead links partition the network: {} cube(s) unreachable (",
                    unreachable.len()
                )?;
                for (i, node) in unreachable.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{node}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl Error for NetworkError {}

/// A packet pulled from a node's ejection buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The node that received the packet.
    pub node: NodeId,
    /// The packet itself.
    pub packet: Packet,
    /// When the packet entered the ejection buffer.
    pub arrived_at: SimTime,
}

#[derive(Debug, Default)]
struct Buf {
    /// Handles into the network's packet arena, with arrival timestamps.
    queue: VecDeque<(ArenaRef, SimTime)>,
    reserved: usize,
    capacity: usize,
}

impl Buf {
    fn with_capacity(capacity: usize) -> Buf {
        Buf {
            // Buffers are small and bounded; allocating them up front keeps
            // the simulation loop free of growth reallocations.
            queue: VecDeque::with_capacity(capacity),
            reserved: 0,
            capacity,
        }
    }

    fn has_space(&self) -> bool {
        self.queue.len() + self.reserved < self.capacity
    }

    fn head(&self) -> Option<ArenaRef> {
        self.queue.front().map(|&(h, _)| h)
    }
}

/// Per-node geometry into the struct-of-arrays router state: all input
/// buffers live in one flat `Vec<Buf>` (indexed
/// `buf_base + port * VC + vc`), all arbiters in one flat
/// `Vec<ArbiterImpl>` (indexed `arb_base + output`, ejection last), so a
/// node's hot state is contiguous instead of scattered behind per-node
/// `Vec`s and boxed trait objects. Ports are externals first (in adjacency
/// order) then locals.
#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    ext_ports: u32,
    local_ports: u32,
    buf_base: u32,
    arb_base: u32,
}

impl NodeMeta {
    #[inline]
    fn buf_idx(self, port: usize, vc: usize) -> usize {
        self.buf_base as usize + port * VC + vc
    }

    /// Arbiter index for external output `out` (`out == ext_ports` is the
    /// ejection output).
    #[inline]
    fn arb_idx(self, out: usize) -> usize {
        self.arb_base as usize + out
    }
}

#[derive(Debug, Clone, Copy)]
enum NetEvent {
    /// A packet finishes traversing a link and lands in `node`'s input
    /// buffer at `port`.
    Arrive {
        node: NodeId,
        port: usize,
        packet: ArenaRef,
    },
    /// Run arbitration at `node`.
    TryArb { node: NodeId },
}

/// The memory-network interconnect behind one host port.
///
/// Drive it like the other components in this workspace: inject packets,
/// call [`Network::advance`] whenever simulated time reaches
/// [`Network::next_event_time`], and pull [`Delivery`]s from nodes it
/// reports ready.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug)]
pub struct Network {
    topo: Arc<Topology>,
    routes: RoutingTable,
    config: NocConfig,
    /// Per-node geometry into the flat state vectors below.
    meta: Vec<NodeMeta>,
    /// All input buffers, struct-of-arrays: `meta[n].buf_idx(port, vc)`.
    bufs: Vec<Buf>,
    /// All ejection buffers: `node * VC + vc`.
    eject: Vec<Buf>,
    /// All arbiters: `meta[n].arb_idx(output)`, ejection last per node.
    arbiters: Vec<ArbiterImpl>,
    /// Route-indexed head masks, one per (arbiter, VC) at
    /// `arb_idx(out) * VC + vc`: bit `p` is set iff input buffer `(p, vc)`
    /// holds a head packet leaving by output `out` (ejection when it is
    /// addressed to this node, else its routed next port). Arbitration
    /// walks the set bits instead of probing every port's head for every
    /// output; ascending bit order is the port order the scan produced.
    head_masks: Vec<u64>,
    /// Every packet inside the network (buffered or in flight) lives here;
    /// buffers and events carry 8-byte [`ArenaRef`] handles. Slots recycle
    /// through a free list, so past the high-water mark the steady-state
    /// path allocates nothing per packet.
    packets: GenArena<Packet>,
    /// `link_free_at[link][dir]`; dir 0 is a→b.
    link_free_at: Vec<[SimTime; 2]>,
    /// `neighbor_ports[node][out_port]`: the input-port index our link
    /// occupies at the neighbor on the other end, precomputed so the send
    /// path never searches the adjacency lists.
    neighbor_ports: Vec<Vec<usize>>,
    events: EventQueue<NetEvent>,
    /// Lazy arbitration-coalescing state: `arb_clean[n]` is true when node
    /// `n` has arbitrated at `last_arb[n]` and no state change that could
    /// enable new movement *at that same instant* has happened since. A
    /// `TryArb` firing for a clean node at exactly `last_arb[n]` is a
    /// provable no-op and its (expensive) port/VC scan is skipped. The
    /// events themselves are never dropped: which packet wins an output
    /// depends on how same-instant arbitrations interleave with arrivals,
    /// so removing or reordering pushes would perturb results — the skip
    /// happens at fire time, where no-op-ness is certain.
    arb_clean: Vec<bool>,
    /// Instant of each node's most recent arbitration (paired with
    /// `arb_clean`; meaningless while the flag is false).
    last_arb: Vec<SimTime>,
    /// Per-node membership flag for the in-progress `advance` ready list —
    /// structural dedup instead of a sort+dedup pass per call.
    ready_pending: Vec<bool>,
    /// Reusable arbitration candidate buffer (cleared before each use).
    scratch: Vec<Candidate>,
    /// Reusable same-instant event batch for [`Network::advance`].
    batch: Vec<NetEvent>,
    next_packet_id: u64,
    stats: NetStats,
    /// Fault injection state; `None` on the zero-fault path, which then
    /// executes exactly the pre-fault-model arithmetic (the bit-identical
    /// baseline contract).
    faults: Option<FaultModel>,
    /// Telemetry state. Every hook early-returns on the mode enum
    /// (`Off` by default), so the instrumented hot path costs one
    /// predictable branch; rings and series are pre-sized here at
    /// construction so even `Full` tracing allocates nothing per event.
    telem: NetTelem,
}

impl Network {
    /// Builds the network for `topo` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation (see [`NocConfig::validate`])
    /// or if fault injection partitioned the network — use
    /// [`Network::try_new`] to handle partitions structurally.
    pub fn new(topo: impl IntoSharedTopology, config: NocConfig) -> Network {
        Network::try_new(topo, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the network, reporting a [`NetworkError::Partitioned`] when
    /// hard link faults leave some cube with no route to the host.
    ///
    /// Accepts an `Arc<Topology>` (shared — campaigns fanning out per-port
    /// jobs reuse one topology allocation) or a `&Topology` (cloned once).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation (see [`NocConfig::validate`]).
    pub fn try_new(
        topo: impl IntoSharedTopology,
        config: NocConfig,
    ) -> Result<Network, NetworkError> {
        let topo = topo.into_shared();
        config.validate();
        let config_trace = config.trace;
        let faults = config
            .fault
            .enabled()
            .then(|| FaultModel::build(&topo, config.fault.clone()));
        let dead = faults.as_ref().map_or(&[][..], |fm| fm.dead_links());
        let routes = if dead.is_empty() {
            topo.routing()
        } else {
            let routes = RoutingTable::compute_avoiding(&topo, dead);
            // Every cube must exchange traffic with the host on both path
            // classes (after the write→read degradation inside
            // `compute_avoiding`); anything less would strand packets.
            let unreachable: Vec<NodeId> = topo
                .cubes()
                .map(|(cube, _)| cube)
                .filter(|&cube| {
                    PathClass::ALL.iter().any(|&class| {
                        !routes.reachable(class, topo.host(), cube)
                            || !routes.reachable(class, cube, topo.host())
                    })
                })
                .collect();
            if !unreachable.is_empty() {
                return Err(NetworkError::Partitioned { unreachable });
            }
            routes
        };
        let mut meta = Vec::with_capacity(topo.node_count());
        let mut arbiters = Vec::new();
        let mut link_ports = vec![Vec::new(); topo.node_count()];
        let mut buf_count = 0usize;
        for id in topo.node_ids() {
            let ext_ports = topo.degree(id);
            let local_ports = match topo.node(id).kind {
                NodeKind::Host => 1,
                // Four quadrant controllers inject responses (§3.2: "four
                // of the input queues come from the cube's local vaults").
                NodeKind::Cube(_) => 4,
                NodeKind::Interface => 0,
            };
            for (port, &(_, link)) in topo.neighbors(id).iter().enumerate() {
                link_ports[id.index()].push((link, port));
            }
            let total_ports = ext_ports + local_ports;
            assert!(
                total_ports <= 64,
                "node {id} has {total_ports} ports; head masks hold 64"
            );
            let buf_base = u32::try_from(buf_count).expect("buffer count fits u32");
            buf_count += total_ports * VC;
            // One arbiter per external output port plus one for ejection.
            let arb_base = u32::try_from(arbiters.len()).expect("arbiter count fits u32");
            for _ in 0..=ext_ports {
                arbiters.push(config.arbiter.instantiate(total_ports));
            }
            meta.push(NodeMeta {
                ext_ports: ext_ports as u32,
                local_ports: local_ports as u32,
                buf_base,
                arb_base,
            });
        }
        // The packet arena is sized so every live packet (some buffer
        // slot, or in flight on a link — a handful per direction at most)
        // fits without slot-vector growth in the steady state.
        let eject_count = topo.node_count() * VC;
        let arena_capacity = buf_count * config.buffer_packets
            + eject_count * config.ejection_packets
            + 8 * topo.link_count();
        let bufs = (0..buf_count)
            .map(|_| Buf::with_capacity(config.buffer_packets))
            .collect();
        let eject = (0..eject_count)
            .map(|_| Buf::with_capacity(config.ejection_packets))
            .collect();
        // `neighbor_ports[node][out_port]`: the input-port index our link
        // occupies at the neighbor.
        let neighbor_ports: Vec<Vec<usize>> = topo
            .node_ids()
            .map(|id| {
                topo.neighbors(id)
                    .iter()
                    .map(|&(neighbor, link)| {
                        link_ports[neighbor.index()]
                            .iter()
                            .find(|(l, _)| *l == link)
                            .map(|&(_, p)| p)
                            .expect("link attaches to both endpoints")
                    })
                    .collect()
            })
            .collect();
        let stats = NetStats::new(topo.link_count());
        // Pre-size the event queue for the common working set — order one
        // arbitration event per node plus one in-flight packet per link
        // direction, doubled for wake cascades — so its slots exist before
        // the run starts and the steady state does not allocate.
        let event_capacity = 2 * (topo.node_count() + 2 * topo.link_count());
        Ok(Network {
            routes,
            config,
            meta,
            bufs,
            eject,
            head_masks: vec![0; arbiters.len() * VC],
            arbiters,
            packets: GenArena::with_capacity(arena_capacity),
            link_free_at: vec![[SimTime::ZERO; 2]; topo.link_count()],
            neighbor_ports,
            events: EventQueue::with_capacity(event_capacity),
            arb_clean: vec![false; topo.node_count()],
            last_arb: vec![SimTime::ZERO; topo.node_count()],
            ready_pending: vec![false; topo.node_count()],
            scratch: Vec::with_capacity(16),
            batch: Vec::with_capacity(64),
            next_packet_id: 0,
            stats,
            faults,
            telem: NetTelem::new(config_trace, &topo),
            topo,
        })
    }

    /// The routing table the network forwards with.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Fault activity so far; `None` when fault injection is disabled.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|fm| fm.stats())
    }

    /// Number of local injection ports at `node` (1 for the host, 4 for
    /// cubes, 0 for interface chips).
    pub fn local_ports(&self, node: NodeId) -> usize {
        self.meta[node.index()].local_ports as usize
    }

    /// True if `packet` could be injected at `node`/`local_port` right now.
    #[inline]
    pub fn can_inject(&self, node: NodeId, local_port: usize, packet: &Packet) -> bool {
        let meta = self.meta[node.index()];
        assert!(
            local_port < meta.local_ports as usize,
            "node {node} has {} local ports, got {local_port}",
            meta.local_ports
        );
        let port = meta.ext_ports as usize + local_port;
        self.bufs[meta.buf_idx(port, packet.kind.virtual_channel().index())].has_space()
    }

    /// Injects `packet` into `node`'s local port.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkFull`] when the injection buffer has no space.
    ///
    /// # Panics
    ///
    /// Panics if `local_port` is out of range or the packet is addressed to
    /// its own injection node.
    pub fn inject(
        &mut self,
        node: NodeId,
        local_port: usize,
        mut packet: Packet,
        now: SimTime,
    ) -> Result<PacketId, NetworkFull> {
        assert!(packet.dst != node, "packet addressed to its own node");
        if !self.can_inject(node, local_port, &packet) {
            return Err(NetworkFull);
        }
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        packet.assign_id(id, now);
        let meta = self.meta[node.index()];
        let port = meta.ext_ports as usize + local_port;
        let vc = packet.kind.virtual_channel().index();
        let handle = self.packets.insert(packet);
        let buf = &mut self.bufs[meta.buf_idx(port, vc)];
        buf.queue.push_back((handle, now));
        let depth = buf.queue.len();
        if depth == 1 {
            self.set_head_bit(node, port, vc);
        }
        self.stats.injected.incr();
        self.telem.on_inject(now, node, id, depth);
        self.request_arb(node, now);
        Ok(id)
    }

    /// The next instant at which [`Network::advance`] can make progress.
    #[inline]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Schedules an arbitration for `node` at `time` and marks the node
    /// dirty, so the pending-event skip in [`Network::advance`] cannot
    /// treat it as a no-op. Every push site goes through here: the pushed
    /// stream (and hence the FIFO sequence numbering that orders
    /// same-instant events) is exactly the pre-optimization one, which is
    /// what keeps results bit-identical.
    fn request_arb(&mut self, node: NodeId, time: SimTime) {
        self.arb_clean[node.index()] = false;
        self.events.push(time, NetEvent::TryArb { node });
    }

    /// Processes all internal events up to and including `now`, appending
    /// the nodes whose ejection buffers gained packets to `ready` (cleared
    /// first, each node at most once, in ascending order); pull them with
    /// [`Network::take_delivery`].
    ///
    /// The caller owns — and should reuse — the `ready` buffer: the hot
    /// loop of a port simulation calls this every iteration, and
    /// re-allocating the list per call was a measurable tax.
    pub fn advance(&mut self, now: SimTime, ready: &mut Vec<NodeId>) {
        ready.clear();
        let mut batch = std::mem::take(&mut self.batch);
        while self.events.peek_time().is_some_and(|t| t <= now) {
            // Take the entire same-instant run in one call: the queue
            // swaps the instant's FIFO into `batch` without copying, and
            // the flattened sequence is identical to popping one at a
            // time. Events pushed at `t` *while processing the batch*
            // carry later sequence numbers than every batch member, so
            // they fire in a follow-up batch at the same `t`, exactly
            // where repeated `pop` would have delivered them.
            let (t, _) = self
                .events
                .pop_batch_into(&mut batch)
                .expect("peeked non-empty");
            for event in batch.drain(..) {
                if self.telem.tracing() {
                    self.telem.on_kernel_event(match event {
                        NetEvent::Arrive { node, port, packet } => FlightEntry::Arrive {
                            at: t,
                            node,
                            port,
                            packet: self
                                .packets
                                .get(packet)
                                .map_or(PacketId(u64::MAX), |p| p.id),
                        },
                        NetEvent::TryArb { node } => FlightEntry::TryArb { at: t, node },
                    });
                }
                match event {
                    NetEvent::Arrive { node, port, packet } => {
                        self.handle_arrival(node, port, packet, t);
                    }
                    NetEvent::TryArb { node } => {
                        // Skip the scan when this is provably a no-op: the
                        // node already arbitrated at this exact instant and
                        // nothing has changed since. At a *later* instant a
                        // busy link may have freed, so the flag only holds
                        // within one timestamp. The flag is set before the
                        // scan: packet movement inside `arbitrate` re-dirties
                        // the node (via `wake_upstream`), exactly like the
                        // self-wake events the original kernel relied on.
                        if !(self.arb_clean[node.index()] && self.last_arb[node.index()] == t) {
                            self.arb_clean[node.index()] = true;
                            self.last_arb[node.index()] = t;
                            self.arbitrate(node, t, ready);
                        }
                    }
                }
            }
        }
        self.batch = batch;
        // Membership is already unique (structural dedup via
        // `ready_pending`); the sort stays because callers drain nodes in
        // ascending order and the drain order is part of the deterministic,
        // bit-reproducible behavior the result cache depends on.
        ready.sort_unstable();
        for &node in ready.iter() {
            self.ready_pending[node.index()] = false;
        }
    }

    /// Pops the oldest deliverable packet at `node` (responses before
    /// requests), freeing ejection space — which may unblock the network.
    pub fn take_delivery(&mut self, node: NodeId, now: SimTime) -> Option<Delivery> {
        for vc in VirtualChannel::PRIORITY_ORDER {
            if let Some((handle, arrived_at)) =
                self.eject[node.index() * VC + vc.index()].queue.pop_front()
            {
                let packet = self.packets.remove(handle);
                self.stats.delivered.incr();
                self.request_arb(node, now);
                return Some(Delivery {
                    node,
                    packet,
                    arrived_at,
                });
            }
        }
        None
    }

    /// The packet [`Network::take_delivery`] would return next at `node`,
    /// without removing it. Lets cube logic check controller space before
    /// committing — the backpressure path.
    #[inline]
    pub fn peek_delivery(&self, node: NodeId) -> Option<&Packet> {
        VirtualChannel::PRIORITY_ORDER.iter().find_map(|vc| {
            self.eject[node.index() * VC + vc.index()]
                .head()
                .map(|h| self.packets.get(h).expect("ejected packet is live"))
        })
    }

    /// True if `node` has a deliverable packet waiting.
    #[inline]
    pub fn has_delivery(&self, node: NodeId) -> bool {
        self.eject[node.index() * VC..node.index() * VC + VC]
            .iter()
            .any(|b| !b.queue.is_empty())
    }

    /// Total packets currently inside the network (buffered or in flight).
    pub fn in_flight(&self) -> u64 {
        self.stats.injected.value() - self.stats.delivered.value()
    }

    fn handle_arrival(&mut self, node: NodeId, port: usize, handle: ArenaRef, now: SimTime) {
        let packet = self
            .packets
            .get_mut(handle)
            .expect("in-flight packet is live");
        packet.record_hop();
        let kind = packet.kind;
        let id = packet.id;
        self.stats.hops.incr();
        self.stats.bit_hops += u64::from(self.config.packet_bytes(kind)) * 8;
        let vc = kind.virtual_channel().index();
        let buf = &mut self.bufs[self.meta[node.index()].buf_idx(port, vc)];
        debug_assert!(buf.reserved > 0, "arrival without reservation");
        buf.reserved -= 1;
        buf.queue.push_back((handle, now));
        let depth = buf.queue.len();
        if depth == 1 {
            self.set_head_bit(node, port, vc);
        }
        self.telem.on_enqueue(now, node, id, depth);
        self.request_arb(node, now);
    }

    /// The head-mask slot of the packet at the head of `node`'s input
    /// buffer `(port, vc)`, or `None` when that buffer is empty or its
    /// head has no usable output (the `NO_PORT` sentinel: no output's
    /// arbitration could ever select it).
    fn head_slot(&self, node: NodeId, port: usize, vc: usize) -> Option<usize> {
        let meta = self.meta[node.index()];
        let handle = self.bufs[meta.buf_idx(port, vc)].head()?;
        let head = self.packets.get(handle).expect("buffered packet is live");
        let ext_ports = meta.ext_ports as usize;
        let out = if head.dst == node {
            ext_ports
        } else {
            let out = usize::from(self.routes.next_port(head.class, node, head.dst));
            if out >= ext_ports {
                return None;
            }
            out
        };
        Some(meta.arb_idx(out) * VC + vc)
    }

    /// Records the (new) head of `node`'s input buffer `(port, vc)` in its
    /// output's head mask.
    fn set_head_bit(&mut self, node: NodeId, port: usize, vc: usize) {
        if let Some(slot) = self.head_slot(node, port, vc) {
            self.head_masks[slot] |= 1 << port;
        }
    }

    /// Pops the head of `node`'s input buffer `(port, vc)`, which sits in
    /// head-mask `slot`, and moves the buffer's bit to its next head.
    fn pop_head(&mut self, node: NodeId, port: usize, vc: usize, slot: usize) -> ArenaRef {
        let buf = &mut self.bufs[self.meta[node.index()].buf_idx(port, vc)];
        let (handle, _) = buf.queue.pop_front().expect("selected head exists");
        let more = !buf.queue.is_empty();
        self.head_masks[slot] &= !(1 << port);
        if more {
            self.set_head_bit(node, port, vc);
        }
        handle
    }

    /// Debug check: `node`'s head masks hold exactly the bits its buffer
    /// heads imply. Every implied bit must be set, and the masks may hold
    /// no others.
    #[cfg(debug_assertions)]
    fn check_head_masks(&self, node: NodeId) {
        let meta = self.meta[node.index()];
        let mut implied = 0u32;
        for port in 0..(meta.ext_ports + meta.local_ports) as usize {
            for vc in 0..VC {
                if let Some(slot) = self.head_slot(node, port, vc) {
                    assert!(
                        self.head_masks[slot] & (1 << port) != 0,
                        "node {node}: head of ({port}, {vc}) missing from mask {slot}"
                    );
                    implied += 1;
                }
            }
        }
        let held: u32 = self.node_masks(meta).iter().map(|m| m.count_ones()).sum();
        assert_eq!(held, implied, "node {node}: stale head-mask bits");
    }

    /// A node's head masks, `[out * VC + vc]` for outputs
    /// `0..=ext_ports` (ejection last): its arbiters are contiguous.
    #[inline]
    fn node_masks(&self, meta: NodeMeta) -> &[u64] {
        let first = meta.arb_idx(0) * VC;
        &self.head_masks[first..first + (meta.ext_ports as usize + 1) * VC]
    }

    /// True if some head packet at `node` leaves by output `out`.
    #[inline]
    fn output_has_heads(&self, meta: NodeMeta, out: usize) -> bool {
        self.node_masks(meta)[out * VC..out * VC + VC]
            .iter()
            .any(|&m| m != 0)
    }

    /// Runs arbitration for every output of `node` that can act at `now`.
    fn arbitrate(&mut self, node: NodeId, now: SimTime, ready: &mut Vec<NodeId>) {
        #[cfg(debug_assertions)]
        self.check_head_masks(node);
        let meta = self.meta[node.index()];
        if self.node_masks(meta).iter().all(|&m| m == 0) {
            // No head can leave by any output — the common case, since
            // wake cascades re-arm empty nodes aggressively. Every call
            // below would find no candidate and change no state.
            return;
        }
        if self.output_has_heads(meta, meta.ext_ports as usize) {
            self.arbitrate_ejection(node, now, ready);
        }
        for out_port in 0..meta.ext_ports as usize {
            // No head routes out of this port: the call could find no
            // candidate and would change no state.
            if self.output_has_heads(meta, out_port) {
                self.arbitrate_link_output(node, out_port, now);
            }
        }
    }

    /// Moves packets destined for `node` itself from input buffers into the
    /// ejection buffers (intra-router, no link time).
    fn arbitrate_ejection(&mut self, node: NodeId, now: SimTime, ready: &mut Vec<NodeId>) {
        let n = node.index();
        let meta = self.meta[n];
        let eject_arb = meta.arb_idx(meta.ext_ports as usize);
        let mut candidates = std::mem::take(&mut self.scratch);
        loop {
            let mut chosen: Option<(usize, usize)> = None; // (port, vc)
            for vc in VirtualChannel::PRIORITY_ORDER {
                let mask = self.head_masks[eject_arb * VC + vc.index()];
                if mask == 0 || !self.eject[n * VC + vc.index()].has_space() {
                    continue;
                }
                candidates.clear();
                self.collect_candidates(meta, vc.index(), mask, eject_arb, &mut candidates);
                self.stats.arbitration_rounds.incr();
                let i = self.arbiters[eject_arb].pick(&candidates);
                chosen = Some((candidates[i].input_port, vc.index()));
                break;
            }
            let Some((port, vc)) = chosen else { break };
            let handle = self.pop_head(node, port, vc, eject_arb * VC + vc);
            if self.telem.tracing() {
                let id = self.packets.get(handle).expect("ejected packet is live").id;
                self.telem.on_eject(now, node, id);
            }
            self.eject[n * VC + vc].queue.push_back((handle, now));
            if !self.ready_pending[n] {
                self.ready_pending[n] = true;
                ready.push(node);
            }
            self.wake_upstream(node, port, now);
        }
        candidates.clear();
        self.scratch = candidates;
    }

    /// Appends one candidate per set bit of `mask` — the heads on `vc`
    /// contending for arbiter `arb` — in ascending input-port order.
    fn collect_candidates(
        &self,
        meta: NodeMeta,
        vc: usize,
        mut mask: u64,
        arb: usize,
        candidates: &mut Vec<Candidate>,
    ) {
        while mask != 0 {
            let port = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let handle = self.bufs[meta.buf_idx(port, vc)]
                .head()
                .expect("mask bit marks a head");
            let head = self.packets.get(handle).expect("buffered packet is live");
            candidates.push(Candidate {
                input_port: port,
                weight: self.arbiters[arb].weigh(head),
            });
        }
    }

    /// Tries to send one packet out of `out_port`; reschedules itself when
    /// the link frees.
    fn arbitrate_link_output(&mut self, node: NodeId, out_port: usize, now: SimTime) {
        let (neighbor, link) = self.topo.neighbors(node)[out_port];
        // Dead links never carry traffic. Routing already avoids them, so
        // no candidate can select this output; the guard skips the scan and
        // keeps that invariant explicit.
        if self.faults.as_ref().is_some_and(|fm| fm.is_dead(link)) {
            return;
        }
        let link_info = self.topo.link(link);
        let dir = usize::from(link_info.a != node);
        let busy = match self.config.duplex {
            LinkDuplex::Half => {
                // One shared channel: either direction occupies the link.
                self.link_free_at[link.index()][0].max(self.link_free_at[link.index()][1])
            }
            LinkDuplex::Full => self.link_free_at[link.index()][dir],
        };
        if busy > now {
            // Busy; a TryArb is already scheduled for when it frees.
            return;
        }
        // Which port does this link occupy at the neighbor?
        let neighbor_port = self.neighbor_ports[node.index()][out_port];
        let meta = self.meta[node.index()];
        let neighbor_meta = self.meta[neighbor.index()];
        let out_arb = meta.arb_idx(out_port);

        let mut candidates = std::mem::take(&mut self.scratch);
        let mut selection: Option<(usize, usize)> = None; // (input port, vc)
        for vc in VirtualChannel::PRIORITY_ORDER {
            // A head never leaves by the port it arrived on.
            let mask = self.head_masks[out_arb * VC + vc.index()] & !(1 << out_port);
            // Candidates need downstream buffer space on their VC.
            if mask == 0 || !self.bufs[neighbor_meta.buf_idx(neighbor_port, vc.index())].has_space()
            {
                continue;
            }
            candidates.clear();
            self.collect_candidates(meta, vc.index(), mask, out_arb, &mut candidates);
            self.stats.arbitration_rounds.incr();
            let i = self.arbiters[out_arb].pick(&candidates);
            selection = Some((candidates[i].input_port, vc.index()));
            break;
        }
        candidates.clear();
        self.scratch = candidates;
        let Some((in_port, vc)) = selection else {
            return;
        };

        let departed_depth = self.bufs[meta.buf_idx(in_port, vc)].queue.len();
        let handle = self.pop_head(node, in_port, vc, out_arb * VC + vc);
        self.bufs[neighbor_meta.buf_idx(neighbor_port, vc)].reserved += 1;

        let moved = self
            .packets
            .get_mut(handle)
            .expect("selected packet is live");
        // ECN: forwarding out of a congested input buffer stamps the
        // packet (depth measured including the departing packet, so a
        // threshold equal to the buffer capacity is still reachable).
        // Threshold 0 — the default — never marks, keeping the open-loop
        // byte-identity contract.
        if self.config.ecn_threshold > 0
            && departed_depth >= self.config.ecn_threshold as usize
            && !moved.marked
        {
            moved.marked = true;
            self.stats.marked.incr();
        }
        let kind = moved.kind;
        let id = moved.id;
        let timing = self.config.link_timing(link_info.class);
        let base_ser = timing.serialize(self.config.packet_bytes(kind));
        let mut ser = base_ser;
        if let Some(fm) = &mut self.faults {
            // Lane degradation and CRC retry/replay stretch the occupancy;
            // the packet itself always gets through (latency, not loss).
            ser = fm.traverse(link, ser);
        }
        self.telem.on_link_send(now, link, id, ser, ser != base_ser);
        let free_at = now + ser;
        self.link_free_at[link.index()][dir] = free_at;
        self.stats.link_busy[link.index() * 2 + dir] += ser;

        self.events.push(
            free_at + timing.fixed_latency,
            NetEvent::Arrive {
                node: neighbor,
                port: neighbor_port,
                packet: handle,
            },
        );
        // Try to use the link again the moment it frees — from both ends
        // when the channel is shared.
        self.request_arb(node, free_at);
        if self.config.duplex == LinkDuplex::Half {
            self.request_arb(neighbor, free_at);
        }
        self.wake_upstream(node, in_port, now);
    }

    /// Freed a slot in `node`'s input buffer at `port`: wake whoever feeds
    /// that buffer so they can arbitrate for the space.
    fn wake_upstream(&mut self, node: NodeId, port: usize, now: SimTime) {
        if port < self.meta[node.index()].ext_ports as usize {
            let (upstream, _) = self.topo.neighbors(node)[port];
            self.request_arb(upstream, now);
        }
        // Local ports are fed by the host core / cube logic, which polls
        // `can_inject` — nothing to wake inside the network.
        self.request_arb(node, now);
    }

    /// Extracts the telemetry collected so far (lifecycle tracer, link
    /// utilization series, queue-depth distribution), or `None` when the
    /// configured mode was [`mn_telemetry::TraceConfig::Off`]. Intended
    /// to be called once, after the run completes.
    pub fn take_telemetry(&mut self) -> Option<NetTelemetry> {
        self.telem.take(&self.topo)
    }

    /// The flight recorder's retained kernel events, oldest first,
    /// rendered for a stall post-mortem. Empty unless the configured
    /// mode was [`mn_telemetry::TraceConfig::Full`].
    pub fn flight_dump(&self) -> Vec<String> {
        self.telem.flight_dump()
    }

    /// Total internal events processed since construction — the denominator
    /// of the kernel's events/sec throughput metric.
    pub fn events_processed(&self) -> u64 {
        self.events.events_processed()
    }

    /// High-water mark of the internal event queue — how large a working
    /// set the heap had to sustain (coalescing drives this down).
    pub fn event_queue_peak(&self) -> usize {
        self.events.peak_len()
    }

    /// Snapshot of the kernel-level performance counters: event-queue
    /// traffic and the packet arena's high-water mark. `bucket_spills` and
    /// `rewindows` are always zero (the queue has neither), and
    /// `steady_heap_allocs` is left at zero — only the driving binary can
    /// observe the global allocator.
    pub fn kernel_counters(&self) -> KernelCounters {
        KernelCounters {
            events_scheduled: self.events.events_scheduled(),
            events_processed: self.events.events_processed(),
            queue_peak: self.events.peak_len() as u64,
            bucket_spills: 0,
            rewindows: 0,
            arena_high_water: self.packets.high_water() as u64,
            steady_heap_allocs: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterKind;
    use crate::packet::PacketKind;
    use mn_topo::{CubeTech, PathClass, Placement, TopologyKind};

    fn chain(n: usize) -> Topology {
        Topology::build(
            TopologyKind::Chain,
            &Placement::homogeneous(n, CubeTech::Dram),
        )
        .unwrap()
    }

    /// Drives the network until quiescent, returning every delivery.
    fn run_to_quiescence(net: &mut Network) -> Vec<Delivery> {
        let mut out = Vec::new();
        let mut ready = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            net.advance(now, &mut ready);
            for &node in &ready {
                while let Some(d) = net.take_delivery(node, now) {
                    out.push(d);
                }
            }
            match net.next_event_time() {
                Some(t) => now = t,
                None => break,
            }
        }
        out
    }

    #[test]
    fn single_packet_end_to_end() {
        let topo = chain(4);
        let mut net = Network::new(&topo, NocConfig::default());
        let dst = topo.cube_at_position(4).unwrap();
        let pkt = Packet::request(7, PacketKind::ReadRequest, topo.host(), dst);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();

        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries.len(), 1);
        let d = &deliveries[0];
        assert_eq!(d.node, dst);
        assert_eq!(d.packet.token, 7);
        assert_eq!(d.packet.hops(), 4);
        // 4 hops x (16B x 33 ps + 2 ns serdes) ≈ 10.1 ns.
        let expect = SimTime::from_ps(4 * (16 * 33 + 2000));
        assert_eq!(d.arrived_at, expect);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn full_tracing_observes_without_perturbing() {
        let topo = chain(4);
        let dst = topo.cube_at_position(4).unwrap();
        let run = |trace| {
            let cfg = NocConfig {
                trace,
                ..NocConfig::default()
            };
            let mut net = Network::new(&topo, cfg);
            for t in 0..3 {
                let pkt = Packet::request(t, PacketKind::ReadRequest, topo.host(), dst);
                net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
            }
            let deliveries = run_to_quiescence(&mut net);
            let telemetry = net.take_telemetry();
            (deliveries, telemetry)
        };
        let (off, off_telemetry) = run(mn_telemetry::TraceConfig::Off);
        let (full, full_telemetry) = run(mn_telemetry::TraceConfig::Full);
        // Identical deliveries (packets, nodes, timestamps) either way.
        assert_eq!(off, full);
        assert!(off_telemetry.is_none());
        let telemetry = full_telemetry.expect("full mode collects telemetry");
        // Lifecycle: 3 injects, ejects, and one traverse span per hop.
        let events: Vec<_> = telemetry.tracer.events().collect();
        use mn_telemetry::TraceEventKind as K;
        let count = |k: K| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(K::Inject), 3);
        assert_eq!(count(K::Eject), 3);
        assert_eq!(count(K::Traverse), 12);
        assert_eq!(count(K::Retry), 0);
        // Spans carry the serialization occupancy.
        let span = events.iter().find(|e| e.kind == K::Traverse).unwrap();
        assert_eq!(span.dur_ps, 16 * 33);
        // Link metrics saw the same busy time the stats counters did.
        assert_eq!(telemetry.link_util.len(), topo.link_count());
        assert!(telemetry.peak_link_utilization() > 0.0);
        assert!(telemetry.queue_depth.peak() >= 1);
        // The flight recorder retained the tail of the kernel stream.
        // (It lives in the network, so dump it from a fresh traced run.)
        let cfg = NocConfig {
            trace: mn_telemetry::TraceConfig::Full,
            ..NocConfig::default()
        };
        let mut net = Network::new(&topo, cfg);
        let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), dst);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        run_to_quiescence(&mut net);
        let dump = net.flight_dump();
        assert!(!dump.is_empty());
        assert!(dump.iter().any(|line| line.contains("arrive")));
        assert!(dump.iter().any(|line| line.contains("try-arb")));
    }

    #[test]
    fn response_travels_back() {
        let topo = chain(3);
        let mut net = Network::new(&topo, NocConfig::default());
        let cube = topo.cube_at_position(3).unwrap();
        let req = Packet::request(1, PacketKind::ReadRequest, topo.host(), cube);
        let resp = Packet::response_to(&req, false);
        net.inject(cube, 0, resp, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].node, topo.host());
        assert_eq!(deliveries[0].packet.kind, PacketKind::ReadResponse);
    }

    #[test]
    fn injection_backpressure() {
        let topo = chain(2);
        let cfg = NocConfig {
            buffer_packets: 2,
            ..NocConfig::default()
        };
        let mut net = Network::new(&topo, cfg);
        let dst = topo.cube_at_position(2).unwrap();
        // The host injection buffer holds 2 packets; more must fail until
        // the network drains.
        let mut accepted = 0;
        for t in 0..10 {
            let pkt = Packet::request(t, PacketKind::ReadRequest, topo.host(), dst);
            if net.inject(topo.host(), 0, pkt, SimTime::ZERO).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 2);
        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries.len(), 2);
    }

    #[test]
    fn ecn_marks_congested_forwards_without_perturbing_timing() {
        let topo = chain(6);
        let dst = topo.cube_at_position(6).unwrap();
        let run = |ecn_threshold| {
            let cfg = NocConfig {
                ecn_threshold,
                ..NocConfig::default()
            };
            let mut net = Network::new(&topo, cfg);
            for t in 0..6 {
                let pkt = Packet::request(t, PacketKind::ReadRequest, topo.host(), dst);
                net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
            }
            let deliveries = run_to_quiescence(&mut net);
            let marked = net.stats().marked.value();
            (deliveries, marked)
        };
        let (plain, none_marked) = run(0);
        assert_eq!(none_marked, 0);
        assert!(plain.iter().all(|d| !d.packet.marked));
        // A burst of 6 through one host port queues well past depth 2.
        let (marked_run, marked) = run(2);
        assert!(marked > 0, "burst traffic must trip a threshold of 2");
        assert!(marked_run.iter().any(|d| d.packet.marked));
        // Marking is observational: identical nodes and arrival times.
        for (a, b) in plain.iter().zip(&marked_run) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.arrived_at, b.arrived_at);
            assert_eq!(a.packet.id, b.packet.id);
        }
    }

    #[test]
    fn data_packets_occupy_longer() {
        let topo = chain(1);
        let mut net = Network::new(&topo, NocConfig::default());
        let dst = topo.cube_at_position(1).unwrap();
        let w = Packet::request(0, PacketKind::WriteRequest, topo.host(), dst);
        net.inject(topo.host(), 0, w, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        // 80 B x 33 ps + 2 ns = 4.64 ns.
        assert_eq!(deliveries[0].arrived_at, SimTime::from_ps(80 * 33 + 2000));
    }

    #[test]
    fn serialization_pipelines_across_hops() {
        // Two packets to the far cube: the second starts serializing as
        // soon as the first link frees, well before the first delivers.
        let topo = chain(8);
        let mut net = Network::new(&topo, NocConfig::default());
        let dst = topo.cube_at_position(8).unwrap();
        for t in 0..2 {
            let pkt = Packet::request(t, PacketKind::ReadRequest, topo.host(), dst);
            net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        }
        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries.len(), 2);
        let gap = deliveries[1].arrived_at - deliveries[0].arrived_at;
        // The gap is one serialization time (528 ps), not a full traversal.
        assert_eq!(gap, mn_sim::SimDuration::from_ps(16 * 33));
    }

    #[test]
    fn responses_have_priority_over_requests() {
        // A cube in the middle forwards both a downstream request and its
        // own response; the response must win the shared link first.
        let topo = chain(3);
        let mut net = Network::new(&topo, NocConfig::default());
        let mid = topo.cube_at_position(2).unwrap();
        let _far = topo.cube_at_position(3).unwrap();

        // Preload: a response at the middle cube heading to the host and a
        // request at the host heading to the far cube. Both need link
        // host—c1—c2 segments in opposite directions, so instead contend at
        // c1? Responses and requests travel opposite directions on a chain;
        // contention happens for the c1→host link only among responses.
        // For a same-direction test, race two responses from mid: one from
        // the local port, one arriving from far. Distance arbitration is
        // tested elsewhere; here we check response-vs-request at the host's
        // single link: inject a request while a response stream flows in.
        let req = Packet::request(0, PacketKind::ReadRequest, topo.host(), mid);
        let resp_src = Packet::request(1, PacketKind::ReadRequest, topo.host(), mid);
        let resp = Packet::response_to(&resp_src, false);
        net.inject(mid, 0, resp, SimTime::ZERO).unwrap();
        net.inject(topo.host(), 0, req, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries.len(), 2);
        // Both complete; full-duplex links mean no head-on blocking.
        assert!(deliveries.iter().any(|d| d.node == topo.host()));
        assert!(deliveries.iter().any(|d| d.node == mid));
    }

    #[test]
    fn skip_list_writes_ride_the_chain() {
        let topo = Topology::build(
            TopologyKind::SkipList,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap();
        let mut net = Network::new(&topo, NocConfig::default());
        let far = topo.cube_at_position(16).unwrap();
        let w = Packet::request(0, PacketKind::WriteRequest, topo.host(), far);
        let r = Packet::request(1, PacketKind::ReadRequest, topo.host(), far);
        net.inject(topo.host(), 0, w, SimTime::ZERO).unwrap();
        net.inject(topo.host(), 0, r, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        let write = deliveries
            .iter()
            .find(|d| d.packet.kind == PacketKind::WriteRequest)
            .unwrap();
        let read = deliveries
            .iter()
            .find(|d| d.packet.kind == PacketKind::ReadRequest)
            .unwrap();
        assert_eq!(write.packet.hops(), 16, "writes take the chain");
        assert_eq!(read.packet.hops(), 5, "reads take the skips");
    }

    #[test]
    fn write_upgraded_to_read_path() {
        let topo = Topology::build(
            TopologyKind::SkipList,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap();
        let mut net = Network::new(&topo, NocConfig::default());
        let far = topo.cube_at_position(16).unwrap();
        let w = Packet::request(0, PacketKind::WriteRequest, topo.host(), far)
            .with_class(PathClass::Read);
        net.inject(topo.host(), 0, w, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries[0].packet.hops(), 5);
    }

    #[test]
    fn ring_uses_both_branches() {
        let topo = Topology::build(
            TopologyKind::Ring,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap();
        let mut net = Network::new(&topo, NocConfig::default());
        let near = topo.cube_at_position(1).unwrap();
        let back = topo.cube_at_position(16).unwrap();
        for (t, dst) in [(0u64, near), (1, back)] {
            let pkt = Packet::request(t, PacketKind::ReadRequest, topo.host(), dst);
            net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        }
        let deliveries = run_to_quiescence(&mut net);
        // Cube 1 is one hop; the "last" cube is reached around the back in
        // two hops, not 16 down the chain.
        let hops: Vec<u32> = deliveries.iter().map(|d| d.packet.hops()).collect();
        assert!(hops.contains(&1) && hops.contains(&2), "{hops:?}");
    }

    #[test]
    fn stats_count_traffic() {
        let topo = chain(4);
        let mut net = Network::new(&topo, NocConfig::default());
        let dst = topo.cube_at_position(4).unwrap();
        let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), dst);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        let _ = run_to_quiescence(&mut net);
        assert_eq!(net.stats().injected.value(), 1);
        assert_eq!(net.stats().delivered.value(), 1);
        assert_eq!(net.stats().hops.value(), 4);
        assert_eq!(net.stats().bit_hops, 4 * 16 * 8);
        assert!(net.stats().transport_energy_pj(5.0) > 0.0);
    }

    #[test]
    fn distance_arbiter_network_builds() {
        let topo = chain(4);
        let cfg = NocConfig::default().with_arbiter(ArbiterKind::AdaptiveDistance);
        let mut net = Network::new(&topo, cfg);
        let dst = topo.cube_at_position(2).unwrap();
        let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), dst);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        assert_eq!(run_to_quiescence(&mut net).len(), 1);
    }

    #[test]
    #[should_panic(expected = "addressed to its own node")]
    fn self_injection_rejected() {
        let topo = chain(2);
        let mut net = Network::new(&topo, NocConfig::default());
        let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), topo.host());
        let _ = net.inject(topo.host(), 0, pkt, SimTime::ZERO);
    }

    #[test]
    fn take_delivery_empty_is_none() {
        let topo = chain(2);
        let mut net = Network::new(&topo, NocConfig::default());
        assert_eq!(net.take_delivery(topo.host(), SimTime::ZERO), None);
        assert!(!net.has_delivery(topo.host()));
    }

    #[test]
    fn partitioned_chain_reports_unreachable_cubes() {
        // A chain has zero path diversity: any hard link failure cuts off
        // every cube behind it, and construction must say so instead of
        // letting traffic strand.
        let topo = chain(8);
        let cfg = NocConfig {
            fault: crate::FaultConfig {
                link_kill_rate: 0.3,
                seed: 1,
                ..crate::FaultConfig::none()
            },
            ..NocConfig::default()
        };
        // Some seed in a small range kills at least one link of eight.
        let err = (0..50)
            .find_map(|seed| {
                let mut cfg = cfg.clone();
                cfg.fault.seed = seed;
                Network::try_new(&topo, cfg).err()
            })
            .expect("some seed kills a chain link");
        let NetworkError::Partitioned { unreachable } = err;
        assert!(!unreachable.is_empty());
        // Everything behind the first dead link is gone: the unreachable
        // set is a suffix of the chain.
        let first = unreachable[0];
        let expected: Vec<NodeId> = topo
            .cubes()
            .map(|(c, _)| c)
            .filter(|&c| c >= first)
            .collect();
        assert_eq!(unreachable, expected);
        // And the error formats with the cube list.
        let msg = NetworkError::Partitioned {
            unreachable: unreachable.clone(),
        }
        .to_string();
        assert!(msg.contains("partition"), "{msg}");
    }

    /// A 16-cube ring with exactly one hard link failure, and the config
    /// that produces it.
    fn ring_with_one_dead_link() -> (Topology, NocConfig) {
        let topo = Topology::build(
            TopologyKind::Ring,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap();
        let mut cfg = NocConfig {
            fault: crate::FaultConfig {
                link_kill_rate: 0.1,
                ..crate::FaultConfig::none()
            },
            ..NocConfig::default()
        };
        let seed = (0..50)
            .find(|&seed| {
                let fm = crate::FaultModel::build(
                    &topo,
                    crate::FaultConfig {
                        seed,
                        ..cfg.fault.clone()
                    },
                );
                fm.dead_links().len() == 1
            })
            .expect("some seed kills exactly one ring link");
        cfg.fault.seed = seed;
        (topo, cfg)
    }

    #[test]
    fn ring_survives_a_dead_link() {
        // A ring has two disjoint branches: one hard failure degrades hop
        // counts but every cube still completes its traffic.
        let (topo, cfg) = ring_with_one_dead_link();
        let mut net = Network::try_new(&topo, cfg).expect("ring routes around one dead link");
        let mut deliveries = Vec::new();
        let mut ready = Vec::new();
        let mut now = SimTime::ZERO;
        for (t, p) in (1..=16).enumerate() {
            let dst = topo.cube_at_position(p).unwrap();
            let pkt = Packet::request(t as u64, PacketKind::ReadRequest, topo.host(), dst);
            // Drain between injections: the host buffer is smaller than 16.
            net.inject(topo.host(), 0, pkt, now).unwrap();
            loop {
                net.advance(now, &mut ready);
                for &node in &ready {
                    while let Some(d) = net.take_delivery(node, now) {
                        deliveries.push(d);
                    }
                }
                match net.next_event_time() {
                    Some(t) => now = t,
                    None => break,
                }
            }
        }
        assert_eq!(deliveries.len(), 16, "every cube still reachable");
        assert_eq!(net.fault_stats().unwrap().dead_links, 1);
    }

    /// Offers `packets` packets as fast as the injection buffers accept
    /// them — host requests alternating reads and writes (both routing
    /// classes) to every cube, and a response home from every cube's local
    /// ports — checking every node's head masks after each step (in debug
    /// builds). Returns (injected, delivered, refused injections).
    fn saturate(net: &mut Network, topo: &Topology, packets: u64) -> (u64, u64, u64) {
        let host = topo.host();
        let cubes: Vec<NodeId> = topo.cubes().map(|(c, _)| c).collect();
        let (mut injected, mut delivered, mut refused) = (0u64, 0u64, 0u64);
        let mut ready = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            let mut offered = true;
            while offered && injected < packets {
                offered = false;
                for (i, &cube) in cubes.iter().enumerate() {
                    let kind = if (injected + i as u64).is_multiple_of(2) {
                        PacketKind::ReadRequest
                    } else {
                        PacketKind::WriteRequest
                    };
                    let req = Packet::request(injected, kind, host, cube);
                    let resp = Packet::response_to(&req, i.is_multiple_of(3));
                    for (node, port, pkt) in [(host, 0, req), (cube, i % 4, resp)] {
                        if injected == packets {
                            break;
                        }
                        match net.inject(node, port, pkt, now) {
                            Ok(_) => {
                                injected += 1;
                                offered = true;
                            }
                            Err(NetworkFull) => refused += 1,
                        }
                    }
                }
            }
            net.advance(now, &mut ready);
            #[cfg(debug_assertions)]
            for node in topo.node_ids() {
                net.check_head_masks(node);
            }
            for &node in &ready {
                while net.take_delivery(node, now).is_some() {
                    delivered += 1;
                }
            }
            match net.next_event_time() {
                Some(t) => now = t,
                None if injected == packets => break,
                None => {}
            }
        }
        (injected, delivered, refused)
    }

    #[test]
    fn head_masks_track_buffer_heads_under_saturation() {
        let skiplist = Topology::build(
            TopologyKind::SkipList,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap();
        let (ring, ring_cfg) = ring_with_one_dead_link();
        let runs = [
            (&skiplist, NocConfig::default()),
            (
                &skiplist,
                NocConfig::default().with_arbiter(ArbiterKind::AdaptiveDistance),
            ),
            (&ring, ring_cfg),
        ];
        for (topo, cfg) in runs {
            let mut net = Network::try_new(topo, cfg).expect("network builds");
            let (injected, delivered, refused) = saturate(&mut net, topo, 3_000);
            assert_eq!(injected, 3_000);
            assert!(refused > 0, "the offered load must saturate injection");
            assert_eq!(delivered, injected, "every packet delivered");
            assert_eq!(net.in_flight(), 0);
            assert!(net.head_masks.iter().all(|&m| m == 0), "drained masks");
        }
    }

    #[test]
    fn transient_faults_add_latency_not_loss() {
        let topo = chain(4);
        let cfg = NocConfig {
            fault: crate::FaultConfig {
                transient_rate: 0.5,
                seed: 11,
                ..crate::FaultConfig::none()
            },
            ..NocConfig::default()
        };
        let healthy_arrival = {
            let mut net = Network::new(&topo, NocConfig::default());
            let dst = topo.cube_at_position(4).unwrap();
            let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), dst);
            net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
            run_to_quiescence(&mut net)[0].arrived_at
        };
        let mut net = Network::new(&topo, cfg);
        let dst = topo.cube_at_position(4).unwrap();
        let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), dst);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries.len(), 1, "no data loss");
        let stats = net.fault_stats().unwrap();
        assert!(stats.replays > 0, "at 50% CRC rate some hop replays");
        assert!(
            deliveries[0].arrived_at > healthy_arrival,
            "replays cost latency"
        );
    }

    #[test]
    fn zero_fault_config_builds_no_model() {
        let topo = chain(2);
        let net = Network::new(&topo, NocConfig::default());
        assert!(net.fault_stats().is_none());
    }

    #[test]
    fn metacube_interposer_is_faster() {
        let topo = Topology::build(
            TopologyKind::MetaCube,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap();
        let mut net = Network::new(&topo, NocConfig::default());
        let first = topo.cube_at_position(1).unwrap();
        let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), first);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        // host→IF (external) + IF→cube (interposer): under two full
        // external traversals.
        assert!(deliveries[0].arrived_at < SimTime::from_ps(2 * (16 * 33 + 2000)));
        assert_eq!(deliveries[0].packet.hops(), 2);
    }
}
