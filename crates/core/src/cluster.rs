//! Cluster assembly: nodes, fabrics and connections.
//!
//! A [`Cluster`] owns the simulator and the nodes; experiments build one,
//! wire ports, open connections and run. Nodes are [`HostStack`]s under
//! the hood — this module only adds the testbed-shaped conveniences.

use crate::calibration;
use ioat_fabric::{Fabric, FabricParams, FabricRef, TopologySpec};
use ioat_faults::{FaultInjector, FaultPlan};
use ioat_netsim::stack::{self, HostStack, StackRef};
use ioat_netsim::{ConnId, IoatConfig, Link, Socket, SocketOpts, StackParams};
use ioat_simcore::time::Bandwidth;
use ioat_simcore::{Sim, SimDuration};
use ioat_telemetry::{Category, MetricsRegistry, Tracer, TrackId};
use std::collections::HashMap;
use std::rc::Rc;

/// Pseudo node id used for simulator-engine events in exported traces
/// (kept far away from real node indices).
pub const SIM_TRACK_NODE: u32 = 9_999;

/// Configuration of one node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Diagnostic name.
    pub name: String,
    /// Number of CPU cores.
    pub cores: usize,
    /// I/OAT feature set.
    pub ioat: IoatConfig,
    /// Stack cost parameters.
    pub params: StackParams,
    /// Cache geometry.
    pub cache: ioat_memsim::CacheConfig,
}

impl NodeConfig {
    /// A paper-testbed node (4 cores, calibrated parameters) with the
    /// given feature set.
    pub fn testbed(name: &str, ioat: IoatConfig) -> Self {
        Self::profiled(name, ioat, calibration::NodeProfile::Testbed2007)
    }

    /// A node calibrated to the given hardware era with the given feature
    /// set — [`NodeConfig::testbed`] generalized over
    /// [`calibration::NodeProfile`].
    pub fn profiled(name: &str, ioat: IoatConfig, profile: calibration::NodeProfile) -> Self {
        NodeConfig {
            name: name.to_string(),
            cores: profile.cores(),
            ioat,
            params: profile.params(),
            cache: profile.cache(),
        }
    }
}

/// Handle to a node in a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeHandle(usize);

/// A set of simulated nodes plus the simulator driving them.
///
/// ```rust
/// use ioat_core::{Cluster, NodeConfig};
/// use ioat_netsim::{IoatConfig, SocketOpts};
///
/// let mut cluster = Cluster::new(42);
/// let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::full()));
/// let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
/// let ports = cluster.connect_ports(a, b, 2, true);
/// let (sa, _sb) = cluster.open(a, b, ports[0], SocketOpts::tuned());
/// sa.send(cluster.sim_mut(), 100_000);
/// cluster.run();
/// ```
pub struct Cluster {
    sim: Sim,
    nodes: Vec<StackRef>,
    names: HashMap<String, NodeHandle>,
    next_conn: u64,
    bandwidth: Bandwidth,
    latency: SimDuration,
    tracer: Tracer,
    faults: FaultPlan,
    fabric: Option<FabricRef>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl Cluster {
    /// Creates an empty cluster. `seed` is reserved for stochastic
    /// workloads layered on top; the substrate itself is deterministic.
    pub fn new(seed: u64) -> Self {
        let _ = seed;
        let mut sim = Sim::new();
        // Generous runaway guard; experiments run millions of events. An
        // active audit scope may impose a tighter deterministic watchdog
        // so a wedged figure job dies after a fixed event count instead
        // of spinning for the full runaway allowance.
        let limit = match ioat_guard::event_budget() {
            Some(budget) => budget.min(2_000_000_000),
            None => 2_000_000_000,
        };
        sim.set_event_limit(limit);
        Cluster {
            sim,
            nodes: Vec::new(),
            names: HashMap::new(),
            next_conn: 1,
            bandwidth: calibration::port_bandwidth(),
            latency: calibration::switch_latency(),
            tracer: Tracer::disabled(),
            faults: FaultPlan::none(),
            fabric: None,
        }
    }

    /// Compiles and installs a switch fabric: nodes can then attach to
    /// leaf ports with [`Cluster::attach_fabric_host`] and connect through
    /// it with [`Cluster::open_on_fabric`], as an alternative to the
    /// point-to-point [`Cluster::connect_ports`]. Fabric tail-drops are
    /// folded into [`Cluster::run_audits`]' conservation identity and
    /// [`Cluster::metrics`].
    ///
    /// # Panics
    ///
    /// Panics if a fabric is already installed.
    pub fn install_fabric(&mut self, spec: TopologySpec, params: FabricParams) -> FabricRef {
        assert!(self.fabric.is_none(), "fabric already installed");
        assert!(
            !self.faults.has_fabric_faults(),
            "install the fabric before the fault plan: the installed plan \
             has fabric faults the new fabric would silently miss"
        );
        let fabric = Fabric::new(spec, params);
        self.fabric = Some(Rc::clone(&fabric));
        fabric
    }

    /// The installed fabric, if any.
    pub fn fabric(&self) -> Option<&FabricRef> {
        self.fabric.as_ref()
    }

    /// Attaches `node` to the installed fabric at topology host index
    /// `host`; returns the node's new NIC port index.
    ///
    /// # Panics
    ///
    /// Panics if no fabric is installed, or the attachment point is taken.
    pub fn attach_fabric_host(&mut self, node: NodeHandle, host: usize) -> usize {
        let fabric = self.fabric.as_ref().expect("no fabric installed");
        fabric.attach(&self.nodes[node.0], host)
    }

    /// Attaches `node` to an arbitrary [`FrameRouter`] at attachment index
    /// `attachment` with an access link cut from `params` — the partition
    ///-local counterpart of [`Cluster::attach_fabric_host`] for parallel
    /// runs, where the real fabric lives in another partition and `router`
    /// is the partition's cross-boundary proxy. Returns the node's new NIC
    /// port index.
    pub fn attach_router_host(
        &mut self,
        node: NodeHandle,
        router: Rc<dyn stack::FrameRouter>,
        attachment: usize,
        params: &FabricParams,
    ) -> usize {
        let access = Link::new(
            &format!("host{attachment}->router"),
            params.host_bandwidth,
            params.switch_latency,
        );
        stack::attach_router(
            &self.nodes[node.0],
            access,
            params.coalescing,
            router,
            attachment,
        )
    }

    /// Opens a connection between two local nodes over already-created
    /// ports with a caller-chosen [`ConnId`]. Parallel runs use this to
    /// assign globally deterministic connection ids independent of the
    /// per-partition open order; the id must not collide with the
    /// auto-assigned sequence of [`Cluster::open`]/
    /// [`Cluster::open_on_fabric`] on the same cluster.
    pub fn open_with_id(
        &mut self,
        a: NodeHandle,
        port_a: usize,
        b: NodeHandle,
        port_b: usize,
        opts: SocketOpts,
        id: ConnId,
    ) -> (Socket, Socket) {
        stack::open_connection(&self.nodes[a.0], &self.nodes[b.0], port_a, port_b, opts, id);
        (
            Socket::new(Rc::clone(&self.nodes[a.0]), id),
            Socket::new(Rc::clone(&self.nodes[b.0]), id),
        )
    }

    /// Opens a connection routed through the fabric between the nodes
    /// attached at `att_a` and `att_b`; returns the two socket endpoints
    /// `(on_a, on_b)`.
    pub fn open_on_fabric(
        &mut self,
        a: NodeHandle,
        att_a: usize,
        b: NodeHandle,
        att_b: usize,
        opts: SocketOpts,
    ) -> (Socket, Socket) {
        let fabric = self.fabric.as_ref().expect("no fabric installed");
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        fabric.open(att_a, att_b, opts, id);
        (
            Socket::new(Rc::clone(&self.nodes[a.0]), id),
            Socket::new(Rc::clone(&self.nodes[b.0]), id),
        )
    }

    /// Installs a fault plan: every node already added (and every node
    /// added afterwards) gets a [`FaultInjector`] for it, keyed by the
    /// node's index, and an installed fabric receives the plan's
    /// link-flap and switch-crash entries. Installing [`FaultPlan::none()`]
    /// (the default) keeps every hook inert and runs bit-identical to a
    /// fault-free build.
    ///
    /// Install the fabric before the plan — a fabric installed afterwards
    /// would silently miss the fabric-facing entries, so that order is
    /// rejected by [`Cluster::install_fabric`].
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        for (i, node) in self.nodes.iter().enumerate() {
            node.borrow_mut()
                .set_fault_injector(FaultInjector::new(plan, i as u32));
        }
        if let Some(fabric) = &self.fabric {
            fabric.set_faults(plan);
        }
        self.faults = plan.clone();
    }

    /// The installed fault plan (inert by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Attaches a tracer to the cluster: every node already added (and
    /// every node added afterwards) gets it, with the node's index as the
    /// Chrome-trace pid. When the tracer records [`Category::Sim`], the
    /// simulator's event hook also emits one instant per executed event
    /// on a dedicated pseudo process.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (i, node) in self.nodes.iter().enumerate() {
            node.borrow_mut().set_tracer(tracer.clone(), i as u32);
        }
        if tracer.records(Category::Sim) {
            tracer.set_process_name(SIM_TRACK_NODE, "sim-engine");
            let tr = tracer.clone();
            self.sim.set_event_hook(move |at, _seq| {
                tr.instant("event", Category::Sim, TrackId::new(SIM_TRACK_NODE, 0), at);
            });
        }
        self.tracer = tracer;
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Snapshots every node's stack and DMA-engine statistics into a
    /// metrics registry, keys prefixed with the node name.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for node in &self.nodes {
            let st = node.borrow();
            let name = st.name().to_string();
            let s = st.stats();
            reg.add(&format!("{name}.frames_processed"), s.frames_processed);
            reg.add(&format!("{name}.interrupts"), s.interrupts);
            reg.add(&format!("{name}.deliveries"), s.deliveries);
            reg.add(&format!("{name}.dma_deliveries"), s.dma_deliveries);
            reg.add(&format!("{name}.acks"), s.acks);
            reg.add(&format!("{name}.stalled_frames"), s.stalled_frames);
            reg.set_gauge(&format!("{name}.peak_backlog_bytes"), s.peak_backlog as f64);
            reg.add(&format!("{name}.frames_dropped"), s.frames_dropped);
            reg.add(&format!("{name}.rx_ring_drops"), s.rx_ring_drops);
            reg.add(&format!("{name}.ooo_frames"), s.ooo_frames);
            reg.add(&format!("{name}.retransmits"), s.retransmits);
            reg.add(
                &format!("{name}.retransmitted_bytes"),
                s.retransmitted_bytes,
            );
            reg.add(&format!("{name}.rto_timeouts"), s.rto_timeouts);
            reg.add(&format!("{name}.dma_fallbacks"), s.dma_fallbacks);
            if let Some(dma) = st.dma() {
                let d = dma.borrow().stats();
                reg.add(&format!("{name}.dma.requests"), d.requests);
                reg.add(&format!("{name}.dma.bytes"), d.bytes);
                reg.add(&format!("{name}.dma.pages_pinned"), d.pages_pinned);
                reg.add(&format!("{name}.dma.cpu_fallbacks"), d.cpu_fallbacks);
            }
        }
        if let Some(fabric) = &self.fabric {
            reg.add("fabric.forwarded", fabric.forwarded());
            reg.add("fabric.tail_drops", fabric.tail_drops());
            reg.add("fabric.route_blackholes", fabric.blackholes());
            reg.set_gauge("fabric.peak_buffer_bytes", fabric.peak_occupancy() as f64);
        }
        reg
    }

    /// Overrides the fabric line rate for subsequently wired ports.
    pub fn set_bandwidth(&mut self, bw: Bandwidth) {
        self.bandwidth = bw;
    }

    /// Overrides the fabric latency for subsequently wired ports.
    pub fn set_latency(&mut self, latency: SimDuration) {
        self.latency = latency;
    }

    /// Adds a node.
    ///
    /// # Panics
    ///
    /// Panics on duplicate node names.
    pub fn add_node(&mut self, cfg: NodeConfig) -> NodeHandle {
        assert!(
            !self.names.contains_key(&cfg.name),
            "duplicate node name {}",
            cfg.name
        );
        let stack = HostStack::with_cache(&cfg.name, cfg.cores, cfg.params, cfg.ioat, cfg.cache);
        let h = NodeHandle(self.nodes.len());
        if self.tracer.is_enabled() {
            stack
                .borrow_mut()
                .set_tracer(self.tracer.clone(), h.0 as u32);
        }
        if self.faults.is_active() {
            stack
                .borrow_mut()
                .set_fault_injector(FaultInjector::new(&self.faults, h.0 as u32));
        }
        self.names.insert(cfg.name, h);
        self.nodes.push(stack);
        h
    }

    /// The stack behind a handle.
    pub fn stack(&self, node: NodeHandle) -> &StackRef {
        &self.nodes[node.0]
    }

    /// Immutable access to the simulator.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Mutable access to the simulator (for scheduling and running).
    pub fn sim_mut(&mut self) -> &mut Sim {
        &mut self.sim
    }

    /// Wires `n` dedicated port pairs between two nodes (the testbed's
    /// per-VLAN port pairing). Returns the port-pair indices, usable with
    /// [`Cluster::open`].
    pub fn connect_ports(
        &mut self,
        a: NodeHandle,
        b: NodeHandle,
        n: usize,
        coalescing: bool,
    ) -> Vec<PortPair> {
        (0..n)
            .map(|_| {
                let (pa, pb) = stack::wire(
                    &self.nodes[a.0],
                    &self.nodes[b.0],
                    self.bandwidth,
                    self.latency,
                    coalescing,
                );
                PortPair { a: pa, b: pb }
            })
            .collect()
    }

    /// Opens a connection over a wired port pair; returns the two socket
    /// endpoints `(on_a, on_b)`.
    pub fn open(
        &mut self,
        a: NodeHandle,
        b: NodeHandle,
        ports: PortPair,
        opts: SocketOpts,
    ) -> (Socket, Socket) {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        stack::open_connection(
            &self.nodes[a.0],
            &self.nodes[b.0],
            ports.a,
            ports.b,
            opts,
            id,
        );
        (
            Socket::new(Rc::clone(&self.nodes[a.0]), id),
            Socket::new(Rc::clone(&self.nodes[b.0]), id),
        )
    }

    /// Runs the simulation to completion, returning the final instant.
    pub fn run(&mut self) -> ioat_simcore::SimTime {
        self.sim.run()
    }

    /// Runs until `limit`.
    pub fn run_until(&mut self, limit: ioat_simcore::SimTime) -> ioat_simcore::SimTime {
        self.sim.run_until(limit)
    }

    /// Runs the full audit suite over the cluster at the current instant:
    /// engine queue health, every node's conservation identities (plus its
    /// DMA engine, when present) and the cross-node frame/byte
    /// conservation check. Violations produced by this pass are also
    /// surfaced as [`Category::Audit`] trace instants so they land next to
    /// the activity that caused them in exported traces.
    ///
    /// Audits are pure reads — calling this cannot perturb the run.
    pub fn run_audits(&self) {
        let before = ioat_guard::violation_count();
        let now = self.sim.now();
        ioat_guard::audit_sim(&self.sim);
        for node in &self.nodes {
            node.borrow().audit(now);
        }
        let quiescent = self.sim.events_pending() == 0;
        let (switch_dropped, route_blackholed) = if let Some(fabric) = &self.fabric {
            fabric.audit(now, quiescent);
            (fabric.tail_drops(), fabric.blackholes())
        } else {
            (0, 0)
        };
        stack::audit_cluster_conservation_ext(
            &self.nodes,
            switch_dropped,
            route_blackholed,
            now,
            quiescent,
        );
        if self.tracer.records(Category::Audit) {
            for v in ioat_guard::violations_since(before) {
                // Event names must be `'static`; the invariant name is,
                // and it identifies the failed check unambiguously.
                self.tracer.instant(
                    v.invariant,
                    Category::Audit,
                    TrackId::new(SIM_TRACK_NODE, 0),
                    v.at,
                );
            }
        }
    }

    /// Runs only the partition-local audits: engine queue health and every
    /// node's own conservation identities. Skips the cluster-wide frame
    /// conservation check — in a parallel run, frames legitimately leave
    /// this partition, so that identity only holds on totals summed
    /// across *all* partitions (collect them with
    /// [`Cluster::frame_totals`] and check with
    /// [`stack::audit_cluster_conservation_sums`] after the merge).
    pub fn run_local_audits(&self) {
        let now = self.sim.now();
        ioat_guard::audit_sim(&self.sim);
        for node in &self.nodes {
            node.borrow().audit(now);
        }
    }

    /// This cluster's terms of the cross-partition frame-conservation
    /// identity, as plain data safe to move across threads.
    pub fn frame_totals(&self) -> stack::ClusterFrameTotals {
        stack::frame_totals(&self.nodes)
    }
}

/// Tearing a cluster down frees its whole model: stacks, sockets and
/// application handlers point at each other through `Rc`, so every node
/// is [`stack::detach`]ed before the fields drop. Copy results off the
/// cluster before it goes.
impl Drop for Cluster {
    fn drop(&mut self) {
        for node in &self.nodes {
            stack::detach(node);
        }
    }
}

/// A wired pair of port indices: `a`'s port and `b`'s port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortPair {
    /// Port index on the first node.
    pub a: usize,
    /// Port index on the second node.
    pub b: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioat_netsim::SocketEvent;
    use std::cell::RefCell;

    #[test]
    fn cluster_builds_and_transfers() {
        let mut cluster = Cluster::new(1);
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
        let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
        let ports = cluster.connect_ports(a, b, 3, true);
        assert_eq!(ports.len(), 3);
        let (sa, sb) = cluster.open(a, b, ports[1], SocketOpts::tuned());
        let got = Rc::new(RefCell::new(0u64));
        let g = Rc::clone(&got);
        sb.set_handler(move |_s, ev| {
            if let SocketEvent::Delivered(n) = ev {
                *g.borrow_mut() += n;
            }
        });
        sa.send(cluster.sim_mut(), 300_000);
        cluster.run();
        assert_eq!(*got.borrow(), 300_000);
        assert_eq!(cluster.stack(b).borrow().port_count(), 3);
    }

    #[test]
    fn tracer_and_metrics_cover_all_nodes() {
        let mut cluster = Cluster::new(1);
        let tracer = Tracer::enabled();
        cluster.set_tracer(tracer.clone());
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
        let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
        let ports = cluster.connect_ports(a, b, 1, true);
        let (sa, _sb) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        sa.send(cluster.sim_mut(), 200_000);
        cluster.run();
        assert!(!tracer.is_empty());
        assert_eq!(tracer.process_names()[&1], "b");
        let reg = cluster.metrics();
        assert!(reg.counter("b.deliveries") > 0);
        assert!(reg.counter("b.dma.bytes") > 0);
        assert!(reg.gauge("b.peak_backlog_bytes").is_some());
        assert_eq!(
            reg.counter("a.dma.requests"),
            0,
            "non-I/OAT node has no engine"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_panic() {
        let mut cluster = Cluster::new(1);
        cluster.add_node(NodeConfig::testbed("x", IoatConfig::disabled()));
        cluster.add_node(NodeConfig::testbed("x", IoatConfig::disabled()));
    }

    #[test]
    fn fabric_backed_cluster_transfers_and_audits() {
        let mut cluster = Cluster::new(1);
        let fabric = cluster.install_fabric(
            ioat_fabric::TopologySpec::FatTree { k: 4 },
            ioat_fabric::FabricParams::gige(),
        );
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
        let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
        cluster.attach_fabric_host(a, 0);
        cluster.attach_fabric_host(b, 15);
        let (sa, sb) = cluster.open_on_fabric(a, 0, b, 15, SocketOpts::tuned());
        let got = Rc::new(RefCell::new(0u64));
        let g = Rc::clone(&got);
        sb.set_handler(move |_s, ev| {
            if let SocketEvent::Delivered(n) = ev {
                *g.borrow_mut() += n;
            }
        });
        sa.send(cluster.sim_mut(), 300_000);
        cluster.run();
        assert_eq!(*got.borrow(), 300_000);
        assert!(fabric.forwarded() > 0);
        cluster.run_audits();
        let reg = cluster.metrics();
        assert!(reg.counter("fabric.forwarded") > 0);
        assert_eq!(reg.counter("fabric.tail_drops"), 0);
    }

    #[test]
    fn dropping_a_cluster_during_a_panic_unwind_does_not_abort() {
        let build_and_panic = || {
            let mut cluster = Cluster::new(1);
            let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::full()));
            let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
            let ports = cluster.connect_ports(a, b, 1, true);
            let (sa, _sb) = cluster.open(a, b, ports[0], SocketOpts::tuned());
            sa.send(cluster.sim_mut(), 1_000_000);
            // Mid-transfer: frames, ACKs and DMA completions are pending.
            let held = Rc::clone(cluster.stack(b));
            cluster
                .sim_mut()
                .schedule(SimDuration::from_micros(200), move |_sim| {
                    let _borrowed = held.borrow_mut();
                    panic!("scheduled event failed mid-run");
                });
            cluster.run();
        };
        let outcome = std::panic::catch_unwind(build_and_panic);
        assert!(outcome.is_err(), "the scheduled panic must propagate");
        // The unwind dropped the cluster without a second panic, so the
        // process is still here and can build the next simulation.
        let mut cluster = Cluster::new(2);
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
        let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::disabled()));
        let ports = cluster.connect_ports(a, b, 1, true);
        let (sa, _sb) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        sa.send(cluster.sim_mut(), 100_000);
        cluster.run();
        assert_eq!(cluster.stack(b).borrow().rx_meter().total_bytes(), 100_000);
    }

    #[test]
    fn connections_get_unique_ids() {
        let mut cluster = Cluster::new(1);
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
        let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::disabled()));
        let ports = cluster.connect_ports(a, b, 1, true);
        let (s1, _) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        let (s2, _) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        assert_ne!(s1.conn(), s2.conn());
    }
}
