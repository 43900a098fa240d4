//! Cluster assembly: nodes, ports and connections.
//!
//! A [`Cluster`] owns the simulator and the nodes; experiments build one,
//! wire ports, open connections and run. Nodes are [`HostStack`]s under
//! the hood — this module only adds the testbed-shaped conveniences.

use crate::calibration;
use crate::metrics::ExperimentWindow;
use ioat_fabric::FabricParams;
use ioat_faults::{FaultInjector, FaultPlan};
use ioat_netsim::stack::{self, HostStack, StackRef};
use ioat_netsim::{ConnId, IoatConfig, Link, Socket, SocketOpts, StackParams};
use ioat_simcore::time::Bandwidth;
use ioat_simcore::{Sim, SimDuration, SimTime};
use ioat_telemetry::Tracer;
use std::collections::HashMap;
use std::rc::Rc;

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
/// let mut cluster = Cluster::new();
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
    /// The window every node opens when it is added, if measured.
    window: Option<ExperimentWindow>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new()
    }
}

impl Cluster {
    /// Creates an empty, unmeasured cluster: reading a node's CPU
    /// utilization panics. The substrate is deterministic; seeded
    /// workloads are layered on top.
    pub fn new() -> Self {
        let mut sim = Sim::new();
        sim.set_event_limit(ioat_guard::event_limit());
        Cluster {
            sim,
            nodes: Vec::new(),
            names: HashMap::new(),
            next_conn: 1,
            bandwidth: calibration::port_bandwidth(),
            latency: calibration::switch_latency(),
            tracer: Tracer::disabled(),
            faults: FaultPlan::none(),
            window: None,
        }
    }

    /// Creates an empty cluster measured over `window`: each node opens
    /// the window's `[from, to)` on its meters when it is added, before
    /// any connection, event or job exists.
    pub fn measured(window: ExperimentWindow) -> Self {
        let mut cluster = Self::new();
        cluster.window = Some(window);
        cluster
    }

    /// Attaches `node` to a [`FrameRouter`](stack::FrameRouter) at
    /// attachment index `attachment` (its topology host index) with an
    /// access link cut from the fabric's `params`, as an alternative to the
    /// point-to-point [`Cluster::connect_ports`]. The router carries the
    /// node's frames to the fabric — in a parallel run the fabric lives in
    /// another partition and `router` is this partition's cross-boundary
    /// proxy. Returns the node's new NIC port index.
    pub fn attach_router_host(
        &mut self,
        node: NodeHandle,
        router: Rc<dyn stack::FrameRouter>,
        attachment: usize,
        params: &FabricParams,
    ) -> usize {
        let access = Link::new(params.host_bandwidth, params.switch_latency);
        stack::attach_router(&self.nodes[node.0], access, router, attachment)
    }

    /// Opens a connection between two local nodes over already-created
    /// ports with a caller-chosen [`ConnId`]. Parallel runs use this to
    /// assign globally deterministic connection ids independent of the
    /// per-partition open order; the id must not collide with the
    /// auto-assigned sequence of [`Cluster::open`] on the same cluster.
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

    /// Installs a fault plan: every node already added (and every node
    /// added afterwards) gets a [`FaultInjector`] for it, keyed by the
    /// node's index. Installing [`FaultPlan::none()`] (the default) keeps
    /// every hook inert and runs bit-identical to a fault-free build. The
    /// plan's fabric entries (link flaps, switch crashes) belong to the
    /// fabric itself: install them with `Fabric::set_faults`.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        for (i, node) in self.nodes.iter().enumerate() {
            node.borrow_mut()
                .set_fault_injector(FaultInjector::new(plan, i as u32));
        }
        self.faults = plan.clone();
    }

    /// Attaches a tracer to the cluster: every node already added (and
    /// every node added afterwards) gets it, with the node's index as the
    /// Chrome-trace pid.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (i, node) in self.nodes.iter().enumerate() {
            node.borrow_mut().set_tracer(tracer.clone(), i as u32);
        }
        self.tracer = tracer;
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Overrides the fabric line rate for subsequently wired ports.
    pub fn set_bandwidth(&mut self, bw: Bandwidth) {
        self.bandwidth = bw;
    }

    /// Adds a node, opening its measurement window on a measured cluster.
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
        if let Some(w) = self.window {
            stack.borrow_mut().begin_measurement(w.from(), w.to());
        }
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
    pub fn run(&mut self) -> SimTime {
        self.sim.run()
    }

    /// Runs a measured cluster to its window's end, runs the audits when
    /// they are enabled and returns the window `(from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster was not built by [`Cluster::measured`].
    pub fn run_measured(&mut self) -> (SimTime, SimTime) {
        let w = self
            .window
            .expect("run_measured needs a cluster built by Cluster::measured");
        self.sim.run_until(w.to());
        // Every figure harness funnels through here, so this one call
        // gives the whole suite end-of-window invariant coverage. Gated:
        // release sweeps without `--audit` skip even the cheap reads.
        if ioat_guard::enabled() {
            self.run_audits();
        }
        (w.from(), w.to())
    }

    /// Runs the full audit suite over the cluster at the current instant:
    /// the partition-local audits ([`Cluster::run_local_audits`]) plus the
    /// cross-node frame/byte conservation check.
    ///
    /// Audits are pure reads — calling this cannot perturb the run.
    pub fn run_audits(&self) {
        self.run_local_audits();
        let quiescent = self.sim.events_pending() == 0;
        stack::audit_cluster_conservation(self.frame_totals(), 0, 0, self.sim.now(), quiescent);
    }

    /// Runs only the partition-local audits: engine queue health and every
    /// node's own conservation identities. Skips the cluster-wide frame
    /// conservation check — in a parallel run, frames legitimately leave
    /// this partition, so that identity only holds on totals summed
    /// across *all* partitions (collect them with
    /// [`Cluster::frame_totals`] and check with
    /// [`stack::audit_cluster_conservation`] after the merge).
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
        let mut cluster = Cluster::new();
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
        let mut cluster = Cluster::new();
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
        let b_stats = cluster.stack(b).borrow().stats();
        assert!(b_stats.deliveries > 0);
        assert!(b_stats.peak_backlog > 0);
        let b_dma = cluster
            .stack(b)
            .borrow()
            .dma()
            .expect("I/OAT node")
            .borrow()
            .stats();
        assert!(b_dma.bytes > 0);
        assert!(
            cluster.stack(a).borrow().dma().is_none(),
            "non-I/OAT node has no engine"
        );
    }

    #[test]
    fn measured_nodes_open_their_window_before_the_run() {
        let w = ExperimentWindow::quick();
        let mut cluster = Cluster::measured(w);
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::full()));
        let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
        for node in [a, b] {
            let stack = cluster.stack(node).borrow();
            for core in stack.cores().members() {
                assert_eq!(core.meter().window(), (w.from(), w.to()));
            }
            assert_eq!(stack.cpu_utilization(), 0.0);
        }
        let ports = cluster.connect_ports(a, b, 1, true);
        let (sa, _sb) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        sa.send(cluster.sim_mut(), 1_000_000);
        assert_eq!(cluster.run_measured(), (w.from(), w.to()));
        assert_eq!(cluster.sim().now(), w.to());
        assert!(cluster.stack(b).borrow().cpu_utilization() > 0.0);
    }

    #[test]
    #[should_panic(expected = "host stack 'a': CPU time read before begin_measurement")]
    fn unmeasured_nodes_have_no_cpu_reading() {
        let mut cluster = Cluster::new();
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::full()));
        cluster.stack(a).borrow().cpu_utilization();
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_panic() {
        let mut cluster = Cluster::new();
        cluster.add_node(NodeConfig::testbed("x", IoatConfig::disabled()));
        cluster.add_node(NodeConfig::testbed("x", IoatConfig::disabled()));
    }

    #[test]
    fn dropping_a_cluster_during_a_panic_unwind_does_not_abort() {
        let build_and_panic = || {
            let mut cluster = Cluster::new();
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
        let mut cluster = Cluster::new();
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
        let mut cluster = Cluster::new();
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
        let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::disabled()));
        let ports = cluster.connect_ports(a, b, 1, true);
        let (s1, _) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        let (s2, _) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        assert_ne!(s1.conn(), s2.conn());
    }
}
