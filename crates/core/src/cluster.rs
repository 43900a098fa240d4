//! Cluster assembly: nodes, ports and connections.
//!
//! A [`Cluster`] owns the simulator and the nodes; experiments build one,
//! wire ports, open connections and run. Nodes are [`HostStack`]s under
//! the hood — this module only adds the testbed-shaped conveniences.
//!
//! The cluster is the only strong owner of its stacks: wired peers,
//! connection peers and [`Socket`]s point back at a stack through `Weak`
//! references, and the events that capture a stack live in the cluster's
//! own `Sim`. Dropping the cluster therefore frees the whole model, even
//! during a panic unwind. Copy results off the cluster before it goes.

use crate::calibration;
use crate::metrics::ExperimentWindow;
use ioat_faults::{FaultInjector, FaultPlan};
use ioat_netsim::stack::{self, HostStack, StackRef};
use ioat_netsim::{ConnId, IoatConfig, Socket, SocketOpts, StackParams};
use ioat_simcore::time::Bandwidth;
use ioat_simcore::{Sim, SimTime};
use ioat_telemetry::Tracer;

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

/// The paper's testbed: simulated nodes joined by dedicated port pairs,
/// plus the simulator driving them, measured over one window.
///
/// Every setting (line rate, fault plan, tracer) is fixed before the
/// first node is added, so each node is built with all of them.
///
/// ```rust
/// use ioat_core::{Cluster, ExperimentWindow, NodeConfig};
/// use ioat_netsim::{IoatConfig, SocketOpts};
///
/// let mut cluster = Cluster::measured(ExperimentWindow::quick());
/// let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::full()));
/// let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
/// let ports = cluster.connect_ports(a, b, 2, true);
/// let (sa, _sb) = cluster.open(a, b, ports[0], SocketOpts::tuned());
/// sa.send(cluster.sim_mut(), 100_000);
/// cluster.run_measured();
/// assert!(cluster.stack(b).borrow().rx_meter().total_bytes() > 0);
/// ```
pub struct Cluster {
    sim: Sim,
    nodes: Vec<StackRef>,
    next_conn: u64,
    bandwidth: Bandwidth,
    tracer: Tracer,
    faults: FaultPlan,
    /// The window every node opens when it is added.
    window: ExperimentWindow,
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
    /// Creates an empty cluster measured over `window`: each node opens
    /// the window's `[from, to)` on its meters when it is added, before
    /// any connection, event or job exists. The substrate is
    /// deterministic; seeded workloads are layered on top.
    pub fn measured(window: ExperimentWindow) -> Self {
        let mut sim = Sim::new();
        sim.set_event_limit(ioat_guard::event_limit());
        Cluster {
            sim,
            nodes: Vec::new(),
            next_conn: 1,
            bandwidth: calibration::port_bandwidth(),
            tracer: Tracer::disabled(),
            faults: FaultPlan::none(),
            window,
        }
    }

    /// Panics if a node exists: the settings below apply as each node is
    /// built.
    fn assert_no_nodes(&self, setting: &str) {
        assert!(
            self.nodes.is_empty(),
            "{setting} must be set before the first node is added"
        );
    }

    /// Installs a fault plan: every node gets a [`FaultInjector`] for it,
    /// keyed by the node's index. The default, [`FaultPlan::none()`],
    /// keeps every hook inert and runs bit-identical to a fault-free
    /// build. The plan's fabric entries (link flaps, switch crashes)
    /// belong to the fabric itself.
    ///
    /// # Panics
    ///
    /// Panics if a node was already added.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        self.assert_no_nodes("the fault plan");
        self.faults = plan.clone();
    }

    /// Attaches a tracer: every node gets it, with the node's index as
    /// the Chrome-trace pid.
    ///
    /// # Panics
    ///
    /// Panics if a node was already added.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.assert_no_nodes("the tracer");
        self.tracer = tracer;
    }

    /// Overrides the line rate of the port pairs (the testbed's GigE by
    /// default).
    ///
    /// # Panics
    ///
    /// Panics if a node was already added.
    pub fn set_bandwidth(&mut self, bw: Bandwidth) {
        self.assert_no_nodes("the line rate");
        self.bandwidth = bw;
    }

    /// The window the cluster is measured over.
    pub(crate) fn window(&self) -> ExperimentWindow {
        self.window
    }

    /// Adds a node and opens its measurement window.
    ///
    /// # Panics
    ///
    /// Panics on duplicate node names.
    pub fn add_node(&mut self, cfg: NodeConfig) -> NodeHandle {
        assert!(
            self.nodes.iter().all(|n| n.borrow().name() != cfg.name),
            "duplicate node name {}",
            cfg.name
        );
        let stack = HostStack::with_cache(&cfg.name, cfg.cores, cfg.params, cfg.ioat, cfg.cache);
        let h = NodeHandle(self.nodes.len());
        {
            let mut st = stack.borrow_mut();
            st.begin_measurement(self.window.from(), self.window.to());
            if self.tracer.is_enabled() {
                st.set_tracer(self.tracer.clone(), h.0 as u32);
            }
            if self.faults.is_active() {
                st.set_fault_injector(FaultInjector::new(&self.faults, h.0 as u32));
            }
        }
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
                    calibration::switch_latency(),
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
            Socket::new(&self.nodes[a.0], id),
            Socket::new(&self.nodes[b.0], id),
        )
    }

    /// Runs the simulation to completion, returning the final instant.
    pub fn run(&mut self) -> SimTime {
        self.sim.run()
    }

    /// Runs the cluster to its window's end, runs the audits when they
    /// are enabled and returns the window `(from, to)`.
    pub fn run_measured(&mut self) -> (SimTime, SimTime) {
        let w = self.window;
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
    use ioat_simcore::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn quick() -> Cluster {
        Cluster::measured(ExperimentWindow::quick())
    }

    #[test]
    fn cluster_builds_and_transfers() {
        let mut cluster = quick();
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
        let mut cluster = quick();
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
    #[should_panic(expected = "the tracer must be set before the first node is added")]
    fn settings_are_fixed_once_a_node_exists() {
        let mut cluster = quick();
        cluster.add_node(NodeConfig::testbed("a", IoatConfig::full()));
        cluster.set_tracer(Tracer::enabled());
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_panic() {
        let mut cluster = quick();
        cluster.add_node(NodeConfig::testbed("x", IoatConfig::disabled()));
        cluster.add_node(NodeConfig::testbed("x", IoatConfig::disabled()));
    }

    #[test]
    fn dropping_a_cluster_during_a_panic_unwind_does_not_abort() {
        let build_and_panic = || {
            let mut cluster = quick();
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
        let mut cluster = quick();
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
        let mut cluster = quick();
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
        let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::disabled()));
        let ports = cluster.connect_ports(a, b, 1, true);
        let (s1, _) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        let (s2, _) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        assert_ne!(s1.conn(), s2.conn());
    }
}
