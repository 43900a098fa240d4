//! The `pvfs-test`-equivalent experiment drivers (§6).
//!
//! §6.2.1: "each compute node simultaneously reads or writes a single
//! contiguous region of size 2N Mbytes, where N is the number of I/O
//! nodes in use" — 2 MB per I/O server per client. The two-node testbed
//! hosts one I/O daemon per GigE port ("six I/O servers") on the server
//! node and the compute processes on the other node. For steady-state
//! bandwidth the harness cycles each client's region until the
//! measurement window closes.
//!
//! CPU is reported where the paper reports it: the *client* node for
//! reads ("since I/OAT is a receiver-side optimization, we report the
//! average CPU utilization at the client-side while performing a read
//! operation"), the *server* node for writes.

use crate::client::{ClientFaultStats, ClientParams, ClientProcess, IoMode};
use crate::iod::{self, IodParams};
use crate::layout::{Layout, DEFAULT_STRIPE};
use crate::meta::{self, MetaParams, META_REQ_BYTES};
use crate::process::ProcessCpu;
use ioat_core::cluster::{Cluster, NodeConfig};
use ioat_core::metrics::ExperimentWindow;
use ioat_core::{IoatConfig, SocketOpts};
use ioat_faults::{FaultInjector, FaultPlan, RetryPolicy};
use ioat_simcore::{Counter, SimDuration, SimTime};
use ioat_telemetry::{Category, Tracer, TrackId};
use std::cell::RefCell;
use std::rc::Rc;

/// Pseudo node id for per-client I/O-operation lanes in exported traces
/// (real nodes are 0 = compute, 1 = io-server).
pub const IO_LANES_NODE: u32 = 2;

/// Configuration of a PVFS experiment.
#[derive(Debug, Clone)]
pub struct PvfsConfig {
    /// Number of I/O daemons (one per GigE port pair).
    pub io_servers: usize,
    /// Number of compute-node client processes.
    pub clients: usize,
    /// Per-client region bytes per server (2 MB in the paper).
    pub region_per_server: u64,
    /// Stripe unit in bytes (PVFS 1.x default: 64 KB). The
    /// `fig_pvfs_extended` stripe-size sweep varies this; every paper
    /// figure keeps the default.
    pub stripe: u64,
    /// I/OAT features on both nodes.
    pub ioat: IoatConfig,
    /// Daemon cost model.
    pub iod: IodParams,
    /// Metadata cost model.
    pub meta: MetaParams,
    /// Client driving parameters.
    pub client: ClientParams,
    /// Measurement window.
    pub window: ExperimentWindow,
    /// Fault plan. Service id `s` in a crash window is I/O daemon `s`;
    /// [`FaultPlan::none()`] keeps runs bit-identical to fault-free
    /// builds (no deadline events are scheduled at all).
    pub faults: FaultPlan,
    /// Per-op deadline/retry/failover policy, consulted only when
    /// `faults` is active.
    pub retry: RetryPolicy,
    /// Per-port line rate (the paper's testbed: 1 GbE).
    pub link: ioat_simcore::time::Bandwidth,
    /// Hardware era both nodes are calibrated against.
    pub profile: ioat_core::calibration::NodeProfile,
}

impl PvfsConfig {
    /// The paper's setup at a given server/client count.
    pub fn paper(io_servers: usize, clients: usize, ioat: IoatConfig) -> Self {
        PvfsConfig {
            io_servers,
            clients,
            region_per_server: 2 * 1024 * 1024,
            stripe: DEFAULT_STRIPE,
            ioat,
            iod: IodParams::default(),
            meta: MetaParams::default(),
            client: ClientParams::default(),
            window: ExperimentWindow::standard(),
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            link: ioat_core::calibration::port_bandwidth(),
            profile: ioat_core::calibration::NodeProfile::Testbed2007,
        }
    }

    /// Small fast configuration for unit tests (a shallow pipeline and
    /// the serial client thread keep one client below the 2-port wire so
    /// scaling is observable).
    pub fn quick_test(io_servers: usize, clients: usize, ioat: IoatConfig) -> Self {
        PvfsConfig {
            io_servers,
            clients,
            region_per_server: 512 * 1024,
            stripe: DEFAULT_STRIPE,
            ioat,
            iod: IodParams::default(),
            meta: MetaParams::default(),
            client: ClientParams {
                pipeline: 2,
                ..ClientParams::default()
            },
            window: ExperimentWindow::quick(),
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            link: ioat_core::calibration::port_bandwidth(),
            profile: ioat_core::calibration::NodeProfile::Testbed2007,
        }
    }

    /// The same run shape at a different line rate and hardware era —
    /// the PVFS cell of the modern-offload ablation.
    pub fn with_link(
        mut self,
        link: ioat_simcore::time::Bandwidth,
        profile: ioat_core::calibration::NodeProfile,
    ) -> Self {
        self.link = link;
        self.profile = profile;
        self
    }
}

/// Outcome of a PVFS experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PvfsResult {
    /// Aggregate bandwidth in MB/s (10^6 bytes/s), the paper's unit.
    pub mbytes_per_sec: f64,
    /// Compute-node overall CPU utilization.
    pub client_cpu: f64,
    /// I/O-server-node overall CPU utilization.
    pub server_cpu: f64,
    /// Completed metadata opens (one per client).
    pub opens: u64,
    /// Per-op deadlines that expired, summed over clients.
    pub timeouts: u64,
    /// Requests reissued after a timeout, summed over clients.
    pub retries: u64,
    /// Reissues redirected to a different I/O server.
    pub failovers: u64,
    /// Ops abandoned after exhausting retries.
    pub failed_ops: u64,
    /// Replies discarded because their op was already retried/abandoned.
    pub stale_replies: u64,
    /// Requests dropped by crashed I/O daemons.
    pub daemon_drops: u64,
    /// When the last client's metadata open completed, in µs of
    /// simulation time. With the single-threaded manager every open
    /// queues behind one serial daemon, so this is the direct measure of
    /// metadata-manager contention (`fig_pvfs_extended`).
    pub last_open_us: f64,
}

/// The one run body behind every entry point: client `c` runs
/// `mode_of(c)`.
fn run(cfg: &PvfsConfig, mode_of: &dyn Fn(usize) -> IoMode, tracer: &Tracer) -> PvfsResult {
    assert!(cfg.io_servers > 0 && cfg.clients > 0);
    let mut cluster = Cluster::measured(cfg.window);
    cluster.set_tracer(tracer.clone());
    cluster.set_faults(&cfg.faults);
    if tracer.is_enabled() {
        tracer.set_process_name(IO_LANES_NODE, "pvfs-ops");
    }
    // App-level views of the plan: daemon crash windows on the server
    // node (1), the clients' own failover view on the compute node (0).
    let server_faults = FaultInjector::new(&cfg.faults, 1);
    let client_faults = FaultInjector::new(&cfg.faults, 0);
    cluster.set_bandwidth(cfg.link);
    let compute = cluster.add_node(NodeConfig::profiled("compute", cfg.ioat, cfg.profile));
    let server = cluster.add_node(NodeConfig::profiled("io-server", cfg.ioat, cfg.profile));
    let opts = SocketOpts::tuned();
    let pairs = cluster.connect_ports(compute, server, cfg.io_servers, opts.coalescing);

    let done = Rc::new(RefCell::new({
        let mut c = Counter::new();
        c.begin_window(cfg.window.from());
        c
    }));
    let opens = Rc::new(RefCell::new(0u64));
    let last_open = Rc::new(RefCell::new(SimTime::ZERO));
    let layout = Layout::new(cfg.stripe, cfg.io_servers, 0);
    let region = cfg.region_per_server * cfg.io_servers as u64;
    let mut processes = Vec::new();
    // Single-threaded process model: one serial daemon thread per I/O
    // server (shared by every client's connection to it), one thread per
    // client process and one manager thread, each created lazily from
    // the first connection's socket on its node; process-context rx copy
    // is charged on the receiving side.
    let rx_iod = cfg.iod.rx_ps_per_byte(cfg.ioat.dma_engine);
    let rx_client = cfg.client.rx_ps_per_byte(cfg.ioat.dma_engine);
    let mut daemon_cpus: Vec<ProcessCpu> = Vec::new();
    let mut manager_cpu: Option<ProcessCpu> = None;

    for c in 0..cfg.clients {
        // Data connections: one per I/O server, over that server's port.
        let mut client_socks = Vec::new();
        let mut server_socks = Vec::new();
        for &pair in &pairs {
            let (cs, ss) = cluster.open(compute, server, pair, opts);
            client_socks.push(cs);
            server_socks.push(ss);
        }
        let process = Rc::new(ClientProcess::new(
            layout,
            region,
            mode_of(c),
            cfg.client,
            Rc::clone(&done),
            ProcessCpu::new(client_socks[0].clone()),
            rx_client,
        ));
        process.set_faults(client_faults.clone(), cfg.retry);
        processes.push(Rc::clone(&process));
        let lane = TrackId::new(IO_LANES_NODE, c as u32);
        tracer.set_track_name(lane, &format!("client{c}"));
        for s in 0..cfg.io_servers {
            // One read posted at a time per connection: while the client
            // thread processes a piece, further data backs up in the
            // kernel (real recv-loop backpressure).
            client_socks[s].set_recv_credits(1);
            let mut on_reply = process.reply_handler(client_socks[s].clone());
            let trc = tracer.clone();
            let on_reply = move |sim: &mut ioat_simcore::Sim, reply| {
                trc.instant("io_reply", Category::Io, lane, sim.now());
                on_reply(sim, reply);
            };
            if daemon_cpus.len() == s {
                daemon_cpus.push(ProcessCpu::new(server_socks[s].clone()));
            }
            process.add_server_sender(iod::serve_shared(
                client_socks[s].clone(),
                server_socks[s].clone(),
                cfg.iod,
                daemon_cpus[s].clone(),
                rx_iod,
                server_faults.clone(),
                s as u32,
                on_reply,
            ));
        }

        // Metadata connection over the first port; the client starts its
        // pipeline when the open completes.
        let (mc, ms) = cluster.open(compute, server, pairs[0], opts);
        let proc2 = Rc::clone(&process);
        let opens2 = Rc::clone(&opens);
        let last_open2 = Rc::clone(&last_open);
        let issued_at = SimTime::ZERO + SimDuration::from_micros(10 * c as u64);
        let trc = tracer.clone();
        let on_open = move |sim: &mut ioat_simcore::Sim, ()| {
            trc.span("meta_open", Category::Io, lane, issued_at, sim.now());
            *opens2.borrow_mut() += 1;
            let mut last = last_open2.borrow_mut();
            if sim.now() > *last {
                *last = sim.now();
            }
            drop(last);
            proc2.start(sim);
        };
        let cpu = manager_cpu
            .get_or_insert_with(|| ProcessCpu::new(ms.clone()))
            .clone();
        let meta_sender = meta::serve_meta_shared(mc, ms, cfg.meta, cpu, on_open);
        cluster
            .sim_mut()
            .schedule(SimDuration::from_micros(10 * c as u64), move |sim| {
                meta_sender.send(sim, META_REQ_BYTES, ());
            });
    }

    let (from, to) = cluster.run_measured();
    if ioat_guard::enabled() {
        for p in &processes {
            p.audit(to);
        }
    }
    let elapsed = (to - from).as_secs_f64();
    let result = {
        let cs = cluster.stack(compute).borrow();
        let ss = cluster.stack(server).borrow();
        let mut fs = ClientFaultStats::default();
        for p in &processes {
            let s = p.fault_stats();
            fs.timeouts += s.timeouts;
            fs.retries += s.retries;
            fs.failovers += s.failovers;
            fs.failed_ops += s.failed_ops;
            fs.stale_replies += s.stale_replies;
        }
        PvfsResult {
            mbytes_per_sec: done.borrow().window_total() as f64 / 1e6 / elapsed,
            client_cpu: cs.cpu_utilization(),
            server_cpu: ss.cpu_utilization(),
            opens: *opens.borrow(),
            timeouts: fs.timeouts,
            retries: fs.retries,
            failovers: fs.failovers,
            failed_ops: fs.failed_ops,
            stale_replies: fs.stale_replies,
            daemon_drops: server_faults.daemon_drops(),
            last_open_us: (*last_open.borrow() - SimTime::ZERO).as_micros_f64(),
        }
    };
    result
}

/// Fig. 10 — concurrent read: servers stream to clients.
pub fn concurrent_read(cfg: &PvfsConfig) -> PvfsResult {
    run(cfg, &|_| IoMode::Read, &Tracer::disabled())
}

/// [`concurrent_read`] with a tracer attached: stack-level spans on both
/// nodes plus per-client I/O-operation lanes (`meta_open` spans,
/// `io_reply` instants).
pub fn concurrent_read_traced(cfg: &PvfsConfig, tracer: &Tracer) -> PvfsResult {
    run(cfg, &|_| IoMode::Read, tracer)
}

/// Fig. 11 — concurrent write: clients stream to servers.
pub fn concurrent_write(cfg: &PvfsConfig) -> PvfsResult {
    run(cfg, &|_| IoMode::Write, &Tracer::disabled())
}

/// Fig. 12 — multi-stream read with `threads` emulated clients on the
/// compute node.
pub fn multi_stream_read(cfg: &PvfsConfig, threads: usize) -> PvfsResult {
    let mut cfg = cfg.clone();
    cfg.clients = threads;
    run(&cfg, &|_| IoMode::Read, &Tracer::disabled())
}

/// Mixed read/write streams (`fig_pvfs_extended`): the first `readers`
/// clients read while the rest write, all against the same daemons. The
/// aggregate bandwidth counts both directions; reads load the compute
/// node's receive path, writes the I/O-server node's.
pub fn mixed_streams(cfg: &PvfsConfig, readers: usize) -> PvfsResult {
    assert!(readers <= cfg.clients, "more readers than clients");
    run(
        cfg,
        &|c| {
            if c < readers {
                IoMode::Read
            } else {
                IoMode::Write
            }
        },
        &Tracer::disabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_moves_data_and_opens_complete() {
        let cfg = PvfsConfig::quick_test(2, 2, IoatConfig::disabled());
        let r = concurrent_read(&cfg);
        assert!(r.mbytes_per_sec > 50.0, "read bw {}", r.mbytes_per_sec);
        assert_eq!(r.opens, 2);
        assert!(r.client_cpu > 0.0 && r.server_cpu > 0.0);
    }

    #[test]
    fn tracing_records_io_lanes_without_perturbing() {
        let cfg = PvfsConfig::quick_test(2, 2, IoatConfig::full());
        let off = concurrent_read(&cfg);
        let tracer = Tracer::enabled();
        let on = concurrent_read_traced(&cfg, &tracer);
        assert_eq!(off.mbytes_per_sec.to_bits(), on.mbytes_per_sec.to_bits());
        assert_eq!(off.client_cpu.to_bits(), on.client_cpu.to_bits());
        assert_eq!(off.opens, on.opens);
        tracer.with_events(|events| {
            let opens = events
                .iter()
                .filter(|e| e.name == "meta_open" && e.cat == Category::Io)
                .count() as u64;
            assert_eq!(opens, on.opens, "one meta_open span per client open");
            assert!(events.iter().any(|e| e.name == "io_reply"));
        });
    }

    #[test]
    fn write_moves_data() {
        let cfg = PvfsConfig::quick_test(2, 2, IoatConfig::disabled());
        let r = concurrent_write(&cfg);
        assert!(r.mbytes_per_sec > 50.0, "write bw {}", r.mbytes_per_sec);
    }

    #[test]
    fn bandwidth_scales_with_clients() {
        let one = concurrent_read(&PvfsConfig::quick_test(2, 1, IoatConfig::disabled()));
        let four = concurrent_read(&PvfsConfig::quick_test(2, 4, IoatConfig::disabled()));
        assert!(
            four.mbytes_per_sec > 1.3 * one.mbytes_per_sec,
            "4 clients {} vs 1 client {}",
            four.mbytes_per_sec,
            one.mbytes_per_sec
        );
    }

    #[test]
    fn read_cpu_is_reported_on_the_right_side() {
        // Reads: the client node receives the data, so with many clients
        // its CPU exceeds the server node's.
        let r = concurrent_read(&PvfsConfig::quick_test(2, 4, IoatConfig::disabled()));
        let w = concurrent_write(&PvfsConfig::quick_test(2, 4, IoatConfig::disabled()));
        assert!(
            r.client_cpu > r.server_cpu * 0.5,
            "read: client {} server {}",
            r.client_cpu,
            r.server_cpu
        );
        assert!(
            w.server_cpu > w.client_cpu * 0.5,
            "write: client {} server {}",
            w.client_cpu,
            w.server_cpu
        );
    }

    #[test]
    fn quick_test_single_client_stays_below_the_two_port_wire() {
        // Two GigE ports carry ≈ 241 MB/s of goodput. The quick_test doc
        // promises one client cannot saturate them (shallow pipeline +
        // serial client thread), so client scaling stays observable —
        // pinned here with margin, on the faster I/OAT configuration.
        let r = concurrent_read(&PvfsConfig::quick_test(2, 1, IoatConfig::full()));
        assert!(
            r.mbytes_per_sec < 0.9 * 241.0,
            "one quick-test client saturates the 2-port wire: {} MB/s",
            r.mbytes_per_sec
        );
        assert!(r.mbytes_per_sec > 50.0, "still moves data");
    }

    #[test]
    fn mixed_streams_split_modes_and_move_data() {
        let cfg = PvfsConfig::quick_test(2, 4, IoatConfig::disabled());
        let m = mixed_streams(&cfg, 2);
        assert!(m.mbytes_per_sec > 50.0, "mixed bw {}", m.mbytes_per_sec);
        assert_eq!(m.opens, 4);
        // Both nodes carry receive-path load: neither CPU collapses the
        // way a pure read (server ≈ idle daemons) or write would.
        assert!(m.client_cpu > 0.0 && m.server_cpu > 0.0);
        // All readers and all writers are legal edge cases.
        assert!(mixed_streams(&cfg, 4).mbytes_per_sec > 50.0);
        assert!(mixed_streams(&cfg, 0).mbytes_per_sec > 50.0);
    }

    #[test]
    fn last_open_reflects_manager_serialization() {
        // 8 clients against the serial manager (80 µs per open, issues
        // staggered 10 µs apart): the last open queues behind most of the
        // others, so it completes well after 8 service times alone would
        // predict from its own issue time.
        let many = concurrent_read(&PvfsConfig::quick_test(2, 8, IoatConfig::disabled()));
        let one = concurrent_read(&PvfsConfig::quick_test(2, 1, IoatConfig::disabled()));
        assert!(
            many.last_open_us > one.last_open_us + 5.0 * 80.0,
            "8 opens must queue behind the serial manager: {} vs {}",
            many.last_open_us,
            one.last_open_us
        );
    }

    #[test]
    fn multi_stream_uses_thread_count() {
        let cfg = PvfsConfig::quick_test(2, 1, IoatConfig::disabled());
        let r = multi_stream_read(&cfg, 3);
        assert_eq!(r.opens, 3);
    }

    #[test]
    fn inert_fault_plan_leaves_counters_at_zero() {
        let r = concurrent_read(&PvfsConfig::quick_test(2, 2, IoatConfig::disabled()));
        assert_eq!(
            (r.timeouts, r.retries, r.failovers, r.failed_ops),
            (0, 0, 0, 0)
        );
        assert_eq!((r.stale_replies, r.daemon_drops), (0, 0));
    }

    fn crash_cfg() -> PvfsConfig {
        use ioat_simcore::SimTime;
        let mut cfg = PvfsConfig::quick_test(2, 2, IoatConfig::disabled());
        // Daemon 0 dark from 0.5 ms to 12 ms of the 30 ms quick run;
        // short deadlines so ops fail over to daemon 1 and keep flowing.
        cfg.faults.crashes.push(ioat_faults::CrashWindow {
            service: 0,
            window: ioat_faults::TimeWindow::new(
                SimTime::from_nanos(500_000),
                SimTime::from_nanos(12_000_000),
            ),
        });
        cfg.retry.timeout = SimDuration::from_millis(1);
        cfg
    }

    #[test]
    fn daemon_crash_triggers_failover_to_surviving_server() {
        let r = concurrent_read(&crash_cfg());
        assert!(r.daemon_drops > 0, "crashed daemon must drop requests");
        assert!(r.timeouts > 0, "dropped ops must hit their deadline");
        assert!(
            r.failovers > 0,
            "retries must move to the surviving daemon: {r:?}"
        );
        assert!(
            r.mbytes_per_sec > 0.0,
            "reads must keep completing via the surviving daemon"
        );
        let clean = concurrent_read(&PvfsConfig::quick_test(2, 2, IoatConfig::disabled()));
        assert!(
            r.mbytes_per_sec < clean.mbytes_per_sec,
            "an 11.5 ms outage must cost bandwidth: {} vs {}",
            r.mbytes_per_sec,
            clean.mbytes_per_sec
        );
    }

    #[test]
    fn crash_runs_are_reproducible() {
        let a = concurrent_read(&crash_cfg());
        let b = concurrent_read(&crash_cfg());
        assert_eq!(a, b);
    }
}
