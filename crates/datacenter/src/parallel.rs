//! The engine of the fabric-scale datacenter of [`crate::scale`]: the
//! closed-loop clients, proxy admission control and hedged retries,
//! partitioned for the conservative parallel engine in `ioat-parsim`.
//!
//! # Partitioning
//!
//! The scenario splits along its only long-latency cut: the switch
//! fabric. Partition 0 owns the fabric (switch buffers, ECMP, hop-by-hop
//! forwarding); partitions `1..=G` each own a *group* of servers — the
//! `f = webs_per_proxy` proxies that share one web subset plus those `f`
//! web servers — together with the emulated clients driving them. The
//! subset rule `w = (p·f + j) mod n_webs` makes proxies `p` and `p + G`
//! (where `G = n_webs / f`) talk to the same webs, so group
//! `g` holds proxies `{g, g+G, g+2G, …}` and webs `[g·f, (g+1)·f)`; every
//! connection's two endpoints land in one partition and only *data
//! frames* cross a boundary (into the fabric and back out). ACKs keep
//! netsim's latency-only shortcut and turn around inside the group.
//!
//! Only the group builder knows the connection layout. Each frame
//! crossing into the fabric carries the source and destination hosts its
//! sending stack names, so the fabric partition keeps no connection
//! table.
//!
//! The lookahead is the fabric's `switch_latency` — every frame
//! entering or leaving the fabric first crosses a link of
//! `switch_latency`, so a partition executing at `t` can never affect
//! another before `t + switch_latency`.
//!
//! # Determinism
//!
//! Results are a pure function of the configuration: bit-identical for
//! any worker-thread count (the engine merges boundary messages by
//! `(time, sending partition, sender sequence)`), and the partition
//! layout itself is fixed by the config, never by `threads`. Each group
//! draws from its own Zipf stream, so the layout (not the thread count)
//! fixes which documents a run requests.
//!
//! # Admission control and hedged retries
//!
//! A client request arriving at a proxy that already has
//! [`ScaleConfig::admit_budget`] transactions in flight is shed before any
//! proxy work, and the client backs off one think time. The shed path
//! costs the proxy nothing, which is the point of admission control.
//!
//! Every client carries a request *generation*. Requests, hedge
//! deadlines and responses are all tagged with the generation they were
//! fired under. With a [`ScaleConfig::hedge`] policy, a deadline that
//! fires while its generation is still outstanding sends a duplicate
//! request (forward cost only — the request was already parsed). The
//! first response to arrive completes the transaction and bumps the
//! generation, which instantly stales every outstanding duplicate: later
//! responses and deadlines for the old generation are discarded before
//! any proxy work.

use crate::costs::{DataCenterCosts, REQUEST_WIRE_BYTES};
use crate::scale::{ScaleConfig, ScaleResult};
use crate::workload::{FileCatalog, Trace, ZipfTrace};
use ioat_core::cluster::{Cluster, NodeConfig, NodeHandle};
use ioat_fabric::{Fabric, FabricRef, Topology};
use ioat_faults::RetryPolicy;
use ioat_netsim::msg::{self, MsgSender};
use ioat_netsim::stack::{self, ClusterFrameTotals, FrameRouter};
use ioat_netsim::{ConnId, Frame, Link, Socket};
use ioat_parsim::{Outbox, ParsimReport, Partition};
use ioat_simcore::{Histogram, Sim, SimDuration, SimRng, SimTime, Summary};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A frame crossing a partition boundary. Plain `Copy` data — the only
/// payload the groups and the fabric ever exchange. Host indices are
/// `u32` ([`Layout::of`] checks they fit), which keeps the message at
/// 40 bytes.
#[derive(Debug, Clone, Copy)]
enum NetMsg {
    /// Group → fabric: a frame from host `src` to host `dst` finished
    /// serializing on its access link and enters the fabric at the firing
    /// instant.
    Ingress { src: u32, dst: u32, frame: Frame },
    /// Fabric → group: a frame's final hop targets `host`; it arrives at
    /// the firing instant.
    Deliver { host: usize, frame: Frame },
}

const _: () = assert!(std::mem::size_of::<NetMsg>() == 40);

/// Sizes derived from the config once, shared by every builder.
#[derive(Debug, Clone, Copy)]
struct Layout {
    n_proxies: usize,
    n_webs: usize,
    /// Webs (and proxies) per group.
    f: usize,
    /// Server groups; partitions are `0` (fabric) plus `1..=groups`.
    groups: usize,
}

impl Layout {
    fn of(cfg: &ScaleConfig) -> Layout {
        let hosts = Topology::new(cfg.spec).hosts();
        assert!(hosts >= 2, "need at least one proxy and one web host");
        assert!(
            u32::try_from(hosts).is_ok(),
            "{hosts} hosts overflow a boundary message's u32 host index"
        );
        assert!(cfg.clients > 0, "need at least one client");
        assert!(cfg.webs_per_proxy > 0, "need at least one web per proxy");
        let n_proxies = hosts / 2;
        let n_webs = hosts - n_proxies;
        let f = cfg.webs_per_proxy.min(n_webs);
        assert_eq!(
            n_proxies, n_webs,
            "partitioning pairs each proxy group with a web subset; \
             it needs an even host count"
        );
        assert_eq!(
            n_webs % f,
            0,
            "webs_per_proxy ({f}) must divide the web tier ({n_webs}) \
             so subsets tile into disjoint groups"
        );
        Layout {
            n_proxies,
            n_webs,
            f,
            groups: n_webs / f,
        }
    }

    /// The partition index owning topology host `host`.
    fn partition_of_host(&self, host: usize) -> usize {
        if host < self.n_proxies {
            1 + host % self.groups
        } else {
            1 + (host - self.n_proxies) / self.f
        }
    }
}

/// Per (local proxy, subset slot) request-path endpoints: the proxy-side
/// socket (for compute charging) and the request sender toward the
/// chosen web server. Request metadata is `(slot, generation, size)`.
type ReqSlot = Option<(Socket, MsgSender<(u32, u32, u64)>)>;

/// Group-local run state: the partition's slice of the client slab plus
/// its own streaming statistics, merged across partitions afterwards.
struct GroupShared {
    f: usize,
    costs: DataCenterCosts,
    think: SimDuration,
    client_latency: SimDuration,
    admit_budget: Option<u32>,
    hedge: Option<RetryPolicy>,
    trace: RefCell<ZipfTrace>,
    /// Local proxy index of each local client's proxy.
    client_q: Vec<u32>,
    /// Slab of per-client request start instants, indexed by local slot.
    started: RefCell<Vec<SimTime>>,
    /// Per-local-client request generation: completion bumps it, which
    /// stales every outstanding duplicate (see the module docs).
    generation: RefCell<Vec<u32>>,
    /// Transactions currently admitted per *local* proxy.
    in_flight: RefCell<Vec<u32>>,
    shed: Cell<u64>,
    hedges: Cell<u64>,
    req: RefCell<Vec<ReqSlot>>,
    /// Measurement-window start: only completions at or after it count,
    /// toward both the completion count and the latency statistics.
    from: SimTime,
    completed: Cell<u64>,
    latency_hist: RefCell<Histogram>,
    latency_sum: RefCell<Summary>,
}

/// One closed-loop client iteration: draw a document, cross the client
/// access delay, pass (or fail) proxy admission, run the request path.
fn fire(shared: &Rc<GroupShared>, sim: &mut Sim, slot: u32) {
    let req = shared.trace.borrow_mut().next_request();
    shared.started.borrow_mut()[slot as usize] = sim.now();
    let q = shared.client_q[slot as usize] as usize;
    let idx = q * shared.f + req.file_id as usize % shared.f;
    let sh = Rc::clone(shared);
    sim.schedule(shared.client_latency, move |sim| {
        // Over budget: shed before any proxy work, retry after a think.
        if let Some(budget) = sh.admit_budget {
            if sh.in_flight.borrow()[q] >= budget {
                sh.shed.set(sh.shed.get() + 1);
                let sh2 = Rc::clone(&sh);
                sim.schedule(sh.think, move |sim| fire(&sh2, sim, slot));
                return;
            }
        }
        sh.in_flight.borrow_mut()[q] += 1;
        let generation = sh.generation.borrow()[slot as usize];
        send_attempt(&sh, sim, slot, generation, 0, idx, req.size);
    });
}

/// One transmission of a client's request (attempt 0 is the original,
/// attempts ≥ 1 are hedges): charge the proxy compute, send the
/// generation-tagged request, and — with a hedge policy installed — arm
/// the next hedge deadline, which fires only if the generation is still
/// outstanding.
fn send_attempt(
    shared: &Rc<GroupShared>,
    sim: &mut Sim,
    slot: u32,
    generation: u32,
    attempt: u32,
    idx: usize,
    size: u64,
) {
    let sock = {
        let senders = shared.req.borrow();
        senders[idx].as_ref().expect("sender installed").0.clone()
    };
    // A hedge re-sends an already-parsed request: forward cost only.
    let cost = if attempt == 0 {
        shared.costs.proxy_parse + shared.costs.proxy_forward
    } else {
        shared.costs.proxy_forward
    };
    let sh = Rc::clone(shared);
    sock.compute(sim, cost, move |sim| {
        {
            let senders = sh.req.borrow();
            let (_, sender) = senders[idx].as_ref().expect("sender installed");
            sender.send(sim, REQUEST_WIRE_BYTES, (slot, generation, size));
        }
        if let Some(policy) = sh.hedge {
            if attempt < policy.max_retries {
                let sh2 = Rc::clone(&sh);
                sim.schedule(policy.deadline(attempt), move |sim| {
                    if sh2.generation.borrow()[slot as usize] == generation {
                        sh2.hedges.set(sh2.hedges.get() + 1);
                        send_attempt(&sh2, sim, slot, generation, attempt + 1, idx, size);
                    }
                });
            }
        }
    });
}

/// The group partition's [`FrameRouter`]: departing data frames are
/// staged for the fabric partition with the endpoints their sender
/// names; ACKs stay local (both endpoints of every group connection live
/// in this partition).
struct GroupRouter {
    out: Outbox<NetMsg>,
    topo: Topology,
    switch_latency: SimDuration,
}

impl FrameRouter for GroupRouter {
    fn frame_departed(
        &self,
        _sim: &mut Sim,
        src: usize,
        dst: usize,
        frame: Frame,
        arrive: SimTime,
    ) {
        let (src, dst) = (src as u32, dst as u32);
        self.out
            .send(0, arrive, NetMsg::Ingress { src, dst, frame });
    }

    /// Reverse-path ACK latency: `switch_latency × path_links`, netsim's
    /// latency-only ACK model on the fabric's topology.
    fn ack_delay(&self, from: usize, to: usize) -> SimDuration {
        self.switch_latency * self.topo.path_links(from, to) as u64
    }
}

/// Partition 0: the switch fabric alone on its own event queue.
struct FabricPart {
    sim: Sim,
    fabric: FabricRef,
}

fn build_fabric_part(cfg: &ScaleConfig, lay: Layout, out: Outbox<NetMsg>) -> FabricPart {
    let mut sim = Sim::new();
    sim.set_event_limit(ioat_guard::event_limit());
    let fabric = Fabric::new(cfg.spec, cfg.fabric);
    // The fault plan is a pure function of (spec, topology, window), so
    // every partition layout expands the same plan.
    if cfg.faults.is_active() {
        fabric.set_faults(&cfg.faults.plan(fabric.topology(), &cfg.window));
    }
    // Final hops leave this partition: stage the delivery for the host's
    // group at the frame's arrival instant.
    fabric.set_delivery(move |_sim, host, frame, arrive| {
        out.send(
            lay.partition_of_host(host),
            arrive,
            NetMsg::Deliver { host, frame },
        );
    });
    FabricPart { sim, fabric }
}

/// What the fabric partition reports back after the run.
struct FabricOut {
    tail_drops: u64,
    route_blackholes: u64,
}

/// Partitions `1..=G`: one server group and its clients.
struct GroupPart {
    cluster: Cluster,
    shared: Rc<GroupShared>,
    /// (topology host, node, port) of the group's 2f hosts, searched by
    /// topology host for frames delivered off the fabric.
    host_ports: Vec<(usize, NodeHandle, usize)>,
    proxies: Vec<NodeHandle>,
    webs: Vec<NodeHandle>,
}

fn build_group_part(cfg: &ScaleConfig, lay: Layout, g: usize, out: Outbox<NetMsg>) -> GroupPart {
    let mut cluster = Cluster::measured(cfg.window);
    let router = Rc::new(GroupRouter {
        out,
        topo: Topology::new(cfg.spec),
        switch_latency: cfg.fabric.switch_latency,
    });
    // Each host reaches the router over its own access link cut from the
    // fabric's parameters; the router carries its frames to the fabric
    // partition.
    let access = || Link::new(cfg.fabric.host_bandwidth, cfg.fabric.switch_latency);

    // Proxies {g, g+G, …} and webs [g·f, (g+1)·f): the closed set of the
    // subset rule `w = (p·f + j) mod n_webs`.
    let mut host_ports = Vec::with_capacity(2 * lay.f);
    let proxies: Vec<(usize, NodeHandle, usize)> = (0..lay.f)
        .map(|i| {
            let p = g + i * lay.groups;
            let h = cluster.add_node(NodeConfig::profiled(
                &format!("p{p}"),
                cfg.ioat,
                cfg.profile,
            ));
            let port = stack::attach_router(
                cluster.stack(h),
                access(),
                Rc::clone(&router) as Rc<dyn FrameRouter>,
                p,
            );
            host_ports.push((p, h, port));
            (p, h, port)
        })
        .collect();
    let webs: Vec<(usize, NodeHandle, usize)> = (0..lay.f)
        .map(|j| {
            let w = g * lay.f + j;
            let h = cluster.add_node(NodeConfig::profiled(
                &format!("w{w}"),
                cfg.ioat,
                cfg.profile,
            ));
            let port = stack::attach_router(
                cluster.stack(h),
                access(),
                Rc::clone(&router) as Rc<dyn FrameRouter>,
                lay.n_proxies + w,
            );
            host_ports.push((lay.n_proxies + w, h, port));
            (w, h, port)
        })
        .collect();

    // This group's slice of the client slab, with per-group Zipf draws.
    // The catalog (document → size) is rebuilt identically in every
    // group from the same seed; only the draw stream is per-group.
    let mut crng = SimRng::seed_from(cfg.seed);
    let catalog = FileCatalog::web_content(cfg.catalog_files, 8 * 1024, &mut crng);
    let trace = ZipfTrace::new(
        catalog,
        cfg.alpha,
        SimRng::stream(cfg.seed, 0x5EED + g as u64),
    );
    let slots: Vec<u32> = (0..cfg.clients as u32)
        .filter(|&s| (s as usize % lay.n_proxies) % lay.groups == g)
        .collect();
    let client_q: Vec<u32> = slots
        .iter()
        .map(|&s| ((s as usize % lay.n_proxies - g) / lay.groups) as u32)
        .collect();
    let n_slots = slots.len();
    let shared = Rc::new(GroupShared {
        f: lay.f,
        costs: cfg.costs,
        think: cfg.think,
        client_latency: cfg.client_latency,
        admit_budget: cfg.admit_budget,
        hedge: cfg.hedge,
        trace: RefCell::new(trace),
        client_q,
        started: RefCell::new(vec![SimTime::ZERO; n_slots]),
        generation: RefCell::new(vec![0; n_slots]),
        in_flight: RefCell::new(vec![0; lay.f]),
        shed: Cell::new(0),
        hedges: Cell::new(0),
        req: RefCell::new((0..lay.f * lay.f).map(|_| None).collect()),
        from: cfg.window.from(),
        completed: Cell::new(0),
        latency_hist: RefCell::new(Histogram::new()),
        latency_sum: RefCell::new(Summary::new()),
    });

    // Connections with globally unique ids, id = 1 + p·f + j: the fabric
    // hashes the id into every ECMP choice.
    let opts = ScaleConfig::opts();
    for (q, &(p, ph, p_port)) in proxies.iter().enumerate() {
        for (j, &(_, wh, w_port)) in webs.iter().enumerate() {
            let id = ConnId(1 + (p * lay.f + j) as u64);
            let (p_stack, w_stack) = (cluster.stack(ph), cluster.stack(wh));
            stack::open_connection(p_stack, w_stack, p_port, w_port, opts, id);
            let (p_sock, w_sock) = (Socket::new(p_stack, id), Socket::new(w_stack, id));

            // Responses web → proxy → (after the access delay) client:
            // relay on the proxy, complete the transaction, think, fire
            // the client's next request. Requests proxy → web: serve the
            // document, send it back with the request's generation tag.
            let sh = Rc::clone(&shared);
            let p_sock2 = p_sock.clone();
            let respond = msg::channel(
                w_sock.clone(),
                p_sock.clone(),
                move |sim, (slot, generation): (u32, u32)| {
                    // Stale hedge duplicate: already completed, discard.
                    if sh.generation.borrow()[slot as usize] != generation {
                        return;
                    }
                    sh.generation.borrow_mut()[slot as usize] += 1;
                    let lq = sh.client_q[slot as usize] as usize;
                    sh.in_flight.borrow_mut()[lq] -= 1;
                    let sh2 = Rc::clone(&sh);
                    p_sock2.compute(sim, sh.costs.proxy_relay, move |sim| {
                        let sh3 = Rc::clone(&sh2);
                        sim.schedule(sh2.client_latency, move |sim| {
                            let now = sim.now();
                            if now >= sh3.from {
                                let lat = now - sh3.started.borrow()[slot as usize];
                                let us = lat.as_nanos() / 1_000;
                                sh3.completed.set(sh3.completed.get() + 1);
                                sh3.latency_hist.borrow_mut().record(us.max(1));
                                sh3.latency_sum.borrow_mut().add(us as f64);
                            }
                            let sh4 = Rc::clone(&sh3);
                            sim.schedule(sh3.think, move |sim| fire(&sh4, sim, slot));
                        });
                    });
                },
            );
            let respond = Rc::new(respond);

            let costs = cfg.costs;
            let w_sock2 = w_sock.clone();
            let request = msg::channel(
                p_sock.clone(),
                w_sock,
                move |sim, (slot, generation, size): (u32, u32, u64)| {
                    let rsp = Rc::clone(&respond);
                    w_sock2.compute(sim, costs.web_serve(size), move |sim| {
                        rsp.send(sim, size, (slot, generation));
                    });
                },
            );
            shared.req.borrow_mut()[q * lay.f + j] = Some((p_sock, request));
        }
    }

    // Client starts keep their *global* stagger offsets so the aggregate
    // arrival pattern matches the layout, not the partition count.
    let warmup_ns = cfg.window.warmup.as_nanos().max(1);
    for (local, &s) in slots.iter().enumerate() {
        let at = SimDuration::from_nanos(warmup_ns * u64::from(s) / cfg.clients as u64);
        let sh = Rc::clone(&shared);
        let local = local as u32;
        cluster
            .sim_mut()
            .schedule(at, move |sim| fire(&sh, sim, local));
    }

    GroupPart {
        cluster,
        shared,
        host_ports,
        proxies: proxies.iter().map(|&(_, h, _)| h).collect(),
        webs: webs.iter().map(|&(_, h, _)| h).collect(),
    }
}

/// What a group partition reports back: its statistics slice and its
/// terms of the cluster-wide conservation identity.
struct GroupOut {
    completed: u64,
    hist: Histogram,
    lat: Summary,
    proxy_cpu_sum: f64,
    web_cpu_sum: f64,
    proxy_occ_sum: f64,
    shed: u64,
    hedges: u64,
    totals: ClusterFrameTotals,
}

/// One partition of the datacenter run.
enum DcPartition {
    Fabric(FabricPart),
    // Boxed: a group (cluster + shared client state) is ~3× the fabric
    // variant, and partitions are moved into per-worker vectors.
    Group(Box<GroupPart>),
}

enum DcOut {
    Fabric(FabricOut),
    Group(GroupOut),
}

impl DcPartition {
    /// The one event queue either kind of partition drives.
    fn sim(&self) -> &Sim {
        match self {
            DcPartition::Fabric(p) => &p.sim,
            DcPartition::Group(p) => p.cluster.sim(),
        }
    }

    fn sim_mut(&mut self) -> &mut Sim {
        match self {
            DcPartition::Fabric(p) => &mut p.sim,
            DcPartition::Group(p) => p.cluster.sim_mut(),
        }
    }
}

impl Partition for DcPartition {
    type Msg = NetMsg;
    type Out = DcOut;

    fn next_event_at(&mut self) -> Option<SimTime> {
        self.sim_mut().next_event_at()
    }

    fn run_before(&mut self, limit: SimTime) {
        self.sim_mut().run_before(limit);
    }

    fn run_final(&mut self, horizon: SimTime) {
        self.sim_mut().run_until(horizon);
    }

    fn inject(&mut self, fire_at: SimTime, msg: NetMsg) {
        match (self, msg) {
            (DcPartition::Fabric(p), NetMsg::Ingress { src, dst, frame }) => {
                let fabric = Rc::clone(&p.fabric);
                p.sim.schedule_at(fire_at, move |sim| {
                    fabric.ingress(sim, src as usize, dst as usize, frame);
                });
            }
            (DcPartition::Group(p), NetMsg::Deliver { host, frame }) => {
                let &(_, node, port) = p
                    .host_ports
                    .iter()
                    .find(|(h, ..)| *h == host)
                    .expect("frame delivered to a host outside this partition");
                let stack = Rc::clone(p.cluster.stack(node));
                p.cluster.sim_mut().schedule_at(fire_at, move |sim| {
                    stack::frame_arrived(&stack, sim, port, frame);
                });
            }
            (DcPartition::Fabric(_), NetMsg::Deliver { .. }) => {
                unreachable!("Deliver targets a group partition");
            }
            (DcPartition::Group(_), NetMsg::Ingress { .. }) => {
                unreachable!("Ingress targets the fabric partition");
            }
        }
    }

    fn events_executed(&self) -> u64 {
        self.sim().events_executed()
    }

    fn finish(self) -> DcOut {
        match self {
            DcPartition::Fabric(p) => {
                if ioat_guard::enabled() {
                    ioat_guard::audit_sim(&p.sim);
                    let quiescent = p.sim.events_pending() == 0;
                    p.fabric.audit(p.sim.now(), quiescent);
                }
                DcOut::Fabric(FabricOut {
                    tail_drops: p.fabric.tail_drops(),
                    route_blackholes: p.fabric.blackholes(),
                })
            }
            DcPartition::Group(p) => {
                if ioat_guard::enabled() {
                    p.cluster.run_local_audits();
                }
                let tier_sum = |handles: &[NodeHandle]| {
                    handles
                        .iter()
                        .map(|&h| p.cluster.stack(h).borrow().cpu_utilization())
                        .sum::<f64>()
                };
                DcOut::Group(GroupOut {
                    completed: p.shared.completed.get(),
                    hist: p.shared.latency_hist.borrow().clone(),
                    lat: p.shared.latency_sum.borrow().clone(),
                    proxy_cpu_sum: tier_sum(&p.proxies),
                    web_cpu_sum: tier_sum(&p.webs),
                    proxy_occ_sum: p
                        .proxies
                        .iter()
                        .map(|&h| p.cluster.stack(h).borrow().cpu_occupancy())
                        .sum::<f64>(),
                    shed: p.shared.shed.get(),
                    hedges: p.shared.hedges.get(),
                    totals: p.cluster.frame_totals(),
                })
            }
        }
    }
}

/// Runs the fabric-scale scenario partitioned onto `threads` worker
/// threads, returning the merged result plus the engine's
/// per-partition/per-window report.
///
/// Results are bit-identical for any `threads ≥ 1`; at `threads = 1`
/// every partition runs inline on the calling thread.
///
/// # Panics
///
/// Panics if `threads` is zero, or if the configuration cannot be tiled
/// into groups (`webs_per_proxy` must divide the web-tier size).
pub fn run_partitioned(cfg: &ScaleConfig, threads: usize) -> (ScaleResult, ParsimReport) {
    let lay = Layout::of(cfg);
    let cfg = *cfg;
    let horizon = cfg.window.to();
    let lookahead = cfg.fabric.switch_latency;

    let builders: Vec<_> = (0..=lay.groups)
        .map(|_| {
            move |idx: usize, out: Outbox<NetMsg>| -> DcPartition {
                if idx == 0 {
                    DcPartition::Fabric(build_fabric_part(&cfg, lay, out))
                } else {
                    DcPartition::Group(Box::new(build_group_part(&cfg, lay, idx - 1, out)))
                }
            }
        })
        .collect();
    let (outs, report) = ioat_parsim::run(builders, lookahead, horizon, threads);

    // Deterministic merge in partition order.
    let mut tail_drops = 0u64;
    let mut route_blackholes = 0u64;
    let mut completed = 0u64;
    let mut hist = Histogram::new();
    let mut lat = Summary::new();
    let mut proxy_cpu_sum = 0.0;
    let mut web_cpu_sum = 0.0;
    let mut proxy_occ_sum = 0.0;
    let mut shed = 0u64;
    let mut hedges = 0u64;
    let mut totals = ClusterFrameTotals::default();
    for out in outs {
        match out {
            DcOut::Fabric(f) => {
                tail_drops = f.tail_drops;
                route_blackholes = f.route_blackholes;
            }
            DcOut::Group(g) => {
                completed += g.completed;
                hist.merge(&g.hist);
                lat.merge(&g.lat);
                proxy_cpu_sum += g.proxy_cpu_sum;
                web_cpu_sum += g.web_cpu_sum;
                proxy_occ_sum += g.proxy_occ_sum;
                shed += g.shed;
                hedges += g.hedges;
                totals.merge(&g.totals);
            }
        }
    }
    // The cluster-wide conservation identity only holds on totals summed
    // across every partition; the frames the fabric dropped or
    // blackholed are its `switch_dropped` / `route_blackholed` terms.
    // The window closes mid-flight, so the in-flight (non-quiescent)
    // form applies. Every window completion left one latency sample.
    if ioat_guard::enabled() {
        stack::audit_cluster_conservation(totals, tail_drops, route_blackholes, horizon, false);
        let samples = hist.count();
        ioat_guard::check(
            "datacenter/parallel",
            "latency samples = window completions",
            horizon,
            samples == completed,
            || format!("{samples} latency samples vs {completed} completions"),
        );
    }

    let elapsed = (cfg.window.to() - cfg.window.from()).as_secs_f64();
    let result = ScaleResult {
        tps: completed as f64 / elapsed,
        completed,
        latency_mean_us: lat.mean(),
        latency_p50_us: hist.quantile(0.50),
        latency_p99_us: hist.quantile(0.99),
        latency_max_us: lat.max().unwrap_or(0.0),
        proxy_cpu: proxy_cpu_sum / lay.n_proxies as f64,
        web_cpu: web_cpu_sum / lay.n_webs as f64,
        tail_drops,
        route_blackholes,
        shed,
        hedges,
        proxy_occupancy: proxy_occ_sum / lay.n_proxies as f64,
        sim_events: report.total_events(),
    };
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::FabricFaultSpec;
    use ioat_netsim::IoatConfig;

    #[test]
    fn partitioned_results_are_bit_identical_across_worker_counts() {
        let cfg = ScaleConfig::quick_test(IoatConfig::disabled());
        let (r1, rep1) = run_partitioned(&cfg, 1);
        let (r2, rep2) = run_partitioned(&cfg, 2);
        let (r8, rep8) = run_partitioned(&cfg, 8);
        assert_eq!(r1, r2, "1 vs 2 workers");
        assert_eq!(r1, r8, "1 vs 8 workers");
        assert!(r1.completed > 0, "clients completed transactions");
        for rep in [&rep2, &rep8] {
            assert_eq!(rep1.rounds, rep.rounds);
            assert_eq!(rep1.events, rep.events);
            assert_eq!(rep1.emitted, rep.emitted);
            assert_eq!(rep1.injected, rep.injected);
        }
        assert!(
            rep1.emitted.iter().sum::<u64>() > 0,
            "data frames crossed the fabric boundary"
        );
    }

    #[test]
    fn partitioned_run_is_audit_clean() {
        let cfg = ScaleConfig::quick_test(IoatConfig::full());
        let (result, violations) = ioat_guard::with_audit(|| run_partitioned(&cfg, 2));
        let (r, rep) = result.expect("run completes");
        assert!(
            violations.is_empty(),
            "audits must be clean: {violations:?}"
        );
        assert!(r.tps > 0.0);
        assert!(r.latency_p50_us > 0);
        assert!(r.latency_p99_us >= r.latency_p50_us);
        assert!(r.latency_max_us >= r.latency_p99_us as f64 / 2.0);
        assert!(r.proxy_cpu > 0.0 && r.proxy_cpu <= 1.0);
        assert!(r.web_cpu > 0.0 && r.web_cpu <= 1.0);
        assert!(r.sim_events > 0);
        assert_eq!(rep.partitions, 1 + 2, "fat-tree(4): fabric + 2 groups");
    }

    #[test]
    fn partitioned_reruns_reproduce_exactly() {
        let cfg = ScaleConfig::quick_test(IoatConfig::full());
        let a = run_partitioned(&cfg, 3);
        let b = run_partitioned(&cfg, 3);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        // The workload seed is live: a different seed is a different run.
        let reseeded = ScaleConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        assert_ne!(run_partitioned(&reseeded, 3).0, a.0);
    }

    #[test]
    fn faulted_partitioned_runs_are_bit_identical_across_worker_counts() {
        let mut cfg = ScaleConfig::quick_test(IoatConfig::disabled());
        cfg.faults = FabricFaultSpec {
            flaps_per_link: 3,
            crashed_switches: 2,
            ..FabricFaultSpec::none()
        };
        cfg.admit_budget = Some(2);
        cfg.hedge = Some(RetryPolicy {
            timeout: SimDuration::from_millis(4),
            ..RetryPolicy::default()
        });
        let (result, violations) = ioat_guard::with_audit(|| {
            let (r1, _) = run_partitioned(&cfg, 1);
            let (r4, _) = run_partitioned(&cfg, 4);
            (r1, r4)
        });
        let (r1, r4) = result.expect("faulted runs complete");
        assert!(
            violations.is_empty(),
            "audits must stay clean under faults: {violations:?}"
        );
        assert_eq!(r1, r4, "fault windows must be partition-invariant");
        assert!(
            r1.route_blackholes > 0,
            "the crash window must blackhole some frames"
        );
        assert!(
            r1.shed > 0 && r1.hedges > 0,
            "both protections engage (shed {}, hedges {})",
            r1.shed,
            r1.hedges
        );
        assert!(r1.completed > 0, "transactions keep completing");
    }

    #[test]
    fn ioat_still_reduces_cpu_per_transaction_when_partitioned() {
        let mut cfg = ScaleConfig::quick_test(IoatConfig::disabled());
        cfg.clients = 96;
        let (non, _) = run_partitioned(&cfg, 2);
        cfg.ioat = IoatConfig::full();
        let (ioat, _) = run_partitioned(&cfg, 2);
        assert!(non.tps > 0.0 && ioat.tps > 0.0, "CPU/txn needs throughput");
        let non_per = (non.proxy_cpu + non.web_cpu) / non.tps;
        let ioat_per = (ioat.proxy_cpu + ioat.web_cpu) / ioat.tps;
        assert!(
            ioat_per < non_per,
            "I/OAT {ioat_per:.3e} vs non {non_per:.3e} CPU/txn"
        );
    }

    /// Runs `cfg` inline under an audit scope and demands a clean run.
    fn audited(cfg: &ScaleConfig) -> ScaleResult {
        let (result, violations) = ioat_guard::with_audit(|| run_partitioned(cfg, 1).0);
        let r = result.expect("run completes");
        assert!(
            violations.is_empty(),
            "audits must be clean: {violations:?}"
        );
        r
    }

    #[test]
    fn more_flaps_blackhole_at_least_as_many_frames() {
        // The flap model draws each link's windows sequentially from one
        // dedicated stream, so n flaps' schedule is a prefix of n+1's —
        // degradation is structurally monotone in the flap rate.
        let mut prev = 0;
        for flaps in [0u32, 3, 9] {
            let mut cfg = ScaleConfig::quick_test(IoatConfig::disabled());
            cfg.faults = FabricFaultSpec {
                flaps_per_link: flaps,
                ..FabricFaultSpec::none()
            };
            let r = audited(&cfg);
            assert!(
                r.route_blackholes >= prev,
                "blackholes must not decrease with flap rate \
                 ({flaps} flaps: {} < {prev})",
                r.route_blackholes
            );
            prev = r.route_blackholes;
        }
        assert!(prev > 0, "the densest flap schedule must blackhole frames");
    }

    #[test]
    fn fabric_faults_degrade_and_the_run_recovers() {
        // Flaps and crashed switches with neither protection armed: the
        // run must ride out the outage on ECMP failover alone.
        let mut cfg = ScaleConfig::quick_test(IoatConfig::disabled());
        cfg.faults = FabricFaultSpec {
            flaps_per_link: 4,
            crashed_switches: 2,
            ..FabricFaultSpec::none()
        };
        let r = audited(&cfg);
        assert!(
            r.route_blackholes > 0,
            "flaps + crashed switches must blackhole some frames"
        );
        assert!(
            r.completed > 0,
            "transactions must keep completing through failover"
        );
        assert_eq!((r.shed, r.hedges), (0, 0), "no protection was armed");
    }

    #[test]
    fn tiny_admission_budget_sheds_and_caps_in_flight_work() {
        let mut cfg = ScaleConfig::quick_test(IoatConfig::disabled());
        let (open, _) = run_partitioned(&cfg, 1);
        cfg.admit_budget = Some(1);
        let capped = audited(&cfg);
        assert!(capped.shed > 0, "a budget of 1 must shed requests");
        assert!(
            capped.completed > 0,
            "admitted requests must still complete"
        );
        assert!(
            capped.completed < open.completed,
            "shedding must cost throughput ({} vs {})",
            capped.completed,
            open.completed
        );
        assert_eq!(open.shed, 0, "no budget, nothing shed");
    }

    #[test]
    fn hedged_retries_fire_during_an_outage_and_stale_wins_are_discarded() {
        let mut cfg = ScaleConfig::quick_test(IoatConfig::disabled());
        cfg.faults = FabricFaultSpec {
            crashed_switches: 2,
            ..FabricFaultSpec::none()
        };
        cfg.hedge = Some(RetryPolicy {
            timeout: SimDuration::from_millis(4),
            max_retries: 2,
            backoff: 2.0,
        });
        let r = audited(&cfg);
        assert!(
            r.hedges > 0,
            "outage-lengthened requests must trip the hedge deadline"
        );
        assert!(r.completed > 0, "hedged transactions must complete");
    }
}
