//! The fabric runtime: switches with shared output buffers, deterministic
//! ECMP, and hop-by-hop frame forwarding.
//!
//! A [`Fabric`] compiles a [`Topology`] into per-switch runtime state
//! (one [`Link`] per output port, a shared output-buffer occupancy
//! counter). Host stacks never hold the fabric: their ports attach to a
//! netsim [`FrameRouter`](ioat_netsim::FrameRouter) that hands departing
//! frames to [`Fabric::ingress`], and the fabric hands every final hop to
//! the hook installed with [`Fabric::set_delivery`]. Both directions are
//! staged by the caller, so the fabric runs on its own event queue or on
//! the hosts' one alike. The sending stack names a frame's source and
//! destination hosts (each connection learns its peer's attachment when it
//! opens), so the fabric keeps no per-connection state:
//!
//! * **Data path**: a frame serializes on the host's access link, enters
//!   the source host's edge switch, and is forwarded hop by hop. Each hop
//!   picks an output port (ECMP over the equal-cost candidates), claims
//!   the frame's wire bytes in the switch's *shared* output buffer —
//!   tail-dropping the frame if the buffer is exhausted — and serializes
//!   it on the port's link. The buffer claim is released when the frame
//!   finishes arriving at the next hop, so a slow downstream link
//!   back-pressures the whole switch, as a shared-memory switch does.
//! * **ECMP**: the output port is a pure hash of
//!   `(seed, src_host, dst_host, conn, switch_id)` via
//!   [`ioat_simcore::hash::FastHasher`] — the simulator's 5-tuple (the
//!   `ConnId` subsumes the port pair, the protocol is constant). Including
//!   the switch id decorrelates successive tiers (no hash polarization);
//!   excluding any per-run state makes the choice seed-stable and
//!   bit-identical across `--jobs` layouts.
//! * **ACK path**: netsim ACKs are latency-only (documented
//!   simplification) and never enter the fabric or the router: when a
//!   connection opens, each endpoint fixes its ACK delay from the
//!   router's `ack_delay` — the topology's path-link count × per-hop
//!   latency — and every ACK reaches the other endpoint after it,
//!   without touching buffers or serializers. ACK loss stays unmodeled —
//!   windows cannot deadlock, and tail-dropped data frames are recovered
//!   by fast retransmit or the RTO, which netsim arms automatically on
//!   router-attached ports.
//! * **Fault domain**: [`Fabric::set_faults`] installs the fabric-facing
//!   entries of a seed-driven [`FaultPlan`] — per-link flap windows and
//!   switch crash windows — materialized once at install time, so the
//!   running fabric consults pure window tables and draws no RNG. Each
//!   hop's ECMP choice re-hashes over the *surviving* equal-cost ports
//!   (a port survives when its link is not flapped down and its
//!   downstream switch is not crashed); when every candidate is dead, or
//!   the forwarding switch itself is crashed, the frame is counted in
//!   the `route_blackhole` sink and dropped — the sender's go-back-N
//!   recovery re-traverses the re-hashed paths once a window closes.
//! * **Conservation**: tail-drops and route blackholes are counted per
//!   switch and globally; [`Fabric::audit`] cross-checks the pairs and
//!   `audit_cluster_conservation` takes the global counters as the
//!   `switch_dropped` / `route_blackholed` terms of the
//!   cluster-wide Σsent = Σarrived + drops + blackholes identity.

use crate::topology::{Hop, Topology, TopologySpec};
use ioat_faults::{FaultPlan, TimeWindow};
use ioat_netsim::link::Link;
use ioat_netsim::{ConnId, Frame};
use ioat_simcore::hash::FastHasher;
use ioat_simcore::time::Bandwidth;
use ioat_simcore::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::hash::Hasher;
use std::rc::Rc;

/// Shared handle to a [`Fabric`].
pub type FabricRef = Rc<Fabric>;

/// Physical parameters of the fabric.
#[derive(Debug, Clone, Copy)]
pub struct FabricParams {
    /// Line rate of host access links (host NIC → edge switch).
    pub host_bandwidth: Bandwidth,
    /// Base line rate of switch-to-switch links.
    pub link_bandwidth: Bandwidth,
    /// Oversubscription ratio ≥ 1: uplink ports (toward a higher tier)
    /// run at `link_bandwidth / oversubscription`, modeling the classic
    /// trimmed-uplink fat-tree without changing the closed-form
    /// host/switch/link counts or the path diversity.
    pub oversubscription: f64,
    /// Per-hop store-and-forward + propagation latency (every link in the
    /// fabric, access links included).
    pub switch_latency: SimDuration,
    /// Shared output-buffer capacity per switch, in bytes. A frame whose
    /// wire bytes do not fit is tail-dropped.
    pub buffer_bytes: u64,
    /// ECMP hash seed. Same seed ⇒ identical path choices, regardless of
    /// how work is laid out across threads.
    pub seed: u64,
}

impl FabricParams {
    /// GigE-era defaults matching the paper's testbed network: 1 Gbps
    /// everywhere, 5 µs per hop, 1 MiB of shared buffer per switch.
    pub fn gige() -> Self {
        FabricParams {
            host_bandwidth: Bandwidth::from_gbps(1),
            link_bandwidth: Bandwidth::from_gbps(1),
            oversubscription: 1.0,
            switch_latency: SimDuration::from_micros(5),
            buffer_bytes: 1 << 20,
            seed: 1,
        }
    }
}

struct OutPort {
    link: Link,
    dest: Hop,
}

struct SwitchRt {
    out: Vec<OutPort>,
    /// Bytes currently claimed in the shared output buffer (held from the
    /// forwarding decision until the frame finishes arriving downstream).
    occupancy: u64,
    peak: u64,
    tail_drops: u64,
    blackholes: u64,
    forwarded: u64,
}

#[derive(Default)]
struct GlobalStats {
    tail_drops: u64,
    route_blackholes: u64,
    forwarded: u64,
}

/// The fabric-facing half of a [`FaultPlan`], materialized once at
/// [`Fabric::set_faults`] time: per-directed-link flap windows and
/// per-switch crash windows. A pure function of `(plan, topology)` — no
/// RNG is drawn after installation and no events are scheduled, so the
/// schedule is identical under any partitioning or thread count.
struct FaultState {
    /// `link_down[sw][port]` — down-windows of the directed link out of
    /// switch `sw`'s port `port` (host access links included).
    link_down: Vec<Vec<Vec<TimeWindow>>>,
    /// `switch_down[sw]` — crash windows of switch `sw`.
    switch_down: Vec<Vec<TimeWindow>>,
}

impl FaultState {
    fn link_up(&self, sw: usize, port: usize, now: SimTime) -> bool {
        !self.link_down[sw][port].iter().any(|w| w.contains(now))
    }

    fn switch_up(&self, sw: usize, now: SimTime) -> bool {
        !self.switch_down[sw].iter().any(|w| w.contains(now))
    }
}

/// Hook receiving `(sim, host, frame, arrive)` for every frame whose final
/// hop targets topology host `host`: it stages the frame for the host's
/// stack at `arrive`.
type Delivery = Box<dyn Fn(&mut Sim, usize, Frame, SimTime)>;

/// A compiled, running switch fabric. Create with [`Fabric::new`], install
/// the final-hop hook with [`Fabric::set_delivery`], and feed departing
/// frames to [`Fabric::ingress`].
pub struct Fabric {
    topo: Topology,
    params: FabricParams,
    switches: RefCell<Vec<SwitchRt>>,
    stats: RefCell<GlobalStats>,
    delivery: RefCell<Option<Delivery>>,
    faults: RefCell<Option<FaultState>>,
}

impl Fabric {
    /// Compiles `spec` into runtime switches.
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec (see [`Topology::new`]) or an
    /// oversubscription ratio below 1.
    pub fn new(spec: TopologySpec, params: FabricParams) -> FabricRef {
        assert!(
            params.oversubscription >= 1.0,
            "oversubscription ratio must be ≥ 1"
        );
        let topo = Topology::new(spec);
        let uplink_bw = Bandwidth::from_bps(
            ((params.link_bandwidth.as_bps() as f64 / params.oversubscription) as u64).max(1),
        );
        let switches = (0..topo.switches())
            .map(|sw| {
                let tier = topo.switch_tier(sw);
                let out = topo
                    .switch_ports(sw)
                    .into_iter()
                    .map(|dest| {
                        let bw = match dest {
                            Hop::Host(_) => params.host_bandwidth,
                            Hop::Switch(next) if topo.switch_tier(next) > tier => uplink_bw,
                            Hop::Switch(_) => params.link_bandwidth,
                        };
                        OutPort {
                            link: Link::new(bw, params.switch_latency),
                            dest,
                        }
                    })
                    .collect();
                SwitchRt {
                    out,
                    occupancy: 0,
                    peak: 0,
                    tail_drops: 0,
                    blackholes: 0,
                    forwarded: 0,
                }
            })
            .collect();
        Rc::new(Fabric {
            topo,
            params,
            switches: RefCell::new(switches),
            stats: RefCell::new(GlobalStats::default()),
            delivery: RefCell::new(None),
            faults: RefCell::new(None),
        })
    }

    /// Installs the fabric-facing entries of `plan`: link-flap windows
    /// (one schedule per directed link, drawn here from the plan's
    /// dedicated streams) and switch crash windows. A plan with no fabric
    /// faults installs nothing — the running fabric stays bit-identical
    /// to one that never saw a plan. Partition-invariant by construction:
    /// the state is a pure function of `(plan, topology)`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid plan (see [`FaultPlan::validate`]), a switch
    /// crash for a switch index outside this topology, or a second
    /// install.
    pub fn set_faults(&self, plan: &FaultPlan) {
        plan.validate();
        if !plan.has_fabric_faults() {
            return;
        }
        let switches = self.switches.borrow();
        let link_down = switches
            .iter()
            .enumerate()
            .map(|(sw, s)| {
                (0..s.out.len())
                    .map(|p| match &plan.link_flap {
                        Some(m) => m.windows(plan.seed, ((sw as u64) << 32) | p as u64),
                        None => Vec::new(),
                    })
                    .collect()
            })
            .collect();
        let mut switch_down = vec![Vec::new(); switches.len()];
        for c in &plan.switch_crashes {
            let sw = c.service as usize;
            assert!(
                sw < switches.len(),
                "switch crash for switch {sw}, but the topology has only {} switches",
                switches.len()
            );
            switch_down[sw].push(c.window);
        }
        drop(switches);
        let prev = self.faults.borrow_mut().replace(FaultState {
            link_down,
            switch_down,
        });
        assert!(prev.is_none(), "fabric fault plan installed twice");
    }

    /// The compiled topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The fabric's physical parameters.
    pub fn params(&self) -> FabricParams {
        self.params
    }

    /// Installs the delivery hook: every final hop to a host is handed to
    /// `hook` as `(sim, host, frame, arrive)` at the forwarding decision.
    /// The switch's shared-buffer claim is released at `arrive`, when the
    /// frame has finished arriving at the host.
    ///
    /// # Panics
    ///
    /// Panics on a second install.
    pub fn set_delivery(&self, hook: impl Fn(&mut Sim, usize, Frame, SimTime) + 'static) {
        let prev = self.delivery.borrow_mut().replace(Box::new(hook));
        assert!(prev.is_none(), "delivery hook installed twice");
    }

    /// A data frame from topology host `src` to topology host `dst` has
    /// finished serializing on its access link and enters the fabric at
    /// `src`'s edge switch now.
    pub fn ingress(self: &Rc<Self>, sim: &mut Sim, src: usize, dst: usize, frame: Frame) {
        let edge = self.topo.host_edge(src);
        self.hop(sim, edge, frame, src, dst);
    }

    /// Global count of frames tail-dropped at switch buffers — the
    /// `switch_dropped` term of the cluster-wide frame-conservation
    /// identity.
    pub fn tail_drops(&self) -> u64 {
        self.stats.borrow().tail_drops
    }

    /// Global count of switch forwarding decisions (one per hop).
    pub fn forwarded(&self) -> u64 {
        self.stats.borrow().forwarded
    }

    /// Global count of frames dropped with no surviving path — the
    /// `route_blackholed` term of the cluster-wide frame-conservation
    /// identity.
    pub fn blackholes(&self) -> u64 {
        self.stats.borrow().route_blackholes
    }

    /// The output port ECMP selects on switch `sw` for a frame of
    /// connection `conn` from host `src` to host `dst`. Pure and
    /// deterministic — exposed so tests can measure hash spread without
    /// running traffic.
    pub fn route_port(&self, sw: usize, src: usize, dst: usize, conn: ConnId) -> usize {
        let (first, n) = self.topo.route(sw, dst);
        if n == 1 {
            first
        } else {
            first + (self.ecmp_hash(sw, src, dst, conn) % n as u64) as usize
        }
    }

    /// The flow's ECMP hash at switch `sw` — pure, seed-stable.
    fn ecmp_hash(&self, sw: usize, src: usize, dst: usize, conn: ConnId) -> u64 {
        let mut h = FastHasher::default();
        h.write_u64(self.params.seed);
        h.write_u64(src as u64);
        h.write_u64(dst as u64);
        h.write_u64(conn.0);
        h.write_u64(sw as u64);
        h.finish()
    }

    /// Fault-aware port selection at time `now`: [`Self::route_port`]'s
    /// hash re-applied over the *surviving* equal-cost candidates — a
    /// port survives when its link is not flapped down and its downstream
    /// switch is not crashed. `None` when the forwarding switch itself is
    /// crashed or no candidate survives: the frame has no live path (a
    /// route blackhole). The survivors are counted, then walked to the
    /// `hash % count`-th, so a hop allocates nothing. With no fault state
    /// installed, or every candidate alive, the choice is bit-identical
    /// to `route_port`: the `hash % n`-th survivor is then
    /// `first + hash % n`.
    fn route_port_at(
        &self,
        sw: usize,
        src: usize,
        dst: usize,
        conn: ConnId,
        now: SimTime,
    ) -> Option<usize> {
        let faults = self.faults.borrow();
        let Some(fs) = faults.as_ref() else {
            return Some(self.route_port(sw, src, dst, conn));
        };
        if !fs.switch_up(sw, now) {
            return None;
        }
        let (first, n) = self.topo.route(sw, dst);
        let switches = self.switches.borrow();
        let alive = |p: usize| {
            fs.link_up(sw, p, now)
                && match switches[sw].out[p].dest {
                    Hop::Host(_) => true,
                    Hop::Switch(next) => fs.switch_up(next, now),
                }
        };
        let mut survivors = (first..first + n).filter(|&p| alive(p));
        match survivors.clone().count() {
            0 => None,
            s => survivors.nth((self.ecmp_hash(sw, src, dst, conn) % s as u64) as usize),
        }
    }

    /// Audits the fabric's internal accounting:
    ///
    /// * Σ per-switch tail-drops equals the global drop counter (ditto
    ///   route blackholes and forwards) — the cross-check that catches a
    ///   miscounted drop;
    /// * no switch's peak occupancy ever exceeded the buffer capacity;
    /// * with `quiescent` (event queue drained), every shared buffer is
    ///   empty.
    pub fn audit(&self, now: SimTime, quiescent: bool) {
        let (sum_drops, sum_bh, sum_fwd, max_peak, max_occ) = {
            let switches = self.switches.borrow();
            let mut d = 0u64;
            let mut bh = 0u64;
            let mut f = 0u64;
            let mut peak = 0u64;
            let mut occ = 0u64;
            for s in switches.iter() {
                d += s.tail_drops;
                bh += s.blackholes;
                f += s.forwarded;
                peak = peak.max(s.peak);
                occ = occ.max(s.occupancy);
            }
            (d, bh, f, peak, occ)
        };
        let g_drops = self.stats.borrow().tail_drops;
        let g_bh = self.stats.borrow().route_blackholes;
        let g_fwd = self.stats.borrow().forwarded;
        ioat_guard::check(
            "fabric",
            "drop accounting: Σ per-switch tail-drops = global counter",
            now,
            sum_drops == g_drops,
            || format!("per-switch sum {sum_drops} vs global {g_drops}"),
        );
        ioat_guard::check(
            "fabric",
            "blackhole accounting: Σ per-switch blackholes = global counter",
            now,
            sum_bh == g_bh,
            || format!("per-switch sum {sum_bh} vs global {g_bh}"),
        );
        ioat_guard::check(
            "fabric",
            "forward accounting: Σ per-switch forwards = global counter",
            now,
            sum_fwd == g_fwd,
            || format!("per-switch sum {sum_fwd} vs global {g_fwd}"),
        );
        ioat_guard::check(
            "fabric",
            "shared-buffer occupancy never exceeds capacity",
            now,
            max_peak <= self.params.buffer_bytes,
            || {
                format!(
                    "peak occupancy {max_peak} B exceeds capacity {} B",
                    self.params.buffer_bytes
                )
            },
        );
        if quiescent {
            ioat_guard::check(
                "fabric",
                "quiescent switch buffers are empty",
                now,
                max_occ == 0,
                || format!("max residual occupancy {max_occ} B with a drained event queue"),
            );
        }
    }

    /// One forwarding step at switch `sw`: ECMP port choice, shared-buffer
    /// claim (or tail-drop), serialization, and delivery to the next hop.
    fn hop(self: &Rc<Self>, sim: &mut Sim, sw: usize, frame: Frame, src: usize, dst: usize) {
        let wire = frame.wire_bytes();
        // A crashed forwarding switch, or an ECMP candidate set with no
        // survivor, leaves the frame without a live path: count it in the
        // blackhole sink and drop it. The sender's retransmission
        // machinery recovers once a flap/crash window closes (or ECMP
        // re-hashes onto a surviving path at an earlier tier).
        let Some(pick) = self.route_port_at(sw, src, dst, frame.conn, sim.now()) else {
            self.switches.borrow_mut()[sw].blackholes += 1;
            self.stats.borrow_mut().route_blackholes += 1;
            return;
        };
        let mut switches = self.switches.borrow_mut();
        let s = &mut switches[sw];
        if s.occupancy + wire > self.params.buffer_bytes {
            s.tail_drops += 1;
            self.stats.borrow_mut().tail_drops += 1;
            return;
        }
        s.occupancy += wire;
        s.peak = s.peak.max(s.occupancy);
        s.forwarded += 1;
        self.stats.borrow_mut().forwarded += 1;
        let out = &mut s.out[pick];
        let f2 = Rc::clone(self);
        match out.dest {
            Hop::Switch(next) => {
                out.link.transmit(sim, wire, move |sim| {
                    f2.switches.borrow_mut()[sw].occupancy -= wire;
                    f2.hop(sim, next, frame, src, dst);
                });
            }
            // The final hop: identical serializer and shared-buffer
            // accounting, but the arrival event belongs to the host's
            // stack, so stage it through the delivery hook and release the
            // buffer claim here at the arrival instant.
            Hop::Host(h) => {
                let arrive = out.link.transmit_dropped(sim, wire);
                drop(switches);
                sim.schedule_at(arrive, move |_sim| {
                    f2.switches.borrow_mut()[sw].occupancy -= wire;
                });
                let delivery = self.delivery.borrow();
                let hook = delivery
                    .as_ref()
                    .expect("frame reached a host with no delivery hook installed");
                hook(sim, h, frame, arrive);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioat_faults::CrashWindow;

    fn small_fabric() -> FabricRef {
        Fabric::new(TopologySpec::FatTree { k: 4 }, FabricParams::gige())
    }

    /// Drives frames through a k=4 fat-tree whose switches buffer two
    /// frames, with host 4's edge switch crashed: a burst from host 0
    /// tail-drops at its edge, and a frame from host 4 blackholes. The
    /// run drains, and the unaltered counters pass every audit.
    fn dropped_and_blackholed() -> (FabricRef, SimTime) {
        let frame = Frame {
            conn: ConnId(1),
            payload: 1448,
            seq_end: 1448,
        };
        let params = FabricParams {
            buffer_bytes: 2 * frame.wire_bytes(),
            ..FabricParams::gige()
        };
        let fabric = Fabric::new(TopologySpec::FatTree { k: 4 }, params);
        fabric.set_faults(&FaultPlan {
            switch_crashes: vec![CrashWindow {
                service: fabric.topology().host_edge(4) as u32,
                window: TimeWindow::new(SimTime::ZERO, SimTime::from_millis(1)),
            }],
            ..FaultPlan::none()
        });
        fabric.set_delivery(|_, _, _, _| {});
        let mut sim = Sim::new();
        for _ in 0..6 {
            fabric.ingress(&mut sim, 0, 15, frame);
        }
        fabric.ingress(&mut sim, 4, 15, frame);
        let end = sim.run();
        assert!(fabric.tail_drops() > 0 && fabric.blackholes() > 0);
        assert!(audit_failures(&fabric, end).is_empty());
        (fabric, end)
    }

    /// The invariants a quiescent [`Fabric::audit`] reports as failed.
    fn audit_failures(fabric: &Fabric, now: SimTime) -> Vec<&'static str> {
        let (res, violations) = ioat_guard::with_audit(|| fabric.audit(now, true));
        assert!(res.is_ok());
        violations.iter().map(|v| v.invariant).collect()
    }

    fn fires(failures: &[&str], prefix: &str) -> bool {
        failures.iter().any(|inv| inv.starts_with(prefix))
    }

    #[test]
    fn miscounted_drops_and_blackholes_fail_the_cross_checks() {
        let (fabric, end) = dropped_and_blackholed();
        {
            let mut g = fabric.stats.borrow_mut();
            g.tail_drops -= 1;
            g.route_blackholes -= 1;
        }
        let failures = audit_failures(&fabric, end);
        assert!(fires(&failures, "drop accounting"), "{failures:?}");
        assert!(fires(&failures, "blackhole accounting"), "{failures:?}");
    }

    #[test]
    fn overfull_peak_fails_the_capacity_check() {
        let (fabric, end) = dropped_and_blackholed();
        fabric.switches.borrow_mut()[0].peak = fabric.params.buffer_bytes + 1;
        let failures = audit_failures(&fabric, end);
        assert!(
            fires(&failures, "shared-buffer occupancy never exceeds capacity"),
            "{failures:?}"
        );
    }

    #[test]
    fn leaked_claim_fails_the_quiescent_buffer_check() {
        let (fabric, end) = dropped_and_blackholed();
        fabric.switches.borrow_mut()[0].occupancy += 1;
        let failures = audit_failures(&fabric, end);
        assert!(
            fires(&failures, "quiescent switch buffers are empty"),
            "{failures:?}"
        );
    }

    #[test]
    fn same_seed_same_paths() {
        let params = FabricParams::gige();
        let f1 = Fabric::new(TopologySpec::FatTree { k: 8 }, params);
        let f2 = Fabric::new(TopologySpec::FatTree { k: 8 }, params);
        for conn in 0..200u64 {
            for (sw, src, dst) in [(0usize, 0usize, 100usize), (3, 15, 77), (35, 40, 9)] {
                assert_eq!(
                    f1.route_port(sw, src, dst, ConnId(conn)),
                    f2.route_port(sw, src, dst, ConnId(conn)),
                );
            }
        }
    }

    #[test]
    fn node_only_plan_leaves_the_fabric_inert() {
        // A plan with node faults but no fabric entries must install
        // nothing — a second call would otherwise hit the double-install
        // panic, so its success is the observable proof of inertness.
        let fabric = small_fabric();
        let plan = FaultPlan::bernoulli_loss(1, 0.01);
        fabric.set_faults(&plan);
        fabric.set_faults(&plan);
    }

    #[test]
    #[should_panic(expected = "fabric fault plan installed twice")]
    fn second_fabric_fault_install_panics() {
        let fabric = small_fabric();
        let plan = FaultPlan {
            switch_crashes: vec![CrashWindow {
                service: 0,
                window: TimeWindow::new(SimTime::ZERO, SimTime::from_millis(1)),
            }],
            ..FaultPlan::none()
        };
        fabric.set_faults(&plan);
        fabric.set_faults(&plan);
    }

    #[test]
    #[should_panic(expected = "the topology has only")]
    fn out_of_range_switch_crash_rejected() {
        let fabric = small_fabric();
        let plan = FaultPlan {
            switch_crashes: vec![CrashWindow {
                service: 999,
                window: TimeWindow::new(SimTime::ZERO, SimTime::from_millis(1)),
            }],
            ..FaultPlan::none()
        };
        fabric.set_faults(&plan);
    }
}
