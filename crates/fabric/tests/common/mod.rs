//! A single-`Sim` loopback that puts host stacks on a [`Fabric`] through
//! the same hand-off path the partitioned datacenter engine uses, with
//! the fabric and the hosts sharing one event queue:
//!
//! * departing frames reach [`FrameRouter::frame_departed`], which
//!   schedules [`Fabric::ingress`] at the frame's arrival instant;
//! * [`FrameRouter::ack_delay`] is `switch_latency × path_links`
//!   (netsim's latency-only ACK model on this topology): each endpoint
//!   fixes it when the connection opens, and its stack schedules every
//!   ACK straight onto the other endpoint's;
//! * the fabric's delivery hook schedules `frame_arrived` on the
//!   destination host's port at the final hop's arrival instant.

use ioat_fabric::FabricRef;
use ioat_netsim::link::Link;
use ioat_netsim::stack::{self, FrameRouter, StackRef};
use ioat_netsim::{ConnId, Frame, SocketOpts};
use ioat_simcore::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Topology host → the stack attached there and its router port.
type Hosts = Rc<RefCell<HashMap<usize, (StackRef, usize)>>>;

pub struct Loopback {
    fabric: FabricRef,
    hosts: Hosts,
}

impl Loopback {
    /// Wraps `fabric` and installs its delivery hook.
    pub fn new(fabric: &FabricRef) -> Rc<Self> {
        let hosts: Hosts = Rc::default();
        let table = Rc::clone(&hosts);
        fabric.set_delivery(move |sim, host, frame, arrive| {
            let (stack, port) = table
                .borrow()
                .get(&host)
                .cloned()
                .expect("frame for an unattached host");
            sim.schedule_at(arrive, move |sim| {
                stack::frame_arrived(&stack, sim, port, frame);
            });
        });
        Rc::new(Loopback {
            fabric: Rc::clone(fabric),
            hosts,
        })
    }

    /// Adds a router port on `stack` for topology host `host`, with an
    /// access link cut from the fabric's parameters. Returns the port.
    pub fn attach(self: &Rc<Self>, stack: &StackRef, host: usize) -> usize {
        let params = self.fabric.params();
        let access = Link::new(params.host_bandwidth, params.switch_latency);
        let port =
            stack::attach_router(stack, access, Rc::clone(self) as Rc<dyn FrameRouter>, host);
        let prev = self
            .hosts
            .borrow_mut()
            .insert(host, (Rc::clone(stack), port));
        assert!(prev.is_none(), "host {host} attached twice");
        port
    }

    /// Opens connection `id` between the stacks attached at hosts `a` and
    /// `b`.
    pub fn open(&self, a: usize, b: usize, opts: SocketOpts, id: ConnId) -> ConnId {
        let hosts = self.hosts.borrow();
        let (sa, pa) = &hosts[&a];
        let (sb, pb) = &hosts[&b];
        stack::open_connection(sa, sb, *pa, *pb, opts, id)
    }
}

impl FrameRouter for Loopback {
    fn frame_departed(&self, sim: &mut Sim, src: usize, dst: usize, frame: Frame, arrive: SimTime) {
        let fabric = Rc::clone(&self.fabric);
        sim.schedule_at(arrive, move |sim| fabric.ingress(sim, src, dst, frame));
    }

    fn ack_delay(&self, from: usize, to: usize) -> SimDuration {
        self.fabric.params().switch_latency * self.fabric.topology().path_links(from, to) as u64
    }
}
