//! A [`Cluster`] whose nodes sit on a fat-tree fabric instead of wired
//! port pairs, reached through the hand-off path the partitioned
//! datacenter engine uses (the loopback shared with `ioat-fabric`'s
//! tests).

#[path = "../../fabric/tests/common/mod.rs"]
mod common;

use common::Loopback;
use ioat_core::cluster::{Cluster, NodeConfig};
use ioat_core::ExperimentWindow;
use ioat_fabric::{Fabric, FabricParams, TopologySpec};
use ioat_netsim::{ConnId, IoatConfig, Socket, SocketEvent, SocketOpts};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn fabric_backed_cluster_transfers_and_audits() {
    let mut cluster = Cluster::measured(ExperimentWindow::quick());
    let fabric = Fabric::new(TopologySpec::FatTree { k: 4 }, FabricParams::gige());
    let lb = Loopback::new(&fabric);
    let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
    let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
    lb.attach(cluster.stack(a), 0);
    lb.attach(cluster.stack(b), 15);
    let id = lb.open(0, 15, SocketOpts::tuned(), ConnId(1));
    let got = Rc::new(RefCell::new(0u64));
    let g = Rc::clone(&got);
    Socket::new(cluster.stack(b), id).set_handler(move |_s, ev| {
        if let SocketEvent::Delivered(n) = ev {
            *g.borrow_mut() += n;
        }
    });
    Socket::new(cluster.stack(a), id).send(cluster.sim_mut(), 300_000);
    cluster.run();
    assert_eq!(*got.borrow(), 300_000);
    assert!(fabric.forwarded() > 0);
    assert_eq!(fabric.tail_drops(), 0);
    let (result, violations) = ioat_guard::with_audit(|| {
        cluster.run_audits();
        fabric.audit(cluster.sim().now(), true);
    });
    result.expect("audits must not panic");
    assert!(violations.is_empty(), "{violations:?}");
}
