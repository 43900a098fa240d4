//! Clos/fat-tree switch fabric for `ioat-sim`.
//!
//! The paper's testbed pairs six GigE ports through per-VLAN switch paths,
//! which `netsim` models as dedicated point-to-point links — fine for two
//! nodes, useless for a datacenter. This crate adds the missing switching
//! layer so the I/OAT CPU-utilization question can be re-asked at
//! thousands of hosts:
//!
//! * [`topology`] — declarative fat-tree specs compiled to host/switch/port
//!   numbering with allocation-free structural routing and closed-form
//!   count/path formulas.
//! * [`fabric`] — the runtime: per-port serializing links, shared
//!   output-buffered switches with tail-drop, deterministic seed-stable
//!   ECMP, and hop-by-hop forwarding. Frames enter through
//!   [`Fabric::ingress`] and leave through the hook installed with
//!   [`Fabric::set_delivery`]; host stacks reach it through a netsim
//!   [`FrameRouter`](ioat_netsim::FrameRouter) that hands departing frames
//!   off (the datacenter crate's partitioned engine is the production
//!   user). Tail-drops feed the cluster-wide frame-conservation audit as a
//!   distinct counter.
//!
//! # Example
//!
//! One frame across pods of a fat-tree(4), with no host stacks: the hook
//! sees where and when the final hop lands.
//!
//! ```rust
//! use ioat_fabric::{Fabric, FabricParams, TopologySpec};
//! use ioat_netsim::{ConnId, Frame};
//! use ioat_simcore::Sim;
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let mut sim = Sim::new();
//! let fabric = Fabric::new(TopologySpec::FatTree { k: 4 }, FabricParams::gige());
//! let landed = Rc::new(Cell::new(None));
//! let seen = Rc::clone(&landed);
//! fabric.set_delivery(move |_sim, host, frame, _arrive| seen.set(Some((host, frame.payload))));
//! let frame = Frame { conn: ConnId(1), payload: 1448, seq_end: 1448 };
//! fabric.ingress(&mut sim, 0, 15, frame);
//! sim.run();
//! assert_eq!(landed.get(), Some((15, 1448)));
//! // edge → aggregation → core → aggregation → edge
//! assert_eq!(fabric.forwarded(), 5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fabric;
pub mod topology;

pub use fabric::{Fabric, FabricParams, FabricRef, SwitchStats};
pub use topology::{Hop, Topology, TopologySpec};
