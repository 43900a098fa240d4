//! Application-facing socket API.
//!
//! A [`Socket`] is a cheap handle to one endpoint of a connection on a
//! [`HostStack`](crate::HostStack). Applications install an event handler
//! and call [`Socket::send`]; the stack calls back with
//! [`SocketEvent::Delivered`] as bytes arrive and
//! [`SocketEvent::SendReady`] when the send queue drains.
//!
//! A socket does not keep its stack alive: it holds a [`WeakStackRef`],
//! so application handlers that capture sockets form no cycle with the
//! stack that owns them. Whoever built the stacks (usually a `Cluster`)
//! must keep them for as long as the sockets are used.

use crate::stack::{self, StackRef, WeakStackRef};
use crate::tcp::ConnId;
use ioat_simcore::Sim;
use std::rc::Rc;

/// Events delivered to a socket's application handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketEvent {
    /// `bytes` were copied into the application's buffer (one `recv()`
    /// completion).
    Delivered(u64),
    /// Everything queued with [`Socket::send`] has been sent and
    /// acknowledged.
    SendReady,
}

/// One endpoint of a connection: a weak handle to its stack plus the
/// connection id.
///
/// ```rust,no_run
/// use ioat_netsim::{Socket, SocketEvent};
/// use ioat_simcore::Sim;
/// # fn demo(mut sim: Sim, sock: Socket) {
/// sock.set_handler(move |_sim, ev| {
///     if let SocketEvent::Delivered(n) = ev {
///         println!("got {n} bytes");
///     }
/// });
/// sock.send(&mut sim, 1_000_000);
/// # }
/// ```
#[derive(Clone)]
pub struct Socket {
    stack: WeakStackRef,
    conn: ConnId,
}

impl std::fmt::Debug for Socket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Socket")
            .field(
                "node",
                &self.stack.upgrade().map(|s| s.borrow().name().to_string()),
            )
            .field("conn", &self.conn)
            .finish()
    }
}

impl Socket {
    /// Wraps an existing connection endpoint on `stack`, without taking
    /// a strong reference to it.
    pub fn new(stack: &StackRef, conn: ConnId) -> Self {
        Socket {
            stack: Rc::downgrade(stack),
            conn,
        }
    }

    /// The connection id.
    pub fn conn(&self) -> ConnId {
        self.conn
    }

    /// The stack this endpoint lives on. Panics if it was dropped: a
    /// socket outliving its stack is a harness bug, not a network event.
    fn upgrade(&self) -> StackRef {
        self.stack
            .upgrade()
            .expect("socket used after its stack was dropped")
    }

    /// Installs the application event handler (replacing any previous
    /// one).
    pub fn set_handler<F>(&self, handler: F)
    where
        F: FnMut(&mut Sim, SocketEvent) + 'static,
    {
        stack::set_handler(&self.upgrade(), self.conn, handler);
    }

    /// Queues `bytes` for transmission. Zero-byte sends are ignored.
    pub fn send(&self, sim: &mut Sim, bytes: u64) {
        stack::app_send(&self.upgrade(), sim, self.conn, bytes);
    }

    /// Switches this endpoint to explicit read posting with `credits`
    /// outstanding reads (the default is a tight receive loop). While no
    /// read is posted, arriving data backs up in the kernel buffer.
    pub fn set_recv_credits(&self, credits: u64) {
        stack::set_recv_credits(&self.upgrade(), self.conn, credits);
    }

    /// Posts one more read (call after the application finishes
    /// processing a delivery).
    pub fn post_recv(&self, sim: &mut Sim) {
        stack::add_recv_credit(&self.upgrade(), sim, self.conn);
    }

    /// Charges application compute time to this connection's thread, then
    /// runs `then`.
    pub fn compute<F>(&self, sim: &mut Sim, duration: ioat_simcore::SimDuration, then: F)
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        stack::app_compute(&self.upgrade(), sim, duration, then);
    }
}

/// Creates a wired, connected socket pair between two stacks over a new
/// dedicated link — the common setup step for tests and examples. The
/// caller keeps `a` and `b`: the sockets do not.
pub fn socket_pair(
    a: &StackRef,
    b: &StackRef,
    bandwidth: ioat_simcore::time::Bandwidth,
    latency: ioat_simcore::SimDuration,
    opts: crate::config::SocketOpts,
    id: ConnId,
) -> (Socket, Socket) {
    let (pa, pb) = stack::wire(a, b, bandwidth, latency, opts.coalescing);
    stack::open_connection(a, b, pa, pb, opts, id);
    (Socket::new(a, id), Socket::new(b, id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IoatConfig, SocketOpts, StackParams};
    use crate::stack::HostStack;
    use ioat_simcore::time::Bandwidth;
    use ioat_simcore::SimDuration;
    use std::cell::RefCell;

    #[test]
    fn socket_pair_round_trip() {
        let mut sim = Sim::new();
        let a = HostStack::new("a", 2, StackParams::default(), IoatConfig::disabled());
        let b = HostStack::new("b", 2, StackParams::default(), IoatConfig::disabled());
        let (sa, sb) = socket_pair(
            &a,
            &b,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(10),
            SocketOpts::tuned(),
            ConnId(7),
        );
        // b echoes whatever it receives back to a.
        let echo = sb.clone();
        sb.set_handler(move |sim, ev| {
            if let SocketEvent::Delivered(n) = ev {
                echo.send(sim, n);
            }
        });
        let got = Rc::new(RefCell::new(0u64));
        let g = Rc::clone(&got);
        sa.set_handler(move |_sim, ev| {
            if let SocketEvent::Delivered(n) = ev {
                *g.borrow_mut() += n;
            }
        });
        sa.send(&mut sim, 200_000);
        sim.run();
        assert_eq!(*got.borrow(), 200_000, "echo must return every byte");
    }

    #[test]
    fn debug_impl_names_the_node() {
        let a = HostStack::new("nodeA", 2, StackParams::default(), IoatConfig::disabled());
        let b = HostStack::new("nodeB", 2, StackParams::default(), IoatConfig::disabled());
        let (sa, _sb) = socket_pair(
            &a,
            &b,
            Bandwidth::from_gbps(1),
            SimDuration::ZERO,
            SocketOpts::tuned(),
            ConnId(1),
        );
        let dbg = format!("{sa:?}");
        assert!(dbg.contains("nodeA") && dbg.contains("ConnId(1)"), "{dbg}");
    }
}
