//! Message framing over byte-stream sockets.
//!
//! `ioat-netsim` sockets deliver byte counts, not contents (the simulator
//! never materializes payloads). Applications need message boundaries and
//! typed metadata, so a framed [`channel`] pairs a socket with a shared
//! in-order metadata queue: the sender enqueues `(wire_bytes, meta)` and
//! streams `wire_bytes`; the receiver reassembles deliveries and pops the
//! metadata when a full message has arrived. TCP's in-order delivery
//! guarantees the queue and the byte stream stay in lockstep.

use crate::socket::{Socket, SocketEvent};
use ioat_simcore::Sim;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// One direction of a framed channel.
pub struct MsgSender<T> {
    socket: Socket,
    queue: Rc<RefCell<VecDeque<(u64, T)>>>,
}

impl<T> std::fmt::Debug for MsgSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsgSender")
            .field("queued", &self.queue.borrow().len())
            .finish()
    }
}

impl<T: 'static> MsgSender<T> {
    /// Sends a message of `wire_bytes` carrying `meta`.
    ///
    /// # Panics
    ///
    /// Panics if `wire_bytes` is zero — every message must occupy the
    /// wire, or framing would desynchronize.
    pub fn send(&self, sim: &mut Sim, wire_bytes: u64, meta: T) {
        assert!(wire_bytes > 0, "messages must have a wire size");
        self.queue.borrow_mut().push_back((wire_bytes, meta));
        self.socket.send(sim, wire_bytes);
    }

    /// The underlying socket.
    pub fn socket(&self) -> &Socket {
        &self.socket
    }
}

/// Builds a framed channel over the socket pair `(tx, rx)`: the returned
/// sender queues messages; `on_msg` fires on the receiver side once per
/// complete message.
///
/// The receiver side installs the socket's event handler, so a socket can
/// carry either a framed channel or a raw handler, not both. For duplex
/// messaging, build one channel per direction (each endpoint of a
/// connection has its own handler slot on its own stack).
pub fn channel<T, F>(tx: Socket, rx: Socket, mut on_msg: F) -> MsgSender<T>
where
    T: 'static,
    F: FnMut(&mut Sim, T) + 'static,
{
    let queue: Rc<RefCell<VecDeque<(u64, T)>>> = Rc::new(RefCell::new(VecDeque::new()));
    let rx_queue = Rc::clone(&queue);
    let rx2 = rx.clone();
    let mut partial = 0u64;
    rx.set_handler(move |sim, ev| {
        if let SocketEvent::Delivered(bytes) = ev {
            partial += bytes;
            let mut completed_any = false;
            loop {
                let ready = {
                    let q = rx_queue.borrow();
                    match q.front() {
                        Some(&(need, _)) if partial >= need => Some(need),
                        _ => None,
                    }
                };
                let Some(need) = ready else { break };
                partial -= need;
                let (_, meta) = rx_queue.borrow_mut().pop_front().expect("checked above");
                completed_any = true;
                on_msg(sim, meta);
            }
            // Mid-message deliveries must not consume the application's
            // read credit: keep reading until a full message lands (a
            // no-op for endpoints in tight-receive-loop mode).
            if !completed_any {
                rx2.post_recv(sim);
            }
        }
    });
    MsgSender { socket: tx, queue }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IoatConfig, SocketOpts, StackParams};
    use crate::socket::socket_pair;
    use crate::stack::{HostStack, StackRef};
    use crate::tcp::ConnId;
    use ioat_simcore::time::Bandwidth;
    use ioat_simcore::SimDuration;

    /// A wired socket pair; the caller keeps the stacks, because the
    /// sockets do not.
    fn setup() -> (Sim, [StackRef; 2], Socket, Socket) {
        let sim = Sim::new();
        let a = HostStack::new("a", 2, StackParams::default(), IoatConfig::disabled());
        let b = HostStack::new("b", 2, StackParams::default(), IoatConfig::disabled());
        let (sa, sb) = socket_pair(
            &a,
            &b,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(10),
            SocketOpts::tuned(),
            ConnId(1),
        );
        (sim, [a, b], sa, sb)
    }

    #[test]
    fn messages_arrive_in_order_with_metadata() {
        let (mut sim, _stacks, sa, sb) = setup();
        let got: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let g = Rc::clone(&got);
        let sender = channel(sa, sb, move |_sim, meta: u32| g.borrow_mut().push(meta));
        sender.send(&mut sim, 1_000, 1);
        sender.send(&mut sim, 50_000, 2);
        sender.send(&mut sim, 3, 3);
        sim.run();
        assert_eq!(*got.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn small_messages_batched_in_one_delivery_all_pop() {
        let (mut sim, _stacks, sa, sb) = setup();
        let got: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let g = Rc::clone(&got);
        let sender = channel(sa, sb, move |_sim, meta: u32| g.borrow_mut().push(meta));
        for i in 0..20 {
            sender.send(&mut sim, 100, i);
        }
        sim.run();
        assert_eq!(got.borrow().len(), 20);
        assert_eq!(*got.borrow(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "wire size")]
    fn zero_byte_messages_are_rejected() {
        let (mut sim, _stacks, sa, sb) = setup();
        let sender = channel(sa, sb, move |_sim, _meta: ()| {});
        sender.send(&mut sim, 0, ());
    }
}
