//! Single-threaded process CPU serialization.
//!
//! The 2007 testbed ran PVFS as ordinary single-threaded Unix processes:
//! one `iod` per I/O server and one `pvfs-test` process per client. Each
//! does its rx-copy, request handling and buffer management on one CPU at
//! a time — work arriving while the process is busy waits in program
//! order, it does not fan out across the node's cores. [`ProcessCpu`]
//! models exactly that: a FIFO queue of compute jobs with at most one
//! outstanding [`Socket::compute`] call, so a process can never occupy
//! more than one core at any instant (it may migrate between cores across
//! jobs, as the scheduler would).
//!
//! Charging still flows through [`Socket::compute`], so node-level core
//! accounting, CPU-utilization reporting and `app_compute` telemetry
//! spans are identical to the unserialized path — only the ordering
//! constraint is new.

use ioat_netsim::Socket;
use ioat_simcore::{Sim, SimDuration};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

type Job = (SimDuration, Box<dyn FnOnce(&mut Sim)>);

struct Inner {
    sock: Socket,
    busy: RefCell<bool>,
    queue: RefCell<VecDeque<Job>>,
}

/// A serial virtual thread: compute jobs run one at a time in FIFO order.
///
/// Clones share the same queue (`Rc`), so every connection served by one
/// daemon can hold a clone and all their work serializes.
pub struct ProcessCpu {
    inner: Rc<Inner>,
}

impl Clone for ProcessCpu {
    fn clone(&self) -> Self {
        ProcessCpu {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl std::fmt::Debug for ProcessCpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessCpu")
            .field("busy", &*self.inner.busy.borrow())
            .field("queued", &self.inner.queue.borrow().len())
            .finish()
    }
}

impl ProcessCpu {
    /// Creates a process thread charging its CPU through `sock`'s node.
    pub fn new(sock: Socket) -> Self {
        ProcessCpu {
            inner: Rc::new(Inner {
                sock,
                busy: RefCell::new(false),
                queue: RefCell::new(VecDeque::new()),
            }),
        }
    }

    /// Jobs waiting behind the one currently running.
    pub fn queued(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    /// Runs `then` after `cost` of process CPU time. If the process is
    /// busy the job waits its turn; completion order equals submission
    /// order (deterministic).
    pub fn run<F>(&self, sim: &mut Sim, cost: SimDuration, then: F)
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        if *self.inner.busy.borrow() {
            self.inner
                .queue
                .borrow_mut()
                .push_back((cost, Box::new(then)));
            return;
        }
        *self.inner.busy.borrow_mut() = true;
        self.dispatch(sim, cost, Box::new(then));
    }

    fn dispatch(&self, sim: &mut Sim, cost: SimDuration, then: Box<dyn FnOnce(&mut Sim)>) {
        let this = self.clone();
        self.inner.sock.compute(sim, cost, move |sim| {
            then(sim);
            // `then` may have enqueued follow-up work (busy is still set,
            // so re-entrant `run` calls land in the queue, keeping FIFO
            // order); drain one job or go idle.
            let next = this.inner.queue.borrow_mut().pop_front();
            match next {
                Some((c, f)) => this.dispatch(sim, c, f),
                None => *this.inner.busy.borrow_mut() = false,
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioat_netsim::config::{IoatConfig, SocketOpts, StackParams};
    use ioat_netsim::socket::socket_pair;
    use ioat_netsim::stack::{HostStack, StackRef};
    use ioat_netsim::ConnId;
    use ioat_simcore::time::Bandwidth;
    use ioat_simcore::SimTime;

    /// A socket on a 4-core node; the caller keeps the stacks, because
    /// the socket does not.
    fn sock_on_4core_node() -> (Sim, [StackRef; 2], Socket) {
        let sim = Sim::new();
        let a = HostStack::new("a", 4, StackParams::default(), IoatConfig::disabled());
        let b = HostStack::new("b", 4, StackParams::default(), IoatConfig::disabled());
        let (sa, _sb) = socket_pair(
            &a,
            &b,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(10),
            SocketOpts::tuned(),
            ConnId(1),
        );
        (sim, [a, b], sa)
    }

    #[test]
    fn jobs_serialize_even_with_idle_cores() {
        // Four 100 µs jobs on a 4-core node: unserialized they would all
        // finish at ~100 µs; through one process they take ~400 µs.
        let (mut sim, _stacks, sock) = sock_on_4core_node();
        let cpu = ProcessCpu::new(sock);
        let ends: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let e = Rc::clone(&ends);
            cpu.run(&mut sim, SimDuration::from_micros(100), move |sim| {
                e.borrow_mut().push(sim.now());
            });
        }
        sim.run();
        let ends = ends.borrow();
        assert_eq!(ends.len(), 4);
        let last = ends[3] - SimTime::ZERO;
        assert!(
            last >= SimDuration::from_micros(400),
            "serial jobs must not overlap: last ended at {last:?}"
        );
    }

    #[test]
    fn completion_order_is_submission_order() {
        let (mut sim, _stacks, sock) = sock_on_4core_node();
        let cpu = ProcessCpu::new(sock);
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        // Decreasing costs: a parallel pool would finish them reversed.
        for (i, us) in [(0u32, 300u64), (1, 200), (2, 100), (3, 50)] {
            let o = Rc::clone(&order);
            cpu.run(&mut sim, SimDuration::from_micros(us), move |_sim| {
                o.borrow_mut().push(i);
            });
        }
        assert_eq!(cpu.queued(), 3);
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
        assert_eq!(cpu.queued(), 0);
    }

    #[test]
    fn reentrant_submission_from_a_job_keeps_fifo() {
        let (mut sim, _stacks, sock) = sock_on_4core_node();
        let cpu = ProcessCpu::new(sock);
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let o1 = Rc::clone(&order);
        let cpu2 = cpu.clone();
        cpu.run(&mut sim, SimDuration::from_micros(10), move |sim| {
            o1.borrow_mut().push("first");
            let o = Rc::clone(&o1);
            cpu2.run(sim, SimDuration::from_micros(10), move |_sim| {
                o.borrow_mut().push("chained");
            });
        });
        let o2 = Rc::clone(&order);
        cpu.run(&mut sim, SimDuration::from_micros(10), move |_sim| {
            o2.borrow_mut().push("second");
        });
        sim.run();
        assert_eq!(*order.borrow(), vec!["first", "second", "chained"]);
    }
}
