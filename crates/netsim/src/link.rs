//! Point-to-point links.
//!
//! The testbed connects its six GigE ports through per-VLAN paths on a
//! store-and-forward switch, so each port pair behaves as a dedicated
//! full-duplex link: a serializing transmitter (one frame on the wire at a
//! time) plus a fixed propagation/switching latency. No figure reads a
//! link's utilization, so the transmitter is only the instant its wire
//! goes idle.

use ioat_simcore::time::Bandwidth;
use ioat_simcore::{Sim, SimDuration, SimTime};

/// One direction of a link: a serializer and a delay. A link has one
/// owner — the sending port or switch output port — which transmits on
/// it directly, so the serializer is a plain instant, not a shared cell.
///
/// ```rust
/// use ioat_netsim::Link;
/// use ioat_simcore::time::Bandwidth;
/// use ioat_simcore::{Sim, SimDuration};
///
/// let mut sim = Sim::new();
/// let mut link = Link::new(Bandwidth::from_gbps(1), SimDuration::from_micros(20));
/// link.transmit(&mut sim, 1_500, |sim| assert_eq!(sim.now().as_nanos(), 32_000));
/// sim.run();
/// ```
#[derive(Debug)]
pub struct Link {
    /// The instant the last queued frame finishes serializing.
    busy_until: SimTime,
    bandwidth: Bandwidth,
    latency: SimDuration,
}

impl Link {
    /// Creates a link with the given line rate and one-way latency. (A
    /// zero line rate cannot reach here: [`Bandwidth::from_bps`] rejects
    /// it.)
    pub fn new(bandwidth: Bandwidth, latency: SimDuration) -> Self {
        Link {
            busy_until: SimTime::ZERO,
            bandwidth,
            latency,
        }
    }

    /// Line rate.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// One-way propagation + switching latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Serializes `wire_bytes` onto the link, then delivers after the
    /// propagation latency. Frames queue FIFO behind earlier frames.
    /// Returns the delivery instant.
    ///
    /// The serialization end is a pure function of the transmitter's
    /// backlog, so the delivery is scheduled directly at `end + latency`
    /// — one event per frame instead of the former two
    /// (serialize-completion + delivery). `schedule_deferred` keys the
    /// delivery at the serialize end, so same-instant ties resolve
    /// exactly as if the old relay event had scheduled it: execution
    /// order is bit-identical.
    pub fn transmit<F>(&mut self, sim: &mut Sim, wire_bytes: u64, deliver: F) -> SimTime
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        let done = self.serialize(sim, wire_bytes);
        let arrive = done + self.latency;
        sim.schedule_deferred(done, arrive, deliver);
        arrive
    }

    /// Serializes `wire_bytes` onto the link for a frame that will never
    /// arrive (fault injection): the wire is occupied exactly as by
    /// [`Link::transmit`], but no delivery event is scheduled. Returns
    /// the instant the frame would have arrived.
    pub fn transmit_dropped(&mut self, sim: &mut Sim, wire_bytes: u64) -> SimTime {
        self.serialize(sim, wire_bytes) + self.latency
    }

    /// Queues `wire_bytes` behind the frames already on the wire and
    /// returns the instant they finish serializing.
    fn serialize(&mut self, sim: &mut Sim, wire_bytes: u64) -> SimTime {
        let start = self.busy_until.max(sim.now());
        let done = start + self.bandwidth.transfer_time(wire_bytes);
        self.busy_until = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn frames_serialize_back_to_back() {
        let mut sim = Sim::new();
        let mut link = Link::new(Bandwidth::from_gbps(1), SimDuration::from_micros(10));
        let deliveries = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let d = Rc::clone(&deliveries);
            link.transmit(&mut sim, 1_500, move |sim| {
                d.borrow_mut().push(sim.now().as_nanos());
            });
        }
        sim.run();
        // 12us serialization each, 10us latency: 22, 34, 46.
        assert_eq!(*deliveries.borrow(), vec![22_000, 34_000, 46_000]);
    }

    #[test]
    fn transmit_returns_the_delivery_instant() {
        let mut sim = Sim::new();
        let mut link = Link::new(Bandwidth::from_gbps(1), SimDuration::from_micros(25));
        let observed = Rc::new(RefCell::new(Vec::new()));
        let mut predicted = Vec::new();
        for bytes in [64u64, 1_500, 9_000] {
            let o = Rc::clone(&observed);
            predicted.push(
                link.transmit(&mut sim, bytes, move |sim| o.borrow_mut().push(sim.now()))
                    .as_nanos(),
            );
        }
        sim.run();
        let observed: Vec<u64> = observed.borrow().iter().map(|t| t.as_nanos()).collect();
        assert_eq!(predicted, observed);
    }

    #[test]
    fn idle_gap_restarts_serialization_immediately() {
        let mut sim = Sim::new();
        let mut link = Link::new(Bandwidth::from_gbps(1), SimDuration::from_micros(10));
        let times = Rc::new(RefCell::new(Vec::new()));
        let t1 = Rc::clone(&times);
        link.transmit(&mut sim, 1_500, move |sim| {
            t1.borrow_mut().push(sim.now().as_nanos());
        });
        // Submit the second frame 50 us later, long after the wire idles:
        // it must serialize from its submission time, not queue-extend.
        let t2 = Rc::clone(&times);
        sim.schedule(SimDuration::from_micros(50), move |sim| {
            link.transmit(sim, 1_500, move |sim| {
                t2.borrow_mut().push(sim.now().as_nanos());
            });
        });
        sim.run();
        // 12 us serialization + 10 us latency; second starts at 50 us.
        assert_eq!(*times.borrow(), vec![22_000, 72_000]);
    }

    #[test]
    fn sustained_rate_matches_line_rate() {
        let mut sim = Sim::new();
        let mut link = Link::new(Bandwidth::from_gbps(1), SimDuration::from_micros(5));
        let n = 1_000u64;
        for _ in 0..n {
            link.transmit(&mut sim, 1_250, |_| {});
        }
        let end = sim.run();
        // 1250 B at 1 Gbps = 10 us per frame; n frames + 5 us latency.
        assert_eq!(end.as_nanos(), n * 10_000 + 5_000);
    }
}
