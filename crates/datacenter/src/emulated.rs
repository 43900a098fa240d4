//! Fig. 9 — emulated clients inside the data-center.
//!
//! §5.2.3: the proxy node acts as the client, firing requests at the web
//! server over the Testbed-1 network; both nodes have the I/OAT
//! capability. The file size is fixed at 16 K and the number of client
//! threads sweeps 1 → 256. The paper reports the *client-side* CPU: with
//! I/OAT the client receives responses more cheaply, so it sustains up to
//! 4× as many threads before its CPU saturates, and peaks ≈ 16 % higher
//! in TPS.

use crate::costs::{DataCenterCosts, REQUEST_WIRE_BYTES};
use crate::workload::Request;
use ioat_core::cluster::{Cluster, NodeConfig};
use ioat_core::metrics::ExperimentWindow;
use ioat_core::{IoatConfig, SocketOpts};
use ioat_netsim::msg::{self, MsgSender};
use ioat_simcore::{Counter, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of an emulated-clients run.
#[derive(Debug, Clone, Copy)]
pub struct EmulatedConfig {
    /// Client threads on the proxy-acting-as-client node.
    pub threads: usize,
    /// Document size (16 K in the paper).
    pub file_size: u64,
    /// GigE port pairs between the two nodes.
    pub ports: usize,
    /// I/OAT features on both nodes.
    pub ioat: IoatConfig,
    /// Application cost model.
    pub costs: DataCenterCosts,
    /// Measurement window.
    pub window: ExperimentWindow,
}

impl EmulatedConfig {
    /// The paper's configuration at a given thread count. The node firing
    /// the requests runs the full proxy request path per transaction
    /// (§5.2.3 uses the proxy tier as the client), so its per-request
    /// processing is substantial.
    pub fn paper(threads: usize, ioat: IoatConfig) -> Self {
        EmulatedConfig {
            threads,
            file_size: 16 * 1024,
            ports: ioat_core::calibration::TESTBED_PORTS,
            ioat,
            costs: DataCenterCosts {
                client_process: ioat_simcore::SimDuration::from_micros(140),
                ..DataCenterCosts::default()
            },
            window: ExperimentWindow::standard(),
        }
    }

    /// Small fast configuration for unit tests.
    pub fn quick_test(threads: usize, ioat: IoatConfig) -> Self {
        EmulatedConfig {
            threads,
            file_size: 16 * 1024,
            ports: 2,
            ioat,
            costs: DataCenterCosts::default(),
            window: ExperimentWindow::quick(),
        }
    }
}

/// Outcome of an emulated-clients run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmulatedResult {
    /// Transactions per second.
    pub tps: f64,
    /// Client-node CPU utilization — the metric Fig. 9 plots.
    pub client_cpu: f64,
    /// Web-server CPU utilization.
    pub server_cpu: f64,
}

/// Runs the emulated-clients scenario.
pub fn run(cfg: &EmulatedConfig) -> EmulatedResult {
    assert!(cfg.threads > 0, "need at least one thread");
    let mut cluster = Cluster::measured(cfg.window);
    let client = cluster.add_node(NodeConfig::testbed("proxy-client", cfg.ioat));
    let server = cluster.add_node(NodeConfig::testbed("web-server", cfg.ioat));
    let opts = SocketOpts::tuned();
    let pairs = cluster.connect_ports(client, server, cfg.ports, opts.coalescing);

    let mut completed = Counter::new();
    completed.begin_window(cfg.window.from());
    let completed = Rc::new(RefCell::new(completed));
    let costs = cfg.costs;
    let size = cfg.file_size;

    for t in 0..cfg.threads {
        let pair = pairs[t % pairs.len()];
        let (c_sock, s_sock) = cluster.open(client, server, pair, opts);

        let req_sender: Rc<RefCell<Option<MsgSender<Request>>>> = Rc::new(RefCell::new(None));

        // Responses server → client.
        let done = Rc::clone(&completed);
        let rs = Rc::clone(&req_sender);
        let c_sock2 = c_sock.clone();
        let respond = msg::channel(s_sock.clone(), c_sock.clone(), move |sim, _m: ()| {
            done.borrow_mut().add_at(sim.now(), 1);
            let rs2 = Rc::clone(&rs);
            c_sock2.compute(sim, costs.client_process, move |sim| {
                if let Some(sender) = rs2.borrow().as_ref() {
                    sender.send(sim, REQUEST_WIRE_BYTES, Request { file_id: 0, size });
                }
            });
        });
        let respond = Rc::new(respond);

        // Requests client → server.
        let rsp = Rc::clone(&respond);
        let s_sock2 = s_sock.clone();
        let request = msg::channel(c_sock.clone(), s_sock, move |sim, req: Request| {
            let rsp2 = Rc::clone(&rsp);
            s_sock2.compute(sim, costs.web_serve(req.size), move |sim| {
                rsp2.send(sim, req.size, ());
            });
        });
        *req_sender.borrow_mut() = Some(request);

        let rs = Rc::clone(&req_sender);
        cluster
            .sim_mut()
            .schedule(SimDuration::from_micros(3 * t as u64), move |sim| {
                if let Some(sender) = rs.borrow().as_ref() {
                    sender.send(sim, REQUEST_WIRE_BYTES, Request { file_id: 0, size });
                }
            });
    }

    let (from, to) = cluster.run_measured();
    let elapsed = (to - from).as_secs_f64();
    let result = {
        let c = cluster.stack(client).borrow();
        let srv = cluster.stack(server).borrow();
        EmulatedResult {
            tps: completed.borrow().window_total() as f64 / elapsed,
            client_cpu: c.cpu_utilization(),
            server_cpu: srv.cpu_utilization(),
        }
    };
    result
}

/// The paper's thread sweep (1 → 256, powers of two).
pub fn paper_thread_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 64, 128, 256]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tps_grows_with_threads_then_saturates() {
        let few = run(&EmulatedConfig::quick_test(2, IoatConfig::disabled()));
        let many = run(&EmulatedConfig::quick_test(32, IoatConfig::disabled()));
        assert!(
            many.tps > 2.0 * few.tps,
            "32 threads {:.0} vs 2 threads {:.0}",
            many.tps,
            few.tps
        );
        assert!(many.client_cpu > few.client_cpu);
    }

    #[test]
    fn ioat_client_spends_less_cpu_per_transaction() {
        let non = run(&EmulatedConfig::quick_test(16, IoatConfig::disabled()));
        let ioat = run(&EmulatedConfig::quick_test(16, IoatConfig::full()));
        let non_per_txn = non.client_cpu / non.tps;
        let ioat_per_txn = ioat.client_cpu / ioat.tps;
        assert!(
            ioat_per_txn < non_per_txn,
            "I/OAT {ioat_per_txn:.3e} vs non {non_per_txn:.3e} CPU/txn"
        );
    }
}
