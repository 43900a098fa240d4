//! The two-tier data-center testbed and its closed-loop driver (§5).
//!
//! Topology (Fig. 2a of the paper):
//!
//! ```text
//!  clients ──3 GigE port pairs──> proxy tier ──3 GigE port pairs──> web tier
//! ```
//!
//! Each client thread runs a closed loop: fire one request, wait for the
//! full response, process it, fire the next (§5.1: "Each client fires one
//! request at a time and sends another request after getting a reply").
//! The proxy parses each request, serves hits from its LRU content cache
//! and forwards misses to the web tier.

use crate::cache::LruCache;
use crate::costs::{DataCenterCosts, REQUEST_WIRE_BYTES};
use crate::workload::{Request, Trace};
use ioat_core::cluster::{Cluster, NodeConfig};
use ioat_core::metrics::ExperimentWindow;
use ioat_core::{IoatConfig, SocketOpts};
use ioat_netsim::msg::{self, MsgSender};
use ioat_simcore::{Counter, Histogram, Sim, SimDuration, SimTime};
use ioat_telemetry::{Category, Tracer, TrackId};
use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

/// Pseudo node id for per-thread request-lifecycle lanes in exported
/// traces (real nodes are 0 = clients, 1 = proxy, 2 = web).
pub const REQUEST_LANES_NODE: u32 = 3;

/// Configuration of a data-center run.
#[derive(Debug, Clone)]
pub struct DataCenterConfig {
    /// Closed-loop client threads.
    pub client_threads: usize,
    /// GigE port pairs between the client cluster and the proxy.
    pub client_ports: usize,
    /// GigE port pairs between the proxy and the web server.
    pub tier_ports: usize,
    /// I/OAT features on the proxy and web nodes (clients are plain).
    pub ioat: IoatConfig,
    /// Application cost model.
    pub costs: DataCenterCosts,
    /// Proxy content-cache capacity in bytes (0 disables caching).
    pub proxy_cache_bytes: u64,
    /// Measurement window.
    pub window: ExperimentWindow,
    /// Workload seed.
    pub seed: u64,
}

impl DataCenterConfig {
    /// The paper's testbed shape with the given feature set.
    pub fn paper(ioat: IoatConfig) -> Self {
        DataCenterConfig {
            client_threads: 192,
            client_ports: 3,
            tier_ports: 3,
            ioat,
            costs: DataCenterCosts::default(),
            proxy_cache_bytes: 0,
            window: ExperimentWindow::standard(),
            seed: 0xDC,
        }
    }

    /// Small fast configuration for unit tests.
    pub fn quick_test(ioat: IoatConfig) -> Self {
        DataCenterConfig {
            client_threads: 8,
            client_ports: 1,
            tier_ports: 1,
            ioat,
            costs: DataCenterCosts::default(),
            proxy_cache_bytes: 0,
            window: ExperimentWindow::quick(),
            seed: 0xDC,
        }
    }
}

/// Outcome of a data-center run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataCenterResult {
    /// Transactions per second over the measurement window.
    pub tps: f64,
    /// Proxy-node overall CPU utilization.
    pub proxy_cpu: f64,
    /// Web-node overall CPU utilization.
    pub web_cpu: f64,
    /// Client-node overall CPU utilization.
    pub client_cpu: f64,
    /// Proxy cache hit rate (0 with caching disabled).
    pub cache_hit_rate: f64,
    /// Median response latency in microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile response latency in microseconds.
    pub latency_p99_us: f64,
    /// Transactions completed inside the window.
    pub completed: u64,
}

struct Shared {
    completed: Counter,
    latency: Histogram,
    window_from: SimTime,
    /// Requests fired over the whole run (for the lifecycle audit).
    fired: u64,
}

/// Runs the two-tier testbed with per-thread traces built by
/// `make_trace(thread_index)`.
pub fn run<F>(cfg: &DataCenterConfig, make_trace: F) -> DataCenterResult
where
    F: FnMut(usize) -> Box<dyn Trace>,
{
    run_traced(cfg, make_trace, &Tracer::disabled())
}

/// [`run`] with a tracer attached: nodes emit the stack-level spans and
/// each client thread gets a request-lifecycle lane — one
/// [`Category::Request`] span per transaction, from request fire to
/// response completion.
pub fn run_traced<F>(cfg: &DataCenterConfig, mut make_trace: F, tracer: &Tracer) -> DataCenterResult
where
    F: FnMut(usize) -> Box<dyn Trace>,
{
    assert!(cfg.client_threads > 0, "need at least one client thread");
    assert!(cfg.client_ports > 0 && cfg.tier_ports > 0);
    let mut cluster = Cluster::measured(cfg.window);
    cluster.set_tracer(tracer.clone());
    if tracer.is_enabled() {
        tracer.set_process_name(REQUEST_LANES_NODE, "request-lanes");
    }
    // The client cluster stands in for the paper's 44-node Testbed 2:
    // plenty of cores so the clients themselves never bottleneck.
    let clients = cluster.add_node(NodeConfig {
        name: "clients".into(),
        cores: 16,
        ioat: IoatConfig::disabled(),
        params: ioat_core::calibration::testbed_params(),
        cache: ioat_core::calibration::testbed_cache(),
    });
    let proxy = cluster.add_node(NodeConfig::testbed("proxy", cfg.ioat));
    let web = cluster.add_node(NodeConfig::testbed("web", cfg.ioat));

    // Apache's proxy path buffers responses in user space, so the relay
    // pays real copies on both hops (no sendfile).
    let opts = SocketOpts::tuned();
    let client_pairs = cluster.connect_ports(clients, proxy, cfg.client_ports, opts.coalescing);
    let tier_pairs = cluster.connect_ports(proxy, web, cfg.tier_ports, opts.coalescing);

    let mut completed = Counter::new();
    completed.begin_window(cfg.window.from());
    let shared = Rc::new(RefCell::new(Shared {
        completed,
        latency: Histogram::new(),
        window_from: cfg.window.from(),
        fired: 0,
    }));
    let cache = Rc::new(RefCell::new(LruCache::new(cfg.proxy_cache_bytes.max(1))));
    let caching_enabled = cfg.proxy_cache_bytes > 0;
    let costs = cfg.costs;

    for t in 0..cfg.client_threads {
        let cp = client_pairs[t % client_pairs.len()];
        let pw = tier_pairs[t % tier_pairs.len()];
        // One duplex connection per hop for this thread.
        let (c_sock, p_client_sock) = cluster.open(clients, proxy, cp, opts);
        let (p_web_sock, w_sock) = cluster.open(proxy, web, pw, opts);

        let trace = Rc::new(RefCell::new(make_trace(t)));
        // Bound below: the response channel is built before the request
        // channel it fires into.
        let requests: Rc<OnceCell<MsgSender<Request>>> = Rc::new(OnceCell::new());
        let started_at = Rc::new(Cell::new(SimTime::ZERO));

        // Fires one request and stamps its start.
        let fire = {
            let requests = Rc::clone(&requests);
            let started_at = Rc::clone(&started_at);
            let sh = Rc::clone(&shared);
            move |sim: &mut Sim, req: Request| {
                started_at.set(sim.now());
                sh.borrow_mut().fired += 1;
                requests
                    .get()
                    .expect("request channel is bound before the loop starts")
                    .send(sim, REQUEST_WIRE_BYTES, req);
            }
        };

        // (1) Responses proxy → client: complete the transaction, process,
        // fire the next request.
        let sh = Rc::clone(&shared);
        let tr = Rc::clone(&trace);
        let fire2 = fire.clone();
        let client_sock = c_sock.clone();
        let lane = TrackId::new(REQUEST_LANES_NODE, t as u32);
        tracer.set_track_name(lane, &format!("thread{t}"));
        let trc = tracer.clone();
        let respond_to_client =
            msg::channel(p_client_sock.clone(), c_sock.clone(), move |sim, ()| {
                let now = sim.now();
                trc.span("request", Category::Request, lane, started_at.get(), now);
                {
                    let mut s = sh.borrow_mut();
                    if now >= s.window_from {
                        s.latency
                            .record_duration(now.saturating_duration_since(started_at.get()));
                    }
                    s.completed.add_at(now, 1);
                }
                let next = tr.borrow_mut().next_request();
                let fire = fire2.clone();
                client_sock.compute(sim, costs.client_process, move |sim| fire(sim, next));
            });
        let respond_to_client = Rc::new(respond_to_client);

        // (2) Responses web → proxy: cache-fill, relay to the client.
        let rc = Rc::clone(&respond_to_client);
        let ch = Rc::clone(&cache);
        let p_web_sock2 = p_web_sock.clone();
        let web_to_proxy = msg::channel(
            w_sock.clone(),
            p_web_sock.clone(),
            move |sim, req: Request| {
                if caching_enabled {
                    ch.borrow_mut().insert(req.file_id, req.size);
                }
                let rc2 = Rc::clone(&rc);
                p_web_sock2.compute(sim, costs.proxy_relay, move |sim| {
                    rc2.send(sim, req.size, ())
                });
            },
        );
        let web_to_proxy = Rc::new(web_to_proxy);

        // (3) Requests proxy → web: serve the document.
        let w_sock2 = w_sock.clone();
        let proxy_to_web = msg::channel(p_web_sock, w_sock, move |sim, req: Request| {
            let wtp = Rc::clone(&web_to_proxy);
            w_sock2.compute(sim, costs.web_serve(req.size), move |sim| {
                wtp.send(sim, req.size, req)
            });
        });
        let proxy_to_web = Rc::new(proxy_to_web);

        // (4) Requests client → proxy: parse, cache-check, hit or forward.
        let ch = Rc::clone(&cache);
        let p_client_sock2 = p_client_sock.clone();
        let client_to_proxy = msg::channel(c_sock, p_client_sock, move |sim, req: Request| {
            let parse = costs.proxy_parse + costs.proxy_cache_lookup;
            let hit = caching_enabled && ch.borrow_mut().lookup(req.file_id);
            let rc = Rc::clone(&respond_to_client);
            let ptw = Rc::clone(&proxy_to_web);
            let extra = if hit {
                costs.proxy_hit_serve
            } else {
                costs.proxy_forward
            };
            p_client_sock2.compute(sim, parse + extra, move |sim| {
                if hit {
                    rc.send(sim, req.size, ());
                } else {
                    ptw.send(sim, REQUEST_WIRE_BYTES, req);
                }
            });
        });
        requests
            .set(client_to_proxy)
            .expect("each thread binds its request channel once");

        // Kick off the loop with a small stagger.
        cluster
            .sim_mut()
            .schedule(SimDuration::from_micros(5 * t as u64), move |sim| {
                let first = trace.borrow_mut().next_request();
                fire(sim, first);
            });
    }

    let (from, to) = cluster.run_measured();
    let shared = shared.borrow();
    if ioat_guard::enabled() {
        // Request lifecycle conservation: every fired request completed,
        // or is the one request a thread still has in flight at close.
        let done = shared.completed.total();
        let threads = cfg.client_threads as u64;
        ioat_guard::check(
            "datacenter/tiers",
            "completed ≤ fired ≤ completed + in-flight (≤ one per thread)",
            to,
            done <= shared.fired && shared.fired <= done + threads,
            || {
                format!(
                    "fired {} requests vs completed={done} with {threads} threads",
                    shared.fired
                )
            },
        );
    }
    let elapsed = (to - from).as_secs_f64();
    let proxy_s = cluster.stack(proxy).borrow();
    let web_s = cluster.stack(web).borrow();
    let client_s = cluster.stack(clients).borrow();
    let cache_hit_rate = cache.borrow().hit_rate();
    DataCenterResult {
        tps: shared.completed.window_total() as f64 / elapsed,
        proxy_cpu: proxy_s.cpu_utilization(),
        web_cpu: web_s.cpu_utilization(),
        client_cpu: client_s.cpu_utilization(),
        cache_hit_rate,
        latency_p50_us: shared.latency.quantile(0.5) as f64 / 1e3,
        latency_p99_us: shared.latency.quantile(0.99) as f64 / 1e3,
        completed: shared.completed.window_total(),
    }
}

/// Convenience: the Fig. 8a single-file comparison at one document size.
pub fn run_single_file(cfg: &DataCenterConfig, size: u64) -> DataCenterResult {
    run(cfg, |_t| {
        Box::new(crate::workload::SingleFileTrace::new(size))
    })
}

/// Convenience: the Fig. 8b Zipf comparison at one α over a shared-shape
/// catalog (each thread samples independently).
pub fn run_zipf(
    cfg: &DataCenterConfig,
    alpha: f64,
    catalog_docs: usize,
    median: u64,
) -> DataCenterResult {
    let mut rng = ioat_simcore::SimRng::seed_from(cfg.seed ^ 0x21F);
    let catalog = crate::workload::FileCatalog::web_content(catalog_docs, median, &mut rng);
    let mut seed_rng = ioat_simcore::SimRng::seed_from(cfg.seed);
    // One CDF build shared by every client thread; each thread's fork
    // draws from the same seed_rng stream the per-thread rebuild did.
    // The template's own rng is never sampled, so it must not consume a
    // seed_rng draw.
    let template =
        crate::workload::ZipfTrace::new(catalog, alpha, ioat_simcore::SimRng::seed_from(0));
    run(cfg, move |_t| Box::new(template.fork(seed_rng.fork())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_completes_transactions() {
        let cfg = DataCenterConfig::quick_test(IoatConfig::disabled());
        let r = run_single_file(&cfg, 4 * 1024);
        assert!(r.tps > 100.0, "tps = {}", r.tps);
        assert!(r.completed > 0);
        assert!(r.proxy_cpu > 0.0 && r.proxy_cpu <= 1.0);
        assert!(r.web_cpu > 0.0 && r.web_cpu <= 1.0);
        assert!(r.latency_p50_us > 0.0);
        assert!(r.latency_p99_us >= r.latency_p50_us);
        assert_eq!(r.cache_hit_rate, 0.0, "caching disabled");
    }

    #[test]
    fn tracing_records_request_lanes_without_perturbing() {
        let cfg = DataCenterConfig::quick_test(IoatConfig::disabled());
        let off = run_single_file(&cfg, 4 * 1024);
        let tracer = Tracer::enabled();
        let on = run_traced(
            &cfg,
            |_t| Box::new(crate::workload::SingleFileTrace::new(4 * 1024)),
            &tracer,
        );
        assert_eq!(off.tps.to_bits(), on.tps.to_bits());
        assert_eq!(off.completed, on.completed);
        assert_eq!(off.latency_p99_us.to_bits(), on.latency_p99_us.to_bits());
        let requests = tracer
            .with_events(|evs| evs.iter().filter(|e| e.cat == Category::Request).count())
            as u64;
        assert!(
            requests >= on.completed,
            "every completed transaction has a request span"
        );
        assert_eq!(tracer.process_names()[&REQUEST_LANES_NODE], "request-lanes");
    }

    #[test]
    fn ioat_improves_tps() {
        let non = run_single_file(
            &DataCenterConfig::quick_test(IoatConfig::disabled()),
            4 * 1024,
        );
        let ioat = run_single_file(&DataCenterConfig::quick_test(IoatConfig::full()), 4 * 1024);
        assert!(
            ioat.tps >= non.tps,
            "I/OAT TPS {:.0} should not lose to non-I/OAT {:.0}",
            ioat.tps,
            non.tps
        );
    }

    #[test]
    fn proxy_cache_serves_hits_under_zipf() {
        let mut cfg = DataCenterConfig::quick_test(IoatConfig::disabled());
        cfg.proxy_cache_bytes = 64 * 1024 * 1024;
        let r = run_zipf(&cfg, 0.95, 2_000, 8 * 1024);
        // The quick window is dominated by compulsory misses; steady-state
        // hit rates are much higher (see the Fig. 8b harness).
        assert!(
            r.cache_hit_rate > 0.12,
            "α=0.95 should produce real hit rates, got {:.2}",
            r.cache_hit_rate
        );
        // With hits served at the proxy, the web tier sees less work than
        // the proxy.
        assert!(r.web_cpu < r.proxy_cpu + 0.5);
    }

    #[test]
    fn more_clients_more_throughput_until_saturation() {
        let mut small = DataCenterConfig::quick_test(IoatConfig::disabled());
        small.client_threads = 2;
        let mut big = small.clone();
        big.client_threads = 16;
        let r_small = run_single_file(&small, 4 * 1024);
        let r_big = run_single_file(&big, 4 * 1024);
        assert!(
            r_big.tps > 2.0 * r_small.tps,
            "16 threads {:.0} vs 2 threads {:.0}",
            r_big.tps,
            r_small.tps
        );
    }
}
