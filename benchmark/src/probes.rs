//! Layer probes for the traced run: each times one layer's public entry
//! point on a fixed, seeded input, independent of the workload, so every
//! workload reports every per-layer metric.

use crate::cells::{hedge, seeded, LOSS_SEED};
use crate::measure::{rss_mb, timed};
use crate::spans::Spans;
use ioat_core::microbench::bandwidth::{self, BandwidthConfig};
use ioat_core::microbench::bidirectional::{self, BidirConfig};
use ioat_core::microbench::multistream::{self, MultiStreamConfig};
use ioat_core::microbench::splitup::{self, SplitupConfig};
use ioat_core::{ExperimentWindow, IoatConfig};
use ioat_datacenter::emulated::{self, EmulatedConfig};
use ioat_datacenter::scale::FabricFaultSpec;
use ioat_datacenter::tiers::{self, DataCenterConfig};
use ioat_datacenter::workload::Trace;
use ioat_datacenter::{run_partitioned, FileCatalog, LruCache, ScaleConfig, ZipfTrace};
use ioat_fabric::{Fabric, FabricParams, TopologySpec};
use ioat_faults::FaultPlan;
use ioat_memsim::{
    Buffer, Cache, CacheConfig, CopyParams, CpuCopier, DmaConfig, DmaEngine, DmaRequest,
};
use ioat_netsim::ConnId;
use ioat_parsim::{Outbox, Partition};
use ioat_pvfs::{concurrent_read, concurrent_write, multi_stream_read, PvfsConfig};
use ioat_simcore::{Sim, SimDuration, SimRng, SimTime};
use std::hint::black_box;

/// Repetitions of each micro probe; the fastest is reported, as for the
/// end-to-end `wall_s`.
const REPS: usize = 5;
/// Repetitions of each whole-simulation probe.
const CELL_REPS: usize = 3;

/// Runs `f` `reps` times inside spans, returning the fastest wall seconds
/// and the last result.
fn fastest<R>(
    sp: &mut Spans,
    name: &str,
    layer: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let (r, s) = sp.span(name, layer, |_| timed(|| black_box(f())));
        best = best.min(s);
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}

/// [`fastest`], plus the memory the calls keep: RSS growth across all
/// `reps` calls, measured after the last returns, per call (MB).
fn fastest_kept<R>(
    sp: &mut Spans,
    name: &str,
    layer: &'static str,
    reps: usize,
    f: impl FnMut() -> R,
) -> (f64, R, f64) {
    let before = rss_mb();
    let (s, r) = fastest(sp, name, layer, reps, f);
    (s, r, (rss_mb() - before) / reps as f64)
}

/// Schedules `delays.len()` no-op events, cancels every other one when
/// `cancel` is set, and drains the queue.
fn queue_churn(delays: &[u64], cancel: bool) -> u64 {
    let mut sim = Sim::new();
    let ids: Vec<_> = delays
        .iter()
        .map(|&d| sim.schedule(SimDuration::from_nanos(d), |_| {}))
        .collect();
    if cancel {
        for id in ids.iter().step_by(2) {
            sim.cancel(*id);
        }
    }
    sim.run_until(SimTime::from_nanos(1_000));
    sim.events_executed()
}

/// One partition of the parsim probe: a token ring whose every hop is
/// exactly one lookahead, so each round does one event per partition and
/// the round cost is almost all engine overhead.
struct Ring {
    sim: Sim,
    out: Outbox<u64>,
    next: usize,
}

const HOP: SimDuration = SimDuration::from_micros(5);

impl Partition for Ring {
    type Msg = u64;
    type Out = u64;

    fn next_event_at(&mut self) -> Option<SimTime> {
        self.sim.next_event_at()
    }

    fn run_before(&mut self, limit: SimTime) {
        self.sim.run_before(limit);
    }

    fn run_final(&mut self, horizon: SimTime) {
        self.sim.run_until(horizon);
    }

    fn inject(&mut self, fire_at: SimTime, msg: u64) {
        let (out, next) = (self.out.clone(), self.next);
        self.sim.schedule_at(fire_at, move |sim| {
            out.send(next, sim.now() + HOP, msg + 1);
        });
    }

    fn events_executed(&self) -> u64 {
        self.sim.events_executed()
    }

    fn finish(self) -> u64 {
        self.sim.events_executed()
    }
}

/// ns per round of a 4-partition ring run to 20 ms on `threads` workers.
fn parsim_round_ns(sp: &mut Spans, name: &str, threads: usize) -> f64 {
    let n = 4;
    let (s, rounds) = fastest(sp, name, "parsim", REPS, || {
        let builders: Vec<_> = (0..n)
            .map(|_| {
                move |idx: usize, out: Outbox<u64>| {
                    let mut ring = Ring {
                        sim: Sim::new(),
                        out,
                        next: (idx + 1) % n,
                    };
                    let (o, next) = (ring.out.clone(), ring.next);
                    ring.sim.schedule_at(SimTime::ZERO + HOP, move |sim| {
                        o.send(next, sim.now() + HOP, 0);
                    });
                    ring
                }
            })
            .collect();
        let (_, rep) = ioat_parsim::run(builders, HOP, SimTime::from_millis(20), threads);
        rep.rounds
    });
    s * 1e9 / rounds as f64
}

/// Runs every probe and returns `(metric, value)` pairs.
pub fn run(sp: &mut Spans, seed: u64) -> Vec<(&'static str, f64)> {
    let mut m = Vec::new();
    let mut rng = SimRng::seed_from(seeded(0x9B0BE, seed));

    // simcore: slab queue push/pop, then with half the events cancelled.
    let delays: Vec<u64> = (0..100_000).map(|_| rng.range(0, 256)).collect();
    let n = delays.len() as f64;
    let (s, _) = fastest(sp, "Sim::schedule+run_until", "simcore", REPS, || {
        queue_churn(&delays, false)
    });
    m.push(("simcore.queue.schedule_pop_ns", s * 1e9 / n));
    let (s, _) = fastest(sp, "Sim::schedule+cancel", "simcore", REPS, || {
        queue_churn(&delays, true)
    });
    m.push(("simcore.queue.cancel_ns", s * 1e9 / n));

    // memsim: 64 KB buffers over a working set twice the L2.
    let l2 = CacheConfig::paper_l2();
    let chunk = 64 * 1024;
    let bufs: Vec<Buffer> = (0..2 * l2.capacity / chunk)
        .map(|i| Buffer::new(i * chunk, chunk))
        .collect();
    let kb = (bufs.len() as u64 * chunk / 1024) as f64;
    let mut cache = Cache::new(l2);
    let (s, _) = fastest(sp, "Cache::access_range", "memsim", REPS, || {
        bufs.iter()
            .map(|b| cache.access_range(*b).lines())
            .sum::<u64>()
    });
    m.push(("memsim.cache.access_range_ns_per_kb", s * 1e9 / kb));
    let copier = CpuCopier::new(CopyParams::default());
    let half = &bufs[..bufs.len() / 2];
    let (s, _) = fastest(sp, "CpuCopier::copy", "memsim", REPS, || {
        half.iter()
            .map(|b| {
                copier
                    .copy(&mut cache, *b, Buffer::new(b.addr() + (1 << 30), b.len()))
                    .lines()
            })
            .sum::<u64>()
    });
    m.push(("memsim.copy.copy_ns_per_kb", s * 1e9 / (kb / 2.0)));
    let reqs = 10_000u64;
    let (s, _) = fastest(sp, "DmaEngine::issue", "memsim", REPS, || {
        let engine = DmaEngine::new_ref(DmaConfig::default(), None);
        let mut sim = Sim::new();
        for i in 0..reqs {
            let src = Buffer::new(i * 4096, 4096);
            let dst = Buffer::new((1 << 30) + i * 4096, 4096);
            DmaEngine::issue(&engine, &mut sim, DmaRequest::new(src, dst), |_| {});
        }
        sim.run();
        sim.events_executed()
    });
    m.push(("memsim.dma.issue_ns", s * 1e9 / reqs as f64));

    // netsim through the smallest core harness: the stack pump.
    let bw = BandwidthConfig::quick_test();
    let (s, r, kept) = fastest_kept(sp, "bandwidth::run", "core", REPS, || {
        bandwidth::run(&bw, IoatConfig::disabled())
    });
    let mb = r.mbps / 8.0 * bw.window.measure.as_secs_f64();
    m.push(("netsim.stack.pump_ns_per_mb", s * 1e9 / mb));
    m.push(("core.bandwidth.cell_ms", s * 1e3));
    m.push(("core.bandwidth.retained_mb", kept));
    let mut lossy = BandwidthConfig::quick_test();
    lossy.ports = 2;
    let plan = FaultPlan::bernoulli_loss(seeded(LOSS_SEED, seed), 1e-3);
    let (_, r) = fastest(sp, "bandwidth::run_with_faults", "core", 1, || {
        bandwidth::run_with_faults(&lossy, IoatConfig::disabled(), &plan)
    });
    let delivered = r.throughput.mbps * 1e6 / 8.0 * lossy.window.measure.as_secs_f64();
    m.push((
        "netsim.retransmit_ratio",
        r.retransmitted_bytes as f64 / delivered,
    ));

    // fabric: fat-tree(16) build, ECMP port choice, fault installation.
    let k16 = TopologySpec::FatTree { k: 16 };
    let params = FabricParams::gige();
    let (s, fabric) = fastest(sp, "Fabric::new", "fabric", REPS, || {
        Fabric::new(k16, params)
    });
    m.push(("fabric.build_ms", s * 1e3));
    let topo = fabric.topology();
    let flows: Vec<(usize, usize, usize, ConnId)> = (0..65_536)
        .map(|_| {
            (
                rng.range(0, topo.switches() as u64) as usize,
                rng.range(0, topo.hosts() as u64) as usize,
                rng.range(0, topo.hosts() as u64) as usize,
                ConnId(rng.next_u64()),
            )
        })
        .collect();
    let rounds = 16;
    let (s, _) = fastest(sp, "Fabric::route_port", "fabric", REPS, || {
        let mut acc = 0usize;
        for _ in 0..rounds {
            for &(sw, src, dst, conn) in &flows {
                acc = acc.wrapping_add(fabric.route_port(sw, src, dst, black_box(conn)));
            }
        }
        acc
    });
    m.push((
        "fabric.route.port_ns",
        s * 1e9 / (rounds * flows.len()) as f64,
    ));
    let mut spec = FabricFaultSpec::none();
    spec.flaps_per_link = 8;
    spec.crashed_switches = 2;
    let fresh: Vec<_> = (0..REPS).map(|_| Fabric::new(k16, params)).collect();
    let mut fresh = fresh.into_iter();
    let (s, _) = fastest(sp, "Fabric::set_faults", "fabric", REPS, || {
        let f = fresh.next().expect("one fabric per rep");
        f.set_faults(&spec.plan(f.topology(), &ExperimentWindow::quick()));
        f
    });
    m.push(("fabric.faults.install_ms", s * 1e3));

    // parsim: engine overhead per round, inline and on two workers.
    m.push((
        "parsim.round.inline_ns",
        parsim_round_ns(sp, "parsim::run/1", 1),
    ));
    m.push((
        "parsim.round.threads2_ns",
        parsim_round_ns(sp, "parsim::run/2", 2),
    ));

    // datacenter: Zipf sampling and the proxy LRU.
    let catalog = FileCatalog::web_content(10_000, 8 * 1024, &mut rng);
    let mut zipf = ZipfTrace::new(catalog, 0.9, rng.fork());
    let draws = 1_000_000u64;
    let (s, _) = fastest(sp, "ZipfTrace::next_request", "datacenter", REPS, || {
        (0..draws).fold(0u64, |acc, _| acc + u64::from(zipf.next_request().file_id))
    });
    m.push(("datacenter.zipf.draw_ns", s * 1e9 / draws as f64));
    let requests: Vec<_> = (0..100_000).map(|_| zipf.next_request()).collect();
    let (s, _) = fastest(sp, "LruCache::lookup+insert", "datacenter", REPS, || {
        let mut lru = LruCache::new(256 * 1024);
        for r in &requests {
            if !lru.lookup(r.file_id) {
                lru.insert(r.file_id, r.size);
            }
        }
        lru.hits()
    });
    m.push(("datacenter.lru.op_ns", s * 1e9 / requests.len() as f64));

    // datacenter at fabric scale: a congested (4:1), faulted, hedged
    // fat-tree(4) cell, so every drop and recovery counter is live.
    let mut sc = ScaleConfig::quick_test(IoatConfig::disabled());
    sc.seed = seeded(sc.seed, seed);
    sc.clients = 256;
    sc.fabric.oversubscription = 4.0;
    sc.faults.flaps_per_link = 2;
    sc.faults.crashed_switches = 1;
    sc.hedge = Some(hedge(SimDuration::from_millis(2)));
    let (s, (r, rep), kept) = fastest_kept(sp, "run_partitioned", "datacenter", CELL_REPS, || {
        run_partitioned(&sc, 1)
    });
    let mut tiny = sc;
    tiny.window.warmup = SimDuration::from_micros(1);
    tiny.window.measure = SimDuration::from_micros(1);
    let (setup, _) = fastest(sp, "run_partitioned/setup", "datacenter", CELL_REPS, || {
        run_partitioned(&tiny, 1)
    });
    m.push(("datacenter.scale.cell_s", s));
    m.push(("datacenter.scale.setup_s", setup));
    m.push(("datacenter.scale.retained_mb", kept));
    m.push(("datacenter.tps", r.tps));
    m.push(("datacenter.p99_us", r.latency_p99_us as f64));
    m.push((
        "datacenter.hedge_ratio",
        r.hedges as f64 / r.completed as f64,
    ));
    m.push(("fabric.tail_drops", r.tail_drops as f64));
    m.push(("fabric.route_blackholes", r.route_blackholes as f64));
    m.push(("parsim.rounds", rep.rounds as f64));
    m.push(("parsim.mean_window_ns", rep.mean_window_ns()));
    m.push((
        "parsim.fabric_event_share",
        rep.events[0] as f64 / rep.total_events() as f64,
    ));

    // One quick-window call of every other cell entry point.
    let mut dc = DataCenterConfig::quick_test(IoatConfig::disabled());
    dc.seed = seeded(dc.seed, seed);
    dc.proxy_cache_bytes = 512 << 20;
    let (s, r) = fastest(sp, "tiers::run_zipf", "datacenter", CELL_REPS, || {
        tiers::run_zipf(&dc, 0.9, 500, 2 * 1024)
    });
    m.push(("datacenter.tiers.cell_ms", s * 1e3));
    m.push(("datacenter.cache_hit_rate", r.cache_hit_rate));
    let (s, _) = fastest(sp, "bidirectional::run", "core", CELL_REPS, || {
        bidirectional::run(&BidirConfig::quick_test(), IoatConfig::disabled())
    });
    m.push(("core.bidirectional.cell_ms", s * 1e3));
    let (s, _) = fastest(sp, "multistream::run", "core", CELL_REPS, || {
        multistream::run(&MultiStreamConfig::quick_test(4), IoatConfig::disabled())
    });
    m.push(("core.multistream.cell_ms", s * 1e3));
    let (s, _) = fastest(sp, "splitup::run_one", "core", CELL_REPS, || {
        splitup::run_one(
            &SplitupConfig::quick_test(),
            IoatConfig::disabled(),
            64 * 1024,
        )
    });
    m.push(("core.splitup.cell_ms", s * 1e3));
    let pv = PvfsConfig::quick_test(2, 2, IoatConfig::disabled());
    let (s, _, kept) = fastest_kept(sp, "concurrent_read", "pvfs", CELL_REPS, || {
        concurrent_read(&pv)
    });
    m.push(("pvfs.read.cell_ms", s * 1e3));
    m.push(("pvfs.read.retained_mb", kept));
    let (s, _) = fastest(sp, "concurrent_write", "pvfs", CELL_REPS, || {
        concurrent_write(&pv)
    });
    m.push(("pvfs.write.cell_ms", s * 1e3));
    let one = PvfsConfig::quick_test(2, 1, IoatConfig::disabled());
    let (s, _) = fastest(sp, "multi_stream_read", "pvfs", CELL_REPS, || {
        multi_stream_read(&one, 8)
    });
    m.push(("pvfs.multistream.cell_ms", s * 1e3));
    let (s, _) = fastest(sp, "emulated::run", "datacenter", CELL_REPS, || {
        emulated::run(&EmulatedConfig::quick_test(16, IoatConfig::disabled()))
    });
    m.push(("datacenter.emulated.cell_ms", s * 1e3));
    m
}
