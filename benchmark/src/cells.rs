//! The four workloads: which simulations ("cells") one pass runs, how the
//! seed reaches them, and what their results must satisfy.
//!
//! Every cell is one call into a layer's public entry point with one
//! I/OAT feature set. Configs are built with their own constructors and
//! adjusted through public fields, so the wiring follows the crates'
//! stable surface.

use ioat_core::microbench::bandwidth::{self, BandwidthConfig, FaultedThroughputResult};
use ioat_core::microbench::bidirectional::{self, BidirConfig};
use ioat_core::microbench::multistream::{self, MultiStreamConfig};
use ioat_core::microbench::splitup::{self, SplitupConfig};
use ioat_core::{ExperimentWindow, IoatConfig, ThroughputResult};
use ioat_datacenter::emulated::{self, EmulatedConfig, EmulatedResult};
use ioat_datacenter::parallel::run_partitioned;
use ioat_datacenter::tiers::{self, DataCenterConfig, DataCenterResult};
use ioat_datacenter::{ScaleConfig, ScaleResult};
use ioat_faults::{FaultPlan, RetryPolicy};
use ioat_parsim::ParsimReport;
use ioat_pvfs::{concurrent_read, concurrent_write, multi_stream_read, PvfsConfig, PvfsResult};
use ioat_simcore::stats::{relative_benefit, relative_improvement};
use ioat_simcore::{stable_mix, SimDuration};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's micro-benchmarks (Figs. 3, 4, 7) plus a lossy stream.
    PaperStream,
    /// The paper's application figures: PVFS (Figs. 10–12) and the
    /// data-center tiers (Figs. 8, 9).
    PaperApps,
    /// The fat-tree datacenter on the partitioned engine.
    FabricDc,
    /// The same datacenter under link flaps and switch crashes with the
    /// overload protections armed.
    FabricFaults,
}

impl Workload {
    /// Every workload, in `--all` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperStream,
        Workload::PaperApps,
        Workload::FabricDc,
        Workload::FabricFaults,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStream => "paper_stream",
            Workload::PaperApps => "paper_apps",
            Workload::FabricDc => "fabric_dc",
            Workload::FabricFaults => "fabric_faults",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperStream => {
                "paper micro-benchmarks: simcore, netsim stack and memsim copy/cache/DMA; \
                 no fabric, parsim, pvfs or datacenter code"
            }
            Workload::PaperApps => {
                "paper PVFS and data-center figures: the same stack driven by serial \
                 processes, tiers, LRU and Zipf, reads beside writes"
            }
            Workload::FabricDc => {
                "fault-free fat-tree datacenter: fabric forwarding, ECMP, parsim rounds \
                 and the client slab; the most memory kept per call"
            }
            Workload::FabricFaults => {
                "faulted fat-tree: failover re-hash, blackholes, admission shedding and \
                 hedge timers on the same fabric"
            }
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the fabric-scale engine.
    pub fn is_fabric(self) -> bool {
        matches!(self, Workload::FabricDc | Workload::FabricFaults)
    }
}

/// Full-size workloads for measurement, or miniature ones (quick-test
/// configs and windows) for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// Quick-test configs: same code paths, a fraction of the work.
    Mini,
}

/// The seed that reproduces the figures' own seeds.
pub const DEFAULT_SEED: u64 = 0;

/// Seed of the `abl-faults` loss plans, which the lossy cell reuses.
pub const LOSS_SEED: u64 = 0xFA017;

/// A figure's own seed under the benchmark seed `seed`: unchanged for
/// [`DEFAULT_SEED`], otherwise mixed so every seed gives other inputs.
pub fn seeded(figure_seed: u64, seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        figure_seed
    } else {
        figure_seed ^ stable_mix(seed)
    }
}

/// FNV-1a's initial state.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `h`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

/// The result of one cell, as the entry point returned it.
#[derive(Debug, Clone)]
pub enum Res {
    /// A micro-benchmark stream.
    Tput(ThroughputResult),
    /// A stream under frame loss.
    Lossy(FaultedThroughputResult),
    /// A PVFS run.
    Pvfs(PvfsResult),
    /// A two-node data-center run.
    Dc(DataCenterResult),
    /// The emulated-clients run.
    Emu(EmulatedResult),
    /// A fabric-scale partitioned run.
    Scale(ScaleResult, ParsimReport),
}

impl Res {
    /// The cell's headline number (throughput or TPS). A cell whose
    /// primary metric is not finite and positive has failed.
    pub fn primary(&self) -> f64 {
        match self {
            Res::Tput(r) => r.mbps,
            Res::Lossy(r) => r.throughput.mbps,
            Res::Pvfs(r) => r.mbytes_per_sec,
            Res::Dc(r) => r.tps,
            Res::Emu(r) => r.tps,
            Res::Scale(r, _) => r.tps,
        }
    }

    /// FNV-1a over the result's `Debug` text, which prints every float
    /// exactly: equal digests mean bit-identical results.
    pub fn digest(&self) -> u64 {
        fnv1a(FNV_OFFSET, format!("{self:?}").as_bytes())
    }

    fn tput(&self) -> Option<ThroughputResult> {
        match self {
            Res::Tput(r) => Some(*r),
            Res::Lossy(r) => Some(r.throughput),
            _ => None,
        }
    }
}

type RunFn = Box<dyn Fn(Option<ExperimentWindow>) -> Res>;

/// One simulation of a pass.
pub struct Cell {
    /// Stable name, `<experiment>/<feature set>`.
    pub name: String,
    /// The crate whose entry point the cell calls.
    pub layer: &'static str,
    /// The entry point, as a span name.
    pub entry: &'static str,
    run: RunFn,
}

impl Cell {
    /// Runs the cell, with its own window or with `window` in its place.
    pub fn run(&self, window: Option<ExperimentWindow>) -> Res {
        (self.run)(window)
    }
}

fn push_modes<F>(
    cells: &mut Vec<Cell>,
    base: &str,
    (layer, entry): (&'static str, &'static str),
    modes: &[(&str, IoatConfig)],
    run: F,
) where
    F: Fn(IoatConfig, Option<ExperimentWindow>) -> Res + Clone + 'static,
{
    for &(tag, ioat) in modes {
        let run = run.clone();
        cells.push(Cell {
            name: format!("{base}/{tag}"),
            layer,
            entry,
            run: Box::new(move |w| run(ioat, w)),
        });
    }
}

fn non_and_ioat() -> [(&'static str, IoatConfig); 2] {
    [
        ("non", IoatConfig::disabled()),
        ("ioat", IoatConfig::full()),
    ]
}

/// The `abl-fabric-faults` hedging policy (two hedges, backoff 2) with
/// its first hedge after `timeout`.
#[allow(clippy::field_reassign_with_default)] // built through the constructor, by design
pub fn hedge(timeout: SimDuration) -> RetryPolicy {
    let mut policy = RetryPolicy::default();
    policy.timeout = timeout;
    policy.max_retries = 2;
    policy.backoff = 2.0;
    policy
}

/// The fabric workloads' window: 5 ms warm-up, 45 ms measured.
fn fabric_window() -> ExperimentWindow {
    let mut w = ExperimentWindow::quick();
    w.warmup = SimDuration::from_millis(5);
    w.measure = SimDuration::from_millis(45);
    w
}

/// The cells of one pass of `w`.
pub fn cells(w: Workload, seed: u64, scale: Scale) -> Vec<Cell> {
    let full = scale == Scale::Full;
    let mut cells = Vec::new();
    let both = non_and_ioat();
    match w {
        Workload::PaperStream => {
            let bw = if full {
                BandwidthConfig::paper(6)
            } else {
                BandwidthConfig::quick_test()
            };
            push_modes(
                &mut cells,
                "bandwidth",
                ("core", "bandwidth::run"),
                &both,
                move |ioat, o| {
                    let mut c = bw;
                    c.window = o.unwrap_or(c.window);
                    Res::Tput(bandwidth::run(&c, ioat))
                },
            );
            let bd = if full {
                BidirConfig::paper(6)
            } else {
                BidirConfig::quick_test()
            };
            push_modes(
                &mut cells,
                "bidirectional",
                ("core", "bidirectional::run"),
                &both,
                move |ioat, o| {
                    let mut c = bd;
                    c.window = o.unwrap_or(c.window);
                    Res::Tput(bidirectional::run(&c, ioat))
                },
            );
            let ms = if full {
                MultiStreamConfig::paper(12)
            } else {
                MultiStreamConfig::quick_test(2)
            };
            push_modes(
                &mut cells,
                "multistream",
                ("core", "multistream::run"),
                &both,
                move |ioat, o| {
                    let mut c = ms;
                    c.window = o.unwrap_or(c.window);
                    Res::Tput(multistream::run(&c, ioat))
                },
            );
            let sp = if full {
                SplitupConfig::paper()
            } else {
                SplitupConfig::quick_test()
            };
            let three = [
                ("non", IoatConfig::disabled()),
                ("dma", IoatConfig::dma_only()),
                ("full", IoatConfig::full()),
            ];
            for (tag, size) in [("32k", 32 * 1024), ("1m", 1 << 20)] {
                push_modes(
                    &mut cells,
                    &format!("splitup.{tag}"),
                    ("core", "splitup::run_one"),
                    &three,
                    move |ioat, o| {
                        let mut c = sp;
                        c.window = o.unwrap_or(c.window);
                        Res::Tput(splitup::run_one(&c, ioat, size))
                    },
                );
            }
            let mut lossy = BandwidthConfig::paper(2);
            let mut loss = 1e-4;
            if !full {
                lossy.window = ExperimentWindow::quick();
                loss = 1e-3;
            }
            let plan = FaultPlan::bernoulli_loss(seeded(LOSS_SEED, seed), loss);
            push_modes(
                &mut cells,
                "bandwidth.lossy",
                ("core", "bandwidth::run_with_faults"),
                &both,
                move |ioat, o| {
                    let mut c = lossy;
                    c.window = o.unwrap_or(c.window);
                    Res::Lossy(bandwidth::run_with_faults(&c, ioat, &plan))
                },
            );
        }
        Workload::PaperApps => {
            let (servers, clients) = if full { (6, 6) } else { (2, 2) };
            let pvfs = |clients: usize| {
                if full {
                    PvfsConfig::paper(servers, clients, IoatConfig::disabled())
                } else {
                    PvfsConfig::quick_test(servers, clients, IoatConfig::disabled())
                }
            };
            let read = pvfs(clients);
            push_modes(
                &mut cells,
                "pvfs.read",
                ("pvfs", "concurrent_read"),
                &both,
                move |ioat, o| {
                    let mut c = read.clone();
                    c.ioat = ioat;
                    c.window = o.unwrap_or(c.window);
                    Res::Pvfs(concurrent_read(&c))
                },
            );
            let write = pvfs(clients);
            push_modes(
                &mut cells,
                "pvfs.write",
                ("pvfs", "concurrent_write"),
                &both,
                move |ioat, o| {
                    let mut c = write.clone();
                    c.ioat = ioat;
                    c.window = o.unwrap_or(c.window);
                    Res::Pvfs(concurrent_write(&c))
                },
            );
            let streams = pvfs(1);
            let threads = if full { 64 } else { 4 };
            push_modes(
                &mut cells,
                "pvfs.multistream",
                ("pvfs", "multi_stream_read"),
                &both,
                move |ioat, o| {
                    let mut c = streams.clone();
                    c.ioat = ioat;
                    c.window = o.unwrap_or(c.window);
                    Res::Pvfs(multi_stream_read(&c, threads))
                },
            );
            let mut dc = if full {
                DataCenterConfig::paper(IoatConfig::disabled())
            } else {
                DataCenterConfig::quick_test(IoatConfig::disabled())
            };
            dc.seed = seeded(dc.seed, seed);
            let single = dc.clone();
            push_modes(
                &mut cells,
                "tiers.single4k",
                ("datacenter", "tiers::run_single_file"),
                &both,
                move |ioat, o| {
                    let mut c = single.clone();
                    c.ioat = ioat;
                    c.window = o.unwrap_or(c.window);
                    Res::Dc(tiers::run_single_file(&c, 4 * 1024))
                },
            );
            // The Fig. 8b setup at α 0.9.
            let mut zipf = dc;
            zipf.proxy_cache_bytes = 512 << 20;
            if full {
                zipf.client_ports = 4;
                zipf.tier_ports = 2;
            }
            let docs = if full { 10_000 } else { 500 };
            push_modes(
                &mut cells,
                "tiers.zipf",
                ("datacenter", "tiers::run_zipf"),
                &both,
                move |ioat, o| {
                    let mut c = zipf.clone();
                    c.ioat = ioat;
                    c.window = o.unwrap_or(c.window);
                    Res::Dc(tiers::run_zipf(&c, 0.9, docs, 2 * 1024))
                },
            );
            let emu = if full {
                EmulatedConfig::paper(256, IoatConfig::disabled())
            } else {
                EmulatedConfig::quick_test(16, IoatConfig::disabled())
            };
            push_modes(
                &mut cells,
                "emulated",
                ("datacenter", "emulated::run"),
                &both,
                move |ioat, o| {
                    let mut c = emu;
                    c.ioat = ioat;
                    c.window = o.unwrap_or(c.window);
                    Res::Emu(emulated::run(&c))
                },
            );
        }
        Workload::FabricDc | Workload::FabricFaults => {
            let faulted = w == Workload::FabricFaults;
            let mut sc = if full {
                let mut sc = ScaleConfig::fat_tree(8, 1.0, 12_800, IoatConfig::disabled());
                sc.window = fabric_window();
                sc
            } else {
                ScaleConfig::quick_test(IoatConfig::disabled())
            };
            // The seed picks the clients' documents and draws. The ECMP
            // hash and the fault plan stay the figures': they are the
            // system under test, and a new ECMP seed alone moves the
            // event count by up to 18 % through different collisions.
            sc.seed = seeded(sc.seed, seed);
            if faulted {
                sc.faults.flaps_per_link = if full { 8 } else { 2 };
                sc.faults.crashed_switches = if full { 2 } else { 1 };
                sc.admit_budget = Some(32);
                sc.hedge = Some(hedge(SimDuration::from_micros(2_500)));
            }
            // One worker: on a 2-vCPU host shared with other tenants, a
            // 2-worker barrier couples every round to the busier vCPU and
            // spreads run times by 20 % (IQR) against 5 % inline. The
            // `parsim.round.threads2_ns` probe covers the threaded engine.
            push_modes(
                &mut cells,
                "scale",
                ("datacenter", "run_partitioned"),
                &both,
                move |ioat, o| {
                    let mut c = sc;
                    c.ioat = ioat;
                    c.window = o.unwrap_or(c.window);
                    let (r, rep) = run_partitioned(&c, 1);
                    Res::Scale(r, rep)
                },
            );
        }
    }
    cells
}

/// Looks a cell's result up by name.
pub type Lookup<'a> = &'a dyn Fn(&str) -> Option<&'a Res>;

fn tput_pair(
    get: Lookup<'_>,
    base: &str,
    a: &str,
    b: &str,
) -> Option<(ThroughputResult, ThroughputResult)> {
    Some((
        get(&format!("{base}/{a}"))?.tput()?,
        get(&format!("{base}/{b}"))?.tput()?,
    ))
}

fn pair<T>(get: Lookup<'_>, base: &str, pick: impl Fn(&Res) -> Option<T>) -> Option<(T, T)> {
    Some((
        pick(get(&format!("{base}/non"))?)?,
        pick(get(&format!("{base}/ioat"))?)?,
    ))
}

fn pvfs_of(r: &Res) -> Option<PvfsResult> {
    match r {
        Res::Pvfs(p) => Some(*p),
        _ => None,
    }
}

fn tps_of(r: &Res) -> Option<f64> {
    match r {
        Res::Dc(d) => Some(d.tps),
        Res::Emu(e) => Some(e.tps),
        _ => None,
    }
}

/// One paper comparison: `(label, measured %, paper %)`.
pub type PaperTerm = (&'static str, f64, f64);

/// The paper values a workload reproduces, against the EXPERIMENTS
/// quotes. `None` when a cell is missing; empty for the fabric
/// workloads, which extend the paper and have no reference value.
pub fn paper_terms(w: Workload, get: Lookup<'_>) -> Option<Vec<PaperTerm>> {
    let pct = |x: f64| x * 100.0;
    let cpu = |base: &str, a: &str, b: &str| {
        tput_pair(get, base, a, b).map(|(x, y)| pct(relative_benefit(y.rx_cpu, x.rx_cpu)))
    };
    Some(match w {
        Workload::PaperStream => {
            let split = tput_pair(get, "splitup.1m", "dma", "full")?;
            vec![
                (
                    "fig3a 6-port CPU benefit",
                    cpu("bandwidth", "non", "ioat")?,
                    21.0,
                ),
                (
                    "fig3b 6-port CPU benefit",
                    cpu("bidirectional", "non", "ioat")?,
                    22.0,
                ),
                (
                    "fig4 12-thread CPU benefit",
                    cpu("multistream", "non", "ioat")?,
                    32.0,
                ),
                (
                    "fig7a 32K DMA CPU benefit",
                    cpu("splitup.32k", "non", "dma")?,
                    16.0,
                ),
                (
                    "fig7b 1M split-header throughput",
                    pct(relative_improvement(split.1.mbps, split.0.mbps)),
                    26.0,
                ),
            ]
        }
        Workload::PaperApps => {
            let (rn, ri) = pair(get, "pvfs.read", pvfs_of)?;
            let (wn, wi) = pair(get, "pvfs.write", pvfs_of)?;
            let (dn, di) = pair(get, "tiers.single4k", tps_of)?;
            let (en, ei) = pair(get, "emulated", tps_of)?;
            vec![
                (
                    "fig10a 6x6 throughput",
                    pct(relative_improvement(ri.mbytes_per_sec, rn.mbytes_per_sec)),
                    12.0,
                ),
                (
                    "fig10a 6x6 client CPU benefit",
                    pct(relative_benefit(ri.client_cpu, rn.client_cpu)),
                    15.0,
                ),
                (
                    "fig11a 6x6 throughput",
                    pct(relative_improvement(wi.mbytes_per_sec, wn.mbytes_per_sec)),
                    8.0,
                ),
                (
                    "fig11a 6x6 server CPU benefit",
                    pct(relative_benefit(wi.server_cpu, wn.server_cpu)),
                    7.0,
                ),
                ("fig8a 4K TPS", pct(relative_improvement(di, dn)), 14.0),
                (
                    "fig9 256-client TPS",
                    pct(relative_improvement(ei, en)),
                    16.0,
                ),
            ]
        }
        Workload::FabricDc | Workload::FabricFaults => Vec::new(),
    })
}

/// Mean absolute error of `terms`, percentage points.
pub fn paper_err_pp(terms: &[PaperTerm]) -> f64 {
    terms.iter().map(|(_, m, p)| (m - p).abs()).sum::<f64>() / terms.len() as f64
}

/// The claims every full-size run must keep, as failure messages. These
/// are directions the paper and EXPERIMENTS establish, loose enough to
/// hold on any seed.
pub fn shape_failures(w: Workload, get: Lookup<'_>) -> Vec<String> {
    let mut fails = Vec::new();
    let mut claim = |ok: Option<bool>, what: &str| {
        if ok != Some(true) {
            fails.push(what.to_string());
        }
    };
    match w {
        Workload::PaperStream => {
            for base in [
                "bandwidth",
                "bidirectional",
                "multistream",
                "bandwidth.lossy",
            ] {
                claim(
                    tput_pair(get, base, "non", "ioat").map(|(n, i)| i.rx_cpu < n.rx_cpu),
                    &format!("{base}: I/OAT lowers receiver CPU"),
                );
            }
            claim(
                tput_pair(get, "splitup.32k", "non", "dma").map(|(n, d)| d.rx_cpu < n.rx_cpu),
                "splitup.32k: the DMA engine lowers receiver CPU",
            );
            claim(
                tput_pair(get, "splitup.1m", "dma", "full").map(|(d, f)| f.mbps > d.mbps),
                "splitup.1m: split headers raise throughput",
            );
        }
        Workload::PaperApps => {
            for base in ["pvfs.read", "pvfs.write"] {
                claim(
                    pair(get, base, pvfs_of).map(|(n, i)| i.mbytes_per_sec > n.mbytes_per_sec),
                    &format!("{base}: I/OAT raises saturated throughput"),
                );
            }
            claim(
                pair(get, "pvfs.multistream", pvfs_of)
                    .map(|(n, i)| i.mbytes_per_sec >= n.mbytes_per_sec),
                "pvfs.multistream: I/OAT throughput is at least non-I/OAT's",
            );
            claim(
                pair(get, "emulated", tps_of).map(|(n, i)| i > n),
                "emulated: I/OAT sustains more TPS at 256 clients",
            );
            claim(
                pair(get, "tiers.zipf", |r| match r {
                    Res::Dc(d) => Some(d.cache_hit_rate),
                    _ => None,
                })
                .map(|(n, i)| [n, i].iter().all(|h| *h > 0.0 && *h < 1.0)),
                "tiers.zipf: the proxy cache hits some requests, not all",
            );
        }
        Workload::FabricDc => {}
        Workload::FabricFaults => {
            claim(
                pair(get, "scale", |r| match r {
                    Res::Scale(s, _) => Some(s.route_blackholes > 0 && s.hedges > 0),
                    _ => None,
                })
                .map(|(n, i)| n && i),
                "scale: faults blackhole frames and proxies hedge",
            );
        }
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_keeps_figure_seeds() {
        assert_eq!(seeded(0xDC, DEFAULT_SEED), 0xDC);
        assert_ne!(seeded(0xDC, 1), 0xDC);
        assert_ne!(seeded(0xDC, 1), seeded(0xDC, 2));
    }

    #[test]
    fn names_round_trip_and_cells_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            let cells = cells(w, DEFAULT_SEED, Scale::Full);
            let mut names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), cells.len(), "{}", w.name());
        }
    }

    #[test]
    fn paper_error_is_the_mean_absolute_gap() {
        let terms = [("a", 35.0, 21.0), ("b", 21.7, 22.0)];
        assert!((paper_err_pp(&terms) - 7.15).abs() < 1e-12);
    }
}
