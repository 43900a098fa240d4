//! Figure runners behind the `repro` binary.
//!
//! One public builder per table/figure of the paper's evaluation section;
//! each is a *pure* function returning a [`FigureResult`] — no printing.
//! Every builder fans its independent configuration points across the
//! [`sweep`] thread pool (`jobs` workers), and [`render`] turns the result
//! into the table the paper reports. [`report::render_json`] serializes a
//! whole run for machine consumption (`repro --json`). See `DESIGN.md` §4
//! for the experiment index and `EXPERIMENTS.md` for paper-vs-measured
//! records.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod modern;
pub mod report;
pub mod sweep;

use ioat_core::metrics::ExperimentWindow;
use ioat_core::microbench::{bandwidth, bidirectional, copybench, multistream, splitup};
use ioat_core::{IoatConfig, SocketOpts};
use ioat_datacenter::emulated::{self, EmulatedConfig};
use ioat_datacenter::run_partitioned;
use ioat_datacenter::scale::{ScaleConfig, ScaleResult};
use ioat_datacenter::tiers::{self, DataCenterConfig};
use ioat_pvfs::harness::{
    concurrent_read, concurrent_write, mixed_streams, multi_stream_read, PvfsConfig,
};

/// A generic labelled comparison row printed by every figure runner.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// X-axis label (ports, threads, message size, trace, α, ...).
    pub label: String,
    /// Non-I/OAT primary metric (Mbps / TPS / MB/s, per figure).
    pub non_ioat: f64,
    /// I/OAT primary metric.
    pub ioat: f64,
    /// Non-I/OAT CPU utilization (0 when not reported for the figure).
    pub non_cpu: f64,
    /// I/OAT CPU utilization.
    pub ioat_cpu: f64,
}

impl Row {
    /// Relative throughput improvement of I/OAT.
    pub fn improvement(&self) -> f64 {
        if self.non_ioat == 0.0 {
            0.0
        } else {
            (self.ioat - self.non_ioat) / self.non_ioat
        }
    }

    /// The paper's relative CPU benefit.
    pub fn cpu_benefit(&self) -> f64 {
        if self.non_cpu == 0.0 {
            0.0
        } else {
            (self.non_cpu - self.ioat_cpu) / self.non_cpu
        }
    }
}

/// One row of the Ablation A2 pinning-cost sensitivity table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinningRow {
    /// Copied bytes.
    pub size: u64,
    /// Total user-level DMA copy cost (µs) at 25 ns / 250 ns / 1 µs
    /// per-page pinning.
    pub pin_us: [f64; 3],
}

/// Parallel-engine telemetry for one partitioned simulation: the
/// thread-count-invariant slice of the `ioat-parsim` run report.
/// Everything here is a pure function of the configuration — the
/// partition layout, per-partition event counts, and the
/// synchronization windows the conservative engine achieved — so it
/// participates in determinism comparisons. The worker-thread count is
/// deliberately excluded: like `wall_ms` it describes the host, not the
/// model, and the determinism contract says it must be unobservable.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsimStats {
    /// Which simulation within the figure ("k=16 o=1 102K non", ...).
    pub label: String,
    /// Partitions the run was split into (fabric + one per server group).
    pub partitions: usize,
    /// Synchronization windows (rounds) the conservative engine executed.
    pub rounds: u64,
    /// Mean achieved window width in nanoseconds (horizon / rounds).
    pub mean_window_ns: f64,
    /// Events executed per partition; index 0 is the fabric partition.
    pub events: Vec<u64>,
}

/// The rows of one figure, preserving each table's native shape.
#[derive(Debug, Clone, PartialEq)]
pub enum FigureRows {
    /// The standard 7-column I/OAT vs non-I/OAT comparison.
    Compare(Vec<Row>),
    /// The Fig. 6 CPU-copy vs DMA-copy latency table.
    Copy(Vec<copybench::CopyRow>),
    /// The Fig. 7 three-configuration feature split-up.
    Splitup(Vec<splitup::SplitupRow>),
    /// The Ablation A2 pinning-cost sensitivity table.
    Pinning(Vec<PinningRow>),
}

impl FigureRows {
    /// Number of rows, independent of shape.
    pub fn len(&self) -> usize {
        match self {
            FigureRows::Compare(r) => r.len(),
            FigureRows::Copy(r) => r.len(),
            FigureRows::Splitup(r) => r.len(),
            FigureRows::Pinning(r) => r.len(),
        }
    }

    /// True when the figure produced no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The complete, machine-readable result of one figure run.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// Target id (`fig3a`, `abl-faults`, ...).
    pub name: String,
    /// Human title, printed as the table heading.
    pub title: String,
    /// Primary-metric unit (Mbps / TPS / MB/s / µs).
    pub unit: String,
    /// The table body.
    pub rows: FigureRows,
    /// Extra renderer lines (recovery counters, failover summaries);
    /// printed verbatim after the table.
    pub notes: Vec<String>,
    /// Wall-clock spent building this figure, in milliseconds. Filled by
    /// [`run_figure_supervised`]; excluded from determinism comparisons.
    pub wall_ms: f64,
    /// Simulator events executed across every simulation the figure
    /// built, when the builder reports them (the `fig_fabric` family
    /// does; 0 elsewhere). Deterministic — included in comparisons; the
    /// JSON report derives `events_per_sec` from this and `wall_ms`.
    pub sim_events: u64,
    /// Peak resident set size of the process (Linux `VmHWM`) observed
    /// when the figure finished, in bytes; `None` off-Linux. `repro`
    /// resets the high-water mark before each figure, so there it is the
    /// figure's own peak at the run's `--jobs`. Host-dependent — excluded
    /// from determinism comparisons.
    pub peak_rss_bytes: Option<u64>,
    /// Why the figure failed, when it did: the supervisor's classified
    /// reason (`panicked: ...` / `wedged: ...` / `audit: ...`). `None`
    /// for a figure that completed cleanly; serialized as `status` +
    /// `error` in the JSON report.
    pub error: Option<String>,
    /// Parallel-in-simulation telemetry, one entry per partitioned
    /// simulation the figure built (the `fig_fabric` family; empty
    /// elsewhere). Thread-count invariant, so included in determinism
    /// comparisons; serialized as `parsim` in the schema-4 JSON report.
    pub parsim: Vec<ParsimStats>,
}

impl FigureResult {
    fn new(name: &str, title: &str, unit: &str, rows: FigureRows) -> Self {
        FigureResult {
            name: name.to_string(),
            title: title.to_string(),
            unit: unit.to_string(),
            rows,
            notes: Vec::new(),
            wall_ms: 0.0,
            sim_events: 0,
            peak_rss_bytes: None,
            error: None,
            parsim: Vec::new(),
        }
    }

    /// True when the supervisor recorded a failure for this figure.
    pub fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// The standard comparison rows, or `None` for the specialized
    /// table shapes.
    pub fn compare_rows(&self) -> Option<&[Row]> {
        match &self.rows {
            FigureRows::Compare(r) => Some(r),
            _ => None,
        }
    }
}

/// Prints a [`FigureResult`] as the table the paper reports. This is the
/// single text renderer: builders never print, so they can run on worker
/// threads in any order while output stays deterministic.
pub fn render(fig: &FigureResult) {
    println!("\n=== {} ===", fig.title);
    match &fig.rows {
        FigureRows::Compare(rows) => {
            let unit = &fig.unit;
            println!(
                "{:<16} {:>12} {:>12} {:>8} | {:>9} {:>9} {:>8}",
                "x",
                format!("non [{unit}]"),
                format!("ioat [{unit}]"),
                "tput+%",
                "non-cpu%",
                "ioat-cpu%",
                "cpu-ben%"
            );
            for r in rows {
                println!(
                    "{:<16} {:>12.0} {:>12.0} {:>8.1} | {:>9.1} {:>9.1} {:>8.1}",
                    r.label,
                    r.non_ioat,
                    r.ioat,
                    r.improvement() * 100.0,
                    r.non_cpu * 100.0,
                    r.ioat_cpu * 100.0,
                    r.cpu_benefit() * 100.0
                );
            }
        }
        FigureRows::Copy(rows) => {
            println!(
                "{:<8} {:>12} {:>14} {:>10} {:>13} {:>8}",
                "size", "copy-cache", "copy-nocache", "DMA-copy", "DMA-overhead", "overlap%"
            );
            for r in rows {
                println!(
                    "{:<8} {:>12.2} {:>14.2} {:>10.2} {:>13.2} {:>8.1}",
                    ioat_simcore::time::units::fmt_bytes(r.size),
                    r.copy_cache_us,
                    r.copy_nocache_us,
                    r.dma_copy_us,
                    r.dma_overhead_us,
                    r.overlap * 100.0
                );
            }
        }
        FigureRows::Splitup(rows) => {
            println!(
                "{:<8} {:>9} {:>9} {:>9} | {:>8} {:>9} | {:>9} {:>10}",
                "size", "non", "dma", "split", "dma-cpu%", "split-cpu%", "dma-tput%", "split-tput%"
            );
            for r in rows {
                println!(
                    "{:<8} {:>9.0} {:>9.0} {:>9.0} | {:>8.1} {:>9.1} | {:>9.1} {:>10.1}",
                    ioat_simcore::time::units::fmt_bytes(r.msg_size),
                    r.non_ioat.mbps,
                    r.ioat_dma.mbps,
                    r.ioat_split.mbps,
                    r.dma_cpu_benefit() * 100.0,
                    r.split_cpu_benefit() * 100.0,
                    r.dma_throughput_benefit() * 100.0,
                    r.split_throughput_benefit() * 100.0
                );
            }
        }
        FigureRows::Pinning(rows) => {
            println!(
                "{:<10} {:>14} {:>14} {:>14}",
                "size", "pin=25ns/page", "pin=250ns/page", "pin=1us/page"
            );
            for r in rows {
                println!(
                    "{:<10} {:>14.2} {:>14.2} {:>14.2}",
                    ioat_simcore::time::units::fmt_bytes(r.size),
                    r.pin_us[0],
                    r.pin_us[1],
                    r.pin_us[2]
                );
            }
        }
    }
    for note in &fig.notes {
        println!("{note}");
    }
}

/// Builds the standard ports/threads/clients comparison figure by
/// fanning one job per point across `jobs` workers.
fn compare_figure<P, F>(
    name: &str,
    title: &str,
    unit: &str,
    points: Vec<P>,
    jobs: usize,
    point_fn: F,
) -> FigureResult
where
    P: Send,
    F: Fn(P) -> Row + Send + Sync,
{
    let point_fn = &point_fn;
    let rows = sweep::run_jobs(
        points
            .into_iter()
            .map(|p| move || point_fn(p))
            .collect::<Vec<_>>(),
        jobs,
    );
    FigureResult::new(name, title, unit, FigureRows::Compare(rows))
}

/// One sweep cell of a comparison figure: its row, notes, simulator
/// events and parallel-engine telemetry.
type Cell = (Row, Vec<String>, u64, Vec<ParsimStats>);

/// Folds sweep cells, in order, into a comparison figure.
fn cells_figure(name: &str, title: &str, unit: &str, cells: Vec<Cell>) -> FigureResult {
    let mut fig = FigureResult::new(name, title, unit, FigureRows::Compare(Vec::new()));
    let mut rows = Vec::with_capacity(cells.len());
    for (row, notes, events, parsim) in cells {
        rows.push(row);
        fig.notes.extend(notes);
        fig.sim_events += events;
        fig.parsim.extend(parsim);
    }
    fig.rows = FigureRows::Compare(rows);
    fig
}

/// One partitioned I/OAT-pair cell: runs `non_cfg` then `ioat_cfg` on
/// the parallel engine and compares TPS and proxy-tier CPU under
/// `label`. `notes` renders the cell's note lines from the two results;
/// the pair's [`ParsimStats`] are labelled `"{label} non"` and
/// `"{label} ioat"`.
fn dc_pair_cell(
    label: String,
    non_cfg: &ScaleConfig,
    ioat_cfg: &ScaleConfig,
    sim_threads: usize,
    notes: impl FnOnce(&ScaleResult, &ScaleResult) -> Vec<String>,
) -> Cell {
    let (non, non_rep) = run_partitioned(non_cfg, sim_threads);
    let (ioat, ioat_rep) = run_partitioned(ioat_cfg, sim_threads);
    let parsim = [("non", &non_rep), ("ioat", &ioat_rep)]
        .into_iter()
        .map(|(suffix, rep)| ParsimStats {
            label: format!("{label} {suffix}"),
            partitions: rep.partitions,
            rounds: rep.rounds,
            mean_window_ns: rep.mean_window_ns(),
            events: rep.events.clone(),
        })
        .collect();
    let row = Row {
        label,
        non_ioat: non.tps,
        ioat: ioat.tps,
        non_cpu: non.proxy_cpu,
        ioat_cpu: ioat.proxy_cpu,
    };
    (
        row,
        notes(&non, &ioat),
        non.sim_events + ioat.sim_events,
        parsim,
    )
}

/// Fig. 3a — bandwidth vs number of ports.
pub fn fig3a(window: ExperimentWindow, jobs: usize) -> FigureResult {
    compare_figure(
        "fig3a",
        "Fig 3a: Bandwidth (Mbps) vs ports",
        "Mbps",
        (1..=6).collect(),
        jobs,
        move |ports| {
            let mut cfg = bandwidth::BandwidthConfig::paper(ports);
            cfg.window = window;
            let c = bandwidth::compare(&cfg);
            Row {
                label: format!("{ports} ports"),
                non_ioat: c.non_ioat.mbps,
                ioat: c.ioat.mbps,
                non_cpu: c.non_ioat.rx_cpu,
                ioat_cpu: c.ioat.rx_cpu,
            }
        },
    )
}

/// Fig. 3b — bi-directional bandwidth vs number of ports.
pub fn fig3b(window: ExperimentWindow, jobs: usize) -> FigureResult {
    compare_figure(
        "fig3b",
        "Fig 3b: Bi-directional bandwidth (Mbps) vs ports",
        "Mbps",
        (1..=6).collect(),
        jobs,
        move |ports| {
            let mut cfg = bidirectional::BidirConfig::paper(ports);
            cfg.window = window;
            let c = bidirectional::compare(&cfg);
            Row {
                label: format!("{ports} ports"),
                non_ioat: c.non_ioat.mbps,
                ioat: c.ioat.mbps,
                non_cpu: c.non_ioat.rx_cpu,
                ioat_cpu: c.ioat.rx_cpu,
            }
        },
    )
}

/// Fig. 4 — multi-stream bandwidth vs thread count.
pub fn fig4(window: ExperimentWindow, jobs: usize) -> FigureResult {
    compare_figure(
        "fig4",
        "Fig 4: Multi-stream bandwidth (Mbps) vs threads",
        "Mbps",
        vec![1usize, 2, 4, 6, 8, 10, 12],
        jobs,
        move |threads| {
            let mut cfg = multistream::MultiStreamConfig::paper(threads);
            cfg.window = window;
            let c = multistream::compare(&cfg);
            Row {
                label: format!("{threads} threads"),
                non_ioat: c.non_ioat.mbps,
                ioat: c.ioat.mbps,
                non_cpu: c.non_ioat.rx_cpu,
                ioat_cpu: c.ioat.rx_cpu,
            }
        },
    )
}

fn sockopt_fig(
    name: &str,
    title: &str,
    window: ExperimentWindow,
    jobs: usize,
    bidirectional: bool,
) -> FigureResult {
    let ports = 6;
    compare_figure(
        name,
        title,
        "Mbps",
        SocketOpts::all_cases().to_vec(),
        jobs,
        move |(label, opts)| {
            let c = if bidirectional {
                bidirectional::compare(&bidirectional::BidirConfig {
                    ports,
                    opts,
                    window,
                })
            } else {
                bandwidth::compare(&bandwidth::BandwidthConfig {
                    ports,
                    opts,
                    window,
                })
            };
            Row {
                label: label.to_string(),
                non_ioat: c.non_ioat.mbps,
                ioat: c.ioat.mbps,
                non_cpu: c.non_ioat.rx_cpu,
                ioat_cpu: c.ioat.rx_cpu,
            }
        },
    )
}

/// Fig. 5a — bandwidth under socket-optimization Cases 1–5.
pub fn fig5a(window: ExperimentWindow, jobs: usize) -> FigureResult {
    sockopt_fig(
        "fig5a",
        "Fig 5a: Bandwidth under optimizations (Mbps)",
        window,
        jobs,
        false,
    )
}

/// Fig. 5b — bi-directional bandwidth under Cases 1–5.
pub fn fig5b(window: ExperimentWindow, jobs: usize) -> FigureResult {
    sockopt_fig(
        "fig5b",
        "Fig 5b: Bi-dir bandwidth under optimizations (Mbps)",
        window,
        jobs,
        true,
    )
}

/// Fig. 6 — CPU copy vs DMA copy (µs, plus overlap).
pub fn fig6(jobs: usize) -> FigureResult {
    let rows = sweep::run_jobs(
        copybench::paper_sizes()
            .into_iter()
            .map(|size| move || copybench::row(size))
            .collect::<Vec<_>>(),
        jobs,
    );
    FigureResult::new(
        "fig6",
        "Fig 6: CPU-based copy vs DMA-based copy",
        "us",
        FigureRows::Copy(rows),
    )
}

/// Fig. 7a/7b — feature split-up across message sizes.
pub fn fig7(window: ExperimentWindow, jobs: usize) -> FigureResult {
    let cfg = splitup::SplitupConfig { ports: 4, window };
    let rows = sweep::run_jobs(
        splitup::small_sizes()
            .into_iter()
            .chain(splitup::large_sizes())
            .map(|size| move || splitup::row(&cfg, size))
            .collect::<Vec<_>>(),
        jobs,
    );
    FigureResult::new(
        "fig7",
        "Fig 7: I/OAT split-up (4 ports)",
        "Mbps",
        FigureRows::Splitup(rows),
    )
}

/// Fig. 8a — data-center TPS with single-file traces.
pub fn fig8a(window: ExperimentWindow, jobs: usize) -> FigureResult {
    compare_figure(
        "fig8a",
        "Fig 8a: Data-center TPS, single-file traces",
        "TPS",
        [2u64, 4, 6, 8, 10].into_iter().enumerate().collect(),
        jobs,
        move |(i, kb)| {
            let mut non_cfg = DataCenterConfig::paper(IoatConfig::disabled());
            non_cfg.window = window;
            let mut ioat_cfg = non_cfg.clone();
            ioat_cfg.ioat = IoatConfig::full();
            let non = tiers::run_single_file(&non_cfg, kb * 1024);
            let ioat = tiers::run_single_file(&ioat_cfg, kb * 1024);
            Row {
                label: format!("Trace {} ({kb}K)", i + 1),
                non_ioat: non.tps,
                ioat: ioat.tps,
                non_cpu: non.proxy_cpu,
                ioat_cpu: ioat.proxy_cpu,
            }
        },
    )
}

/// Fig. 8b — data-center TPS with Zipf traces.
pub fn fig8b(window: ExperimentWindow, jobs: usize) -> FigureResult {
    compare_figure(
        "fig8b",
        "Fig 8b: Data-center TPS, Zipf traces",
        "TPS",
        vec![0.95, 0.90, 0.75, 0.50],
        jobs,
        move |alpha| {
            let mut non_cfg = DataCenterConfig::paper(IoatConfig::disabled());
            non_cfg.window = window;
            non_cfg.proxy_cache_bytes = 512 << 20;
            non_cfg.client_ports = 4;
            non_cfg.tier_ports = 2;
            let mut ioat_cfg = non_cfg.clone();
            ioat_cfg.ioat = IoatConfig::full();
            let non = tiers::run_zipf(&non_cfg, alpha, 10_000, 2 * 1024);
            let ioat = tiers::run_zipf(&ioat_cfg, alpha, 10_000, 2 * 1024);
            Row {
                label: format!("alpha={alpha}"),
                non_ioat: non.tps,
                ioat: ioat.tps,
                non_cpu: non.proxy_cpu,
                ioat_cpu: ioat.proxy_cpu,
            }
        },
    )
}

/// Fig. 9 — emulated clients inside the data-center (16 K file).
pub fn fig9(window: ExperimentWindow, jobs: usize) -> FigureResult {
    compare_figure(
        "fig9",
        "Fig 9: Emulated clients, 16K file (TPS, client CPU)",
        "TPS",
        emulated::paper_thread_counts(),
        jobs,
        move |threads| {
            let mut non_cfg = EmulatedConfig::paper(threads, IoatConfig::disabled());
            non_cfg.window = window;
            let mut ioat_cfg = non_cfg;
            ioat_cfg.ioat = IoatConfig::full();
            let non = emulated::run(&non_cfg);
            let ioat = emulated::run(&ioat_cfg);
            Row {
                label: format!("{threads} clients"),
                non_ioat: non.tps,
                ioat: ioat.tps,
                non_cpu: non.client_cpu,
                ioat_cpu: ioat.client_cpu,
            }
        },
    )
}

fn pvfs_fig(
    name: &str,
    title: &str,
    io_servers: usize,
    write: bool,
    window: ExperimentWindow,
    jobs: usize,
) -> FigureResult {
    compare_figure(
        name,
        title,
        "MB/s",
        (1..=6).collect(),
        jobs,
        move |clients| {
            let mut non_cfg = PvfsConfig::paper(io_servers, clients, IoatConfig::disabled());
            non_cfg.window = window;
            let mut ioat_cfg = non_cfg.clone();
            ioat_cfg.ioat = IoatConfig::full();
            let (non, ioat) = if write {
                (concurrent_write(&non_cfg), concurrent_write(&ioat_cfg))
            } else {
                (concurrent_read(&non_cfg), concurrent_read(&ioat_cfg))
            };
            // The paper reports client CPU for reads, server CPU for
            // writes (receiver side).
            let (ncpu, icpu) = if write {
                (non.server_cpu, ioat.server_cpu)
            } else {
                (non.client_cpu, ioat.client_cpu)
            };
            Row {
                label: format!("{clients} clients"),
                non_ioat: non.mbytes_per_sec,
                ioat: ioat.mbytes_per_sec,
                non_cpu: ncpu,
                ioat_cpu: icpu,
            }
        },
    )
}

/// Fig. 10a — PVFS concurrent read, 6 I/O servers.
pub fn fig10a(window: ExperimentWindow, jobs: usize) -> FigureResult {
    pvfs_fig(
        "fig10a",
        "Fig 10a: PVFS concurrent read, 6 I/O servers",
        6,
        false,
        window,
        jobs,
    )
}

/// Fig. 10b — PVFS concurrent read, 5 I/O servers.
pub fn fig10b(window: ExperimentWindow, jobs: usize) -> FigureResult {
    pvfs_fig(
        "fig10b",
        "Fig 10b: PVFS concurrent read, 5 I/O servers",
        5,
        false,
        window,
        jobs,
    )
}

/// Fig. 11a — PVFS concurrent write, 6 I/O servers.
pub fn fig11a(window: ExperimentWindow, jobs: usize) -> FigureResult {
    pvfs_fig(
        "fig11a",
        "Fig 11a: PVFS concurrent write, 6 I/O servers",
        6,
        true,
        window,
        jobs,
    )
}

/// Fig. 11b — PVFS concurrent write, 5 I/O servers.
pub fn fig11b(window: ExperimentWindow, jobs: usize) -> FigureResult {
    pvfs_fig(
        "fig11b",
        "Fig 11b: PVFS concurrent write, 5 I/O servers",
        5,
        true,
        window,
        jobs,
    )
}

/// Fig. 12 — PVFS multi-stream read, 1–64 emulated clients.
pub fn fig12(window: ExperimentWindow, jobs: usize) -> FigureResult {
    compare_figure(
        "fig12",
        "Fig 12: PVFS multi-stream read (client CPU)",
        "MB/s",
        vec![1usize, 2, 4, 8, 16, 32, 64],
        jobs,
        move |threads| {
            let mut non_cfg = PvfsConfig::paper(6, 1, IoatConfig::disabled());
            non_cfg.window = window;
            let mut ioat_cfg = non_cfg.clone();
            ioat_cfg.ioat = IoatConfig::full();
            let non = multi_stream_read(&non_cfg, threads);
            let ioat = multi_stream_read(&ioat_cfg, threads);
            Row {
                label: format!("{threads} clients"),
                non_ioat: non.mbytes_per_sec,
                ioat: ioat.mbytes_per_sec,
                non_cpu: non.client_cpu,
                ioat_cpu: ioat.client_cpu,
            }
        },
    )
}

// --- The `fig_pvfs_extended` family (`repro ext-pvfs-*`) ---------------
//
// PVFS scenarios beyond the paper's figures, on the corrected
// single-threaded cost model. Row labels are stable dotted IDs
// (`group/case`, the nereid convention): the group names the swept
// dimension, the case its point — refactors rewire the builders without
// renaming a row, so reports stay diffable across time.

/// ext-pvfs-stripe — striping-factor sweep past the paper's 6 servers:
/// each extra I/O daemon brings its own GigE port, so the wire ceiling
/// keeps climbing while the shared 4-core client node's receive path
/// (where the reads land) saturates — the I/OAT gap is widest exactly
/// where the node, not the wire, is the constraint.
pub fn ext_pvfs_stripe(window: ExperimentWindow, jobs: usize) -> FigureResult {
    compare_figure(
        "ext-pvfs-stripe",
        "Ext: PVFS read vs striping factor (6 clients)",
        "MB/s",
        vec![2usize, 4, 6, 8, 10, 12],
        jobs,
        move |servers| {
            let mut non_cfg = PvfsConfig::paper(servers, 6, IoatConfig::disabled());
            non_cfg.window = window;
            let mut ioat_cfg = non_cfg.clone();
            ioat_cfg.ioat = IoatConfig::full();
            let non = concurrent_read(&non_cfg);
            let ioat = concurrent_read(&ioat_cfg);
            Row {
                label: format!("pvfs.stripe/s{servers}"),
                non_ioat: non.mbytes_per_sec,
                ioat: ioat.mbytes_per_sec,
                non_cpu: non.client_cpu,
                ioat_cpu: ioat.client_cpu,
            }
        },
    )
}

/// ext-pvfs-clients — concurrent-client scaling beyond the paper's 6
/// compute processes, at the paper's 6 servers.
pub fn ext_pvfs_clients(window: ExperimentWindow, jobs: usize) -> FigureResult {
    compare_figure(
        "ext-pvfs-clients",
        "Ext: PVFS read vs client count (6 servers)",
        "MB/s",
        vec![2usize, 4, 6, 8, 12, 16],
        jobs,
        move |clients| {
            let mut non_cfg = PvfsConfig::paper(6, clients, IoatConfig::disabled());
            non_cfg.window = window;
            let mut ioat_cfg = non_cfg.clone();
            ioat_cfg.ioat = IoatConfig::full();
            let non = concurrent_read(&non_cfg);
            let ioat = concurrent_read(&ioat_cfg);
            Row {
                label: format!("pvfs.clients/c{clients}"),
                non_ioat: non.mbytes_per_sec,
                ioat: ioat.mbytes_per_sec,
                non_cpu: non.client_cpu,
                ioat_cpu: ioat.client_cpu,
            }
        },
    )
}

/// ext-pvfs-stripesize — stripe-unit sensitivity around the PVFS 1.x
/// 64 KB default (6 servers × 6 clients, reads): small stripes pay the
/// per-piece request/bookkeeping overhead more often, large stripes
/// lump the serial per-piece work into coarser grains.
pub fn ext_pvfs_stripesize(window: ExperimentWindow, jobs: usize) -> FigureResult {
    compare_figure(
        "ext-pvfs-stripesize",
        "Ext: PVFS read vs stripe size (6x6)",
        "MB/s",
        vec![16u64, 32, 64, 128, 256],
        jobs,
        move |stripe_kb| {
            let mut non_cfg = PvfsConfig::paper(6, 6, IoatConfig::disabled());
            non_cfg.window = window;
            non_cfg.stripe = stripe_kb * 1024;
            let mut ioat_cfg = non_cfg.clone();
            ioat_cfg.ioat = IoatConfig::full();
            let non = concurrent_read(&non_cfg);
            let ioat = concurrent_read(&ioat_cfg);
            Row {
                label: format!("pvfs.stripe_size/{stripe_kb}k"),
                non_ioat: non.mbytes_per_sec,
                ioat: ioat.mbytes_per_sec,
                non_cpu: non.client_cpu,
                ioat_cpu: ioat.client_cpu,
            }
        },
    )
}

/// ext-pvfs-mixed — mixed read/write streams over the same daemons
/// (6 servers, 6 clients, r readers + w writers). The CPU columns
/// report the I/O-server node: it receives every write and serves every
/// read, so it is the shared resource the mix contends on.
pub fn ext_pvfs_mixed(window: ExperimentWindow, jobs: usize) -> FigureResult {
    compare_figure(
        "ext-pvfs-mixed",
        "Ext: PVFS mixed read/write streams (6x6)",
        "MB/s",
        vec![6usize, 4, 3, 2, 0],
        jobs,
        move |readers| {
            let mut non_cfg = PvfsConfig::paper(6, 6, IoatConfig::disabled());
            non_cfg.window = window;
            let mut ioat_cfg = non_cfg.clone();
            ioat_cfg.ioat = IoatConfig::full();
            let non = mixed_streams(&non_cfg, readers);
            let ioat = mixed_streams(&ioat_cfg, readers);
            Row {
                label: format!("pvfs.mixed/r{readers}w{}", 6 - readers),
                non_ioat: non.mbytes_per_sec,
                ioat: ioat.mbytes_per_sec,
                non_cpu: non.server_cpu,
                ioat_cpu: ioat.server_cpu,
            }
        },
    )
}

/// ext-pvfs-meta — metadata-manager contention: every open queues behind
/// the single serial manager daemon (§3.2 — one process), so the time
/// until the *last* client's open completes grows superlinearly with the
/// client count. The primary metric is that completion time in µs, not
/// bandwidth; I/OAT barely moves it (metadata messages are far below the
/// copy-offload threshold), which is itself the result.
pub fn ext_pvfs_meta(window: ExperimentWindow, jobs: usize) -> FigureResult {
    let mut fig = compare_figure(
        "ext-pvfs-meta",
        "Ext: PVFS metadata-manager contention (2 servers)",
        "us",
        vec![4usize, 8, 16, 32],
        jobs,
        move |clients| {
            let mut non_cfg = PvfsConfig::paper(2, clients, IoatConfig::disabled());
            non_cfg.window = window;
            let mut ioat_cfg = non_cfg.clone();
            ioat_cfg.ioat = IoatConfig::full();
            let non = concurrent_read(&non_cfg);
            let ioat = concurrent_read(&ioat_cfg);
            Row {
                label: format!("pvfs.meta/c{clients}"),
                non_ioat: non.last_open_us,
                ioat: ioat.last_open_us,
                non_cpu: non.server_cpu,
                ioat_cpu: ioat.server_cpu,
            }
        },
    );
    fig.notes.push(
        "  metric: time until the last client's open completes (us); \
         opens serialize on the single manager daemon"
            .to_string(),
    );
    fig
}

/// Ablation A1 — the multi-queue feature the paper could not measure
/// (§2.2.3): multi-stream bandwidth with interrupts spread across cores.
pub fn ablation_multiqueue(window: ExperimentWindow, jobs: usize) -> FigureResult {
    compare_figure(
        "abl-mq",
        "Ablation A1: I/OAT vs I/OAT+multi-queue (Mbps)",
        "Mbps",
        vec![4usize, 8, 12],
        jobs,
        move |threads| {
            let mut cfg = multistream::MultiStreamConfig::paper(threads);
            cfg.window = window;
            let base = multistream::run(&cfg, IoatConfig::full());
            let mq = multistream::run(&cfg, IoatConfig::full_with_multi_queue());
            Row {
                label: format!("{threads} threads"),
                non_ioat: base.mbps,
                ioat: mq.mbps,
                non_cpu: base.rx_cpu,
                ioat_cpu: mq.rx_cpu,
            }
        },
    )
}

/// Ablation A2 — user-level asynchronous memcpy (§7/§8 future work):
/// where the pinning cost makes the copy engine unattractive.
pub fn ablation_async_memcpy(jobs: usize) -> FigureResult {
    use ioat_memsim::{AddressAllocator, DmaConfig, DmaEngine, DmaRequest};
    let rows = sweep::run_jobs(
        copybench::paper_sizes()
            .into_iter()
            .map(|size| {
                move || {
                    let mut pin_us = [0.0f64; 3];
                    for (slot, pin_ns) in pin_us.iter_mut().zip([25u64, 250, 1_000]) {
                        let cfg = DmaConfig {
                            pin_per_page: ioat_simcore::SimDuration::from_nanos(pin_ns),
                            ..DmaConfig::default()
                        };
                        let engine = DmaEngine::new(cfg, None);
                        let mut alloc = AddressAllocator::new();
                        let req = DmaRequest::new(alloc.alloc(size), alloc.alloc(size));
                        *slot = engine.total_cost(&req).as_micros_f64();
                    }
                    PinningRow { size, pin_us }
                }
            })
            .collect::<Vec<_>>(),
        jobs,
    );
    FigureResult::new(
        "abl-copy",
        "Ablation A2: user-level async memcpy, pinning-cost sensitivity",
        "us",
        FigureRows::Pinning(rows),
    )
}

/// Ablation A3 — deterministic fault injection (`ioat-faults`).
///
/// Part 1 sweeps independent frame loss over {0, 1e-5, 1e-4, 1e-3} at
/// 2 ports for non-I/OAT and full I/OAT: throughput degrades as loss
/// grows (retransmissions burn wire time and stall the window), while
/// the I/OAT receive-side CPU advantage persists because retransmitted
/// bytes are re-charged through the same receive cost model. Part 2
/// crashes one of two PVFS I/O daemons for a third of the run and shows
/// the client deadline/failover machinery keeping data flowing; its
/// summary lands in [`FigureResult::notes`].
pub fn ablation_faults(window: ExperimentWindow, jobs: usize) -> FigureResult {
    use ioat_faults::{CrashWindow, FaultPlan, TimeWindow};
    use ioat_simcore::{SimDuration, SimTime};

    let point_jobs: Vec<_> = [0.0, 1e-5, 1e-4, 1e-3]
        .into_iter()
        .map(|p| {
            move || {
                let mut cfg = bandwidth::BandwidthConfig::paper(2);
                cfg.window = window;
                let plan = FaultPlan::bernoulli_loss(0xFA017, p);
                let non = bandwidth::run_with_faults(&cfg, IoatConfig::disabled(), &plan);
                let ioat = bandwidth::run_with_faults(&cfg, IoatConfig::full(), &plan);
                let row = Row {
                    label: format!("loss={p:.0e}"),
                    non_ioat: non.throughput.mbps,
                    ioat: ioat.throughput.mbps,
                    non_cpu: non.throughput.rx_cpu,
                    ioat_cpu: ioat.throughput.rx_cpu,
                };
                let note = format!(
                    "  loss={p:<7.0e} drops {:>6}  retx {:>6}  rto {:>4}",
                    non.frames_dropped + ioat.frames_dropped,
                    non.retransmits + ioat.retransmits,
                    non.rto_timeouts + ioat.rto_timeouts,
                );
                (row, note)
            }
        })
        .collect();
    let (rows, mut notes): (Vec<Row>, Vec<String>) =
        sweep::run_jobs(point_jobs, jobs).into_iter().unzip();

    // Part 2: PVFS I/O-daemon crash + failover, clean vs crashed run.
    let to = window.to();
    let mut crashed = PvfsConfig::quick_test(2, 2, IoatConfig::disabled());
    crashed.window = window;
    crashed.faults.crashes.push(CrashWindow {
        service: 0,
        window: TimeWindow::new(
            SimTime::from_nanos(to.as_nanos() / 10),
            SimTime::from_nanos(to.as_nanos() * 2 / 5),
        ),
    });
    crashed.retry.timeout = SimDuration::from_nanos((to.as_nanos() / 30).max(1_000_000));
    let mut clean = PvfsConfig::quick_test(2, 2, IoatConfig::disabled());
    clean.window = window;
    let mut failover = sweep::run_jobs(
        vec![
            Box::new(move || concurrent_read(&clean)) as Box<dyn FnOnce() -> _ + Send>,
            Box::new(move || concurrent_read(&crashed)),
        ],
        jobs,
    );
    let f = failover.pop().expect("two failover jobs");
    let c = failover.pop().expect("two failover jobs");
    notes.push("--- A3b: PVFS I/O-daemon crash + failover (2 servers) ---".to_string());
    notes.push(format!("  clean   {:>8.0} MB/s", c.mbytes_per_sec));
    notes.push(format!(
        "  crashed {:>8.0} MB/s  (drops {}, timeouts {}, retries {}, failovers {}, stale {}, failed {})",
        f.mbytes_per_sec, f.daemon_drops, f.timeouts, f.retries, f.failovers, f.stale_replies,
        f.failed_ops
    ));

    let mut fig = FigureResult::new(
        "abl-faults",
        "Ablation A3a: frame loss vs throughput/CPU (2 ports)",
        "Mbps",
        FigureRows::Compare(rows),
    );
    fig.notes = notes;
    fig
}

/// The fabric family — the datacenter behind a fat-tree Clos fabric,
/// swept over host count × oversubscription with I/OAT on/off. Quick
/// windows run a two-point smoke on a 1024-host fat-tree(16) with
/// ~10 K emulated clients; full windows add the oversubscription sweep
/// at ~100 K clients and the fat-tree(24) headline point fronting
/// ~10⁶ clients. Every point runs on the conservative parallel engine
/// (`ioat_datacenter::run_partitioned`) with `sim_threads` workers —
/// results are bit-identical at any worker count, so `sim_threads` only
/// buys wall-clock. Unlike the paper figures this family also reports
/// simulator scale: total events executed (and thus events/sec in the
/// JSON report), per-partition event counts and achieved window sizes
/// ([`ParsimStats`]), plus per-point tail-latency and switch-drop notes.
pub fn fig_fabric(window: ExperimentWindow, jobs: usize, sim_threads: usize) -> FigureResult {
    let quick = window.measure <= ExperimentWindow::quick().measure;
    let points: Vec<(usize, f64, usize)> = if quick {
        vec![(16, 1.0, 10_240), (16, 4.0, 10_240)]
    } else {
        vec![
            (16, 1.0, 102_400),
            (16, 2.0, 102_400),
            (16, 4.0, 102_400),
            (24, 4.0, 1_000_512),
        ]
    };
    fig_fabric_points(points, window, jobs, sim_threads)
}

/// The `fig_fabric` sweep over an explicit `(k, oversubscription,
/// clients)` point list. The determinism suite drives this with a
/// miniature point set (debug builds cannot afford 1024-host sweeps);
/// [`fig_fabric`] is exactly this with the standard points.
pub fn fig_fabric_points(
    points: Vec<(usize, f64, usize)>,
    window: ExperimentWindow,
    jobs: usize,
    sim_threads: usize,
) -> FigureResult {
    let sim_threads = sim_threads.max(1);
    let results = sweep::run_jobs(
        points
            .into_iter()
            .map(|(k, oversub, clients)| {
                move || {
                    let mut non_cfg =
                        ScaleConfig::fat_tree(k, oversub, clients, IoatConfig::disabled());
                    non_cfg.window = window;
                    let mut ioat_cfg = non_cfg;
                    ioat_cfg.ioat = IoatConfig::full();
                    let label = format!("k={k} o={oversub:.0} {}K", clients / 1000);
                    dc_pair_cell(label, &non_cfg, &ioat_cfg, sim_threads, |non, ioat| {
                        vec![format!(
                            "  k={k:<2} o={oversub:.0} {:>5} hosts {clients:>9} clients: \
                             p50 {:>6} us  p99 {:>7} us  drops {:>7}  web-cpu {:>5.1}%",
                            k * k * k / 4,
                            ioat.latency_p50_us,
                            ioat.latency_p99_us,
                            non.tail_drops + ioat.tail_drops,
                            ioat.web_cpu * 100.0
                        )]
                    })
                }
            })
            .collect::<Vec<_>>(),
        jobs,
    );
    cells_figure(
        "fig_fabric",
        "Fabric: fat-tree datacenter TPS, hosts x oversubscription",
        "TPS",
        results,
    )
}

/// Ablation A5 — the fabric fault domain at datacenter scale.
///
/// Sweeps link-flap count × crashed-switch count over the `fig_fabric`
/// fat-tree(16) with I/OAT off/on. Every cell runs with the overload
/// protections armed — a proxy admission budget and hedged retries — so
/// the table reports not just degradation (TPS/p99 under faults) but the
/// recovery machinery at work: ECMP failover, shed load, hedge wins.
/// The flap schedules are prefix-supersets (f2's windows are a prefix of
/// f8's), so blackhole counts are structurally monotone in flap count.
pub fn abl_fabric_faults(
    window: ExperimentWindow,
    jobs: usize,
    sim_threads: usize,
) -> FigureResult {
    let quick = window.measure <= ExperimentWindow::quick().measure;
    let clients = if quick { 10_240 } else { 102_400 };
    let grid: Vec<(u32, u32)> = vec![(0, 0), (2, 0), (8, 0), (0, 2), (2, 2), (8, 2)];
    abl_fabric_faults_points(16, clients, grid, window, jobs, sim_threads)
}

/// The `abl-fabric-faults` sweep over an explicit topology size and
/// `(flaps_per_link, crashed_switches)` grid. The determinism suite
/// drives this with a miniature fat-tree (debug builds cannot afford
/// 1024-host sweeps); [`abl_fabric_faults`] is exactly this with the
/// standard grid.
pub fn abl_fabric_faults_points(
    k: usize,
    clients: usize,
    grid: Vec<(u32, u32)>,
    window: ExperimentWindow,
    jobs: usize,
    sim_threads: usize,
) -> FigureResult {
    use ioat_datacenter::scale::FabricFaultSpec;
    use ioat_faults::RetryPolicy;
    use ioat_simcore::SimDuration;

    let sim_threads = sim_threads.max(1);
    // Hedge deadline tracks the window so quick smokes still hedge: a
    // tenth of the measurement span, floored at 1 ms.
    let hedge = RetryPolicy {
        timeout: SimDuration::from_nanos((window.measure.as_nanos() / 10).max(1_000_000)),
        max_retries: 2,
        backoff: 2.0,
    };
    let results = sweep::run_jobs(
        grid.into_iter()
            .map(|(flaps, crashed)| {
                move || {
                    let mut non_cfg =
                        ScaleConfig::fat_tree(k, 1.0, clients, IoatConfig::disabled());
                    non_cfg.window = window;
                    non_cfg.faults = FabricFaultSpec {
                        flaps_per_link: flaps,
                        crashed_switches: crashed,
                        ..FabricFaultSpec::none()
                    };
                    non_cfg.admit_budget = Some(32);
                    non_cfg.hedge = Some(hedge);
                    let mut ioat_cfg = non_cfg;
                    ioat_cfg.ioat = IoatConfig::full();
                    let label = format!("abl.fabfault/f{flaps}c{crashed}");
                    dc_pair_cell(label, &non_cfg, &ioat_cfg, sim_threads, |non, ioat| {
                        vec![format!(
                            "  f{flaps} c{crashed}: p99 {:>7}/{:>7} us  blackholes {:>7}  \
                             shed {:>6}  hedges {:>6}",
                            non.latency_p99_us,
                            ioat.latency_p99_us,
                            non.route_blackholes + ioat.route_blackholes,
                            non.shed + ioat.shed,
                            non.hedges + ioat.hedges,
                        )]
                    })
                }
            })
            .collect::<Vec<_>>(),
        jobs,
    );
    cells_figure(
        "abl-fabric-faults",
        "Ablation A5: fabric faults, flaps x crashed switches, protection armed",
        "TPS",
        results,
    )
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`), or
/// `None` where `/proc/self/status` is unavailable. The high-water mark
/// since the process started or since the last successful
/// [`reset_peak_rss`], whichever is later.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Restarts the process's peak-RSS high-water mark at its current RSS
/// (Linux: `5` written to `/proc/self/clear_refs`), so the next
/// [`peak_rss_bytes`] reading covers only what ran after the call.
/// Returns `false` where the reset is unavailable.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Builds one figure by target name. Returns `None` for an unknown
/// name — the `repro` CLI validates names first.
/// `sim_threads` sets the partitioned-engine worker count for the
/// figures that run on it (the `fig_fabric` family and the datacenter
/// cells of `abl-modern`; the paper figures are single simulations and
/// ignore it). Results are bit-identical at any `sim_threads` value.
pub fn run_figure(
    name: &str,
    window: ExperimentWindow,
    jobs: usize,
    sim_threads: usize,
) -> Option<FigureResult> {
    Some(match name {
        "fig3a" => fig3a(window, jobs),
        "fig3b" => fig3b(window, jobs),
        "fig4" => fig4(window, jobs),
        "fig5a" => fig5a(window, jobs),
        "fig5b" => fig5b(window, jobs),
        "fig6" => fig6(jobs),
        "fig7" => fig7(window, jobs),
        "fig8a" => fig8a(window, jobs),
        "fig8b" => fig8b(window, jobs),
        "fig9" => fig9(window, jobs),
        "fig10a" => fig10a(window, jobs),
        "fig10b" => fig10b(window, jobs),
        "fig11a" => fig11a(window, jobs),
        "fig11b" => fig11b(window, jobs),
        "fig12" => fig12(window, jobs),
        "ext-pvfs-stripe" => ext_pvfs_stripe(window, jobs),
        "ext-pvfs-clients" => ext_pvfs_clients(window, jobs),
        "ext-pvfs-stripesize" => ext_pvfs_stripesize(window, jobs),
        "ext-pvfs-mixed" => ext_pvfs_mixed(window, jobs),
        "ext-pvfs-meta" => ext_pvfs_meta(window, jobs),
        "abl-mq" => ablation_multiqueue(window, jobs),
        "abl-copy" => ablation_async_memcpy(jobs),
        "abl-faults" => ablation_faults(window, jobs),
        "abl-modern" => modern::ablation_modern(window, jobs, sim_threads),
        "abl-fabric-faults" => abl_fabric_faults(window, jobs, sim_threads),
        "fig_fabric" => fig_fabric(window, jobs, sim_threads),
        _ => return None,
    })
}

/// Options for [`run_figure_supervised`].
#[derive(Debug, Clone)]
pub struct SuperviseOpts {
    /// Open an audit scope around the figure (the `--audit` flag): every
    /// runtime invariant check collects a structured violation instead of
    /// debug-panicking, and any violation marks the figure failed. Audits
    /// are pure reads over counters, so rows stay bit-identical either way.
    pub audit: bool,
    /// Deterministic watchdog: clamps every simulation the figure builds
    /// to this many events, so a wedged job dies with a reproducible
    /// `event limit exceeded` panic rather than hanging. Rides on the
    /// audit scope, so it requires `audit`. `None` keeps the engine's
    /// default 2·10⁹-event cap (still a hard bound, just a generous one).
    pub event_budget: Option<u64>,
    /// Inject a deliberate panic into the named figure's sweep (the
    /// `--fail` flag): CI's forced-failure smoke uses this to prove a
    /// crashing figure is isolated and reported without faking anything
    /// in the reporting path itself.
    pub force_fail: Option<String>,
    /// Partitioned-engine worker count for the figures that run on it
    /// (the `--sim-threads` flag; see [`run_figure`]). Defaults to 1.
    pub sim_threads: usize,
}

impl Default for SuperviseOpts {
    fn default() -> Self {
        SuperviseOpts {
            audit: false,
            event_budget: None,
            force_fail: None,
            sim_threads: 1,
        }
    }
}

/// [`run_figure`] under supervision: panics (including the event-budget
/// watchdog's) and audit violations become [`FigureResult::error`]
/// instead of crashing the run. A failed figure is not retried: it is a
/// deterministic function of its configuration, so it would fail again.
/// Successful figures are byte-for-byte what [`run_figure`] returns plus
/// the host readings `wall_ms` and `peak_rss_bytes`, which are set here
/// on every path. Returns `None` only for an unknown name.
pub fn run_figure_supervised(
    name: &str,
    window: ExperimentWindow,
    jobs: usize,
    opts: &SuperviseOpts,
) -> Option<FigureResult> {
    let start = std::time::Instant::now();
    let force = opts.force_fail.as_deref() == Some(name);
    let build = || {
        if force {
            // Push the deliberate panic through the sweep pool so the
            // smoke exercises the exact worker/catch_unwind path a real
            // point failure takes under `--jobs N`.
            let poison: Vec<Box<dyn FnOnce() + Send>> = vec![
                Box::new(|| ()),
                Box::new(move || panic!("deliberate failure injected by --fail")),
            ];
            sweep::run_jobs(poison, jobs);
        }
        run_figure(name, window, jobs, opts.sim_threads)
    };
    let (result, violations) = if opts.audit {
        ioat_guard::with_audit_budget(opts.event_budget, build)
    } else {
        (
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)),
            Vec::new(),
        )
    };
    // A failure carries the classified reason plus, for audit failures,
    // the rows that were built anyway (evidence for the report reader;
    // `status: "failed"` still marks them suspect).
    let (reason, partial) = match result {
        Err(payload) => (Some(ioat_guard::failure_reason(payload.as_ref())), None),
        Ok(None) => return None,
        Ok(Some(fig)) if violations.is_empty() => (None, Some(fig)),
        Ok(Some(fig)) => (
            Some(format!(
                "audit: {} violation(s); first: {}",
                violations.len(),
                violations[0]
            )),
            Some(fig),
        ),
    };
    let mut fig = partial.unwrap_or_else(|| {
        FigureResult::new(
            name,
            &format!("{name} (failed)"),
            "",
            FigureRows::Compare(Vec::new()),
        )
    });
    fig.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    fig.peak_rss_bytes = peak_rss_bytes();
    fig.error = reason;
    Some(fig)
}

/// Traces one configuration twice, non-I/OAT then full I/OAT. `run`
/// drives one run into the tracer it is given, prints that run's lines and
/// returns its CPU split-up; `summarize` then prints lines comparing the
/// two split-ups. The full-I/OAT run is written as a Perfetto-loadable
/// Chrome trace at `path` plus the event CSV next to it. Tracing is
/// inherently single-threaded; this path never uses the sweep pool.
fn trace_non_and_full(
    path: &std::path::Path,
    mut run: impl FnMut(&str, IoatConfig, &ioat_telemetry::Tracer) -> ioat_telemetry::SplitupReport,
    summarize: impl FnOnce(&ioat_telemetry::SplitupReport, &ioat_telemetry::SplitupReport),
) {
    use ioat_telemetry::{export, Tracer};
    let non = run("non-I/OAT", IoatConfig::disabled(), &Tracer::enabled());
    let tracer = Tracer::enabled();
    let full = run("I/OAT full", IoatConfig::full(), &tracer);
    summarize(&non, &full);
    if let Err(e) = export::write_chrome_trace(path, &tracer) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    let csv_events = path.with_extension("events.csv");
    if let Err(e) = std::fs::write(&csv_events, tracer.with_events(export::events_csv)) {
        eprintln!("error: cannot write {}: {e}", csv_events.display());
        std::process::exit(1);
    }
    println!(
        "\nwrote {} ({} events) and {}",
        path.display(),
        tracer.len(),
        csv_events.display()
    );
    println!("open the JSON at https://ui.perfetto.dev or chrome://tracing");
}

/// Runs the Fig. 7 configuration with tracing on, prints the per-category
/// CPU split-up over the measurement window for non-I/OAT and full I/OAT,
/// and writes the full-I/OAT run's Chrome trace to `path` with the event
/// CSV beside it.
pub fn trace_fig7(window: ExperimentWindow, path: &std::path::Path) {
    use ioat_telemetry::{cpu_splitup, Category};
    let cfg = splitup::SplitupConfig { ports: 2, window };
    let msg = 64 * 1024;
    let run = |label: &str, ioat, tracer: &_| {
        let (res, (from, to)) = splitup::run_one_traced(&cfg, ioat, msg, tracer);
        let report = tracer.with_events(|evs| cpu_splitup(evs, from, to));
        println!("\n=== Fig 7 CPU split-up ({label}, 64 KB messages) ===");
        print!("{}", report.render_table());
        for (cat, share) in report.receive_path_shares() {
            println!(
                "  {:<10} {:>5.1}% of the CPU receive path",
                cat.name(),
                share * 100.0
            );
        }
        println!(
            "  rx-cpu {:>5.1}%   goodput {:>6.0} Mbps   {} events",
            res.rx_cpu * 100.0,
            res.mbps,
            tracer.len()
        );
        report
    };
    trace_non_and_full(path, run, |non, full| {
        let receive_path = [Category::Interrupt, Category::Protocol, Category::Copy];
        println!(
            "\n  copy share of the CPU receive path: {:.1}% -> {:.1}%",
            non.share_among(Category::Copy, &receive_path) * 100.0,
            full.share_among(Category::Copy, &receive_path) * 100.0
        );
        println!(
            "  copy time absorbed by the DMA engine: {:.0} us on the dma-chan track",
            full.busy(Category::Dma).as_micros_f64()
        );
    });
}

/// Runs the Fig. 10a configuration (6 servers × 6 clients, concurrent
/// read) with tracing on for non-I/OAT and full I/OAT, prints the
/// per-component CPU split-up on both nodes — this is the telemetry view
/// that diagnosed the PVFS throughput bug: the I/O-server node's daemons
/// barely register while the compute node's process-context receive path
/// saturates, so the binding constraint is CPU, not the wire — and writes
/// the full-I/OAT run's Chrome trace to `path` with the event CSV beside
/// it.
pub fn trace_fig10a(window: ExperimentWindow, path: &std::path::Path) {
    use ioat_pvfs::harness::concurrent_read_traced;
    use ioat_telemetry::{cpu_splitup, Category};
    let elapsed = (window.to() - window.from()).as_secs_f64();
    let run = |label: &str, ioat, tracer: &_| {
        let mut cfg = PvfsConfig::paper(6, 6, ioat);
        cfg.window = window;
        let res = concurrent_read_traced(&cfg, tracer);
        let report = tracer.with_events(|evs| cpu_splitup(evs, window.from(), window.to()));
        println!("\n=== Fig 10a CPU split-up ({label}, 6 servers x 6 clients, read) ===");
        print!("{}", report.render_table());
        // Core-equivalents per node over the window: node 0 is the
        // compute (client) node, node 1 the I/O-server node.
        for (node, name) in [(0u32, "compute"), (1u32, "io-server")] {
            let mut line = format!("  {name:<10}");
            let mut total = 0.0;
            for cat in [
                Category::Interrupt,
                Category::Protocol,
                Category::Copy,
                Category::Dma,
                Category::App,
            ] {
                let busy: f64 = report
                    .tracks()
                    .filter(|t| t.node == node)
                    .map(|t| report.busy_on(t, cat).as_secs_f64())
                    .sum();
                total += busy / elapsed;
                line.push_str(&format!(" {}={:.2}", cat.name(), busy / elapsed));
            }
            println!("{line}  total={total:.2} cores");
        }
        println!(
            "  bandwidth {:>6.0} MB/s   client-cpu {:>5.1}%   server-cpu {:>5.1}%   {} events",
            res.mbytes_per_sec,
            res.client_cpu * 100.0,
            res.server_cpu * 100.0,
            tracer.len()
        );
        report
    };
    trace_non_and_full(path, run, |_, _| {});
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioat_core::metrics::ExperimentWindow;

    #[test]
    fn row_math_matches_paper_definitions() {
        let r = Row {
            label: "x".into(),
            non_ioat: 8569.0,
            ioat: 9754.0,
            non_cpu: 0.60,
            ioat_cpu: 0.30,
        };
        // §5.2.1: 9754 vs 8569 TPS is "14% overall improvement".
        assert!((r.improvement() - 0.1383).abs() < 1e-3);
        // §4: 30% vs 60% CPU is a 50% relative benefit.
        assert!((r.cpu_benefit() - 0.5).abs() < 1e-12);
        let zero = Row {
            label: "z".into(),
            non_ioat: 0.0,
            ioat: 1.0,
            non_cpu: 0.0,
            ioat_cpu: 0.1,
        };
        assert_eq!(zero.improvement(), 0.0);
        assert_eq!(zero.cpu_benefit(), 0.0);
    }

    #[test]
    fn fig6_runner_returns_full_table() {
        let fig = fig6(2);
        let FigureRows::Copy(t) = &fig.rows else {
            panic!("fig6 produces the copy table");
        };
        assert_eq!(t.len(), 7);
        assert!(t.iter().all(|r| r.copy_nocache_us > r.copy_cache_us));
        render(&fig); // smoke: the renderer handles every shape
    }

    #[test]
    fn abl_faults_degrades_monotonically_and_keeps_cpu_advantage() {
        let fig = ablation_faults(ExperimentWindow::quick(), 2);
        let rows = fig.compare_rows().expect("loss sweep is a compare table");
        assert_eq!(rows.len(), 4);
        for r in rows {
            assert!(
                r.ioat_cpu < r.non_cpu,
                "I/OAT CPU advantage must persist at {}: {:.3} vs {:.3}",
                r.label,
                r.ioat_cpu,
                r.non_cpu
            );
        }
        assert!(
            rows[3].non_ioat < rows[0].non_ioat && rows[3].ioat < rows[0].ioat,
            "1e-3 loss must cost throughput on both configurations"
        );
        assert!(
            fig.notes.iter().any(|n| n.contains("failover")),
            "A3b summary rides in the notes"
        );
    }

    #[test]
    fn abl_fabric_faults_mini_grid_reports_rows_and_recovery_notes() {
        // Mini fat-tree(4) stand-in for the release-scale grid: stable
        // dotted row ids, per-cell recovery notes, and partitioned-engine
        // telemetry all present.
        let fig =
            abl_fabric_faults_points(4, 96, vec![(0, 0), (6, 2)], ExperimentWindow::quick(), 2, 1);
        let rows = fig.compare_rows().expect("compare table");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "abl.fabfault/f0c0");
        assert_eq!(rows[1].label, "abl.fabfault/f6c2");
        assert!(rows.iter().all(|r| r.non_ioat > 0.0 && r.ioat > 0.0));
        assert!(
            fig.notes.iter().all(|n| n.contains("blackholes")),
            "every cell records its recovery counters: {:?}",
            fig.notes
        );
        assert!(!fig.parsim.is_empty(), "dc cells report engine telemetry");
        assert!(fig.sim_events > 0);
    }

    #[test]
    fn quick_windows_run_a_whole_figure() {
        // Smoke: fig3a at quick windows produces 6 ordered rows.
        let fig = fig3a(ExperimentWindow::quick(), 2);
        let rows = fig.compare_rows().expect("fig3a is a compare table");
        assert_eq!(rows.len(), 6);
        for w in rows.windows(2) {
            assert!(w[1].non_ioat > w[0].non_ioat, "bandwidth grows with ports");
        }
    }

    #[test]
    fn ext_pvfs_rows_are_identical_at_any_job_count() {
        // The acceptance bar for the fig_pvfs_extended family: rows are
        // a pure function of the configuration, so the sweep-pool worker
        // count must be unobservable.
        let w = ExperimentWindow::quick();
        let a = ext_pvfs_meta(w, 1);
        let b = ext_pvfs_meta(w, 8);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.notes, b.notes);
        let rows = a.compare_rows().expect("compare table");
        assert_eq!(rows.len(), 4);
        // Stable dotted IDs, and contention grows with client count.
        assert_eq!(rows[0].label, "pvfs.meta/c4");
        assert_eq!(rows[3].label, "pvfs.meta/c32");
        assert!(
            rows[3].non_ioat > rows[0].non_ioat,
            "32 opens must queue longer than 4: {} vs {}",
            rows[3].non_ioat,
            rows[0].non_ioat
        );
    }

    #[test]
    fn run_figure_times_and_dispatches() {
        let fig = run_figure("fig6", ExperimentWindow::quick(), 1, 1).expect("fig6 is known");
        assert_eq!(fig.name, "fig6");
        assert!(fig.error.is_none(), "unsupervised success carries no error");
        assert!(run_figure("nope", ExperimentWindow::quick(), 1, 1).is_none());
        let opts = SuperviseOpts::default();
        let timed = run_figure_supervised("fig6", ExperimentWindow::quick(), 1, &opts)
            .expect("fig6 is known");
        assert!(timed.wall_ms > 0.0);
    }

    #[test]
    fn supervision_and_audit_do_not_perturb_rows() {
        // The --audit acceptance criterion at unit scale: rows must be
        // bit-identical with the audit scope open and closed, because
        // audits are pure reads at quiescent points.
        let w = ExperimentWindow::quick();
        let plain = run_figure("fig6", w, 2, 1).expect("known");
        let opts = SuperviseOpts {
            audit: true,
            ..SuperviseOpts::default()
        };
        let audited = run_figure_supervised("fig6", w, 2, &opts).expect("known");
        assert!(audited.error.is_none(), "error: {:?}", audited.error);
        assert_eq!(plain.rows, audited.rows);
        assert_eq!(plain.notes, audited.notes);
        assert!(
            run_figure_supervised("nope", w, 2, &opts).is_none(),
            "unknown names still return None under supervision"
        );
    }

    #[test]
    fn event_budget_watchdog_reports_a_wedged_figure() {
        // 5000 events is far below what even a quick fig3a point needs,
        // so every simulation trips the deterministic watchdog; the
        // supervisor must classify that as `wedged:`, not `panicked:`.
        let opts = SuperviseOpts {
            audit: true,
            event_budget: Some(5_000),
            ..SuperviseOpts::default()
        };
        let fig = run_figure_supervised("fig3a", ExperimentWindow::quick(), 2, &opts)
            .expect("known figure");
        let reason = fig.error.as_deref().expect("watchdog fired");
        assert!(reason.starts_with("wedged:"), "reason: {reason}");
        assert!(reason.contains("event limit"), "reason: {reason}");
    }

    #[test]
    fn forced_failure_is_isolated_and_classified() {
        let opts = SuperviseOpts {
            force_fail: Some("fig6".to_string()),
            ..SuperviseOpts::default()
        };
        let fig = run_figure_supervised("fig6", ExperimentWindow::quick(), 4, &opts)
            .expect("known figure");
        let reason = fig.error.as_deref().expect("forced failure is recorded");
        assert!(reason.starts_with("panicked:"), "reason: {reason}");
        assert!(
            reason.contains("--fail"),
            "reason names the cause: {reason}"
        );
        assert!(fig.rows.is_empty(), "a crashed figure reports no rows");
        // The same options leave *other* figures untouched.
        let ok = run_figure_supervised("abl-copy", ExperimentWindow::quick(), 4, &opts)
            .expect("known figure");
        assert!(ok.error.is_none());
        assert!(!ok.rows.is_empty());
    }
}
