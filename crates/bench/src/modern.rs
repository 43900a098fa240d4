//! Ablation "modern offload" (`repro abl-modern`): re-asks the paper's
//! question on 2026-class hosts.
//!
//! The grid sweeps {rx mode × link rate × I/OAT on/off} over three
//! workloads — the Fig. 4-shaped multi-stream microbenchmark, the
//! fabric-scale proxy/web datacenter (on the partitioned engine) and the
//! PVFS concurrent read. Every cell pairs a non-I/OAT and an I/OAT stack
//! that are otherwise identical: multi-queue RSS on (every 2026-class NIC
//! has it), the row's [`RxMode`], the row's line rate, and the
//! [`NodeProfile::Modern2026`] host calibration. The pair differs only in
//! the paper's I/OAT bundle (DMA copy engine + split headers), so the
//! per-row `cpu-ben%` column *is* the paper's claim re-measured in that
//! cell.
//!
//! Row ids are stable dotted paths (`abl.modern/mstream/10g/busypoll`) so
//! `.ci/bench_baseline.json` and the determinism suite can pin them; the
//! per-workload verdict (does the CPU advantage grow, shrink, vanish or
//! invert?) lands in [`FigureResult::notes`].

use crate::{
    compare_figure, dc_pair_cell, is_quick, pair_row, Cell, FigureResult, FigureRows, Row,
};
use ioat_core::calibration::NodeProfile;
use ioat_core::metrics::ExperimentWindow;
use ioat_core::microbench::multistream::{self, MultiStreamConfig};
use ioat_core::IoatConfig;
use ioat_datacenter::scale::ScaleConfig;
use ioat_netsim::RxMode;
use ioat_pvfs::harness::{concurrent_read, PvfsConfig};
use ioat_simcore::time::Bandwidth;
use ioat_simcore::SimDuration;

/// Line rates of the grid, in Gbit/s.
pub const LINK_RATES_GBPS: [u64; 4] = [1, 10, 40, 100];

/// Workload axis of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModernWorkload {
    /// Fig. 4-shaped multi-stream microbenchmark (Mbps, server rx CPU).
    MultiStream,
    /// Fabric-scale proxy/web datacenter on the partitioned engine
    /// (TPS, proxy-tier CPU).
    DataCenter,
    /// PVFS concurrent read (MB/s, client CPU — the receive side, where
    /// the paper reports it for reads).
    Pvfs,
}

impl ModernWorkload {
    /// Every workload, in grid order.
    pub const ALL: [ModernWorkload; 3] = [
        ModernWorkload::MultiStream,
        ModernWorkload::DataCenter,
        ModernWorkload::Pvfs,
    ];

    /// Dotted-id segment (`abl.modern/<tag>/...`).
    pub fn tag(&self) -> &'static str {
        match self {
            ModernWorkload::MultiStream => "mstream",
            ModernWorkload::DataCenter => "dc",
            ModernWorkload::Pvfs => "pvfs",
        }
    }
}

/// Stable dotted row id of one grid cell.
pub fn row_id(wl: ModernWorkload, gbps: u64, mode: RxMode) -> String {
    format!("abl.modern/{}/{}g/{}", wl.tag(), gbps, mode.tag())
}

/// The non-I/OAT / I/OAT pair a cell compares: identical modern NIC
/// features, differing only in the DMA copy engine + split headers.
fn cell_pair(mode: RxMode) -> [IoatConfig; 2] {
    [
        IoatConfig::disabled()
            .with_multi_queue(true)
            .with_rx_mode(mode),
        IoatConfig::full_with_multi_queue().with_rx_mode(mode),
    ]
}

/// The "cores you could reclaim" note for a polling cell: occupancy
/// counts the spin loop, utilization counts only work, and the gap is
/// capacity polling burns. Only polling cells have a gap worth printing.
fn occupancy_note(label: &str, non: (f64, f64), ioat: (f64, f64)) -> Option<String> {
    let gap = (non.1 - non.0).max(ioat.1 - ioat.0);
    if gap <= 0.01 {
        return None;
    }
    Some(format!(
        "  {label}: rx occupancy {:.0}%/{:.0}% vs useful cpu {:.0}%/{:.0}% \
         (non/ioat) — the gap is cores burned spinning, reclaimable by \
         irq or i/oat rx",
        non.1 * 100.0,
        ioat.1 * 100.0,
        non.0 * 100.0,
        ioat.0 * 100.0,
    ))
}

fn cell_mstream(window: ExperimentWindow, gbps: u64, mode: RxMode) -> Cell {
    let mut cfg = if is_quick(window) {
        MultiStreamConfig::quick_test(4)
    } else {
        MultiStreamConfig {
            ports: 4,
            ..MultiStreamConfig::paper(8)
        }
    };
    cfg.window = window;
    cfg.opts = ioat_netsim::SocketOpts::modern_2026();
    let cfg = cfg.with_link(Bandwidth::from_gbps(gbps), NodeProfile::Modern2026);
    let (row, [non, ioat]) = pair_row(
        row_id(ModernWorkload::MultiStream, gbps, mode),
        cell_pair(mode),
        |io| multistream::run(&cfg, io),
        |r| (r.mbps, r.rx_cpu),
    );
    let notes = occupancy_note(
        &row.label,
        (non.rx_cpu, non.rx_occupancy),
        (ioat.rx_cpu, ioat.rx_occupancy),
    )
    .into_iter()
    .collect();
    Cell {
        notes,
        ..row.into()
    }
}

fn cell_pvfs(window: ExperimentWindow, gbps: u64, mode: RxMode) -> Row {
    let clients = if is_quick(window) { 2 } else { 4 };
    pair_row(
        row_id(ModernWorkload::Pvfs, gbps, mode),
        cell_pair(mode),
        |io| {
            let mut cfg = PvfsConfig::quick_test(2, clients, io);
            cfg.window = window;
            concurrent_read(&cfg.with_link(Bandwidth::from_gbps(gbps), NodeProfile::Modern2026))
        },
        |r| (r.mbytes_per_sec, r.client_cpu),
    )
    .0
}

fn cell_dc(window: ExperimentWindow, gbps: u64, mode: RxMode, sim_threads: usize) -> Cell {
    let mk = |io: IoatConfig| {
        let mut cfg = if is_quick(window) {
            ScaleConfig::quick_test(io)
        } else {
            let mut cfg = ScaleConfig::fat_tree(4, 1.0, 192, io);
            cfg.think = SimDuration::from_millis(2);
            cfg.catalog_files = 500;
            cfg
        };
        cfg.window = window;
        cfg.profile = NodeProfile::Modern2026;
        cfg.fabric.host_bandwidth = Bandwidth::from_gbps(gbps);
        cfg.fabric.link_bandwidth = Bandwidth::from_gbps(gbps);
        cfg
    };
    let label = row_id(ModernWorkload::DataCenter, gbps, mode);
    dc_pair_cell(
        label.clone(),
        cell_pair(mode),
        mk,
        sim_threads,
        |non, ioat| {
            occupancy_note(
                &label,
                (non.proxy_cpu, non.proxy_occupancy),
                (ioat.proxy_cpu, ioat.proxy_occupancy),
            )
            .into_iter()
            .collect()
        },
    )
}

/// The per-workload verdict line: compares the I/OAT relative CPU
/// benefit in the most 2007-like cell (1 GbE, classic interrupts) with
/// the least favorable modern cell (polling rx at ≥ 40 GbE) and names
/// the outcome.
fn verdict(wl: ModernWorkload, rows: &[Row]) -> String {
    let benefit = |gbps: u64, mode: RxMode| {
        rows.iter()
            .find(|r| r.label == row_id(wl, gbps, mode))
            .map(|r| r.cpu_benefit())
    };
    let base = benefit(1, RxMode::Interrupt).unwrap_or(0.0);
    let modern = [40u64, 100]
        .into_iter()
        .flat_map(|g| {
            [RxMode::BusyPoll, RxMode::ZeroCopy]
                .into_iter()
                .filter_map(move |m| benefit(g, m))
        })
        .fold(f64::INFINITY, f64::min);
    let word = if !modern.is_finite() {
        "unmeasured"
    } else if modern < -0.005 {
        "inverts"
    } else if modern.abs() <= 0.005 {
        "vanishes"
    } else if modern < base {
        "shrinks"
    } else {
        "grows"
    };
    // The DMA engine is one serialized 10 GB/s channel; past 40 GbE it
    // can throttle throughput even where per-byte CPU still favors it.
    let worst_tput = rows
        .iter()
        .filter(|r| {
            LINK_RATES_GBPS
                .iter()
                .filter(|g| **g >= 40)
                .any(|g| RxMode::ALL.iter().any(|m| r.label == row_id(wl, *g, *m)))
        })
        .map(Row::improvement)
        .fold(f64::INFINITY, f64::min);
    let tput_clause = if worst_tput.is_finite() && worst_tput < -0.02 {
        format!(
            "; throughput inverts where the engine channel saturates \
             ({:+.1}% at the worst >=40g cell)",
            worst_tput * 100.0
        )
    } else {
        String::new()
    };
    format!(
        "  {}: I/OAT CPU advantage {} on 2026 hosts \
         ({:+.1}% at 1g/irq -> {:+.1}% at worst >=40g polling cell){}",
        wl.tag(),
        word,
        base * 100.0,
        modern * 100.0,
        tput_clause
    )
}

/// The grid over an explicit `(workload, gbps, rx mode)` cell list. The
/// determinism suite drives this with a miniature subset (debug builds
/// cannot afford the full 48-cell grid); the `abl-modern` target is
/// exactly this with the standard cells plus verdict notes.
pub fn ablation_modern_points(
    points: Vec<(ModernWorkload, u64, RxMode)>,
    window: ExperimentWindow,
    jobs: usize,
    sim_threads: usize,
) -> FigureResult {
    let sim_threads = sim_threads.max(1);
    let mut fig = compare_figure(
        "Ablation A4: modern offload grid, rx mode x link rate x I/OAT",
        "mixed",
        points,
        jobs,
        move |(wl, gbps, mode)| match wl {
            ModernWorkload::MultiStream => cell_mstream(window, gbps, mode),
            ModernWorkload::DataCenter => cell_dc(window, gbps, mode, sim_threads),
            ModernWorkload::Pvfs => cell_pvfs(window, gbps, mode).into(),
        },
    );
    fig.notes.push(
        "  every cell: Modern2026 hosts (8 cores, 32 MB LLC, ~3x cheaper \
         per-packet costs), multi-queue RSS on; non vs ioat differ only in \
         DMA engine + split headers"
            .to_string(),
    );
    fig
}

/// The full modern-offload grid: all three workloads.
pub(crate) fn ablation_modern(
    window: ExperimentWindow,
    jobs: usize,
    sim_threads: usize,
) -> FigureResult {
    let mut points: Vec<(ModernWorkload, u64, RxMode)> = Vec::new();
    for wl in ModernWorkload::ALL {
        for gbps in LINK_RATES_GBPS {
            for mode in RxMode::ALL {
                points.push((wl, gbps, mode));
            }
        }
    }
    let mut fig = ablation_modern_points(points, window, jobs, sim_threads);
    fig.notes
        .push("  units: mstream Mbps, dc TPS, pvfs MB/s".to_string());
    if let FigureRows::Compare(rows) = &fig.rows {
        let verdicts: Vec<String> = ModernWorkload::ALL
            .iter()
            .map(|&wl| verdict(wl, rows))
            .collect();
        fig.notes.extend(verdicts);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_ids_are_stable_dotted_paths() {
        assert_eq!(
            row_id(ModernWorkload::MultiStream, 10, RxMode::BusyPoll),
            "abl.modern/mstream/10g/busypoll"
        );
        assert_eq!(
            row_id(ModernWorkload::DataCenter, 100, RxMode::ZeroCopy),
            "abl.modern/dc/100g/zerocopy"
        );
        assert_eq!(
            row_id(ModernWorkload::Pvfs, 1, RxMode::Interrupt),
            "abl.modern/pvfs/1g/irq"
        );
    }

    #[test]
    fn cell_pair_differs_only_in_the_ioat_bundle() {
        for mode in RxMode::ALL {
            let [non, ioat] = cell_pair(mode);
            assert!(!non.dma_engine && !non.split_header);
            assert!(ioat.dma_engine && ioat.split_header);
            assert!(non.multi_queue && ioat.multi_queue);
            assert_eq!(non.rx_mode, mode);
            assert_eq!(ioat.rx_mode, mode);
        }
    }

    #[test]
    fn zero_copy_cells_have_no_ioat_delta_by_construction() {
        // Under kernel-bypass rx the engine is unused and split headers
        // are a no-op, so both grid cells are the same simulation.
        let row = cell_mstream(ExperimentWindow::quick(), 40, RxMode::ZeroCopy).row;
        assert_eq!(row.non_ioat, row.ioat, "throughput must be identical");
        assert_eq!(row.non_cpu, row.ioat_cpu, "CPU must be identical");
    }

    #[test]
    fn mstream_grid_cell_shows_ioat_benefit_at_1g_irq() {
        let row = cell_mstream(ExperimentWindow::quick(), 1, RxMode::Interrupt).row;
        assert!(
            row.cpu_benefit() > 0.0,
            "classic rx at 1 GbE should still favor I/OAT, got {:.3}",
            row.cpu_benefit()
        );
    }

    #[test]
    fn busy_poll_cells_report_the_spin_occupancy_gap() {
        let notes = cell_mstream(ExperimentWindow::quick(), 10, RxMode::BusyPoll).notes;
        assert!(
            !notes.is_empty(),
            "a busy-poll cell must note its occupancy/utilization gap"
        );
        assert!(
            notes[0].contains("occupancy"),
            "note names the gap: {notes:?}"
        );
        let irq_notes = cell_mstream(ExperimentWindow::quick(), 10, RxMode::Interrupt).notes;
        assert!(
            irq_notes.is_empty(),
            "interrupt rx does not spin, so no gap to report: {irq_notes:?}"
        );
    }
}
