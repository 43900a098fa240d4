//! Derived reports: the per-category CPU split-up (paper Fig. 7).
//!
//! Groups span time per [`Category`] per track over a measurement window,
//! clipping spans at the window edges. Shares over the receive-path
//! categories (interrupt / protocol / copy) regenerate the paper's
//! decomposition of where receive-side CPU time goes, and the Dma column
//! shows what the copy engine absorbed.

use crate::tracer::{Category, Event, EventKind, TrackId};
use ioat_simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Span time per category per track over a window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitupReport {
    from: SimTime,
    to: SimTime,
    per_track: BTreeMap<TrackId, [u64; Category::ALL.len()]>,
}

/// Builds a [`SplitupReport`] from recorded events over `[from, to]`.
/// Spans partially inside the window contribute their clipped portion;
/// instants and counters are ignored.
pub fn cpu_splitup(events: &[Event], from: SimTime, to: SimTime) -> SplitupReport {
    let mut per_track: BTreeMap<TrackId, [u64; Category::ALL.len()]> = BTreeMap::new();
    for ev in events {
        if let EventKind::Span { start, end } = ev.kind {
            let s = start.max(from);
            let e = end.min(to);
            if e <= s {
                continue;
            }
            let ns = e.as_nanos() - s.as_nanos();
            per_track
                .entry(ev.track)
                .or_insert([0; Category::ALL.len()])[ev.cat.index()] += ns;
        }
    }
    SplitupReport {
        from,
        to,
        per_track,
    }
}

impl SplitupReport {
    /// The measurement window.
    pub fn window(&self) -> (SimTime, SimTime) {
        (self.from, self.to)
    }

    /// Total span time in a category, summed across tracks.
    pub fn busy(&self, cat: Category) -> SimDuration {
        SimDuration::from_nanos(self.per_track.values().map(|cats| cats[cat.index()]).sum())
    }

    /// Span time in a category on one track.
    pub fn busy_on(&self, track: TrackId, cat: Category) -> SimDuration {
        SimDuration::from_nanos(
            self.per_track
                .get(&track)
                .map_or(0, |cats| cats[cat.index()]),
        )
    }

    /// A category's share of the time in `cats` (0 when that total is 0).
    pub fn share_among(&self, cat: Category, cats: &[Category]) -> f64 {
        let total: u64 = cats.iter().map(|c| self.busy(*c).as_nanos()).sum();
        if total == 0 {
            0.0
        } else {
            self.busy(cat).as_nanos() as f64 / total as f64
        }
    }

    /// The paper's receive-path decomposition: interrupt handling, TCP/IP
    /// protocol processing and kernel-to-user copy shares (of their sum).
    pub fn receive_path_shares(&self) -> [(Category, f64); 3] {
        const RX: [Category; 3] = [Category::Interrupt, Category::Protocol, Category::Copy];
        [
            (RX[0], self.share_among(RX[0], &RX)),
            (RX[1], self.share_among(RX[1], &RX)),
            (RX[2], self.share_among(RX[2], &RX)),
        ]
    }

    /// Tracks present in the report, in order.
    pub fn tracks(&self) -> impl Iterator<Item = TrackId> + '_ {
        self.per_track.keys().copied()
    }

    /// Renders an aligned text table: one row per track plus a totals row,
    /// one column per category with recorded time.
    pub fn render_table(&self) -> String {
        let used: Vec<Category> = Category::ALL
            .into_iter()
            .filter(|c| self.busy(*c).as_nanos() > 0)
            .collect();
        let mut out = String::new();
        let _ = write!(out, "{:<12}", "track");
        for c in &used {
            let _ = write!(out, " {:>12}", c.name());
        }
        out.push('\n');
        for (track, cats) in &self.per_track {
            let _ = write!(out, "n{}/c{:<9}", track.node, track.core);
            for c in &used {
                let us = cats[c.index()] as f64 / 1_000.0;
                let _ = write!(out, " {:>10.1}us", us);
            }
            out.push('\n');
        }
        let _ = write!(out, "{:<12}", "total");
        for c in &used {
            let us = self.busy(*c).as_nanos() as f64 / 1_000.0;
            let _ = write!(out, " {:>10.1}us", us);
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_events() -> Vec<Event> {
        let tr = Tracer::enabled();
        let c0 = TrackId::new(0, 0);
        let c1 = TrackId::new(0, 1);
        tr.span("irq", Category::Interrupt, c0, t(0), t(100));
        tr.span("tcpip", Category::Protocol, c0, t(100), t(400));
        tr.span("copy", Category::Copy, c1, t(400), t(1_000));
        tr.instant("mark", Category::Copy, c1, t(500));
        tr.counter("q", Category::Other, c1, t(600), 3.0);
        tr.with_events(<[Event]>::to_vec)
    }

    #[test]
    fn groups_by_category_and_track() {
        let r = cpu_splitup(&sample_events(), t(0), t(1_000));
        assert_eq!(r.busy(Category::Interrupt).as_nanos(), 100);
        assert_eq!(r.busy(Category::Protocol).as_nanos(), 300);
        assert_eq!(r.busy(Category::Copy).as_nanos(), 600);
        assert_eq!(
            r.busy_on(TrackId::new(0, 1), Category::Copy).as_nanos(),
            600
        );
        assert_eq!(
            r.busy_on(TrackId::new(0, 1), Category::Interrupt)
                .as_nanos(),
            0
        );
        assert_eq!(r.tracks().count(), 2);
    }

    #[test]
    fn window_clips_spans() {
        let r = cpu_splitup(&sample_events(), t(50), t(500));
        assert_eq!(r.busy(Category::Interrupt).as_nanos(), 50); // [50,100)
        assert_eq!(r.busy(Category::Protocol).as_nanos(), 300); // untouched
        assert_eq!(r.busy(Category::Copy).as_nanos(), 100); // [400,500)
        let empty = cpu_splitup(&sample_events(), t(2_000), t(3_000));
        assert_eq!(empty.tracks().count(), 0);
        assert_eq!(empty.receive_path_shares()[2].1, 0.0);
    }

    #[test]
    fn shares_sum_to_one() {
        let r = cpu_splitup(&sample_events(), t(0), t(1_000));
        let rx = r.receive_path_shares();
        let sum: f64 = rx.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(rx[0].1, 0.1);
        assert_eq!(rx[1].1, 0.3);
        assert_eq!(rx[2].1, 0.6);
        assert_eq!(r.share_among(Category::Copy, &[Category::Copy]), 1.0);
    }

    #[test]
    fn table_renders_all_used_categories() {
        let r = cpu_splitup(&sample_events(), t(0), t(1_000));
        let table = r.render_table();
        assert!(table.contains("interrupt"));
        assert!(table.contains("protocol"));
        assert!(table.contains("copy"));
        assert!(!table.contains("dma"), "unused categories are omitted");
        assert!(table.lines().count() >= 4, "header + 2 tracks + total");
    }
}
