//! One workload run: set-up probe, one audited pass, timed passes, and
//! (when traced) the layer probes.

use crate::cells::{self, Cell, Res, Scale, Workload};
use crate::measure::{median, peak_rss_mb, rss_mb, timed};
use crate::probes;
use crate::report::Report;
use crate::spans::Spans;
use ioat_core::ExperimentWindow;
use ioat_simcore::SimDuration;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up passes before the audited pass. One more runs before every
/// timed pass, so each cell's fastest set-up is taken across the whole
/// run: a burst of load from another process, which can last seconds on
/// a shared host, cannot cover every sample.
const SETUP_REPS: usize = 5;
/// Fewest timed passes per kind, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Failure notes kept per run; later ones are only counted.
const MAX_NOTES: usize = 20;

/// What to run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Input seed ([`cells::DEFAULT_SEED`] reproduces the figures).
    pub seed: u64,
    /// Host time the timed passes run for.
    pub seconds: f64,
    /// Where the traced run writes its Chrome trace; `None` runs untraced.
    pub trace: Option<PathBuf>,
    /// Full size, or the miniature for tests.
    pub scale: Scale,
}

/// Per-cell digests and the run's attempt/failure counts.
struct Ledger {
    attempted: u64,
    failed: u64,
    first: Vec<Option<(u64, Res)>>,
    notes: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }

    /// Counts one cell run. Set-up runs (`check` false) fail only by
    /// panicking; measured runs must also give a finite positive primary
    /// metric and the digest the cell gave the first time.
    fn record(&mut self, i: usize, cell: &Cell, res: Result<Res, String>, check: bool) {
        self.attempted += 1;
        let r = match res {
            Err(e) => return self.fail(format!("{}: {e}", cell.name)),
            Ok(r) if check => r,
            Ok(_) => return,
        };
        let p = r.primary();
        if !(p.is_finite() && p > 0.0) {
            return self.fail(format!("{}: primary metric {p}", cell.name));
        }
        let d = r.digest();
        match &self.first[i] {
            None => self.first[i] = Some((d, r)),
            Some((d0, _)) if *d0 != d => {
                let d0 = *d0;
                self.fail(format!(
                    "{}: digest {d:016x} differs from {d0:016x}",
                    cell.name
                ));
            }
            Some(_) => {}
        }
    }
}

/// Runs one cell inside a span on its layer. Panics are caught; under
/// `audited` any audit violation also fails the cell.
fn exec(
    cell: &Cell,
    window: Option<ExperimentWindow>,
    audited: bool,
    sp: &mut Spans,
) -> Result<Res, String> {
    sp.span(cell.entry, cell.layer, |_| {
        if audited {
            let (r, v) = ioat_guard::with_audit(|| cell.run(window));
            let r = r.map_err(|p| ioat_guard::failure_reason(p.as_ref()))?;
            match v.first() {
                Some(first) => Err(format!("{} audit violation(s), first: {first}", v.len())),
                None => Ok(r),
            }
        } else {
            panic::catch_unwind(AssertUnwindSafe(|| cell.run(window)))
                .map_err(|p| ioat_guard::failure_reason(p.as_ref()))
        }
    })
}

/// One pass over every cell; returns each cell's host seconds.
fn pass(w: Workload, cells: &[Cell], led: &mut Ledger, sp: &mut Spans, audited: bool) -> Vec<f64> {
    let name = format!("{}.pass", w.name());
    sp.span(&name, "bench", |sp| {
        cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let (res, secs) =
                    timed(|| sp.span(&cell.name, "bench", |sp| exec(cell, None, audited, sp)));
                led.record(i, cell, res, true);
                secs
            })
            .collect()
    })
}

/// Host seconds of one pass with each cell at its fastest run: every
/// cell is deterministic, so anything above its fastest run is another
/// process's interference, which this estimator leaves out.
fn best_pass(passes: &[Vec<f64>]) -> f64 {
    let cells = passes.first().map_or(0, Vec::len);
    (0..cells)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// One set-up pass, untraced: every cell with a 1 µs warm-up and 1 µs
/// measured, so a cell costs what building its model costs. Returns each
/// cell's host seconds.
fn setup_pass(cells: &[Cell], led: &mut Ledger, sp: &mut Spans) -> Vec<f64> {
    let mut tiny = ExperimentWindow::quick();
    tiny.warmup = SimDuration::from_micros(1);
    tiny.measure = SimDuration::from_micros(1);
    sp.set_on(false);
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let (res, secs) = timed(|| exec(cell, Some(tiny), false, sp));
            led.record(i, cell, res, false);
            secs
        })
        .collect()
}

/// Runs `s.workload` and reports it.
pub fn run(s: &Settings) -> Report {
    let w = s.workload;
    let cells = cells::cells(w, s.seed, s.scale);
    let mut led = Ledger {
        attempted: 0,
        failed: 0,
        first: (0..cells.len()).map(|_| None).collect(),
        notes: Vec::new(),
    };
    let mut sp = Spans::new(false);

    // 1. Set-up probe.
    let mut setup: Vec<Vec<f64>> = (0..SETUP_REPS)
        .map(|_| setup_pass(&cells, &mut led, &mut sp))
        .collect();

    // 2. One audited, untimed pass: correctness and warm host caches.
    let audited_s: f64 = pass(w, &cells, &mut led, &mut sp, true).iter().sum();

    // 3. Timed passes, audits off, each after one more set-up pass;
    //    traced runs alternate traced and untraced passes so both see the
    //    same host conditions.
    let tracing = s.trace.is_some();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut peak = f64::NAN;
    let budget = Duration::from_secs_f64(s.seconds.max(0.0));
    let start = Instant::now();
    loop {
        setup.push(setup_pass(&cells, &mut led, &mut sp));
        let trace_this = tracing && untraced.len() > traced.len();
        sp.set_on(trace_this);
        let times = pass(w, &cells, &mut led, &mut sp, false);
        if trace_this {
            traced.push(times);
        } else {
            untraced.push(times);
        }
        if peak.is_nan() {
            // Memory to set up and run the workload once, read at a fixed
            // point: the simulator keeps memory across calls, so a later
            // reading would depend on how many passes fit in the budget.
            peak = peak_rss_mb();
        }
        let enough = untraced.len() >= MIN_PASSES && (!tracing || traced.len() >= MIN_PASSES);
        if enough && start.elapsed() >= budget {
            break;
        }
    }
    sp.set_on(false);

    let mut rep = Report {
        attempted: led.attempted,
        failed: led.failed,
        ..Report::default()
    };
    let get = |name: &str| {
        cells
            .iter()
            .position(|c| c.name == name)
            .and_then(|i| led.first[i].as_ref().map(|(_, r)| r))
    };
    let wall = best_pass(&untraced);

    rep.info("workload", w.name(), "-");
    rep.info("seed", s.seed, "-");
    rep.info("passes", untraced.len(), "count");
    let totals: Vec<f64> = untraced.iter().map(|p| p.iter().sum()).collect();
    let median_pass = median(&totals);
    rep.info("median_pass_s", median_pass, "s");
    rep.info("audited_pass_s", audited_s, "s");
    rep.info("rss_exit_mb", rss_mb(), "MB");
    rep.info(
        "fail_ratio",
        led.failed as f64 / led.attempted as f64,
        "ratio",
    );
    let mut all = cells::FNV_OFFSET;
    for (cell, first) in cells.iter().zip(&led.first) {
        let d = first.as_ref().map_or(0, |(d, _)| *d);
        all = cells::fnv1a(all, &d.to_le_bytes());
        rep.info(format!("digest.{}", cell.name), format!("{d:016x}"), "hex");
    }
    rep.info("digest", format!("{all:016x}"), "hex");

    let mut claims_ok = true;
    match cells::paper_terms(w, &get) {
        Some(terms) if !terms.is_empty() => {
            for (label, measured, paper) in &terms {
                rep.notes.push(format!(
                    "{label}: measured {measured:.1} % vs paper {paper:.0} %"
                ));
            }
            let err = cells::paper_err_pp(&terms);
            claims_ok &= err.is_finite();
            rep.info("paper_err_pp", err, "pp");
        }
        Some(_) => {}
        None => claims_ok = false,
    }
    if w.is_fabric() {
        let events: u64 = led
            .first
            .iter()
            .filter_map(|f| match f {
                Some((_, Res::Scale(r, _))) => Some(r.sim_events),
                _ => None,
            })
            .sum();
        rep.info("sim_events", events, "count");
        rep.info("events_per_s", events as f64 / wall, "events/s");
    }
    if s.scale == Scale::Full {
        for f in cells::shape_failures(w, &get) {
            claims_ok = false;
            rep.notes.push(format!("claim broken: {f}"));
        }
    }
    rep.notes.extend(led.notes);
    rep.correct = claims_ok && led.failed == 0;

    if !tracing {
        rep.metrics = vec![
            ("wall_s", wall),
            ("setup_s", best_pass(&setup)),
            ("peak_rss_mb", peak),
        ];
        return rep;
    }

    rep.info("wall_s", wall, "s");
    let traced_wall = best_pass(&traced);
    rep.info("traced_wall_s", traced_wall, "s");
    // Per-layer self time of the traced passes, then of each cell's entry
    // call, both per pass.
    let n = traced.len() as f64;
    let mut self_sum = 0.0;
    for (layer, secs) in sp.self_s_by_layer() {
        self_sum += secs;
        rep.info(format!("self_s.{layer}"), secs / n, "s");
    }
    for cell in &cells {
        let total: f64 = sp
            .spans()
            .iter()
            .filter(|x| x.name == cell.name)
            .map(|x| x.dur_ns() as f64 * 1e-6)
            .sum();
        rep.info(format!("cell_ms.{}", cell.name), total / n, "ms");
    }
    sp.set_on(true);
    let mut metrics = probes::run(&mut sp, s.seed);
    metrics.push((
        "guard.audit_overhead_pct",
        (audited_s / median_pass - 1.0) * 100.0,
    ));
    metrics.push(("trace.overhead_pct", (traced_wall / wall - 1.0) * 100.0));
    // Coverage: span self times against the cells' own stopwatch times.
    let traced_total: f64 = traced.iter().flatten().sum();
    metrics.push(("trace.self_sum_pct", self_sum / traced_total * 100.0));
    let order = |name: &str| crate::report::PER_LAYER.iter().position(|d| d.name == name);
    metrics.sort_by_key(|(name, _)| order(name));
    rep.metrics = metrics;

    let path = s.trace.as_ref().expect("tracing");
    if let Err(e) = std::fs::write(path, sp.chrome_json()) {
        rep.correct = false;
        rep.notes
            .push(format!("cannot write {}: {e}", path.display()));
    }
    rep.info("trace_file", path.display(), "-");
    rep
}
