//! The sim-event-budget watchdog, in a test binary of its own.
//!
//! `ioat_guard`'s event budget is process-wide: while this test holds a
//! 5 000-event budget, every `Sim` built anywhere in the process inherits
//! it. Run beside the library's unit tests, it would wedge whichever
//! unscoped figure happened to be running concurrently. A separate
//! integration-test binary is a separate process.

use ioat_bench::{run_figure_supervised, SuperviseOpts};
use ioat_core::metrics::ExperimentWindow;

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
    let fig =
        run_figure_supervised("fig3a", ExperimentWindow::quick(), 2, &opts).expect("known figure");
    let reason = fig.error.as_deref().expect("watchdog fired");
    assert!(reason.starts_with("wedged:"), "reason: {reason}");
    assert!(reason.contains("event limit"), "reason: {reason}");
}
