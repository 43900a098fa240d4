//! Helpers shared by the benchmark's integration tests.

use ioat_benchmark::cells::{Scale, Workload};
use ioat_benchmark::report::Report;
use ioat_benchmark::run::{run, Settings};
use std::path::PathBuf;

/// A miniature run: quick-test configs, the fewest timed passes.
pub fn mini(w: Workload, seed: u64, trace: Option<PathBuf>) -> Report {
    run(&Settings {
        workload: w,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Mini,
    })
}

/// The value printed on the `name value unit` line for `name`.
pub fn reading<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|rest| rest.split(' ').next())
}
