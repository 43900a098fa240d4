//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--list] [--quick] [--audit] [--jobs N] [--sim-threads N]
//!       [--fail <target>] [--json <path>] [--trace <path>] [target ...]
//! ```
//!
//! With no targets (or `all`) every figure runs. `--list` prints the
//! known targets with one-line descriptions. `--quick` uses short
//! measurement windows (for smoke tests); the default windows match
//! `EXPERIMENTS.md`. `--jobs N` sets the sweep-executor worker count
//! (default: available parallelism; results are bit-identical at any
//! count). `--sim-threads N` sets the partitioned-engine worker count
//! for the figures that run on it (the `fig_fabric` family): one
//! simulation is split across N conservative-synchronization workers,
//! and the deterministic merge keeps results bit-identical at any N
//! (default 1). `--json <path>` additionally writes every figure's rows and
//! wall-clock timings as a machine-readable report. `--trace <path>`
//! runs with the telemetry tracer on, prints the per-category CPU
//! split-up and writes a Perfetto-loadable Chrome trace to `<path>`
//! (and then exits unless figures were also requested); with a PVFS
//! figure (`fig10a`–`fig12`, `ext-pvfs-*`) among the targets it traces
//! the Fig. 10a configuration (the view that diagnosed the daemon cost
//! model), otherwise Fig. 7.
//! Unknown flags and unknown targets exit with status 2 and
//! suggest the closest known name.
//!
//! Supervision (always on): every figure runs under the supervisor, so a
//! panicking or wedged figure is isolated — the remaining figures run to
//! completion with unchanged rows, the failure lands in the report as
//! `status: "failed"` plus a classified `error`, a summary table prints
//! at the end, and the process exits with status **3** (partial failure)
//! instead of aborting mid-run. `--audit` additionally opens a runtime
//! invariant-audit scope: conservation and lifecycle identities are
//! checked at the end of every measurement window, and any violation
//! fails the figure (rows are bit-identical with and without `--audit` —
//! audits are pure reads). A failed figure is not retried: every figure
//! is a deterministic function of its configuration, so a second attempt
//! fails the same way. `--fail <target>` injects a deliberate panic into
//! that figure's sweep — CI's forced-failure smoke for this whole path.

use ioat_bench as figs;
use ioat_bench::report::{self, RunMeta};
use ioat_core::metrics::ExperimentWindow;

/// Every flag the parser accepts, for "did you mean" on unknown flags.
const FLAGS: &[&str] = &[
    "--list",
    "--quick",
    "--audit",
    "--jobs",
    "--sim-threads",
    "--fail",
    "--json",
    "--trace",
];

/// Classic dynamic-programming edit distance, for "did you mean".
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

fn closest<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> &'a str {
    candidates
        .map(|t| (t, edit_distance(name, t)))
        .min_by_key(|(_, d)| *d)
        .map(|(t, _)| t)
        .expect("candidate list is non-empty")
}

fn print_list() {
    println!("repro targets ('all' or no target runs everything):");
    for fig in figs::FIGURES {
        println!("  {:<12} {}", fig.name, fig.about);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro [--list] [--quick] [--audit] [--jobs N] [--sim-threads N] \
         [--fail <target>] [--json <path>] [--trace <path>] [target ...]"
    );
    std::process::exit(2);
}

/// Parsed command line.
struct Cli {
    list: bool,
    quick: bool,
    audit: bool,
    jobs: usize,
    sim_threads: usize,
    fail: Option<String>,
    json_path: Option<String>,
    trace_path: Option<String>,
    targets: Vec<String>,
}

/// Parses args strictly: every `--` token must be a known flag (exit 2
/// with a did-you-mean otherwise), value flags consume exactly one value
/// and reject repetition — a second `--trace` previously shadowed its
/// path into the target list and produced a baffling "unknown target"
/// error.
fn parse_cli(args: Vec<String>) -> Cli {
    let mut cli = Cli {
        list: false,
        quick: false,
        audit: false,
        jobs: figs::sweep::default_jobs(),
        sim_threads: 1,
        fail: None,
        json_path: None,
        trace_path: None,
        targets: Vec::new(),
    };
    let mut jobs_seen = false;
    let mut sim_threads_seen = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => cli.list = true,
            "--quick" => cli.quick = true,
            "--audit" => cli.audit = true,
            "--fail" => {
                if cli.fail.is_some() {
                    die("--fail given more than once");
                }
                cli.fail = Some(it.next().unwrap_or_else(|| die("--fail needs a target")));
            }
            "--jobs" => {
                if jobs_seen {
                    die("--jobs given more than once");
                }
                jobs_seen = true;
                let val = it
                    .next()
                    .unwrap_or_else(|| die("--jobs needs a worker count"));
                cli.jobs = match val.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => die(&format!("--jobs needs a positive integer, got '{val}'")),
                };
            }
            "--sim-threads" => {
                if sim_threads_seen {
                    die("--sim-threads given more than once");
                }
                sim_threads_seen = true;
                let val = it
                    .next()
                    .unwrap_or_else(|| die("--sim-threads needs a worker count"));
                cli.sim_threads = match val.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => die(&format!(
                        "--sim-threads needs a positive integer, got '{val}'"
                    )),
                };
            }
            "--json" => {
                if cli.json_path.is_some() {
                    die("--json given more than once");
                }
                cli.json_path = Some(it.next().unwrap_or_else(|| die("--json needs a path")));
            }
            "--trace" => {
                if cli.trace_path.is_some() {
                    die("--trace given more than once");
                }
                cli.trace_path = Some(it.next().unwrap_or_else(|| die("--trace needs a path")));
            }
            flag if flag.starts_with("--") => {
                die(&format!(
                    "unknown flag '{flag}' — did you mean '{}'?",
                    closest(flag, FLAGS.iter().copied())
                ));
            }
            _ => cli.targets.push(arg),
        }
    }
    cli
}

fn main() {
    let cli = parse_cli(std::env::args().skip(1).collect());
    if cli.list {
        print_list();
        return;
    }
    let window = if cli.quick {
        ExperimentWindow::quick()
    } else {
        ExperimentWindow::standard()
    };

    // Validate every requested target (and --fail's) before running
    // anything.
    let names = || figs::FIGURES.iter().map(|f| f.name);
    let known = |name: &str| names().any(|n| n == name);
    for name in &cli.targets {
        if name != "all" && !known(name) {
            eprintln!(
                "error: unknown target '{name}' — did you mean '{}'?",
                closest(name, names())
            );
            eprintln!("use --list to see all targets");
            std::process::exit(2);
        }
    }
    if let Some(name) = &cli.fail {
        if !known(name) {
            eprintln!(
                "error: --fail wants a known target, '{name}' is not one — did you mean '{}'?",
                closest(name, names())
            );
            std::process::exit(2);
        }
    }

    if let Some(path) = &cli.trace_path {
        // Tracing is single-threaded by design; it never uses the pool.
        // With a named target that takes the Fig. 10a trace (the PVFS
        // figures: the per-component CPU split-up that diagnosed the
        // daemon cost model) the tracer runs that; otherwise the Fig. 7
        // split-up.
        let named = |f: &&figs::Figure| cli.targets.iter().any(|t| t == f.name);
        let traced = if figs::FIGURES
            .iter()
            .filter(named)
            .any(|f| f.trace == figs::Traced::Fig10a)
        {
            figs::Traced::Fig10a
        } else {
            figs::Traced::Fig7
        };
        traced.run(window, std::path::Path::new(path));
        if cli.targets.is_empty() && cli.json_path.is_none() {
            return;
        }
    }

    let start = std::time::Instant::now();
    let all = cli.targets.is_empty() || cli.targets.iter().any(|t| t == "all");
    let opts = figs::SuperviseOpts {
        audit: cli.audit,
        event_budget: None,
        force_fail: cli.fail.clone(),
        sim_threads: cli.sim_threads,
    };
    let mut results = Vec::new();
    for name in names() {
        if all || cli.targets.iter().any(|t| t == name) {
            // Figures run one at a time, so a reset here makes each
            // reading that figure's own peak; without it the reading would
            // be a process-lifetime mark, so it is dropped.
            let own_peak = figs::reset_peak_rss();
            let mut fig = figs::run_figure_supervised(name, window, cli.jobs, &opts)
                .expect("FIGURES only lists known figures");
            if !own_peak {
                fig.peak_rss_bytes = None;
            }
            if let Some(reason) = &fig.error {
                eprintln!("\n=== {name}: FAILED ===\n{reason}");
            } else {
                figs::render(&fig);
            }
            results.push(fig);
        }
    }
    let total_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    if let Some(path) = &cli.json_path {
        let meta = RunMeta {
            quick: cli.quick,
            jobs: cli.jobs,
            sim_threads: cli.sim_threads,
            total_wall_ms,
        };
        let doc = report::render_json(&meta, &results);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "\nwrote {path} ({} figures, {total_wall_ms:.0} ms total, {} jobs)",
            results.len(),
            cli.jobs
        );
    }

    // Partial-failure summary: one line per figure, failures last-word
    // visible without scrolling, exit 3 so CI can tell "some figures
    // failed but the report is intact" from a hard crash.
    let failed = results.iter().filter(|f| f.failed()).count();
    if failed > 0 {
        eprintln!(
            "\n=== run summary: {failed}/{} figures failed ===",
            results.len()
        );
        for fig in &results {
            match &fig.error {
                Some(reason) => eprintln!("  {:<12} FAILED  {reason}", fig.name),
                None => eprintln!("  {:<12} ok      ({:.0} ms)", fig.name, fig.wall_ms),
            }
        }
        std::process::exit(3);
    }
}
