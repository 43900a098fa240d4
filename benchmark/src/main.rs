//! Command line of the benchmark.
//!
//! ```text
//! ioat-benchmark --workload <name> [--seed S] [--seconds T] [--trace 0|1|<path>]
//! ioat-benchmark --all [--seed S] [--seconds T]
//! ioat-benchmark --list
//! ```

use ioat_benchmark::cells::{Scale, Workload, DEFAULT_SEED};
use ioat_benchmark::report::{END_TO_END, PER_LAYER};
use ioat_benchmark::run::{run, Settings};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: ioat-benchmark --workload <name> [--seed S] [--seconds T] [--trace 0|1|<path>]
       ioat-benchmark --all [--seed S] [--seconds T]
       ioat-benchmark --list";

/// Host seconds of timed passes per workload when `--seconds` is absent
/// (the `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workload: Option<Workload>,
    all: bool,
    list: bool,
    seed: u64,
    seconds: f64,
    trace: Option<String>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        list: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => a.trace = Some(value()?),
            "--all" => a.all = true,
            "--list" => a.list = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if [a.workload.is_some(), a.all, a.list]
        .iter()
        .filter(|x| **x)
        .count()
        != 1
    {
        return Err("give exactly one of --workload, --all, --list".into());
    }
    Ok(a)
}

/// `--trace 0` is off, `1` writes next to the executable, anything else
/// is the output path.
fn trace_path(flag: Option<&str>, w: Workload) -> Option<PathBuf> {
    match flag {
        None | Some("0") => None,
        Some("1") => {
            let exe = std::env::current_exe().ok()?;
            Some(exe.with_file_name(format!("trace-{}.json", w.name())))
        }
        Some(path) => Some(PathBuf::from(path)),
    }
}

fn list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {:<14} {}", w.name(), w.why());
    }
    println!("end-to-end metrics (untraced):");
    for d in END_TO_END {
        println!("  {} [{}]", d.name, d.unit);
    }
    println!("per-layer metrics (--trace):");
    for d in PER_LAYER {
        println!("  {} [{}]", d.name, d.unit);
    }
}

/// The integer after `"key": ` in a result line.
fn field(json: &str, key: &str) -> Option<u64> {
    let rest = &json[json.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

/// Runs every workload in its own child process, so each reports its own
/// peak memory. Fails when any child fails or any cell failed.
fn all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    for w in Workload::ALL {
        println!("== {} ==", w.name());
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--trace", "0"])
            .args([
                "--seed",
                &a.seed.to_string(),
                "--seconds",
                &a.seconds.to_string(),
            ])
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let last = text.lines().last().unwrap_or("").to_string();
        let good = out.status.success()
            && last.contains("\"correct\": true")
            && field(&last, "failed") == Some(0);
        if !good {
            eprintln!("{}: failed ({})", w.name(), out.status);
            ok = false;
        }
        results.push(format!(
            "\"{}\": {}",
            w.name(),
            if last.is_empty() { "null" } else { &last }
        ));
    }
    println!("{{{}}}", results.join(", "));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.list {
        list();
        return ExitCode::SUCCESS;
    }
    if a.all {
        return all(&a);
    }
    let workload = a.workload.expect("checked by parse");
    let report = run(&Settings {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: trace_path(a.trace.as_deref(), workload),
        scale: Scale::Full,
    });
    print!("{}", report.text());
    println!("{}", report.json());
    ExitCode::SUCCESS
}
