//! CLI contract tests for the `repro` binary: strict flag parsing,
//! `--jobs`/`--json` handling, and the exit-2 error paths. Runs the
//! real binary (`CARGO_BIN_EXE_repro`), so these cover exactly what a
//! user or the CI pipeline sees.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unknown_flag_exits_2_with_suggestion() {
    // Regression: '--josb' used to be silently ignored and the whole
    // suite ran as if no flag had been passed.
    let out = repro(&["--josb"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown flag '--josb'"), "stderr: {err}");
    assert!(err.contains("--jobs"), "suggests the closest flag: {err}");
}

#[test]
fn unknown_target_exits_2_with_suggestion() {
    let out = repro(&["fig3c"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown target 'fig3c'"), "stderr: {err}");
    assert!(err.contains("did you mean"), "stderr: {err}");
}

#[test]
fn repeated_trace_flag_is_rejected() {
    // Regression: the second '--trace' left its path in the target list,
    // producing a baffling "unknown target '/tmp/b.json'" error.
    let out = repro(&["--trace", "/tmp/a.json", "--trace", "/tmp/b.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--trace given more than once"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn trace_without_path_is_rejected() {
    let out = repro(&["--trace"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--trace needs a path"));
}

#[test]
fn jobs_flag_validates_its_value() {
    for bad in [&["--jobs"][..], &["--jobs", "0"], &["--jobs", "many"]] {
        let out = repro(bad);
        assert_eq!(out.status.code(), Some(2), "args: {bad:?}");
        assert!(stderr(&out).contains("--jobs"), "args: {bad:?}");
    }
    let out = repro(&["--jobs", "2", "--jobs", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("more than once"));
}

#[test]
fn list_prints_targets_and_exits_0() {
    let out = repro(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for fig in ioat_bench::FIGURES {
        assert!(
            text.lines().any(|l| {
                l.split_whitespace().next() == Some(fig.name) && l.ends_with(fig.about)
            }),
            "--list names {} with its description:\n{text}",
            fig.name
        );
    }
}

#[test]
fn abl_modern_typo_exits_2_with_suggestion() {
    // `abl-modern-dc` was a per-workload slice of the grid; `abl-modern`
    // prints every workload's rows and verdict.
    for name in ["abl-modren", "abl-modern-dc"] {
        let out = repro(&[name]);
        assert_eq!(out.status.code(), Some(2), "target {name}");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("unknown target '{name}'")),
            "stderr: {err}"
        );
        assert!(
            err.contains("did you mean 'abl-modern'"),
            "suggests the grid target: {err}"
        );
    }
}

#[test]
fn quick_run_with_jobs_and_json_writes_report() {
    let path = std::env::temp_dir().join("ioat_bench_cli_test.json");
    let _ = std::fs::remove_file(&path);
    let out = repro(&[
        "--quick",
        "--jobs",
        "2",
        "--json",
        path.to_str().unwrap(),
        "fig6",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("Fig 6"),
        "table still renders alongside --json"
    );
    let doc = std::fs::read_to_string(&path).expect("report written");
    assert!(doc.contains("\"schema\": \"ioat-bench/4\""));
    assert!(doc.contains("\"name\": \"fig6\""));
    assert!(doc.contains("\"status\": \"ok\""));
    assert!(doc.contains("\"error\": null"));
    assert!(doc.contains("\"jobs\": 2"));
    assert!(doc.contains("\"sim_threads\": 1"), "default is 1");
    assert!(doc.contains("\"parsim\": []"), "fig6 is not partitioned");
    assert!(doc.contains("\"total_wall_ms\""));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sim_threads_flag_validates_its_value() {
    // Satellite contract for `--sim-threads`: reject a missing value,
    // zero (a partitioned run needs at least one worker), non-numeric
    // values, and repetition — all before any figure runs.
    for bad in [
        &["--sim-threads"][..],
        &["--sim-threads", "0"],
        &["--sim-threads", "many"],
        &["--sim-threads", "-2"],
    ] {
        let out = repro(bad);
        assert_eq!(out.status.code(), Some(2), "args: {bad:?}");
        assert!(stderr(&out).contains("--sim-threads"), "args: {bad:?}");
    }
    let out = repro(&["--sim-threads", "2", "--sim-threads", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--sim-threads given more than once"));
}

#[test]
fn sim_threads_typo_gets_a_suggestion() {
    let out = repro(&["--sim-thread", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown flag '--sim-thread'"), "stderr: {err}");
    assert!(err.contains("--sim-threads"), "suggests the flag: {err}");
}

#[test]
fn forced_failure_with_sim_threads_exits_3_with_a_partial_report() {
    // A partition panic takes one path at every worker count, so the
    // forced-failure smoke runs with partitioned-engine workers too.
    let path = std::env::temp_dir().join("ioat_bench_cli_fail_simthreads.json");
    let _ = std::fs::remove_file(&path);
    let out = repro(&[
        "--quick",
        "--sim-threads",
        "2",
        "--fail",
        "fig6",
        "--json",
        path.to_str().unwrap(),
        "fig6",
        "abl-copy",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let doc = std::fs::read_to_string(&path).expect("partial report written");
    // Each figure's header (name, status, ...) is one line of the report.
    let status_of = |name: &str| {
        let key = format!("\"name\": \"{name}\"");
        let line = doc
            .lines()
            .find(|l| l.contains(&key))
            .expect("figure in report");
        ["ok", "failed"]
            .into_iter()
            .find(|s| line.contains(&format!("\"status\": \"{s}\"")))
    };
    assert_eq!(status_of("fig6"), Some("failed"), "report: {doc}");
    assert_eq!(status_of("abl-copy"), Some("ok"), "report: {doc}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sim_threads_is_recorded_in_the_report_header() {
    let path = std::env::temp_dir().join("ioat_bench_cli_simthreads.json");
    let _ = std::fs::remove_file(&path);
    let out = repro(&[
        "--quick",
        "--jobs",
        "2",
        "--sim-threads",
        "4",
        "--json",
        path.to_str().unwrap(),
        "fig6",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let doc = std::fs::read_to_string(&path).expect("report written");
    assert!(
        doc.contains("\"sim_threads\": 4"),
        "header records the flag"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fail_flag_rejects_unknown_targets() {
    let out = repro(&["--fail", "fig3c"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--fail"), "stderr: {err}");
    assert!(err.contains("did you mean"), "stderr: {err}");
}

#[test]
fn forced_failure_exits_3_with_a_partial_report() {
    // The acceptance smoke for the whole supervision path: one figure is
    // made to panic inside the sweep pool; the run must finish the other
    // figure, write a complete JSON report marking only the poisoned
    // figure failed, print a summary, and exit 3.
    let path = std::env::temp_dir().join("ioat_bench_cli_fail_test.json");
    let _ = std::fs::remove_file(&path);
    let out = repro(&[
        "--quick",
        "--jobs",
        "8",
        "--fail",
        "fig6",
        "--json",
        path.to_str().unwrap(),
        "fig6",
        "abl-copy",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("run summary"), "stderr: {err}");
    assert!(err.contains("1/2 figures failed"), "stderr: {err}");
    assert!(
        stdout(&out).contains("Ablation A2"),
        "the surviving figure still renders"
    );
    let doc = std::fs::read_to_string(&path).expect("partial report written");
    assert!(doc.contains("\"name\": \"fig6\", \"title\": \"fig6 (failed)\""));
    assert!(doc.contains("\"status\": \"failed\""));
    assert!(doc.contains("deliberate failure injected by --fail"));
    assert!(
        doc.contains("\"name\": \"abl-copy\"") && doc.contains("\"status\": \"ok\""),
        "surviving figure reports ok rows"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn audit_run_is_bit_identical_to_plain_run() {
    // The --audit acceptance criterion, end to end through the real
    // binary: same figure, same jobs, audit scope on vs off — the JSON
    // rows must match exactly (only wall-clock fields may differ).
    let strip = |doc: &str| -> String {
        doc.lines()
            .filter(|l| !l.contains("wall_ms"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let dir = std::env::temp_dir();
    let plain = dir.join("ioat_bench_cli_plain.json");
    let audited = dir.join("ioat_bench_cli_audited.json");
    for (flags, path) in [(&[][..], &plain), (&["--audit"][..], &audited)] {
        let mut args = vec!["--quick", "--jobs", "2", "--json", path.to_str().unwrap()];
        args.extend_from_slice(flags);
        args.push("fig6");
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    }
    let a = std::fs::read_to_string(&plain).expect("plain report");
    let b = std::fs::read_to_string(&audited).expect("audited report");
    assert_eq!(strip(&a), strip(&b), "--audit must not perturb any row");
    let _ = std::fs::remove_file(&plain);
    let _ = std::fs::remove_file(&audited);
}

#[test]
fn trace_without_target_writes_fig7_trace_and_csv() {
    // With no target, --trace runs only the Fig. 7 split-up and writes the
    // full-I/OAT run as a Chrome trace plus its events CSV sidecar.
    let dir = std::env::temp_dir().join(format!("ioat_bench_cli_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("t.json");
    let out = repro(&["--quick", "--trace", json.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let doc = std::fs::read_to_string(&json).expect("trace JSON written");
    assert!(doc.contains("traceEvents"), "not a Chrome trace");
    assert!(!doc.contains("\"cat\":\"sim\""), "no engine events");
    assert!(dir.join("t.events.csv").exists(), "events CSV written");
    assert!(
        stdout(&out).contains("copy share of the CPU receive path"),
        "stdout: {}",
        stdout(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_with_an_extended_pvfs_target_takes_the_fig10a_trace() {
    // Every PVFS target, the `ext-pvfs-*` family included, names the
    // Fig. 10a configuration in the figure table.
    let dir = std::env::temp_dir().join(format!("ioat_bench_cli_trace10_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("t.json");
    let out = repro(&[
        "--quick",
        "--trace",
        json.to_str().unwrap(),
        "ext-pvfs-meta",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Fig 10a CPU split-up"), "stdout: {text}");
    assert!(!text.contains("Fig 7 CPU split-up"), "stdout: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}
