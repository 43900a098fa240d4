//! The parallel sweep executor.
//!
//! Every figure of the paper's evaluation is a grid of *independent*
//! configuration points (ports × I/OAT on/off, thread counts, Zipf α,
//! PVFS client counts, ...). Each point is a deterministic
//! single-threaded simulation — `Sim` is `Rc`-based and never crosses a
//! thread — but nothing orders one point after another, so the sweep as
//! a whole parallelizes perfectly. [`run_jobs`] fans a figure's points
//! across a small `std::thread` pool and reassembles the results in
//! input order, which keeps the output bit-identical to a sequential
//! run (asserted by `tests/parallel_determinism.rs`).
//!
//! Panics: every job runs under its own `catch_unwind`, so one panicking
//! point can never take down in-flight siblings or leak the pool — the
//! other workers drain their queues normally, and [`run_jobs`] re-raises
//! the first panic (in input order) afterwards: a panic means the figure
//! itself is broken. The figure-level supervisor
//! (`run_figure_supervised`) turns that panic into a reported failure.
//!
//! Determinism contract:
//!
//! * each job is a pure function of its inputs (every simulation seeds
//!   its own RNG streams; no job reads global mutable state),
//! * results are stored at the job's input index, never in completion
//!   order,
//! * `workers == 1` runs every job inline on the calling thread — the
//!   exact sequential behaviour, preserved for `--trace`/telemetry
//!   paths that rely on single-threaded execution.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: the host's available parallelism, or 1
/// when the platform cannot report it.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

type JobResult<T> = Result<T, Box<dyn Any + Send>>;

/// The executor core: runs every job (with per-job panic isolation) and
/// returns `Result`s **in input order**, the panic payload preserved for
/// the caller to re-raise. `AssertUnwindSafe` is sound because a
/// panicking job's partially-mutated state is dropped wholesale and
/// nothing outside the closure observes it.
///
/// `workers` is clamped to `1..=jobs.len()`; `workers <= 1` (or a
/// single job) degenerates to a plain sequential loop on the calling
/// thread. Otherwise `workers` scoped threads pull jobs from a shared
/// cursor — index order, so early rows start first — and write each
/// outcome into its input slot. Workers themselves never panic (every
/// job runs under `catch_unwind`), so the pool always drains fully.
/// Each worker runs under the caller's audit scope
/// ([`ioat_guard::current`]), so jobs audit and budget exactly as they
/// would inline.
///
/// # Panics
///
/// On an empty job list: a figure that sweeps zero points is a harness
/// bug, and silently returning an empty table would let it masquerade
/// as a completed run (the config-validation counterpart to the
/// zero-bandwidth and zero-core-node constructor asserts).
fn run_jobs_raw<T, F>(jobs: Vec<F>, workers: usize) -> Vec<JobResult<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    assert!(
        n > 0,
        "sweep invoked with an empty job list — a figure with zero configuration points \
         cannot produce a table and indicates a harness bug"
    );
    if workers <= 1 || n == 1 {
        return jobs
            .into_iter()
            .map(|job| panic::catch_unwind(AssertUnwindSafe(job)))
            .collect();
    }
    let workers = workers.min(n);

    // Jobs move into per-slot cells so each worker can take ownership of
    // the closure it claimed; outcomes land in matching slots.
    let job_cells: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let result_cells: Vec<Mutex<Option<JobResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let audit = ioat_guard::current();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                audit.enter(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let job = job_cells[i]
                        .lock()
                        .expect("job mutex never poisoned: taken exactly once")
                        .take()
                        .expect("each job index is claimed exactly once");
                    let out = panic::catch_unwind(AssertUnwindSafe(job));
                    *result_cells[i]
                        .lock()
                        .expect("result mutex never poisoned: written exactly once") = Some(out);
                })
            });
        }
    });

    result_cells
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("result mutex never poisoned")
                .expect("every job slot is filled: workers catch all job panics")
        })
        .collect()
}

/// Runs every job and returns their results **in input order**.
///
/// See the module docs for the pool mechanics.
///
/// # Panics
///
/// * On an empty job list: a figure that sweeps zero points is a harness
///   bug, not a completed run.
/// * A panic inside any job propagates to the caller after the pool
///   drains, with its original payload and in input order (job 3's
///   panic is re-raised even if job 7 also panicked earlier in wall
///   time): no result is silently dropped, no thread is leaked — the
///   other workers finish their queues first.
pub fn run_jobs<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    let mut out = Vec::with_capacity(jobs.len());
    for result in run_jobs_raw(jobs, workers) {
        match result {
            Ok(v) => out.push(v),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioat_simcore::SimTime;

    #[test]
    fn results_come_back_in_input_order() {
        // Jobs deliberately finish out of order (later indices are
        // cheaper); the output must still follow input order.
        let jobs: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    let mut acc = 0u64;
                    for k in 0..((32 - i) * 10_000) {
                        acc = acc.wrapping_add(k ^ i);
                    }
                    std::hint::black_box(acc);
                    i * 2
                }
            })
            .collect();
        let out = run_jobs(jobs, 8);
        assert_eq!(out, (0..32u64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let mk = || (0..16u64).map(|i| move || i * i + 1).collect::<Vec<_>>();
        assert_eq!(run_jobs(mk(), 1), run_jobs(mk(), 7));
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs: Vec<_> = (0..3u32).map(|i| move || i).collect();
        assert_eq!(run_jobs(jobs, 64), vec![0, 1, 2]);
    }

    #[test]
    fn zero_workers_clamps_to_sequential() {
        let jobs: Vec<_> = (0..4u32).map(|i| move || i + 10).collect();
        assert_eq!(run_jobs(jobs, 0), vec![10, 11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "empty job list")]
    fn empty_job_list_is_rejected_as_a_harness_bug() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        let _ = run_jobs(jobs, 4);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8u32)
            .map(|i| {
                Box::new(move || {
                    if i == 5 {
                        panic!("job 5 exploded");
                    }
                    i
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_jobs(jobs, 4)))
            .expect_err("the job panic must reach the caller");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("job 5 exploded"), "got panic payload: {msg:?}");
    }

    #[test]
    fn first_panic_in_input_order_wins() {
        // Job 1 panics but is slow; job 6 panics immediately. The caller
        // must still see job 1's payload: re-raise order follows input
        // position, not completion order.
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8u32)
            .map(|i| {
                Box::new(move || {
                    if i == 1 {
                        let mut acc = 0u64;
                        for k in 0..2_000_000u64 {
                            acc = acc.wrapping_add(k);
                        }
                        std::hint::black_box(acc);
                        panic!("slow early panic");
                    }
                    if i == 6 {
                        panic!("fast late panic");
                    }
                    i
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_jobs(jobs, 8)))
            .expect_err("panics propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "slow early panic");
    }

    #[test]
    fn workers_run_under_the_callers_audit_scope() {
        let (r, violations) = ioat_guard::with_audit_budget(Some(4_321), || {
            let jobs: Vec<_> = (0..4u64)
                .map(|i| {
                    move || {
                        ioat_guard::check("sweep", "hand-off", SimTime::ZERO, false, || {
                            format!("job {i}")
                        });
                        ioat_guard::event_limit()
                    }
                })
                .collect();
            run_jobs(jobs, 2)
        });
        assert_eq!(r.expect("no job panics"), [4_321; 4]);
        assert_eq!(violations.len(), 4, "every job's violation is collected");
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
