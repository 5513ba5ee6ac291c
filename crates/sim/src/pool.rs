//! A first-party scoped-thread worker pool for embarrassingly parallel
//! sweep work (per-seed replications, experiment-grid cells).
//!
//! The build environment is offline — no `rayon`, no `crossbeam` — so
//! this module implements the minimum needed on plain `std`:
//! the calling thread plus [`std::thread::scope`] workers pulling
//! `(index, item)` pairs from a mutex-guarded queue and returning
//! `(index, result)` pairs. Results are re-assembled in **input order**,
//! so a parallel map is observably identical to a one-worker one.
//!
//! Design points (see DESIGN.md §9 for the full rationale):
//!
//! * **One entry point:** [`map_parallel`] returns one slot per item.
//!   Callers that want all-or-nothing `collect` the slots into a
//!   `Result<Vec<_>, _>`, which yields the lowest-index panic.
//! * **Scoped threads, no `'static`:** workers borrow the caller's data
//!   (task sets, platforms, workloads) directly; nothing is cloned or
//!   `Arc`-wrapped. Values that must not cross threads (scheduling
//!   policies) are built inside `f`, per item.
//! * **Panics settle per item:** a panicking item's slot is
//!   [`PoolError::WorkerPanic`] carrying that item's label; every other
//!   item still runs and keeps its result, so one poisoned cell neither
//!   takes down the process nor loses its siblings' work.
//!
//! This is the only module in the workspace allowed to spawn threads or
//! hold a lock: `clippy.toml` bans `std::thread::{spawn, scope}` and the
//! `std::sync` shared-state types everywhere else, and this module's
//! scope and queue each carry a statement-level `#[expect]`.

use std::any::Any;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread;

/// Errors from a parallel map.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PoolError {
    /// A worker job panicked. Carries the panic payload's message and the
    /// failing item's label (e.g. the `(policy, seed)` cell), so a
    /// crashed sweep cell is diagnosable from the error alone.
    WorkerPanic {
        /// The failing item's label, from the caller's `label` closure.
        label: String,
        /// The panic payload's message, when it carried one.
        message: String,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::WorkerPanic { label, message } => {
                write!(f, "worker panicked while running {label}: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Resolves the worker count for a sweep: an explicit request (a parsed
/// `--jobs N` flag) wins, then the hardware's available parallelism.
/// Zero is ignored; the result is always ≥ 1.
#[must_use]
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Parallel map preserving input order: `out[i]` is `Ok(f(i, items[i]))`,
/// or `Err(PoolError::WorkerPanic)` labelled `label(i, &items[i])` when
/// that call panicked.
///
/// Each slot depends only on its own item, so the output is the same
/// for every `jobs` count. The map runs on `jobs.max(1).min(n)` workers
/// for `n` items: the calling thread and that many minus one scoped
/// threads. One worker runs the items in input order on the caller.
///
/// `f` and `label` are shared by every worker, so they must be `Sync`.
/// That bound is what keeps each cell a pure function of its item: a
/// closure holding interior-mutable state does not compile.
///
/// ```compile_fail
/// let shared = std::cell::RefCell::new(0u64);
/// let shared = &shared;
/// eua_sim::map_parallel(2, vec![1u64, 2], |i, _| format!("cell {i}"), |_, x| {
///     std::hint::black_box(shared);
///     x
/// });
/// ```
///
/// The identical closure over a plain `&u64` compiles:
///
/// ```
/// let shared = 0u64;
/// let shared = &shared;
/// eua_sim::map_parallel(2, vec![1u64, 2], |i, _| format!("cell {i}"), |_, x| {
///     std::hint::black_box(shared);
///     x
/// });
/// ```
///
/// The remaining shared-state types a `Sync` closure could hold (locks,
/// atomics, lazily initialised globals, channels, thread-locals) are
/// banned by `clippy.toml`.
///
/// # Panics
///
/// Re-raises a panic from `label` itself: that is a bug in the caller,
/// not a failed item.
pub fn map_parallel<T, R, L, F>(
    jobs: usize,
    items: Vec<T>,
    label: L,
    f: F,
) -> Vec<Result<R, PoolError>>
where
    T: Send,
    R: Send,
    L: Fn(usize, &T) -> String + Sync,
    F: Fn(usize, T) -> R + Sync,
{
    let run = |i: usize, t: T| {
        let label = label(i, &t);
        catch_unwind(AssertUnwindSafe(|| f(i, t))).map_err(|payload| PoolError::WorkerPanic {
            label,
            message: panic_message(payload),
        })
    };
    let n = items.len();
    #[expect(
        clippy::disallowed_types,
        reason = "the one sanctioned lock: the pool's queue hands out items and holds no result"
    )]
    let queue = std::sync::Mutex::new(items.into_iter().enumerate());
    // One worker's loop: pull the next item until the queue is drained.
    // The guard drops within the `let`, so the queue is never locked
    // while an item runs. Nothing panics under the lock, so it cannot be
    // poisoned; a poisoned one would read as drained.
    let work = || {
        let mut mine = Vec::new();
        loop {
            let next = queue.lock().ok().and_then(|mut q| q.next());
            let Some((i, t)) = next else { break };
            mine.push((i, run(i, t)));
        }
        mine
    };
    let mut done: Vec<(usize, Result<R, PoolError>)> = Vec::with_capacity(n);
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned raw-thread site: the pool everything else routes through"
    )]
    thread::scope(|scope| {
        // The calling thread is one of the `jobs.max(1).min(n)` workers,
        // so a single worker spawns no thread.
        let handles: Vec<_> = (1..jobs.max(1).min(n)).map(|_| scope.spawn(work)).collect();
        done.extend(work());
        for handle in handles {
            match handle.join() {
                Ok(mine) => done.extend(mine),
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(i: usize, _: &i32) -> String {
        format!("item {i}")
    }

    fn all_ok<R>(slots: Vec<Result<R, PoolError>>) -> Vec<R> {
        slots
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("no item panics")
    }

    #[test]
    fn empty_input_yields_empty_output() {
        for jobs in [0, 1, 4] {
            let out = map_parallel(jobs, Vec::<i32>::new(), item, |_, x| x * 2);
            assert!(out.is_empty(), "jobs = {jobs}");
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        // One item caps the workers at one, as does `jobs = 1`: the
        // caller runs the items itself and no thread is spawned.
        let caller = thread::current().id();
        let on_caller = |i: usize, x: i32| (i, x * 2, thread::current().id() == caller);
        let out = all_ok(map_parallel(8, vec![21], item, on_caller));
        assert_eq!(out, vec![(0, 42, true)]);
        let out = all_ok(map_parallel(1, vec![1, 2], item, on_caller));
        assert_eq!(out, vec![(0, 2, true), (1, 4, true)]);
    }

    #[test]
    fn more_items_than_workers_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 7, 100, 1000] {
            let out = all_ok(map_parallel(
                jobs,
                items.clone(),
                |i, _| format!("item {i}"),
                |_, x| x * x,
            ));
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn panicking_job_surfaces_as_error_not_poison() {
        let err = map_parallel(2, (0..16).collect(), item, |_, x| {
            assert!(x != 5, "boom on five");
            x
        })
        .into_iter()
        .collect::<Result<Vec<i32>, _>>()
        .unwrap_err();
        match err {
            PoolError::WorkerPanic { label, message } => {
                assert_eq!(label, "item 5");
                assert!(message.contains("boom on five"), "message: {message}");
            }
        }
        // The pool is per-call: a panicked run leaves nothing behind and
        // the very next call works.
        let ok = all_ok(map_parallel(2, vec![1, 2, 3], item, |_, x| x + 1));
        assert_eq!(ok, vec![2, 3, 4]);
    }

    #[test]
    fn panic_error_carries_cell_label_and_lowest_index_wins() {
        let items: Vec<(&str, u64)> = vec![("eua", 11), ("eua", 23), ("dasa", 11), ("dasa", 23)];
        for jobs in [1, 2, 4] {
            let err = map_parallel(
                jobs,
                items.clone(),
                |_, (policy, seed)| format!("policy {policy}, seed {seed}"),
                |i, (policy, _)| {
                    assert!(i == 0 || policy != "dasa", "dasa cell crashed");
                    i
                },
            )
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
            let PoolError::WorkerPanic {
                ref label,
                ref message,
            } = err;
            assert_eq!(label, "policy dasa, seed 11", "jobs = {jobs}");
            assert!(message.contains("dasa cell crashed"), "jobs = {jobs}");
            assert!(
                err.to_string().contains("policy dasa, seed 11"),
                "display must name the failing cell: {err}"
            );
        }
    }

    #[test]
    fn settle_turns_panics_into_slots_without_losing_siblings() {
        let items: Vec<i32> = (0..16).collect();
        let mut expect: Vec<Result<i32, PoolError>> = items.iter().map(|&x| Ok(x * 2)).collect();
        expect[5] = Err(PoolError::WorkerPanic {
            label: "cell 5".to_string(),
            message: "boom on five".to_string(),
        });
        for jobs in [1, 2, 4] {
            let out = map_parallel(
                jobs,
                items.clone(),
                |i, _| format!("cell {i}"),
                |_, x| {
                    assert!(x != 5, "boom on five");
                    x * 2
                },
            );
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn label_panic_is_re_raised_not_settled() {
        let label = |i: usize, _: &i32| -> String {
            assert!(i != 3, "label bug");
            format!("item {i}")
        };
        for jobs in [1, 2] {
            let payload = catch_unwind(|| map_parallel(jobs, (0..8).collect(), label, |_, x| x))
                .expect_err("a label panic must propagate");
            assert_eq!(panic_message(payload), "label bug", "jobs = {jobs}");
        }
    }

    #[test]
    fn jobs_zero_still_maps_every_item_in_order() {
        let out = all_ok(map_parallel(0, vec![1, 2, 3], item, |_, x| x * 10));
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn resolve_jobs_prefers_explicit_over_hardware() {
        let hardware = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(resolve_jobs(Some(7)), 7);
        assert_eq!(resolve_jobs(Some(0)), hardware, "zero is ignored");
        assert_eq!(resolve_jobs(None), hardware);
    }
}
