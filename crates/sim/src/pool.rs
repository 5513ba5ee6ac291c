//! A first-party scoped-thread worker pool for embarrassingly parallel
//! sweep work (per-seed replications, experiment-grid cells).
//!
//! The build environment is offline — no `rayon`, no `crossbeam` — so
//! this module implements the minimum needed on plain `std`:
//! [`std::thread::scope`] workers pulling `(index, item)` pairs from a
//! mutex-guarded queue and returning `(index, result)` pairs through
//! their join handles. Results are re-assembled in **input order**, so a
//! parallel map is observably identical to the sequential one.
//!
//! Design points (see DESIGN.md §9 for the full rationale):
//!
//! * **Scoped threads, no `'static`:** workers borrow the caller's data
//!   (task sets, platforms, workloads) directly; nothing is cloned or
//!   `Arc`-wrapped.
//! * **Worker-local state via factory:** [`map_parallel_with`] builds one
//!   state value (e.g. a scheduling policy) per *worker*, not per item,
//!   so non-`Sync` mutable policy state never crosses threads and
//!   construction cost is amortized across the worker's items.
//! * **Panics surface as errors:** a panicking job is reported as
//!   [`PoolError::WorkerPanic`] after every other worker has drained the
//!   queue — one poisoned item does not take down the process or lose
//!   the siblings' completed work.
//!
//! This is the only module in the workspace allowed to spawn threads;
//! `clippy.toml` bans `std::thread::{spawn, scope}` everywhere else.

use std::any::Any;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;

/// Errors from a parallel map.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PoolError {
    /// A worker job panicked. Carries the panic payload's message and the
    /// failing item's label (e.g. the `(policy, seed)` cell), so a
    /// crashed sweep cell is diagnosable from the error alone.
    WorkerPanic {
        /// The failing item's label, from the caller's labeler (the
        /// default is `item {index}`).
        label: String,
        /// The panic payload's message, when it carried one.
        message: String,
    },
    /// A result slot was never filled (only reachable through a panic
    /// that was itself lost, kept as a defensive invariant check).
    MissingResult {
        /// Input index of the missing item.
        index: usize,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::WorkerPanic { label, message } => {
                write!(f, "worker panicked while running {label}: {message}")
            }
            PoolError::MissingResult { index } => {
                write!(f, "no result produced for item {index}")
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
/// `--jobs N` flag) wins, then the `EUA_JOBS` environment variable, then
/// the hardware's available parallelism. Zero values are ignored; the
/// result is always ≥ 1, and `1` means "run sequentially".
#[must_use]
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var("EUA_JOBS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Parallel map preserving input order: `out[i] == f(i, items[i])`.
///
/// With `jobs <= 1` (or at most one item) the map runs sequentially on
/// the calling thread — the fallback path shares no code with the
/// threaded one, so `--jobs 1` is always a faithful baseline.
///
/// # Errors
///
/// [`PoolError::WorkerPanic`] if any job panicked; the remaining workers
/// still drain the queue first.
pub fn map_parallel<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Result<Vec<R>, PoolError>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    map_parallel_with(jobs, items, || (), |(), i, t| f(i, t))
}

/// [`map_parallel`] with **worker-local state**: `init` runs once per
/// worker (on that worker's thread) and the state is threaded through
/// every job the worker executes. The sequential fallback constructs the
/// state exactly once.
///
/// This is how policy values reach worker threads: policies are neither
/// `Send` nor `Sync` by contract, so each worker builds its own from a
/// `Sync` factory closure and reuses it across its share of the items.
///
/// # Errors
///
/// [`PoolError::WorkerPanic`] if any `init` or job panicked; the
/// remaining workers still drain the queue first.
pub fn map_parallel_with<S, T, R, I, F>(
    jobs: usize,
    items: Vec<T>,
    init: I,
    f: F,
) -> Result<Vec<R>, PoolError>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    map_parallel_labeled(jobs, items, |i, _| format!("item {i}"), init, f)
}

/// [`map_parallel_with`] with a **labeler**: `labeler(i, &items[i])`
/// names each item (e.g. `"policy eua, seed 23"`), and that label rides
/// on [`PoolError::WorkerPanic`] when the item's job panics — a crashed
/// sweep cell is then diagnosable from the error alone.
///
/// Panics are caught **per item** (the worker rebuilds its state through
/// `init` and keeps draining the queue), and when several items panic the
/// error reports the lowest input index, so the returned error is
/// deterministic across `jobs` counts.
///
/// # Errors
///
/// [`PoolError::WorkerPanic`] if any job panicked; every other item is
/// still attempted first.
pub fn map_parallel_labeled<S, T, R, L, I, F>(
    jobs: usize,
    items: Vec<T>,
    labeler: L,
    init: I,
    f: F,
) -> Result<Vec<R>, PoolError>
where
    T: Send,
    R: Send,
    L: Fn(usize, &T) -> String + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        let mut state = init();
        let mut out = Vec::with_capacity(n);
        let mut first_panic: Option<(usize, String, String)> = None;
        for (i, t) in items.into_iter().enumerate() {
            let label = labeler(i, &t);
            match catch_unwind(AssertUnwindSafe(|| f(&mut state, i, t))) {
                Ok(r) => out.push(r),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some((i, label, panic_message(payload)));
                    }
                    // The job may have torn its state mid-panic.
                    state = init();
                }
            }
        }
        return match first_panic {
            Some((_, label, message)) => Err(PoolError::WorkerPanic { label, message }),
            None => Ok(out),
        };
    }
    let workers = jobs.min(n);
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut panics: Vec<(usize, String, String)> = Vec::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned raw-thread site: the pool everything else routes through"
    )]
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done: Vec<(usize, R)> = Vec::new();
                    let mut failed: Vec<(usize, String, String)> = Vec::new();
                    loop {
                        // A poisoned queue means a sibling panicked while
                        // *taking* an item; treat the queue as drained.
                        let next = match queue.lock() {
                            Ok(mut q) => q.next(),
                            Err(_) => None,
                        };
                        let Some((i, t)) = next else { break };
                        let label = labeler(i, &t);
                        match catch_unwind(AssertUnwindSafe(|| f(&mut state, i, t))) {
                            Ok(r) => done.push((i, r)),
                            Err(payload) => {
                                failed.push((i, label, panic_message(payload)));
                                state = init();
                            }
                        }
                    }
                    (done, failed)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((done, failed)) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                    panics.extend(failed);
                }
                Err(payload) => {
                    // Only `init` or `labeler` can get here now; report it
                    // without an item attribution.
                    panics.push((
                        usize::MAX,
                        "worker setup".to_string(),
                        panic_message(payload),
                    ));
                }
            }
        }
    });
    if let Some((_, label, message)) = panics.into_iter().min_by(|a, b| a.0.cmp(&b.0)) {
        return Err(PoolError::WorkerPanic { label, message });
    }
    let mut out = Vec::with_capacity(n);
    for (index, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(r) => out.push(r),
            None => return Err(PoolError::MissingResult { index }),
        }
    }
    Ok(out)
}

/// [`map_parallel_labeled`] that **settles** instead of aborting: every
/// item produces a slot, and a panicking item's slot is
/// `Err(PoolError::WorkerPanic)` carrying that item's label, while the
/// surviving items' results are returned intact. Chaos/robustness
/// sweeps use this so one crashed cell becomes a graded report entry
/// (and a shrink candidate) rather than taking down the whole campaign.
///
/// Slots are in input order, and each slot depends only on its own
/// item, so the output is deterministic across `jobs` counts. The
/// worker's state is rebuilt through `init` after a panic (the job may
/// have torn it mid-unwind).
///
/// # Errors
///
/// The *outer* `Result` only fails if `init` or the labeler itself
/// panicked — item-level panics are settled into their slots.
pub fn map_parallel_settle<S, T, R, L, I, F>(
    jobs: usize,
    items: Vec<T>,
    labeler: L,
    init: I,
    f: F,
) -> Result<Vec<Result<R, PoolError>>, PoolError>
where
    T: Send,
    R: Send,
    L: Fn(usize, &T) -> String + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    let labeled: Vec<(String, T)> = items
        .into_iter()
        .enumerate()
        .map(|(i, t)| (labeler(i, &t), t))
        .collect();
    map_parallel_labeled(
        jobs,
        labeled,
        |_, (label, _)| label.clone(),
        &init,
        |state, i, (label, t)| match catch_unwind(AssertUnwindSafe(|| f(state, i, t))) {
            Ok(r) => Ok(r),
            Err(payload) => {
                // The panic may have torn the worker's state mid-unwind.
                *state = init();
                Err(PoolError::WorkerPanic {
                    label,
                    message: panic_message(payload),
                })
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = map_parallel(4, Vec::<i32>::new(), |_, x| x * 2).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_on_caller_thread() {
        let out = map_parallel(8, vec![21], |i, x| (i, x * 2)).unwrap();
        assert_eq!(out, vec![(0, 42)]);
    }

    #[test]
    fn more_items_than_workers_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 7, 100, 1000] {
            let out = map_parallel(jobs, items.clone(), |_, x| x * x).unwrap();
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn panicking_job_surfaces_as_error_not_poison() {
        let err = map_parallel(2, (0..16).collect::<Vec<i32>>(), |_, x| {
            assert!(x != 5, "boom on five");
            x
        })
        .unwrap_err();
        match err {
            PoolError::WorkerPanic { label, message } => {
                assert_eq!(label, "item 5");
                assert!(message.contains("boom on five"), "message: {message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The pool is per-call: a panicked run leaves nothing behind and
        // the very next call works.
        let ok = map_parallel(2, vec![1, 2, 3], |_, x| x + 1).unwrap();
        assert_eq!(ok, vec![2, 3, 4]);
    }

    #[test]
    fn panic_error_carries_cell_label_and_lowest_index_wins() {
        let items: Vec<(&str, u64)> = vec![("eua", 11), ("eua", 23), ("dasa", 11), ("dasa", 23)];
        for jobs in [1, 2, 4] {
            let err = map_parallel_labeled(
                jobs,
                items.clone(),
                |_, (policy, seed)| format!("policy {policy}, seed {seed}"),
                || (),
                |(), i, (policy, _)| {
                    assert!(i == 0 || policy != "dasa", "dasa cell crashed");
                    i
                },
            )
            .unwrap_err();
            match err {
                PoolError::WorkerPanic {
                    ref label,
                    ref message,
                } => {
                    assert_eq!(label, "policy dasa, seed 11", "jobs = {jobs}");
                    assert!(message.contains("dasa cell crashed"), "jobs = {jobs}");
                }
                ref other => panic!("expected WorkerPanic, got {other:?}"),
            }
            assert!(
                err.to_string().contains("policy dasa, seed 11"),
                "display must name the failing cell: {err}"
            );
        }
    }

    #[test]
    fn worker_local_state_is_constructed_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out = map_parallel_with(
            3,
            (0..30).collect::<Vec<usize>>(),
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |seen, _, x| {
                *seen += 1;
                x
            },
        )
        .unwrap();
        assert_eq!(out, (0..30).collect::<Vec<usize>>());
        let constructed = inits.load(Ordering::SeqCst);
        assert!(
            (1..=3).contains(&constructed),
            "one state per worker, got {constructed}"
        );
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
            let out = map_parallel_settle(
                jobs,
                items.clone(),
                |i, _| format!("cell {i}"),
                || (),
                |(), _, x| {
                    assert!(x != 5, "boom on five");
                    x * 2
                },
            )
            .unwrap();
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn settle_rebuilds_worker_state_after_a_panic() {
        // A panicking item must not leave its worker's accumulator torn
        // for the items that follow it on the same worker.
        let out = map_parallel_settle(
            1,
            (0..6).collect::<Vec<i32>>(),
            |i, _| format!("cell {i}"),
            || 0i32,
            |acc, _, x| {
                *acc += 1;
                assert!(x != 2, "tear");
                (*acc, x)
            },
        )
        .unwrap();
        // After the panic at x = 2 the state restarts from 0.
        assert_eq!(out[3], Ok((1, 3)));
        assert_eq!(out[4], Ok((2, 4)));
    }

    #[test]
    fn jobs_zero_falls_back_to_sequential() {
        let out = map_parallel(0, vec![1, 2, 3], |_, x| x * 10).unwrap();
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn resolve_jobs_prefers_explicit_over_env_and_hardware() {
        assert_eq!(resolve_jobs(Some(7)), 7);
        assert!(resolve_jobs(Some(0)) >= 1, "zero is ignored, not honored");
        assert!(resolve_jobs(None) >= 1);
    }
}
