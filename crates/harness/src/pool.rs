//! An ordered, work-stealing parallel map over scoped threads.
//!
//! The pool is the sanctioned place where experiment-level threads are
//! spawned (the `parallelism` simlint rule enforces this; the engine's
//! sharded conductor seam is the one waived exception below it): every
//! simulation below it stays deterministic, and the pool preserves that
//! determinism by collecting results back in job order — the output of
//! [`parallel_map`] is byte-for-byte identical to a serial
//! `jobs.iter().map(f)` regardless of thread count or OS scheduling.
//!
//! # The nested-parallelism budget rule
//!
//! A job that can itself go parallel (an `ArraySim` running sharded) must
//! size its internal worker count from [`shard_budget`], never from the
//! machine's core count or `MIMD_THREADS` directly. Each pool worker gets
//! an equal share of its caller's budget (the machine's cores outside any
//! pool) for its lifetime, so `jobs × shards` never oversubscribes the
//! machine: 8 grid cells on an 8-core box each get a budget of 1 (stay
//! serial), while a single engine-scaling job gets the whole machine.
//!
//! Panic isolation: each job runs under `catch_unwind`, so one panicking
//! grid cell cannot tear down a sweep that has hours of sibling work in
//! flight. Every other job still runs to completion; afterwards the map
//! panics once with the index and payload of each failed job.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count used by [`parallel_map`]: the `MIMD_THREADS`
/// environment variable when set to a positive integer, else the
/// machine's available parallelism (1 if unknown).
pub fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("MIMD_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

thread_local! {
    /// The budget of the pool worker running on this thread, set for the
    /// worker's lifetime; `None` on threads no pool spawned. Bookkeeping
    /// only — never used to order or gate simulation work, so it cannot
    /// affect results.
    static WORKER_BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The thread budget available to one pool job for *nested* parallelism
/// (e.g. `ArraySim::set_parallelism`), never below 1.
///
/// Called outside any `parallel_map`, this is the machine's available
/// parallelism. Called from inside a job of an `n`-worker map, it is the
/// map caller's budget divided by `n`, so every concurrently-running job
/// can use its budget without the combined thread count exceeding the
/// machine. Deliberately based on available cores, not `MIMD_THREADS`:
/// the env var sizes the *pool*, while the budget guards the *machine*.
pub fn shard_budget() -> usize {
    WORKER_BUDGET.with(Cell::get).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The panic payload of one failed job, rendered for the aggregate error.
fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string())
    }
}

/// Aggregates per-job panics into one message and raises it, after every
/// surviving job has finished.
fn raise_job_panics(failures: Vec<(usize, String)>) {
    if failures.is_empty() {
        return;
    }
    let lines: Vec<String> = failures
        .iter()
        .map(|(i, msg)| format!("  job {i}: {msg}"))
        .collect();
    panic!(
        "{} of the mapped jobs panicked (all others completed):\n{}",
        failures.len(),
        lines.join("\n")
    );
}

/// Maps `f` over `jobs` on [`configured_threads`] workers, returning
/// results in job order.
///
/// # Examples
///
/// ```
/// let squares = mimd_harness::parallel_map(vec![1u64, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(configured_threads(), jobs, f)
}

/// [`parallel_map`] with an explicit worker count.
///
/// Work distribution is a shared atomic cursor (idle workers steal the
/// next un-started run of jobs), so stragglers never serialize the tail.
/// Claims come in contiguous chunks — each `fetch_add` grabs a short run
/// instead of a single index — so when jobs are tiny (a grid of warm
/// cache hits decodes in microseconds) workers are not bottlenecked on
/// one contended cache line. The chunk size `(n / (threads * 8))`,
/// clamped to `[1, 64]`, keeps at least ~8 steal opportunities per worker
/// for load balance while amortizing the atomic for large grids. With
/// `threads <= 1` the map runs inline on the caller's thread; either way
/// the result vector is ordered by job index.
///
/// A panicking job does not abort the map: the remaining jobs run to
/// completion first, then the map panics with every failed job's index
/// and payload (so a 300-cell sweep reports "cell 217 panicked" instead
/// of losing the night's run to a poisoned thread).
pub fn parallel_map_with<T, R, F>(threads: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = jobs.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        let mut out = Vec::with_capacity(n);
        let mut failures = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(job))) {
                Ok(r) => out.push(r),
                Err(payload) => failures.push((i, describe_panic(payload.as_ref()))),
            }
        }
        raise_job_panics(failures);
        return out;
    }
    let chunk = (n / (threads * 8)).clamp(1, 64);
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    let mut failures: Vec<(usize, String)> = Vec::new();
    let budget = (shard_budget() / threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    WORKER_BUDGET.with(|b| b.set(Some(budget)));
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut broken: Vec<(usize, String)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        for (i, job) in jobs[start..end].iter().enumerate() {
                            match catch_unwind(AssertUnwindSafe(|| f(job))) {
                                Ok(r) => local.push((start + i, r)),
                                Err(payload) => {
                                    broken.push((start + i, describe_panic(payload.as_ref())));
                                }
                            }
                        }
                    }
                    (local, broken)
                })
            })
            .collect();
        for h in handles {
            let (local, broken) = h.join().expect("harness worker panicked");
            indexed.extend(local);
            failures.extend(broken);
        }
    });
    failures.sort_by_key(|(i, _)| *i);
    raise_job_panics(failures);
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_job_edge_cases() {
        let none: Vec<u32> = parallel_map_with(8, Vec::<u32>::new(), |x| *x);
        assert!(none.is_empty());
        assert_eq!(parallel_map_with(8, vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn order_is_preserved_at_any_thread_count() {
        let jobs: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = jobs.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map_with(threads, jobs.clone(), |x| x * 3 + 1);
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_job_costs_still_collect_in_order() {
        // Early jobs are the slowest; a naive chunking would reorder.
        let jobs: Vec<u64> = (0..64).collect();
        let got = parallel_map_with(4, jobs, |x| {
            let spin = (64 - x) * 1_000;
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i ^ x);
            }
            (*x, acc).0
        });
        assert_eq!(got, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn chunked_claims_cover_every_job_exactly_once() {
        // Sizes around the chunk clamp edges: chunk = 1 (tiny), interior
        // runs with a ragged tail, and the 64-cap (10_000 / 16 > 64).
        for n in [2usize, 63, 64, 65, 1000, 10_000] {
            let jobs: Vec<u64> = (0..n as u64).collect();
            let got = parallel_map_with(2, jobs, |x| x * 2);
            assert_eq!(got.len(), n, "n = {n}");
            assert!(
                got.iter().enumerate().all(|(i, &r)| r == 2 * i as u64),
                "n = {n}"
            );
        }
    }

    #[test]
    fn shard_budget_divides_cores_among_active_workers() {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(shard_budget(), avail, "idle budget is the whole machine");
        // Inside a 2-worker map every job sees a budget that two
        // concurrent jobs can spend without oversubscribing; results still
        // arrive exactly once, in order.
        let jobs: Vec<u64> = (0..64).collect();
        let got = parallel_map_with(2, jobs, |&x| (x * 2, shard_budget()));
        for (i, &(r, b)) in got.iter().enumerate() {
            assert_eq!(r, 2 * i as u64, "claims cover every job exactly once");
            assert!(
                b >= 1 && b <= (avail / 2).max(1),
                "budget {b} with 2 workers on {avail} cores"
            );
        }
        assert_eq!(shard_budget(), avail, "budget restored after the map");
    }

    #[test]
    fn a_running_map_leaves_other_threads_budgets_alone() {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let inside = std::sync::Barrier::new(2);
        let checked = std::sync::Barrier::new(2);
        let seen = std::thread::scope(|s| {
            s.spawn(|| {
                parallel_map_with(2, vec![0u8, 1], |&j| {
                    if j == 0 {
                        inside.wait();
                        checked.wait();
                    }
                })
            });
            // A job of the 2-worker map is running now.
            inside.wait();
            let seen = shard_budget();
            checked.wait();
            seen
        });
        assert_eq!(seen, avail, "a sibling map must not shrink this budget");
    }

    #[test]
    fn one_panicking_job_reports_its_index_and_spares_the_rest() {
        use std::sync::atomic::AtomicUsize;
        for threads in [1, 4] {
            let ran = AtomicUsize::new(0);
            let jobs: Vec<u64> = (0..100).collect();
            let err = catch_unwind(AssertUnwindSafe(|| {
                parallel_map_with(threads, jobs, |&x| {
                    if x == 37 {
                        panic!("cell exploded on purpose");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    x
                })
            }))
            .expect_err("the map must re-raise the job panic");
            let msg = describe_panic(err.as_ref());
            assert!(msg.contains("job 37"), "threads = {threads}: {msg}");
            assert!(
                msg.contains("cell exploded on purpose"),
                "threads = {threads}: {msg}"
            );
            assert_eq!(
                ran.load(Ordering::Relaxed),
                99,
                "threads = {threads}: every other job still ran"
            );
        }
    }

    #[test]
    fn multiple_panics_aggregate_in_job_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_with(4, jobs, |&x| {
                if x % 20 == 3 {
                    panic!("bad job {x}");
                }
                x
            })
        }))
        .expect_err("panics must propagate");
        let msg = describe_panic(err.as_ref());
        let positions: Vec<usize> = [3usize, 23, 43, 63]
            .iter()
            .map(|i| msg.find(&format!("job {i}:")).expect("listed"))
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{msg}");
    }
}
