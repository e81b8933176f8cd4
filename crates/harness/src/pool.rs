//! An ordered, work-stealing parallel map over scoped threads.
//!
//! The pool is the sanctioned place where experiment-level threads are
//! spawned (the `parallelism` simlint rule enforces this; the engine's
//! sharded conductor seam is the one waived exception below it): every
//! simulation below it stays deterministic, and the pool preserves that
//! determinism by collecting results back in job order — the output of
//! [`parallel_map_with`] is byte-for-byte identical to a serial
//! `jobs.iter().map(f)` regardless of thread count or OS scheduling.
//!
//! Panic isolation: each job runs under `catch_unwind`, so one panicking
//! grid cell cannot tear down a sweep that has hours of sibling work in
//! flight. Every other job still runs to completion; afterwards the map
//! panics once with the index and payload of each failed job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The pool's default worker count: the `MIMD_THREADS` environment
/// variable when set to a positive integer, else the machine's available
/// parallelism (1 if unknown).
pub fn configured_threads() -> usize {
    std::env::var("MIMD_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
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

/// Maps `f` over `jobs` on `threads` workers, returning results in job
/// order.
///
/// Work distribution is a shared atomic cursor: each worker claims the
/// next un-started job, one `fetch_add` per job, so stragglers never
/// serialize the tail. The calling thread is one of the workers and
/// `threads - 1` scoped threads are the rest; with `threads <= 1` every
/// job runs on the caller's thread. Either way the result vector is
/// ordered by job index.
///
/// A panicking job does not abort the map: the remaining jobs run to
/// completion first, then the map panics with every failed job's index
/// and payload (so a 300-cell sweep reports "cell 217 panicked" instead
/// of losing the night's run to a poisoned thread).
///
/// # Examples
///
/// ```
/// let squares = mimd_harness::parallel_map_with(2, vec![1u64, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map_with<T, R, F>(threads: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, jobs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let work = || {
        let (mut done, mut failed) = (Vec::new(), Vec::new());
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else {
                break;
            };
            match catch_unwind(AssertUnwindSafe(|| f(job))) {
                Ok(r) => done.push((i, r)),
                Err(payload) => failed.push((i, describe_panic(payload.as_ref()))),
            }
        }
        (done, failed)
    };
    let (mut done, mut failed) = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut own = work();
        for h in helpers {
            let (d, f) = h.join().expect("harness worker panicked");
            own.0.extend(d);
            own.1.extend(f);
        }
        own
    });
    failed.sort_by_key(|(i, _)| *i);
    raise_job_panics(failed);
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
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
    fn claims_cover_every_job_exactly_once() {
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
    fn one_thread_runs_every_job_on_the_caller() {
        let caller = std::thread::current().id();
        let jobs: Vec<u64> = (0..16).collect();
        let ran_on = parallel_map_with(1, jobs, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
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
