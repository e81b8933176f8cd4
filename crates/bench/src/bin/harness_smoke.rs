//! Harness smoke test and thread-scaling demonstration.
//!
//! Runs one small but real list of experiment jobs serially and at
//! several worker counts, asserts the emitted JSON is **byte-identical**
//! at every count (the harness's core guarantee), and records the
//! wall-clock times. The numbers are honest for whatever machine runs
//! this: on a single-core container the parallel runs show overhead, not
//! speedup, and the record says how many cores were available.
//!
//! Exits non-zero if any thread count produces different bytes, so CI can
//! use it as the determinism gate.

use std::time::Instant;

use mimd_bench::{Job, Json};
use mimd_core::{EngineConfig, Policy, Shape};
use mimd_harness::{report_json, run_jobs_on, write_json, RunCache};
use mimd_workload::{IometerSpec, SyntheticSpec, Trace};

/// 3 shapes × 2 policies × 2 workloads, in that nesting order.
fn jobs(trace: &Trace) -> Vec<Job<'_>> {
    let data = 4 * 1024 * 1024;
    let mut jobs = Vec::new();
    for shape in [
        Shape::striping(2),
        Shape::sr_array(2, 2).unwrap(),
        Shape::sr_array(2, 3).unwrap(),
    ] {
        for policy in [None, Some(Policy::Look)] {
            let mut cfg = EngineConfig::new(shape).with_seed(42);
            if let Some(p) = policy {
                cfg = cfg.with_policy(p);
            }
            jobs.push(Job::trace(cfg.clone(), trace));
            jobs.push(Job::closed(cfg, IometerSpec::random_read_512(data), 8, 500));
        }
    }
    jobs
}

/// Every job's report as one JSON array, in job order.
fn run(threads: usize, trace: &Trace) -> String {
    let reports = run_jobs_on(threads, &RunCache::from_env(), jobs(trace));
    Json::Arr(
        reports
            .into_iter()
            .map(|mut r| report_json(&mut r))
            .collect(),
    )
    .to_json()
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Generated once per process and replayed by every trace job below.
    let trace = SyntheticSpec::cello_base().generate(7, 2_000);
    let n_jobs = jobs(&trace).len();
    println!("harness smoke: {n_jobs} jobs, {cores} core(s) available");

    // One discarded pass warms the allocator, page cache, and lazily
    // initialised tables before anything is timed, so the serial
    // reference does not absorb the one-time costs.
    let _ = run(1, &trace);
    let t0 = Instant::now();
    let serial = run(1, &trace);
    let serial_s = t0.elapsed().as_secs_f64();
    println!("  threads= 1  {serial_s:>7.3}s  (reference)");

    let mut runs = vec![Json::object([
        ("threads", Json::from(1u64)),
        ("wall_s", Json::from(serial_s)),
        ("identical", Json::from(true)),
    ])];
    let mut ok = true;
    for threads in [2usize, 4, 8] {
        // Discarded warmup at this thread count: pool spin-up and
        // first-touch effects land outside the timed window.
        let _ = run(threads, &trace);
        let t = Instant::now();
        let parallel = run(threads, &trace);
        let wall = t.elapsed().as_secs_f64();
        let identical = parallel == serial;
        ok &= identical;
        println!(
            "  threads={threads:>2}  {wall:>7.3}s  speedup {:.2}x  bytes {}",
            serial_s / wall,
            if identical { "identical" } else { "DIFFER" }
        );
        runs.push(Json::object([
            ("threads", Json::from(threads)),
            ("wall_s", Json::from(wall)),
            ("speedup", Json::from(serial_s / wall)),
            ("identical", Json::from(identical)),
        ]));
    }

    let doc = Json::object([
        ("experiment", Json::from("harness_scaling")),
        ("jobs", Json::from(n_jobs)),
        ("available_cores", Json::from(cores)),
        ("serial_bytes", Json::from(serial.len() as u64)),
        ("runs", Json::Arr(runs)),
        (
            "note",
            Json::from(
                "speedup is bounded by available_cores; on a 1-core host \
                 parallel runs measure pool overhead only",
            ),
        ),
    ]);
    match write_json("harness_scaling", &doc) {
        Ok(p) => println!("\n[json] {}", p.display()),
        Err(e) => eprintln!("\n[json] write failed: {e}"),
    }

    if ok {
        println!("determinism: all thread counts byte-identical to serial");
    } else {
        eprintln!("determinism VIOLATION: parallel bytes differ from serial");
        std::process::exit(1);
    }
}
