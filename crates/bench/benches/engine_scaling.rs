//! Whole-engine scaling: events/second of one large simulation as the
//! shard worker count grows. Print-only; run it by hand with
//! `cargo bench -p mimd-bench --bench engine_scaling`.
//!
//! One 256-disk striped array replays one 60 000-request open-loop Cello
//! base trace — structured mode, so the engine fans its 256 single-disk
//! shards across `ArraySim::set_parallelism(N)` worker threads — at
//! N ∈ {1, 2, 4, 8}. Each line gives the best of three passes as
//! nanoseconds per event pop (`last_run_events`) and the speedup over one
//! worker. Rows with more workers than cores time the host's
//! oversubscription, not the engine, and are marked so.
//!
//! The bench also asserts the determinism contract it rides on: the
//! witness must be byte-identical at every worker count.

use std::hint::black_box;
use std::time::Instant;

use mimd_core::{ArraySim, EngineConfig, Shape};
use mimd_workload::SyntheticSpec;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REQUESTS: usize = 60_000;
const PASSES: usize = 3;

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let trace = SyntheticSpec::cello_base().generate(1234, REQUESTS);
    let cfg = EngineConfig::new(Shape::striping(256));

    let mut serial_ns_per_event = 0.0;
    let mut witness_at_1: Option<u64> = None;
    println!("engine_scaling: 256-disk array, {REQUESTS} requests, {cores} core(s) available");
    for workers in WORKER_COUNTS {
        let mut best_wall_ns = f64::INFINITY;
        let mut events = 0u64;
        for _ in 0..PASSES {
            let mut sim = ArraySim::new(cfg.clone(), trace.data_sectors)
                .expect("256-disk stripe fits the cello data set");
            sim.set_parallelism(workers);
            let start = Instant::now();
            let report = black_box(sim.run_trace(&trace));
            best_wall_ns = best_wall_ns.min(start.elapsed().as_nanos() as f64);
            events = sim.last_run_events();
            assert!(events > 0 && report.completed > 0);
            // The contract this bench scales on: worker count never
            // changes a single popped event.
            match witness_at_1 {
                None => witness_at_1 = Some(report.witness),
                Some(w) => assert_eq!(w, report.witness, "witness diverged at {workers} workers"),
            }
        }
        let ns_per_event = best_wall_ns / events as f64;
        if workers == 1 {
            serial_ns_per_event = ns_per_event;
        }
        let speedup = serial_ns_per_event / ns_per_event;
        let note = if workers > cores {
            "  (oversubscribed)"
        } else {
            ""
        };
        println!(
            "shards={workers:<2} {ns_per_event:>10.1} ns/event {:>12.0} events/s  \
             speedup {speedup:>5.2}x{note}",
            1e9 / ns_per_event
        );
    }
}
