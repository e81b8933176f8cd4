//! Ablation: delayed-write coalescing (§3.4).
//!
//! "For back-to-back writes to the same data block, which happens
//! frequently for data that die young, we can safely discard unfinished
//! updates from previous writes." This binary replays a write-heavy,
//! high-reuse workload with coalescing on and off and reports the
//! propagation work saved.

use mimd_bench::{print_table, run_jobs, ExperimentLog, Job, Json};
use mimd_core::{EngineConfig, Shape};
use mimd_sim::SimDuration;
use mimd_workload::SyntheticSpec;

fn main() {
    // A hot-spot-heavy variant of TPC-C played fast: many back-to-back
    // writes to the same blocks before idle time can propagate replicas.
    let mut spec = SyntheticSpec::tpcc();
    spec.seek_locality = 8.0;
    spec.local_step_sectors = 64.0;
    spec.sync_daemon_interval = Some(SimDuration::from_secs(5));
    spec.async_write_frac = 0.2;
    spec.read_frac = 0.35;
    let trace = spec.generate(77, 20_000).scaled(4.0);

    let modes = [("coalescing on", true), ("coalescing off", false)];
    let jobs = modes
        .iter()
        .map(|(_, coalesce)| {
            let mut cfg =
                EngineConfig::new(Shape::sr_array(3, 2).unwrap()).with_perfect_knowledge();
            cfg.coalesce_delayed = *coalesce;
            Job::trace(cfg, &trace)
        })
        .collect();
    let mut reports = run_jobs(jobs).into_iter();

    let mut log = ExperimentLog::new("ablate_write_coalescing");
    let mut rows = Vec::new();
    for (label, coalesce) in modes {
        let mut r = reports.next().expect("job order");
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", r.mean_response_ms()),
            r.delayed_propagated.to_string(),
            r.delayed_coalesced.to_string(),
            r.nvram_peak.to_string(),
            r.phys_requests.to_string(),
        ]);
        log.push(vec![("coalesce", Json::from(coalesce))], &mut r);
    }
    print_table(
        "Ablation — delayed-write coalescing (hot-spot TPC-C variant, 3x2 SR-Array)",
        &[
            "mode",
            "mean resp (ms)",
            "propagated",
            "coalesced",
            "NVRAM peak",
            "phys ops",
        ],
        &rows,
    );
    println!("\nCoalescing should cut propagated replica writes (and disk busy time)");
    println!("without changing what the foreground observes.");
    log.write();
}
