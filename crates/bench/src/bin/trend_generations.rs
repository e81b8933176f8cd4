//! Drive-generation trend: the paper's motivating imbalance, projected.
//!
//! The introduction argues that disk areal density grows ~60 % per year
//! while latency improves only ~10 % per year, so drives become ever more
//! unbalanced between capacity and latency — which is exactly what makes
//! trading capacity for performance attractive. This experiment runs the
//! same Cello-like workload on a six-disk budget across three drive
//! generations and reports what the models recommend and what that buys:
//! the newer the drives, the more spare capacity there is, and rotational
//! replication remains worthwhile even as everything gets faster.

use mimd_bench::{print_table, run_jobs, ExperimentLog, Job, Json};
use mimd_core::models::{recommend_latency_shape, DiskCharacter};
use mimd_core::{EngineConfig, Shape};
use mimd_disk::DiskParams;
use mimd_workload::SyntheticSpec;

fn main() {
    let generations = [
        DiskParams::circa_1992(),
        DiskParams::st39133lwv(),
        DiskParams::circa_2004_15k(),
    ];
    let budget = 6u32;

    // Size the data set to a 1992 disk's worth so every generation serves
    // the same workload; newer generations have spare capacity.
    let data_sectors = DiskParams::circa_1992().total_sectors() * 9 / 10;
    let trace = {
        let mut spec = SyntheticSpec::cello_base();
        spec.data_sectors = data_sectors;
        spec.hot_blocks = 4_000;
        spec.generate(71, 8_000)
    };

    let cfg_for = |params: &DiskParams, s: Shape| {
        let mut cfg = EngineConfig::new(s);
        cfg.disk_params = params.clone();
        cfg
    };
    let mut jobs = Vec::new();
    for params in &generations {
        let c = DiskCharacter::from_params(params).with_locality(4.14);
        let shape = recommend_latency_shape(&c, budget, 1.0);
        jobs.push(Job::trace(cfg_for(params, shape), &trace));
        jobs.push(Job::trace(cfg_for(params, Shape::striping(budget)), &trace));
    }
    let mut reports = run_jobs(jobs).into_iter();

    let mut log = ExperimentLog::new("trend_generations");
    let mut rows = Vec::new();
    for params in &generations {
        let c = DiskCharacter::from_params(params).with_locality(4.14);
        let shape = recommend_latency_shape(&c, budget, 1.0);
        let mut take = |config: &str, s: Shape| {
            let mut r = reports.next().expect("job order");
            let mean = r.mean_response_ms();
            log.push(
                vec![
                    ("drive", Json::from(params.model)),
                    ("config", Json::from(config)),
                    ("shape", Json::from(s.to_string())),
                ],
                &mut r,
            );
            mean
        };
        let sr = take("sr_array", shape);
        let stripe = take("striping", Shape::striping(budget));
        let capacity_slack =
            params.capacity_bytes() as f64 * budget as f64 / (data_sectors as f64 * 512.0);
        rows.push(vec![
            params.model.to_string(),
            format!("{:.1}/{:.1}", c.s_ms, c.r_ms),
            format!("{capacity_slack:.0}x"),
            shape.to_string(),
            format!("{sr:.2}"),
            format!("{stripe:.2}"),
            format!("{:.2}x", stripe / sr),
        ]);
    }
    print_table(
        "Trend — six disks, one 1992-sized data set, across drive generations",
        &[
            "drive",
            "S/R (ms)",
            "capacity slack",
            "model pick",
            "SR-Array ms",
            "stripe ms",
            "SR gain",
        ],
        &rows,
    );
    println!("\nThe capacity-slack column is the paper's opening argument in one");
    println!("number: each generation multiplies the spare capacity available to");
    println!("spend on replicas, while the latency columns shrink only slowly.");
    log.write();
}
