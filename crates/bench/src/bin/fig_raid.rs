//! Parity RAID vs replication at a fixed disk budget (not a paper figure
//! — the reliability companion to the capacity/performance trade).
//!
//! Three array organizations spend the same eight disks three ways:
//!
//! - **SR-Array `4x2x1`** — all eight disks buy performance (striping +
//!   rotational replication); a single disk failure loses data.
//! - **RAID 10 `4x1x2`** — half the capacity buys mirrored redundancy.
//! - **RAID 5 / RAID 4 (`Ds=8`, `G=4`)** — one unit in four buys XOR
//!   parity: 6/8 of the raw capacity holds data, any single failure per
//!   group is survivable, at the cost of small-write RMW and degraded
//!   reads that fan out to `G−1` survivors.
//!
//! Each organization is replayed healthy, degraded (a dead disk, no
//! spare), and rebuilding (a hot spare arrives and reconstruction rides
//! the delayed queues). The closing table gives the analytic MTTDL story:
//! what each organization's capacity sacrifice buys in expected time to
//! data loss.
//!
//! `MIMD_BENCH_QUICK=1` shrinks the sweep for CI smoke runs.

use mimd_bench::{ms, print_table, quick, run_jobs, ExperimentLog, Job, Json};
use mimd_core::models::{mttdl_mirrored, mttdl_parity_array, mttdl_unprotected};
use mimd_core::{EngineConfig, FaultPlan, ParityConfig, RunReport, Shape};
use mimd_sim::{SimDuration, SimTime};
use mimd_workload::SyntheticSpec;

/// One organization of the eight-disk budget.
struct Org {
    name: &'static str,
    shape: Shape,
    parity: Option<ParityConfig>,
    /// Fraction of raw capacity that holds user data.
    data_frac: f64,
}

fn orgs() -> Vec<Org> {
    vec![
        Org {
            name: "SR-array 4x2x1",
            shape: Shape::new(4, 2, 1).expect("valid"),
            parity: None,
            data_frac: 0.5,
        },
        Org {
            name: "RAID-10 4x1x2",
            shape: Shape::raid10(8).expect("valid"),
            parity: None,
            data_frac: 0.5,
        },
        Org {
            name: "RAID-5 8 G=4",
            shape: Shape::striping(8),
            parity: Some(ParityConfig::raid5(4)),
            data_frac: 0.75,
        },
        Org {
            name: "RAID-4 8 G=4",
            shape: Shape::striping(8),
            parity: Some(ParityConfig::raid4(4)),
            data_frac: 0.75,
        },
    ]
}

/// Healthy / degraded / rebuilding scenarios. The failed disk (0) is a
/// member of RAID group 0 and of the first mirror pair alike.
fn scenarios(fail_at: SimTime) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("healthy", FaultPlan::new()),
        ("degraded", FaultPlan::new().fail_stop(0, fail_at)),
        (
            "rebuilding",
            FaultPlan::new()
                .fail_stop_with_spare(0, fail_at)
                .rebuild(SimDuration::from_secs(1), 2048),
        ),
    ]
}

fn main() {
    let quick = quick();
    // Small data set + moderate rate so the throttled rebuild finishes
    // well inside the run even in quick mode (same recipe as the
    // fig_degraded hot-spare demo).
    let mut spec = SyntheticSpec::cello_base();
    spec.name = "Cello base (small)";
    spec.data_sectors = if quick { 400_000 } else { 1_200_000 };
    spec.rate_per_sec = 20.0;
    let n = if quick { 2_500 } else { 8_000 };
    let trace = spec.generate(73, n);
    let fail_at = SimTime::from_secs(if quick { 30 } else { 60 });
    let panel = scenarios(fail_at);
    let orgs = orgs();

    let mut jobs = Vec::new();
    for org in &orgs {
        for (_, plan) in &panel {
            let mut cfg = EngineConfig::new(org.shape).with_faults(plan.clone());
            if let Some(p) = org.parity {
                cfg = cfg.with_parity(p);
            }
            jobs.push(Job::trace(cfg, &trace));
        }
    }

    let mut reports = run_jobs(jobs).into_iter();
    let mut log = ExperimentLog::new("fig_raid");

    for org in &orgs {
        let mut rows = Vec::new();
        for (name, _) in &panel {
            let mut r: RunReport = reports.next().expect("job order");
            let parity_counters = format!(
                "{}/{}/{}",
                r.faults.degraded_reads, r.faults.rmw_updates, r.faults.reconstruction_chunks
            );
            let rebuilt = r.faults.rebuilds_completed.to_string();
            rows.push(vec![
                name.to_string(),
                ms(r.mean_response_ms()),
                r.response_percentile_ms(0.95)
                    .map(ms)
                    .unwrap_or_else(|| "-".into()),
                r.failed_requests.to_string(),
                rebuilt,
                parity_counters,
            ]);
            log.push(
                vec![
                    ("part", Json::from("sweep")),
                    ("organization", Json::from(org.name)),
                    ("shape", Json::from(org.shape.to_string())),
                    (
                        "raid",
                        org.parity
                            .map(|p| Json::from(format!("{:?}", p.level)))
                            .unwrap_or(Json::Null),
                    ),
                    ("scenario", Json::from(*name)),
                ],
                &mut r,
            );
        }
        print_table(
            &format!("{} — {} requests at a fixed 8-disk budget", org.name, n),
            &[
                "scenario",
                "mean ms",
                "p95 ms",
                "failed",
                "rebuilt",
                "degr/rmw/recon",
            ],
            &rows,
        );
    }

    // The reliability side of the trade: spec-sheet MTTF, one-day repair.
    let (mttf_h, mttr_h) = (500_000.0, 24.0);
    let mttdl = |org: &Org| match org.parity {
        Some(p) => mttdl_parity_array(mttf_h, mttr_h, p.group, 8 / p.group),
        None if org.shape.dm > 1 => mttdl_mirrored(mttf_h, mttr_h, 8),
        None => mttdl_unprotected(mttf_h, 8),
    };
    let rows: Vec<Vec<String>> = orgs
        .iter()
        .map(|org| {
            let m = mttdl(org);
            vec![
                org.name.to_string(),
                format!("{:.0}%", org.data_frac * 100.0),
                format!("{:.2e} h", m),
                format!("{:.1} y", m / (24.0 * 365.25)),
            ]
        })
        .collect();
    print_table(
        &format!("Analytic MTTDL (MTTF {mttf_h:.0} h, MTTR {mttr_h:.0} h, 8 disks)"),
        &["organization", "data capacity", "MTTDL", "MTTDL (years)"],
        &rows,
    );
    for org in &orgs {
        let mut empty = RunReport::default();
        log.push(
            vec![
                ("part", Json::from("mttdl")),
                ("organization", Json::from(org.name)),
                ("data_frac", Json::from(org.data_frac)),
                ("mttdl_hours", Json::from(mttdl(org))),
            ],
            &mut empty,
        );
    }
    log.write();
}
