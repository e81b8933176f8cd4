//! Degraded-mode response time under injected faults (not a paper
//! figure — the robustness companion to Figure 6).
//!
//! Two parts:
//!
//! 1. **Scenario sweep** — Cello base replayed on SR-mirror shapes
//!    (`1 × Dr × 2`) as `Dr` grows, under a panel of fault scenarios:
//!    healthy baseline, a fail-stop with timeout/retry recovery, a 4×
//!    fail-slow window (with and without read redirection), and a
//!    transient media-error rate with a retry budget. Extra rotational
//!    replicas are what degraded mode feeds on: every retry and every
//!    redirect needs an alternate copy to land on.
//! 2. **Hot-spare demo** — one disk of a `1x2x2` array fails mid-run
//!    with a spare configured; the run report's healthy / degraded /
//!    rebuilding response-time windows show service degrading at the
//!    failure and recovering once the rebuild completes.
//!
//! `MIMD_BENCH_QUICK=1` shrinks both parts for CI smoke runs.

use mimd_bench::{ms, print_table, quick, run_jobs, ExperimentLog, Job, Json};
use mimd_core::{EngineConfig, FaultPlan, RunReport, Shape};
use mimd_sim::{SimDuration, SimTime};
use mimd_workload::SyntheticSpec;

/// The sweep's fault scenarios, parameterized by the trace's span so the
/// fault lands mid-run at any trace length.
fn scenarios(span: SimDuration) -> Vec<(&'static str, FaultPlan)> {
    let at = SimTime::ZERO + span.mul_f64(0.3);
    let until = SimTime::ZERO + span.mul_f64(0.6);
    let retry = |p: FaultPlan| {
        p.retry(
            SimDuration::from_millis(50),
            3,
            SimDuration::from_millis(400),
        )
    };
    vec![
        ("healthy", FaultPlan::new()),
        ("fail-stop", retry(FaultPlan::new().fail_stop(0, at))),
        (
            "fail-slow 4x",
            FaultPlan::new().fail_slow(0, at, until, 4.0),
        ),
        (
            "fail-slow+redir",
            FaultPlan::new()
                .fail_slow(0, at, until, 4.0)
                .redirect_slow_reads(),
        ),
        (
            "media 1e-3",
            retry(FaultPlan::new().media_errors(1e-3, 1e-3)),
        ),
    ]
}

fn window_row(name: &str, s: &mut mimd_sim::SampleSet) -> Vec<String> {
    let p =
        |s: &mut mimd_sim::SampleSet, q: f64| s.percentile(q).map(ms).unwrap_or_else(|| "-".into());
    vec![
        name.to_string(),
        s.len().to_string(),
        if s.is_empty() {
            "-".into()
        } else {
            ms(s.mean())
        },
        p(s, 0.95),
        p(s, 0.99),
    ]
}

fn main() {
    let quick = quick();
    let n = if quick { 2_000 } else { 20_000 };
    let trace = SyntheticSpec::cello_base().generate(101, n);
    let span = trace
        .requests()
        .last()
        .map(|r| r.arrival - SimTime::ZERO)
        .unwrap_or(SimDuration::ZERO);
    let drs: &[u32] = if quick { &[1, 2] } else { &[1, 2, 3] };
    let panel = scenarios(span);

    // Part 1: enumerate the whole sweep up front and fan it out.
    let mut jobs = Vec::new();
    for &dr in drs {
        let shape = Shape::new(1, dr, 2).expect("1xDrx2 is valid");
        for (_, plan) in &panel {
            jobs.push(Job::trace(
                EngineConfig::new(shape).with_faults(plan.clone()),
                &trace,
            ));
        }
    }

    // Part 2: the hot-spare demo rides the same fan-out. Small data set
    // and a faster arrival rate so the throttled rebuild finishes well
    // inside the run even in quick mode.
    let mut demo_spec = SyntheticSpec::cello_base();
    demo_spec.name = "Cello base (small)";
    demo_spec.data_sectors = if quick { 400_000 } else { 1_200_000 };
    demo_spec.rate_per_sec = 20.0;
    let demo_trace = demo_spec.generate(41, if quick { 2_500 } else { 8_000 });
    let demo_shape = Shape::new(1, 2, 2).expect("valid");
    let fail_at = SimTime::from_secs(if quick { 30 } else { 60 });
    let demo_plan = FaultPlan::new()
        .fail_stop_with_spare(1, fail_at)
        .rebuild(SimDuration::from_secs(1), 2048);
    jobs.push(Job::trace(
        EngineConfig::new(demo_shape).with_faults(demo_plan),
        &demo_trace,
    ));

    let mut reports = run_jobs(jobs).into_iter();
    let mut log = ExperimentLog::new("fig_degraded");

    for &dr in drs {
        let shape = Shape::new(1, dr, 2).expect("valid");
        let mut rows = Vec::new();
        for (name, _) in &panel {
            let mut r: RunReport = reports.next().expect("job order");
            let f = &r.faults;
            let counters = format!(
                "{}/{}/{}/{}",
                f.retries, f.redirects, f.timeouts, f.unrecoverable
            );
            let row = vec![
                name.to_string(),
                ms(r.mean_response_ms()),
                r.response_percentile_ms(0.95)
                    .map(ms)
                    .unwrap_or_else(|| "-".into()),
                r.failed_requests.to_string(),
                counters,
            ];
            log.push(
                vec![
                    ("part", Json::from("sweep")),
                    ("dr", Json::from(dr)),
                    ("shape", Json::from(shape.to_string())),
                    ("scenario", Json::from(*name)),
                ],
                &mut r,
            );
            rows.push(row);
        }
        print_table(
            &format!("Degraded-mode sweep — {shape}: Cello base, {n} requests"),
            &[
                "scenario",
                "mean ms",
                "p95 ms",
                "failed",
                "retry/redir/tmo/unrec",
            ],
            &rows,
        );
    }

    // Part 2 report: the windowed percentiles are the demo's point —
    // latency degrades when the disk dies and recovers post-rebuild.
    let mut demo = reports.next().expect("demo job");
    let f = &mut demo.faults;
    let rows = vec![
        window_row("healthy", &mut f.healthy_ms),
        window_row("degraded", &mut f.degraded_ms),
        window_row("rebuilding", &mut f.rebuilding_ms),
    ];
    print_table(
        &format!(
            "Hot-spare demo — {demo_shape}: disk 1 fails at {:.0}s, rebuild {} chunks in {:.1}s",
            fail_at.as_secs_f64(),
            f.rebuild_chunks,
            f.rebuild_duration.as_secs_f64(),
        ),
        &["window", "completed", "mean ms", "p95 ms", "p99 ms"],
        &rows,
    );
    if f.rebuilds_completed == 0 {
        println!("  (rebuild did not finish inside the run)");
    }
    log.push(
        vec![
            ("part", Json::from("hot_spare_demo")),
            ("shape", Json::from(demo_shape.to_string())),
            ("fail_at_s", Json::from(fail_at.as_secs_f64())),
        ],
        &mut demo,
    );
    log.write();
}
