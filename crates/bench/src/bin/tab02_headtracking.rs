//! Table 2: accuracy of the software-only head-position prediction.
//!
//! Two views are produced:
//!
//! 1. The *mechanism* itself: a drifting spindle observed through jittered
//!    reference-sector reads, tracked by the sliding least-squares
//!    estimator on the paper's two-minute recalibration schedule (§3.2).
//!    Reported: the fraction of predictions within 1 % of a rotation (the
//!    paper claims 98 % confidence at 1 % error).
//! 2. The *system view* of Table 2: the Cello base workload on a 2×3
//!    SR-Array under RSATF with tracked (imperfect) position knowledge —
//!    miss rate, prediction error, average access time, and the demerit
//!    figure versus measured access times.

use mimd_bench::{print_table, run_jobs, ExperimentLog, Job, Json, Workloads};
use mimd_core::{EngineConfig, Shape};
use mimd_disk::calibration::{CalibrationSchedule, DriftingSpindle, HeadTracker, ObservationNoise};
use mimd_disk::DiskParams;
use mimd_sim::{OnlineStats, SimDuration, SimRng, SimTime};

fn mechanism_accuracy(log: &mut ExperimentLog) {
    let nominal = DiskParams::st39133lwv().rotation_time();
    let mut spindle = DriftingSpindle::default_for(nominal, 11);
    let noise = ObservationNoise::default();
    let mut tracker = HeadTracker::new(nominal, noise);
    let mut schedule = CalibrationSchedule::paper_default();
    let mut rng = SimRng::named(12, "tab02-mech");

    let mut now = SimTime::from_millis(1);
    let mut err_us = OnlineStats::new();
    let mut within_1pct = 0u64;
    let mut samples = 0u64;
    let r_us = nominal.as_micros_f64();

    for round in 0..600 {
        let pass = spindle.next_time_at_angle(now, 0.0);
        let jitter = rng.normal_at_least(noise.mean_us, noise.std_us, noise.floor_us);
        tracker.observe(pass + SimDuration::from_micros_f64(jitter), 0.0);
        let interval = schedule.advance();
        // Probe prediction error at random instants inside the interval —
        // sorted, because the drifting spindle's ground truth advances
        // monotonically.
        if round > 12 {
            let mut offsets: Vec<u64> = (0..20)
                .map(|_| rng.below(interval.as_nanos().max(1)))
                .collect();
            offsets.sort_unstable();
            for off in offsets {
                let t = pass + SimDuration::from_nanos(off);
                if let Some(pred) = tracker.predict_angle(t) {
                    let actual = spindle.true_angle(t);
                    let e = (pred - actual).rem_euclid(1.0);
                    let e = e.min(1.0 - e) * r_us;
                    err_us.push(e);
                    samples += 1;
                    if e <= 0.01 * r_us {
                        within_1pct += 1;
                    }
                }
            }
        }
        now = pass + interval;
    }
    let within_pct = within_1pct as f64 / samples as f64 * 100.0;
    println!("\n== Head-tracking mechanism (steady state, 2-minute recalibration) ==");
    println!("  prediction samples        {samples}");
    println!("  mean |error|              {:.1} us", err_us.mean());
    println!("  max  |error|              {:.1} us", err_us.max());
    println!("  within 1% of a rotation   {within_pct:.1}%   (paper: 98% confidence at 1% error)");
    log.note(vec![
        ("view", Json::from("mechanism")),
        ("samples", Json::from(samples)),
        ("mean_abs_error_us", Json::from(err_us.mean())),
        ("max_abs_error_us", Json::from(err_us.max())),
        ("within_1pct_rotation_pct", Json::from(within_pct)),
    ]);
}

fn system_table(log: &mut ExperimentLog) {
    let w = Workloads::generate();
    // Tracked knowledge default; the demerit needs both whole access-time
    // distributions, which only an opted-in run records.
    let cfg = EngineConfig::new(Shape::sr_array(2, 3).unwrap()).with_prediction_samples();
    let mut r = run_jobs(vec![Job::trace(cfg, &w.cello_base)])
        .pop()
        .expect("one job");
    let demerit = r.prediction.demerit_us().expect("samples recorded");
    let avg = r.prediction.avg_access_us().expect("samples recorded");
    let rows = vec![
        vec![
            "Misses".into(),
            format!("{:.2}%", r.prediction.miss_rate() * 100.0),
            "0.22%".into(),
        ],
        vec![
            "Mean prediction error".into(),
            format!("{:.0} us", r.prediction.error.mean().abs()),
            "3 us".into(),
        ],
        vec![
            "Std dev of error".into(),
            format!("{:.0} us", r.prediction.error.sample_std_dev()),
            "31 us".into(),
        ],
        vec![
            "Average access time".into(),
            format!("{avg:.0} us"),
            "2746 us".into(),
        ],
        vec!["Demerit".into(), format!("{demerit:.0} us"), "52 us".into()],
        vec![
            "Demerit / access time".into(),
            format!("{:.1}%", demerit / avg * 100.0),
            "1.9%".into(),
        ],
    ];
    print_table(
        "Table 2 — model accuracy, Cello base on a 2x3 SR-Array (RSATF)",
        &["metric", "measured", "paper"],
        &rows,
    );
    log.push(
        vec![
            ("view", Json::from("system")),
            ("demerit_us", Json::from(demerit)),
            ("avg_access_us", Json::from(avg)),
        ],
        &mut r,
    );
}

fn main() {
    let mut log = ExperimentLog::new("tab02_headtracking");
    mechanism_accuracy(&mut log);
    system_table(&mut log);
    log.write();
}
