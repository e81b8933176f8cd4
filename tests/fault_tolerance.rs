//! Degraded-mode behaviour under injected disk failures (§2.5's
//! reliability trade-off, made executable).

use mimdraid::core::{ArraySim, EngineConfig, FaultPlan, Shape, WriteMode};
use mimdraid::sim::SimTime;
use mimdraid::workload::SyntheticSpec;

fn trace() -> mimdraid::workload::Trace {
    SyntheticSpec::cello_base().generate(31, 2_000)
}

/// `shape`'s default configuration with each `(disk, at)` failing stop.
fn failing(shape: Shape, failures: &[(usize, SimTime)]) -> EngineConfig {
    let plan = failures
        .iter()
        .fold(FaultPlan::new(), |p, &(disk, at)| p.fail_stop(disk, at));
    EngineConfig::new(shape).with_faults(plan)
}

#[test]
fn mirrored_arrays_survive_a_disk_failure() {
    let t = trace();
    for shape in [Shape::raid10(6).expect("even"), Shape::mirror(3)] {
        // Fail one disk a tenth of the way in.
        let at = t.requests()[t.len() / 10].arrival;
        let mut sim = ArraySim::new(failing(shape, &[(0, at)]), t.data_sectors).expect("fits");
        let r = sim.run_trace(&t);
        assert_eq!(r.completed, t.len() as u64, "shape {shape}");
        assert_eq!(r.failed_requests, 0, "shape {shape} lost requests");
        assert!(sim.disk_is_dead(0));
    }
}

#[test]
fn sr_array_loses_data_on_failure() {
    // Dr replicas share a spindle: an SR-Array is explicitly *not*
    // fault-tolerant (§2.5).
    let t = trace();
    let mut sim = ArraySim::new(
        failing(
            Shape::sr_array(2, 3).expect("valid"),
            &[(0, t.requests()[10].arrival)],
        ),
        t.data_sectors,
    )
    .expect("fits");
    let r = sim.run_trace(&t);
    assert_eq!(r.completed, t.len() as u64);
    assert!(
        r.failed_requests > 0,
        "a 2x3x1 SR-Array cannot survive a disk loss"
    );
    // Roughly a sixth of accesses land on the dead disk.
    let frac = r.failed_requests as f64 / r.completed as f64;
    assert!(frac > 0.05 && frac < 0.35, "failed fraction {frac}");
}

#[test]
fn sr_mirror_combines_replication_with_survival() {
    let t = trace();
    let mut sim = ArraySim::new(
        failing(
            Shape::new(1, 3, 2).expect("valid"),
            &[(1, SimTime::from_secs(60))],
        ),
        t.data_sectors,
    )
    .expect("fits");
    let r = sim.run_trace(&t);
    assert_eq!(r.failed_requests, 0);
    assert_eq!(r.completed, t.len() as u64);
}

#[test]
fn degraded_mirror_is_slower_but_correct() {
    let t = trace().scaled(100.0);
    let run = |fail: bool| {
        let failures: &[(usize, SimTime)] = if fail { &[(1, SimTime::ZERO)] } else { &[] };
        let mut sim =
            ArraySim::new(failing(Shape::mirror(2), failures), t.data_sectors).expect("fits");
        sim.run_trace(&t)
    };
    let healthy = run(false);
    let degraded = run(true);
    assert_eq!(degraded.failed_requests, 0);
    assert!(
        degraded.mean_response_ms() > healthy.mean_response_ms(),
        "degraded {} vs healthy {}",
        degraded.mean_response_ms(),
        healthy.mean_response_ms()
    );
}

#[test]
fn foreground_writes_survive_mirror_failure_mid_run() {
    let t = trace();
    let at = t.requests()[t.len() / 2].arrival;
    let mut sim = ArraySim::new(
        failing(Shape::raid10(4).expect("even"), &[(2, at)]).with_write_mode(WriteMode::Foreground),
        t.data_sectors,
    )
    .expect("fits");
    let r = sim.run_trace(&t);
    assert_eq!(r.completed, t.len() as u64);
    assert_eq!(r.failed_requests, 0);
}

#[test]
fn double_failure_of_a_mirror_pair_loses_data() {
    let t = trace();
    // Disks 0 and 1 are the two mirrors of column 0 (layout: adjacent).
    let failures = [(0, t.requests()[5].arrival), (1, t.requests()[6].arrival)];
    let mut sim = ArraySim::new(
        failing(Shape::raid10(4).expect("even"), &failures),
        t.data_sectors,
    )
    .expect("fits");
    let r = sim.run_trace(&t);
    assert_eq!(r.completed, t.len() as u64);
    assert!(r.failed_requests > 0, "losing both mirrors must lose data");
}

#[test]
fn failure_after_completion_changes_nothing() {
    let t = trace();
    let run = |fail: bool| {
        let failures: &[(usize, SimTime)] = if fail {
            &[(0, SimTime::from_secs(1_000_000_000))]
        } else {
            &[]
        };
        let mut sim = ArraySim::new(
            failing(Shape::raid10(4).expect("even"), failures),
            t.data_sectors,
        )
        .expect("fits");
        sim.run_trace(&t)
    };
    let a = run(false);
    let b = run(true);
    assert_eq!(a.completed, b.completed);
    assert!((a.mean_response_ms() - b.mean_response_ms()).abs() < 1e-12);
}

#[test]
fn closed_loop_survives_total_failure_without_recursion() {
    // Regression: with every disk dead, each replacement request fails
    // instantly; completion must flow through the event queue, not the
    // call stack.
    use mimdraid::workload::IometerSpec;
    let mut sim = ArraySim::new(
        failing(Shape::mirror(2), &[(0, SimTime::ZERO), (1, SimTime::ZERO)]),
        8_000_000,
    )
    .expect("fits");
    let spec = IometerSpec::random_read_512(8_000_000);
    let r = sim.run_closed_loop(&spec, 4, 30_000);
    assert_eq!(r.completed, 30_000);
    assert_eq!(r.failed_requests, 30_000);
}
