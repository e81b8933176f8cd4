//! Properties of the fault-injection layer.
//!
//! The two guarantees the rest of the repo leans on:
//!
//! 1. **Value-neutrality** — an empty [`FaultPlan`] produces a run report
//!    byte-identical (by `Debug` rendering, which covers every field and
//!    every sample) to a config that never mentions faults at all.
//! 2. **Determinism** — a fixed-seed fault scenario replays bit-exactly:
//!    all fault randomness comes from one named stream, so reruns agree
//!    on every counter and every response-time sample.
//!
//! Plus behavioural checks: hot-spare rebuild restores the failed disk to
//! service (with the debug-build replica-spacing invariant running on the
//! rebuilt layout), media-error retries recover reads, and redirection
//! steers reads off fail-slow disks.

use mimd_core::{ArraySim, CacheConfig, EngineConfig, FaultPlan, RunReport, Shape};
use mimd_sim::{SimDuration, SimTime};
use mimd_workload::{Op, Request, SyntheticSpec, Trace};

fn trace() -> Trace {
    SyntheticSpec::cello_base().generate(77, 1_500)
}

fn run(cfg: EngineConfig, t: &Trace) -> RunReport {
    let mut sim = ArraySim::new(cfg, t.data_sectors).expect("fits");
    sim.run_trace(t)
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let t = trace();
    for shape in [Shape::sr_array(2, 3).expect("valid"), Shape::mirror(2)] {
        let bare = run(EngineConfig::new(shape), &t);
        // An explicitly-attached default plan and a plan whose only
        // content is inert flags (redirect with no fail-slow windows)
        // must both take the never-consulting path.
        let explicit = run(
            EngineConfig::new(shape).with_faults(FaultPlan::default()),
            &t,
        );
        let inert = run(
            EngineConfig::new(shape).with_faults(FaultPlan::new().redirect_slow_reads()),
            &t,
        );
        let want = format!("{bare:?}");
        assert_eq!(want, format!("{explicit:?}"), "shape {shape}");
        assert_eq!(want, format!("{inert:?}"), "shape {shape}");
        assert!(!bare.faults.active);
    }
}

#[test]
fn neutral_fail_slow_window_changes_observability_only() {
    // A factor-1.0 window activates the fault layer (the report gains
    // window samples) without perturbing a single service time: every
    // performance-bearing field must match the fault-free run exactly.
    let t = trace();
    let shape = Shape::sr_array(2, 3).expect("valid");
    let bare = run(EngineConfig::new(shape), &t);
    let neutral_plan = FaultPlan::new().fail_slow(
        1,
        SimTime::from_secs(3) + SimDuration::from_nanos(7),
        SimTime::from_secs(9) + SimDuration::from_nanos(13),
        1.0,
    );
    let mut neutral = run(EngineConfig::new(shape).with_faults(neutral_plan), &t);
    assert!(neutral.faults.active);
    assert!(
        !neutral.faults.degraded_ms.is_empty(),
        "completions inside the window must be classified degraded"
    );
    assert_eq!(neutral.faults.retries, 0);
    assert_eq!(neutral.faults.redirects, 0);
    // Blank the observability block; everything else must match. The
    // determinism witness counts as observability here: the window's
    // SlowStart/SlowEnd pops are real events, so the event-order digest
    // legitimately differs even though no service time moved.
    neutral.faults = Default::default();
    neutral.witness = bare.witness;
    assert_eq!(format!("{bare:?}"), format!("{neutral:?}"));
}

#[test]
fn fixed_seed_fault_scenarios_replay_bit_exactly() {
    let t = trace();
    let plan = FaultPlan::new()
        .fail_stop_with_spare(2, SimTime::from_secs(5))
        .fail_slow(0, SimTime::from_secs(1), SimTime::from_secs(20), 4.0)
        .media_errors(0.02, 0.01)
        .retry(
            SimDuration::from_millis(60),
            3,
            SimDuration::from_millis(500),
        )
        .redirect_slow_reads()
        .rebuild(SimDuration::from_millis(50), 512);
    let cfg = || {
        EngineConfig::new(Shape::new(1, 2, 2).expect("valid"))
            .with_seed(9)
            .with_faults(plan.clone())
    };
    let a = run(cfg(), &t);
    let b = run(cfg(), &t);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.faults.active);
}

#[test]
fn hot_spare_rebuild_restores_the_disk_to_service() {
    // An open-loop trace over a small data set: rebuild copy chunks are
    // throttled to foreground-idle gaps (a closed loop would starve them
    // forever, by design), and the data is small enough that the copy
    // finishes well inside the run. The debug-build replica-spacing
    // invariant runs on the rebuilt layout at completion.
    let mut spec = SyntheticSpec::cello_base();
    spec.data_sectors = 120_000;
    spec.rate_per_sec = 25.0;
    let t = spec.generate(5, 2_500);
    let plan = FaultPlan::new()
        .fail_stop_with_spare(1, SimTime::from_secs(2))
        .rebuild(SimDuration::from_millis(100), 2048);
    let mut sim = ArraySim::new(
        EngineConfig::new(Shape::mirror(2)).with_faults(plan),
        t.data_sectors,
    )
    .expect("fits");
    let r = sim.run_trace(&t);
    assert_eq!(r.completed, t.len() as u64);
    assert_eq!(r.failed_requests, 0, "the surviving mirror covers reads");
    assert_eq!(r.faults.rebuilds_completed, 1, "rebuild must finish");
    assert!(r.faults.rebuild_chunks > 0);
    assert!(r.faults.rebuild_duration > SimDuration::ZERO);
    assert!(
        !sim.disk_is_dead(1),
        "the rebuilt disk must return to service"
    );
    assert!(
        !r.faults.rebuilding_ms.is_empty(),
        "completions during the copy must be classified rebuilding"
    );
    assert!(
        !r.faults.healthy_ms.is_empty(),
        "completions after restoration must be classified healthy"
    );
}

#[test]
fn media_error_retries_recover_reads() {
    let t = trace();
    let plan = FaultPlan::new().media_errors(0.05, 0.0).retry_budget(4);
    let r = run(EngineConfig::new(Shape::mirror(2)).with_faults(plan), &t);
    assert_eq!(r.completed, t.len() as u64);
    assert!(
        r.faults.media_errors > 0,
        "a 5% rate must fire on 1.5k reqs"
    );
    assert!(r.faults.retries > 0);
    assert_eq!(
        r.failed_requests, r.faults.unrecoverable,
        "the only failures are retry-budget exhaustion"
    );
}

#[test]
fn redirection_steers_reads_off_a_slow_disk() {
    let t = trace();
    let window = (SimTime::from_secs(2), SimTime::from_secs(30));
    let slow = FaultPlan::new().fail_slow(1, window.0, window.1, 8.0);
    let redirected = slow.clone().redirect_slow_reads();
    let stay = run(EngineConfig::new(Shape::mirror(2)).with_faults(slow), &t);
    let steer = run(
        EngineConfig::new(Shape::mirror(2)).with_faults(redirected),
        &t,
    );
    assert_eq!(stay.faults.redirects, 0);
    assert!(steer.faults.redirects > 0, "redirection must engage");
    assert!(
        steer.mean_response_ms() < stay.mean_response_ms(),
        "steering off an 8x-slow disk must help: {} vs {}",
        steer.mean_response_ms(),
        stay.mean_response_ms()
    );
}

#[test]
fn timeouts_fire_and_back_off_on_a_dead_mirror_half() {
    // Without a spare, reads racing the failure time out and retry onto
    // the surviving mirror; the run still completes everything.
    let t = trace();
    let plan = FaultPlan::new().fail_stop(0, SimTime::from_secs(4)).retry(
        SimDuration::from_millis(80),
        3,
        SimDuration::from_millis(640),
    );
    let r = run(EngineConfig::new(Shape::mirror(2)).with_faults(plan), &t);
    assert_eq!(r.completed, t.len() as u64);
    assert_eq!(r.failed_requests, 0, "mirror covers every read");
    assert!(
        !r.faults.degraded_ms.is_empty(),
        "post-failure completions are degraded"
    );
}

#[test]
fn a_failed_read_does_not_fill_the_memory_cache() {
    // Striping keeps one copy of each block, so once disk 0 stops, a read
    // of lbn 0 fails. Reading it again must fail again, not hit in memory.
    let read = |s| Request {
        id: 0,
        arrival: SimTime::from_secs(s),
        op: Op::Read,
        lbn: 0,
        sectors: 8,
    };
    let t = Trace::new("lost block", 1_000_000, vec![read(2), read(3)]);
    let cfg = EngineConfig::new(Shape::striping(2))
        .with_cache(CacheConfig {
            bytes: 1 << 20,
            hit_time: SimDuration::from_micros(100),
        })
        .with_faults(FaultPlan::new().fail_stop(0, SimTime::from_secs(1)));
    let r = run(cfg, &t);
    assert_eq!(r.completed, 2);
    assert_eq!(r.failed_requests, 2, "both reads of the lost block fail");
    assert_eq!(r.cache_hits, 0, "a failed read made its block resident");
    assert_eq!(r.cache_misses, 2);
}
