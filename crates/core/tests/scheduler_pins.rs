//! Pinned end-to-end results for the local schedulers that no figure gate
//! runs: FCFS, LOOK and RLOOK on Cello replays and on closed loops deeper
//! than the engine's 128-entry scheduling window, and SATF/RSATF on drives
//! with track read-ahead (the only drives whose picks take the plain scan
//! instead of the band index).
//!
//! Each test asserts `(completed, witness, mean response bits)`. The
//! witness digests every event pop in order, so any change in which
//! request a drive picks, or which replica it uses, moves it.

use mimd_core::{ArraySim, EngineConfig, Policy, RunReport, Shape};
use mimd_workload::{IometerSpec, SyntheticSpec};

fn pins(report: &RunReport) -> (u64, u64, u64) {
    (
        report.completed,
        report.witness,
        report.mean_response_ms().to_bits(),
    )
}

/// A 3 000-request Cello-base replay (seed 11) under `cfg`.
fn cello(cfg: EngineConfig) -> (u64, u64, u64) {
    let trace = SyntheticSpec::cello_base().generate(11, 3_000);
    let mut sim = ArraySim::new(cfg, trace.data_sectors).expect("fits");
    pins(&sim.run_trace(&trace))
}

/// A closed loop of 4 KiB requests, 70 % reads, with 200 outstanding on a
/// single drive: more than the scheduling window, so every pick sees only
/// the arrival-order prefix of the queue.
fn deep_closed_loop(shape: Shape, policy: Policy) -> (u64, u64, u64) {
    let data = 4_000_000;
    let cfg = EngineConfig::new(shape).with_policy(policy);
    let mut sim = ArraySim::new(cfg, data).expect("fits");
    let spec = IometerSpec::microbench(data, 0.7);
    pins(&sim.run_closed_loop(&spec, 200, 3_000))
}

#[test]
fn fcfs_cello_replay_on_a_four_disk_stripe() {
    let cfg = EngineConfig::new(Shape::striping(4)).with_policy(Policy::Fcfs);
    assert_eq!(
        cello(cfg),
        (3_000, 17_937_299_539_548_067_488, 4_618_800_969_722_967_034)
    );
}

#[test]
fn look_cello_replay_on_a_four_disk_stripe() {
    let cfg = EngineConfig::new(Shape::striping(4)).with_policy(Policy::Look);
    assert_eq!(
        cello(cfg),
        (3_000, 13_541_426_589_045_707_016, 4_618_812_044_148_280_220)
    );
}

#[test]
fn rlook_cello_replay_on_a_2x2_sr_array() {
    let shape = Shape::sr_array(2, 2).expect("valid");
    let cfg = EngineConfig::new(shape).with_policy(Policy::Rlook);
    assert_eq!(
        cello(cfg),
        (3_000, 10_946_193_006_000_709_526, 4_617_891_255_342_133_112)
    );
}

#[test]
fn look_closed_loop_deeper_than_the_window() {
    let got = deep_closed_loop(Shape::striping(1), Policy::Look);
    assert_eq!(
        got,
        (3_000, 10_925_111_441_895_433_818, 4_652_393_328_192_713_857)
    );
}

#[test]
fn rlook_closed_loop_deeper_than_the_window() {
    let shape = Shape::sr_array(1, 2).expect("valid");
    let got = deep_closed_loop(shape, Policy::Rlook);
    assert_eq!(
        got,
        (3_000, 714_393_517_572_143_596, 4_645_317_576_604_384_791)
    );
}

#[test]
fn satf_cello_replay_with_read_ahead() {
    let mut cfg = EngineConfig::new(Shape::striping(4)).with_policy(Policy::Satf);
    cfg.read_ahead = true;
    assert_eq!(
        cello(cfg),
        (3_000, 10_377_580_599_878_196_540, 4_618_803_365_941_131_166)
    );
}

#[test]
fn rsatf_cello_replay_with_read_ahead() {
    let shape = Shape::sr_array(2, 2).expect("valid");
    let mut cfg = EngineConfig::new(shape).with_policy(Policy::Rsatf);
    cfg.read_ahead = true;
    assert_eq!(
        cello(cfg),
        (3_000, 3_093_490_843_012_197_785, 4_617_941_571_044_834_571)
    );
}
