//! Pinned end-to-end results for faulted runs: hot-spare copy rebuilds and
//! parity reconstructions (completed, abandoned, reissued), read and
//! write retries (rotating over three mirrors) and their exhaustion,
//! timeouts, redirects, rehomed queues, in-flight duplicates and orphaned
//! duplicates a live mirror still queues, and parity-operation replans.
//!
//! Each test asserts `(completed, failed_requests, witness, mean response
//! bits, FNV-1a of the report's Debug string)`. The witness digests every
//! event pop in order, and the Debug string covers every counter and
//! sample, so a change in any fault path's events, RNG draws or counters
//! moves a pin. Every run records its Table-2 prediction samples
//! (`with_prediction_samples`), so the Debug string covers them too.

use mimd_core::{ArraySim, EngineConfig, FaultPlan, ParityConfig, RunReport, Shape, WriteMode};
use mimd_sim::{SimDuration, SimTime};
use mimd_workload::{IometerSpec, Op, Request, SyntheticSpec, Trace};

type Pins = (u64, u64, u64, u64, u64);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pins(r: &RunReport) -> Pins {
    (
        r.completed,
        r.failed_requests,
        r.witness,
        r.mean_response_ms().to_bits(),
        fnv1a(format!("{r:?}").as_bytes()),
    )
}

/// Cello base over `data_sectors` at 25 req/s (seed 5, 2 500 requests):
/// slow enough that idle-throttled rebuild chunks finish inside the run.
fn small(data_sectors: u64) -> Trace {
    let mut spec = SyntheticSpec::cello_base();
    spec.data_sectors = data_sectors;
    spec.rate_per_sec = 25.0;
    spec.generate(5, 2_500)
}

/// Cello base, seed 77, 1 500 requests.
fn cello() -> Trace {
    SyntheticSpec::cello_base().generate(77, 1_500)
}

/// RAID 5 over eight disks in groups of four.
fn r5() -> EngineConfig {
    EngineConfig::new(Shape::striping(8)).with_parity(ParityConfig::raid5(4))
}

/// A `Shape::new(1, 2, 2)` array writing every copy in the foreground.
fn fg_1x2x2() -> EngineConfig {
    EngineConfig::new(Shape::new(1, 2, 2).expect("valid")).with_write_mode(WriteMode::Foreground)
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn rb(plan: FaultPlan, delay_ms: u64, chunk: u32) -> FaultPlan {
    plan.rebuild(SimDuration::from_millis(delay_ms), chunk)
}

fn replay(cfg: EngineConfig, plan: FaultPlan, t: &Trace) -> Pins {
    let mut sim = ArraySim::new(
        cfg.with_faults(plan).with_prediction_samples(),
        t.data_sectors,
    )
    .expect("fits");
    pins(&sim.run_trace(t))
}

fn closed(cfg: EngineConfig, plan: FaultPlan, read_frac: f64, outstanding: usize, n: u64) -> Pins {
    let data = 4_000_000;
    let mut sim =
        ArraySim::new(cfg.with_faults(plan).with_prediction_samples(), data).expect("fits");
    let spec = IometerSpec::microbench(data, read_frac);
    pins(&sim.run_closed_loop(&spec, outstanding, n))
}

#[test]
fn mirror_copy_rebuild_completes() {
    let plan = rb(
        FaultPlan::new().fail_stop_with_spare(1, secs(2.0)),
        100,
        2048,
    );
    let got = replay(EngineConfig::new(Shape::mirror(2)), plan, &small(120_000));
    assert_eq!(
        got,
        (
            2_500,
            0,
            17_244_250_231_670_646_344,
            4_617_614_344_147_032_745,
            17_212_683_947_637_484_856
        )
    );
}

#[test]
fn mirror_rebuild_reissues_a_chunk_whose_source_died() {
    let plan = FaultPlan::new()
        .fail_stop_with_spare(2, secs(2.0))
        .fail_stop(0, secs(22.746));
    let got = replay(
        EngineConfig::new(Shape::mirror(3)),
        rb(plan, 100, 512),
        &small(400_000),
    );
    assert_eq!(
        got,
        (
            2_500,
            0,
            1_729_361_764_798_305_537,
            4_618_512_618_608_137_607,
            15_050_962_531_347_730_873
        )
    );
}

#[test]
fn mirror_rebuild_is_abandoned_when_its_last_source_dies() {
    let plan = FaultPlan::new()
        .fail_stop_with_spare(1, secs(2.0))
        .fail_stop(0, secs(30.0));
    let got = replay(
        EngineConfig::new(Shape::mirror(2)),
        rb(plan, 100, 512),
        &small(400_000),
    );
    assert_eq!(
        got,
        (
            2_500,
            1_880,
            5_670_357_417_159_270_748,
            4_621_338_222_485_294_025,
            11_420_422_601_272_073_299
        )
    );
}

#[test]
fn chained_replica_rebuild_with_retries_and_redirects() {
    let plan = FaultPlan::new()
        .fail_stop_with_spare(2, secs(5.0))
        .fail_slow(0, secs(1.0), secs(20.0), 4.0)
        .media_errors(0.02, 0.01)
        .retry(
            SimDuration::from_millis(60),
            3,
            SimDuration::from_millis(500),
        )
        .redirect_slow_reads()
        .rebuild(SimDuration::from_millis(50), 512);
    let cfg = EngineConfig::new(Shape::new(1, 2, 2).expect("valid")).with_seed(9);
    assert_eq!(
        replay(cfg, plan, &cello()),
        (
            1_500,
            0,
            413_824_320_252_015_687,
            4_620_939_786_603_156_431,
            3_001_353_040_545_201_723
        )
    );
}

#[test]
fn foreground_write_retries_run_out() {
    let plan = FaultPlan::new()
        .fail_stop(0, secs(5.0))
        .media_errors(0.02, 0.05)
        .retry_budget(1);
    assert_eq!(
        replay(fg_1x2x2(), plan, &cello()),
        (
            1_500,
            4,
            11_648_967_213_696_582_307,
            4_619_940_337_026_731_001,
            11_059_453_114_039_407_047
        )
    );
}

#[test]
fn closed_loop_rehomes_queued_foreground_writes() {
    let plan = FaultPlan::new().fail_stop(1, secs(0.7));
    assert_eq!(
        closed(fg_1x2x2(), plan, 0.3, 32, 4_000),
        (
            4_000,
            0,
            7_609_738_597_868_061_390,
            4_636_175_711_253_971_208,
            7_075_148_166_277_842_371
        )
    );
}

#[test]
fn closed_loop_timeouts_and_in_flight_duplicates() {
    let plan = FaultPlan::new()
        .fail_stop(0, secs(0.5))
        .media_errors(0.02, 0.02)
        .retry(
            SimDuration::from_millis(40),
            2,
            SimDuration::from_millis(320),
        );
    let cfg = EngineConfig::new(Shape::new(2, 1, 2).expect("valid"));
    assert_eq!(
        closed(cfg, plan, 0.7, 32, 6_000),
        (
            6_000,
            11,
            2_737_605_023_361_488_048,
            4_632_371_432_321_511_959,
            11_698_975_236_975_437_276
        )
    );
}

#[test]
fn parity_reconstruction_completes() {
    let plan = rb(
        FaultPlan::new().fail_stop_with_spare(0, secs(10.0)),
        1_000,
        2048,
    );
    assert_eq!(
        replay(r5(), plan, &small(200_000)),
        (
            2_500,
            0,
            8_024_306_339_417_976_034,
            4_620_775_986_888_649_433,
            12_979_458_416_789_793_862
        )
    );
}

#[test]
fn parity_reconstruction_abandoned_by_a_second_failure() {
    let plan = FaultPlan::new()
        .fail_stop_with_spare(0, secs(10.0))
        .fail_stop(1, secs(12.0));
    assert_eq!(
        replay(r5(), rb(plan, 1_000, 512), &small(400_000)),
        (
            2_500,
            688,
            16_407_132_112_233_680_069,
            4_620_094_124_510_234_101,
            8_981_792_223_382_777_451
        )
    );
}

#[test]
fn parity_reconstruction_abandoned_at_chunk_issue() {
    let plan = FaultPlan::new()
        .fail_stop(1, secs(5.0))
        .fail_stop_with_spare(0, secs(10.0));
    assert_eq!(
        replay(r5(), rb(plan, 1_000, 512), &small(400_000)),
        (
            2_500,
            697,
            11_619_968_687_546_026_743,
            4_620_071_875_193_921_085,
            5_345_505_273_969_457_600
        )
    );
}

#[test]
fn parity_leg_retries_and_their_exhaustion() {
    let plan = FaultPlan::new()
        .fail_stop(3, secs(8.0))
        .media_errors(0.03, 0.03)
        .retry_budget(1);
    assert_eq!(
        replay(r5(), plan, &cello()),
        (
            1_500,
            3,
            11_534_329_012_650_726_737,
            4_620_997_034_773_488_467,
            15_455_267_599_439_356_106
        )
    );
}

#[test]
fn full_stripe_writes_during_parity_reconstruction() {
    let requests = (0..400u64)
        .map(|i| Request {
            id: i,
            arrival: SimTime::from_millis(40 * i),
            op: if i % 3 == 0 { Op::Read } else { Op::SyncWrite },
            lbn: (7_919 * i % 500) * 384,
            sectors: if i % 2 == 0 { 768 } else { 64 },
        })
        .collect();
    let t = Trace::new("stripe writes", 400_000, requests);
    let plan = rb(
        FaultPlan::new().fail_stop_with_spare(2, secs(4.0)),
        200,
        512,
    );
    assert_eq!(
        replay(r5(), plan, &t),
        (
            400,
            0,
            4_670_770_089_526_674_634,
            4_622_733_351_933_095_934,
            6_107_701_719_249_504_025
        )
    );
}

#[test]
fn closed_loop_parity_replans_after_two_failures() {
    let plan = FaultPlan::new()
        .fail_stop(0, secs(0.6))
        .fail_stop(2, secs(1.2));
    assert_eq!(
        closed(r5(), plan, 0.5, 64, 8_000),
        (
            8_000,
            1_864,
            9_469_374_204_479_114_824,
            4_636_104_537_004_984_644,
            8_053_956_315_035_444_536
        )
    );
}

#[test]
fn read_retries_rotate_over_three_mirrors() {
    let plan = FaultPlan::new()
        .fail_stop(1, secs(6.0))
        .media_errors(0.04, 0.0)
        .retry(
            SimDuration::from_millis(40),
            3,
            SimDuration::from_millis(320),
        );
    let got = replay(EngineConfig::new(Shape::mirror(3)), plan, &cello());
    assert_eq!(
        got,
        (
            1_500,
            0,
            2_941_829_297_179_794_922,
            4_619_174_949_907_627_322,
            4_495_856_600_640_262_203
        )
    );
}

/// A read duplicated onto both disks of a 2-way mirror, still queued on
/// both when one disk fails, is read once, by the survivor: the orphaned
/// copy is dropped, not dispatched a second time.
#[test]
fn closed_loop_drops_orphaned_duplicates_a_live_mirror_still_queues() {
    let plan = FaultPlan::new().fail_stop(0, secs(0.5));
    assert_eq!(
        closed(EngineConfig::new(Shape::mirror(2)), plan, 1.0, 32, 4_000),
        (
            4_000,
            0,
            6_541_060_373_371_165_106,
            4_636_575_749_796_105_379,
            4_248_195_637_169_144_001
        )
    );
}
