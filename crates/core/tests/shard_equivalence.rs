//! The sharded engine's core contract: the popped event stream — and
//! therefore every report byte — is identical at any worker count.
//!
//! `ArraySim::set_parallelism` may only change wall-clock concurrency.
//! These tests capture the full pop stream (`(time, entity, seq, disk,
//! kind)` per event) under the `set_pop_capture` test hook and require it
//! to match record-for-record between a serial run and 2- and 8-worker
//! runs, across randomized shapes/workloads and through a faulted
//! hot-spare rebuild running alongside cross-group traffic. The same
//! capture also holds the two drive modes to each other: an uncached
//! replay gives the same stream whether it runs structured or, behind a
//! cache that never hits, interleaved.

use mimd_core::{ArraySim, CacheConfig, EngineConfig, FaultPlan, ParityConfig, RunReport, Shape};
use mimd_sim::check::check_cases;
use mimd_sim::{OnlineStats, SimDuration, SimTime};
use mimd_workload::{IometerSpec, SyntheticSpec, Trace};

/// One captured run: the full pop stream, the witness, and the report's
/// complete `Debug` rendering (which covers every counter and sample).
type Run = (Vec<(u64, u32, u64, u32, u8)>, u64, String);

fn capture(cfg: &EngineConfig, trace: &Trace, workers: usize) -> Run {
    let mut sim = ArraySim::new(cfg.clone(), trace.data_sectors).expect("shape fits");
    sim.set_parallelism(workers);
    sim.set_pop_capture(true);
    let mut report = sim.run_trace(trace);
    // A zero-byte cache counts every read as a miss and changes nothing
    // else; the drive-mode differential below compares uncached runs
    // with such runs, so the counter is left out.
    report.cache_misses = 0;
    (sim.take_pop_stream(), report.witness, format!("{report:?}"))
}

/// Requires two captured runs to match record for record, then in
/// witness and report bytes.
fn assert_same_run(a: &Run, b: &Run, label: &str) {
    assert!(!a.0.is_empty(), "{label}: a real run pops events");
    assert_eq!(a.0.len(), b.0.len(), "{label}: pop count diverged");
    // Record-by-record so a divergence reports the first bad event,
    // not a megabyte of vec diff.
    for (i, (x, y)) in a.0.iter().zip(b.0.iter()).enumerate() {
        assert_eq!(
            x, y,
            "{label}: pop {i} diverged (time, entity, seq, disk, kind)"
        );
    }
    assert_eq!(a.1, b.1, "{label}: witness diverged");
    assert_eq!(a.2, b.2, "{label}: report bytes diverged");
}

fn assert_equivalent(cfg: &EngineConfig, trace: &Trace, label: &str) {
    let serial = capture(cfg, trace, 1);
    for workers in [2usize, 8] {
        let sharded = capture(cfg, trace, workers);
        assert_same_run(&serial, &sharded, &format!("{label} at {workers} workers"));
    }
}

#[test]
fn sharded_pop_stream_equals_serial_on_random_configs() {
    let shapes = [
        Shape::striping(4),
        Shape::striping(7),
        Shape::mirror(2),
        Shape::mirror(3),
        Shape::sr_array(2, 3).expect("valid"),
        Shape::sr_array(3, 2).expect("valid"),
        Shape::raid10(4).expect("even"),
        Shape::new(2, 2, 2).expect("valid"),
    ];
    check_cases("sharded pop stream equals serial", 6, |case, rng| {
        let shape = shapes[rng.below(shapes.len() as u64) as usize];
        let spec = match rng.below(3) {
            0 => SyntheticSpec::cello_base(),
            1 => SyntheticSpec::cello_disk6(),
            _ => SyntheticSpec::tpcc(),
        };
        let n = 150 + rng.below(250) as usize;
        let trace = spec.generate(rng.below(u64::MAX), n);
        let mut cfg = EngineConfig::new(shape).with_seed(rng.below(u64::MAX));
        if rng.chance(0.5) {
            cfg = cfg.with_perfect_knowledge();
        }
        assert_equivalent(&cfg, &trace, &format!("case {case} shape {shape}"));
    });
}

#[test]
fn faulted_hot_spare_rebuild_is_identical_at_any_worker_count() {
    // Two mirror groups: the rebuild is confined to the failed disk's
    // group while foreground traffic keeps crossing both — the exact
    // seam the note merge has to order deterministically.
    let shape = Shape::new(1, 2, 2).expect("valid");
    let trace = SyntheticSpec::cello_base().generate(1313, 1_500);
    let plan = FaultPlan::new()
        .fail_stop_with_spare(1, SimTime::from_secs(2))
        .rebuild(mimd_sim::SimDuration::from_secs(1), 2_048);
    let cfg = EngineConfig::new(shape).with_faults(plan);

    // The scenario must actually exercise the rebuild machinery.
    let mut sim = ArraySim::new(cfg.clone(), trace.data_sectors).expect("fits");
    let report = sim.run_trace(&trace);
    assert_eq!(report.faults.rebuilds_completed, 1, "rebuild must finish");
    assert!(!sim.disk_is_dead(1), "spare restored the disk");

    assert_equivalent(&cfg, &trace, "hot-spare rebuild");
}

#[test]
fn raid5_pop_stream_equals_serial() {
    // Two parity groups of G=4 over eight disks: small-write RMW fan-out
    // and full-stripe writes cross shard boundaries only through the
    // conductor, so the pop stream must be worker-count-invariant just
    // like the mirrored shapes.
    let trace = SyntheticSpec::cello_base().generate(4242, 1_200);
    let cfg = EngineConfig::new(Shape::striping(8)).with_parity(ParityConfig::raid5(4));
    assert_equivalent(&cfg, &trace, "raid5 healthy");
}

#[test]
fn wide_stripe_pop_stream_equals_serial() {
    // 256 single-disk shards: far more shards than workers, so each
    // worker owns many shards and the conductor's merge spans the lot.
    let trace = SyntheticSpec::cello_base().generate(1234, 3_000);
    let cfg = EngineConfig::new(Shape::striping(256));
    assert_equivalent(&cfg, &trace, "256-disk stripe");
}

/// What pins an interleaved run: the witness, the number of pops, an
/// FNV-1a digest over every captured `(time, entity, seq, disk, kind)`,
/// and one over the report's `Debug` rendering, whose samples are listed in
/// completion order.
fn interleaved_pins(sim: &mut ArraySim, report: &RunReport) -> [u64; 4] {
    fn fnv(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    }
    let pops = sim.take_pop_stream();
    let mut pop_h = 0xcbf2_9ce4_8422_2325u64;
    for &(t, e, s, d, k) in &pops {
        for x in [t, u64::from(e), s, u64::from(d), u64::from(k)] {
            pop_h = fnv(pop_h, x);
        }
    }
    let report_h = format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| fnv(h, u64::from(b)));
    [report.witness, pops.len() as u64, pop_h, report_h]
}

// The three interleaved runs below are pinned to the values the engine
// produced with a linear per-event scan over every shard's head and note
// buffer. The indexed conductor must reproduce them exactly. Each pinned
// run records its Table-2 prediction samples, so the report hash covers
// them.

#[test]
fn wide_raid10_closed_loop_keeps_its_pinned_pop_stream() {
    let cfg = EngineConfig::new(Shape::raid10(128).expect("even"))
        .with_perfect_knowledge()
        .with_seed(7)
        .with_prediction_samples();
    let mut sim = ArraySim::new(cfg, 16_000_000).expect("fits");
    sim.set_pop_capture(true);
    let spec = IometerSpec::microbench(16_000_000, 0.8);
    let report = sim.run_closed_loop(&spec, 8 * 128, 6_000);
    assert_eq!(report.completed, 6_000);
    assert_eq!(
        interleaved_pins(&mut sim, &report),
        [
            5_143_342_966_636_630_769,
            6_334,
            7_727_684_804_785_299_746,
            6_081_100_332_961_981_538
        ]
    );
}

#[test]
fn cached_cello_replay_keeps_its_pinned_pop_stream() {
    let trace = SyntheticSpec::cello_base().generate(77, 3_000);
    let cfg = EngineConfig::new(Shape::sr_array(2, 3).expect("valid"))
        .with_cache(CacheConfig {
            bytes: 2 << 20,
            hit_time: SimDuration::from_micros(100),
        })
        .with_prediction_samples();
    let mut sim = ArraySim::new(cfg, trace.data_sectors).expect("fits");
    sim.set_pop_capture(true);
    let report = sim.run_trace(&trace);
    assert_eq!(report.completed, 3_000);
    assert!(report.cache_hits > 0, "the cache must see hits");
    // The report hash is from after the NVRAM budget became per shard:
    // `nvram_peak` is 84, the sum of six shard peaks, where one shared
    // table peaked at 33. The pop stream did not move.
    assert_eq!(
        interleaved_pins(&mut sim, &report),
        [
            167_949_311_556_843_084,
            9_293,
            1_284_793_194_123_150_404,
            662_127_617_942_066_155
        ]
    );
}

#[test]
fn all_disks_dead_closed_loop_keeps_its_pinned_pop_stream() {
    // Every replenishment fails instantly inside `submit`, so completions
    // flow through the pending-notes path rather than shard events. The
    // 256-sector reads span both mirror groups, so each request leaves
    // notes on two shards.
    let plan = (0..4).fold(FaultPlan::new(), |p, d| p.fail_stop(d, SimTime::ZERO));
    let cfg = EngineConfig::new(Shape::raid10(4).expect("even"))
        .with_faults(plan)
        .with_prediction_samples();
    let mut sim = ArraySim::new(cfg, 8_000_000).expect("fits");
    sim.set_pop_capture(true);
    let spec = IometerSpec::sequential_read(8_000_000, 256);
    let report = sim.run_closed_loop(&spec, 4, 5_000);
    assert_eq!(report.completed, 5_000);
    assert_eq!(report.failed_requests, 5_000);
    assert_eq!(
        interleaved_pins(&mut sim, &report),
        [
            8_346_637_013_788_835_338,
            4,
            9_538_273_713_023_770_431,
            18_296_109_077_293_848_789
        ]
    );
}

#[test]
fn drained_raid10_notes_keep_their_pinned_sweep_order() {
    // `drain_background` steps every shard to quiescence before the
    // conductor applies any note, so several shards hold completion notes
    // for different requests at once. The drain's report lists those
    // completions in the order the conductor swept the shards.
    let cfg = EngineConfig::new(Shape::raid10(8).expect("even"))
        .with_perfect_knowledge()
        .with_prediction_samples();
    let mut sim = ArraySim::new(cfg, 8_000_000).expect("fits");
    let spec = IometerSpec::microbench(8_000_000, 0.7);
    let first = sim.run_closed_loop(&spec, 64, 2_000);
    assert_eq!(first.completed, 2_000);
    sim.set_pop_capture(true);
    let report = sim.drain_background();
    assert!(
        report.delayed_propagated > 0,
        "writes were left to propagate"
    );
    assert_eq!(report.completed, 63, "the drained completions");
    assert_eq!(
        interleaved_pins(&mut sim, &report),
        [
            3_400_320_884_530_009_270,
            740,
            2_398_123_966_798_735_186,
            11_298_404_063_277_543_212
        ]
    );
}

#[test]
fn raid5_degraded_rebuild_is_identical_at_any_worker_count() {
    // A dead member of group 0 plus a hot-spare reconstruction riding the
    // delayed queues, while foreground traffic keeps hitting both groups:
    // degraded-read fan-out, two-phase RMW replanning, and the
    // reads_left countdown all have to merge deterministically.
    let mut spec = SyntheticSpec::cello_base();
    spec.data_sectors = 200_000;
    spec.rate_per_sec = 25.0;
    let trace = spec.generate(99, 1_800);
    let plan = FaultPlan::new()
        .fail_stop_with_spare(1, SimTime::from_secs(8))
        .rebuild(mimd_sim::SimDuration::from_secs(1), 2_048);
    let cfg = EngineConfig::new(Shape::striping(8))
        .with_parity(ParityConfig::raid5(4))
        .with_faults(plan);

    // The scenario must actually exercise the parity rebuild machinery.
    let mut sim = ArraySim::new(cfg.clone(), trace.data_sectors).expect("fits");
    let report = sim.run_trace(&trace);
    assert_eq!(report.faults.rebuilds_completed, 1, "rebuild must finish");
    assert!(report.faults.reconstruction_chunks > 0);

    assert_equivalent(&cfg, &trace, "raid5 degraded rebuild");
}

/// The two drive modes must agree on an uncached run. Structured mode is
/// what an uncached open-loop replay gets; a zero-byte cache, which never
/// hits, forces the same replay onto the interleaved driver.
fn assert_modes_agree(cfg: &EngineConfig, trace: &Trace, label: &str) {
    let interleaved_cfg = cfg.clone().with_cache(CacheConfig {
        bytes: 0,
        hit_time: SimDuration::from_micros(100),
    });
    assert_same_run(
        &capture(cfg, trace, 1),
        &capture(&interleaved_cfg, trace, 1),
        &format!("{label}: structured vs interleaved"),
    );
}

fn with_threshold(shape: Shape, threshold: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(shape);
    cfg.nvram_threshold = threshold;
    cfg
}

#[test]
fn drive_modes_agree_below_the_nvram_threshold() {
    let trace = SyntheticSpec::cello_base().generate(21, 1_500);
    let sr = Shape::sr_array(2, 3).expect("valid");
    assert_modes_agree(&EngineConfig::new(sr), &trace, "cello sr 2x3");

    let raid10 = Shape::raid10(4).expect("even");
    let plan = FaultPlan::new().fail_stop(1, SimTime::from_secs(20));
    let cfg = EngineConfig::new(raid10).with_faults(plan);
    assert_modes_agree(&cfg, &trace, "cello raid10x4 fail-stop");
}

#[test]
fn drive_modes_agree_on_raid5() {
    // Consecutive stripe units share a parity group, so one request often
    // routes several fragments to one shard. Both drivers must queue all
    // of them before the shard dispatches.
    let trace = SyntheticSpec::cello_base().generate(21, 1_500);
    let cfg = EngineConfig::new(Shape::striping(8)).with_parity(ParityConfig::raid5(4));
    assert_modes_agree(&cfg, &trace, "cello raid5 G=4");
}

// With the thresholds below the table fills up and forces delayed writes
// out; each shard has to make that call from its own budget in both
// drivers.

#[test]
fn drive_modes_agree_on_sr_2x3_with_a_binding_threshold() {
    let trace = SyntheticSpec::cello_base().generate(22, 1_500);
    let cfg = with_threshold(Shape::sr_array(2, 3).expect("valid"), 6);
    assert_modes_agree(&cfg, &trace, "cello sr 2x3 T=6");
}

#[test]
fn drive_modes_agree_on_raid10x8_with_a_binding_threshold() {
    let trace = SyntheticSpec::cello_base().generate(22, 1_500);
    let cfg = with_threshold(Shape::raid10(8).expect("even"), 8);
    assert_modes_agree(&cfg, &trace, "cello raid10x8 T=8");
}

#[test]
fn drive_modes_agree_on_tpcc_sr_3x2_with_a_binding_threshold() {
    let trace = SyntheticSpec::tpcc().generate(23, 1_500);
    let cfg = with_threshold(Shape::sr_array(3, 2).expect("valid"), 3);
    assert_modes_agree(&cfg, &trace, "tpcc sr 3x2 T=3");
}

/// A run with `prediction_samples` on and the same run with it off: the
/// pop stream, the witness and every figure agree, and the two sample
/// sets are the only difference (one value per physical operation when
/// on, empty when off).
fn assert_samples_only_observe(
    cfg: &EngineConfig,
    data_sectors: u64,
    drive: fn(&mut ArraySim) -> RunReport,
    label: &str,
) {
    let run = |on: bool| {
        let mut cfg = cfg.clone();
        cfg.prediction_samples = on;
        let mut sim = ArraySim::new(cfg, data_sectors).expect("shape fits");
        sim.set_pop_capture(true);
        let report = drive(&mut sim);
        (sim.take_pop_stream(), report)
    };
    let (off_pops, off) = run(false);
    let (on_pops, mut on) = run(true);
    assert!(!off_pops.is_empty(), "{label}: a real run pops events");
    assert_eq!(off_pops, on_pops, "{label}: pop stream diverged");
    assert_eq!(off.witness, on.witness, "{label}: witness");
    assert_eq!(off.completed, on.completed, "{label}: completed");
    assert_eq!(
        bits(off.response_samples_ms.values()),
        bits(on.response_samples_ms.values()),
        "{label}: response samples"
    );
    let (p_off, p_on) = (&off.prediction, &on.prediction);
    assert_eq!(p_off.misses, p_on.misses, "{label}: misses");
    assert_eq!(p_off.requests, p_on.requests, "{label}: requests");
    let error_bits = |e: &OnlineStats| {
        (
            e.count(),
            [e.mean(), e.population_variance(), e.min(), e.max()].map(f64::to_bits),
        )
    };
    assert_eq!(
        error_bits(&p_off.error),
        error_bits(&p_on.error),
        "{label}: error"
    );
    assert!(p_on.requests > 0, "{label}: the run dispatched");
    for set in [&p_on.predicted_us, &p_on.actual_us] {
        assert_eq!(set.len() as u64, p_on.requests, "{label}: one per op");
    }
    assert!(p_off.predicted_us.is_empty() && p_off.actual_us.is_empty());
    // With the sets set aside the reports agree byte for byte.
    on.prediction.predicted_us = Default::default();
    on.prediction.actual_us = Default::default();
    assert_eq!(format!("{off:?}"), format!("{on:?}"), "{label}: report");
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn prediction_samples_only_add_the_sample_sets_on_a_trace() {
    // Table 2's run: Cello base on a 2x3 SR-Array with tracked knowledge.
    let cfg = EngineConfig::new(Shape::sr_array(2, 3).expect("valid"));
    assert_samples_only_observe(
        &cfg,
        SyntheticSpec::cello_base().data_sectors,
        |sim| sim.run_trace(&SyntheticSpec::cello_base().generate(31, 1_500)),
        "cello sr 2x3",
    );
}

#[test]
fn prediction_samples_only_add_the_sample_sets_on_a_closed_loop() {
    // Duplicated mirror reads and delayed writes, tracked knowledge.
    let cfg = EngineConfig::new(Shape::raid10(4).expect("even"));
    assert_samples_only_observe(
        &cfg,
        8_000_000,
        |sim| sim.run_closed_loop(&IometerSpec::microbench(8_000_000, 0.7), 32, 3_000),
        "raid10x4 closed loop",
    );
}
