//! Cache-correctness properties for the content-addressed run cache.
//!
//! Three families, per the cache's safety story:
//!
//! 1. **Hit fidelity** — for randomized job lists, a warm re-run through the
//!    cache emits bytes identical to a cold run (and to a cache-disabled
//!    run).
//! 2. **Fingerprint sensitivity** — flipping any config field, the seed,
//!    the workload, or the baked-in code-version fingerprint misses.
//! 3. **Corruption detection** — truncated or bit-flipped entries fail
//!    the checksum and fall back to a cold run that still returns the
//!    right answer (and repairs the entry).

use std::collections::BTreeSet;
use std::path::PathBuf;

use mimd_core::{
    CacheConfig, EngineConfig, FaultPlan, MirrorPolicy, ParityConfig, Policy, ReplicaPlacement,
    Shape, WriteMode,
};
use mimd_disk::{PositionKnowledge, TimingPath};
use mimd_harness::fp;
use mimd_harness::{report_json, run_jobs_on, Job, RunCache};
use mimd_sim::check::{case_seed, check_cases};
use mimd_sim::{SimDuration, SimRng, SimTime};
use mimd_workload::{Access, IometerSpec, SyntheticSpec, Trace};

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mimd-cache-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The closed-loop data-set size, in sectors.
const CLOSED_DATA: u64 = 4 * 1024 * 1024;

/// A small random job list: 1–2 shapes × 1–2 policies × 1–2 seeds over
/// one trace-or-closed workload, all drawn from the case's seeded stream.
///
/// The configs are distinct (distinct shapes, policies that can't alias
/// the default, distinct seeds), so every job is unique and hit/miss
/// counts are exact.
struct RandomJobs {
    cfgs: Vec<EngineConfig>,
    /// The replayed trace; `None` makes every job a closed loop.
    trace: Option<Trace>,
    outstanding: usize,
    completions: u64,
}

impl RandomJobs {
    fn jobs(&self) -> Vec<Job<'_>> {
        self.cfgs
            .iter()
            .map(|cfg| match &self.trace {
                Some(t) => Job::trace(cfg.clone(), t),
                None => Job::closed(
                    cfg.clone(),
                    IometerSpec::random_read_512(CLOSED_DATA),
                    self.outstanding,
                    self.completions,
                ),
            })
            .collect()
    }

    fn len(&self) -> u64 {
        self.cfgs.len() as u64
    }
}

fn random_jobs(rng: &mut SimRng) -> RandomJobs {
    let all_shapes = [
        Shape::striping(2),
        Shape::striping(3),
        Shape::sr_array(2, 2).unwrap(),
        Shape::sr_array(2, 3).unwrap(),
    ];
    // `None` resolves to SATF/RSATF, so the explicit pool avoids both.
    let all_policies = [None, Some(Policy::Look), Some(Policy::Fcfs)];
    let start = rng.below(all_shapes.len() as u64) as usize;
    let shapes: Vec<Shape> = (0..1 + rng.below(2) as usize)
        .map(|i| all_shapes[(start + i) % all_shapes.len()])
        .collect();
    let start = rng.below(all_policies.len() as u64) as usize;
    let policies: Vec<Option<Policy>> = (0..1 + rng.below(2) as usize)
        .map(|i| all_policies[(start + i) % all_policies.len()])
        .collect();
    let base_seed = 1 + rng.below(1_000);
    let mut seeds = vec![base_seed];
    if rng.below(2) == 1 {
        seeds.push(base_seed + 1 + rng.below(1_000));
    }
    let (trace, outstanding, completions) = if rng.below(2) == 0 {
        let n = 80 + rng.below(120) as usize;
        let trace = SyntheticSpec::cello_base().generate(rng.below(1 << 20), n);
        (Some(trace), 0, 0)
    } else {
        (None, 2 + rng.below(6) as usize, 40 + rng.below(60))
    };
    RandomJobs {
        cfgs: configs(&shapes, &policies, &seeds),
        trace,
        outstanding,
        completions,
    }
}

/// Every shape × policy × seed config, in that nesting order; a `None`
/// policy keeps the shape's default.
fn configs(shapes: &[Shape], policies: &[Option<Policy>], seeds: &[u64]) -> Vec<EngineConfig> {
    let mut cfgs = Vec::new();
    for &shape in shapes {
        for &policy in policies {
            for &seed in seeds {
                let mut cfg = EngineConfig::new(shape).with_seed(seed);
                if let Some(p) = policy {
                    cfg = cfg.with_policy(p);
                }
                cfgs.push(cfg);
            }
        }
    }
    cfgs
}

/// Runs `jobs` and returns each report's JSON, one line per job in order.
fn run_bytes(threads: usize, cache: &RunCache, jobs: Vec<Job<'_>>) -> String {
    run_jobs_on(threads, cache, jobs)
        .into_iter()
        .map(|mut r| report_json(&mut r).to_json())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn warm_rerun_is_byte_identical_to_cold() {
    check_cases("cache::hit_fidelity", 6, |case, rng| {
        let sweep = random_jobs(rng);
        let dir = temp_cache_dir(&format!("fidelity-{case}"));
        let cache = RunCache::at(&dir, 0xC0DE + case);

        let disabled = run_bytes(1, &RunCache::disabled(), sweep.jobs());
        let cold = run_bytes(1, &cache, sweep.jobs());
        assert_eq!(cache.hits(), 0, "case {case}: cold pass must not hit");
        assert_eq!(cache.misses(), sweep.len(), "case {case}");

        let warm = run_bytes(1, &cache, sweep.jobs());
        assert_eq!(
            cache.hits(),
            sweep.len(),
            "case {case}: warm pass must hit every job"
        );
        assert_eq!(warm, cold, "case {case}: warm bytes differ from cold");
        assert_eq!(cold, disabled, "case {case}: cache changed the output");

        // Parallel warm replay is byte-identical too (tiny jobs race the
        // workers' claims hardest).
        let parallel = run_bytes(4, &cache, sweep.jobs());
        assert_eq!(parallel, cold, "case {case}: parallel warm bytes differ");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

type Mutation<T> = (&'static str, fn(&mut T));

/// Applies each mutation to a clone of `base` and asserts that every
/// result, and `base` itself, has its own digest.
fn assert_each_flip_is_seen<T: Clone>(
    base: &T,
    mutations: &[Mutation<T>],
    digest: impl Fn(&T) -> u64,
) -> BTreeSet<u64> {
    let mut digests = BTreeSet::new();
    assert!(digests.insert(digest(base)));
    for (name, mutate) in mutations {
        let mut value = base.clone();
        mutate(&mut value);
        assert!(
            digests.insert(digest(&value)),
            "flipping `{name}` did not change the fingerprint"
        );
    }
    digests
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn cache_of(bytes: u64, hit_us: u64) -> Option<CacheConfig> {
    Some(CacheConfig {
        bytes,
        hit_time: SimDuration::from_micros(hit_us),
    })
}

#[test]
fn every_config_field_flip_changes_the_fingerprint() {
    let trace = SyntheticSpec::cello_base().generate(11, 60);
    let base = EngineConfig::new(Shape::sr_array(2, 3).unwrap());
    let mutations: &[Mutation<EngineConfig>] = &[
        ("shape", |c| c.shape = Shape::sr_array(3, 2).unwrap()),
        ("seed", |c| c.seed ^= 1),
        ("prediction_samples", |c| {
            c.prediction_samples = !c.prediction_samples
        }),
        ("policy", |c| c.policy = Policy::Fcfs),
        ("write_mode", |c| c.write_mode = WriteMode::Foreground),
        ("timing", |c| c.timing = TimingPath::Analytic),
        ("knowledge", |c| c.knowledge = PositionKnowledge::Perfect),
        ("knowledge_mean", |c| {
            c.knowledge = PositionKnowledge::Tracked {
                mean_error_us: 4.0,
                std_error_us: 31.0,
            }
        }),
        ("knowledge_std", |c| {
            c.knowledge = PositionKnowledge::Tracked {
                mean_error_us: 3.0,
                std_error_us: 32.0,
            }
        }),
        ("mirror_stagger", |c| c.mirror_stagger = !c.mirror_stagger),
        ("sync_spindles", |c| c.sync_spindles = !c.sync_spindles),
        ("mirror_policy", |c| c.mirror_policy = MirrorPolicy::Static),
        ("nvram_threshold", |c| c.nvram_threshold += 1),
        ("coalesce_delayed", |c| {
            c.coalesce_delayed = !c.coalesce_delayed
        }),
        ("cache", |c| c.cache = cache_of(1 << 20, 100)),
        ("cache_bytes", |c| c.cache = cache_of(2 << 20, 100)),
        ("cache_hit_time", |c| c.cache = cache_of(1 << 20, 200)),
        ("slack", |c| c.slack += SimDuration::from_micros(1)),
        ("replica_placement", |c| {
            c.replica_placement = ReplicaPlacement::Random
        }),
        ("read_ahead", |c| c.read_ahead = !c.read_ahead),
        ("model", |c| c.disk_params.model = "other"),
        ("rpm", |c| c.disk_params.rpm += 60),
        ("surfaces", |c| c.disk_params.surfaces += 1),
        ("sector_bytes", |c| c.disk_params.sector_bytes *= 2),
        ("zone_count", |c| c.disk_params.zones.truncate(1)),
        ("zone_cylinders", |c| c.disk_params.zones[0].cylinders += 1),
        ("zone_sectors", |c| {
            c.disk_params.zones[0].sectors_per_track += 1
        }),
        ("track_skew", |c| c.disk_params.track_skew_frac += 0.01),
        ("min_seek", |c| {
            c.disk_params.min_seek += SimDuration::from_micros(1)
        }),
        ("avg_seek", |c| {
            c.disk_params.avg_seek += SimDuration::from_micros(1)
        }),
        ("max_seek", |c| {
            c.disk_params.max_seek += SimDuration::from_micros(1)
        }),
        ("write_settle", |c| {
            c.disk_params.write_settle += SimDuration::from_micros(1)
        }),
        ("head_switch", |c| {
            c.disk_params.head_switch += SimDuration::from_micros(1)
        }),
        ("overhead", |c| {
            c.disk_params.overhead += SimDuration::from_micros(1)
        }),
        ("faults", |c| {
            c.faults = FaultPlan::new().fail_stop(0, at_ms(500))
        }),
        ("fail_stop_spare", |c| {
            c.faults = FaultPlan::new().fail_stop_with_spare(0, at_ms(500))
        }),
        ("fail_slow", |c| {
            c.faults = FaultPlan::new().fail_slow(0, at_ms(100), at_ms(900), 4.0)
        }),
        ("fail_slow_factor", |c| {
            c.faults = FaultPlan::new().fail_slow(0, at_ms(100), at_ms(900), 5.0)
        }),
        ("media_read", |c| {
            c.faults = FaultPlan::new().media_errors(0.01, 0.0)
        }),
        ("media_write", |c| {
            c.faults = FaultPlan::new().media_errors(0.0, 0.01)
        }),
        ("faults_retry", |c| {
            c.faults = FaultPlan::new().retry(
                SimDuration::from_millis(40),
                3,
                SimDuration::from_millis(320),
            )
        }),
        ("redirect", |c| {
            c.faults = FaultPlan::new().redirect_slow_reads()
        }),
        ("rebuild_delay", |c| {
            c.faults.rebuild.spare_delay += SimDuration::from_micros(1)
        }),
        ("rebuild_chunk", |c| c.faults.rebuild.chunk_sectors += 8),
        ("parity", |c| c.parity = Some(ParityConfig::raid4(2))),
        ("parity_level", |c| c.parity = Some(ParityConfig::raid5(2))),
        ("parity_group", |c| c.parity = Some(ParityConfig::raid4(3))),
    ];
    let mut digests = assert_each_flip_is_seen(&base, mutations, |cfg| fp::trace_job(cfg, &trace));
    // Workload flips miss too: different content, same config.
    let other = SyntheticSpec::cello_base().generate(12, 60);
    assert!(digests.insert(fp::trace_job(&base, &other)));
    let shorter = Trace::new(
        trace.name.clone(),
        trace.data_sectors,
        trace.requests()[..59].to_vec(),
    );
    assert!(digests.insert(fp::trace_job(&base, &shorter)));
}

/// A closed-loop job's identity: its config, its generator spec, and the
/// loop's parameters.
#[derive(Clone)]
struct ClosedKey {
    cfg: EngineConfig,
    spec: IometerSpec,
    outstanding: usize,
    completions: u64,
}

#[test]
fn every_closed_loop_field_flip_changes_the_fingerprint() {
    let base = ClosedKey {
        cfg: EngineConfig::new(Shape::sr_array(2, 3).unwrap()),
        spec: IometerSpec::random_read_512(CLOSED_DATA),
        outstanding: 4,
        completions: 100,
    };
    let mutations: &[Mutation<ClosedKey>] = &[
        ("config", |k| k.cfg.seed ^= 1),
        ("read_frac", |k| k.spec.read_frac = 0.5),
        ("sectors", |k| k.spec.sectors += 1),
        ("data_sectors", |k| k.spec.data_sectors += 1),
        ("seek_locality", |k| k.spec.seek_locality = 3.0),
        ("access", |k| k.spec.access = Access::Sequential),
        ("outstanding", |k| k.outstanding += 1),
        ("completions", |k| k.completions += 1),
    ];
    assert_each_flip_is_seen(&base, mutations, |k| {
        fp::closed_job(&k.cfg, &k.spec, k.outstanding, k.completions)
    });
}

#[test]
fn faulted_grids_replay_byte_identical_at_any_thread_count() {
    // Fault scenarios draw from a dedicated named RNG stream inside each
    // (single-threaded) simulator, so the harness thread count cannot
    // leak into results — and a warm cache replay returns the same bytes.
    let trace = SyntheticSpec::cello_base().generate(21, 120);
    let faults = FaultPlan::new()
        .fail_stop(0, SimTime::from_secs(2))
        .media_errors(0.02, 0.0)
        .retry(
            SimDuration::from_millis(50),
            3,
            SimDuration::from_millis(400),
        )
        .redirect_slow_reads();
    let cfgs: Vec<EngineConfig> = configs(
        &[Shape::mirror(2), Shape::sr_array(2, 2).unwrap()],
        &[None, Some(Policy::Look)],
        &[3, 4],
    )
    .into_iter()
    .map(|c| c.with_faults(faults.clone()))
    .collect();
    let jobs = || -> Vec<Job<'_>> { cfgs.iter().map(|c| Job::trace(c.clone(), &trace)).collect() };
    let serial = run_bytes(1, &RunCache::disabled(), jobs());
    for threads in [2, 4, 8] {
        let parallel = run_bytes(threads, &RunCache::disabled(), jobs());
        assert_eq!(parallel, serial, "threads = {threads}");
    }
    let dir = temp_cache_dir("faulted-threads");
    let cache = RunCache::at(&dir, 0xFA17);
    let cold = run_bytes(4, &cache, jobs());
    let warm = run_bytes(4, &cache, jobs());
    assert_eq!(cold, serial);
    assert_eq!(warm, serial, "warm faulted replay must be byte-identical");
    assert_eq!(cache.hits(), cfgs.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_fingerprint_flip_misses_the_cache() {
    check_cases("cache::code_fp", 4, |case, rng| {
        let sweep = random_jobs(rng);
        let dir = temp_cache_dir(&format!("codefp-{case}"));

        let old_code = RunCache::at(&dir, 1000 + case);
        let baseline = run_bytes(1, &old_code, sweep.jobs());
        assert_eq!(old_code.misses(), sweep.len());

        // Same directory, different code fingerprint: every entry is
        // invisible, the jobs re-run cold, and the bytes still agree.
        let new_code = RunCache::at(&dir, 2000 + case);
        let rerun = run_bytes(1, &new_code, sweep.jobs());
        assert_eq!(new_code.hits(), 0, "case {case}: stale code version hit");
        assert_eq!(new_code.misses(), sweep.len(), "case {case}");
        assert_eq!(rerun, baseline, "case {case}: determinism across versions");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn corrupted_and_truncated_entries_fall_back_to_cold_runs() {
    check_cases("cache::corruption", 4, |case, rng| {
        let sweep = random_jobs(rng);
        let dir = temp_cache_dir(&format!("corrupt-{case}"));
        let cache = RunCache::at(&dir, 0xBAD + case);
        let baseline = run_bytes(1, &cache, sweep.jobs());

        // Mangle every stored entry: truncate odd files, flip a byte in
        // even ones (dir listing is sorted for determinism).
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("cache dir exists")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rpt"))
            .collect();
        entries.sort();
        assert!(!entries.is_empty(), "case {case}: no entries stored");
        for (i, path) in entries.iter().enumerate() {
            let mut bytes = std::fs::read(path).expect("readable");
            if i % 2 == 0 {
                let at = bytes.len() / 2;
                bytes[at] ^= 0x01;
            } else {
                let keep = rng.below(bytes.len() as u64) as usize;
                bytes.truncate(keep);
            }
            std::fs::write(path, &bytes).expect("rewrite");
        }

        let fresh = RunCache::at(&dir, 0xBAD + case);
        let recovered = run_bytes(1, &fresh, sweep.jobs());
        assert_eq!(fresh.hits(), 0, "case {case}: corrupted entry served");
        assert_eq!(fresh.misses(), sweep.len(), "case {case}");
        assert_eq!(recovered, baseline, "case {case}: fallback bytes differ");

        // The cold fallback rewrote good entries: a third pass hits.
        let repaired = RunCache::at(&dir, 0xBAD + case);
        let warm = run_bytes(1, &repaired, sweep.jobs());
        assert_eq!(
            repaired.hits(),
            sweep.len(),
            "case {case}: repair did not stick"
        );
        assert_eq!(warm, baseline, "case {case}");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn seeded_cases_are_reproducible() {
    // The property harness derives per-case seeds deterministically, so
    // any failure above is replayable from its case number alone.
    assert_eq!(case_seed(3), case_seed(3));
    assert_ne!(case_seed(3), case_seed(4));
}
