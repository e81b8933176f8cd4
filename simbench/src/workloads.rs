//! The four benchmark workloads: their inputs, one timed repetition each,
//! and the simulated answers a repetition produces.
//!
//! A repetition builds fresh simulators and runs them to completion, so
//! every repetition of one seed does the same simulated work and must give
//! bit-identical answers. Every engine run goes through
//! `RunCache::disabled()`: the benchmark always measures simulation, never
//! cache decodes.

use std::time::Instant;

use mimd_core::models::{recommend_latency_shape, DiskCharacter};
use mimd_core::{ArraySim, CacheConfig, EngineConfig, RunReport, Shape};
use mimd_disk::DiskParams;
use mimd_harness::RunCache;
use mimd_sim::{OnlineStats, SampleSet, SimDuration};
use mimd_workload::{IometerSpec, SyntheticSpec, Trace};

/// Logical data set of the closed loops (sectors), as in the engine benches.
const CLOSED_DATA_SECTORS: u64 = 16_000_000;

/// fig06's disk counts; with its four organisations and two panels this is
/// the 64-cell grid.
pub const GRID_DISKS: [u32; 9] = [1, 2, 3, 4, 6, 8, 9, 12, 16];

/// Seek locality of the grid's two panels, Cello base and Cello disk 6
/// (Table 3), as fig06 uses them.
pub const GRID_LOCALITIES: [f64; 2] = [4.14, 16.67];

/// Memory-cache service time of `replay_cached` (fig11's value).
pub const CACHE_HIT_TIME: SimDuration = SimDuration::from_micros(100);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 256 outstanding 4 KiB random reads on a 1×3 SR-Array (RSATF).
    ClosedDeep,
    /// The same stream on a 1024-disk RAID-10, 8 outstanding per disk.
    ClosedWide,
    /// Open-loop Cello-base replay on a 2×3×1 SR-Array behind a 32 MB cache.
    ReplayCached,
    /// fig06's 64-cell Cello grid on the harness pool.
    GridCello,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::ClosedDeep,
        Kind::ClosedWide,
        Kind::ReplayCached,
        Kind::GridCello,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClosedDeep => "closed_deep",
            Kind::ClosedWide => "closed_wide",
            Kind::ReplayCached => "replay_cached",
            Kind::GridCello => "grid_cello",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How much simulated work one repetition does. `Full` is what the
/// benchmark measures and pins; `Short` is the self-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A seconds-long smoke size.
    Short,
}

/// One closed-loop configuration.
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    /// Engine configuration (its seed drives the request stream).
    pub cfg: EngineConfig,
    /// The Iometer request generator.
    pub spec: IometerSpec,
    /// Requests kept in flight.
    pub outstanding: usize,
    /// Completions per repetition.
    pub completions: u64,
}

/// One simulation of a repetition.
#[derive(Debug, Clone)]
pub enum Job {
    /// A closed loop.
    Closed(ClosedLoop),
    /// An open-loop replay of `Inputs::traces[trace]`.
    Replay {
        /// Engine configuration.
        cfg: EngineConfig,
        /// Index into [`Inputs::traces`].
        trace: usize,
    },
}

impl Job {
    /// The job's run-cache content address (see `mimd_harness::fp`).
    pub fn fingerprint(&self, traces: &[Trace]) -> u64 {
        match self {
            Job::Closed(c) => {
                mimd_harness::fp::closed_job(&c.cfg, &c.spec, c.outstanding, c.completions)
            }
            Job::Replay { cfg, trace } => mimd_harness::fp::trace_job(cfg, &traces[*trace]),
        }
    }

    /// The engine configuration of the job.
    pub fn cfg(&self) -> &EngineConfig {
        match self {
            Job::Closed(c) => &c.cfg,
            Job::Replay { cfg, .. } => cfg,
        }
    }
}

/// Everything a workload's repetitions read: its generated traces and the
/// jobs of one repetition.
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// The seed the inputs were made from.
    pub seed: u64,
    /// The repetition size.
    pub size: Size,
    /// Generated traces (none for closed loops).
    pub traces: Vec<Trace>,
    /// The simulations of one repetition, in report order.
    pub jobs: Vec<Job>,
}

/// The model-facing drive characteristics of the experiment drive.
pub fn drive_character() -> DiskCharacter {
    DiskCharacter::from_params(&DiskParams::st39133lwv())
}

impl Inputs {
    /// Generates the inputs of `kind` from `seed`. This is the trace
    /// generation half of set-up; the other half is the first
    /// `ArraySim::new`.
    pub fn generate(kind: Kind, seed: u64, size: Size) -> Inputs {
        let full = size == Size::Full;
        let (traces, jobs) = match kind {
            Kind::ClosedDeep => {
                let cfg = EngineConfig::new(Shape::sr_array(1, 3).expect("1x3 is a valid shape"))
                    .with_perfect_knowledge()
                    .with_seed(seed);
                let job = Job::Closed(ClosedLoop {
                    cfg,
                    spec: IometerSpec::microbench(CLOSED_DATA_SECTORS, 1.0),
                    outstanding: 256,
                    completions: if full { 200_000 } else { 4_000 },
                });
                (Vec::new(), vec![job])
            }
            Kind::ClosedWide => {
                let cfg = EngineConfig::new(Shape::raid10(1024).expect("1024 disks pair up"))
                    .with_perfect_knowledge()
                    .with_seed(seed);
                let job = Job::Closed(ClosedLoop {
                    cfg,
                    spec: IometerSpec::microbench(CLOSED_DATA_SECTORS, 1.0),
                    outstanding: 8 * 1024,
                    completions: if full { 100_000 } else { 12_000 },
                });
                (Vec::new(), vec![job])
            }
            Kind::ReplayCached => {
                let n = if full { 12_000 } else { 1_500 };
                let cfg = EngineConfig::new(Shape::sr_array(2, 3).expect("2x3 is a valid shape"))
                    .with_cache(CacheConfig {
                        bytes: 32 << 20,
                        hit_time: CACHE_HIT_TIME,
                    });
                (
                    generate_traces(kind, seed, n),
                    vec![Job::Replay { cfg, trace: 0 }],
                )
            }
            Kind::GridCello => {
                let n = if full { 20_000 } else { 1_000 };
                let disks: &[u32] = if full { &GRID_DISKS } else { &[1, 2, 6] };
                (generate_traces(kind, seed, n), grid_jobs(disks))
            }
        };
        Inputs {
            kind,
            seed,
            size,
            traces,
            jobs,
        }
    }

    /// A fresh simulator for job `idx`.
    pub fn sim_for(&self, idx: usize) -> ArraySim {
        new_sim(&self.jobs[idx], &self.traces)
    }

    /// Requests one repetition attempts.
    pub fn attempted(&self) -> u64 {
        self.jobs.iter().map(|j| self.job_requests(j)).sum()
    }

    /// Requests one job attempts.
    pub fn job_requests(&self, job: &Job) -> u64 {
        match job {
            Job::Closed(c) => c.completions,
            Job::Replay { trace, .. } => self.traces[*trace].len() as u64,
        }
    }

    /// Write requests one job submits; the closed loops only read.
    pub fn job_writes(&self, job: &Job) -> u64 {
        match job {
            Job::Closed(_) => 0,
            Job::Replay { trace, .. } => self.traces[*trace]
                .requests()
                .iter()
                .filter(|r| r.op.is_write())
                .count() as u64,
        }
    }
}

/// The trace generators of a workload and the seeds it gives them: Cello
/// base for `replay_cached`; Cello base and Cello disk 6 for the grid,
/// where seed 1 gives fig06's own trace seeds (101 and 102).
pub fn trace_specs(kind: Kind, seed: u64) -> Vec<(SyntheticSpec, u64)> {
    match kind {
        Kind::ClosedDeep | Kind::ClosedWide => Vec::new(),
        Kind::ReplayCached => vec![(SyntheticSpec::cello_base(), seed)],
        Kind::GridCello => {
            let base = seed.wrapping_mul(2).wrapping_add(99);
            vec![
                (SyntheticSpec::cello_base(), base),
                (SyntheticSpec::cello_disk6(), base.wrapping_add(1)),
            ]
        }
    }
}

fn generate_traces(kind: Kind, seed: u64, n: usize) -> Vec<Trace> {
    trace_specs(kind, seed)
        .into_iter()
        .map(|(spec, s)| spec.generate(s, n))
        .collect()
}

/// fig06's job list: per panel and disk count, the model-configured
/// SR-Array, striping, RAID-10 where the count is even, and a mirror for
/// more than one disk.
fn grid_jobs(disks: &[u32]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (trace, locality) in GRID_LOCALITIES.iter().enumerate() {
        let character = drive_character().with_locality(*locality);
        for &d in disks {
            let mut push = |shape: Shape| {
                jobs.push(Job::Replay {
                    cfg: EngineConfig::new(shape),
                    trace,
                })
            };
            push(recommend_latency_shape(&character, d, 1.0));
            push(Shape::striping(d));
            if let Some(s) = Shape::raid10(d) {
                push(s);
            }
            if d > 1 {
                push(Shape::mirror(d));
            }
        }
    }
    jobs
}

fn data_sectors(job: &Job, traces: &[Trace]) -> u64 {
    match job {
        Job::Closed(c) => c.spec.data_sectors,
        Job::Replay { trace, .. } => traces[*trace].data_sectors,
    }
}

fn new_sim(job: &Job, traces: &[Trace]) -> ArraySim {
    ArraySim::new(job.cfg().clone(), data_sectors(job, traces))
        .expect("benchmark shapes fit their data sets")
}

/// What one simulation of a repetition produced, with its host costs.
pub struct JobRun {
    /// The engine's report.
    pub report: RunReport,
    /// Events the engine popped.
    pub events: u64,
    /// Host ns spent in `ArraySim::new`.
    pub new_ns: u64,
    /// Host ns of the whole job.
    pub job_ns: u64,
}

/// One repetition's results.
pub struct Rep {
    /// Per-job results, in job order.
    pub runs: Vec<JobRun>,
    /// Host wall time of the repetition.
    pub wall_ns: u64,
    /// Pool workers the repetition used.
    pub workers: usize,
}

fn run_job(job: &Job, traces: &[Trace], cache: &RunCache) -> JobRun {
    let start = Instant::now();
    let fp = job.fingerprint(traces);
    let mut new_ns = 0;
    let mut events = 0;
    let report = cache.get_or_run(fp, || {
        let t = Instant::now();
        let mut sim = new_sim(job, traces);
        new_ns = elapsed_ns(t);
        let report = match job {
            Job::Closed(c) => sim.run_closed_loop(&c.spec, c.outstanding, c.completions),
            Job::Replay { trace, .. } => sim.run_trace(&traces[*trace]),
        };
        events = sim.last_run_events();
        report
    });
    JobRun {
        report,
        events,
        new_ns,
        job_ns: elapsed_ns(start),
    }
}

/// Host nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one repetition: every job of `inputs` on fresh simulators. The grid
/// fans its cells over the harness pool (at most one worker per core); the
/// other workloads run their single job on the calling thread.
pub fn run_rep(inputs: &Inputs) -> Rep {
    let cache = RunCache::disabled();
    let start = Instant::now();
    let workers = if inputs.kind == Kind::GridCello {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(inputs.jobs.len())
    } else {
        1
    };
    let runs = mimd_harness::parallel_map_with(workers, inputs.jobs.clone(), |job| {
        run_job(job, &inputs.traces, &cache)
    });
    Rep {
        runs,
        wall_ns: elapsed_ns(start),
        workers,
    }
}

/// A repetition's simulated results pooled over its jobs.
pub struct Pooled {
    /// Logical requests completed.
    pub completed: u64,
    /// Requests that lost every copy.
    pub failed_requests: u64,
    /// Physical disk operations.
    pub phys_requests: u64,
    /// Visible response times.
    pub response: OnlineStats,
    /// Visible response samples, for percentiles.
    pub samples: SampleSet,
    /// Sum of the jobs' simulated spans (s).
    pub sim_secs: f64,
    /// Seek, rotation, transfer and queue-wait components (ms).
    pub seek: OnlineStats,
    /// Rotational component (ms).
    pub rotation: OnlineStats,
    /// Transfer component (ms).
    pub transfer: OnlineStats,
    /// Queueing delay (ms).
    pub queue_wait: OnlineStats,
    /// Rotational-prediction misses and measured physical requests.
    pub prediction_misses: u64,
    /// Physical requests whose prediction was measured.
    pub prediction_requests: u64,
    /// Delayed replica writes propagated.
    pub delayed_propagated: u64,
    /// Delayed writes coalesced away.
    pub delayed_coalesced: u64,
    /// Largest NVRAM occupancy of any job.
    pub nvram_peak: usize,
    /// Memory-cache hits and misses.
    pub cache_hits: u64,
    /// Memory-cache misses.
    pub cache_misses: u64,
    /// Engine events popped.
    pub events: u64,
}

impl Pooled {
    /// Pools the runs of one repetition.
    pub fn of(runs: &[JobRun]) -> Pooled {
        let mut p = Pooled {
            completed: 0,
            failed_requests: 0,
            phys_requests: 0,
            response: OnlineStats::new(),
            samples: SampleSet::new(),
            sim_secs: 0.0,
            seek: OnlineStats::new(),
            rotation: OnlineStats::new(),
            transfer: OnlineStats::new(),
            queue_wait: OnlineStats::new(),
            prediction_misses: 0,
            prediction_requests: 0,
            delayed_propagated: 0,
            delayed_coalesced: 0,
            nvram_peak: 0,
            cache_hits: 0,
            cache_misses: 0,
            events: 0,
        };
        for run in runs {
            let r = &run.report;
            p.completed += r.completed;
            p.failed_requests += r.failed_requests;
            p.phys_requests += r.phys_requests;
            p.response.merge(&r.response_ms);
            for &v in r.response_samples_ms.values() {
                p.samples.push(v);
            }
            p.sim_secs += r.sim_time.as_secs_f64();
            p.seek.merge(&r.seek_ms);
            p.rotation.merge(&r.rotation_ms);
            p.transfer.merge(&r.transfer_ms);
            p.queue_wait.merge(&r.queue_wait_ms);
            p.prediction_misses += r.prediction.misses;
            p.prediction_requests += r.prediction.requests;
            p.delayed_propagated += r.delayed_propagated;
            p.delayed_coalesced += r.delayed_coalesced;
            p.nvram_peak = p.nvram_peak.max(r.nvram_peak);
            p.cache_hits += r.cache_hits;
            p.cache_misses += r.cache_misses;
            p.events += run.events;
        }
        p
    }

    /// Completions per simulated second, over the jobs' summed spans.
    pub fn sim_iops(&self) -> f64 {
        if self.sim_secs > 0.0 {
            self.completed as f64 / self.sim_secs
        } else {
            0.0
        }
    }

    /// The 99th-percentile visible response (ms).
    pub fn p99_ms(&mut self) -> f64 {
        self.samples.percentile(0.99).unwrap_or(0.0)
    }
}
