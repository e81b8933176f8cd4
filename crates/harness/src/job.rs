//! Experiment jobs: one simulator configuration plus its workload.
//!
//! An experiment enumerates every [`Job`] up front, fans the list out with
//! [`run_jobs`], and consumes the reports in the same order. Each job runs
//! one private [`ArraySim`] on a pool worker; results merge back in job
//! order, so output bytes do not depend on the worker count.

use mimd_core::{ArraySim, EngineConfig, RunReport};
use mimd_workload::{IometerSpec, Trace};

use crate::cache::RunCache;
use crate::fp;
use crate::json::Json;
use crate::pool::{configured_threads, engine_threads, parallel_map_with};

/// One simulation to run: a fully-formed config plus its workload.
pub enum Job<'a> {
    /// Open-loop replay of a trace.
    Trace {
        /// Engine configuration for this run.
        cfg: EngineConfig,
        /// The trace to replay (shared, not cloned per job).
        trace: &'a Trace,
    },
    /// Iometer-style closed loop.
    Closed {
        /// Engine configuration for this run.
        cfg: EngineConfig,
        /// Request generator; its `data_sectors` sizes the layout.
        spec: IometerSpec,
        /// Requests kept in flight.
        outstanding: usize,
        /// Completions to measure.
        completions: u64,
    },
}

impl<'a> Job<'a> {
    /// An open-loop trace-replay job.
    pub fn trace(cfg: EngineConfig, trace: &'a Trace) -> Job<'a> {
        Job::Trace { cfg, trace }
    }

    /// A closed-loop job; the layout is sized from `spec.data_sectors`.
    pub fn closed(
        cfg: EngineConfig,
        spec: IometerSpec,
        outstanding: usize,
        completions: u64,
    ) -> Job<'a> {
        Job::Closed {
            cfg,
            spec,
            outstanding,
            completions,
        }
    }

    /// Runs the job on a fresh array, bypassing the run cache. The engine
    /// shards across [`engine_threads`] workers.
    ///
    /// # Panics
    ///
    /// Panics if the layout is infeasible (the experiment chose a bad shape).
    pub fn run(&self) -> RunReport {
        let (cfg, data_sectors) = match self {
            Job::Trace { cfg, trace } => (cfg, trace.data_sectors),
            Job::Closed { cfg, spec, .. } => (cfg, spec.data_sectors),
        };
        let mut sim = ArraySim::new(cfg.clone(), data_sectors)
            .expect("experiment shape must fit the data set");
        sim.set_parallelism(engine_threads());
        match self {
            Job::Trace { trace, .. } => sim.run_trace(trace),
            Job::Closed {
                spec,
                outstanding,
                completions,
                ..
            } => sim.run_closed_loop(spec, *outstanding, *completions),
        }
    }

    /// The job's content address for the run cache: resolved config plus
    /// workload content (see [`fp`]).
    fn fingerprint(&self) -> u64 {
        match self {
            Job::Trace { cfg, trace } => fp::trace_job(cfg, trace),
            Job::Closed {
                cfg,
                spec,
                outstanding,
                completions,
            } => fp::closed_job(cfg, spec, *outstanding, *completions),
        }
    }
}

/// Runs every job on `threads` pool workers through `cache` and returns
/// the reports in job order. Every entry the run stored is on disk by the
/// time this returns.
pub fn run_jobs_on(threads: usize, cache: &RunCache, jobs: Vec<Job<'_>>) -> Vec<RunReport> {
    let reports = parallel_map_with(threads, jobs, |job| {
        cache.get_or_run(job.fingerprint(), || job.run())
    });
    cache.flush();
    reports
}

/// Runs every job on [`configured_threads`] workers (`MIMD_THREADS`,
/// defaulting to the machine's parallelism) and returns the reports in
/// job order.
///
/// Jobs are memoized through the environment-configured [`RunCache`]: an
/// unchanged job on unchanged code decodes its stored report instead of
/// simulating. The binary's hit/miss tally is printed once per call.
/// `MIMD_NO_CACHE=1` forces cold runs.
pub fn run_jobs(jobs: Vec<Job<'_>>) -> Vec<RunReport> {
    let cache = RunCache::from_env();
    let reports = run_jobs_on(configured_threads(), &cache, jobs);
    cache.report_summary(&binary_name());
    reports
}

/// The running binary's file stem, for cache-summary labels.
fn binary_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .map(std::path::Path::new)
        .and_then(|p| p.file_stem()?.to_str().map(str::to_owned))
        .unwrap_or_else(|| "bench".to_string())
}

/// The machine-readable core of a [`RunReport`].
///
/// The `faults` object only appears for runs driven by a non-empty
/// `FaultPlan` (`r.faults.active`): fault-free output stays byte-identical
/// to builds that predate the fault layer.
pub fn report_json(r: &mut RunReport) -> Json {
    let p95 = r.response_percentile_ms(0.95);
    let p99 = r.response_percentile_ms(0.99);
    let mut j = Json::object([
        ("completed", Json::from(r.completed)),
        ("sim_time_ms", Json::from(r.sim_time.as_millis_f64())),
        ("mean_response_ms", Json::from(r.mean_response_ms())),
        ("p95_response_ms", p95.map(Json::from).unwrap_or(Json::Null)),
        ("p99_response_ms", p99.map(Json::from).unwrap_or(Json::Null)),
        ("throughput_iops", Json::from(r.throughput_iops())),
        ("read_mean_ms", Json::from(r.read_ms.mean())),
        ("write_mean_ms", Json::from(r.write_ms.mean())),
        ("phys_requests", Json::from(r.phys_requests)),
        ("delayed_propagated", Json::from(r.delayed_propagated)),
        ("delayed_coalesced", Json::from(r.delayed_coalesced)),
        ("nvram_peak", Json::from(r.nvram_peak)),
        ("failed_requests", Json::from(r.failed_requests)),
        ("prediction_miss_rate", Json::from(r.prediction.miss_rate())),
        ("seek_mean_ms", Json::from(r.seek_ms.mean())),
        ("rotation_mean_ms", Json::from(r.rotation_ms.mean())),
        ("transfer_mean_ms", Json::from(r.transfer_ms.mean())),
        ("queue_wait_mean_ms", Json::from(r.queue_wait_ms.mean())),
    ]);
    if r.faults.active {
        let f = &mut r.faults;
        let window = |s: &mut mimd_sim::SampleSet| {
            Json::object([
                ("completed", Json::from(s.len() as u64)),
                ("mean_ms", Json::from(s.mean())),
                (
                    "p95_ms",
                    s.percentile(0.95).map(Json::from).unwrap_or(Json::Null),
                ),
                (
                    "p99_ms",
                    s.percentile(0.99).map(Json::from).unwrap_or(Json::Null),
                ),
            ])
        };
        let faults = Json::object([
            ("retries", Json::from(f.retries)),
            ("redirects", Json::from(f.redirects)),
            ("timeouts", Json::from(f.timeouts)),
            ("media_errors", Json::from(f.media_errors)),
            ("unrecoverable", Json::from(f.unrecoverable)),
            ("rebuild_chunks", Json::from(f.rebuild_chunks)),
            ("rebuilds_completed", Json::from(f.rebuilds_completed)),
            (
                "rebuild_duration_ms",
                Json::from(f.rebuild_duration.as_millis_f64()),
            ),
            ("healthy", window(&mut f.healthy_ms)),
            ("degraded", window(&mut f.degraded_ms)),
            ("rebuilding", window(&mut f.rebuilding_ms)),
        ]);
        j.push_field("faults", faults);
    }
    // Parity (RAID 4/5) counters appear only when a parity path actually
    // ran — healthy RMWs tally here even with an empty fault plan, and
    // non-parity output stays byte-identical to pre-parity builds.
    let pf = &r.faults;
    if pf.degraded_reads + pf.rmw_updates + pf.reconstruction_chunks > 0 {
        let parity = Json::object([
            ("degraded_reads", Json::from(pf.degraded_reads)),
            ("rmw_updates", Json::from(pf.rmw_updates)),
            (
                "reconstruction_chunks",
                Json::from(pf.reconstruction_chunks),
            ),
        ]);
        j.push_field("parity", parity);
    }
    // The determinism witness is opt-in (MIMD_WITNESS_JSON=1): the golden
    // md5 sums over figure JSON predate the field, so emitting it by
    // default would change every gated byte stream. The CI witness gate
    // sets the variable and diffs the values across thread counts.
    if std::env::var_os("MIMD_WITNESS_JSON").is_some_and(|v| v == "1") {
        j.push_field("witness", Json::from(format!("{:016x}", r.witness)));
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::{Policy, Shape};
    use mimd_workload::SyntheticSpec;

    #[test]
    fn mixed_jobs_report_in_order_with_identical_bytes_at_any_thread_count() {
        let trace = SyntheticSpec::cello_base().generate(7, 200);
        let data = 4 * 1024 * 1024; // sectors
        let jobs = || {
            let mut jobs = Vec::new();
            for shape in [Shape::striping(2), Shape::new(1, 2, 1).unwrap()] {
                for seed in [42, 43] {
                    jobs.push(Job::trace(EngineConfig::new(shape).with_seed(seed), &trace));
                }
            }
            let cfg = EngineConfig::new(Shape::striping(2))
                .with_seed(1)
                .with_policy(Policy::Satf);
            // A closed-loop job between the trace jobs.
            jobs.insert(
                1,
                Job::closed(cfg, IometerSpec::random_read_512(data), 4, 100),
            );
            jobs
        };
        let bytes = |reports: Vec<RunReport>| -> Vec<String> {
            reports
                .into_iter()
                .map(|mut r| report_json(&mut r).to_json())
                .collect()
        };
        // Job order: the fanned-out reports line up with running each
        // job alone, in list order.
        let alone = bytes(jobs().iter().map(Job::run).collect());
        assert!(alone[1].contains(r#""completed":100,"#), "{}", alone[1]);
        assert!(alone[0].contains(r#""completed":200,"#), "{}", alone[0]);
        for threads in [1, 2, 4, 8] {
            let got = bytes(run_jobs_on(threads, &RunCache::disabled(), jobs()));
            assert_eq!(got, alone, "threads = {threads}");
        }
    }
}
