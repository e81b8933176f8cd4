//! Run results: the numbers every experiment binary prints.

use mimd_sim::{demerit, OnlineStats, SampleSet, SimDuration};

/// Prediction-accuracy statistics (the rows of Table 2).
#[derive(Debug, Clone, Default)]
pub struct PredictionStats {
    /// Physical requests whose rotational prediction missed and paid a full
    /// extra revolution.
    pub misses: u64,
    /// Physical requests measured.
    pub requests: u64,
    /// Signed prediction error samples in microseconds
    /// (actual − predicted access time).
    pub error: OnlineStats,
    /// Predicted access times (µs), one per physical operation; empty
    /// unless the run opted in with `EngineConfig::prediction_samples`.
    pub predicted_us: SampleSet,
    /// Measured access times (µs), one per physical operation; empty
    /// unless the run opted in with `EngineConfig::prediction_samples`.
    pub actual_us: SampleSet,
}

impl PredictionStats {
    /// Miss rate over all measured physical requests.
    pub fn miss_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.misses as f64 / self.requests as f64
        }
    }

    /// The Ruemmler–Wilkes demerit figure between predicted and measured
    /// access-time distributions, in microseconds; `None` when no samples
    /// were recorded.
    pub fn demerit_us(&mut self) -> Option<f64> {
        if self.predicted_us.is_empty() || self.actual_us.is_empty() {
            return None;
        }
        Some(demerit(&mut self.predicted_us, &mut self.actual_us))
    }

    /// Mean measured access time in microseconds; `None` when no samples
    /// were recorded.
    pub fn avg_access_us(&self) -> Option<f64> {
        (!self.actual_us.is_empty()).then(|| self.actual_us.mean())
    }
}

/// Degraded-mode observability: what the fault layer did to this run.
///
/// `active` distinguishes "no faults were configured" from "faults were
/// configured but nothing fired" — the harness only emits the `faults`
/// JSON object when it is set, which is what keeps fault-free figure
/// output byte-identical to builds that predate the fault layer.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// A non-empty `FaultPlan` drove this run.
    pub active: bool,
    /// Physical operations re-issued (alternate replica or same disk).
    pub retries: u64,
    /// Reads steered away from a fail-slow disk at dispatch time.
    pub redirects: u64,
    /// Simulated-time timeouts that fired on a still-pending task.
    pub timeouts: u64,
    /// Transient media errors injected on completing operations.
    pub media_errors: u64,
    /// Logical requests that exhausted every retry and were failed.
    pub unrecoverable: u64,
    /// Copy chunks written to a hot spare during rebuild.
    pub rebuild_chunks: u64,
    /// Hot-spare rebuilds that ran to completion.
    pub rebuilds_completed: u64,
    /// Wall-clock (simulated) duration of the last completed rebuild.
    pub rebuild_duration: SimDuration,
    /// Parity organizations: reads served by reconstructing the lost
    /// block from the group's `G−1` survivors.
    pub degraded_reads: u64,
    /// Parity organizations: small-write read–modify–write sequences
    /// issued against a fully healthy group.
    pub rmw_updates: u64,
    /// Parity organizations: rebuild chunks reconstructed onto the hot
    /// spare by XOR-ing all survivors (the parity twin of
    /// `rebuild_chunks`).
    pub reconstruction_chunks: u64,
    /// Visible response times (ms) completed while the array was healthy.
    pub healthy_ms: SampleSet,
    /// Visible response times (ms) completed while degraded (a disk dead
    /// or inside a fail-slow window), but not rebuilding.
    pub degraded_ms: SampleSet,
    /// Visible response times (ms) completed while a rebuild was running.
    pub rebuilding_ms: SampleSet,
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Logical requests completed.
    pub completed: u64,
    /// Instant of the last visible completion.
    pub sim_time: SimDuration,
    /// Response times of latency-visible requests (ms).
    pub response_ms: OnlineStats,
    /// Response-time samples (ms) for percentiles.
    pub response_samples_ms: SampleSet,
    /// Read responses (ms).
    pub read_ms: OnlineStats,
    /// Synchronous-write responses (ms).
    pub write_ms: OnlineStats,
    /// Physical disk operations issued (including delayed propagation).
    pub phys_requests: u64,
    /// Delayed replica writes propagated in the background.
    pub delayed_propagated: u64,
    /// Delayed writes coalesced away by newer writes to the same block.
    pub delayed_coalesced: u64,
    /// Peak NVRAM delayed-write table occupancy.
    pub nvram_peak: usize,
    /// Cache hits (when a memory cache is configured).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Requests that lost every copy to disk failures.
    pub failed_requests: u64,
    /// Head-position prediction accuracy.
    pub prediction: PredictionStats,
    /// Seek component of foreground physical operations (ms).
    pub seek_ms: OnlineStats,
    /// Rotational component of foreground physical operations (ms).
    pub rotation_ms: OnlineStats,
    /// Transfer component of foreground physical operations (ms).
    pub transfer_ms: OnlineStats,
    /// Queueing delay between enqueue and service start (ms).
    pub queue_wait_ms: OnlineStats,
    /// Fault-injection and recovery observability (all-zero when the run
    /// had an empty `FaultPlan`).
    pub faults: FaultReport,
    /// Determinism witness: an order-sensitive FNV-1a digest of every
    /// event pop the run made (`(time, seq, disk, kind)` records). Two
    /// runs of the same experiment must produce the same value at any
    /// thread count; CI asserts this across `MIMD_THREADS=1` and `=8`.
    pub witness: u64,
}

impl RunReport {
    /// Mean visible response time in milliseconds.
    pub fn mean_response_ms(&self) -> f64 {
        self.response_ms.mean()
    }

    /// Completed requests per second of simulated time.
    pub fn throughput_iops(&self) -> f64 {
        let secs = self.sim_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// The p-th response-time percentile in milliseconds.
    pub fn response_percentile_ms(&mut self, p: f64) -> Option<f64> {
        self.response_samples_ms.percentile(p)
    }

    /// Folds one shard's dispatch-level accounting into the array-level
    /// report: physical-operation counters, delayed-write counters and
    /// NVRAM peaks, the per-operation timing/prediction statistics, and
    /// the fault counters. Always applied in shard order, so the
    /// floating-point folds are independent of how shards were packed onto
    /// worker threads.
    pub(crate) fn merge_dispatch(&mut self, other: &RunReport) {
        self.phys_requests += other.phys_requests;
        self.delayed_propagated += other.delayed_propagated;
        self.delayed_coalesced += other.delayed_coalesced;
        // Each shard's peak of its own NVRAM budget; the sum bounds the
        // table's simultaneous occupancy from above.
        self.nvram_peak += other.nvram_peak;
        self.prediction.misses += other.prediction.misses;
        self.prediction.requests += other.prediction.requests;
        self.prediction.error.merge(&other.prediction.error);
        let (p, o) = (&mut self.prediction, &other.prediction);
        p.predicted_us.extend_from_slice(o.predicted_us.values());
        p.actual_us.extend_from_slice(o.actual_us.values());
        self.seek_ms.merge(&other.seek_ms);
        self.rotation_ms.merge(&other.rotation_ms);
        self.transfer_ms.merge(&other.transfer_ms);
        self.queue_wait_ms.merge(&other.queue_wait_ms);
        // Fault counters sum; `rebuild_duration` keeps the longest
        // rebuild. The health-classified response sets are not merged:
        // completions are classified at the conductor, the only place the
        // whole array's health is known.
        let (f, o) = (&mut self.faults, &other.faults);
        f.retries += o.retries;
        f.redirects += o.redirects;
        f.timeouts += o.timeouts;
        f.media_errors += o.media_errors;
        f.unrecoverable += o.unrecoverable;
        f.rebuild_chunks += o.rebuild_chunks;
        f.rebuilds_completed += o.rebuilds_completed;
        f.rebuild_duration = f.rebuild_duration.max(o.rebuild_duration);
        f.degraded_reads += o.degraded_reads;
        f.rmw_updates += o.rmw_updates;
        f.reconstruction_chunks += o.reconstruction_chunks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_zeroed() {
        let mut r = RunReport::default();
        assert_eq!(r.mean_response_ms(), 0.0);
        assert_eq!(r.throughput_iops(), 0.0);
        assert_eq!(r.response_percentile_ms(0.5), None);
        assert_eq!(r.prediction.miss_rate(), 0.0);
    }

    #[test]
    fn throughput_divides_by_time() {
        let r = RunReport {
            completed: 500,
            sim_time: SimDuration::from_secs(10),
            ..Default::default()
        };
        assert!((r.throughput_iops() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn prediction_stats_aggregate() {
        let mut p = PredictionStats::default();
        for i in 0..100 {
            p.requests += 1;
            p.error.push(3.0);
            p.predicted_us.push(1_000.0 + i as f64);
            p.actual_us.push(1_003.0 + i as f64);
        }
        p.misses = 1;
        assert!((p.miss_rate() - 0.01).abs() < 1e-12);
        assert!((p.error.mean() - 3.0).abs() < 1e-12);
        let d = p.demerit_us().expect("samples were recorded");
        assert!((d - 3.0).abs() < 1e-9, "demerit {d}");
        assert!((p.avg_access_us().unwrap() - 1_052.5).abs() < 1e-9);
    }

    #[test]
    fn prediction_stats_without_samples_have_no_demerit() {
        let mut p = PredictionStats {
            requests: 10,
            ..Default::default()
        };
        p.error.push(3.0);
        assert_eq!(p.demerit_us(), None);
        assert_eq!(p.avg_access_us(), None);
    }
}
