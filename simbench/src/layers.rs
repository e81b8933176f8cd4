//! The traced run's layer replays.
//!
//! Each replay drives one layer's public API with the workload's own
//! inputs — the same requests, passed through the workload's `Layout`, at
//! its per-disk queue depth, cache size and event-wheel horizon — and
//! records every call as a span. Per-call metrics are the median span
//! duration; ratios come from counts taken at the same calls.

use mimd_core::engine::cache::LruCache;
use mimd_core::models::recommend_latency_shape;
use mimd_core::sched::{LookState, Schedulable};
use mimd_core::{DriveQueue, Layout};
use mimd_disk::{SeekProfile, SimDisk, Target};
use mimd_sim::{EventQueue, SimDuration, SimRng, SimTime};
use mimd_workload::Op;

use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{
    drive_character, trace_specs, Inputs, Job, Kind, Pooled, Rep, GRID_DISKS, GRID_LOCALITIES,
};

/// Requests each replay drives (fewer if the workload has fewer).
const REPLAY_REQUESTS: usize = 5_000;

/// The engine's scheduling window (`SCHED_WINDOW` in the engine, which is
/// crate-private): picks examine at most this many queued entries. A
/// self-test fails when the two differ.
const SCHED_WINDOW: usize = 128;

/// One queued request as the scheduler sees it.
#[derive(Clone)]
struct Entry {
    targets: Vec<Target>,
    write: bool,
    at: SimTime,
}

impl Schedulable for Entry {
    fn candidates(&self) -> &[Target] {
        &self.targets
    }
    fn is_write(&self) -> bool {
        self.write
    }
    fn enqueued(&self) -> SimTime {
        self.at
    }
}

/// A replayed request: `(op, lbn, sectors)`.
type Req = (Op, u64, u32);

/// The job whose layout, queue and disk the replays use: the only job, or
/// for the grid its headline cell (the D = 6 SR-Array on Cello base).
fn replay_job(inputs: &Inputs) -> usize {
    if inputs.kind != Kind::GridCello {
        return 0;
    }
    inputs
        .jobs
        .iter()
        .position(|j| j.cfg().shape.disks() == 6)
        .unwrap_or(0)
}

/// The replayed request stream, drawn exactly as the engine draws it, with
/// its generation recorded as `workload.generate` spans (one per batch, so
/// the metric divides by the batch's requests).
fn requests(inputs: &Inputs, job: &Job, spans: &mut Spans) -> (Vec<Req>, Vec<f64>) {
    match job {
        Job::Closed(c) => {
            let n = REPLAY_REQUESTS.min(c.completions as usize);
            let mut rng = SimRng::named(c.cfg.seed, "engine");
            let reqs: Vec<Req> = spans.time("workload.generate", || {
                (0..n as u64).map(|i| c.spec.next_at(&mut rng, i)).collect()
            });
            let per = spans.durations("workload.generate");
            (reqs, per.iter().map(|ns| ns / n as f64).collect())
        }
        Job::Replay { trace, .. } => {
            let t = &inputs.traces[*trace];
            let reqs = t
                .requests()
                .iter()
                .take(REPLAY_REQUESTS)
                .map(|r| (r.op, r.lbn, r.sectors))
                .collect();
            let mut per = Vec::new();
            for (spec, seed) in trace_specs(inputs.kind, inputs.seed) {
                let n = t.len();
                let g = spans.time("workload.generate", || spec.generate(seed, n));
                std::hint::black_box(g);
                let ns = *spans.durations("workload.generate").last().unwrap_or(&0.0);
                per.push(ns / n.max(1) as f64);
            }
            (reqs, per)
        }
    }
}

/// The candidates one request offers the first disk that holds it.
fn entry_of(layout: &Layout, req: Req, frags: &mut Vec<(mimd_core::Fragment, bool)>) -> Entry {
    let (op, lbn, sectors) = req;
    frags.clear();
    layout.plan_request(op.is_write(), lbn, sectors, frags);
    let frag = frags[0].0;
    let reps = if op.is_write() {
        let mut out = Vec::new();
        layout.write_groups_into(frag, &mut out);
        out
    } else {
        layout.read_candidates(frag)
    };
    let disk = reps[0].disk;
    Entry {
        targets: reps
            .iter()
            .filter(|r| r.disk == disk)
            .map(|r| r.target)
            .collect(),
        write: op.is_write(),
        at: SimTime::ZERO,
    }
}

/// Mean queued requests per disk by Little's law over the repetition:
/// physical operations per disk-second times the mean queueing delay.
fn per_disk_depth(inputs: &Inputs, rep: &Rep) -> usize {
    let mut disk_secs = 0.0;
    let mut phys = 0u64;
    let mut wait = mimd_sim::OnlineStats::new();
    for (run, job) in rep.runs.iter().zip(&inputs.jobs) {
        disk_secs += run.report.sim_time.as_secs_f64() * job.cfg().shape.disks() as f64;
        phys += run.report.phys_requests;
        wait.merge(&run.report.queue_wait_ms);
    }
    let rate = if disk_secs > 0.0 {
        phys as f64 / disk_secs
    } else {
        0.0
    };
    ((rate * wait.mean() / 1_000.0).round() as usize).clamp(1, 1_024)
}

/// Per-layer metrics of the replays, as `(name, value, unit)`.
pub fn replay(
    inputs: &Inputs,
    rep: &Rep,
    spans: &mut Spans,
) -> Vec<(&'static str, f64, &'static str)> {
    let job_idx = replay_job(inputs);
    let job = &inputs.jobs[job_idx];
    let cfg = job.cfg();
    let layout = inputs.sim_for(job_idx).layout().clone();
    let (reqs, gen_per_req) = requests(inputs, job, spans);
    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();

    // layout: plan every replayed request.
    let mut frags = Vec::new();
    let mut fragments = 0usize;
    for &(op, lbn, sectors) in &reqs {
        frags.clear();
        spans.time("layout.plan", || {
            layout.plan_request(op.is_write(), lbn, sectors, &mut frags)
        });
        fragments += frags.len();
    }
    m.push((
        "layout.plan_ns",
        median(&spans.durations("layout.plan")),
        "ns",
    ));
    m.push((
        "layout.fragments_per_request",
        fragments as f64 / reqs.len().max(1) as f64,
        "count",
    ));

    // dqueue/sched and the disk's service kernel: hold one drive queue at
    // the workload's per-disk depth; each step picks, removes, serves and
    // refills.
    let entries: Vec<Entry> = reqs
        .iter()
        .map(|&r| entry_of(&layout, r, &mut frags))
        .collect();
    let depth = per_disk_depth(inputs, rep)
        .min(entries.len().saturating_sub(1))
        .max(1);
    let mut disk = SimDisk::new(&cfg.disk_params, cfg.timing, cfg.knowledge, inputs.seed)
        .expect("the experiment drive fits");
    let mut dq: DriveQueue<Entry> = DriveQueue::new(cfg.policy);
    let mut look = LookState::default();
    let mut now = SimTime::ZERO;
    let mut services: Vec<SimDuration> = Vec::with_capacity(entries.len());
    let mut pending = entries.iter().cloned();
    for e in pending.by_ref().take(depth) {
        spans.time("dqueue.insert", || dq.insert(&disk, e));
    }
    for mut next in pending {
        let (id, cand) = spans
            .time("dqueue.pick", || {
                dq.pick(&disk, now, &mut look, cfg.slack, SCHED_WINDOW)
            })
            .expect("the queue is never empty here");
        let e = spans
            .time("dqueue.remove", || dq.remove(id))
            .expect("a picked id is live");
        let b = disk.begin(now, &e.targets[cand], e.write);
        services.push(b.total());
        now += b.total();
        next.at = now;
        spans.time("dqueue.insert", || dq.insert(&disk, next));
    }
    for (name, span) in [
        ("dqueue.insert_ns", "dqueue.insert"),
        ("dqueue.pick_ns", "dqueue.pick"),
        ("dqueue.remove_ns", "dqueue.remove"),
    ] {
        m.push((name, median(&spans.durations(span)), "ns"));
    }

    // diskmodel: the scheduler's cost kernel over every candidate, and the
    // cold seek-curve fit.
    let probe = SimDisk::new(&cfg.disk_params, cfg.timing, cfg.knowledge, inputs.seed)
        .expect("the experiment drive fits");
    let mut t = SimTime::ZERO;
    for e in &entries {
        for target in &e.targets {
            spans.time("diskmodel.cost", || {
                std::hint::black_box(probe.sched_cost_ns(t, target, e.write))
            });
        }
        t += SimDuration::from_micros(137);
    }
    m.push((
        "diskmodel.cost_ns",
        median(&spans.durations("diskmodel.cost")),
        "ns",
    ));
    for _ in 0..3 {
        spans.time("diskmodel.seek_fit", || {
            SeekProfile::fit_uncached(&cfg.disk_params).expect("the drive's seek curve fits")
        });
    }
    m.push((
        "diskmodel.seek_fit_ms",
        median(&spans.durations("diskmodel.seek_fit")) / 1e6,
        "ms",
    ));

    // simcore: the event wheel at the engine's horizon, holding one pending
    // completion per disk of a shard; and the report's percentile.
    let mut q: EventQueue<u32> = EventQueue::with_horizon_ns(4 * disk.rotation_ns());
    let hold = layout.disks_per_group().max(1);
    for (i, s) in services.iter().take(hold).enumerate() {
        q.push(SimTime::ZERO + *s, i as u32);
    }
    for s in services.iter().skip(hold) {
        spans.time("simcore.event_push_pop", || {
            let (at, ev) = q.pop().expect("the wheel holds events");
            q.push(at + *s, ev);
        });
    }
    m.push((
        "simcore.event_push_pop_ns",
        median(&spans.durations("simcore.event_push_pop")),
        "ns",
    ));
    let pooled = Pooled::of(&rep.runs);
    for _ in 0..5 {
        let mut samples = pooled.samples.clone();
        spans.time("simcore.percentile", || samples.percentile(0.99));
    }
    m.push((
        "simcore.percentile_ms",
        median(&spans.durations("simcore.percentile")) / 1e6,
        "ms",
    ));

    // engine::cache: the workload's cache size (zero when it has none) fed
    // the engine's access pattern — reads look up and fill on a miss,
    // writes fill.
    let cache_bytes = cfg.cache.map_or(0, |c| c.bytes);
    let mut cache = LruCache::new(cache_bytes);
    let mut full_at = 0usize;
    let stream: Vec<Req> = match job {
        Job::Replay { trace, .. } => inputs.traces[*trace]
            .requests()
            .iter()
            .map(|r| (r.op, r.lbn, r.sectors))
            .collect(),
        Job::Closed(_) => reqs.clone(),
    };
    for (i, &(op, lbn, sectors)) in stream.iter().enumerate() {
        let hit = op == Op::Read && spans.time("cache.lookup", || cache.lookup_range(lbn, sectors));
        if !hit {
            spans.time("cache.insert", || cache.insert_range(lbn, sectors));
        }
        if full_at == 0 && cache.capacity_blocks() > 0 && cache.len() >= cache.capacity_blocks() {
            full_at = i + 1;
        }
    }
    m.push((
        "cache.lookup_ns",
        median(&spans.durations("cache.lookup")),
        "ns",
    ));
    m.push((
        "cache.insert_ns",
        median(&spans.durations("cache.insert")),
        "ns",
    ));
    let lookups = pooled.cache_hits + pooled.cache_misses;
    m.push((
        "cache.hit_ratio",
        ratio(pooled.cache_hits as f64, lookups as f64),
        "frac",
    ));
    m.push(("cache.full_at_request", full_at as f64, "count"));

    m.push((
        "workload.generate_ns_per_request",
        median(&gen_per_req),
        "ns",
    ));

    // models: the optimizer's shape recommendation at the workload's
    // locality, over fig06's disk counts.
    let localities: Vec<f64> = match inputs.kind {
        Kind::ClosedDeep | Kind::ClosedWide => vec![3.0],
        Kind::ReplayCached => vec![GRID_LOCALITIES[0]],
        Kind::GridCello => GRID_LOCALITIES.to_vec(),
    };
    for _ in 0..3 {
        for &l in &localities {
            let c = drive_character().with_locality(l);
            for &d in &GRID_DISKS {
                spans.time("models.recommend", || recommend_latency_shape(&c, d, 1.0));
            }
        }
    }
    m.push((
        "models.recommend_us",
        median(&spans.durations("models.recommend")) / 1e3,
        "us",
    ));

    // harness: the run-cache fingerprint and the report serialiser, once
    // per job of the repetition (five times for single-job workloads).
    let rounds = if inputs.jobs.len() == 1 { 5 } else { 1 };
    for _ in 0..rounds {
        for (job, run) in inputs.jobs.iter().zip(&rep.runs) {
            spans.time("harness.fingerprint", || job.fingerprint(&inputs.traces));
            let mut report = run.report.clone();
            spans.time("harness.report_json", || {
                std::hint::black_box(mimd_harness::report_json(&mut report).to_json())
            });
        }
    }
    m.push((
        "harness.fingerprint_us_per_job",
        median(&spans.durations("harness.fingerprint")) / 1e3,
        "us",
    ));
    m.push((
        "harness.report_json_us_per_job",
        median(&spans.durations("harness.report_json")) / 1e3,
        "us",
    ));
    m
}

/// `a / b`, or zero when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::SCHED_WINDOW;

    /// The `dqueue.pick_ns` replay must pick over the engine's window; the
    /// engine's constant is crate-private, so read it from its source.
    #[test]
    fn sched_window_matches_the_engine() {
        let src = include_str!("../../crates/core/src/engine/mod.rs");
        let engine: usize = src
            .lines()
            .find(|l| l.contains("const SCHED_WINDOW"))
            .and_then(|l| l.split('=').nth(1))
            .and_then(|v| v.trim().trim_end_matches(';').replace('_', "").parse().ok())
            .expect("the engine defines SCHED_WINDOW as a literal");
        assert_eq!(SCHED_WINDOW, engine);
    }
}
