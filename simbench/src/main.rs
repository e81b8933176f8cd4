//! The simulator benchmark.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--short]
//! simbench --print-pins
//! ```
//!
//! One run sets the workload up, runs it once untimed to check the
//! simulated answers and count its heap, then repeats it for the rest of
//! `--seconds` of host time, setting it up again on fresh threads between
//! repetitions (cold seek fit each time). It prints a full record line
//! followed by the result line: `{"correct", "attempted", "failed",
//! "metrics"}` with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).
//! See README.md for the workloads and metrics.

mod alloc;
mod check;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mimd_core::models::{
    array_throughput, predict_throughput_iops, rlook_request_time, rw_latency,
    single_disk_throughput,
};
use mimd_core::Shape;
use mimd_disk::DiskParams;
use mimd_harness::Json;

use check::{digest, pin_lines, pinned, verify, DEFAULT_SEED, HELD_OUT_SEED};
use layers::ratio;
use spans::Spans;
use stats::{median, samples_for_tail};
use workloads::{
    drive_character, run_rep, Inputs, Job, Kind, Pooled, Rep, Size, CACHE_HIT_TIME, GRID_LOCALITIES,
};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Cold set-ups after each timed repetition; `setup_s` is the median of
/// all of a run's set-ups.
const SETUPS_PER_REP: usize = 3;

/// Fewest timed repetitions per run, so a traced run times at least one
/// untraced and one traced repetition.
const MIN_REPS: usize = 2;

/// The paper's D = 6 Cello-base headline ratios (§4.1, Fig. 6): SR-Array
/// against RAID-10, striping and a single disk.
const PAPER_HEADLINE: [f64; 3] = [1.23, 1.42, 1.94];

/// End-to-end metric names, in output order; `BENCHMARK.json` lists the same.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "requests_per_host_s",
    "peak_heap_mb",
    "sim_mean_response_ms",
    "sim_p99_response_ms",
    "sim_iops",
    "ok_frac",
    "paper_error_pct",
];

/// Per-layer metric names, in output order; `BENCHMARK.json` lists the same.
pub const PER_LAYER: [&str; 34] = [
    "engine.run_s",
    "engine.ns_per_event",
    "engine.events_per_request",
    "engine.phys_ops_per_request",
    "engine.new_ms",
    "engine.nvram_peak",
    "engine.delayed_per_write",
    "engine.coalesced_frac",
    "dqueue.insert_ns",
    "dqueue.pick_ns",
    "dqueue.remove_ns",
    "sched.queue_wait_ms_mean",
    "diskmodel.cost_ns",
    "diskmodel.seek_fit_ms",
    "diskmodel.seek_ms_mean",
    "diskmodel.rotation_ms_mean",
    "diskmodel.transfer_ms_mean",
    "diskmodel.prediction_miss_rate",
    "simcore.event_push_pop_ns",
    "simcore.percentile_ms",
    "layout.plan_ns",
    "layout.fragments_per_request",
    "cache.lookup_ns",
    "cache.insert_ns",
    "cache.hit_ratio",
    "cache.full_at_request",
    "workload.generate_ns_per_request",
    "models.recommend_us",
    "harness.pool_busy_frac",
    "harness.fingerprint_us_per_job",
    "harness.report_json_us_per_job",
    "trace.requests_per_host_s_untraced",
    "trace.requests_per_host_s_traced",
    "trace.overhead_frac",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
}

enum Command {
    Run(Args),
    PrintPins,
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--print-pins" => return Ok(Command::PrintPins),
            "--short" => {
                size = Size::Short;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        kind,
        seed,
        seconds,
        trace,
        size,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Command::Run(args)) => {
            let result = run(&args);
            println!("{}", result.record.to_json());
            println!("{}", result.line().to_json());
            ExitCode::SUCCESS
        }
        Ok(Command::PrintPins) => {
            print!("{}", pins_text());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The pin file for the current simulator: every workload at the default
/// and the held-out seed.
fn pins_text() -> String {
    let mut out = String::from(
        "# Pinned simulated answers: <workload> <seed> <field> <value>.\n\
         # Regenerate with `simbench --print-pins` (see README.md).\n",
    );
    for kind in Kind::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let inputs = Inputs::generate(kind, seed, Size::Full);
            let rep = run_rep(&inputs);
            out.push_str(&pin_lines(kind, seed, &digest(&inputs, &rep)));
        }
    }
    out
}

/// A finished run.
struct RunResult {
    /// Metadata, every metric and sample counts.
    record: Json,
    /// Whether every check passed.
    correct: bool,
    /// Requests attempted, checks included.
    attempted: u64,
    /// Requests that failed or whose check failed.
    failed: u64,
    /// The printed metrics: name, value, unit.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    fn line(&self) -> Json {
        Json::object([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics_json(&self.metrics, None)),
        ])
    }
}

/// Metrics as `{name: {value, unit}}`; with `samples`, the `sim_*`
/// metrics also carry their sample count.
fn metrics_json(metrics: &[(&'static str, f64, &'static str)], samples: Option<u64>) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                let mut m = Json::object([
                    ("value", Json::from(finite(value))),
                    ("unit", Json::from(unit)),
                ]);
                if let Some(n) = samples.filter(|_| name.starts_with("sim_")) {
                    m.push_field("samples", Json::from(n));
                }
                (name.to_string(), m)
            })
            .collect(),
    )
}

/// Timings of one timed repetition.
struct Timing {
    rate: f64,
    wall_ns: u64,
    ns_per_event: f64,
    new_ns: u64,
    busy_frac: f64,
    traced: bool,
}

fn timing_of(inputs: &Inputs, rep: &Rep, traced: bool) -> Timing {
    let secs = rep.wall_ns as f64 / 1e9;
    let events: u64 = rep.runs.iter().map(|r| r.events).sum();
    let job_ns: u64 = rep.runs.iter().map(|r| r.job_ns).sum();
    Timing {
        rate: inputs.attempted() as f64 / secs,
        wall_ns: rep.wall_ns,
        ns_per_event: ratio(rep.wall_ns as f64, events as f64),
        new_ns: rep.runs.iter().map(|r| r.new_ns).sum(),
        busy_frac: ratio(job_ns as f64, rep.workers as f64 * rep.wall_ns as f64),
        traced,
    }
}

/// One set-up — trace generation plus the first `ArraySim::new` — on a
/// fresh thread, so the thread-local seek-fit memo starts cold. Returns
/// its host seconds and the inputs it made.
fn cold_setup(kind: Kind, seed: u64, size: Size) -> (f64, Inputs) {
    std::thread::spawn(move || {
        let t = Instant::now();
        let made = Inputs::generate(kind, seed, size);
        std::hint::black_box(made.sim_for(0));
        (t.elapsed().as_secs_f64(), made)
    })
    .join()
    .expect("set-up thread panicked")
}

/// Runs one workload end to end and returns what it prints.
fn run(args: &Args) -> RunResult {
    let (kind, seed, size) = (args.kind, args.seed, args.size);

    let (first_setup, inputs) = cold_setup(kind, seed, size);
    let mut setup_s = vec![first_setup];

    // `--seconds` counts from here: the checked repetition, and the
    // reference run of an unpinned seed, come out of the timed window.
    let start = Instant::now();

    // The checked repetition: untimed, and the only one whose heap is
    // counted, while nothing but the inputs is alive. `peak_heap_mb` is
    // therefore what one repetition holds beyond its inputs.
    let (rep, heap_mb) = alloc::peak_during(|| run_rep(&inputs));
    let mut attempted = inputs.attempted();
    let (mut failed, msg) = verify(&inputs, &rep);
    let mut problems: Vec<String> = msg
        .map(|m| format!("seed {seed}: {m}"))
        .into_iter()
        .collect();
    let want = digest(&inputs, &rep);

    // A seed without pins is checked by invariants and determinism only,
    // so every such run also replays the default seed against its pins.
    if size == Size::Full && pinned(kind, seed).is_none() {
        let reference = Inputs::generate(kind, DEFAULT_SEED, size);
        let rep = run_rep(&reference);
        let (f, msg) = verify(&reference, &rep);
        attempted += reference.attempted();
        failed += f;
        problems.extend(msg.map(|m| format!("seed {DEFAULT_SEED}: {m}")));
    }

    // The timed window. A traced run alternates untraced and traced
    // repetitions so the two rates share the same host conditions.
    let mut spans = Spans::new();
    let mut timings: Vec<Timing> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    while timings.len() < MIN_REPS || start.elapsed() < budget {
        let traced = args.trace && timings.len() % 2 == 1;
        if traced {
            spans.enter("engine.rep");
        }
        let timed = run_rep(&inputs);
        if traced {
            spans.exit();
        }
        timings.push(timing_of(&inputs, &timed, traced));
        attempted += inputs.attempted();
        // Every repetition of one seed must repeat the checked one.
        let (f, msg) = check::compare(&digest(&inputs, &timed), &want);
        failed += f;
        problems.extend(msg.map(|m| format!("seed {seed}, repetition differs: {m}")));
        // Set-ups are sampled between repetitions, so their median sees
        // the same spread of host conditions as the repetitions do.
        for _ in 0..SETUPS_PER_REP {
            setup_s.push(cold_setup(kind, seed, size).0);
        }
    }
    let mut pooled = Pooled::of(&rep.runs);
    if size == Size::Full && (pooled.samples.len() as u64) < samples_for_tail(0.99) {
        problems.push(format!(
            "{} response samples: too few for a p99",
            pooled.samples.len()
        ));
    }
    for p in &problems {
        eprintln!("simbench: check failed: {p}");
    }
    let correct = failed == 0 && problems.is_empty();

    let untraced: Vec<f64> = timings
        .iter()
        .filter(|t| !t.traced)
        .map(|t| t.rate)
        .collect();
    let sim_mean = pooled.response.mean();
    let sim_p99 = pooled.p99_ms();
    let samples = pooled.samples.len();
    let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
        per_layer(&inputs, &rep, &timings, &mut spans)
    } else {
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("requests_per_host_s", median(&untraced), "req/s"),
            ("peak_heap_mb", heap_mb, "MB"),
            ("sim_mean_response_ms", sim_mean, "sim_ms"),
            ("sim_p99_response_ms", sim_p99, "sim_ms"),
            ("sim_iops", pooled.sim_iops(), "req/sim_s"),
            (
                "ok_frac",
                1.0 - ratio(failed as f64, attempted as f64),
                "frac",
            ),
            ("paper_error_pct", paper_error_pct(&inputs, &rep), "%"),
        ]
    };
    if args.trace {
        let path = out_dir().join(format!("{}-seed{seed}.spans.jsonl", kind.name()));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("simbench: could not write {}: {e}", path.display());
        }
    }

    let record = Json::object([
        ("workload", Json::from(kind.name())),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(args.seconds)),
        ("traced", Json::from(args.trace)),
        ("git_rev", Json::from(git_rev().as_str())),
        (
            "code_fp",
            Json::from(format!("{:016x}", mimd_harness::code_fingerprint()).as_str()),
        ),
        ("cores", Json::from(cores() as u64)),
        ("vm_hwm_mb", Json::from(vm_hwm_mb())),
        ("repetitions", Json::from(timings.len() as u64)),
        (
            "rep_requests_per_host_s",
            Json::Arr(timings.iter().map(|t| Json::from(t.rate)).collect()),
        ),
        ("setups", Json::from(setup_s.len() as u64)),
        ("spans", Json::from(spans.len() as u64)),
        ("metrics", metrics_json(&metrics, Some(samples as u64))),
    ]);
    RunResult {
        record,
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// The traced run's metrics: engine figures from the timed repetitions and
/// the reports, then the layer replays.
fn per_layer(
    inputs: &Inputs,
    rep: &Rep,
    timings: &[Timing],
    spans: &mut Spans,
) -> Vec<(&'static str, f64, &'static str)> {
    let pooled = Pooled::of(&rep.runs);
    let attempted = inputs.attempted() as f64;
    let writes: u64 = inputs.jobs.iter().map(|j| inputs.job_writes(j)).sum();
    let all = |f: fn(&Timing) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    let rate = |traced: bool| {
        median(
            &timings
                .iter()
                .filter(|t| t.traced == traced)
                .map(|t| t.rate)
                .collect::<Vec<_>>(),
        )
    };
    let (untraced, traced) = (rate(false), rate(true));
    let mut m = vec![
        ("engine.run_s", all(|t| t.wall_ns as f64 / 1e9), "s"),
        ("engine.ns_per_event", all(|t| t.ns_per_event), "ns"),
        (
            "engine.events_per_request",
            pooled.events as f64 / attempted,
            "count",
        ),
        (
            "engine.phys_ops_per_request",
            ratio(pooled.phys_requests as f64, pooled.completed as f64),
            "count",
        ),
        ("engine.new_ms", all(|t| t.new_ns as f64 / 1e6), "ms"),
        ("engine.nvram_peak", pooled.nvram_peak as f64, "count"),
        (
            "engine.delayed_per_write",
            ratio(pooled.delayed_propagated as f64, writes as f64),
            "count",
        ),
        (
            "engine.coalesced_frac",
            ratio(
                pooled.delayed_coalesced as f64,
                (pooled.delayed_propagated + pooled.delayed_coalesced) as f64,
            ),
            "frac",
        ),
        (
            "sched.queue_wait_ms_mean",
            pooled.queue_wait.mean(),
            "sim_ms",
        ),
        ("diskmodel.seek_ms_mean", pooled.seek.mean(), "sim_ms"),
        (
            "diskmodel.rotation_ms_mean",
            pooled.rotation.mean(),
            "sim_ms",
        ),
        (
            "diskmodel.transfer_ms_mean",
            pooled.transfer.mean(),
            "sim_ms",
        ),
        (
            "diskmodel.prediction_miss_rate",
            ratio(
                pooled.prediction_misses as f64,
                pooled.prediction_requests as f64,
            ),
            "frac",
        ),
        ("harness.pool_busy_frac", all(|t| t.busy_frac), "frac"),
        ("trace.requests_per_host_s_untraced", untraced, "req/s"),
        ("trace.requests_per_host_s_traced", traced, "req/s"),
        // Until the engine has spans of its own, a traced repetition runs
        // the same code as an untraced one plus a single span, so this
        // reads about 0 and its sign is host noise.
        (
            "trace.overhead_frac",
            if traced > 0.0 {
                untraced / traced - 1.0
            } else {
                0.0
            },
            "frac",
        ),
    ];
    m.extend(layers::replay(inputs, rep, spans));
    let order = |name: &str| {
        PER_LAYER
            .iter()
            .position(|&n| n == name)
            .unwrap_or(usize::MAX)
    };
    m.sort_by_key(|&(name, _, _)| order(name));
    m
}

/// Relative error (%) of the workload's simulated answer against the
/// paper: Fig. 6's D = 6 headline ratios for the grid, and the paper's
/// analytical models (§2) for the single-array workloads.
fn paper_error_pct(inputs: &Inputs, rep: &Rep) -> f64 {
    let rel = |sim: f64, paper: f64| 100.0 * (sim - paper).abs() / paper;
    let pooled = Pooled::of(&rep.runs);
    let params = DiskParams::st39133lwv();
    match inputs.kind {
        Kind::ClosedDeep => {
            // Equations (12), (15), (16) for 1×3 at Q = 256, L = 3, 4 KiB.
            let c = drive_character()
                .with_transfer(8, &params)
                .with_locality(3.0);
            rel(
                pooled.sim_iops(),
                predict_throughput_iops(&c, 1, 3, 1.0, 256.0),
            )
        }
        Kind::ClosedWide => {
            // The same equations with Ds = 512 striped columns and 1024
            // arms serving reads, 8 queued per arm.
            let c = drive_character()
                .with_transfer(8, &params)
                .with_locality(3.0);
            let t = rlook_request_time(&c, 512, 1, 1.0, 8.0);
            let n1 = single_disk_throughput(c.overhead_ms, t);
            let model = array_throughput(1024, 8.0 * 1024.0, n1) * 1_000.0;
            rel(pooled.sim_iops(), model)
        }
        Kind::ReplayCached => {
            // Equation (9) for 2×3 at Cello-base locality, with the
            // measured cache-hit share served at memory speed.
            let c = drive_character().with_locality(GRID_LOCALITIES[0]);
            let disk_ms = rw_latency(&c, 2, 3, 1.0) + c.overhead_ms;
            let h = ratio(pooled.cache_hits as f64, pooled.response.count() as f64);
            let model = h * CACHE_HIT_TIME.as_millis_f64() + (1.0 - h) * disk_ms;
            rel(pooled.response.mean(), model)
        }
        Kind::GridCello => {
            let mean_of = |shape: Shape| {
                inputs
                    .jobs
                    .iter()
                    .zip(&rep.runs)
                    .find(|(j, _)| {
                        matches!(j, Job::Replay { trace: 0, .. }) && j.cfg().shape == shape
                    })
                    .map(|(_, r)| r.report.mean_response_ms())
                    .unwrap_or(f64::NAN)
            };
            let sr6 = inputs
                .jobs
                .iter()
                .zip(&rep.runs)
                .find(|(j, _)| j.cfg().shape.disks() == 6)
                .map(|(_, r)| r.report.mean_response_ms())
                .unwrap_or(f64::NAN);
            let raid10 = Shape::raid10(6).expect("6 disks pair up");
            let ratios = [
                mean_of(raid10) / sr6,
                mean_of(Shape::striping(6)) / sr6,
                mean_of(Shape::striping(1)) / sr6,
            ];
            ratios
                .iter()
                .zip(PAPER_HEADLINE)
                .map(|(&r, p)| rel(r, p))
                .sum::<f64>()
                / 3.0
        }
    }
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Peak resident set (VmHWM) of this process in MB; recorded for context
/// only, since huge pages make it vary between identical runs.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The revision under test: `SIMBENCH_GIT_REV` when the caller knows it
/// (the A/B runner sets it), else the checkout's own `.git`, else
/// `unknown` (a plain source export; `code_fp` still identifies the code).
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("SIMBENCH_GIT_REV") {
        return rev;
    }
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where traced runs write their spans: `out/` beside this package.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
        }
        for kind in Kind::ALL {
            assert!(valid_name(kind.name()));
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let compact: String = text.split_whitespace().collect();
        for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                compact.contains(&format!("\"name\":\"{name}\"")),
                "BENCHMARK.json lacks {name}"
            );
        }
        for kind in Kind::ALL {
            assert!(compact.contains(&format!("\"name\":\"{}\"", kind.name())));
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |s: &[&str]| parse_args(&s.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "closed_deep", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "closed_deep", "--seed"]).is_err());
        assert!(args(&["--workload", "grid_cello", "--seed", "7", "--seconds", "3"]).is_ok());
        assert!(args(&["--short", "--workload", "closed_wide"]).is_ok());
    }

    /// Runs every workload at its short size, untraced and traced, and
    /// checks each finishes in seconds with every metric present.
    #[test]
    fn short_mode_of_each_workload_finishes_in_seconds() {
        for kind in Kind::ALL {
            for trace in [false, true] {
                let t = Instant::now();
                let args = Args {
                    kind,
                    seed: 3,
                    seconds: 1,
                    trace,
                    size: Size::Short,
                };
                let r = run(&args);
                let secs = t.elapsed().as_secs_f64();
                assert!(r.correct, "{} failed its checks", kind.name());
                assert_eq!(r.failed, 0);
                assert!(r.attempted > 0);
                let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
                let want: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
                assert_eq!(names, want, "{} trace={trace}", kind.name());
                assert!(
                    r.metrics.iter().all(|m| m.1.is_finite()),
                    "{} trace={trace}: non-finite metric",
                    kind.name()
                );
                assert!(secs < 60.0, "{} took {secs:.1} s", kind.name());
            }
        }
    }
}
