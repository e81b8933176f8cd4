//! The content-addressed run cache.
//!
//! Every job is identified by a fingerprint (see [`crate::fp`]) of its
//! resolved config and closed-loop parameters (hashed through their
//! derived `Debug` form), its trace content, and the workspace
//! *code-version fingerprint* baked in at build time. Completed jobs
//! persist their [`RunReport`] under `MIMD_CACHE_DIR` (default
//! `target/run-cache/`); a re-run with an unchanged fingerprint decodes
//! the stored bytes instead of simulating — byte-identical by
//! construction, because the codec stores every float, sample vectors
//! included, by its raw bits, and the restored report answers every query
//! (means, percentiles, demerits) exactly as the original did. Samples
//! are not compressed: a delta-varint codec once cut fig06's entries
//! 2.25× but made warm replays slower and cold passes no faster
//! (DESIGN.md, "Run cache: A/B results").
//!
//! Safety properties:
//!
//! - **No stale hits.** The code fingerprint hashes every `.rs` file in
//!   the workspace, so any source edit anywhere invalidates every entry.
//! - **No torn reads.** Entries are written to a temp file and atomically
//!   renamed into place, and carry an FNV-1a checksum; a corrupted or
//!   truncated entry fails decode and falls back to a cold run (which
//!   rewrites it).
//! - **Opt-out.** `MIMD_NO_CACHE=1` disables the cache entirely; every
//!   run is cold and nothing is read or written.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};

use mimd_core::RunReport;
use mimd_sim::{OnlineStats, SampleSet, SimDuration};

use crate::fp::Fp;

/// The workspace code-version fingerprint baked in at build time.
pub fn code_fingerprint() -> u64 {
    u64::from_str_radix(env!("MIMD_CODE_FINGERPRINT"), 16).unwrap_or(0)
}

/// The run-cache directory: `MIMD_CACHE_DIR` if set, else
/// `target/run-cache` relative to the current directory.
pub fn cache_dir() -> PathBuf {
    match std::env::var_os("MIMD_CACHE_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target").join("run-cache"),
    }
}

/// Whether `MIMD_NO_CACHE=1` forces cold runs.
pub fn cache_disabled_by_env() -> bool {
    std::env::var_os("MIMD_NO_CACHE").is_some_and(|v| v == "1")
}

/// A content-addressed store of completed run reports.
pub struct RunCache {
    dir: Option<PathBuf>,
    code_fp: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    writer: Mutex<Option<Writer>>,
}

/// The background entry writer: persisting an entry means pushing
/// megabytes of sample data through the filesystem, and doing that
/// inline would serialize disk time into the simulation wall-clock (on a
/// single-core host the store path *is* the cold-run overhead). Workers
/// encode in place and hand the bytes to this thread; [`RunCache::flush`]
/// joins it, so once `run_jobs_on` returns every entry is durable.
struct Writer {
    tx: mpsc::Sender<(PathBuf, Vec<u8>)>,
    handle: std::thread::JoinHandle<()>,
}

impl RunCache {
    /// The environment-configured cache: rooted at [`cache_dir`], keyed by
    /// the build's [`code_fingerprint`], disabled by `MIMD_NO_CACHE=1`.
    pub fn from_env() -> RunCache {
        if cache_disabled_by_env() {
            return RunCache::disabled();
        }
        RunCache::at(cache_dir(), code_fingerprint())
    }

    /// A cache rooted at an explicit directory with an explicit code
    /// fingerprint (tests inject fingerprints to prove miss behavior).
    pub fn at(dir: impl Into<PathBuf>, code_fp: u64) -> RunCache {
        RunCache {
            dir: Some(dir.into()),
            code_fp,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writer: Mutex::new(None),
        }
    }

    /// A cache that never hits and never stores.
    pub fn disabled() -> RunCache {
        RunCache {
            dir: None,
            code_fp: 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writer: Mutex::new(None),
        }
    }

    /// Whether lookups and stores are active.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (cold runs) observed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The entry path for a job fingerprint (combined with the code
    /// fingerprint), when the cache is enabled.
    pub fn entry_path(&self, job_fp: u64) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        Some(dir.join(format!("{:016x}.rpt", self.entry_fp(job_fp))))
    }

    /// The full content address: code fingerprint mixed into the job's.
    fn entry_fp(&self, job_fp: u64) -> u64 {
        let mut fp = Fp::new();
        fp.write_u64(self.code_fp);
        fp.write_u64(job_fp);
        fp.finish()
    }

    /// Returns the cached report for `job_fp`, or runs `cold`, stores its
    /// result, and returns it. Decode failures (missing, corrupted, or
    /// truncated entries) fall back to the cold run.
    pub fn get_or_run(&self, job_fp: u64, cold: impl FnOnce() -> RunReport) -> RunReport {
        let Some(path) = self.entry_path(job_fp) else {
            return cold();
        };
        let fp = self.entry_fp(job_fp);
        if let Ok(bytes) = std::fs::read(&path) {
            if let Some(report) = decode_entry(&bytes, fp) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return report;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let report = cold();
        self.store(&path, fp, &report);
        report
    }

    /// Queues one entry for persistence; failures are silent (the cache
    /// is best-effort). Encoding happens on the caller's thread (it is
    /// pure CPU); the filesystem work happens on the writer thread.
    fn store(&self, path: &std::path::Path, fp: u64, report: &RunReport) {
        let bytes = encode_entry(fp, report);
        let mut slot = self.writer.lock().expect("cache writer lock");
        let writer = slot.get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel::<(PathBuf, Vec<u8>)>();
            let handle = std::thread::spawn(move || {
                for (path, bytes) in rx {
                    write_entry(&path, &bytes);
                }
            });
            Writer { tx, handle }
        });
        let _ = writer.tx.send((path.to_path_buf(), bytes));
    }

    /// Blocks until every queued entry is on disk. Called by
    /// [`report_summary`](Self::report_summary) and on drop; call it
    /// directly before handing the cache directory to another process.
    pub fn flush(&self) {
        let taken = self.writer.lock().expect("cache writer lock").take();
        if let Some(Writer { tx, handle }) = taken {
            drop(tx);
            let _ = handle.join();
        }
    }

    /// Prints the per-binary hit/miss summary when anything was looked
    /// up, after flushing queued writes (so every counted entry is real).
    pub fn report_summary(&self, label: &str) {
        self.flush();
        if !self.enabled() {
            return;
        }
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            return;
        }
        let dir = self.dir.as_deref().map(|d| d.display().to_string());
        println!(
            "[cache] {label}: {h} hit{}, {m} miss{} ({})",
            if h == 1 { "" } else { "s" },
            if m == 1 { "" } else { "es" },
            dir.unwrap_or_default()
        );
    }
}

impl Drop for RunCache {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Writes one encoded entry: temp file + atomic rename, so concurrent
/// writers of the same entry both succeed and readers never see a torn
/// file. The temp name carries the pid and a process-wide sequence number
/// so two in-process caches can never interleave into one temp file.
fn write_entry(path: &Path, bytes: &[u8]) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let Some(dir) = path.parent() else { return };
    // simlint: allow(cache-hygiene) — this IS the MIMD_CACHE_DIR root.
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    // simlint: allow(cache-hygiene) — temp file under MIMD_CACHE_DIR.
    if std::fs::write(&tmp, bytes).is_ok() {
        // simlint: allow(cache-hygiene) — rename within MIMD_CACHE_DIR.
        let _ = std::fs::rename(&tmp, path);
    }
}

const MAGIC: &[u8; 8] = b"MIMDRPT2";

/// Entry checksum: FNV-1a folding 8 bytes per multiply instead of 1.
///
/// Entries store every response and prediction sample as 8 raw bytes
/// (fig06's average about 1 MB), and the digest runs on both the store
/// and hit paths; the word-at-a-time variant cuts the dependent-multiply
/// chain 8x. It is not standard FNV-1a — it only has to agree with
/// itself, and the format magic pins the definition.
fn fnv_digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Serializes a report into a checksummed entry blob.
///
/// Layout: magic, entry fingerprint (echoed so a mis-addressed file can
/// never satisfy a lookup), payload length, payload, FNV-1a(payload).
pub fn encode_entry(fp: u64, report: &RunReport) -> Vec<u8> {
    // The payload is encoded straight into the output buffer (no second
    // copy); the length slot is back-patched once the size is known. The
    // buffer is sized exactly: 74 fixed words (header, checksum, 8 stats
    // of 5 words, 24 counters, 6 sample counts) plus one per sample.
    let (p, f) = (&report.prediction, &report.faults);
    let samples: usize = [
        &report.response_samples_ms,
        &p.predicted_us,
        &p.actual_us,
        &f.healthy_ms,
        &f.degraded_ms,
        &f.rebuilding_ms,
    ]
    .iter()
    .map(|s| s.values().len())
    .sum();
    let mut out = Vec::with_capacity(8 * (74 + samples));
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&fp.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    let payload_at = out.len();
    encode_report(report, &mut out);
    let payload_len = out.len() - payload_at;
    out[payload_at - 8..payload_at].copy_from_slice(&(payload_len as u64).to_le_bytes());
    let digest = fnv_digest(&out[payload_at..]);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Decodes an entry blob, checking magic, fingerprint echo, length, and
/// checksum. Any mismatch returns `None` (→ cold-run fallback).
pub fn decode_entry(bytes: &[u8], fp: u64) -> Option<RunReport> {
    let rest = bytes.strip_prefix(MAGIC)?;
    let (fp_echo, rest) = take_u64(rest)?;
    if fp_echo != fp {
        return None;
    }
    let (len, rest) = take_u64(rest)?;
    let len = usize::try_from(len).ok()?;
    if rest.len() != len + 8 {
        return None;
    }
    let (payload, sum) = rest.split_at(len);
    let (checksum, _) = take_u64(sum)?;
    if checksum != fnv_digest(payload) {
        return None;
    }
    let mut r = Reader(payload);
    let report = decode_report(&mut r)?;
    // Trailing garbage means a format mismatch; refuse the entry.
    if !r.0.is_empty() {
        return None;
    }
    Some(report)
}

fn take_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = bytes.split_at_checked(8)?;
    Some((u64::from_le_bytes(head.try_into().ok()?), rest))
}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn u64(&mut self) -> Option<u64> {
        let (x, rest) = take_u64(self.0)?;
        self.0 = rest;
        Some(x)
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, x: f64) {
    put_u64(out, x.to_bits());
}

fn put_stats(out: &mut Vec<u8>, s: &OnlineStats) {
    let (count, mean, m2, min, max) = s.state();
    put_u64(out, count);
    put_f64(out, mean);
    put_f64(out, m2);
    put_f64(out, min);
    put_f64(out, max);
}

fn get_stats(r: &mut Reader<'_>) -> Option<OnlineStats> {
    let count = r.u64()?;
    let mean = r.f64()?;
    let m2 = r.f64()?;
    let min = r.f64()?;
    let max = r.f64()?;
    Some(OnlineStats::from_state(count, mean, m2, min, max))
}

fn put_samples(out: &mut Vec<u8>, s: &SampleSet) {
    let values = s.values();
    put_u64(out, values.len() as u64);
    for &v in values {
        put_f64(out, v);
    }
}

fn get_samples(r: &mut Reader<'_>) -> Option<SampleSet> {
    let n = usize::try_from(r.u64()?).ok()?;
    // A corrupt count cannot allocate more than the payload could hold.
    if n > r.0.len() / 8 {
        return None;
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(r.f64()?);
    }
    Some(SampleSet::from_values(values))
}

/// Field-by-field exact serialization of a [`RunReport`]. Every float is
/// stored by raw bits, so the decoded report is value-identical — the
/// emitted JSON of a cache hit matches a cold run byte for byte.
fn encode_report(report: &RunReport, out: &mut Vec<u8>) {
    put_u64(out, report.completed);
    put_u64(out, report.sim_time.as_nanos());
    put_stats(out, &report.response_ms);
    put_samples(out, &report.response_samples_ms);
    put_stats(out, &report.read_ms);
    put_stats(out, &report.write_ms);
    put_u64(out, report.phys_requests);
    put_u64(out, report.delayed_propagated);
    put_u64(out, report.delayed_coalesced);
    put_u64(out, report.nvram_peak as u64);
    put_u64(out, report.cache_hits);
    put_u64(out, report.cache_misses);
    put_u64(out, report.failed_requests);
    put_u64(out, report.prediction.misses);
    put_u64(out, report.prediction.requests);
    put_stats(out, &report.prediction.error);
    put_samples(out, &report.prediction.predicted_us);
    put_samples(out, &report.prediction.actual_us);
    put_stats(out, &report.seek_ms);
    put_stats(out, &report.rotation_ms);
    put_stats(out, &report.transfer_ms);
    put_stats(out, &report.queue_wait_ms);
    let f = &report.faults;
    put_u64(out, f.active as u64);
    put_u64(out, f.retries);
    put_u64(out, f.redirects);
    put_u64(out, f.timeouts);
    put_u64(out, f.media_errors);
    put_u64(out, f.unrecoverable);
    put_u64(out, f.rebuild_chunks);
    put_u64(out, f.rebuilds_completed);
    put_u64(out, f.rebuild_duration.as_nanos());
    put_u64(out, f.degraded_reads);
    put_u64(out, f.rmw_updates);
    put_u64(out, f.reconstruction_chunks);
    put_samples(out, &f.healthy_ms);
    put_samples(out, &f.degraded_ms);
    put_samples(out, &f.rebuilding_ms);
    put_u64(out, report.witness);
}

fn decode_report(r: &mut Reader<'_>) -> Option<RunReport> {
    let mut report = RunReport {
        completed: r.u64()?,
        sim_time: SimDuration::from_nanos(r.u64()?),
        response_ms: get_stats(r)?,
        response_samples_ms: get_samples(r)?,
        read_ms: get_stats(r)?,
        write_ms: get_stats(r)?,
        phys_requests: r.u64()?,
        delayed_propagated: r.u64()?,
        delayed_coalesced: r.u64()?,
        nvram_peak: usize::try_from(r.u64()?).ok()?,
        cache_hits: r.u64()?,
        cache_misses: r.u64()?,
        failed_requests: r.u64()?,
        ..RunReport::default()
    };
    report.prediction.misses = r.u64()?;
    report.prediction.requests = r.u64()?;
    report.prediction.error = get_stats(r)?;
    report.prediction.predicted_us = get_samples(r)?;
    report.prediction.actual_us = get_samples(r)?;
    report.seek_ms = get_stats(r)?;
    report.rotation_ms = get_stats(r)?;
    report.transfer_ms = get_stats(r)?;
    report.queue_wait_ms = get_stats(r)?;
    report.faults.active = r.u64()? != 0;
    report.faults.retries = r.u64()?;
    report.faults.redirects = r.u64()?;
    report.faults.timeouts = r.u64()?;
    report.faults.media_errors = r.u64()?;
    report.faults.unrecoverable = r.u64()?;
    report.faults.rebuild_chunks = r.u64()?;
    report.faults.rebuilds_completed = r.u64()?;
    report.faults.rebuild_duration = SimDuration::from_nanos(r.u64()?);
    report.faults.degraded_reads = r.u64()?;
    report.faults.rmw_updates = r.u64()?;
    report.faults.reconstruction_chunks = r.u64()?;
    report.faults.healthy_ms = get_samples(r)?;
    report.faults.degraded_ms = get_samples(r)?;
    report.faults.rebuilding_ms = get_samples(r)?;
    report.witness = r.u64()?;
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::{ArraySim, EngineConfig, FaultPlan, Shape};
    use mimd_sim::SimTime;
    use mimd_workload::SyntheticSpec;

    /// A Cello-base report that recorded its prediction samples, so the
    /// round trips compare demerits over non-empty sets.
    fn sample_report() -> RunReport {
        report_of(EngineConfig::new(Shape::sr_array(2, 3).unwrap()).with_prediction_samples())
    }

    fn report_of(cfg: EngineConfig) -> RunReport {
        let trace = SyntheticSpec::cello_base().generate(3, 300);
        let mut sim = ArraySim::new(cfg, trace.data_sectors).unwrap();
        sim.run_trace(&trace)
    }

    fn assert_reports_identical(a: &mut RunReport, b: &mut RunReport) {
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.sim_time.as_nanos(), b.sim_time.as_nanos());
        assert_eq!(
            a.mean_response_ms().to_bits(),
            b.mean_response_ms().to_bits()
        );
        assert_eq!(
            a.response_ms.population_variance().to_bits(),
            b.response_ms.population_variance().to_bits()
        );
        for p in [0.5, 0.95, 0.99] {
            assert_eq!(
                a.response_percentile_ms(p).map(f64::to_bits),
                b.response_percentile_ms(p).map(f64::to_bits),
                "p{p}"
            );
        }
        assert_eq!(a.phys_requests, b.phys_requests);
        assert_eq!(a.nvram_peak, b.nvram_peak);
        assert_eq!(a.prediction.misses, b.prediction.misses);
        assert_eq!(
            a.prediction.demerit_us().map(f64::to_bits),
            b.prediction.demerit_us().map(f64::to_bits)
        );
        assert_eq!(
            bits(a.prediction.predicted_us.values()),
            bits(b.prediction.predicted_us.values())
        );
        assert_eq!(
            bits(a.prediction.actual_us.values()),
            bits(b.prediction.actual_us.values())
        );
        assert_eq!(a.seek_ms.mean().to_bits(), b.seek_ms.mean().to_bits());
        assert_eq!(
            a.queue_wait_ms.max().to_bits(),
            b.queue_wait_ms.max().to_bits()
        );
        let (fa, fb) = (&a.faults, &b.faults);
        assert_eq!(fa.rebuild_chunks, fb.rebuild_chunks);
        assert_eq!(fa.rebuild_duration, fb.rebuild_duration);
        assert_eq!(bits(fa.healthy_ms.values()), bits(fb.healthy_ms.values()));
        assert_eq!(bits(fa.degraded_ms.values()), bits(fb.degraded_ms.values()));
        assert_eq!(
            bits(fa.rebuilding_ms.values()),
            bits(fb.rebuilding_ms.values())
        );
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn entry_round_trip_is_value_exact() {
        let mut original = sample_report();
        let blob = encode_entry(0xDEAD_BEEF, &original);
        assert_eq!(blob.len(), blob.capacity(), "the size hint is exact");
        let mut decoded = decode_entry(&blob, 0xDEAD_BEEF).expect("decodes");
        assert_reports_identical(&mut original, &mut decoded);
    }

    #[test]
    fn entry_round_trip_keeps_unrecorded_samples_empty() {
        let mut original = report_of(EngineConfig::new(Shape::sr_array(2, 3).unwrap()));
        assert!(original.prediction.requests > 0);
        assert!(original.prediction.predicted_us.is_empty());
        let blob = encode_entry(0xF00D, &original);
        assert_eq!(blob.len(), blob.capacity(), "the size hint is exact");
        let mut decoded = decode_entry(&blob, 0xF00D).expect("decodes");
        assert!(decoded.prediction.predicted_us.is_empty());
        assert!(decoded.prediction.actual_us.is_empty());
        assert_eq!(decoded.prediction.demerit_us(), None);
        assert_reports_identical(&mut original, &mut decoded);
    }

    #[test]
    fn wrong_fingerprint_refuses_entry() {
        let blob = encode_entry(1, &RunReport::default());
        assert!(decode_entry(&blob, 2).is_none());
    }

    #[test]
    fn corruption_and_truncation_detected() {
        let blob = encode_entry(7, &sample_report());
        assert!(decode_entry(&blob, 7).is_some());
        // Flip one payload byte.
        let mut corrupt = blob.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(decode_entry(&corrupt, 7).is_none(), "corruption undetected");
        // Truncate.
        for cut in [blob.len() - 1, blob.len() / 2, 7, 0] {
            assert!(decode_entry(&blob[..cut], 7).is_none(), "cut {cut}");
        }
        // Trailing garbage.
        let mut padded = blob.clone();
        padded.push(0);
        assert!(decode_entry(&padded, 7).is_none());
    }

    #[test]
    fn disabled_cache_always_runs_cold() {
        let cache = RunCache::disabled();
        let mut runs = 0;
        for _ in 0..2 {
            let _ = cache.get_or_run(99, || {
                runs += 1;
                RunReport::default()
            });
        }
        assert_eq!(runs, 2);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn get_or_run_hits_after_store() {
        let dir = std::env::temp_dir().join(format!("mimd-cache-unit-{}", std::process::id()));
        let cache = RunCache::at(&dir, 0xC0DE);
        let mut cold_runs = 0;
        let mut run = || {
            cache.get_or_run(0x10B, || {
                cold_runs += 1;
                sample_report()
            })
        };
        let mut first = run();
        cache.flush();
        let mut second = run();
        assert_eq!(cold_runs, 1, "second call must hit");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_reports_identical(&mut first, &mut second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn raw_samples_round_trip_bit_exactly() {
        // A response time as the engine records one: integer nanos in ms.
        let nanos: u64 = 1_499_999;
        let values = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            0.1 + 0.2,
            std::f64::consts::PI,
            f64::MAX,
            f64::from_bits(0x7ff8_0000_dead_beef),
            nanos as f64 * 1e-6,
        ];
        let mut blob = Vec::new();
        put_samples(&mut blob, &SampleSet::from_values(values.clone()));
        assert_eq!(blob.len(), 8 + 8 * values.len());
        let mut r = Reader(&blob);
        let got = get_samples(&mut r).expect("decodes");
        assert!(r.0.is_empty());
        assert_eq!(bits(got.values()), bits(&values));
    }

    #[test]
    fn sample_count_beyond_payload_is_refused() {
        let mut blob = Vec::new();
        put_samples(&mut blob, &SampleSet::from_values(vec![1.0, 2.0]));
        blob[..8].copy_from_slice(&3u64.to_le_bytes());
        assert!(get_samples(&mut Reader(&blob)).is_none());
        blob[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(get_samples(&mut Reader(&blob)).is_none());
    }

    #[test]
    fn faulted_entry_round_trip_is_value_exact() {
        let mut spec = SyntheticSpec::cello_base();
        spec.data_sectors = 120_000;
        spec.rate_per_sec = 25.0;
        let trace = spec.generate(5, 1_000);
        let faults = FaultPlan::new()
            .fail_stop_with_spare(1, SimTime::from_secs(2))
            .rebuild(SimDuration::from_secs(1), 2048);
        let cfg = EngineConfig::new(Shape::mirror(2)).with_faults(faults);
        let mut original = ArraySim::new(cfg, trace.data_sectors)
            .unwrap()
            .run_trace(&trace);
        let f = &original.faults;
        assert!(f.rebuilds_completed > 0);
        for window in [&f.healthy_ms, &f.degraded_ms, &f.rebuilding_ms] {
            assert!(!window.values().is_empty(), "every window is exercised");
        }
        let blob = encode_entry(0xFA17, &original);
        assert_eq!(blob.len(), blob.capacity(), "the size hint is exact");
        let mut decoded = decode_entry(&blob, 0xFA17).expect("decodes");
        assert_reports_identical(&mut original, &mut decoded);
    }

    #[test]
    fn code_fingerprint_is_baked_in() {
        assert_ne!(code_fingerprint(), 0);
    }
}
