//! The content-addressed run cache.
//!
//! Every job is identified by a structural fingerprint (see [`crate::fp`])
//! of its resolved config, its workload content, its seed, and the
//! workspace *code-version fingerprint* baked in at build time. Completed
//! jobs persist their [`RunReport`] under `MIMD_CACHE_DIR` (default
//! `target/run-cache/`); a re-run with an unchanged fingerprint decodes
//! the stored bytes instead of simulating — byte-identical by
//! construction, because the codec stores every float by raw bits and the
//! restored report answers every query (means, percentiles, demerits)
//! exactly as the original did.
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

/// The background entry writer: persisting an entry means pushing tens
/// of megabytes of sample data through the filesystem, and doing that
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

const MAGIC: &[u8; 8] = b"MIMDRPT1";

/// Entry checksum: FNV-1a folding 8 bytes per multiply instead of 1.
///
/// Entries are tens of megabytes (raw sample vectors), and the digest
/// runs on both the store and hit paths; the word-at-a-time variant cuts
/// the dependent-multiply chain 8x. It is not standard FNV-1a — it only
/// has to agree with itself, and the format magic pins the definition.
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
    // capacity hint covers the dominant term — the raw sample vectors.
    let hint = 32 + 30 * 8 + 8 * report.response_samples_ms.values().len();
    let mut out = Vec::with_capacity(hint);
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
    fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(b)
    }
    /// LEB128-decodes one varint; overlong or truncated input is a
    /// format error (→ cold-run fallback).
    fn varint(&mut self) -> Option<u64> {
        let mut x = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            x |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(x);
            }
        }
        None
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

/// Sample-vector encodings. Samples are response times produced as
/// `nanos as f64 * 1e-6` (integer simulation time), so almost every
/// value is exactly recoverable from its nanosecond count — and
/// successive response times are close, so delta-zigzag varints of the
/// nanos average ~2–3 bytes against 8 for raw bits. Entries are tens of
/// megabytes of samples, and on a slow disk their size *is* the cold-run
/// overhead, so the compact form is worth the encode pass. Any vector
/// with even one non-recoverable value falls back to raw f64 bits.
const SAMPLES_RAW: u64 = 0;
const SAMPLES_DELTA_NANOS_MS: u64 = 1;
const SAMPLES_DELTA_NANOS_US: u64 = 2;

/// The unit scale a sample encoding mode divides nanoseconds by:
/// response times are recorded as `nanos * 1e-6` (milliseconds),
/// prediction times as `nanos * 1e-3` (microseconds).
fn mode_scale(mode: u64) -> Option<f64> {
    match mode {
        SAMPLES_DELTA_NANOS_MS => Some(1e-6),
        SAMPLES_DELTA_NANOS_US => Some(1e-3),
        _ => None,
    }
}

fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push((x as u8) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// The integer nanosecond counts behind `values`, if every element
/// round-trips bit-exactly through `n as f64 * scale`.
fn exact_nanos(values: &[f64], scale: f64) -> Option<Vec<u64>> {
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() || v < 0.0 {
                return None;
            }
            let n = (v / scale).round();
            // 2^53: beyond this, `as u64` and back is no longer exact.
            if !(0.0..=9.0e15).contains(&n) {
                return None;
            }
            let n = n as u64;
            ((n as f64 * scale).to_bits() == v.to_bits()).then_some(n)
        })
        .collect()
}

fn put_samples(out: &mut Vec<u8>, s: &SampleSet) {
    let values = s.values();
    put_u64(out, values.len() as u64);
    for mode in [SAMPLES_DELTA_NANOS_MS, SAMPLES_DELTA_NANOS_US] {
        let scale = mode_scale(mode).expect("scaled mode");
        if let Some(nanos) = exact_nanos(values, scale) {
            put_u64(out, mode);
            let mut prev = 0u64;
            for n in nanos {
                put_varint(out, zigzag(n.wrapping_sub(prev) as i64));
                prev = n;
            }
            return;
        }
    }
    put_u64(out, SAMPLES_RAW);
    for &v in values {
        put_f64(out, v);
    }
}

fn get_samples(r: &mut Reader<'_>) -> Option<SampleSet> {
    let n = usize::try_from(r.u64()?).ok()?;
    // A corrupt length cannot allocate more than the payload could hold
    // (every sample takes at least one byte in either encoding).
    if n > r.0.len() {
        return None;
    }
    let mut values = Vec::with_capacity(n);
    let mode = r.u64()?;
    if mode == SAMPLES_RAW {
        for _ in 0..n {
            values.push(r.f64()?);
        }
    } else {
        let scale = mode_scale(mode)?;
        let mut prev = 0u64;
        for _ in 0..n {
            prev = prev.wrapping_add(unzigzag(r.varint()?) as u64);
            values.push(prev as f64 * scale);
        }
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
    use mimd_core::{ArraySim, EngineConfig, Shape};
    use mimd_workload::SyntheticSpec;

    fn sample_report() -> RunReport {
        let trace = SyntheticSpec::cello_base().generate(3, 300);
        let mut sim = ArraySim::new(
            EngineConfig::new(Shape::sr_array(2, 3).unwrap()),
            trace.data_sectors,
        )
        .unwrap();
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
            a.prediction.demerit_us().to_bits(),
            b.prediction.demerit_us().to_bits()
        );
        assert_eq!(a.seek_ms.mean().to_bits(), b.seek_ms.mean().to_bits());
        assert_eq!(
            a.queue_wait_ms.max().to_bits(),
            b.queue_wait_ms.max().to_bits()
        );
    }

    #[test]
    fn entry_round_trip_is_value_exact() {
        let mut original = sample_report();
        let blob = encode_entry(0xDEAD_BEEF, &original);
        let mut decoded = decode_entry(&blob, 0xDEAD_BEEF).expect("decodes");
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
    fn sample_codec_handles_both_encodings() {
        // Simulation-produced samples (exact nanosecond multiples) take
        // the compact delta-varint form...
        let exact: Vec<f64> = [1_500_000u64, 1_499_999, 1, 25_000_000, 0, 1_500_000]
            .iter()
            .map(|&n| n as f64 * 1e-6)
            .collect();
        let mut compact = Vec::new();
        put_samples(&mut compact, &SampleSet::from_values(exact.clone()));
        // ...while arbitrary floats fall back to raw bits. Both
        // round-trip bit-exactly.
        let raw = vec![std::f64::consts::PI, 0.1 + 0.2, f64::NAN];
        let mut fallback = Vec::new();
        put_samples(&mut fallback, &SampleSet::from_values(raw.clone()));
        assert!(compact.len() < 16 + 8 * exact.len(), "not compacted");
        for (blob, want) in [(compact, exact), (fallback, raw)] {
            let got = get_samples(&mut Reader(&blob)).expect("decodes");
            assert_eq!(got.values().len(), want.len());
            for (a, b) in got.values().iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn code_fingerprint_is_baked_in() {
        assert_ne!(code_fingerprint(), 0);
    }
}
