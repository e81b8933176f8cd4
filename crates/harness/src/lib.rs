//! The deterministic parallel experiment harness.
//!
//! Everything below this crate — `mimd-sim`, `mimd-disk`, `mimd-workload`,
//! `mimd-core` — is deterministic and, apart from the engine's waived shard
//! seam, single-threaded (enforced by simlint's `parallelism` rule). This
//! crate is the one layer allowed to spawn threads, and it does so without
//! giving up determinism:
//!
//! - [`parallel_map_with`] fans independent jobs over scoped worker threads
//!   with a work-stealing cursor, then merges results back **in job
//!   order**, so output bytes never depend on thread count or OS
//!   scheduling.
//! - [`Job`] is one simulation (a config plus a trace or a closed loop);
//!   [`run_jobs`] fans a job list over the pool, each job on one private
//!   [`mimd_core::ArraySim`], and returns the reports in job order.
//! - [`Json`] is a hand-rolled serializer (the workspace builds offline),
//!   and [`write_json`] drops experiment records under `MIMD_JSON_DIR`
//!   (default `target/experiments/`) for the perf trajectory.
//! - [`RunCache`] memoizes completed runs under `MIMD_CACHE_DIR`, keyed by
//!   a hash of each job's derived `Debug` form and trace content ([`fp`]);
//!   unchanged re-runs decode stored bytes instead of simulating
//!   (`MIMD_NO_CACHE=1` opts out).

pub mod cache;
pub mod fp;
#[cfg(test)]
mod grid;
mod job;
mod json;
mod pool;

pub use cache::{cache_dir, code_fingerprint, RunCache};
pub use job::{report_json, run_jobs, run_jobs_on, Job};
pub use json::Json;
pub use pool::{configured_threads, parallel_map_with};

use std::io::Write as _;
use std::path::PathBuf;

/// The directory experiment JSON lands in: `MIMD_JSON_DIR` if set, else
/// `target/experiments` relative to the current directory.
pub fn json_dir() -> PathBuf {
    match std::env::var_os("MIMD_JSON_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target").join("experiments"),
    }
}

/// Writes `value` to `<json_dir>/<stem>.json` (creating the directory),
/// returning the path written.
pub fn write_json(stem: &str, value: &Json) -> std::io::Result<PathBuf> {
    let dir = json_dir();
    // simlint: allow(cache-hygiene) — dir IS the MIMD_JSON_DIR root.
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{stem}.json"));
    // simlint: allow(cache-hygiene) — path is under MIMD_JSON_DIR.
    let mut f = std::fs::File::create(&path)?;
    f.write_all(value.to_json().as_bytes())?;
    f.write_all(b"\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_dir_defaults_under_target() {
        // Cannot mutate the env in tests (other tests run concurrently);
        // just check the fallback shape when the var is absent or the
        // override when present.
        let d = json_dir();
        assert!(d.ends_with("experiments") || std::env::var("MIMD_JSON_DIR").is_ok());
    }

    #[test]
    fn write_json_round_trips_to_disk() {
        let dir = std::env::temp_dir().join("mimd-harness-test");
        // Write via an explicit directory rather than the env var to stay
        // race-free under the parallel test runner.
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.json");
        let value = Json::object([("ok", Json::from(true))]);
        std::fs::write(&path, value.to_json()).unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(got, r#"{"ok":true}"#);
    }
}
