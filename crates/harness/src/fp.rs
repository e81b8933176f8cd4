//! Structural fingerprints for the content-addressed run cache.
//!
//! A run is identified by what actually determines its output: the fully
//! resolved [`EngineConfig`], the workload *content* (every request of a
//! trace, or the closed-loop generator's parameters), and the workspace
//! code-version fingerprint baked in at build time (see `build.rs`).
//!
//! Configs and closed-loop specs are hashed through their derived `Debug`
//! form. Derived `Debug` names every field, prints integers exactly and
//! `f64` in its shortest round-trip form (`-0.0` ≠ `0.0`), and none of
//! these types holds a hash map, so field order is fixed: two values
//! print alike only if they are equal field for field. A field added to
//! either type is part of the identity with no code here to update.
//! Traces are hashed as raw bytes instead, which is much cheaper than
//! formatting thousands of requests.
//!
//! The hash is 64-bit FNV-1a — not cryptographic, but the cache is a
//! private performance artifact, not a trust boundary, and 2^-64
//! accidental-collision odds across a few thousand grid cells is far
//! below the noise floor of everything else.

use std::fmt::{self, Write as _};

use mimd_core::EngineConfig;
use mimd_workload::{IometerSpec, Op, Trace};

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fp(u64);

impl Default for Fp {
    fn default() -> Self {
        Fp::new()
    }
}

impl Fp {
    /// The FNV-1a offset basis.
    pub fn new() -> Fp {
        Fp(0xcbf29ce484222325)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Formatted text is absorbed as its UTF-8 bytes, with no allocation.
impl fmt::Write for Fp {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Absorbs `value`'s `Debug` form.
pub fn write_debug(fp: &mut Fp, value: &impl fmt::Debug) {
    write!(fp, "{value:?}").expect("Fp never fails a write");
}

fn op_tag(op: Op) -> u64 {
    match op {
        Op::Read => 0,
        Op::SyncWrite => 1,
        Op::AsyncWrite => 2,
    }
}

/// Absorbs a trace by content: name, data-set size, and every request's
/// arrival/op/lbn/size.
pub fn write_source(fp: &mut Fp, trace: &Trace) {
    write_debug(fp, &trace.name);
    fp.write_u64(trace.data_sectors);
    fp.write_u64(trace.len() as u64);
    for r in trace.requests() {
        fp.write_u64(r.arrival.as_nanos());
        fp.write_u64(op_tag(r.op));
        fp.write_u64(r.lbn);
        fp.write_u64(r.sectors as u64);
    }
}

/// Fingerprint of an open-loop job: resolved config + stream content.
pub fn trace_job(cfg: &EngineConfig, trace: &Trace) -> u64 {
    let mut fp = Fp::new();
    write_debug(&mut fp, cfg);
    write_source(&mut fp, trace);
    fp.finish()
}

/// Fingerprint of a closed-loop job: resolved config + generator + loop.
pub fn closed_job(
    cfg: &EngineConfig,
    spec: &IometerSpec,
    outstanding: usize,
    completions: u64,
) -> u64 {
    let mut fp = Fp::new();
    write_debug(&mut fp, &(cfg, spec, outstanding, completions));
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::{Policy, Shape};

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        let mut fp = Fp::new();
        fp.write_bytes(b"");
        assert_eq!(fp.finish(), 0xcbf29ce484222325);
        let mut fp = Fp::new();
        fp.write_bytes(b"a");
        assert_eq!(fp.finish(), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn config_fingerprint_is_field_sensitive() {
        let base = EngineConfig::new(Shape::sr_array(2, 3).unwrap());
        let digest = |cfg: &EngineConfig| {
            let mut fp = Fp::new();
            write_debug(&mut fp, cfg);
            fp.finish()
        };
        let d0 = digest(&base);
        assert_eq!(d0, digest(&base.clone()), "same config, same digest");

        let mut seed = base.clone();
        seed.seed += 1;
        assert_ne!(d0, digest(&seed));
        let mut pol = base.clone();
        pol.policy = Policy::Fcfs;
        assert_ne!(d0, digest(&pol));
        let mut slack = base.clone();
        slack.slack = mimd_sim::SimDuration::from_micros(111);
        assert_ne!(d0, digest(&slack));
    }

    #[test]
    fn trace_fingerprint_sees_content() {
        use mimd_workload::SyntheticSpec;
        let cfg = EngineConfig::new(Shape::striping(2));
        let a = SyntheticSpec::cello_base().generate(1, 50);
        let b = SyntheticSpec::cello_base().generate(2, 50);
        assert_ne!(trace_job(&cfg, &a), trace_job(&cfg, &b));
        assert_eq!(trace_job(&cfg, &a), trace_job(&cfg, &a.clone()));
    }
}
