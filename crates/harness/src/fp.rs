//! Structural fingerprints for the content-addressed run cache.
//!
//! A run is identified by what actually determines its output: the fully
//! resolved [`EngineConfig`] (every field, enums by stable tag, floats by
//! raw bits), the workload *content* (every request of a trace, or the
//! closed-loop generator's parameters), and the workspace code-version
//! fingerprint baked in at build time (see `build.rs`). Two runs with the
//! same fingerprint are byte-identical by construction; any edit to a
//! config field, a workload, a seed, or any source file in the workspace
//! changes the fingerprint and misses the cache.
//!
//! The hash is 64-bit FNV-1a — not cryptographic, but the cache is a
//! private performance artifact, not a trust boundary, and 2^-64
//! accidental-collision odds across a few thousand grid cells is far
//! below the noise floor of everything else.

use mimd_core::{EngineConfig, MirrorPolicy, Policy, RaidLevel, ReplicaPlacement, WriteMode};
use mimd_disk::{PositionKnowledge, TimingPath};
use mimd_workload::{Access, IometerSpec, Op, SyntheticSpec, Trace};

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

    /// Absorbs an `f64` by raw bits, so `-0.0` ≠ `0.0` and every value
    /// hashes exactly.
    pub fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn op_tag(op: Op) -> u64 {
    match op {
        Op::Read => 0,
        Op::SyncWrite => 1,
        Op::AsyncWrite => 2,
    }
}

/// Absorbs every field of a resolved engine configuration.
pub fn write_config(fp: &mut Fp, cfg: &EngineConfig) {
    fp.write_str("EngineConfig");
    fp.write_u64(cfg.shape.ds as u64);
    fp.write_u64(cfg.shape.dr as u64);
    fp.write_u64(cfg.shape.dm as u64);
    fp.write_u64(match cfg.policy {
        Policy::Fcfs => 0,
        Policy::Look => 1,
        Policy::Satf => 2,
        Policy::Rlook => 3,
        Policy::Rsatf => 4,
    });
    fp.write_u64(match cfg.write_mode {
        WriteMode::Foreground => 0,
        WriteMode::Background => 1,
    });
    let p = &cfg.disk_params;
    fp.write_str(p.model);
    fp.write_u64(p.rpm as u64);
    fp.write_u64(p.surfaces as u64);
    fp.write_u64(p.sector_bytes as u64);
    fp.write_u64(p.zones.len() as u64);
    for z in &p.zones {
        fp.write_u64(z.cylinders as u64);
        fp.write_u64(z.sectors_per_track as u64);
    }
    fp.write_f64(p.track_skew_frac);
    fp.write_u64(p.min_seek.as_nanos());
    fp.write_u64(p.avg_seek.as_nanos());
    fp.write_u64(p.max_seek.as_nanos());
    fp.write_u64(p.write_settle.as_nanos());
    fp.write_u64(p.head_switch.as_nanos());
    fp.write_u64(p.overhead.as_nanos());
    fp.write_u64(match cfg.timing {
        TimingPath::Detailed => 0,
        TimingPath::Analytic => 1,
    });
    match cfg.knowledge {
        PositionKnowledge::Perfect => fp.write_u64(0),
        PositionKnowledge::Tracked {
            mean_error_us,
            std_error_us,
        } => {
            fp.write_u64(1);
            fp.write_f64(mean_error_us);
            fp.write_f64(std_error_us);
        }
    }
    fp.write_u64(cfg.stripe_unit as u64);
    fp.write_u64(cfg.mirror_stagger as u64);
    fp.write_u64(cfg.sync_spindles as u64);
    fp.write_u64(match cfg.mirror_policy {
        MirrorPolicy::IdleOrDuplicate => 0,
        MirrorPolicy::Static => 1,
    });
    fp.write_u64(cfg.nvram_threshold as u64);
    fp.write_u64(cfg.coalesce_delayed as u64);
    match &cfg.cache {
        None => fp.write_u64(0),
        Some(c) => {
            fp.write_u64(1);
            fp.write_u64(c.bytes);
            fp.write_u64(c.hit_time.as_nanos());
        }
    }
    fp.write_u64(cfg.slack.as_nanos());
    fp.write_u64(match cfg.replica_placement {
        ReplicaPlacement::Even => 0,
        ReplicaPlacement::Random => 1,
        ReplicaPlacement::IntraTrack => 2,
    });
    fp.write_u64(cfg.read_ahead as u64);
    fp.write_u64(cfg.seed);
    // The fault plan is part of the run's identity: fault-bearing runs
    // must never alias fault-free cache entries.
    let f = &cfg.faults;
    fp.write_str("FaultPlan");
    fp.write_u64(f.fail_stop.len() as u64);
    for s in &f.fail_stop {
        fp.write_u64(s.disk as u64);
        fp.write_u64(s.at.as_nanos());
        fp.write_u64(s.spare as u64);
    }
    fp.write_u64(f.fail_slow.len() as u64);
    for w in &f.fail_slow {
        fp.write_u64(w.disk as u64);
        fp.write_u64(w.from.as_nanos());
        fp.write_u64(w.until.as_nanos());
        fp.write_f64(w.factor);
    }
    fp.write_f64(f.media.read_rate);
    fp.write_f64(f.media.write_rate);
    fp.write_u64(f.retry.timeout.as_nanos());
    fp.write_u64(f.retry.max_retries as u64);
    fp.write_u64(f.retry.backoff_cap.as_nanos());
    fp.write_u64(f.redirect as u64);
    fp.write_u64(f.rebuild.spare_delay.as_nanos());
    fp.write_u64(f.rebuild.chunk_sectors as u64);
    // The parity organization likewise changes what a run means; `None`
    // keeps the stream identical to pre-parity builds.
    match cfg.parity {
        None => fp.write_u64(0),
        Some(p) => {
            fp.write_u64(1);
            fp.write_u64(match p.level {
                RaidLevel::Raid4 => 4,
                RaidLevel::Raid5 => 5,
            });
            fp.write_u64(p.group as u64);
        }
    }
}

/// Absorbs a trace by content: name, data-set size, and every request's
/// arrival/op/lbn/size. The leading tag names a replay trait that no
/// longer exists; it is kept so job fingerprints do not change.
pub fn write_source(fp: &mut Fp, trace: &Trace) {
    fp.write_str("RequestSource");
    fp.write_str(&trace.name);
    fp.write_u64(trace.data_sectors);
    fp.write_u64(trace.len() as u64);
    for r in trace.requests() {
        fp.write_u64(r.arrival.as_nanos());
        fp.write_u64(op_tag(r.op));
        fp.write_u64(r.lbn);
        fp.write_u64(r.sectors as u64);
    }
}

/// Absorbs a closed-loop generator spec plus its loop parameters.
pub fn write_closed(fp: &mut Fp, spec: &IometerSpec, outstanding: usize, completions: u64) {
    fp.write_str("Closed");
    fp.write_f64(spec.read_frac);
    fp.write_u64(spec.sectors as u64);
    fp.write_u64(spec.data_sectors);
    fp.write_f64(spec.seek_locality);
    fp.write_u64(match spec.access {
        Access::Random => 0,
        Access::Sequential => 1,
    });
    fp.write_u64(outstanding as u64);
    fp.write_u64(completions);
}

/// Absorbs a synthetic-workload spec plus its generation parameters —
/// the key for the process-wide shared-workload registry.
pub fn write_synth_spec(fp: &mut Fp, spec: &SyntheticSpec, seed: u64, n: usize) {
    fp.write_str("SyntheticSpec");
    fp.write_str(spec.name);
    fp.write_u64(spec.data_sectors);
    fp.write_f64(spec.rate_per_sec);
    fp.write_f64(spec.read_frac);
    fp.write_f64(spec.async_write_frac);
    fp.write_f64(spec.seek_locality);
    fp.write_f64(spec.read_after_write);
    match spec.sync_daemon_interval {
        None => fp.write_u64(0),
        Some(d) => {
            fp.write_u64(1);
            fp.write_u64(d.as_nanos());
        }
    }
    fp.write_u64(spec.size_dist.len() as u64);
    for &(sectors, weight) in &spec.size_dist {
        fp.write_u64(sectors as u64);
        fp.write_f64(weight);
    }
    fp.write_f64(spec.local_step_sectors);
    fp.write_f64(spec.reuse_frac);
    fp.write_u64(spec.hot_blocks as u64);
    fp.write_f64(spec.reuse_theta);
    fp.write_u64(seed);
    fp.write_u64(n as u64);
}

/// Fingerprint of an open-loop job: resolved config + stream content.
pub fn trace_job(cfg: &EngineConfig, trace: &Trace) -> u64 {
    let mut fp = Fp::new();
    write_config(&mut fp, cfg);
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
    write_config(&mut fp, cfg);
    write_closed(&mut fp, spec, outstanding, completions);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::Shape;

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
            write_config(&mut fp, cfg);
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
