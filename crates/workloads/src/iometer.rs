//! Closed-loop synthetic load generation (the paper's Iometer role).
//!
//! Iometer "can generate different workloads of various characteristics
//! including read/write ratio, request size, and the maximum number of
//! outstanding requests" (§3.5). This module provides the request stream;
//! the array engine keeps the configured number of requests outstanding by
//! drawing a new one on every completion.

use mimd_sim::SimRng;

use crate::request::Op;

/// Access pattern of the closed-loop stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Uniformly random within the locality span.
    Random,
    /// Sequential from block 0, wrapping at the data-set end — the
    /// "large I/O" regime of §2.2's bandwidth discussion.
    Sequential,
}

/// Specification of an Iometer-like closed-loop workload.
///
/// Its derived `Debug` form is the run cache's identity for the spec
/// (`mimd_harness::fp`), so it must stay derived.
#[derive(Debug, Clone, Copy)]
pub struct IometerSpec {
    /// Fraction of requests that are reads; the rest are synchronous
    /// writes (Iometer has no async-write notion).
    pub read_frac: f64,
    /// Request size in sectors.
    pub sectors: u32,
    /// Logical data-set size in sectors.
    pub data_sectors: u64,
    /// Seek-locality index: accesses are uniform over the first
    /// `1 / seek_locality` of the data set, making the mean logical hop
    /// `N / (3 L)` — the definition used throughout the micro-benchmarks
    /// ("we use a seek locality index of 3", §4.2).
    pub seek_locality: f64,
    /// Random or sequential addressing.
    pub access: Access,
}

impl IometerSpec {
    /// Random 512-byte reads over the whole data set — the Figure 5
    /// validation workload.
    pub fn random_read_512(data_sectors: u64) -> Self {
        IometerSpec {
            read_frac: 1.0,
            sectors: 1,
            data_sectors,
            seek_locality: 1.0,
            access: Access::Random,
        }
    }

    /// The 50/50 read/write variant of the Figure 5 workload.
    pub fn mixed_512(data_sectors: u64) -> Self {
        IometerSpec {
            read_frac: 0.5,
            sectors: 1,
            data_sectors,
            seek_locality: 1.0,
            access: Access::Random,
        }
    }

    /// The micro-benchmark operating point of §4.2: configurable read
    /// fraction, 4 KiB requests, seek-locality index 3.
    pub fn microbench(data_sectors: u64, read_frac: f64) -> Self {
        IometerSpec {
            read_frac,
            sectors: 8,
            data_sectors,
            seek_locality: 3.0,
            access: Access::Random,
        }
    }

    /// A sequential streaming-read workload of `sectors`-sized requests.
    pub fn sequential_read(data_sectors: u64, sectors: u32) -> Self {
        IometerSpec {
            read_frac: 1.0,
            sectors,
            data_sectors,
            seek_locality: 1.0,
            access: Access::Sequential,
        }
    }

    /// Draws the request with sequence number `seq`: `(op, lbn, sectors)`.
    /// Sequential streams place it by `seq`; random streams ignore `seq`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent (zero-size data set or request,
    /// locality below 1).
    ///
    /// # Examples
    ///
    /// ```
    /// use mimd_sim::SimRng;
    /// use mimd_workload::IometerSpec;
    ///
    /// let spec = IometerSpec::random_read_512(1_000_000);
    /// let mut rng = SimRng::seed_from(1);
    /// let (op, lbn, sectors) = spec.next_at(&mut rng, 0);
    /// assert_eq!(op, mimd_workload::Op::Read);
    /// assert!(lbn < 1_000_000);
    /// assert_eq!(sectors, 1);
    /// ```
    pub fn next_at(&self, rng: &mut SimRng, seq: u64) -> (Op, u64, u32) {
        assert!(self.sectors > 0, "zero-length requests");
        assert!(
            self.data_sectors > self.sectors as u64,
            "data set too small"
        );
        assert!(self.seek_locality >= 1.0, "locality index is >= 1");
        let op = if rng.chance(self.read_frac) {
            Op::Read
        } else {
            Op::SyncWrite
        };
        let lbn = match self.access {
            Access::Random => {
                let span = ((self.data_sectors as f64 / self.seek_locality) as u64)
                    .clamp(self.sectors as u64 + 1, self.data_sectors);
                rng.below(span - self.sectors as u64)
            }
            Access::Sequential => {
                let stride = self.sectors as u64;
                (seq * stride) % (self.data_sectors - stride)
            }
        };
        (op, lbn, self.sectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_fraction_converges() {
        let spec = IometerSpec::mixed_512(1_000_000);
        let mut rng = SimRng::seed_from(2);
        let n = 50_000;
        let reads = (0..n)
            .filter(|_| matches!(spec.next_at(&mut rng, 0).0, Op::Read))
            .count();
        let frac = reads as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "read frac {frac}");
    }

    #[test]
    fn pure_read_spec_never_writes() {
        let spec = IometerSpec::random_read_512(1_000_000);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1_000 {
            assert_eq!(spec.next_at(&mut rng, 0).0, Op::Read);
        }
    }

    #[test]
    fn locality_restricts_span() {
        let spec = IometerSpec::microbench(900_000, 1.0);
        let mut rng = SimRng::seed_from(4);
        let span = 900_000 / 3;
        for _ in 0..10_000 {
            let (_, lbn, sectors) = spec.next_at(&mut rng, 0);
            assert!(lbn + sectors as u64 <= span as u64 + sectors as u64);
            assert_eq!(sectors, 8);
        }
    }

    #[test]
    fn requests_stay_in_bounds() {
        let spec = IometerSpec {
            read_frac: 0.3,
            sectors: 64,
            data_sectors: 10_000,
            seek_locality: 1.0,
            access: Access::Random,
        };
        let mut rng = SimRng::seed_from(5);
        for _ in 0..10_000 {
            let (_, lbn, sectors) = spec.next_at(&mut rng, 0);
            assert!(lbn + sectors as u64 <= 10_000);
        }
    }

    #[test]
    fn locality_one_covers_most_of_the_set() {
        let spec = IometerSpec::random_read_512(100_000);
        let mut rng = SimRng::seed_from(6);
        let max = (0..20_000)
            .map(|_| spec.next_at(&mut rng, 0).1)
            .max()
            .unwrap();
        assert!(max > 95_000, "max lbn {max}");
    }

    #[test]
    fn sequential_stream_walks_forward() {
        let spec = IometerSpec::sequential_read(10_000, 64);
        let mut rng = SimRng::seed_from(8);
        for seq in 0..100u64 {
            let (op, lbn, sectors) = spec.next_at(&mut rng, seq);
            assert_eq!(op, Op::Read);
            assert_eq!(sectors, 64);
            assert_eq!(lbn, (seq * 64) % (10_000 - 64));
        }
    }

    #[test]
    fn sequential_stream_wraps_in_bounds() {
        let spec = IometerSpec::sequential_read(1_000, 128);
        let mut rng = SimRng::seed_from(9);
        for seq in 0..1_000u64 {
            let (_, lbn, sectors) = spec.next_at(&mut rng, seq);
            assert!(lbn + sectors as u64 <= 1_000, "seq {seq} lbn {lbn}");
        }
    }

    #[test]
    #[should_panic(expected = "locality")]
    fn rejects_bad_locality() {
        let spec = IometerSpec {
            read_frac: 1.0,
            sectors: 1,
            data_sectors: 1_000,
            seek_locality: 0.0,
            access: Access::Random,
        };
        let mut rng = SimRng::seed_from(7);
        let _ = spec.next_at(&mut rng, 0);
    }
}
