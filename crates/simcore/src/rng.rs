//! Deterministic random numbers and the distributions the workloads need.
//!
//! Everything is seeded explicitly: an experiment binary that is run twice
//! with the same seed produces identical traces, identical schedules, and
//! identical output tables. The generator itself (xoshiro256++ seeded via
//! SplitMix64) and the distributions (exponential inter-arrivals, Zipf
//! block popularity, truncated Gaussian timing jitter) are implemented
//! here rather than pulled from `rand`/`rand_distr`, so the simulation
//! kernel has **zero external dependencies** and its streams are stable
//! across toolchain and dependency upgrades — a prerequisite for the
//! bit-for-bit reproducibility the Figure 5 validation relies on.

/// Advances a SplitMix64 state and returns the next output.
///
/// Used only to expand a 64-bit seed into the generator's 256-bit state,
/// as recommended by the xoshiro authors.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable deterministic random source.
///
/// Implemented as xoshiro256++ (Blackman & Vigna, public domain), exposing
/// exactly the sampling operations the simulator uses, so that call sites
/// read as workload vocabulary rather than raw `gen_range` calls.
///
/// # Examples
///
/// ```
/// use mimd_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.below(1000), b.below(1000));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// The next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `(0, 1)` — open at both ends, for logarithms.
    fn unit_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// Creates a generator for an explicitly named stream.
    ///
    /// The stream name is hashed (FNV-1a) and mixed into the seed through
    /// one SplitMix64 round, so `named(s, "faults")` and `named(s, "x")`
    /// are statistically independent while each remains a pure function of
    /// `(seed, name)`. Subsystems that must not perturb existing streams —
    /// fault injection is the canonical case, enforced by the
    /// `fault-determinism` simlint rule — draw from a named stream instead
    /// of forking a shared one: the workload and per-disk streams see
    /// exactly the same values whether or not the named stream exists.
    ///
    /// # Examples
    ///
    /// ```
    /// use mimd_sim::SimRng;
    ///
    /// let mut a = SimRng::named(42, "faults");
    /// let mut b = SimRng::named(42, "faults");
    /// let mut c = SimRng::named(42, "other");
    /// assert_eq!(a.below(1000), b.below(1000));
    /// let _ = c; // distinct stream, same determinism
    /// ```
    pub fn named(seed: u64, stream: &str) -> SimRng {
        let mut h = 0xCBF2_9CE4_8422_2325u64; // FNV-1a offset basis
        for &b in stream.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut mix = seed ^ h;
        SimRng::seed_from(splitmix64(&mut mix))
    }

    /// Creates the `index`-th member of a named stream *family*, e.g. one
    /// stream per simulated disk or per engine shard.
    ///
    /// Like [`SimRng::named`], the result is a pure function of
    /// `(seed, stream, index)` — construction order is irrelevant, which
    /// is what lets the sharded engine build per-shard streams in any
    /// order (or in parallel) and still draw identical values. The
    /// `rng-provenance` simlint rule requires the stream name to be a
    /// string literal here too.
    ///
    /// # Examples
    ///
    /// ```
    /// use mimd_sim::SimRng;
    ///
    /// let mut d0 = SimRng::named_indexed(42, "disk", 0);
    /// let mut d1 = SimRng::named_indexed(42, "disk", 1);
    /// assert_ne!(d0.below(1 << 40), d1.below(1 << 40));
    /// ```
    pub fn named_indexed(seed: u64, stream: &str, index: u64) -> SimRng {
        // One SplitMix64 round over the index decorrelates adjacent
        // members; the +1 keeps index 0 distinct from the plain named
        // stream of the same name.
        let mut ix = index.wrapping_add(1);
        SimRng::named(seed ^ splitmix64(&mut ix), stream)
    }

    /// Forks an independent child stream, e.g. one per simulated disk.
    ///
    /// The child is derived from the parent's stream, so distinct calls
    /// yield statistically independent children while remaining fully
    /// deterministic.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SimRng::below called with zero bound");
        // Lemire's multiply-shift: maps the 64-bit output onto [0, bound)
        // with bias below 2^-64 per draw — negligible for simulation use
        // and, crucially, branch-free and deterministic.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "SimRng::range requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Exponential variate with the given mean (> 0).
    ///
    /// Used for Poisson inter-arrival times in the open-loop trace
    /// generators.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0, "exponential mean must be positive");
        -mean * self.unit_open().ln()
    }

    /// Standard-normal variate via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.unit_open();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Normal variate truncated below at `floor` (resampled via clamping).
    ///
    /// Models OS/SCSI overhead jitter, which has a hard lower bound (the
    /// code path minimum) and a Gaussian-ish body.
    pub fn normal_at_least(&mut self, mean: f64, std_dev: f64, floor: f64) -> f64 {
        self.normal(mean, std_dev).max(floor)
    }
}

/// A Zipf(θ) sampler over ranks `0..n`.
///
/// Rank `r` is drawn with probability proportional to `1 / (r + 1)^theta`.
/// Sampling is `O(log n)` by binary search over the precomputed CDF; the
/// table costs `O(n)` to build, which the trace generators amortise over
/// millions of draws.
///
/// # Examples
///
/// ```
/// use mimd_sim::{rng::Zipf, SimRng};
///
/// let mut rng = SimRng::seed_from(1);
/// let zipf = Zipf::new(100, 0.9).unwrap();
/// let r = zipf.sample(&mut rng);
/// assert!(r < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with skew `theta >= 0`.
    ///
    /// `theta = 0` degenerates to the uniform distribution. Returns `None`
    /// if `n` is zero or `theta` is negative/non-finite.
    pub fn new(n: usize, theta: f64) -> Option<Self> {
        if n == 0 || !theta.is_finite() || theta < 0.0 {
            return None;
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Some(Zipf { cdf })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler has zero ranks (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `[0, n)`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        // The CDF entries are finite by construction, so total order holds.
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.below(1 << 40), b.below(1 << 40));
        }
    }

    #[test]
    fn named_streams_are_deterministic_and_distinct() {
        let mut a = SimRng::named(42, "faults");
        let mut b = SimRng::named(42, "faults");
        let mut c = SimRng::named(42, "workload");
        let mut d = SimRng::named(43, "faults");
        let mut base = SimRng::seed_from(42);
        let sa: Vec<u64> = (0..16).map(|_| a.below(u64::MAX)).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.below(u64::MAX)).collect();
        let sc: Vec<u64> = (0..16).map(|_| c.below(u64::MAX)).collect();
        let sd: Vec<u64> = (0..16).map(|_| d.below(u64::MAX)).collect();
        let s0: Vec<u64> = (0..16).map(|_| base.below(u64::MAX)).collect();
        assert_eq!(sa, sb, "same (seed, name) must agree");
        assert_ne!(sa, sc, "different names must differ");
        assert_ne!(sa, sd, "different seeds must differ");
        assert_ne!(sa, s0, "named stream must not alias the bare seed");
    }

    #[test]
    fn forked_streams_differ() {
        let mut parent = SimRng::seed_from(7);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let s1: Vec<u64> = (0..16).map(|_| c1.below(u64::MAX)).collect();
        let s2: Vec<u64> = (0..16).map(|_| c2.below(u64::MAX)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_small_ranges_uniformly() {
        let mut rng = SimRng::seed_from(41);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn unit_stays_in_half_open_interval() {
        let mut rng = SimRng::seed_from(43);
        for _ in 0..100_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u), "u {u}");
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from(11);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = SimRng::seed_from(13);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn normal_at_least_enforces_floor() {
        let mut rng = SimRng::seed_from(17);
        for _ in 0..10_000 {
            assert!(rng.normal_at_least(0.0, 5.0, 1.0) >= 1.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let mut rng = SimRng::seed_from(23);
        let zipf = Zipf::new(10, 0.0).unwrap();
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut rng = SimRng::seed_from(29);
        let zipf = Zipf::new(1000, 1.0).unwrap();
        let mut head = 0u32;
        let n = 100_000;
        for _ in 0..n {
            if zipf.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Under Zipf(1) over 1000 ranks, ranks 0..10 carry ~39% of the mass.
        let frac = head as f64 / n as f64;
        assert!(frac > 0.3, "head fraction {frac}");
    }

    #[test]
    fn zipf_rejects_bad_inputs() {
        assert!(Zipf::new(0, 1.0).is_none());
        assert!(Zipf::new(10, -1.0).is_none());
        assert!(Zipf::new(10, f64::NAN).is_none());
    }
}
