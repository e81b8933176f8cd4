//! The seek-time profile and its numeric calibration.
//!
//! Following Ruemmler & Wilkes, seek time is modelled in two regimes: an
//! acceleration-dominated region where time grows with the square root of
//! distance, and a coast region where it is linear ("seek latency is
//! approximately a linear function of seek distance only for long seeks",
//! §2.1). The profile is
//!
//! ```text
//! t(d) = a + b * sqrt(d)            for 1 <= d <= d0
//! t(d) = t(d0) + (b / (2*sqrt(d0))) * (d - d0)   for d > d0
//! ```
//!
//! which is continuous and has a continuous derivative at the regime
//! boundary `d0`. [`SeekProfile::fit`] solves for `(a, b, d0)` numerically
//! so that the profile reproduces a drive's published minimum, average, and
//! maximum seek times — the same calibration the paper's prototype performs
//! against live hardware (§3.2).

use std::cell::RefCell;
use std::sync::Arc;

use mimd_sim::SimDuration;

use crate::params::DiskParams;

/// Most distinct drive models a process plausibly simulates; beyond it the
/// memo stops growing and extra models just refit.
const FIT_CACHE_CAP: usize = 16;

// simlint: shard-local(per-thread fit memo; value-transparent — a refit returns bit-identical tables. The engine fits once on the conductor thread and Arc-shares into shards, so shard workers never refit)
thread_local! {
    /// Per-thread memo for [`SeekProfile::fit`]: `(params, fitted profile)`
    /// pairs, searched linearly (the list holds a handful of drive models
    /// at most). Thread-local rather than shared so the simulation crates
    /// stay lock-free; each harness worker refits at most once per model.
    // simlint: shard-local(same memo — the fit is a pure function of DiskParams)
    static FIT_CACHE: RefCell<Vec<(DiskParams, SeekProfile)>> = const { RefCell::new(Vec::new()) };
}

/// A calibrated two-regime seek-time curve.
///
/// After calibration the curve is tabulated per cylinder distance, so the
/// scheduler-facing [`SeekProfile::seek`] / [`SeekProfile::seek_write`] hot
/// paths are a single indexed load instead of a `sqrt` and float→duration
/// conversion. The tables are `Arc`-shared: cloning a fitted profile (one
/// per disk in an array) costs two refcount bumps, not half a megabyte.
#[derive(Debug, Clone)]
pub struct SeekProfile {
    /// Intercept of the sqrt regime, in microseconds.
    a_us: f64,
    /// Coefficient of the sqrt regime, in microseconds per sqrt(cylinder).
    b_us: f64,
    /// Regime-boundary distance in cylinders.
    d0: f64,
    /// Total cylinders (domain of the curve).
    cylinders: u32,
    /// Extra settle time for writes, in microseconds.
    write_settle_us: f64,
    /// Read-seek nanoseconds per cylinder distance (`0..cylinders`); empty
    /// only in the throwaway profiles the fit's bisection evaluates.
    lut_ns: Arc<[u64]>,
    /// Write-seek nanoseconds per cylinder distance, settle included.
    lut_write_ns: Arc<[u64]>,
}

impl SeekProfile {
    /// Fits a profile to a drive's published seek figures.
    ///
    /// Solves for the curve that passes through `min_seek` at distance 1 and
    /// `max_seek` at the full stroke, whose *expected* seek time over
    /// uniformly random cylinder pairs equals `avg_seek`. Returns an error
    /// string if the target average is unreachable for the given endpoints
    /// (it must lie between the purely-linear and purely-sqrt extremes).
    ///
    /// # Examples
    ///
    /// ```
    /// use mimd_disk::{DiskParams, SeekProfile};
    ///
    /// let p = DiskParams::st39133lwv();
    /// let s = SeekProfile::fit(&p).unwrap();
    /// let avg = s.expected_random_seek(p.total_cylinders());
    /// assert!((avg.as_millis_f64() - 5.2).abs() < 0.02);
    /// ```
    pub fn fit(params: &DiskParams) -> Result<Self, String> {
        // The fit is pure in `params` but costs ~1ms (80 bisection probes,
        // each a 4000-step numeric integration, then two 7000-entry LUT
        // builds), and simulations are built far more often than new drive
        // models appear. Memoise per thread: same parameters return a clone
        // of the same fitted profile, bit-for-bit.
        if let Some(hit) = FIT_CACHE.with(|c| {
            c.borrow()
                .iter()
                .find(|(p, _)| p == params)
                .map(|(_, s)| s.clone())
        }) {
            return Ok(hit);
        }
        let prof = Self::fit_uncached(params)?;
        FIT_CACHE.with(|c| {
            let mut cache = c.borrow_mut();
            if cache.len() < FIT_CACHE_CAP {
                cache.push((params.clone(), prof.clone()));
            }
        });
        Ok(prof)
    }

    /// The fit itself, bypassing the memo (exposed for cost measurement).
    pub fn fit_uncached(params: &DiskParams) -> Result<Self, String> {
        params.validate()?;
        let c = params.total_cylinders() as f64;
        let min = params.min_seek.as_micros_f64();
        let avg = params.avg_seek.as_micros_f64();
        let max = params.max_seek.as_micros_f64();
        if !(min < avg && avg < max) {
            return Err("seek fit requires min < avg < max".into());
        }

        // For a candidate boundary d0, the endpoint constraints determine a
        // and b in closed form; the expected seek is then evaluated
        // numerically. avg(d0) is monotonically increasing in d0 (more
        // sqrt-like curves bow upward), so bisection applies.
        let solve = |d0: f64| -> (f64, f64) {
            let denom = d0.sqrt() - 1.0 + (c - d0) / (2.0 * d0.sqrt());
            let b = (max - min) / denom;
            let a = min - b;
            (a, b)
        };
        let avg_of = |d0: f64| -> f64 {
            let (a, b) = solve(d0);
            let prof = SeekProfile::analytic(a, b, d0, params.total_cylinders(), 0.0);
            prof.numeric_expected_random_seek_us(c)
        };

        let mut lo = 1.5;
        let mut hi = c - 1.0;
        let (avg_lo, avg_hi) = (avg_of(lo), avg_of(hi));
        if avg < avg_lo - 1.0 || avg > avg_hi + 1.0 {
            return Err(format!(
                "average seek {avg:.0}us unreachable; fit range is [{avg_lo:.0}, {avg_hi:.0}]us"
            ));
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if avg_of(mid) < avg {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let d0 = 0.5 * (lo + hi);
        let (a, b) = solve(d0);
        if b <= 0.0 || a < 0.0 {
            return Err("fit produced a non-physical curve".into());
        }
        let mut prof = SeekProfile::analytic(
            a,
            b,
            d0,
            params.total_cylinders(),
            params.write_settle.as_micros_f64(),
        );
        prof.build_luts();
        Ok(prof)
    }

    /// A curve without lookup tables; [`Self::seek`] falls back to the
    /// analytic formula. Used for the fit's throwaway bisection probes.
    fn analytic(a_us: f64, b_us: f64, d0: f64, cylinders: u32, write_settle_us: f64) -> Self {
        SeekProfile {
            a_us,
            b_us,
            d0,
            cylinders,
            write_settle_us,
            lut_ns: Arc::from(Vec::new()),
            lut_write_ns: Arc::from(Vec::new()),
        }
    }

    /// Tabulates the curve per cylinder distance. Entries reproduce the
    /// analytic path bit-for-bit: each is exactly what
    /// `SimDuration::from_micros_f64(time_us(d))` would return.
    fn build_luts(&mut self) {
        let n = self.cylinders as usize;
        let mut read = Vec::with_capacity(n);
        let mut write = Vec::with_capacity(n);
        for d in 0..n {
            let t = self.time_us(d as f64);
            read.push(SimDuration::from_micros_f64(t).as_nanos());
            write.push(if d == 0 {
                0
            } else {
                SimDuration::from_micros_f64(t + self.write_settle_us).as_nanos()
            });
        }
        // Weak monotonicity underwrites `max_dist_within_ns`'s binary
        // search (the analytic curve is strictly increasing; rounding to
        // nanoseconds can only flatten it).
        debug_assert!(read.windows(2).all(|w| w[0] <= w[1]));
        self.lut_ns = Arc::from(read);
        self.lut_write_ns = Arc::from(write);
    }

    fn time_us(&self, distance: f64) -> f64 {
        if distance <= 0.0 {
            return 0.0;
        }
        let d = distance.max(1.0);
        if d <= self.d0 {
            self.a_us + self.b_us * d.sqrt()
        } else {
            let at_d0 = self.a_us + self.b_us * self.d0.sqrt();
            at_d0 + self.b_us / (2.0 * self.d0.sqrt()) * (d - self.d0)
        }
    }

    /// Read-seek time for a cylinder distance.
    #[inline]
    pub fn seek(&self, distance: u32) -> SimDuration {
        match self.lut_ns.get(distance as usize) {
            Some(&ns) => SimDuration::from_nanos(ns),
            None => SimDuration::from_micros_f64(self.time_us(distance as f64)),
        }
    }

    /// Write-seek time: read seek plus the write settle penalty.
    ///
    /// The settle is charged whenever the arm repositions (`distance > 0`);
    /// a zero-distance write pays nothing extra here.
    #[inline]
    pub fn seek_write(&self, distance: u32) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        match self.lut_write_ns.get(distance as usize) {
            Some(&ns) => SimDuration::from_nanos(ns),
            None => {
                SimDuration::from_micros_f64(self.time_us(distance as f64) + self.write_settle_us)
            }
        }
    }

    /// Read-seek nanoseconds for a cylinder distance — the raw table entry,
    /// for callers (the scheduler's candidate scan) that compare costs in
    /// integer nanoseconds without constructing durations.
    #[inline]
    pub fn seek_ns(&self, distance: u32) -> u64 {
        match self.lut_ns.get(distance as usize) {
            Some(&ns) => ns,
            None => self.seek(distance).as_nanos(),
        }
    }

    /// Write-seek nanoseconds for a cylinder distance — the raw write-table
    /// entry (settle included), the integer twin of
    /// [`SeekProfile::seek_write`]. Zero at distance 0, like `seek_write`.
    #[inline]
    pub fn seek_write_ns(&self, distance: u32) -> u64 {
        if distance == 0 {
            return 0;
        }
        match self.lut_write_ns.get(distance as usize) {
            Some(&ns) => ns,
            None => self.seek_write(distance).as_nanos(),
        }
    }

    /// The largest cylinder distance whose read-seek time fits in
    /// `budget_ns` — the inverse of the (weakly monotone) seek curve,
    /// answered by one binary search over the tabulated LUT. Distance 0
    /// always fits (`lut[0] == 0`). Returns `u32::MAX` on an un-tabulated
    /// profile, i.e. "no distance can be ruled out", which is always safe
    /// for callers that use the answer to prune.
    ///
    /// Band indexes use this to turn "skip every band whose seek lower
    /// bound exceeds the incumbent's cost" into a pure integer comparison
    /// per band: `band_min_dist > max_dist_within_ns(cost)` holds exactly
    /// when `seek_ns(band_min_dist) > cost`.
    #[inline]
    pub fn max_dist_within_ns(&self, budget_ns: u64) -> u32 {
        if self.lut_ns.is_empty() {
            return u32::MAX;
        }
        let pp = self.lut_ns.partition_point(|&ns| ns <= budget_ns);
        pp.saturating_sub(1) as u32
    }

    /// The regime-boundary distance found by the fit.
    pub fn boundary(&self) -> f64 {
        self.d0
    }

    /// Expected seek time when both endpoints are uniform over a span of
    /// `span` cylinders (numeric integration against the triangular distance
    /// density `f(x) = 2(span - x) / span^2`).
    ///
    /// With `span` equal to the whole drive this reproduces the drive's
    /// average seek; with `span = C / Ds` it gives the average seek of one
    /// stripe of a `Ds`-way striped layout — the quantity the paper's
    /// Equation (1) approximates as `S / (3 Ds)`.
    pub fn expected_random_seek(&self, span: u32) -> SimDuration {
        SimDuration::from_micros_f64(self.numeric_expected_random_seek_us(span as f64))
    }

    fn numeric_expected_random_seek_us(&self, span: f64) -> f64 {
        if span <= 1.0 {
            return 0.0;
        }
        // Trapezoidal integration of t(x) * 2(span - x)/span^2 over [0, span].
        let steps = 4_000usize;
        let h = span / steps as f64;
        let f = |x: f64| self.time_us(x) * 2.0 * (span - x) / (span * span);
        let mut acc = 0.5 * (f(0.0) + f(span));
        for i in 1..steps {
            acc += f(i as f64 * h);
        }
        acc * h
    }

    /// Maximum (full-stroke) seek time for this profile's domain.
    pub fn max_seek(&self) -> SimDuration {
        self.seek(self.cylinders.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fitted() -> (DiskParams, SeekProfile) {
        let p = DiskParams::st39133lwv();
        let s = SeekProfile::fit(&p).expect("fit succeeds");
        (p, s)
    }

    #[test]
    fn fit_reproduces_published_endpoints() {
        let (p, s) = fitted();
        let min = s.seek(1).as_millis_f64();
        let max = s.seek(p.total_cylinders() - 1).as_millis_f64();
        assert!((min - p.min_seek.as_millis_f64()).abs() < 0.01, "min {min}");
        assert!((max - p.max_seek.as_millis_f64()).abs() < 0.02, "max {max}");
    }

    #[test]
    fn fit_reproduces_published_average() {
        let (p, s) = fitted();
        let avg = s.expected_random_seek(p.total_cylinders()).as_millis_f64();
        assert!((avg - 5.2).abs() < 0.02, "avg {avg}");
    }

    #[test]
    fn seek_zero_distance_is_free() {
        let (_, s) = fitted();
        assert_eq!(s.seek(0), SimDuration::ZERO);
        assert_eq!(s.seek_write(0), SimDuration::ZERO);
    }

    #[test]
    fn max_dist_within_ns_is_dual_to_seek_bound() {
        let (p, s) = fitted();
        let total = p.total_cylinders();
        // `d <= max_dist_within_ns(c)` must hold exactly when
        // `seek_ns(d) <= c`: sample budgets across the whole curve,
        // including exact LUT values (ties) and off-by-one nanoseconds.
        for d in [1u32, 2, 17, 100, 999, total / 2, total - 1] {
            let ns = s.seek_ns(d);
            for budget in [ns.saturating_sub(1), ns, ns + 1] {
                let m = s.max_dist_within_ns(budget);
                assert!(
                    s.seek_ns(m) <= budget,
                    "d={d} budget={budget}: max {m} does not fit"
                );
                if m < total + 8 {
                    assert!(
                        s.seek_ns(m + 1) > budget,
                        "d={d} budget={budget}: max {m} not maximal"
                    );
                }
            }
        }
    }

    #[test]
    fn seek_is_monotone_in_distance() {
        let (p, s) = fitted();
        let mut prev = SimDuration::ZERO;
        for d in [
            1,
            2,
            5,
            10,
            50,
            100,
            500,
            1000,
            3000,
            p.total_cylinders() - 1,
        ] {
            let t = s.seek(d);
            assert!(t > prev, "t({d}) = {t} not increasing");
            prev = t;
        }
    }

    #[test]
    fn write_seek_adds_settle() {
        let (p, s) = fitted();
        let r = s.seek(100);
        let w = s.seek_write(100);
        assert_eq!(w - r, p.write_settle);
    }

    #[test]
    fn striped_span_shrinks_average_seek() {
        let (p, s) = fitted();
        let c = p.total_cylinders();
        let full = s.expected_random_seek(c);
        let half = s.expected_random_seek(c / 2);
        let sixth = s.expected_random_seek(c / 6);
        assert!(half < full);
        assert!(sixth < half);
        // Sub-linear: at short spans the sqrt regime dominates, so a 6x
        // smaller span shrinks the average seek by less than 6x.
        assert!(sixth.as_micros_f64() > full.as_micros_f64() / 6.0);
    }

    #[test]
    fn curve_is_continuous_at_boundary() {
        let (_, s) = fitted();
        let d0 = s.boundary();
        let before = s.time_us(d0 - 0.01);
        let after = s.time_us(d0 + 0.01);
        assert!(
            (before - after).abs() < 1.0,
            "jump at d0: {before} vs {after}"
        );
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        let mut p = DiskParams::st39133lwv();
        p.avg_seek = p.min_seek;
        assert!(SeekProfile::fit(&p).is_err());

        // Average below the linear-curve floor is unreachable.
        let mut p = DiskParams::st39133lwv();
        p.avg_seek = SimDuration::from_micros(1_000);
        assert!(SeekProfile::fit(&p).is_err());
    }

    #[test]
    fn lut_matches_analytic_curve_at_every_distance() {
        // The table is a pure cache: for every representable cylinder
        // distance, the tabulated read and write seeks must equal what the
        // analytic two-regime formula produces, bit for bit.
        for p in [
            DiskParams::st39133lwv(),
            DiskParams::slow_spindle_7200(),
            DiskParams::circa_2004_15k(),
        ] {
            let s = SeekProfile::fit(&p).expect("fit succeeds");
            for d in 0..p.total_cylinders() {
                let analytic_read = SimDuration::from_micros_f64(s.time_us(d as f64));
                assert_eq!(s.seek(d), analytic_read, "{}: read seek({d})", p.model);
                assert_eq!(s.seek_ns(d), analytic_read.as_nanos());
                let analytic_write = if d == 0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_micros_f64(s.time_us(d as f64) + s.write_settle_us)
                };
                assert_eq!(
                    s.seek_write(d),
                    analytic_write,
                    "{}: write seek({d})",
                    p.model
                );
            }
        }
    }

    #[test]
    fn out_of_domain_distances_fall_back_to_analytic() {
        let (p, s) = fitted();
        let beyond = p.total_cylinders() + 10;
        assert_eq!(
            s.seek(beyond),
            SimDuration::from_micros_f64(s.time_us(beyond as f64))
        );
        assert_eq!(s.seek_ns(beyond), s.seek(beyond).as_nanos());
    }

    #[test]
    fn fit_handles_ablation_presets() {
        for p in [DiskParams::slow_spindle_7200(), DiskParams::slow_seek()] {
            let s = SeekProfile::fit(&p).expect("ablation preset fits");
            let avg = s.expected_random_seek(p.total_cylinders());
            let want = p.avg_seek.as_millis_f64();
            assert!(
                (avg.as_millis_f64() - want).abs() < 0.05,
                "avg {avg} vs {want}"
            );
        }
    }
}
