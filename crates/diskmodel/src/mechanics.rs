//! Rotational mechanics helpers shared by the disk and calibration layers.

use mimd_sim::{SimDuration, SimTime};

// The exact helpers below replace `rem_euclid`, `round` and `ceil`, which
// are libm calls on baseline x86-64, with one truncating conversion
// (`cvttsd2si`) plus exact float arithmetic. Each covers the range its
// callers feed, bit for bit, and sends anything else (huge magnitudes,
// infinities, NaN) to the std operation on a cold path.

/// `2^52`: from here on every `f64` is an integer.
const TWO_52: f64 = 4_503_599_627_370_496.0;
/// `2^63`: the first value an `i64` cannot hold.
const TWO_63: f64 = 9_223_372_036_854_775_808.0;
/// `2^31`.
const TWO_31: f64 = 2_147_483_648.0;

/// `x.rem_euclid(1.0)`, bit for bit, without the `fmod` call.
///
/// For `|x| < 2^52`, `x - trunc(x)` is exact (it keeps the fractional
/// bits), which is what `fmod(x, 1.0)` returns, except that `fmod` keeps
/// the sign of `x` on a zero result: a negative integer or `-0.0` gives
/// `-0.0`, hence the `copysign`.
#[inline]
pub fn frac(x: f64) -> f64 {
    if x.abs() < TWO_52 {
        let r = (x - x as i64 as f64).copysign(x);
        if r < 0.0 {
            r + 1.0
        } else {
            r
        }
    } else {
        frac_cold(x)
    }
}

#[cold]
#[inline(never)]
fn frac_cold(x: f64) -> f64 {
    x.rem_euclid(1.0) // simlint: allow(libm-round) — cold fallback outside the exact range
}

/// `v.round() as u64` (half away from zero), bit for bit, without the
/// `round` call. Exact for `0 <= v < 2^63`: the truncated part is exact
/// and the fraction `v - trunc(v)` is exact, so comparing it with one
/// half decides the tie the same way `round` does (`0.49999999999999994`
/// included, which `(v + 0.5) as u64` gets wrong).
#[inline]
pub fn round_u64(v: f64) -> u64 {
    if (0.0..TWO_63).contains(&v) {
        let t = v as i64;
        (t + i64::from(v - t as f64 >= 0.5)) as u64
    } else {
        round_u64_cold(v)
    }
}

#[cold]
#[inline(never)]
fn round_u64_cold(v: f64) -> u64 {
    v.round() as u64 // simlint: allow(libm-round) — cold fallback outside the exact range
}

/// `v.ceil().max(0.0) as u32`, bit for bit, without the `ceil` call.
/// Exact for `|v| < 2^31`.
#[inline]
pub fn ceil_u32(v: f64) -> u32 {
    if v.abs() < TWO_31 {
        let t = v as i64;
        (t + i64::from((t as f64) < v)).max(0) as u32
    } else {
        ceil_u32_cold(v)
    }
}

#[cold]
#[inline(never)]
fn ceil_u32_cold(v: f64) -> u32 {
    v.ceil().max(0.0) as u32 // simlint: allow(libm-round) — cold fallback outside the exact range
}

/// Reduces an angle to the canonical `[0, 1)` revolution fraction:
/// [`frac`], with the `1.0` that `rem_euclid` returns for tiny negative
/// inputs folded to `0.0`.
///
/// The scheduler's inner loop only ever passes angle *differences* in
/// `(-1, 1)`; for those the fast paths below return what [`frac`] would
/// with at most a single add.
#[inline]
pub fn mod1(x: f64) -> f64 {
    if (0.0..1.0).contains(&x) {
        return x;
    }
    let r = if -1.0 < x && x < 0.0 {
        x + 1.0
    } else {
        frac(x)
    };
    if r >= 1.0 {
        0.0
    } else {
        r
    }
}

/// A constant-speed spindle: maps instants to platter phase.
///
/// Phase 0 is the spindle index mark at `t = 0`. Real spindles drift; the
/// calibration module models drift separately — the service-time path uses
/// this ideal clock, which is what the drive's own servo also presents to
/// the host at the timescale of a single request.
#[derive(Debug, Clone, Copy)]
pub struct Spindle {
    period: SimDuration,
}

impl Spindle {
    /// Creates a spindle with the given rotation period.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn new(period: SimDuration) -> Self {
        assert!(
            period > SimDuration::ZERO,
            "rotation period must be positive"
        );
        Spindle { period }
    }

    /// Full-rotation time.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Platter phase (fraction of a revolution) at instant `t`.
    #[inline]
    pub fn angle_at(&self, t: SimTime) -> f64 {
        let p = self.period.as_nanos();
        (t.as_nanos() % p) as f64 / p as f64
    }

    /// Time to wait from instant `t` until the platter reaches `target`
    /// phase. Zero if the target is exactly under the head.
    #[inline]
    pub fn wait_until_angle(&self, t: SimTime, target: f64) -> SimDuration {
        let delta = mod1(target - self.angle_at(t));
        SimDuration::from_nanos(round_u64(delta * self.period.as_nanos() as f64))
    }

    /// Duration of a rotational arc of `revs` revolutions (`revs >= 0`).
    #[inline]
    pub fn arc(&self, revs: f64) -> SimDuration {
        debug_assert!(revs >= 0.0);
        SimDuration::from_nanos(round_u64(revs * self.period.as_nanos() as f64))
    }
}

/// Decomposition of one physical request's service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceBreakdown {
    /// Fixed command/controller overhead.
    pub overhead: SimDuration,
    /// Arm positioning time (including any write settle).
    pub seek: SimDuration,
    /// Rotational wait for the target to come under the head, including a
    /// full-rotation miss penalty when head tracking mispredicted.
    pub rotation: SimDuration,
    /// Media transfer time, including head switches mid-transfer.
    pub transfer: SimDuration,
    /// Whether a rotational-prediction miss added a full extra revolution.
    pub missed_rotation: bool,
}

impl ServiceBreakdown {
    /// Total service time.
    pub fn total(&self) -> SimDuration {
        self.overhead + self.seek + self.rotation + self.transfer
    }

    /// Positioning time only (seek + rotation), the quantity SATF orders by.
    pub fn positioning(&self) -> SimDuration {
        self.seek + self.rotation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mod1_wraps_both_directions() {
        assert_eq!(mod1(0.25), 0.25);
        assert_eq!(mod1(1.25), 0.25);
        assert_eq!(mod1(-0.25), 0.75);
        assert_eq!(mod1(0.0), 0.0);
        assert_eq!(mod1(3.0), 0.0);
    }

    #[test]
    fn spindle_angle_advances_linearly() {
        let s = Spindle::new(SimDuration::from_millis(6));
        assert_eq!(s.angle_at(SimTime::ZERO), 0.0);
        assert!((s.angle_at(SimTime::from_millis(3)) - 0.5).abs() < 1e-12);
        assert!((s.angle_at(SimTime::from_millis(9)) - 0.5).abs() < 1e-12);
        assert!((s.angle_at(SimTime::from_micros(1_500)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wait_until_angle_is_forward_only() {
        let s = Spindle::new(SimDuration::from_millis(6));
        let t = SimTime::from_millis(3); // Phase 0.5.
        assert_eq!(s.wait_until_angle(t, 0.75), SimDuration::from_micros(1_500));
        // Going "backwards" costs most of a revolution.
        assert_eq!(s.wait_until_angle(t, 0.25), SimDuration::from_micros(4_500));
        assert_eq!(s.wait_until_angle(t, 0.5), SimDuration::ZERO);
    }

    #[test]
    fn arc_scales_with_fraction() {
        let s = Spindle::new(SimDuration::from_millis(6));
        assert_eq!(s.arc(0.5), SimDuration::from_millis(3));
        assert_eq!(s.arc(2.0), SimDuration::from_millis(12));
        assert_eq!(s.arc(0.0), SimDuration::ZERO);
    }

    #[test]
    fn breakdown_totals() {
        let b = ServiceBreakdown {
            overhead: SimDuration::from_micros(500),
            seek: SimDuration::from_micros(2_000),
            rotation: SimDuration::from_micros(1_500),
            transfer: SimDuration::from_micros(250),
            missed_rotation: false,
        };
        assert_eq!(b.total(), SimDuration::from_micros(4_250));
        assert_eq!(b.positioning(), SimDuration::from_micros(3_500));
    }
}
