//! The simulated drive: head state, service-time computation, and the two
//! timing fidelities.
//!
//! The paper's architecture (§3.1, Figure 4) runs the same upper layers
//! against either real SCSI disks or an integrated simulator calibrated
//! from them; Figure 5 validates that the two agree within 3 %. We
//! reproduce that structure with two independently-coded timing paths:
//!
//! - [`TimingPath::Detailed`] — sector-accurate: target angles are
//!   quantised to real sector boundaries on the addressed track, transfer
//!   time uses that zone's sectors-per-track, and head switches during a
//!   transfer are counted exactly.
//! - [`TimingPath::Analytic`] — continuous: angles are taken as given and
//!   transfer time uses the drive-wide average track length.
//!
//! The array engine can run on either; the Figure-5 reproduction runs both
//! and reports the discrepancy.

use mimd_sim::{SimDuration, SimRng, SimTime};

use crate::geometry::Geometry;
use crate::mechanics::{mod1, round_u64, ServiceBreakdown, Spindle};
use crate::params::DiskParams;
use crate::seek::SeekProfile;

/// Which service-time implementation a [`SimDisk`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingPath {
    /// Sector-accurate timing (the "prototype" role in Figure 5).
    Detailed,
    /// Continuous-angle timing (the "simulator" role in Figure 5).
    Analytic,
}

/// How the drive's rotational position is known to the scheduler.
///
/// `Perfect` corresponds to hardware-assisted position knowledge;
/// `Tracked` injects the residual error of the paper's software-only
/// head-tracking mechanism (§3.2): Gaussian prediction error, and a full
/// extra revolution whenever the error eats the entire rotational wait
/// (a *rotation miss*, Table 2's 0.22 %).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PositionKnowledge {
    /// Predictions are exact.
    Perfect,
    /// Predictions carry Gaussian error.
    Tracked {
        /// Mean prediction error in microseconds (Table 2: ~3 µs).
        mean_error_us: f64,
        /// Standard deviation of prediction error in µs (Table 2: ~31 µs).
        std_error_us: f64,
    },
}

/// A physical access target expressed in positioning terms.
///
/// The array layout computes these from the geometry: a rotational replica
/// "at angle θ on cylinder c" becomes a `Target`. The detailed timing path
/// re-quantises the angle to the owning track's sector grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Target {
    /// Cylinder holding the data.
    pub cylinder: u32,
    /// Surface holding the data.
    pub surface: u32,
    /// Start angle of the transfer, in revolutions.
    pub angle: f64,
    /// Transfer length in sectors.
    pub sectors: u32,
}

/// A simulated disk drive.
///
/// Holds the arm position (`cylinder`) — the rotational position is a pure
/// function of time via the spindle — plus the busy horizon used by the
/// per-disk queues.
///
/// # Examples
///
/// ```
/// use mimd_disk::{DiskParams, PositionKnowledge, SimDisk, Target, TimingPath};
/// use mimd_sim::SimTime;
///
/// let mut d = SimDisk::new(
///     &DiskParams::st39133lwv(),
///     TimingPath::Detailed,
///     PositionKnowledge::Perfect,
///     7,
/// )
/// .unwrap();
/// let t = Target { cylinder: 1000, surface: 0, angle: 0.5, sectors: 16 };
/// let est = d.estimate(SimTime::ZERO, &t, false);
/// let got = d.begin(SimTime::ZERO, &t, false);
/// assert_eq!(est.total(), got.total());
/// assert_eq!(d.arm_cylinder(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct SimDisk {
    geometry: Geometry,
    seek: SeekProfile,
    spindle: Spindle,
    path: TimingPath,
    knowledge: PositionKnowledge,
    head_switch: SimDuration,
    overhead: SimDuration,
    rotation: SimDuration,
    /// `rotation` in nanoseconds, cached for the scheduler's integer cost
    /// comparisons.
    rotation_ns: u64,
    /// `u64::MAX / rotation_ns`: the Barrett-style reciprocal the batched
    /// cost kernel uses for its per-lane `% rotation_ns`. Computed once
    /// here so each kernel call skips the hardware divide.
    rot_recip: u64,
    /// Extra write settle: `seek_write(1) - seek(1)` in nanoseconds, the
    /// head-switch surcharge for writes. Loop-invariant in the kernel.
    write_settle_ns: u64,
    avg_spt: f64,
    arm_cylinder: u32,
    arm_surface: u32,
    /// When true, the drive buffers the track it last read; re-reads from
    /// that track are served at transfer speed with no positioning.
    read_ahead: bool,
    /// The `(cylinder, surface)` whose contents sit in the track buffer.
    buffered_track: Option<(u32, u32)>,
    /// Spindle phase offset in revolutions, fixed at construction;
    /// non-zero models unsynchronised spindles across an array (§2.5).
    phase_offset: f64,
    busy_until: SimTime,
    rng: SimRng,
    /// Fail-slow windows `(from, until, factor)`: operations *started*
    /// inside a window take `factor`× their healthy service time. Empty
    /// (the default) costs one branch per `begin`.
    fail_slow: Vec<(SimTime, SimTime, f64)>,
}

impl SimDisk {
    /// Builds a drive from parameters, with spindle phase offset 0; fails
    /// if the parameters are invalid or the seek curve cannot be fitted.
    pub fn new(
        params: &DiskParams,
        path: TimingPath,
        knowledge: PositionKnowledge,
        seed: u64,
    ) -> Result<Self, String> {
        let seek = SeekProfile::fit(params)?;
        let geometry = Geometry::new(params);
        Ok(Self::with_parts(
            params, geometry, seek, path, knowledge, seed, 0.0,
        ))
    }

    /// Builds a drive from a pre-fitted seek profile and geometry.
    ///
    /// An array builds these once and clones them per disk — the profile's
    /// lookup tables are `Arc`-shared, and the expensive numeric fit runs a
    /// single time instead of once per spindle. `geometry` and `seek` must
    /// have been derived from this same `params`.
    ///
    /// `phase_offset` is the spindle's phase in revolutions. All
    /// [`SimDisk`]s share the simulation clock, which makes their spindles
    /// implicitly synchronised; give each a random offset to model the
    /// unsynchronised spindles of commodity arrays (§2.5). The offset never
    /// changes afterwards, so phases derived from it
    /// ([`SimDisk::sched_phase`]) may be memoised for the disk's lifetime.
    pub fn with_parts(
        params: &DiskParams,
        geometry: Geometry,
        seek: SeekProfile,
        path: TimingPath,
        knowledge: PositionKnowledge,
        seed: u64,
        phase_offset: f64,
    ) -> Self {
        let rotation = params.rotation_time();
        let rotation_ns = rotation.as_nanos();
        let write_settle_ns = seek.seek_write(1).saturating_sub(seek.seek(1)).as_nanos();
        SimDisk {
            avg_spt: geometry.avg_sectors_per_track(),
            geometry,
            seek,
            spindle: Spindle::new(rotation),
            path,
            knowledge,
            head_switch: params.head_switch,
            overhead: params.overhead,
            rotation,
            rotation_ns,
            rot_recip: u64::MAX / rotation_ns.max(1),
            write_settle_ns,
            arm_cylinder: 0,
            arm_surface: 0,
            read_ahead: false,
            buffered_track: None,
            phase_offset: mod1(phase_offset),
            busy_until: SimTime::ZERO,
            rng: SimRng::named(seed, "disk-head"),
            fail_slow: Vec::new(),
        }
    }

    /// Adds a fail-slow window: operations started in `[from, until)` take
    /// `factor`× their healthy time. Only the *realised* service stretches —
    /// [`SimDisk::estimate`] keeps reporting healthy timings, so schedulers
    /// retain their normal picture of the drive and steering work away from
    /// a sick disk stays an array-level decision. Windows with non-finite
    /// or non-positive factors are ignored.
    pub fn add_fail_slow(&mut self, from: SimTime, until: SimTime, factor: f64) {
        if factor.is_finite() && factor > 0.0 && until > from {
            self.fail_slow.push((from, until, factor));
        }
    }

    /// The drive's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Full rotation time.
    pub fn rotation_time(&self) -> SimDuration {
        self.rotation
    }

    /// Full rotation time in nanoseconds (cached; hot in the scheduler).
    #[inline]
    pub fn rotation_ns(&self) -> u64 {
        self.rotation_ns
    }

    /// A lower bound, in nanoseconds, on the positioning component
    /// ([`ServiceBreakdown::positioning`]) that [`SimDisk::estimate`] would
    /// report for a target `distance` cylinders from the arm: the read seek
    /// alone, before any rotational wait. Write settle only adds time, so
    /// it bounds both directions.
    ///
    /// Exactness matters — the SATF scan and the replica choice skip
    /// candidates whose bound already reaches the incumbent, which only
    /// preserves the pick when the bound never overshoots. A track-buffer
    /// hit (positioning 0) always lies at distance 0, where the bound is 0
    /// too. Monotone in `distance` (the seek curve is), which is what lets
    /// a band index bound whole cylinder bands and visit them in
    /// ascending-bound order.
    #[inline]
    pub fn seek_bound_ns(&self, distance: u32) -> u64 {
        if distance == 0 {
            0
        } else {
            self.seek.seek_ns(distance)
        }
    }

    /// Current arm cylinder.
    pub fn arm_cylinder(&self) -> u32 {
        self.arm_cylinder
    }

    /// Current arm surface (the head last used).
    pub fn arm_surface(&self) -> u32 {
        self.arm_surface
    }

    /// Earliest instant at which the drive can start a new request.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Enables or disables the drive's track read-ahead buffer.
    ///
    /// Period drives buffered the remainder of the track they had just
    /// read; a subsequent read from the same track is then served from the
    /// buffer at transfer speed, with no seek or rotational wait. Off by
    /// default to keep the paper's mechanical-positioning experiments
    /// undiluted; the read-ahead ablation turns it on.
    pub fn set_read_ahead(&mut self, enabled: bool) {
        self.read_ahead = enabled;
        if !enabled {
            self.buffered_track = None;
        }
    }

    /// Platter phase at instant `t` (including this disk's phase offset).
    pub fn angle_at(&self, t: SimTime) -> f64 {
        mod1(self.spindle.angle_at(t) + self.phase_offset)
    }

    /// Effective start angle and transfer time of a target, resolved
    /// together: on the detailed path one zone lookup and one sector
    /// quantisation serve both (they are the estimate's dominant cost).
    fn angle_and_transfer(&self, target: &Target) -> (f64, SimDuration) {
        if self.path == TimingPath::Detailed {
            if let Some((angle, sector, spt)) =
                self.geometry
                    .quantise_angle(target.cylinder, target.surface, target.angle)
            {
                let media = self.spindle.arc(target.sectors as f64 / spt as f64);
                let switches =
                    (sector as u64 + target.sectors.saturating_sub(1) as u64) / spt as u64;
                return (angle, media + self.head_switch * switches);
            }
        }
        // Analytic path, or a target outside the geometry (falls back to
        // the continuous angle and the generic transfer estimate).
        (mod1(target.angle), self.transfer_time(target))
    }

    /// Transfer time for `sectors` starting at the effective angle.
    fn transfer_time(&self, target: &Target) -> SimDuration {
        let spt = match self.path {
            TimingPath::Analytic => self.avg_spt,
            TimingPath::Detailed => self
                .geometry
                .sectors_per_track(target.cylinder)
                .unwrap_or(self.avg_spt as u32) as f64,
        };
        let media = self.spindle.arc(target.sectors as f64 / spt);
        let switches = match self.path {
            // simlint: allow(libm-round) — analytic path only; the detailed per-request path never gets here
            TimingPath::Analytic => ((target.sectors as f64 - 1.0) / spt).floor() as u64,
            TimingPath::Detailed => {
                let sector = self
                    .geometry
                    .sector_at_angle(target.cylinder, target.surface, target.angle)
                    .unwrap_or(0) as u64;
                (sector + target.sectors.saturating_sub(1) as u64) / spt as u64
            }
        };
        media + self.head_switch * switches
    }

    /// Mechanical repositioning time to reach a target track: a seek when
    /// the cylinder changes, a head switch when only the surface does, and
    /// the write settle whenever the heads reposition before a write.
    #[inline]
    fn positioning_time(&self, target: &Target, write: bool) -> SimDuration {
        let distance = self.arm_cylinder.abs_diff(target.cylinder);
        if distance > 0 {
            if write {
                self.seek.seek_write(distance)
            } else {
                self.seek.seek(distance)
            }
        } else if target.surface != self.arm_surface {
            let settle = if write {
                // The write-settle penalty, recovered from the profile.
                self.seek.seek_write(1).saturating_sub(self.seek.seek(1))
            } else {
                SimDuration::ZERO
            };
            self.head_switch + settle
        } else {
            SimDuration::ZERO
        }
    }

    fn estimate_inner(
        &self,
        start: SimTime,
        target: &Target,
        write: bool,
        overhead: SimDuration,
    ) -> ServiceBreakdown {
        if !write
            && self.read_ahead
            && self.buffered_track == Some((target.cylinder, target.surface))
        {
            // Track-buffer hit: data streams from the drive's cache.
            return ServiceBreakdown {
                overhead,
                seek: SimDuration::ZERO,
                rotation: SimDuration::ZERO,
                transfer: self.transfer_time(target),
                missed_rotation: false,
            };
        }
        let seek = self.positioning_time(target, write);
        let arrive = start + overhead + seek;
        let (angle, transfer) = self.angle_and_transfer(target);
        // `wait_until_angle` works in absolute spindle phase; fold the
        // per-disk phase offset into the target.
        let rotation = self
            .spindle
            .wait_until_angle(arrive, self.target_phase(angle));
        ServiceBreakdown {
            overhead,
            seek,
            rotation,
            transfer,
            missed_rotation: false,
        }
    }

    /// Predicts the service breakdown for starting `target` at `start`,
    /// without changing drive state. Deterministic: this is what the
    /// schedulers (SATF/RSATF/RLOOK replica choice) rank candidates by.
    pub fn estimate(&self, start: SimTime, target: &Target, write: bool) -> ServiceBreakdown {
        self.estimate_inner(start, target, write, self.overhead)
    }

    /// The scheduler's view of [`SimDisk::estimate`]: `(positioning,
    /// rotation)` in nanoseconds, skipping the transfer-time computation
    /// that candidate ranking never reads. Agrees exactly with
    /// `estimate(start, target, write)`'s `positioning()` and `rotation`.
    #[inline]
    pub fn sched_cost_ns(&self, start: SimTime, target: &Target, write: bool) -> (u64, u64) {
        if !write
            && self.read_ahead
            && self.buffered_track == Some((target.cylinder, target.surface))
        {
            return (0, 0); // Track-buffer hit: no positioning at all.
        }
        let seek = self.positioning_time(target, write);
        let arrive = start + self.overhead + seek;
        let rotation = self
            .spindle
            .wait_until_angle(arrive, self.sched_phase(target));
        ((seek + rotation).as_nanos(), rotation.as_nanos())
    }

    /// The effective spindle phase at which `target`'s first sector passes
    /// under the head: the quantised track angle with this disk's phase
    /// offset folded in. It depends only on the target, the geometry and
    /// the offset fixed at construction, never on the clock or the arm, so
    /// index structures may compute it once per queued candidate and reuse
    /// it across picks for as long as the disk lives.
    #[inline]
    pub fn sched_phase(&self, target: &Target) -> f64 {
        let angle = if self.path == TimingPath::Detailed {
            match self
                .geometry
                .quantise_angle(target.cylinder, target.surface, target.angle)
            {
                Some((angle, _, _)) => angle,
                None => mod1(target.angle),
            }
        } else {
            mod1(target.angle)
        };
        self.target_phase(angle)
    }

    /// Batched [`SimDisk::sched_cost_ns`] over struct-of-arrays candidate
    /// lanes: cylinder distance from the current arm position, target
    /// surface, write flag (0/1), and memoised effective phase (from
    /// [`SimDisk::sched_phase`]). Writes the `(positioning, rotation)`
    /// nanosecond pair into `pos_out`/`rot_out`.
    ///
    /// Every lane is bit-identical to the scalar call: the seek comes from
    /// the same LUTs (`seek_write_ns` or `seek_ns`, selected per lane), the
    /// arrival fold uses the same saturating adds, and the rotation wait
    /// reduces the phase delta with the same arithmetic `mod1` (two
    /// selects — the delta of two `[0, 1)` phases always lies in `(-1, 1)`)
    /// before the same [`round_u64`]. The loop body is select-based and
    /// makes no call: the rounding is a truncating conversion, and only its
    /// cold out-of-range fallback calls libm. It does not auto-vectorize:
    /// the reduction's correction loop and the 128-bit multiply keep it
    /// scalar.
    ///
    /// Track read-ahead is exact too. [`SimDisk::begin`] moves the arm and
    /// fills the buffer from the same target, and writes and
    /// [`SimDisk::set_read_ahead`]`(false)` empty it, so the buffered track
    /// always lies under the arm. A hit is therefore a read lane at
    /// distance 0 on the buffered surface; one pass after the main loop
    /// zeroes those lanes, as the scalar call does.
    ///
    /// # Panics
    ///
    /// Panics if the lanes differ in length; debug-asserts that the
    /// buffered track is on the arm's cylinder.
    #[allow(clippy::too_many_arguments)] // flat SoA lanes are the point of the batch API
    pub fn sched_cost_batch(
        &self,
        start: SimTime,
        dist: &[u32],
        surface: &[u32],
        write: &[u8],
        phase: &[f64],
        pos_out: &mut [u64],
        rot_out: &mut [u64],
    ) {
        let n = dist.len();
        assert!(
            surface.len() == n
                && write.len() == n
                && phase.len() == n
                && pos_out.len() == n
                && rot_out.len() == n,
            "sched_cost_batch lane length mismatch"
        );
        // Hoisted per-pick scalars: everything the scalar path re-derives
        // per candidate.
        let base_ns = (start + self.overhead).as_nanos();
        let p = self.rotation_ns;
        let pf = p as f64;
        let arm_surface = self.arm_surface;
        let hs_ns = self.head_switch.as_nanos();
        let settle_ns = self.write_settle_ns;
        // Barrett-style reciprocal for the per-lane `% p`: one u128
        // multiply-high replaces a hardware divide the compiler cannot
        // strength-reduce (p is loop-invariant but not a constant).
        // `recip <= 2^64 / p` makes the estimated quotient an
        // underestimate by at most 2, so the correction loop below runs at
        // most twice and the remainder is *exactly* `arrive % p`.
        let recip = self.rot_recip;

        // Pass 1: the seek lane, into `pos_out`.
        for i in 0..n {
            pos_out[i] = if write[i] != 0 {
                self.seek.seek_write_ns(dist[i])
            } else {
                self.seek.seek_ns(dist[i])
            };
        }

        // Pass 2: zero-distance repositioning fix-up, rotation wait, and
        // the positioning sum — all selects, no branches.
        for i in 0..n {
            let zero_dist = dist[i] == 0;
            let switch = if surface[i] != arm_surface {
                hs_ns + if write[i] != 0 { settle_ns } else { 0 }
            } else {
                0
            };
            let seek = if zero_dist { switch } else { pos_out[i] };
            let arrive = base_ns.saturating_add(seek);
            let q = ((arrive as u128 * recip as u128) >> 64) as u64;
            let mut rem = arrive - q * p;
            while rem >= p {
                rem -= p;
            }
            debug_assert_eq!(rem, arrive % p);
            let angle = rem as f64 / pf;
            let delta = phase[i] - angle;
            let delta = if delta < 0.0 { delta + 1.0 } else { delta };
            let delta = if delta >= 1.0 { 0.0 } else { delta };
            let rot = round_u64(delta * pf);
            pos_out[i] = seek.saturating_add(rot);
            rot_out[i] = rot;
        }

        // Pass 3: track-buffer hits cost nothing.
        if let (true, Some((cylinder, buffered))) = (self.read_ahead, self.buffered_track) {
            debug_assert_eq!(
                cylinder, self.arm_cylinder,
                "the buffered track lies under the arm"
            );
            for i in 0..n {
                if dist[i] == 0 && surface[i] == buffered && write[i] == 0 {
                    pos_out[i] = 0;
                    rot_out[i] = 0;
                }
            }
        }
    }

    /// The largest cylinder distance whose read seek fits in `budget_ns`:
    /// [`SeekProfile::max_dist_within_ns`] for this drive's fitted curve.
    /// `d > max_seek_dist_within_ns(c)` holds exactly when
    /// [`SimDisk::seek_bound_ns`]`(d) > c`.
    #[inline]
    pub fn max_seek_dist_within_ns(&self, budget_ns: u64) -> u32 {
        self.seek.max_dist_within_ns(budget_ns)
    }

    /// Raw spindle phase at the earliest arrival a candidate with seek
    /// bound `seek_bound_ns` can manage: `now + overhead + bound`. This is
    /// the reference point for rotational lower bounds — for any candidate
    /// whose seek is at least the bound, `positioning >= bound +
    /// mod1(sched_phase - floor) * rotation` (first-hit times are monotone
    /// in the arrival instant). Raw, not offset-adjusted: effective phases
    /// from [`SimDisk::sched_phase`] already fold the offset in.
    #[inline]
    pub fn arrival_phase_floor(&self, now: SimTime, seek_bound_ns: u64) -> f64 {
        self.spindle
            .angle_at(now + self.overhead + SimDuration::from_nanos(seek_bound_ns))
    }

    /// Hoists the `now`-dependent parts of [`SimDisk::arrival_phase_floor`]
    /// so a band walk can take one floor per band without a hardware
    /// division each time. [`PhaseFloorRuler::floor`] is bit-identical to
    /// `arrival_phase_floor(now, b)` for every `b`.
    #[inline]
    pub fn phase_floor_ruler(&self, now: SimTime) -> PhaseFloorRuler {
        let p = self.spindle.period().as_nanos();
        debug_assert_eq!(p, self.rotation_ns);
        PhaseFloorRuler {
            t0_ns: (now + self.overhead).as_nanos(),
            p,
            pf: p as f64,
            recip: self.rot_recip,
        }
    }

    /// Folds the per-disk phase offset into an effective target angle
    /// (already reduced to `[0, 1)`). The zero-offset fast path skips a
    /// `rem_euclid` division and is value-exact: `angle - 0.0 == angle`
    /// and `mod1` is the identity on `[0, 1)`.
    #[inline]
    fn target_phase(&self, angle: f64) -> f64 {
        if self.phase_offset == 0.0 {
            angle
        } else {
            mod1(angle - self.phase_offset)
        }
    }

    /// Like [`SimDisk::estimate`], but without the per-command overhead:
    /// used for the follow-on replica writes of a single multi-replica
    /// write command (§3.4's foreground propagation).
    pub fn estimate_chained(
        &self,
        start: SimTime,
        target: &Target,
        write: bool,
    ) -> ServiceBreakdown {
        self.estimate_inner(start, target, write, SimDuration::ZERO)
    }

    fn begin_inner(
        &mut self,
        start: SimTime,
        target: &Target,
        write: bool,
        overhead: SimDuration,
    ) -> ServiceBreakdown {
        let b = self.estimate_inner(start, target, write, overhead);
        self.commit(b, start, target, write)
    }

    /// The mutating half of [`SimDisk::begin_inner`]: takes the prediction
    /// for `(start, target, write)` and commits it — rolls the
    /// head-tracking error, applies fail-slow inflation, moves the arm,
    /// and advances the busy horizon.
    fn commit(
        &mut self,
        mut b: ServiceBreakdown,
        start: SimTime,
        target: &Target,
        write: bool,
    ) -> ServiceBreakdown {
        if let PositionKnowledge::Tracked {
            mean_error_us,
            std_error_us,
        } = self.knowledge
        {
            // The scheduler believed the rotational wait was b.rotation; the
            // true platter position differs by a Gaussian error. A positive
            // error means the platter is ahead of the prediction: the wait
            // shrinks, and if it shrinks through zero the sector has already
            // passed and a full extra revolution is paid (§3.2).
            let err =
                SimDuration::from_micros_f64(self.rng.normal(mean_error_us, std_error_us).abs());
            let ahead = self.rng.chance(0.5);
            if ahead {
                if err > b.rotation {
                    b.rotation = b.rotation + self.rotation - err;
                    b.missed_rotation = true;
                } else {
                    b.rotation -= err;
                }
            } else {
                b.rotation += err;
            }
        }
        if !self.fail_slow.is_empty() {
            // Fail-slow: inflate every realised component by the product of
            // the open windows (overlaps compound). The busy horizon below
            // commits the stretched total, so queueing behind a sick disk
            // degrades exactly as the inflation says it should.
            let mut f = 1.0;
            for &(from, until, factor) in &self.fail_slow {
                if start >= from && start < until {
                    f *= factor;
                }
            }
            if f != 1.0 {
                b.overhead = b.overhead.mul_f64(f);
                b.seek = b.seek.mul_f64(f);
                b.rotation = b.rotation.mul_f64(f);
                b.transfer = b.transfer.mul_f64(f);
            }
        }
        self.arm_cylinder = target.cylinder;
        self.arm_surface = target.surface;
        self.busy_until = start + b.total();
        if self.read_ahead {
            // Reads fill the buffer with their track; writes invalidate it
            // (the buffered image may now be stale).
            self.buffered_track = if write {
                None
            } else {
                Some((target.cylinder, target.surface))
            };
        }
        b
    }

    /// Starts servicing `target` at `start`, committing arm movement and
    /// the busy horizon, and (under [`PositionKnowledge::Tracked`]) rolling
    /// the head-tracking prediction error.
    ///
    /// Returns the realised breakdown; the request completes at
    /// `start + breakdown.total()`.
    pub fn begin(&mut self, start: SimTime, target: &Target, write: bool) -> ServiceBreakdown {
        self.begin_inner(start, target, write, self.overhead)
    }

    /// [`SimDisk::estimate`] and [`SimDisk::begin`] fused into one call:
    /// returns `(predicted, realised)`, with `predicted` bit-identical to
    /// a separate `estimate(start, target, write)` and `realised`
    /// bit-identical to the `begin(start, target, write)` that would have
    /// followed it. The dispatch path needs both views of every command;
    /// fusing them runs the shared seek/quantise/rotation prediction once.
    pub fn begin_with_estimate(
        &mut self,
        start: SimTime,
        target: &Target,
        write: bool,
    ) -> (ServiceBreakdown, ServiceBreakdown) {
        let predicted = self.estimate_inner(start, target, write, self.overhead);
        (predicted, self.commit(predicted, start, target, write))
    }

    /// Like [`SimDisk::begin`], but without the per-command overhead (the
    /// follow-on writes of one multi-replica command).
    pub fn begin_chained(
        &mut self,
        start: SimTime,
        target: &Target,
        write: bool,
    ) -> ServiceBreakdown {
        self.begin_inner(start, target, write, SimDuration::ZERO)
    }

    /// Reports position knowledge mode (used by experiment printouts).
    pub fn knowledge(&self) -> PositionKnowledge {
        self.knowledge
    }
}

/// See [`SimDisk::phase_floor_ruler`]. The Barrett step underestimates the
/// quotient by at most 2, so the correction loop runs at most twice and the
/// remainder is exact; the final divide is then the same f64 operation
/// [`SimDisk::arrival_phase_floor`] performs, making `floor` bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct PhaseFloorRuler {
    t0_ns: u64,
    p: u64,
    pf: f64,
    recip: u64,
}

impl PhaseFloorRuler {
    /// `arrival_phase_floor(now, seek_bound_ns)` for the hoisted `now`.
    #[inline]
    pub fn floor(&self, seek_bound_ns: u64) -> f64 {
        let t = self.t0_ns.saturating_add(seek_bound_ns);
        let q = ((t as u128 * self.recip as u128) >> 64) as u64;
        let mut rem = t - q * self.p;
        while rem >= self.p {
            rem -= self.p;
        }
        debug_assert_eq!(rem, t % self.p);
        rem as f64 / self.pf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(path: TimingPath) -> SimDisk {
        disk_at_phase(path, 0.0)
    }

    /// A drive whose spindle runs `offset` revolutions out of phase.
    fn disk_at_phase(path: TimingPath, offset: f64) -> SimDisk {
        let p = DiskParams::st39133lwv();
        SimDisk::with_parts(
            &p,
            Geometry::new(&p),
            SeekProfile::fit(&p).unwrap(),
            path,
            PositionKnowledge::Perfect,
            42,
            offset,
        )
    }

    #[test]
    fn estimate_matches_begin_under_perfect_knowledge() {
        let mut d = disk(TimingPath::Detailed);
        let t = Target {
            cylinder: 2_000,
            surface: 3,
            angle: 0.7,
            sectors: 8,
        };
        let est = d.estimate(SimTime::from_millis(1), &t, false);
        let got = d.begin(SimTime::from_millis(1), &t, false);
        assert_eq!(est, got);
        assert!(!got.missed_rotation);
    }

    #[test]
    fn sched_cost_matches_estimate_exactly() {
        for path in [TimingPath::Detailed, TimingPath::Analytic] {
            let d = disk_at_phase(path, 0.37);
            for i in 0..500u64 {
                let t = Target {
                    cylinder: ((i * 131) % 9_000) as u32,
                    surface: (i % 12) as u32,
                    angle: (i as f64 * 0.618).rem_euclid(1.0),
                    sectors: 1 + (i % 64) as u32,
                };
                let start = SimTime::from_micros(i * 977);
                for write in [false, true] {
                    let est = d.estimate(start, &t, write);
                    let (pos, rot) = d.sched_cost_ns(start, &t, write);
                    assert_eq!(pos, est.positioning().as_nanos(), "{path:?} i={i}");
                    assert_eq!(rot, est.rotation.as_nanos(), "{path:?} i={i}");
                }
            }
        }
    }

    #[test]
    fn sched_cost_matches_estimate_on_buffer_hits() {
        let mut d = disk(TimingPath::Detailed);
        d.set_read_ahead(true);
        let t = Target {
            cylinder: 500,
            surface: 2,
            angle: 0.3,
            sectors: 16,
        };
        let _ = d.begin(SimTime::ZERO, &t, false);
        let now = d.busy_until();
        let est = d.estimate(now, &t, false);
        let (pos, rot) = d.sched_cost_ns(now, &t, false);
        assert_eq!(pos, est.positioning().as_nanos());
        assert_eq!(rot, est.rotation.as_nanos());
        assert_eq!(pos, 0);
    }

    /// Splitmix-style generator for the property tests below: cheap,
    /// deterministic, and independent of the simulator's own RNG streams.
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    #[test]
    fn sched_cost_batch_matches_scalar_randomized() {
        for path in [TimingPath::Detailed, TimingPath::Analytic] {
            let mut d = disk_at_phase(path, 0.37);
            let cyls = d.geometry().total_cylinders();
            let surfaces = d.geometry().surfaces();
            let mut x = 1234u64;
            // Several arm positions: zero-distance and surface-switch lanes
            // only exercise their select arms when the arm actually sits on
            // the lane's cylinder/surface.
            for round in 0..8u64 {
                let park = Target {
                    cylinder: (mix(&mut x) % u64::from(cyls)) as u32,
                    surface: (mix(&mut x) % u64::from(surfaces)) as u32,
                    angle: (round as f64) / 8.0,
                    sectors: 8,
                };
                let _ = d.begin(SimTime::from_millis(round), &park, false);
                let now = d.busy_until();
                let arm = d.arm_cylinder();
                let mut dist = Vec::new();
                let mut surface = Vec::new();
                let mut write = Vec::new();
                let mut phase = Vec::new();
                let mut targets = Vec::new();
                // Edge distances first: 0, 1, the largest tabulated seek
                // distance, and one past the table (the analytic fallback),
                // each as a read and as a write.
                for d_edge in [0, 1, cyls - 1, cyls] {
                    for w in [false, true] {
                        let t = Target {
                            cylinder: arm + d_edge,
                            surface: d.arm_surface(),
                            angle: (mix(&mut x) % 10_000) as f64 / 10_000.0,
                            sectors: 8,
                        };
                        dist.push(d_edge);
                        surface.push(t.surface);
                        write.push(u8::from(w));
                        phase.push(d.sched_phase(&t));
                        targets.push((t, w));
                    }
                }
                for i in 0..257 {
                    let t = Target {
                        // Mix in exact-arm lanes so dist == 0 occurs.
                        cylinder: if i % 17 == 0 {
                            arm
                        } else {
                            (mix(&mut x) % u64::from(cyls)) as u32
                        },
                        surface: if i % 5 == 0 {
                            d.arm_surface()
                        } else {
                            (mix(&mut x) % u64::from(surfaces)) as u32
                        },
                        angle: (mix(&mut x) % 10_000) as f64 / 10_000.0,
                        sectors: 1 + (mix(&mut x) % 64) as u32,
                    };
                    let w = i % 3 == 0;
                    dist.push(arm.abs_diff(t.cylinder));
                    surface.push(t.surface);
                    write.push(u8::from(w));
                    phase.push(d.sched_phase(&t));
                    targets.push((t, w));
                }
                let n = targets.len();
                let mut pos = vec![0u64; n];
                let mut rot = vec![0u64; n];
                d.sched_cost_batch(now, &dist, &surface, &write, &phase, &mut pos, &mut rot);
                for (i, (t, w)) in targets.iter().enumerate() {
                    let (sp, sr) = d.sched_cost_ns(now, t, *w);
                    assert_eq!(
                        (pos[i], rot[i]),
                        (sp, sr),
                        "{path:?} round={round} lane={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn sched_cost_batch_write_settle_path_matches_scalar() {
        // All-write lanes route the seek pass through `seek_write_ns`
        // (settle included) and surface switches add the write settle on
        // top of the head switch; every lane must still match the scalar
        // call bit-for-bit, and switching surfaces on a write must never
        // be cheaper than the same read switch.
        let mut d = disk(TimingPath::Detailed);
        let park = Target {
            cylinder: 4_000,
            surface: 1,
            angle: 0.25,
            sectors: 8,
        };
        let _ = d.begin(SimTime::ZERO, &park, false);
        let now = d.busy_until();
        let arm = d.arm_cylinder();
        let mut x = 77u64;
        let n = 128usize;
        let (mut dist, mut surface, mut phase, mut targets) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for i in 0..n {
            let t = Target {
                cylinder: if i % 7 == 0 {
                    arm
                } else {
                    (mix(&mut x) % 9_000) as u32
                },
                surface: (i % d.geometry().surfaces() as usize) as u32,
                angle: (mix(&mut x) % 10_000) as f64 / 10_000.0,
                sectors: 8,
            };
            dist.push(arm.abs_diff(t.cylinder));
            surface.push(t.surface);
            phase.push(d.sched_phase(&t));
            targets.push(t);
        }
        let writes = vec![1u8; n];
        let reads = vec![0u8; n];
        let mut wpos = vec![0u64; n];
        let mut wrot = vec![0u64; n];
        let mut rpos = vec![0u64; n];
        let mut rrot = vec![0u64; n];
        d.sched_cost_batch(now, &dist, &surface, &writes, &phase, &mut wpos, &mut wrot);
        d.sched_cost_batch(now, &dist, &surface, &reads, &phase, &mut rpos, &mut rrot);
        for (i, t) in targets.iter().enumerate() {
            let (sp, sr) = d.sched_cost_ns(now, t, true);
            assert_eq!((wpos[i], wrot[i]), (sp, sr), "write lane {i}");
            let (sp, sr) = d.sched_cost_ns(now, t, false);
            assert_eq!((rpos[i], rrot[i]), (sp, sr), "read lane {i}");
        }
    }

    #[test]
    fn sched_cost_batch_matches_scalar_across_read_ahead_boundary() {
        // With the buffer on, the kernel serves exactly the buffered
        // (cylinder, surface) read for free and charges full positioning
        // for a write to that track and for reads one surface or one
        // cylinder over. With the buffer off again, it still matches the
        // scalar call lane for lane.
        let mut d = disk(TimingPath::Detailed);
        d.set_read_ahead(true);
        let t = Target {
            cylinder: 500,
            surface: 2,
            angle: 0.3,
            sectors: 16,
        };
        let _ = d.begin(SimTime::ZERO, &t, false);
        let now = d.busy_until();
        let next_surface = Target { surface: 3, ..t };
        let next_cyl = Target { cylinder: 501, ..t };
        let probes = [
            (t, false),
            (t, true),
            (next_surface, false),
            (next_cyl, false),
        ];
        let kernel = |d: &SimDisk| {
            let dist: Vec<u32> = probes
                .iter()
                .map(|(p, _)| d.arm_cylinder().abs_diff(p.cylinder))
                .collect();
            let surface: Vec<u32> = probes.iter().map(|(p, _)| p.surface).collect();
            let write: Vec<u8> = probes.iter().map(|&(_, w)| u8::from(w)).collect();
            let phase: Vec<f64> = probes.iter().map(|(p, _)| d.sched_phase(p)).collect();
            let (mut pos, mut rot) = (vec![0u64; probes.len()], vec![0u64; probes.len()]);
            d.sched_cost_batch(now, &dist, &surface, &write, &phase, &mut pos, &mut rot);
            pos.into_iter().zip(rot).collect::<Vec<_>>()
        };
        let on = kernel(&d);
        assert_eq!(on[0], (0, 0), "buffered track is free");
        for (lane, &(pos, _)) in on.iter().enumerate().skip(1) {
            assert!(pos > 0, "lane {lane} must pay positioning");
        }
        for (lane, (p, w)) in probes.iter().enumerate() {
            assert_eq!(
                on[lane],
                d.sched_cost_ns(now, p, *w),
                "buffer on, lane {lane}"
            );
        }
        d.set_read_ahead(false);
        let off = kernel(&d);
        assert!(off[0].0 > 0, "no buffer, no free read");
        for (lane, (p, w)) in probes.iter().enumerate() {
            assert_eq!(
                off[lane],
                d.sched_cost_ns(now, p, *w),
                "buffer off, lane {lane}"
            );
        }
    }

    #[test]
    fn phase_floor_ruler_is_bit_identical_to_arrival_phase_floor() {
        let d = disk_at_phase(TimingPath::Detailed, 0.61);
        let mut x = 5u64;
        for _ in 0..5_000 {
            let now = SimTime::from_nanos(mix(&mut x) % 400_000_000_000);
            let ruler = d.phase_floor_ruler(now);
            let bound = mix(&mut x) % 40_000_000;
            let a = d.arrival_phase_floor(now, bound);
            let b = ruler.floor(bound);
            assert_eq!(a.to_bits(), b.to_bits(), "now={now:?} bound={bound}");
        }
    }

    #[test]
    fn service_time_components_are_sane() {
        let mut d = disk(TimingPath::Detailed);
        let t = Target {
            cylinder: 3_000,
            surface: 0,
            angle: 0.0,
            sectors: 16,
        };
        let b = d.begin(SimTime::ZERO, &t, false);
        assert!(b.seek >= SimDuration::from_micros(600));
        assert!(b.seek <= SimDuration::from_micros(10_600));
        assert!(b.rotation <= d.rotation_time());
        assert!(b.transfer > SimDuration::ZERO);
        assert_eq!(d.arm_cylinder(), 3_000);
        assert_eq!(d.busy_until(), SimTime::ZERO + b.total());
    }

    #[test]
    fn same_cylinder_access_has_no_seek() {
        let mut d = disk(TimingPath::Detailed);
        let t = Target {
            cylinder: 0,
            surface: 0,
            angle: 0.5,
            sectors: 1,
        };
        let b = d.begin(SimTime::ZERO, &t, false);
        assert_eq!(b.seek, SimDuration::ZERO);
    }

    #[test]
    fn writes_pay_settle() {
        let d = disk(TimingPath::Detailed);
        let t = Target {
            cylinder: 500,
            surface: 0,
            angle: 0.0,
            sectors: 1,
        };
        let r = d.estimate(SimTime::ZERO, &t, false);
        let w = d.estimate(SimTime::ZERO, &t, true);
        assert!(w.seek > r.seek);
    }

    #[test]
    fn rotational_wait_depends_on_start_time() {
        let d = disk(TimingPath::Analytic);
        let t = Target {
            cylinder: 0,
            surface: 0,
            angle: 0.5,
            sectors: 1,
        };
        let b1 = d.estimate(SimTime::ZERO, &t, false);
        let b2 = d.estimate(SimTime::from_micros(1_000), &t, false);
        assert_ne!(b1.rotation, b2.rotation);
        // One millisecond later the wait is one millisecond shorter (mod R).
        let diff = b1.rotation.as_micros_f64() - b2.rotation.as_micros_f64();
        assert!((diff - 1_000.0).abs() < 1.0, "diff {diff}");
    }

    #[test]
    fn detailed_and_analytic_agree_closely_on_singles() {
        let dd = disk(TimingPath::Detailed);
        let da = disk(TimingPath::Analytic);
        let t = Target {
            cylinder: 1_234,
            surface: 2,
            angle: 0.3,
            sectors: 1,
        };
        let bd = dd.estimate(SimTime::ZERO, &t, false);
        let ba = da.estimate(SimTime::ZERO, &t, false);
        assert_eq!(bd.seek, ba.seek);
        // Angles agree to within one sector of quantisation (~28 µs).
        let gap = (bd.rotation.as_micros_f64() - ba.rotation.as_micros_f64()).abs();
        assert!(gap < 6_000.0 / 170.0 + 1.0, "gap {gap}us");
    }

    #[test]
    fn long_transfers_cross_tracks_and_pay_switches() {
        let d = disk(TimingPath::Detailed);
        let spt = d.geometry().sectors_per_track(0).unwrap();
        let short = Target {
            cylinder: 0,
            surface: 0,
            angle: 0.0,
            sectors: spt / 2,
        };
        let long = Target {
            cylinder: 0,
            surface: 0,
            angle: 0.0,
            sectors: spt * 2,
        };
        let bs = d.estimate(SimTime::ZERO, &short, false);
        let bl = d.estimate(SimTime::ZERO, &long, false);
        // The long transfer covers 4x the media plus at least one switch.
        assert!(bl.transfer > bs.transfer * 4);
    }

    #[test]
    fn read_ahead_serves_repeat_track_reads_from_buffer() {
        let mut d = disk(TimingPath::Detailed);
        d.set_read_ahead(true);
        let t = Target {
            cylinder: 500,
            surface: 2,
            angle: 0.3,
            sectors: 16,
        };
        let first = d.begin(SimTime::ZERO, &t, false);
        assert!(first.positioning() > SimDuration::ZERO);
        // Second read of the same track: no positioning at all.
        let again = Target { angle: 0.8, ..t };
        let hit = d.begin(d.busy_until(), &again, false);
        assert_eq!(hit.seek, SimDuration::ZERO);
        assert_eq!(hit.rotation, SimDuration::ZERO);
        assert!(hit.transfer > SimDuration::ZERO);
        // A different track misses the buffer.
        let other = Target { surface: 3, ..t };
        let miss = d.begin(d.busy_until(), &other, false);
        assert!(miss.positioning() > SimDuration::ZERO);
    }

    #[test]
    fn writes_invalidate_the_track_buffer() {
        let mut d = disk(TimingPath::Detailed);
        d.set_read_ahead(true);
        let t = Target {
            cylinder: 500,
            surface: 2,
            angle: 0.3,
            sectors: 16,
        };
        let _ = d.begin(SimTime::ZERO, &t, false);
        let _ = d.begin(d.busy_until(), &t, true); // Write to the track.
        let after = d.begin(d.busy_until(), &t, false);
        assert!(after.positioning() > SimDuration::ZERO, "stale buffer used");
    }

    #[test]
    fn read_ahead_disabled_never_hits() {
        let mut d = disk(TimingPath::Detailed);
        let t = Target {
            cylinder: 500,
            surface: 2,
            angle: 0.3,
            sectors: 16,
        };
        let _ = d.begin(SimTime::ZERO, &t, false);
        let b = d.begin(d.busy_until(), &t, false);
        // Re-reading the just-read sectors costs a near-full revolution.
        assert!(b.rotation > SimDuration::from_millis(4));
    }

    #[test]
    fn tracked_knowledge_produces_rare_misses() {
        let mut d = SimDisk::new(
            &DiskParams::st39133lwv(),
            TimingPath::Detailed,
            PositionKnowledge::Tracked {
                mean_error_us: 3.0,
                std_error_us: 31.0,
            },
            7,
        )
        .unwrap();
        let mut now = SimTime::ZERO;
        let n = 20_000;
        let mut misses = 0;
        for i in 0..n {
            let t = Target {
                cylinder: (i * 37) % 6_000,
                surface: (i % 12),
                angle: (i as f64 * 0.618).rem_euclid(1.0),
                sectors: 8,
            };
            let b = d.begin(now, &t, false);
            misses += u32::from(b.missed_rotation);
            now += b.total();
        }
        let miss_rate = f64::from(misses) / n as f64;
        // Random rotational waits average R/2 = 3000us against ~31us errors:
        // misses happen but rarely (Table 2 reports 0.22% under RSATF, which
        // targets much tighter waits; random targets are rarer still).
        assert!(miss_rate < 0.02, "miss rate {miss_rate}");
    }

    #[test]
    fn begin_with_zero_wait_target_can_miss() {
        // A target placed exactly under the head with Tracked knowledge has
        // a ~50% miss chance (any positive "ahead" error overshoots).
        let mut d = SimDisk::new(
            &DiskParams::st39133lwv(),
            TimingPath::Analytic,
            PositionKnowledge::Tracked {
                mean_error_us: 3.0,
                std_error_us: 31.0,
            },
            11,
        )
        .unwrap();
        let mut misses = 0;
        for i in 0..200 {
            let start = SimTime::from_micros(i * 13);
            let angle = d.angle_at(
                start
                    + d.estimate(
                        start,
                        &Target {
                            cylinder: d.arm_cylinder(),
                            surface: 0,
                            angle: 0.0,
                            sectors: 1,
                        },
                        false,
                    )
                    .overhead,
            );
            let t = Target {
                cylinder: d.arm_cylinder(),
                surface: 0,
                angle,
                sectors: 1,
            };
            let b = d.begin(start, &t, false);
            if b.missed_rotation {
                misses += 1;
            }
        }
        assert!(misses > 20, "expected frequent misses, got {misses}");
    }
}
