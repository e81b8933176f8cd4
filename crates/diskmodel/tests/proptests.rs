//! Property tests for the mechanical disk model, driven by the
//! deterministic in-repo harness (`mimd_sim::check`).

use mimd_disk::{
    ceil_u32, frac, round_u64, Chs, DiskParams, Geometry, PositionKnowledge, SeekProfile, SimDisk,
    Spindle, Target, TimingPath,
};
use mimd_sim::check::{check_cases, f64_in};
use mimd_sim::{SimDuration, SimTime};

fn geometry() -> Geometry {
    Geometry::new(&DiskParams::st39133lwv())
}

fn disk(path: TimingPath) -> SimDisk {
    SimDisk::new(
        &DiskParams::st39133lwv(),
        path,
        PositionKnowledge::Perfect,
        1,
    )
    .expect("valid params")
}

#[test]
fn lbn_chs_round_trip() {
    check_cases("lbn↔chs round trip", 512, |_, rng| {
        let lbn = rng.below(17_795_292);
        let g = geometry();
        let chs = g.lbn_to_chs(lbn).expect("in range");
        assert!(chs.cylinder < g.total_cylinders());
        assert!(chs.surface < g.surfaces());
        assert_eq!(g.chs_to_lbn(chs).expect("valid"), lbn);
    });
}

#[test]
fn consecutive_lbns_never_move_backward() {
    check_cases("consecutive lbns never move backward", 512, |_, rng| {
        let lbn = rng.below(17_795_000);
        let g = geometry();
        let a = g.lbn_to_chs(lbn).expect("in range");
        let b = g.lbn_to_chs(lbn + 1).expect("in range");
        // Cylinder-major, surface-minor layout: addresses only advance.
        let ka = (a.cylinder as u64, a.surface as u64, a.sector as u64);
        let kb = (b.cylinder as u64, b.surface as u64, b.sector as u64);
        assert!(kb > ka);
    });
}

#[test]
fn angles_are_canonical() {
    check_cases("angles are canonical", 512, |_, rng| {
        let lbn = rng.below(17_795_292);
        let g = geometry();
        let chs = g.lbn_to_chs(lbn).expect("in range");
        let angle = g.angle_of(chs).expect("valid");
        assert!((0.0..1.0).contains(&angle));
    });
}

#[test]
fn sector_at_angle_is_a_right_inverse() {
    check_cases("sector_at_angle is a right inverse", 512, |_, rng| {
        let cylinder = rng.below(6_962) as u32;
        let surface = rng.below(12) as u32;
        let angle = rng.unit();
        let g = geometry();
        let sector = g.sector_at_angle(cylinder, surface, angle).expect("valid");
        let spt = g.sectors_per_track(cylinder).expect("valid");
        assert!(sector < spt);
        // The found sector's start angle is at or just after the request,
        // within one sector of wrap-around.
        let got = g
            .angle_of(Chs {
                cylinder,
                surface,
                sector,
            })
            .expect("valid");
        let forward = (got - angle).rem_euclid(1.0);
        assert!(forward <= 1.0 / spt as f64 + 1e-9, "forward {forward}");
    });
}

#[test]
fn seek_time_is_monotone_and_bounded() {
    check_cases("seek time is monotone and bounded", 256, |_, rng| {
        let a = rng.range(1, 6_961) as u32;
        let b = rng.range(1, 6_961) as u32;
        let params = DiskParams::st39133lwv();
        let profile = SeekProfile::fit(&params).expect("fit");
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(profile.seek(lo) <= profile.seek(hi));
        assert!(profile.seek(hi) <= params.max_seek + SimDuration::from_micros(30));
        assert!(profile.seek(lo) >= params.min_seek - SimDuration::from_micros(30));
    });
}

#[test]
fn spindle_wait_always_lands_on_target() {
    check_cases("spindle wait always lands on target", 512, |_, rng| {
        let start_ns = rng.below(1 << 40);
        let target = rng.unit();
        let s = Spindle::new(SimDuration::from_millis(6));
        let t = SimTime::from_nanos(start_ns);
        let wait = s.wait_until_angle(t, target);
        assert!(wait < SimDuration::from_millis(6));
        let landed = s.angle_at(t + wait);
        let err = (landed - target).rem_euclid(1.0);
        let err = err.min(1.0 - err);
        assert!(err < 1e-3, "err {err}");
    });
}

#[test]
fn estimate_equals_begin_under_perfect_knowledge() {
    check_cases(
        "estimate equals begin under perfect knowledge",
        256,
        |_, rng| {
            let cylinder = rng.below(6_962) as u32;
            let surface = rng.below(12) as u32;
            let angle = rng.unit();
            let sectors = rng.range(1, 256) as u32;
            let start_us = rng.below(1_000_000);
            let write = rng.chance(0.5);
            let mut d = disk(TimingPath::Detailed);
            let t = Target {
                cylinder,
                surface,
                angle,
                sectors,
            };
            let now = SimTime::from_micros(start_us);
            let est = d.estimate(now, &t, write);
            let got = d.begin(now, &t, write);
            assert_eq!(est, got);
            assert_eq!(d.arm_cylinder(), cylinder);
            assert_eq!(d.arm_surface(), surface);
            assert_eq!(d.busy_until(), now + got.total());
        },
    );
}

#[test]
fn service_components_are_sane() {
    check_cases("service components are sane", 256, |_, rng| {
        let cylinder = rng.below(6_962) as u32;
        let surface = rng.below(12) as u32;
        let angle = rng.unit();
        let sectors = rng.range(1, 256) as u32;
        let d = disk(TimingPath::Detailed);
        let b = d.estimate(
            SimTime::ZERO,
            &Target {
                cylinder,
                surface,
                angle,
                sectors,
            },
            false,
        );
        assert!(b.rotation <= d.rotation_time());
        assert!(b.transfer > SimDuration::ZERO);
        // A transfer of n sectors takes at least n sector times at the
        // densest zone.
        let min_transfer =
            SimDuration::from_nanos((sectors as u64) * d.rotation_time().as_nanos() / 248);
        assert!(b.transfer >= min_transfer);
        assert!(b.total() >= b.positioning());
    });
}

#[test]
fn writes_never_cost_less_than_reads() {
    check_cases("writes never cost less than reads", 256, |_, rng| {
        let cylinder = rng.range(1, 6_962) as u32;
        let angle = rng.unit();
        let d = disk(TimingPath::Analytic);
        let t = Target {
            cylinder,
            surface: 3,
            angle,
            sectors: 8,
        };
        let r = d.estimate(SimTime::ZERO, &t, false);
        let w = d.estimate(SimTime::ZERO, &t, true);
        assert!(w.seek >= r.seek);
    });
}

#[test]
fn phase_offsets_shift_rotation_only() {
    check_cases("phase offsets shift rotation only", 256, |_, rng| {
        let cylinder = rng.below(6_962) as u32;
        let angle = rng.unit();
        let offset = f64_in(rng, 0.0, 1.0);
        let mut a = disk(TimingPath::Analytic);
        let p = DiskParams::st39133lwv();
        let mut b = SimDisk::with_parts(
            &p,
            Geometry::new(&p),
            SeekProfile::fit(&p).expect("valid params"),
            TimingPath::Analytic,
            PositionKnowledge::Perfect,
            1,
            offset,
        );
        let t = Target {
            cylinder,
            surface: 0,
            angle,
            sectors: 8,
        };
        let ea = a.begin(SimTime::ZERO, &t, false);
        let eb = b.begin(SimTime::ZERO, &t, false);
        assert_eq!(ea.seek, eb.seek);
        assert_eq!(ea.transfer, eb.transfer);
        // Rotation differs by exactly the offset (mod a revolution).
        let diff_ns = ea.rotation.as_nanos() as i64 - eb.rotation.as_nanos() as i64;
        let period = a.rotation_time().as_nanos() as i64;
        let expected = (offset * period as f64) as i64;
        let delta = (diff_ns - expected).rem_euclid(period);
        let delta = delta.min(period - delta);
        assert!(delta < 2_000, "delta {delta} ns");
    });
}

/// `a` and `b` are the same `f64`: equal bits, or both NaN.
fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn check_frac(x: f64) {
    let (got, want) = (frac(x), x.rem_euclid(1.0));
    assert!(
        same_f64(got, want),
        "frac({x:e}) = {got:e}, rem_euclid {want:e}"
    );
}

fn check_round_u64(v: f64) {
    let (got, want) = (round_u64(v), v.round() as u64);
    assert_eq!(got, want, "round_u64({v:e})");
}

fn check_ceil_u32(v: f64) {
    let (got, want) = (ceil_u32(v), v.ceil().max(0.0) as u32);
    assert_eq!(got, want, "ceil_u32({v:e})");
}

/// Inputs at the edges of each helper's exact range and of the std
/// operations' special cases.
const EDGES: [f64; 34] = [
    0.0,
    -0.0,
    -1.0,
    -3.0,
    -1_099_511_627_776.0,
    1.0,
    0.499_999_999_999_999_94,
    -0.499_999_999_999_999_94,
    0.5,
    1.5,
    2.5,
    -0.5,
    -2.5,
    1e-20,
    -1e-20,
    4_503_599_627_370_495.5,
    -4_503_599_627_370_495.5,
    4_503_599_627_370_496.0,
    4_503_599_627_370_497.0,
    -4_503_599_627_370_496.0,
    2_147_483_647.5,
    2_147_483_648.0,
    -2_147_483_648.5,
    9_223_372_036_854_774_784.0,
    9_223_372_036_854_775_808.0,
    f64::MIN_POSITIVE,
    f64::MIN_POSITIVE / 2.0,
    -f64::MIN_POSITIVE / 2.0,
    5e-324,
    -5e-324,
    f64::MAX,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

#[test]
fn exact_helpers_match_std_on_edges() {
    for &x in &EDGES {
        check_frac(x);
        check_round_u64(x);
        check_ceil_u32(x);
    }
}

#[test]
fn exact_helpers_match_std_on_caller_ranges() {
    // The ranges the timing path feeds: skew sums up to ~1e5, phase
    // deltas in (-1, 1), rotation products up to ~1e7, sector positions
    // up to a track's length; plus arbitrary bit patterns, which reach
    // every exponent and the cold fallbacks.
    check_cases("exact helpers match std", 16, |_, rng| {
        for _ in 0..10_000 {
            check_frac(f64_in(rng, -1e5, 1e5));
            check_frac(f64_in(rng, -1.0, 1.0));
            check_round_u64(f64_in(rng, 0.0, 1e7));
            // Ties: every integer plus one half is exactly representable.
            check_round_u64(rng.below(10_000_000) as f64 + 0.5);
            check_ceil_u32(f64_in(rng, 0.0, 1.0) * 248.0 - 1e-6);
            let bits = f64::from_bits(rng.below(u64::MAX));
            check_frac(bits);
            check_round_u64(bits);
            check_ceil_u32(bits);
        }
    });
}
