//! Integer-constrained aspect-ratio selection.
//!
//! The continuous optima of Equations (5), (10), and (13) are rarely
//! integers. The paper's rule: "we choose Dr to be the maximum integer
//! factor of D that is less than or equal to the optimal non-integer
//! value" (§2.3), additionally capping `Dr` at 6 because the prototype
//! cannot propagate more rotational replicas within a single revolution
//! (§4.1). This module implements that rule plus a brute-force
//! model-minimising chooser used to sanity-check it.

use crate::config::Shape;

use super::latency::{optimal_rw_aspect, rw_latency};
use super::throughput::optimal_throughput_aspect;
use super::DiskCharacter;

/// The paper's prototype cap on rotational replication (§4.1).
pub const MAX_DR: u32 = 6;

/// Largest factor of `d` that is `<= limit` (and `<= cap`); at least 1.
fn max_factor_at_most(d: u32, limit: f64, cap: u32) -> u32 {
    let mut best = 1;
    for f in 1..=d {
        if d.is_multiple_of(f) && f as f64 <= limit && f <= cap {
            best = f;
        }
    }
    best
}

/// The paper's recommended SR-Array shape for *latency* (low load):
/// Equation (10)'s continuous `Dr`, rounded down to a factor of `d`.
///
/// `p <= 0.5` yields pure striping.
///
/// # Examples
///
/// ```
/// use mimd_core::models::{recommend_latency_shape, DiskCharacter};
///
/// let c = DiskCharacter { s_ms: 10.5, r_ms: 6.0, overhead_ms: 2.0 };
/// // Cello base: L = 4.14 makes seeks cheap, favouring replication.
/// let shape = recommend_latency_shape(&c.with_locality(4.14), 6, 1.0);
/// assert_eq!((shape.ds, shape.dr), (2, 3));
/// ```
pub fn recommend_latency_shape(c: &DiskCharacter, d: u32, p: f64) -> Shape {
    match optimal_rw_aspect(c, d, p) {
        None => Shape::striping(d),
        Some((_, dr_star)) => {
            let dr = max_factor_at_most(d, dr_star, MAX_DR);
            Shape {
                ds: d / dr,
                dr,
                dm: 1,
            }
        }
    }
}

/// The paper's recommended SR-Array shape for *throughput* at per-disk
/// queue depth `q` (Equation (13), same integerisation rule).
pub fn recommend_throughput_shape(c: &DiskCharacter, d: u32, p: f64, q: f64) -> Shape {
    match optimal_throughput_aspect(c, d, p, q) {
        None => Shape::striping(d),
        Some((_, dr_star)) => {
            let dr = max_factor_at_most(d, dr_star, MAX_DR);
            Shape {
                ds: d / dr,
                dr,
                dm: 1,
            }
        }
    }
}

/// Brute force: the SR-Array shape minimising Equation (9) over all
/// integer factorizations (used to validate the rounding rule).
pub fn best_latency_shape_by_model(c: &DiskCharacter, d: u32, p: f64) -> (Shape, f64) {
    Shape::enumerate_sr(d, MAX_DR)
        .into_iter()
        .map(|s| (s, rw_latency(c, s.ds, s.dr, p)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("latency is finite"))
        .expect("at least the striping shape exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chr() -> DiskCharacter {
        // The ST39133LWV in model terms: S = 10.5 ms, R = 6 ms.
        DiskCharacter {
            s_ms: 10.5,
            r_ms: 6.0,
            overhead_ms: 2.0,
        }
    }

    #[test]
    fn factor_rounding() {
        assert_eq!(max_factor_at_most(12, 5.0, 6), 4);
        assert_eq!(max_factor_at_most(12, 6.7, 6), 6);
        assert_eq!(max_factor_at_most(12, 0.5, 6), 1);
        assert_eq!(max_factor_at_most(9, 5.8, 6), 3);
        assert_eq!(max_factor_at_most(9, 100.0, 6), 3);
        assert_eq!(max_factor_at_most(7, 7.0, 6), 1);
    }

    #[test]
    fn cello_base_six_disks_recommends_2x3() {
        // §4.1 / Figure 7: "when the number of disks is six, the model
        // recommends a configuration of Ds x Dr = 2 x 3 for Cello base".
        let c = chr().with_locality(4.14);
        let s = recommend_latency_shape(&c, 6, 1.0);
        assert_eq!((s.ds, s.dr, s.dm), (2, 3, 1));
    }

    #[test]
    fn nine_disks_cello_base_caps_dr_at_3() {
        // §4.1: "the largest practical value of Dr for D = 9 is only three,
        // much smaller than the non-integer solution ... (5.8 for Cello
        // base and 11.6 for Cello disk 6)".
        let base = chr().with_locality(4.14);
        let (_, dr_star) = super::super::latency::optimal_rw_aspect(&base, 9, 1.0).unwrap();
        assert!((dr_star - 5.8).abs() < 0.3, "dr* = {dr_star}");
        let s = recommend_latency_shape(&base, 9, 1.0);
        assert_eq!((s.ds, s.dr), (3, 3));

        let disk6 = chr().with_locality(16.67);
        let (_, dr_star6) = super::super::latency::optimal_rw_aspect(&disk6, 9, 1.0).unwrap();
        assert!((dr_star6 - 11.6).abs() < 0.6, "dr*6 = {dr_star6}");
        let s6 = recommend_latency_shape(&disk6, 9, 1.0);
        assert_eq!((s6.ds, s6.dr), (3, 3));
    }

    #[test]
    fn low_p_recommends_striping() {
        let c = chr();
        let s = recommend_latency_shape(&c, 12, 0.4);
        assert_eq!(s, Shape::striping(12));
        let st = recommend_throughput_shape(&c, 12, 0.5, 16.0);
        assert_eq!(st, Shape::striping(12));
    }

    #[test]
    fn recommendation_is_near_brute_force_optimum() {
        let c = chr().with_locality(4.14);
        for d in [2u32, 4, 6, 8, 12, 16, 24, 36] {
            for p in [0.6, 0.8, 1.0] {
                let rec = recommend_latency_shape(&c, d, p);
                let (best, t_best) = best_latency_shape_by_model(&c, d, p);
                let t_rec = rw_latency(&c, rec.ds, rec.dr, p);
                // The paper's round-down rule is conservative and can be
                // off-optimal at small D (e.g. D=4 rounds Dr*=3.8 down to
                // 2), but stays within 25% of the best model latency.
                assert!(
                    t_rec <= t_best * 1.25 + 1e-12,
                    "d={d} p={p}: rec {rec} ({t_rec:.3}) vs best {best} ({t_best:.3})"
                );
            }
        }
    }

    #[test]
    fn throughput_recommendation_grows_dr_with_queue() {
        let c = chr();
        let shallow = recommend_throughput_shape(&c, 36, 1.0, 1.5);
        let deep = recommend_throughput_shape(&c, 36, 1.0, 32.0);
        assert!(deep.dr >= shallow.dr);
        assert!(deep.dr > 1);
    }

    #[test]
    fn dr_cap_is_respected() {
        // Extremely slow spindle would want huge Dr; cap holds.
        let c = DiskCharacter {
            s_ms: 2.0,
            r_ms: 60.0,
            overhead_ms: 2.0,
        };
        let s = recommend_latency_shape(&c, 36, 1.0);
        assert!(s.dr <= MAX_DR);
        let (b, _) = best_latency_shape_by_model(&c, 36, 1.0);
        assert!(b.dr <= MAX_DR);
    }

    #[test]
    fn tpcc_36_disks_prefers_wide_grids() {
        // TPC-C: L = 1.04, heavy foreground writes at high rates push the
        // best shape toward striping (Figure 10b's ordering).
        let c = chr().with_locality(1.04);
        let high_p = recommend_latency_shape(&c, 36, 0.95);
        let low_p = recommend_latency_shape(&c, 36, 0.55);
        assert!(low_p.ds > high_p.ds);
    }
}
