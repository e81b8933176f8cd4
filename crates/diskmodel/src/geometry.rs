//! Zoned disk geometry: logical-block ↔ physical-sector mapping and
//! rotational angles.
//!
//! The paper's Calibration Layer extracts "disk zones, track skew, bad
//! sectors, and reserved sectors through a sequence of low-level disk
//! operations" (§3.2, following Worthington et al.). Here the geometry is
//! constructed directly from [`DiskParams`]; the calibration module then
//! *re-derives* timing facts against it the way the prototype did against
//! real hardware.
//!
//! Layout convention: LBNs are assigned zone-by-zone from the outer edge,
//! cylinder-major, surface-minor — cylinder `c` holds LBNs for surface 0's
//! track, then surface 1's, and so on. Track skew rotates each successive
//! track's logical origin by [`DiskParams::track_skew_frac`] so that
//! sequential transfers crossing a track boundary line up with the head
//! switch.

use crate::mechanics::{ceil_u32, frac};
use crate::params::DiskParams;

/// Physical address of a sector: cylinder, surface, and sector-within-track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Chs {
    /// Cylinder index, 0 = outermost.
    pub cylinder: u32,
    /// Surface (head) index.
    pub surface: u32,
    /// Sector index within the track, before skew.
    pub sector: u32,
}

#[derive(Debug, Clone)]
struct ZoneExtent {
    first_cylinder: u32,
    cylinders: u32,
    sectors_per_track: u32,
    /// LBN of the first sector in this zone.
    first_lbn: u64,
}

/// Public view of one zone's extent (for layout planning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneInfo {
    /// First cylinder of the zone.
    pub first_cylinder: u32,
    /// Number of cylinders in the zone.
    pub cylinders: u32,
    /// Sectors per track within the zone.
    pub sectors_per_track: u32,
}

/// Immutable geometry derived from a parameter set.
#[derive(Debug, Clone)]
pub struct Geometry {
    surfaces: u32,
    track_skew_frac: f64,
    zones: Vec<ZoneExtent>,
    /// Zone index per cylinder — O(1) zone lookup on the timing hot path.
    /// `Arc`-shared so per-disk clones of an array's geometry stay cheap.
    cyl_zone: std::sync::Arc<[u16]>,
    total_sectors: u64,
    total_cylinders: u32,
}

impl Geometry {
    /// Builds the geometry for a parameter set.
    ///
    /// # Examples
    ///
    /// ```
    /// use mimd_disk::{DiskParams, Geometry};
    ///
    /// let g = Geometry::new(&DiskParams::st39133lwv());
    /// let chs = g.lbn_to_chs(0).unwrap();
    /// assert_eq!((chs.cylinder, chs.surface, chs.sector), (0, 0, 0));
    /// ```
    pub fn new(params: &DiskParams) -> Self {
        let mut zones = Vec::with_capacity(params.zones.len());
        let mut cyl_zone = Vec::new();
        let mut cyl = 0u32;
        let mut lbn = 0u64;
        for (zi, z) in params.zones.iter().enumerate() {
            zones.push(ZoneExtent {
                first_cylinder: cyl,
                cylinders: z.cylinders,
                sectors_per_track: z.sectors_per_track,
                first_lbn: lbn,
            });
            // Real drives have tens of zones; saturating at u16::MAX keeps
            // construction panic-free without a fallible constructor.
            let idx = u16::try_from(zi).unwrap_or(u16::MAX);
            cyl_zone.extend(std::iter::repeat_n(idx, z.cylinders as usize));
            cyl += z.cylinders;
            lbn += z.cylinders as u64 * params.surfaces as u64 * z.sectors_per_track as u64;
        }
        Geometry {
            surfaces: params.surfaces,
            track_skew_frac: params.track_skew_frac,
            zones,
            cyl_zone: cyl_zone.into(),
            total_sectors: lbn,
            total_cylinders: cyl,
        }
    }

    /// Total addressable sectors.
    pub fn total_sectors(&self) -> u64 {
        self.total_sectors
    }

    /// Total cylinders.
    pub fn total_cylinders(&self) -> u32 {
        self.total_cylinders
    }

    /// Number of surfaces.
    pub fn surfaces(&self) -> u32 {
        self.surfaces
    }

    /// The zone table, outermost zone first.
    pub fn zone_table(&self) -> Vec<ZoneInfo> {
        self.zones
            .iter()
            .map(|z| ZoneInfo {
                first_cylinder: z.first_cylinder,
                cylinders: z.cylinders,
                sectors_per_track: z.sectors_per_track,
            })
            .collect()
    }

    #[inline]
    fn zone_of_cylinder(&self, cylinder: u32) -> Option<&ZoneExtent> {
        let idx = *self.cyl_zone.get(cylinder as usize)?;
        self.zones.get(idx as usize)
    }

    fn zone_of_lbn(&self, lbn: u64) -> Option<&ZoneExtent> {
        if lbn >= self.total_sectors {
            return None;
        }
        let idx = self.zones.partition_point(|z| {
            z.first_lbn + z.cylinders as u64 * self.surfaces as u64 * z.sectors_per_track as u64
                <= lbn
        });
        self.zones.get(idx)
    }

    /// Sectors per track for a cylinder; `None` if out of range.
    pub fn sectors_per_track(&self, cylinder: u32) -> Option<u32> {
        self.zone_of_cylinder(cylinder).map(|z| z.sectors_per_track)
    }

    /// Average sectors per track across the whole drive (capacity-weighted).
    pub fn avg_sectors_per_track(&self) -> f64 {
        let tracks: u64 = self
            .zones
            .iter()
            .map(|z| z.cylinders as u64 * self.surfaces as u64)
            .sum();
        self.total_sectors as f64 / tracks as f64
    }

    /// Maps a logical block number to its physical address.
    pub fn lbn_to_chs(&self, lbn: u64) -> Option<Chs> {
        let z = self.zone_of_lbn(lbn)?;
        let rel = lbn - z.first_lbn;
        let per_cyl = self.surfaces as u64 * z.sectors_per_track as u64;
        let cyl_rel = rel / per_cyl;
        let in_cyl = rel % per_cyl;
        let surface = (in_cyl / z.sectors_per_track as u64) as u32;
        let sector = (in_cyl % z.sectors_per_track as u64) as u32;
        let chs = Chs {
            cylinder: z.first_cylinder + cyl_rel as u32,
            surface,
            sector,
        };
        mimd_sim::sim_invariant!(
            self.chs_to_lbn(chs) == Some(lbn),
            "lbn<->chs bijectivity broke: lbn {lbn} maps to {chs:?} which maps back to {:?}",
            self.chs_to_lbn(chs)
        );
        Some(chs)
    }

    /// Maps a physical address back to its logical block number.
    pub fn chs_to_lbn(&self, chs: Chs) -> Option<u64> {
        let z = self.zone_of_cylinder(chs.cylinder)?;
        if chs.surface >= self.surfaces || chs.sector >= z.sectors_per_track {
            return None;
        }
        let cyl_rel = (chs.cylinder - z.first_cylinder) as u64;
        let per_cyl = self.surfaces as u64 * z.sectors_per_track as u64;
        Some(
            z.first_lbn
                + cyl_rel * per_cyl
                + chs.surface as u64 * z.sectors_per_track as u64
                + chs.sector as u64,
        )
    }

    /// Global track index (0-based from the outer edge) of an address.
    fn track_index(&self, cylinder: u32, surface: u32) -> u64 {
        cylinder as u64 * self.surfaces as u64 + surface as u64
    }

    /// Rotational angle, in fractions of a revolution, at which the *start*
    /// of the given sector passes under the head, accounting for track skew.
    ///
    /// Angle 0 is an arbitrary but fixed spindle reference.
    pub fn angle_of(&self, chs: Chs) -> Option<f64> {
        let z = self.zone_of_cylinder(chs.cylinder)?;
        if chs.surface >= self.surfaces || chs.sector >= z.sectors_per_track {
            return None;
        }
        let skew = self.track_index(chs.cylinder, chs.surface) as f64 * self.track_skew_frac;
        let within = chs.sector as f64 / z.sectors_per_track as f64;
        Some(frac(skew + within))
    }

    /// The sector on `(cylinder, surface)` whose start angle is nearest at
    /// or after the requested angle (used to materialise a rotational
    /// replica "at angle θ" on a concrete track).
    pub fn sector_at_angle(&self, cylinder: u32, surface: u32, angle: f64) -> Option<u32> {
        let z = self.zone_of_cylinder(cylinder)?;
        if surface >= self.surfaces {
            return None;
        }
        let spt = z.sectors_per_track as f64;
        let skew = self.track_index(cylinder, surface) as f64 * self.track_skew_frac;
        let within = frac(angle - skew);
        // The epsilon absorbs float error when `angle` is exactly a sector
        // start, so the inverse of `angle_of` returns that same sector.
        let sector = ceil_u32(within * spt - 1e-6) % z.sectors_per_track;
        Some(sector)
    }

    /// Quantises `angle` to the owning track's sector grid in one pass,
    /// returning `(start_angle, sector, sectors_per_track)`.
    ///
    /// Computes exactly what separate [`Geometry::sector_at_angle`],
    /// [`Geometry::angle_of`], and [`Geometry::sectors_per_track`] calls
    /// would — bit-for-bit, since the skew term is shared — but with a
    /// single zone lookup. This is the detailed timing path's inner loop.
    #[inline]
    pub fn quantise_angle(
        &self,
        cylinder: u32,
        surface: u32,
        angle: f64,
    ) -> Option<(f64, u32, u32)> {
        let z = self.zone_of_cylinder(cylinder)?;
        if surface >= self.surfaces {
            return None;
        }
        let spt = z.sectors_per_track;
        let skew = self.track_index(cylinder, surface) as f64 * self.track_skew_frac;
        let within = frac(angle - skew);
        let sector = ceil_u32(within * spt as f64 - 1e-6) % spt;
        let start = frac(skew + sector as f64 / spt as f64);
        Some((start, sector, spt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(&DiskParams::st39133lwv())
    }

    #[test]
    fn totals_match_params() {
        let p = DiskParams::st39133lwv();
        let g = Geometry::new(&p);
        assert_eq!(g.total_sectors(), p.total_sectors());
        assert_eq!(g.total_cylinders(), p.total_cylinders());
        assert_eq!(g.surfaces(), p.surfaces);
        let avg = g.avg_sectors_per_track();
        assert!((avg - 213.0).abs() < 2.0, "avg spt {avg}");
    }

    #[test]
    fn lbn_chs_round_trip_over_zone_boundaries() {
        let g = geom();
        let total = g.total_sectors();
        // Probe a spread of LBNs, including first/last sector of the drive.
        let probes = [
            0,
            1,
            total / 7,
            total / 3,
            total / 2,
            2 * total / 3,
            total - 2,
            total - 1,
        ];
        for &lbn in &probes {
            let chs = g.lbn_to_chs(lbn).expect("in range");
            let back = g.chs_to_lbn(chs).expect("valid chs");
            assert_eq!(back, lbn, "round trip failed at {lbn} ({chs:?})");
        }
    }

    #[test]
    fn out_of_range_is_none() {
        let g = geom();
        assert!(g.lbn_to_chs(g.total_sectors()).is_none());
        assert!(g
            .chs_to_lbn(Chs {
                cylinder: g.total_cylinders(),
                surface: 0,
                sector: 0
            })
            .is_none());
        assert!(g
            .chs_to_lbn(Chs {
                cylinder: 0,
                surface: 99,
                sector: 0
            })
            .is_none());
        assert!(g
            .chs_to_lbn(Chs {
                cylinder: 0,
                surface: 0,
                sector: 10_000
            })
            .is_none());
        assert!(g.sectors_per_track(u32::MAX).is_none());
    }

    #[test]
    fn consecutive_lbns_are_contiguous_within_track() {
        let g = geom();
        let a = g.lbn_to_chs(100).unwrap();
        let b = g.lbn_to_chs(101).unwrap();
        assert_eq!(a.cylinder, b.cylinder);
        assert_eq!(a.surface, b.surface);
        assert_eq!(a.sector + 1, b.sector);
    }

    #[test]
    fn track_boundary_switches_surface_then_cylinder() {
        let g = geom();
        let spt = g.sectors_per_track(0).unwrap() as u64;
        let last_of_track0 = g.lbn_to_chs(spt - 1).unwrap();
        let first_of_track1 = g.lbn_to_chs(spt).unwrap();
        assert_eq!(last_of_track0.surface, 0);
        assert_eq!(first_of_track1.surface, 1);
        assert_eq!(first_of_track1.sector, 0);
        assert_eq!(first_of_track1.cylinder, 0);

        let per_cyl = spt * g.surfaces() as u64;
        let next_cyl = g.lbn_to_chs(per_cyl).unwrap();
        assert_eq!(next_cyl.cylinder, 1);
        assert_eq!(next_cyl.surface, 0);
    }

    #[test]
    fn zone_boundary_changes_sectors_per_track() {
        let g = geom();
        // Zone 0 spans 633 cylinders at 248 spt.
        assert_eq!(g.sectors_per_track(0), Some(248));
        assert_eq!(g.sectors_per_track(632), Some(248));
        assert_eq!(g.sectors_per_track(633), Some(241));
        // Innermost zone.
        assert_eq!(g.sectors_per_track(g.total_cylinders() - 1), Some(178));
    }

    #[test]
    fn skew_advances_angle_per_track() {
        let g = geom();
        let a0 = g
            .angle_of(Chs {
                cylinder: 0,
                surface: 0,
                sector: 0,
            })
            .unwrap();
        let a1 = g
            .angle_of(Chs {
                cylinder: 0,
                surface: 1,
                sector: 0,
            })
            .unwrap();
        let p = DiskParams::st39133lwv();
        let diff = (a1 - a0).rem_euclid(1.0);
        assert!((diff - p.track_skew_frac).abs() < 1e-9);
    }

    #[test]
    fn angle_within_track_is_uniform() {
        let g = geom();
        let spt = g.sectors_per_track(0).unwrap();
        let a_first = g
            .angle_of(Chs {
                cylinder: 0,
                surface: 0,
                sector: 0,
            })
            .unwrap();
        let a_mid = g
            .angle_of(Chs {
                cylinder: 0,
                surface: 0,
                sector: spt / 2,
            })
            .unwrap();
        let expect = (spt / 2) as f64 / spt as f64;
        assert!(((a_mid - a_first).rem_euclid(1.0) - expect).abs() < 1e-9);
    }

    #[test]
    fn sector_at_angle_inverts_angle_of() {
        let g = geom();
        for &(cyl, surf) in &[(0u32, 0u32), (700, 3), (4000, 11), (6961, 5)] {
            let spt = g.sectors_per_track(cyl).unwrap();
            for sector in [0, spt / 3, spt - 1] {
                let chs = Chs {
                    cylinder: cyl,
                    surface: surf,
                    sector,
                };
                let angle = g.angle_of(chs).unwrap();
                let found = g.sector_at_angle(cyl, surf, angle).unwrap();
                assert_eq!(found, sector, "at {chs:?}");
            }
        }
    }

    #[test]
    fn quantise_angle_matches_separate_queries() {
        let g = geom();
        let mut angle = 0.0137_f64;
        for &(cyl, surf) in &[(0u32, 0u32), (633, 2), (700, 3), (4000, 11), (6961, 5)] {
            for _ in 0..64 {
                angle = (angle + 0.618_033_988_749_895).rem_euclid(1.0);
                let (start, sector, spt) = g.quantise_angle(cyl, surf, angle).unwrap();
                let want_sector = g.sector_at_angle(cyl, surf, angle).unwrap();
                assert_eq!(sector, want_sector, "sector at ({cyl},{surf},{angle})");
                assert_eq!(spt, g.sectors_per_track(cyl).unwrap());
                let want_angle = g
                    .angle_of(Chs {
                        cylinder: cyl,
                        surface: surf,
                        sector,
                    })
                    .unwrap();
                assert_eq!(
                    start.to_bits(),
                    want_angle.to_bits(),
                    "angle at ({cyl},{surf},{angle})"
                );
            }
        }
        // Out of range in either coordinate is None, matching the parts.
        assert!(g.quantise_angle(g.total_cylinders(), 0, 0.5).is_none());
        assert!(g.quantise_angle(0, g.surfaces(), 0.5).is_none());
    }

    #[test]
    fn sector_at_angle_rounds_up_to_next_start() {
        let g = geom();
        let spt = g.sectors_per_track(0).unwrap();
        let a = g
            .angle_of(Chs {
                cylinder: 0,
                surface: 0,
                sector: 5,
            })
            .unwrap();
        // Slightly past sector 5's start: the next full sector start is 6.
        let nudged = a + 0.25 / spt as f64;
        assert_eq!(g.sector_at_angle(0, 0, nudged), Some(6));
    }
}
