//! Array data layout: logical blocks to physical replica sets.
//!
//! The general `Ds × Dr × Dm` organisation (§2.5) is realised as a grid:
//! the logical space is striped into `Ds` columns (64 KiB units, §3.1);
//! each column's units round-robin over `Dr` rows; and the `(column, row)`
//! chunk lives, with `Dr` rotational replicas, on each of `Dm` mirror
//! disks. Every disk then stores `1/(Ds·Dr)` of the data expanded `Dr`-fold
//! — i.e. `1/Ds` of its cylinders carry data, which is exactly how the
//! SR-Array trades capacity for bounded seek *and* rotational delay
//! (Figure 3).

pub mod mapper;
pub mod parity;

pub use mapper::{DataMapper, TrackLoc};
pub use parity::{ParityConfig, ParityLoc, RaidLevel};

use mimd_disk::{frac, Chs, Geometry, Target};

use crate::config::Shape;

/// Default striping unit: 64 KiB of 512-byte sectors (§3.1).
pub const DEFAULT_STRIPE_UNIT: u32 = 128;

/// Every logical block a layout places lies below this bound, which
/// [`Layout::new`] checks. It lets the engine pack an lbn into the high 48
/// bits of a `u64` index key without two blocks sharing a key.
pub const LBN_LIMIT: u64 = (1 << 48) - 1;

/// How rotational replicas are placed around the track (§2.2).
///
/// Evenly spaced replicas give an expected read rotational delay of
/// `R / (2 Dr)` (Equation 2); randomly placed ones only reach
/// `R / (Dr + 1)`, which is why the design rejects them — kept here as an
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaPlacement {
    /// Evenly spaced, `1/Dr` of a revolution apart, each copy on its own
    /// track of the cylinder (the design of §2.2, Figure 2(c)).
    Even,
    /// Pseudo-random angles (ablation baseline).
    Random,
    /// All `Dr` copies interleaved on a *single* track (Ng's scheme,
    /// Figure 2(b)): rotational delay matches even spacing but the
    /// effective track length shrinks `Dr`-fold, so large transfers slow
    /// down — the §2.2 bandwidth objection, kept as an ablation.
    IntraTrack,
}

/// Errors constructing a layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// `Dr` exceeds the drive's surface count.
    ReplicationExceedsSurfaces {
        /// Requested rotational replication.
        dr: u32,
        /// Surfaces available.
        surfaces: u32,
    },
    /// The data set does not fit the array at this shape.
    CapacityExceeded {
        /// Sectors each disk must hold.
        needed: u64,
        /// Sectors each disk can hold at this `Dr`.
        available: u64,
    },
    /// Zero-sized data set or stripe unit.
    Degenerate,
    /// The drive parameters the layout targets are not realisable.
    InvalidDiskParams(String),
    /// A parity organization that the shape cannot carry.
    InvalidParity(String),
    /// A fault plan inconsistent with the array it targets.
    InvalidFaultPlan(String),
    /// The array's logical address space exceeds [`LBN_LIMIT`].
    AddressSpaceExceeded {
        /// Logical sectors the array could place.
        sectors: u64,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::ReplicationExceedsSurfaces { dr, surfaces } => {
                write!(f, "Dr={dr} exceeds {surfaces} surfaces")
            }
            LayoutError::CapacityExceeded { needed, available } => {
                write!(
                    f,
                    "per-disk data {needed} sectors exceeds capacity {available}"
                )
            }
            LayoutError::Degenerate => write!(f, "zero-sized data set or stripe unit"),
            LayoutError::InvalidDiskParams(why) => {
                write!(f, "invalid disk parameters: {why}")
            }
            LayoutError::InvalidParity(why) => write!(f, "invalid parity organization: {why}"),
            LayoutError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            LayoutError::AddressSpaceExceeded { sectors } => write!(
                f,
                "logical address space of {sectors} sectors exceeds the limit {LBN_LIMIT}"
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

/// One physical placement choice for (a fragment of) a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replica {
    /// Disk index within the array.
    pub disk: usize,
    /// Physical target on that disk.
    pub target: Target,
    /// Rotational-replica index (`0..Dr`).
    pub replica: u8,
    /// Mirror index (`0..Dm`).
    pub mirror: u8,
}

/// A logical request fragment confined to one stripe unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragment {
    /// First logical block of the fragment.
    pub lbn: u64,
    /// Fragment length in sectors.
    pub sectors: u32,
}

/// The array's data layout.
#[derive(Debug, Clone)]
pub struct Layout {
    shape: Shape,
    stripe_unit: u32,
    data_sectors: u64,
    mapper: DataMapper,
    geometry: Geometry,
    /// Stagger mirror copies rotationally (the §2.5 "striped mirror").
    mirror_stagger: bool,
    placement: ReplicaPlacement,
    /// XOR-parity organization over the striped space (RAID 4/5), if any.
    parity: Option<ParityConfig>,
}

impl Layout {
    /// Plans a layout for `data_sectors` of logical data on `shape` over
    /// disks with the given geometry.
    ///
    /// # Examples
    ///
    /// ```
    /// use mimd_core::{Layout, Shape};
    /// use mimd_disk::{DiskParams, Geometry};
    ///
    /// let g = Geometry::new(&DiskParams::st39133lwv());
    /// let layout = Layout::new(Shape::sr_array(2, 3).unwrap(), &g, 16_400_000, 128, false)
    ///     .unwrap();
    /// assert_eq!(layout.disks(), 6);
    /// ```
    pub fn new(
        shape: Shape,
        geometry: &Geometry,
        data_sectors: u64,
        stripe_unit: u32,
        mirror_stagger: bool,
    ) -> Result<Layout, LayoutError> {
        if data_sectors == 0 || stripe_unit == 0 {
            return Err(LayoutError::Degenerate);
        }
        let mapper =
            DataMapper::new(geometry, shape.dr).ok_or(LayoutError::ReplicationExceedsSurfaces {
                dr: shape.dr,
                surfaces: geometry.surfaces(),
            })?;
        let layout = Layout {
            shape,
            stripe_unit,
            data_sectors,
            mapper,
            geometry: geometry.clone(),
            mirror_stagger,
            placement: ReplicaPlacement::Even,
            parity: None,
        };
        let needed = layout.per_disk_data_sectors();
        if needed > layout.mapper.capacity() {
            return Err(LayoutError::CapacityExceeded {
                needed,
                available: layout.mapper.capacity(),
            });
        }
        // A placed lbn's unit has a local index below the per-disk
        // capacity in whole units, in one of the `Ds × Dr` grid cells.
        let u = stripe_unit as u64;
        let sectors = (layout.mapper.capacity().div_ceil(u) * u)
            .saturating_mul(shape.ds as u64 * shape.dr as u64);
        if sectors > LBN_LIMIT {
            return Err(LayoutError::AddressSpaceExceeded { sectors });
        }
        Ok(layout)
    }

    /// Returns the layout with the given replica-placement strategy.
    pub fn with_placement(mut self, placement: ReplicaPlacement) -> Layout {
        self.placement = placement;
        self
    }

    /// Overlays an XOR-parity organization (RAID 4/5) on the layout.
    ///
    /// Parity composes with plain striping only (`Dr = Dm = 1`): the
    /// redundancy comes from the parity unit, not from replicas. The
    /// group width must be at least 3 (one parity plus two data members —
    /// a 2-wide group is just an expensive mirror) and must divide `Ds`
    /// so groups tile the array. Capacity is re-checked because each disk
    /// now carries `1/(G−1)` overhead of parity units.
    pub fn with_parity(mut self, parity: ParityConfig) -> Result<Layout, LayoutError> {
        if self.shape.dr != 1 || self.shape.dm != 1 {
            return Err(LayoutError::InvalidParity(format!(
                "parity organizations require plain striping (Dr=Dm=1), got Dr={} Dm={}",
                self.shape.dr, self.shape.dm
            )));
        }
        if parity.group < 3 {
            return Err(LayoutError::InvalidParity(format!(
                "parity group must span at least 3 disks, got {}",
                parity.group
            )));
        }
        if !self.shape.ds.is_multiple_of(parity.group) {
            return Err(LayoutError::InvalidParity(format!(
                "Ds={} is not a multiple of the parity group width {}",
                self.shape.ds, parity.group
            )));
        }
        self.parity = Some(parity);
        let needed = self.per_disk_data_sectors();
        if needed > self.mapper.capacity() {
            return Err(LayoutError::CapacityExceeded {
                needed,
                available: self.mapper.capacity(),
            });
        }
        Ok(self)
    }

    /// The parity organization, if one is configured.
    pub fn parity(&self) -> Option<ParityConfig> {
        self.parity
    }

    /// The array shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total disks.
    pub fn disks(&self) -> usize {
        self.shape.disks() as usize
    }

    /// Stripe-unit size in sectors.
    pub fn stripe_unit(&self) -> u32 {
        self.stripe_unit
    }

    /// Logical data-set size in sectors.
    pub fn data_sectors(&self) -> u64 {
        self.data_sectors
    }

    /// Unique data sectors each disk holds. With a parity organization
    /// the denominator is the *data* units per stripe row — `G−1` of the
    /// `G` members — so per-disk footprint includes the parity overhead.
    pub fn per_disk_data_sectors(&self) -> u64 {
        let u = self.stripe_unit as u64;
        let total_units = self.data_sectors.div_ceil(u);
        let chunk = match self.parity {
            Some(p) => self.groups() as u64 * (p.group as u64 - 1),
            None => self.shape.ds as u64 * self.shape.dr as u64,
        };
        total_units.div_ceil(chunk) * u
    }

    /// The number of cylinders each disk's data occupies (the seek span).
    pub fn span_cylinders(&self) -> u32 {
        self.mapper.span_cylinders(self.per_disk_data_sectors())
    }

    fn grid_of(&self, unit: u64) -> (u32, u32, u64) {
        let ds = self.shape.ds as u64;
        let dr = self.shape.dr as u64;
        let column = (unit % ds) as u32;
        let row = ((unit / ds) % dr) as u32;
        let local_unit = unit / (ds * dr);
        (column, row, local_unit)
    }

    /// Disk index of `(column, row, mirror)` in the grid.
    pub fn disk_index(&self, column: u32, row: u32, mirror: u32) -> usize {
        ((column * self.shape.dr + row) * self.shape.dm + mirror) as usize
    }

    /// The number of groups in the array — the engine's shard unit. A
    /// group is the closure of all physical traffic for the units it
    /// owns. Without parity these are the `Ds × Dr` mirror groups of
    /// `Dm` disks each (rotational replicas share a disk and mirror
    /// copies stay inside the group); with parity they are the `Ds / G`
    /// parity groups of `G` disks each (RMW, reconstruction, and rebuild
    /// traffic all stay inside the group).
    pub fn groups(&self) -> usize {
        match self.parity {
            Some(p) => (self.shape.ds / p.group) as usize,
            None => (self.shape.ds * self.shape.dr) as usize,
        }
    }

    /// Disks per group: `Dm` for mirror groups, `G` for parity groups.
    /// Group `g` owns exactly disks `[g · w, (g + 1) · w)`.
    pub fn disks_per_group(&self) -> usize {
        match self.parity {
            Some(p) => p.group as usize,
            None => self.shape.dm as usize,
        }
    }

    /// The group that owns a fragment. Every replica, duplicate, retry,
    /// parity update, reconstruction read, and rebuild of the fragment
    /// stays on that group's disks.
    pub fn group_of(&self, frag: Fragment) -> usize {
        if self.parity.is_some() {
            return self.parity_group_of(frag);
        }
        let (column, row, _) = self.grid_of(frag.lbn / self.stripe_unit as u64);
        (column * self.shape.dr + row) as usize
    }

    /// Splits a logical request at stripe-unit boundaries.
    pub fn fragments(&self, lbn: u64, sectors: u32) -> Vec<Fragment> {
        let mut out = Vec::new();
        self.fragments_into(lbn, sectors, &mut out);
        out
    }

    /// Appends the fragments of `[lbn, lbn+sectors)` to `out`, reusing the
    /// caller's buffer (the allocation-free twin of [`Layout::fragments`]).
    pub fn fragments_into(&self, lbn: u64, sectors: u32, out: &mut Vec<Fragment>) {
        let u = self.stripe_unit as u64;
        let mut cur = lbn;
        let end = lbn + sectors as u64;
        while cur < end {
            let unit_end = (cur / u + 1) * u;
            let len = unit_end.min(end) - cur;
            out.push(Fragment {
                lbn: cur,
                sectors: len as u32,
            });
            cur += len;
        }
    }

    /// Plans a logical request into routed `(fragment, full_stripe)`
    /// submissions. For parity-organization writes this is
    /// [`Layout::parity_write_plan`] (aligned full-stripe runs collapse
    /// into one flagged fragment); everywhere else it is exactly
    /// [`Layout::fragments_into`] with the flag pinned `false`, so the
    /// non-parity fragment stream is untouched.
    pub fn plan_request(
        &self,
        write: bool,
        lbn: u64,
        sectors: u32,
        out: &mut Vec<(Fragment, bool)>,
    ) {
        if write && self.parity.is_some() {
            self.parity_write_plan(lbn, sectors, out);
            return;
        }
        let u = self.stripe_unit as u64;
        let mut cur = lbn;
        let end = lbn + sectors as u64;
        while cur < end {
            let unit_end = (cur / u + 1) * u;
            let len = unit_end.min(end) - cur;
            out.push((
                Fragment {
                    lbn: cur,
                    sectors: len as u32,
                },
                false,
            ));
            cur += len;
        }
    }

    /// The disks that hold copies of a fragment (one per mirror).
    pub fn owner_disks(&self, frag: Fragment) -> Vec<usize> {
        let (column, row, _) = self.grid_of(frag.lbn / self.stripe_unit as u64);
        (0..self.shape.dm)
            .map(|m| self.disk_index(column, row, m))
            .collect()
    }

    fn base_placement(&self, frag: Fragment) -> Option<(u32, u32, TrackLoc)> {
        let u = self.stripe_unit as u64;
        let unit = frag.lbn / u;
        let offset_in_unit = frag.lbn % u;
        let (column, row, local_unit) = self.grid_of(unit);
        let data_sector = local_unit * u + offset_in_unit;
        let loc = self.mapper.locate(data_sector)?;
        Some((column, row, loc))
    }

    fn replica_target(&self, loc: TrackLoc, k: u32, m: u32, sectors: u32) -> Target {
        let base_surface = loc.group * self.shape.dr;
        let base_angle = self
            .geometry
            .angle_of(Chs {
                cylinder: loc.cylinder,
                surface: base_surface,
                sector: loc.sector,
            })
            .unwrap_or(0.0);
        // Evenly spaced copies: step 1/Dr across rotational replicas; if
        // mirror copies are staggered too, the Dr x Dm copies share a
        // single 1/(Dr*Dm) lattice (the §2.5 striped mirror). The Random
        // ablation scatters secondary copies by a per-copy hash instead.
        let stagger = match self.placement {
            ReplicaPlacement::Even => {
                if self.mirror_stagger {
                    (k * self.shape.dm + m) as f64 / (self.shape.dr * self.shape.dm) as f64
                } else {
                    k as f64 / self.shape.dr as f64
                }
            }
            ReplicaPlacement::Random => {
                if k == 0 && m == 0 {
                    0.0
                } else {
                    let h = (loc.cylinder as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(loc.sector as u64)
                        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                        .wrapping_add((k * self.shape.dm + m) as u64)
                        .wrapping_mul(0x94D0_49BB_1331_11EB);
                    (h >> 11) as f64 / (1u64 << 53) as f64
                }
            }
            ReplicaPlacement::IntraTrack => k as f64 / self.shape.dr as f64,
        };
        // Intra-track interleaving keeps every copy on the base track and
        // stretches transfers Dr-fold (the copies of *other* data pass
        // under the head between this block's sectors).
        let (surface, sectors) = match self.placement {
            ReplicaPlacement::IntraTrack => (base_surface, sectors * self.shape.dr),
            _ => (base_surface + k, sectors),
        };
        Target {
            cylinder: loc.cylinder,
            surface,
            angle: frac(base_angle + stagger),
            sectors,
        }
    }

    /// All read candidates for a fragment: `Dr × Dm` replicas across the
    /// `Dm` owning disks. Returns an empty vector for out-of-range blocks.
    pub fn read_candidates(&self, frag: Fragment) -> Vec<Replica> {
        let Some((column, row, loc)) = self.base_placement(frag) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity((self.shape.dr * self.shape.dm) as usize);
        for m in 0..self.shape.dm {
            let disk = self.disk_index(column, row, m);
            for k in 0..self.shape.dr {
                out.push(Replica {
                    disk,
                    target: self.replica_target(loc, k, m, frag.sectors),
                    replica: k as u8,
                    mirror: m as u8,
                });
            }
        }
        #[cfg(debug_assertions)]
        self.check_replica_spacing(&out);
        out
    }

    /// Debug invariant: with deterministic placement, consecutive
    /// rotational replicas of one mirror copy sit exactly `1/Dr` of a
    /// revolution apart — the geometric premise of the paper's `R/Dr`
    /// expected-rotational-delay model (Equation 2).
    #[cfg(debug_assertions)]
    fn check_replica_spacing(&self, replicas: &[Replica]) {
        if matches!(self.placement, ReplicaPlacement::Random) {
            return;
        }
        let step = 1.0 / self.shape.dr as f64;
        for pair in replicas.windows(2) {
            if pair[0].mirror != pair[1].mirror {
                continue;
            }
            let gap = frac(pair[1].target.angle - pair[0].target.angle);
            mimd_sim::sim_invariant!(
                (gap - step).abs() < 1e-9,
                "rotational replicas {} and {} of mirror {} sit {gap} apart, expected {step}",
                pair[0].replica,
                pair[1].replica,
                pair[0].mirror
            );
        }
    }

    /// Write placements grouped per mirror disk: `Dm` groups of `Dr`
    /// rotational replicas each.
    pub fn write_groups(&self, frag: Fragment) -> Vec<(usize, Vec<Replica>)> {
        let mut flat = Vec::new();
        self.write_groups_into(frag, &mut flat);
        flat.chunks_exact(self.shape.dr as usize)
            .map(|group| (group[0].disk, group.to_vec()))
            .collect()
    }

    /// Appends the `Dm × Dr` write placements of a fragment to `out` as
    /// `Dm` contiguous runs of `Dr` replicas each (a run shares one disk).
    /// Appends nothing for out-of-range blocks. This is the
    /// allocation-free twin of [`Layout::write_groups`]: the hot dispatch
    /// path slices the flat buffer by `chunks_exact(dr)` instead of
    /// materialising nested vectors.
    pub fn write_groups_into(&self, frag: Fragment, out: &mut Vec<Replica>) {
        let Some((column, row, loc)) = self.base_placement(frag) else {
            return;
        };
        for m in 0..self.shape.dm {
            let disk = self.disk_index(column, row, m);
            let start = out.len();
            for k in 0..self.shape.dr {
                out.push(Replica {
                    disk,
                    target: self.replica_target(loc, k, m, frag.sectors),
                    replica: k as u8,
                    mirror: m as u8,
                });
            }
            #[cfg(debug_assertions)]
            self.check_replica_spacing(&out[start..]);
            #[cfg(not(debug_assertions))]
            let _ = start;
        }
    }

    /// The physical extent holding a disk's data sectors `[offset, …)` for
    /// rotational replica `k` of mirror `m` — the copy unit of hot-spare
    /// rebuild. The span is clamped to the end of the replica track (the
    /// natural copy granule), to the disk's remaining data, and to
    /// `max_sectors`; returns `None` past the end of the data or for a
    /// zero budget.
    ///
    /// Every disk in one mirror column stores the same per-disk data
    /// image, so a rebuild reads extent `offset` from any surviving mirror
    /// and writes the same `offset` (once per replica) on the spare.
    pub fn rebuild_extent(
        &self,
        offset: u64,
        k: u32,
        m: u32,
        max_sectors: u32,
    ) -> Option<(Target, u32)> {
        let per_disk = self.per_disk_data_sectors();
        if max_sectors == 0 || offset >= per_disk {
            return None;
        }
        let loc = self.mapper.locate(offset)?;
        let to_track_end = loc.spt.saturating_sub(loc.sector).max(1);
        let span = u64::from(to_track_end.min(max_sectors)).min(per_disk - offset) as u32;
        Some((self.replica_target(loc, k, m, span), span))
    }

    /// Debug-only: asserts a rebuilt disk's rotational replicas regained
    /// their `1/Dr` spacing. The rebuild writes extents produced by the
    /// same placement arithmetic as the original layout; this pins that
    /// equivalence where the engine flips the disk back to live.
    #[cfg(debug_assertions)]
    pub fn check_rebuilt_disk(&self, disk: usize) {
        let m = (disk % self.shape.dm as usize) as u32;
        let mut replicas = Vec::with_capacity(self.shape.dr as usize);
        for k in 0..self.shape.dr {
            if let Some((target, _)) = self.rebuild_extent(0, k, m, 1) {
                replicas.push(Replica {
                    disk,
                    target,
                    replica: k as u8,
                    mirror: m as u8,
                });
            }
        }
        self.check_replica_spacing(&replicas);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_disk::DiskParams;

    fn geom() -> Geometry {
        Geometry::new(&DiskParams::st39133lwv())
    }

    fn layout(shape: Shape) -> Layout {
        Layout::new(shape, &geom(), 16_400_000, DEFAULT_STRIPE_UNIT, false).unwrap()
    }

    #[test]
    fn capacity_validation() {
        let g = geom();
        // More than a disk's worth of data on a single disk cannot fit.
        let err =
            Layout::new(Shape::new(1, 1, 1).unwrap(), &g, 18_000_000, 128, false).unwrap_err();
        assert!(matches!(err, LayoutError::CapacityExceeded { .. }));
        // 1x2 replication doubles the footprint: a full disk of data needs
        // two disks' media, which one column of two disks provides exactly.
        assert!(Layout::new(Shape::new(1, 2, 1).unwrap(), &g, 16_400_000, 128, false).is_ok());
        let err =
            Layout::new(Shape::new(1, 2, 1).unwrap(), &g, 17_900_000, 128, false).unwrap_err();
        assert!(matches!(err, LayoutError::CapacityExceeded { .. }));
        // Dr beyond surfaces rejected.
        let err = Layout::new(Shape::new(1, 13, 1).unwrap(), &g, 1_000, 128, false).unwrap_err();
        assert!(matches!(
            err,
            LayoutError::ReplicationExceedsSurfaces { .. }
        ));
        assert!(matches!(
            Layout::new(Shape::striping(2), &g, 0, 128, false).unwrap_err(),
            LayoutError::Degenerate
        ));
    }

    #[test]
    fn placed_lbns_stay_below_the_limit() {
        let g = geom();
        // 2^22 disks of ~17.9 M sectors address ~2^46 sectors; 2^24 disks
        // would reach past 2^48, where packed index keys could alias.
        assert!(Layout::new(Shape::striping(1 << 22), &g, 1_000, 128, false).is_ok());
        let err = Layout::new(Shape::striping(1 << 24), &g, 1_000, 128, false).unwrap_err();
        assert!(
            matches!(err, LayoutError::AddressSpaceExceeded { sectors } if sectors > LBN_LIMIT)
        );
        // The span the check bounds is tight: the last unit of the last
        // grid cell has a placement, the unit after it has none.
        let l = layout(Shape::sr_array(2, 3).unwrap());
        let u = DEFAULT_STRIPE_UNIT as u64;
        let span = l.mapper.capacity().div_ceil(u) * u * 6;
        let placed = |lbn| !l.read_candidates(Fragment { lbn, sectors: 1 }).is_empty();
        assert!(placed(span - u));
        assert!(!placed(span));
    }

    #[test]
    fn sr_array_span_shrinks_with_ds() {
        let l_stripe6 = layout(Shape::striping(6));
        let l_sr = layout(Shape::sr_array(2, 3).unwrap());
        let l_sr32 = layout(Shape::sr_array(3, 2).unwrap());
        // 2x3 and 3x2 both hold 1/2 resp. 1/3 of data per disk, expanded by
        // replicas to 1/2 resp 1/3 span... per-disk span: data/(ds).
        let full = DataMapper::new(&geom(), 1)
            .unwrap()
            .span_cylinders(16_400_000);
        assert!(
            l_sr.span_cylinders() > full / 3,
            "2x3 span {}",
            l_sr.span_cylinders()
        );
        assert!(l_sr.span_cylinders() < full * 6 / 10);
        assert!(l_sr32.span_cylinders() < l_sr.span_cylinders());
        assert!(l_stripe6.span_cylinders() < l_sr32.span_cylinders());
    }

    #[test]
    fn fragments_split_at_unit_boundaries() {
        let l = layout(Shape::striping(4));
        assert_eq!(l.fragments(0, 8), vec![Fragment { lbn: 0, sectors: 8 }]);
        assert_eq!(
            l.fragments(120, 16),
            vec![
                Fragment {
                    lbn: 120,
                    sectors: 8
                },
                Fragment {
                    lbn: 128,
                    sectors: 8
                },
            ]
        );
        // [100,400) crosses three unit boundaries: 28 + 128 + 128 + 16.
        let four = l.fragments(100, 300);
        assert_eq!(four.len(), 4);
        assert_eq!(four.iter().map(|f| f.sectors).sum::<u32>(), 300);
        assert_eq!(four[0].sectors, 28);
        assert_eq!(four[3].sectors, 16);
    }

    #[test]
    fn striping_spreads_units_round_robin() {
        let l = layout(Shape::striping(4));
        let disks: Vec<usize> = (0..8)
            .map(|i| {
                l.owner_disks(Fragment {
                    lbn: i * 128,
                    sectors: 8,
                })[0]
            })
            .collect();
        assert_eq!(disks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn sr_array_grid_addressing() {
        let l = layout(Shape::sr_array(2, 3).unwrap());
        // Unit u: column = u % 2, row = (u/2) % 3, disk = column*3 + row.
        let expect: Vec<usize> = vec![0, 3, 1, 4, 2, 5, 0, 3];
        let got: Vec<usize> = (0..8)
            .map(|i| {
                l.owner_disks(Fragment {
                    lbn: i * 128,
                    sectors: 8,
                })[0]
            })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn read_candidates_have_dr_times_dm_entries() {
        let l = Layout::new(Shape::new(2, 3, 2).unwrap(), &geom(), 8_000_000, 128, false).unwrap();
        let c = l.read_candidates(Fragment {
            lbn: 1_000,
            sectors: 8,
        });
        assert_eq!(c.len(), 6);
        // Two distinct disks, adjacent indices (mirror pairs).
        let mut disks: Vec<usize> = c.iter().map(|r| r.disk).collect();
        disks.sort_unstable();
        disks.dedup();
        assert_eq!(disks.len(), 2);
        // Replicas on one disk sit on consecutive surfaces of one cylinder.
        let on_first: Vec<&Replica> = c.iter().filter(|r| r.disk == disks[0]).collect();
        assert_eq!(on_first.len(), 3);
        let cyl = on_first[0].target.cylinder;
        assert!(on_first.iter().all(|r| r.target.cylinder == cyl));
        let mut surfaces: Vec<u32> = on_first.iter().map(|r| r.target.surface).collect();
        surfaces.sort_unstable();
        assert_eq!(surfaces[1], surfaces[0] + 1);
        assert_eq!(surfaces[2], surfaces[0] + 2);
    }

    #[test]
    fn rotational_replicas_are_evenly_staggered() {
        let l = layout(Shape::sr_array(2, 3).unwrap());
        let c = l.read_candidates(Fragment { lbn: 0, sectors: 8 });
        assert_eq!(c.len(), 3);
        let mut angles: Vec<f64> = c.iter().map(|r| r.target.angle).collect();
        angles.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let gap1 = angles[1] - angles[0];
        let gap2 = angles[2] - angles[1];
        assert!((gap1 - 1.0 / 3.0).abs() < 1e-9, "gap1 {gap1}");
        assert!((gap2 - 1.0 / 3.0).abs() < 1e-9, "gap2 {gap2}");
    }

    #[test]
    fn striped_mirror_staggers_across_disks() {
        let l = Layout::new(Shape::new(3, 1, 2).unwrap(), &geom(), 8_000_000, 128, true).unwrap();
        let c = l.read_candidates(Fragment { lbn: 0, sectors: 8 });
        assert_eq!(c.len(), 2);
        assert_ne!(c[0].disk, c[1].disk);
        let gap = (c[0].target.angle - c[1].target.angle).rem_euclid(1.0);
        assert!((gap - 0.5).abs() < 1e-9, "gap {gap}");
    }

    #[test]
    fn unstaggered_mirror_copies_share_angles() {
        let l = Layout::new(Shape::new(3, 1, 2).unwrap(), &geom(), 8_000_000, 128, false).unwrap();
        let c = l.read_candidates(Fragment {
            lbn: 256,
            sectors: 8,
        });
        assert_eq!(c.len(), 2);
        assert!((c[0].target.angle - c[1].target.angle).abs() < 1e-12);
    }

    #[test]
    fn write_groups_cover_every_copy() {
        let l = Layout::new(Shape::new(2, 2, 2).unwrap(), &geom(), 4_000_000, 128, false).unwrap();
        let g = l.write_groups(Fragment {
            lbn: 777,
            sectors: 8,
        });
        assert_eq!(g.len(), 2);
        for (disk, replicas) in &g {
            assert_eq!(replicas.len(), 2);
            assert!(replicas.iter().all(|r| r.disk == *disk));
        }
        assert_ne!(g[0].0, g[1].0);
    }

    #[test]
    fn d_way_mirror_owns_every_disk() {
        let l = Layout::new(Shape::mirror(4), &geom(), 8_000_000, 128, false).unwrap();
        let owners = l.owner_disks(Fragment { lbn: 0, sectors: 8 });
        assert_eq!(owners, vec![0, 1, 2, 3]);
    }

    #[test]
    fn per_disk_data_accounts_for_grid() {
        let l = layout(Shape::sr_array(2, 3).unwrap());
        let per = l.per_disk_data_sectors();
        // 16.4M sectors over ds*dr = 6 chunks, unit-rounded.
        assert!(per >= 16_400_000 / 6);
        assert!(per < 16_400_000 / 6 + 256);
    }

    #[test]
    fn out_of_range_fragment_yields_no_candidates() {
        let l = layout(Shape::striping(2));
        let frag = Fragment {
            lbn: 40_000_000_000,
            sectors: 8,
        };
        assert!(l.read_candidates(frag).is_empty());
        assert!(l.write_groups(frag).is_empty());
    }
}
