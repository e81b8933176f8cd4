//! XOR-parity organizations (RAID 4/5) over the striped array space.
//!
//! A parity configuration partitions the `Ds` disks of a plain striped
//! shape (`Dr = Dm = 1`) into groups of `G` disks each. Every stripe row
//! of a group holds `G−1` data units plus one parity unit — the XOR of
//! the row's data — so the group survives any single member failure:
//! a lost block is the XOR of the `G−1` survivors' blocks in its row.
//!
//! - **RAID 4**: the parity unit of every row lives on the group's last
//!   disk (a fixed parity disk, the small-write bottleneck).
//! - **RAID 5**: left-symmetric rotation — the parity unit of row `r`
//!   lives on local disk `(G−1) − (r mod G)` and the row's data units
//!   follow it cyclically, so parity (and data) traffic spread evenly
//!   over all `G` members.
//!
//! Like mirror groups, a parity group is closed under every physical
//! consequence of its fragments — RMW reads/writes, degraded
//! reconstruction reads, rebuild traffic all touch only the group's `G`
//! disks — which is what lets the engine keep one shard per parity group
//! and preserve its determinism-witness guarantees unchanged.
//!
//! Physically, stripe row `r` occupies per-disk data sectors
//! `[r·U, (r+1)·U)` at the *same* location on every member (the `Dr = 1`
//! mapper), so one [`Target`] addresses a row extent on any member disk
//! and the mirror rebuild's extent arithmetic carries over verbatim.

use std::ops::Range;

use mimd_disk::Target;

use super::{Fragment, Layout};

/// Which parity organization a [`ParityConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaidLevel {
    /// Fixed parity disk per group (the last member).
    Raid4,
    /// Left-symmetric rotated parity.
    Raid5,
}

/// An XOR-parity organization over a plain striped shape.
///
/// # Examples
///
/// ```
/// use mimd_core::ParityConfig;
///
/// let p = ParityConfig::raid5(4);
/// assert_eq!(p.group, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityConfig {
    /// RAID 4 (fixed parity disk) or RAID 5 (rotated parity).
    pub level: RaidLevel,
    /// Disks per parity group `G` (`G−1` data + 1 parity); at least 3,
    /// and `Ds` must be a multiple of it.
    pub group: u32,
}

impl ParityConfig {
    /// A RAID 4 organization with `group` disks per parity group.
    pub fn raid4(group: u32) -> ParityConfig {
        ParityConfig {
            level: RaidLevel::Raid4,
            group,
        }
    }

    /// A RAID 5 (left-symmetric) organization with `group` disks per
    /// parity group.
    pub fn raid5(group: u32) -> ParityConfig {
        ParityConfig {
            level: RaidLevel::Raid5,
            group,
        }
    }
}

/// Where one data fragment lives in a parity organization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParityLoc {
    /// Parity group index.
    pub group: usize,
    /// Stripe row within the group.
    pub row: u64,
    /// Global disk holding the data block.
    pub data_disk: usize,
    /// Global disk holding the row's parity unit.
    pub parity_disk: usize,
    /// Physical extent of the fragment — identical on every member disk
    /// (data, parity, and reconstruction reads all address this target).
    pub target: Target,
}

impl Layout {
    /// Data units per global stripe row: `ngroups × (G−1)`.
    fn parity_slots(&self) -> u64 {
        let p = self.parity.expect("parity layout");
        self.groups() as u64 * (p.group as u64 - 1)
    }

    /// The global disks of one parity group: `[g·G, (g+1)·G)`.
    pub fn parity_members(&self, group: usize) -> Range<usize> {
        let g = self.parity.expect("parity layout").group as usize;
        group * g..(group + 1) * g
    }

    /// The parity group that owns a fragment (the parity twin of the
    /// mirror-group routing in [`Layout::group_of`]).
    pub(crate) fn parity_group_of(&self, frag: Fragment) -> usize {
        let p = self.parity.expect("parity layout");
        let unit = frag.lbn / self.stripe_unit as u64;
        ((unit % self.parity_slots()) / (p.group as u64 - 1)) as usize
    }

    /// The physical extent of `sectors` at offset `off` into stripe row
    /// `row` — the same location on every member disk of the row's group.
    fn parity_row_target(&self, row: u64, off: u64, sectors: u32) -> Option<Target> {
        let u = self.stripe_unit as u64;
        let loc = self.mapper.locate(row * u + off)?;
        Some(self.replica_target(loc, 0, 0, sectors))
    }

    /// Resolves a (unit-confined) fragment to its data disk, parity disk,
    /// and physical target. Returns `None` for out-of-range blocks.
    pub fn parity_locate(&self, frag: Fragment) -> Option<ParityLoc> {
        let p = self.parity?;
        let u = self.stripe_unit as u64;
        let unit = frag.lbn / u;
        let off = frag.lbn % u;
        let slots = self.parity_slots();
        let row = unit / slots;
        let q = unit % slots;
        let gm1 = p.group as u64 - 1;
        let grp = (q / gm1) as usize;
        let dpos = q % gm1;
        let g = p.group as u64;
        // RAID 5 left-symmetric: parity walks backwards one disk per row
        // and the row's data units follow it cyclically; RAID 4 pins
        // parity to the last member.
        let p_local = match p.level {
            RaidLevel::Raid4 => g - 1,
            RaidLevel::Raid5 => (g - 1) - row % g,
        };
        let d_local = match p.level {
            RaidLevel::Raid4 => dpos,
            RaidLevel::Raid5 => (p_local + 1 + dpos) % g,
        };
        let target = self.parity_row_target(row, off, frag.sectors)?;
        let base = grp * p.group as usize;
        Some(ParityLoc {
            group: grp,
            row,
            data_disk: base + d_local as usize,
            parity_disk: base + p_local as usize,
            target,
        })
    }

    /// Resolves a full-stripe write fragment (one group's `G−1` data
    /// units of one row, produced by [`Layout::parity_write_plan`]) to
    /// `(group, row, unit_target)`: each member disk — data and parity
    /// alike — writes exactly the row's unit extent.
    pub fn parity_stripe(&self, frag: Fragment) -> Option<(usize, u64, Target)> {
        let p = self.parity?;
        let unit = frag.lbn / self.stripe_unit as u64;
        let slots = self.parity_slots();
        let row = unit / slots;
        let grp = ((unit % slots) / (p.group as u64 - 1)) as usize;
        let target = self.parity_row_target(row, 0, self.stripe_unit)?;
        Some((grp, row, target))
    }

    /// Splits a parity-organization write into submissions: an aligned
    /// run covering all `G−1` data units of one group's row collapses
    /// into a single stripe-write fragment (flagged `true` — parity is
    /// computed from the new data, no old-value reads needed); everything
    /// else stays a unit fragment headed for the read–modify–write path.
    pub fn parity_write_plan(&self, lbn: u64, sectors: u32, out: &mut Vec<(Fragment, bool)>) {
        let p = self.parity.expect("parity layout");
        let u = self.stripe_unit as u64;
        let gm1 = p.group as u64 - 1;
        let mut cur = lbn;
        let end = lbn + sectors as u64;
        while cur < end {
            let unit = cur / u;
            let dpos = (unit % self.parity_slots()) % gm1;
            if cur.is_multiple_of(u) && dpos == 0 && end - cur >= gm1 * u {
                out.push((
                    Fragment {
                        lbn: cur,
                        sectors: (gm1 * u) as u32,
                    },
                    true,
                ));
                cur += gm1 * u;
                continue;
            }
            let unit_end = (unit + 1) * u;
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
}

#[cfg(test)]
mod tests {
    use super::super::{LayoutError, Shape, DEFAULT_STRIPE_UNIT};
    use super::*;
    use mimd_disk::{DiskParams, Geometry};

    fn geom() -> Geometry {
        Geometry::new(&DiskParams::st39133lwv())
    }

    fn parity_layout(ds: u32, p: ParityConfig) -> Layout {
        Layout::new(
            Shape::striping(ds),
            &geom(),
            8_000_000,
            DEFAULT_STRIPE_UNIT,
            false,
        )
        .unwrap()
        .with_parity(p)
        .unwrap()
    }

    #[test]
    fn parity_requires_plain_striping_and_divisible_groups() {
        let g = geom();
        let mk = |shape: Shape, p: ParityConfig| {
            Layout::new(shape, &g, 1_000_000, DEFAULT_STRIPE_UNIT, false)
                .unwrap()
                .with_parity(p)
        };
        assert!(matches!(
            mk(Shape::new(4, 2, 1).unwrap(), ParityConfig::raid5(4)),
            Err(LayoutError::InvalidParity(_))
        ));
        assert!(matches!(
            mk(Shape::raid10(4).unwrap(), ParityConfig::raid5(2)),
            Err(LayoutError::InvalidParity(_))
        ));
        assert!(matches!(
            mk(Shape::striping(6), ParityConfig::raid5(2)),
            Err(LayoutError::InvalidParity(_))
        ));
        assert!(matches!(
            mk(Shape::striping(6), ParityConfig::raid5(4)),
            Err(LayoutError::InvalidParity(_))
        ));
        assert!(mk(Shape::striping(6), ParityConfig::raid5(3)).is_ok());
        assert!(mk(Shape::striping(6), ParityConfig::raid4(6)).is_ok());
    }

    #[test]
    fn parity_capacity_accounts_for_the_parity_unit() {
        // 4 disks, G=4: 3 data units per row, so per-disk data is a third
        // of the total (unit-rounded) — not a quarter.
        let l = parity_layout(4, ParityConfig::raid5(4));
        let per = l.per_disk_data_sectors();
        assert!(per >= 8_000_000 / 3, "per-disk {per}");
        assert!(per < 8_000_000 / 3 + 256, "per-disk {per}");
        // And a data set needing more than capacity×(G−1)/G is rejected.
        let err = Layout::new(
            Shape::striping(4),
            &geom(),
            17_900_000 * 3,
            DEFAULT_STRIPE_UNIT,
            false,
        )
        .unwrap()
        .with_parity(ParityConfig::raid5(4))
        .unwrap_err();
        assert!(matches!(err, LayoutError::CapacityExceeded { .. }));
    }

    #[test]
    fn raid4_pins_parity_to_the_last_member() {
        let l = parity_layout(4, ParityConfig::raid4(4));
        let u = DEFAULT_STRIPE_UNIT as u64;
        for unit in 0..12u64 {
            let loc = l
                .parity_locate(Fragment {
                    lbn: unit * u,
                    sectors: 8,
                })
                .unwrap();
            assert_eq!(loc.parity_disk, 3, "unit {unit}");
            assert_eq!(loc.data_disk, (unit % 3) as usize, "unit {unit}");
            assert_eq!(loc.row, unit / 3, "unit {unit}");
        }
    }

    #[test]
    fn raid5_rotates_parity_left_symmetrically() {
        let l = parity_layout(4, ParityConfig::raid5(4));
        let u = DEFAULT_STRIPE_UNIT as u64;
        // Row r parity on local disk (G−1) − (r mod G); data follows it.
        let parity_of = |row: u64| {
            l.parity_locate(Fragment {
                lbn: row * 3 * u,
                sectors: 8,
            })
            .unwrap()
            .parity_disk
        };
        assert_eq!(parity_of(0), 3);
        assert_eq!(parity_of(1), 2);
        assert_eq!(parity_of(2), 1);
        assert_eq!(parity_of(3), 0);
        assert_eq!(parity_of(4), 3);
        // Within a row, the G−1 data units land on the G−1 non-parity
        // members, each exactly once.
        for row in 0..5u64 {
            let mut disks: Vec<usize> = (0..3)
                .map(|d| {
                    let loc = l
                        .parity_locate(Fragment {
                            lbn: (row * 3 + d) * u,
                            sectors: 8,
                        })
                        .unwrap();
                    assert_eq!(loc.row, row);
                    assert_ne!(loc.data_disk, loc.parity_disk);
                    loc.data_disk
                })
                .collect();
            disks.sort_unstable();
            disks.dedup();
            assert_eq!(disks.len(), 3, "row {row}");
        }
    }

    #[test]
    fn multiple_groups_route_like_shards() {
        // 8 disks, G=4: two parity groups of four disks each.
        let l = parity_layout(8, ParityConfig::raid5(4));
        assert_eq!(l.groups(), 2);
        assert_eq!(l.disks_per_group(), 4);
        assert_eq!(l.parity_members(0), 0..4);
        assert_eq!(l.parity_members(1), 4..8);
        let u = DEFAULT_STRIPE_UNIT as u64;
        // Units 0..3 fill group 0's row 0, units 3..6 fill group 1's.
        for q in 0..6u64 {
            let frag = Fragment {
                lbn: q * u,
                sectors: 8,
            };
            let expect = (q / 3) as usize;
            assert_eq!(l.group_of(frag), expect, "unit {q}");
            let loc = l.parity_locate(frag).unwrap();
            assert_eq!(loc.group, expect);
            assert!(l.parity_members(expect).contains(&loc.data_disk));
            assert!(l.parity_members(expect).contains(&loc.parity_disk));
        }
    }

    #[test]
    fn members_share_one_physical_extent_per_row() {
        let l = parity_layout(4, ParityConfig::raid5(4));
        let u = DEFAULT_STRIPE_UNIT as u64;
        // All data units of one row, and the stripe target, address the
        // same cylinder/surface/angle — the rebuild-extent premise.
        let row3: Vec<ParityLoc> = (0..3)
            .map(|d| {
                l.parity_locate(Fragment {
                    lbn: (3 * 3 + d) * u,
                    sectors: DEFAULT_STRIPE_UNIT,
                })
                .unwrap()
            })
            .collect();
        let t0 = row3[0].target;
        for loc in &row3 {
            assert_eq!(loc.target.cylinder, t0.cylinder);
            assert_eq!(loc.target.surface, t0.surface);
            assert!((loc.target.angle - t0.angle).abs() < 1e-12);
        }
        let (_, row, st) = l
            .parity_stripe(Fragment {
                lbn: 3 * 3 * u,
                sectors: 3 * DEFAULT_STRIPE_UNIT,
            })
            .unwrap();
        assert_eq!(row, 3);
        assert_eq!(st.cylinder, t0.cylinder);
        assert_eq!(st.surface, t0.surface);
    }

    #[test]
    fn write_plan_collapses_aligned_full_stripes() {
        let l = parity_layout(4, ParityConfig::raid5(4));
        let u = DEFAULT_STRIPE_UNIT;
        let plan = |lbn: u64, sectors: u32| {
            let mut out = Vec::new();
            l.parity_write_plan(lbn, sectors, &mut out);
            out
        };
        // A full aligned row (3 units) is one stripe write.
        let p = plan(0, 3 * u);
        assert_eq!(p.len(), 1);
        assert!(p[0].1);
        assert_eq!(p[0].0.sectors, 3 * u);
        // Misaligned or partial runs fall back to unit RMW fragments.
        let p = plan(u as u64, 3 * u);
        assert!(p.iter().all(|&(_, stripe)| !stripe));
        assert_eq!(p.len(), 3);
        let p = plan(8, 2 * u);
        assert!(p.iter().all(|&(_, stripe)| !stripe));
        // Two rows plus a leading unit: one RMW then... the tail after
        // the stripe merge re-aligns, so expect stripe merges inside.
        let p = plan(0, 7 * u);
        let total: u32 = p.iter().map(|&(f, _)| f.sectors).sum();
        assert_eq!(total, 7 * u);
        assert_eq!(p.iter().filter(|&&(_, s)| s).count(), 2);
        // Sub-unit write: exactly one RMW fragment.
        let p = plan(100, 8);
        assert_eq!(p.len(), 1);
        assert!(!p[0].1);
    }

    #[test]
    fn plan_request_matches_fragments_without_parity() {
        let l = Layout::new(
            Shape::striping(4),
            &geom(),
            8_000_000,
            DEFAULT_STRIPE_UNIT,
            false,
        )
        .unwrap();
        // Without parity a write plans like a read: the stripe-unit
        // split of [100, 400), 28 + 128 + 128 + 16 sectors, never flagged.
        let mut planned = Vec::new();
        l.plan_request(true, 100, 300, &mut planned);
        let mut reads = Vec::new();
        l.plan_request(false, 100, 300, &mut reads);
        assert_eq!(planned, reads);
        let split: Vec<(u64, u32)> = planned.iter().map(|(f, _)| (f.lbn, f.sectors)).collect();
        assert_eq!(split, vec![(100, 28), (128, 128), (256, 128), (384, 16)]);
        assert!(planned.iter().all(|&(_, stripe)| !stripe));
    }
}
