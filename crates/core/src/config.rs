//! Array shapes: the `Ds × Dr × Dm` configuration space.
//!
//! Section 2.5 defines the most general configuration, the *SR-Mirror*: data
//! is striped `Ds` ways (using only `1/Ds` of each disk's cylinders), each
//! block has `Dr` rotational replicas on the same disk, and `Dm` copies on
//! different disks. Familiar organisations are corners of this space:
//!
//! - `D × 1 × 1` — D-way striping
//! - `1 × 1 × D` — D-way mirror
//! - `Ds × 1 × 2` — the common RAID-10
//! - `Ds × Dr × 1` — an SR-Array

use std::fmt;

/// An array configuration `Ds × Dr × Dm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Striping degree: only `1/Ds` of each disk's cylinders carry data.
    pub ds: u32,
    /// Rotational replicas per block, all on the same disk.
    pub dr: u32,
    /// Mirror copies on distinct disks.
    pub dm: u32,
}

impl Shape {
    /// Creates a shape; all factors must be positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use mimd_core::Shape;
    ///
    /// let s = Shape::new(2, 3, 1).unwrap();
    /// assert_eq!(s.disks(), 6);
    /// assert_eq!(s.to_string(), "2x3x1");
    /// ```
    pub fn new(ds: u32, dr: u32, dm: u32) -> Option<Shape> {
        if ds == 0 || dr == 0 || dm == 0 {
            return None;
        }
        Some(Shape { ds, dr, dm })
    }

    /// Pure striping over `d` disks.
    pub fn striping(d: u32) -> Shape {
        Shape {
            ds: d,
            dr: 1,
            dm: 1,
        }
    }

    /// A `d`-way mirror.
    pub fn mirror(d: u32) -> Shape {
        Shape {
            ds: 1,
            dr: 1,
            dm: d,
        }
    }

    /// RAID-10 over `d` disks (two-way mirrored stripes).
    ///
    /// Returns `None` for odd `d`.
    pub fn raid10(d: u32) -> Option<Shape> {
        if d == 0 || !d.is_multiple_of(2) {
            return None;
        }
        Some(Shape {
            ds: d / 2,
            dr: 1,
            dm: 2,
        })
    }

    /// An SR-Array `ds × dr`.
    pub fn sr_array(ds: u32, dr: u32) -> Option<Shape> {
        Shape::new(ds, dr, 1)
    }

    /// Total number of disks.
    pub fn disks(&self) -> u32 {
        self.ds * self.dr * self.dm
    }

    /// Whether this shape survives any single-disk failure (every block
    /// exists on at least two distinct disks).
    pub fn is_fault_tolerant(&self) -> bool {
        self.dm >= 2
    }

    /// All shapes with exactly `d` disks, optionally capping the rotational
    /// degree (the paper's prototype caps `Dr` at 6 because track switches
    /// make more replicas unpropagatable within one revolution).
    pub fn enumerate(d: u32, max_dr: u32) -> Vec<Shape> {
        let mut out = Vec::new();
        if d == 0 {
            return out;
        }
        for ds in 1..=d {
            if !d.is_multiple_of(ds) {
                continue;
            }
            let rest = d / ds;
            for dr in 1..=rest {
                if !rest.is_multiple_of(dr) || dr > max_dr {
                    continue;
                }
                out.push(Shape {
                    ds,
                    dr,
                    dm: rest / dr,
                });
            }
        }
        out
    }

    /// All SR-Array shapes (`dm = 1`) with exactly `d` disks.
    pub fn enumerate_sr(d: u32, max_dr: u32) -> Vec<Shape> {
        Self::enumerate(d, max_dr)
            .into_iter()
            .filter(|s| s.dm == 1)
            .collect()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.ds, self.dr, self.dm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_counts() {
        assert_eq!(Shape::striping(6).disks(), 6);
        assert_eq!(Shape::mirror(4).disks(), 4);
        assert_eq!(
            Shape::raid10(6).unwrap(),
            Shape {
                ds: 3,
                dr: 1,
                dm: 2
            }
        );
        assert_eq!(Shape::raid10(5), None);
        assert_eq!(Shape::new(0, 1, 1), None);
    }

    #[test]
    fn fault_tolerance_requires_mirroring() {
        assert!(!Shape::sr_array(2, 3).unwrap().is_fault_tolerant());
        assert!(Shape::raid10(6).unwrap().is_fault_tolerant());
        assert!(Shape::mirror(2).is_fault_tolerant());
        assert!(!Shape::striping(8).is_fault_tolerant());
    }

    #[test]
    fn enumerate_covers_all_factorizations() {
        let shapes = Shape::enumerate(6, 6);
        // 6 = ds*dr*dm: (1,1,6),(1,2,3),(1,3,2),(1,6,1),(2,1,3),(2,3,1),
        // (3,1,2),(3,2,1),(6,1,1),(2,... let the count assert it.
        assert!(shapes.iter().all(|s| s.disks() == 6));
        assert!(shapes.contains(&Shape {
            ds: 2,
            dr: 3,
            dm: 1
        }));
        assert!(shapes.contains(&Shape {
            ds: 3,
            dr: 1,
            dm: 2
        }));
        assert!(shapes.contains(&Shape {
            ds: 1,
            dr: 1,
            dm: 6
        }));
        assert_eq!(shapes.len(), 9);
        // No duplicates.
        let mut dedup = shapes.clone();
        dedup.sort_by_key(|s| (s.ds, s.dr, s.dm));
        dedup.dedup();
        assert_eq!(dedup.len(), shapes.len());
    }

    #[test]
    fn enumerate_respects_dr_cap() {
        let shapes = Shape::enumerate(12, 6);
        assert!(shapes.iter().all(|s| s.dr <= 6));
        assert!(!shapes.iter().any(|s| s.dr == 12));
        let sr = Shape::enumerate_sr(12, 6);
        assert!(sr.iter().all(|s| s.dm == 1 && s.disks() == 12));
        // 12 = ds*dr with dr<=6: (12,1),(6,2),(4,3),(3,4),(2,6).
        assert_eq!(sr.len(), 5);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Shape::new(9, 4, 1).unwrap().to_string(), "9x4x1");
    }

    #[test]
    fn enumerate_zero_disks_is_empty() {
        assert!(Shape::enumerate(0, 6).is_empty());
    }
}
