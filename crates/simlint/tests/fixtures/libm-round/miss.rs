//@path crates/diskmodel/src/geometry.rs
use crate::mechanics::frac;

pub fn start_angle(skew: f64, sector: u32, spt: u32) -> f64 {
    frac(skew + sector as f64 / spt as f64)
}
