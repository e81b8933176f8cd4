//@path crates/diskmodel/src/geometry.rs
pub fn start_angle(skew: f64, sector: u32, spt: u32) -> f64 {
    (skew + sector as f64 / spt as f64).rem_euclid(1.0)
}
