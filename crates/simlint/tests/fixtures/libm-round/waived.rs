//@path crates/diskmodel/src/disk.rs
pub fn analytic_switches(sectors: u32, avg_spt: f64) -> u64 {
    // simlint: allow(libm-round) — fixture: analytic path, off the detailed per-request timing
    ((sectors as f64 - 1.0) / avg_spt).floor() as u64
}
