//! Debug-build runtime invariants for the simulator.
//!
//! The static pass (`cargo run -p simlint`) keeps nondeterminism and raw
//! unit math out of the source; this layer guards the *dynamic* properties
//! that no source scan can see. All checks compile to nothing in release
//! builds, so the measured hot paths stay untouched, while every debug
//! test run doubles as a model-consistency audit.
//!
//! Invariants wired through [`sim_invariant!`](crate::sim_invariant!):
//!
//! - **Event-queue monotonicity** (`mimd_sim::event`): simulated time
//!   never runs backwards — an event may be neither scheduled nor popped
//!   before the last popped instant.
//! - **Geometry bijectivity** (`mimd_disk::geometry`): `lbn_to_chs`
//!   followed by `chs_to_lbn` is the identity for every in-range block, so
//!   the layout and the disk model always talk about the same sector.
//! - **Replica spacing** (`mimd_core::layout`): with even placement, the
//!   `Dr` rotational replicas of a block sit exactly `1/Dr` of a
//!   revolution apart — the geometric fact behind the paper's
//!   `R/Dr`-expected-rotational-delay model (Equation 2).

/// Asserts a simulation invariant in debug builds; compiles to nothing in
/// release builds.
///
/// The condition is not evaluated in release builds, so checks may be
/// arbitrarily expensive. Failure messages carry a uniform
/// `simulation invariant violated:` prefix for greppability.
///
/// # Examples
///
/// ```
/// use mimd_sim::sim_invariant;
///
/// let last = 5u64;
/// let next = 7u64;
/// sim_invariant!(next >= last, "time ran backwards: {next} < {last}");
/// ```
#[macro_export]
macro_rules! sim_invariant {
    ($cond:expr, $($arg:tt)+) => {
        if cfg!(debug_assertions) && !$cond {
            panic!(
                "simulation invariant violated: {}",
                format_args!($($arg)+)
            );
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn passing_invariant_is_silent() {
        sim_invariant!(1 + 1 == 2, "arithmetic broke");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn failing_invariant_panics_with_prefix() {
        let err = std::panic::catch_unwind(|| {
            sim_invariant!(false, "broken: {}", 42);
        })
        .expect_err("must panic in debug builds");
        // The payload is a `String` in general, but rustc may const-fold
        // an all-literal format into a `&'static str`.
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.starts_with("simulation invariant violated: broken: 42"),
            "unexpected message: {msg}"
        );
    }
}
