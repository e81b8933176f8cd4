//! Discrete-event simulation kernel for the MimdRAID reproduction.
//!
//! This crate provides the substrate shared by every other crate in the
//! workspace:
//!
//! - [`time`]: a nanosecond-resolution simulated clock ([`SimTime`],
//!   [`SimDuration`]) with total ordering and saturating arithmetic.
//! - [`event`]: a deterministic event queue ([`EventQueue`]) with FIFO
//!   tie-breaking for simultaneous events, so runs are exactly reproducible.
//! - [`rng`]: a seedable random-number source ([`SimRng`], xoshiro256++)
//!   plus the handful of distributions the workload generators need
//!   (exponential, Zipf, truncated normal), implemented locally so the
//!   kernel has **no external dependencies** and its streams never shift
//!   under a dependency upgrade.
//! - [`check`]: a deterministic property-testing harness
//!   ([`check::check_cases`]) the workspace's property suites run on.
//! - [`invariant`]: debug-build runtime invariants ([`sim_invariant!`])
//!   guarding dynamic properties — event-time monotonicity, geometry
//!   bijectivity, replica spacing — that the static `simlint` pass cannot
//!   see.
//! - [`stats`]: streaming statistics ([`OnlineStats`]), exact percentile
//!   summaries ([`SampleSet`]), and the Ruemmler–Wilkes *demerit figure*
//!   used by the paper's Table 2.
//! - [`witness`]: an order-sensitive digest ([`witness::DetWitness`]) of
//!   the event pops a run makes, so CI can assert serial and threaded
//!   runs processed events in the identical order.
//!
//! # Examples
//!
//! ```
//! use mimd_sim::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(SimTime::from_micros(20), "second");
//! q.push(SimTime::from_micros(10), "first");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (SimTime::from_micros(10), "first"));
//! ```

pub mod check;
pub mod event;
pub mod invariant;
pub mod rng;
pub mod stats;
pub mod time;
pub mod witness;

pub use event::EventQueue;
pub use rng::SimRng;
pub use stats::{demerit, OnlineStats, SampleSet};
pub use time::{SimDuration, SimTime};
pub use witness::DetWitness;
