//! Workloads for the MimdRAID reproduction: request/trace types, Table-3
//! statistics, and synthetic generators standing in for the paper's
//! proprietary traces.
//!
//! - [`request`]: the logical I/O vocabulary ([`Op`], [`Request`]).
//! - [`trace`]: trace containers with rate scaling ([`Trace`]).
//! - [`stats`]: trace characterisation — read fraction, seek-locality
//!   index `L`, one-hour read-after-write — exactly the rows of the
//!   paper's Table 3 ([`TraceStats`]).
//! - [`synth`]: open-loop generators matched to the Cello and TPC-C
//!   statistics ([`SyntheticSpec`]).
//! - [`iometer`]: the closed-loop micro-benchmark generator
//!   ([`IometerSpec`]).
//!
//! # Examples
//!
//! ```
//! use mimd_workload::{SyntheticSpec, TraceStats};
//!
//! let trace = SyntheticSpec::cello_base().generate(1, 1_000);
//! let stats = TraceStats::of(&trace);
//! assert!(stats.read_frac > 0.4);
//! ```

pub mod io;
pub mod iometer;
pub mod request;
pub mod stats;
pub mod synth;
pub mod trace;

pub use iometer::{Access, IometerSpec};
pub use request::{Op, Request};
pub use stats::TraceStats;
pub use synth::SyntheticSpec;
pub use trace::Trace;
