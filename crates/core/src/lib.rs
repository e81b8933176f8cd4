//! MimdRAID: the SR-Array disk-array design from *"Trading Capacity for
//! Performance in a Disk Array"* (OSDI 2000).
//!
//! An SR-Array spends a budget of `D` disks on a balanced mix of striping
//! (bounding seek distance) and rotational replication (bounding rotational
//! delay). This crate provides:
//!
//! - [`config`]: the `Ds × Dr × Dm` configuration space ([`Shape`]).
//! - [`models`]: the paper's analytical models, Equations (1)–(16), and the
//!   integer-constrained aspect-ratio optimizer.
//! - [`layout`]: logical→physical data placement ([`Layout`]).
//! - [`sched`]: rotation-aware local disk schedulers (LOOK, SATF, RLOOK,
//!   RSATF).
//! - [`engine`]: the array simulator ([`ArraySim`]) with mirror-read
//!   heuristics, foreground/background replica propagation, the NVRAM
//!   delayed-write table, and an optional memory cache.
//!
//! # Examples
//!
//! Configure a six-disk array for a Cello-like workload and measure it:
//!
//! ```
//! use mimd_core::models::{recommend_latency_shape, DiskCharacter};
//! use mimd_core::{ArraySim, EngineConfig};
//! use mimd_disk::DiskParams;
//! use mimd_workload::SyntheticSpec;
//!
//! let character = DiskCharacter::from_params(&DiskParams::st39133lwv());
//! let shape = recommend_latency_shape(&character.with_locality(4.14), 6, 1.0);
//! assert_eq!((shape.ds, shape.dr), (2, 3));
//!
//! let trace = SyntheticSpec::cello_base().generate(1, 300);
//! let mut sim = ArraySim::new(EngineConfig::new(shape), trace.data_sectors).unwrap();
//! let report = sim.run_trace(&trace);
//! assert_eq!(report.completed, 300);
//! ```

pub mod config;
pub mod dqueue;
pub mod engine;
pub mod faults;
pub mod layout;
pub mod models;
pub mod sched;
mod slab;

pub use config::Shape;
pub use dqueue::{DriveQueue, TaskId};
pub use engine::report::{FaultReport, PredictionStats, RunReport};
pub use engine::{ArraySim, CacheConfig, EngineConfig, MirrorPolicy, WriteMode};
pub use faults::{FailSlow, FailStop, FaultPlan, MediaErrors, RebuildConfig, RetryPolicy};
pub use layout::{
    Fragment, Layout, LayoutError, ParityConfig, ParityLoc, RaidLevel, Replica, ReplicaPlacement,
};
pub use sched::Policy;
