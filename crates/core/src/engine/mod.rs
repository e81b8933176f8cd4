//! The array simulation engine: MimdRAID's disk-configuration, scheduling,
//! and delayed-write layers (§3.1, §3.3, §3.4) over simulated drives.
//!
//! One [`ArraySim`] drives an array of simulated disks through a
//! deterministic event loop. It implements:
//!
//! - logical→physical translation through [`Layout`] (64 KiB stripe units);
//! - per-disk *drive queues* with a pluggable [`Policy`] (§3.3);
//! - the mirror read heuristic: send to the closest idle copy, else
//!   duplicate into every owner's queue and cancel the losers once one
//!   disk starts the request (§3.3);
//! - foreground multi-replica writes that walk a block's rotational
//!   replicas greedily within (ideally) one revolution (§2.2, §3.4);
//! - delayed background propagation with per-disk delayed-write queues, an
//!   NVRAM metadata table with a forced-flush threshold, and write
//!   coalescing for data that die young (§3.4);
//! - an optional LRU memory cache in front of the array (§4.1, Figure 11).
//!
//! # Sharded execution
//!
//! The engine is split along the array's mirror-group boundary: one
//! `shard::Shard` per group owns that group's disks, drive queues,
//! event queue, fault context, and named RNG streams (every physical
//! consequence of a fragment — replicas, duplicates, retries, rebuild
//! traffic — stays inside its group). `ArraySim` is the *conductor*: it
//! routes each request's fragments to the owning shards as timestamped
//! `shard::Submission`s and folds the shards' completion/health
//! `shard::Note`s back into logical-request accounting.
//!
//! Two drive modes, chosen by configuration only (never by thread count):
//!
//! - **structured** (open-loop replays without a memory cache): arrivals
//!   are pre-scanned, every shard runs to quiescence independently —
//!   in parallel across up to [`ArraySim::set_parallelism`] worker
//!   threads — and the notes are merged in canonical
//!   `(time, kind, shard, emission)` order. Reports and the determinism
//!   witness are byte-identical at any worker count by construction.
//! - **interleaved** (closed loops, cached runs): a serial conductor
//!   loop steps whichever of {next arrival, cache completions, shards}
//!   is earliest, with a fixed tie order, so feedback (queue-depth
//!   replenishment, cache state) sees one global timeline. The shards'
//!   head times live in an index re-keyed only for the shards each step
//!   touched, so an event costs O(log groups), not a scan of every shard.
//!
//! The modes differ in how they drive the shards, not in what a shard
//! does. Each shard owns an even share of the NVRAM table
//! (`ceil(nvram_threshold / groups)` entries) and makes every flush
//! decision from its own share, and both drivers queue all of a
//! request's fragments on a shard before it dispatches. An uncached
//! replay therefore gives the same events in either mode.
//!
//! An `ArraySim` runs once. `run_trace` (open loop) or `run_closed_loop`
//! (Iometer-style) drives it from time zero, and a second run panics:
//! trace arrivals are absolute instants, so a reused clock would put them
//! in the past. Build a new `ArraySim` for every run; `drain_background`
//! may follow the run.

pub mod cache;
mod flat;
mod heads;
pub mod report;
mod shard;

use mimd_disk::DiskParams;
use mimd_disk::{Geometry, PositionKnowledge, SeekProfile, TimingPath};
use mimd_sim::{DetWitness, EventQueue, SimDuration, SimRng, SimTime};
use mimd_workload::{IometerSpec, Op, Trace};

use crate::config::Shape;
use crate::faults::FaultPlan;
use crate::layout::{
    Fragment, Layout, LayoutError, ParityConfig, ReplicaPlacement, DEFAULT_STRIPE_UNIT,
};
use crate::sched::Policy;
use crate::slab::{Key, Slab};

use cache::LruCache;
use heads::{HeadIndex, ShardSet};
use report::RunReport;
use shard::{HealthKind, Note, Pops, Shard, Submission};

/// How write replicas are propagated (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Every copy is written before the request completes (worst case of
    /// Equation (3); the Figure 13 regime).
    Foreground,
    /// The closest copy is written in the foreground; the rest propagate
    /// from per-disk delayed-write queues during idle time.
    Background,
}

/// How a mirrored read picks a disk when several hold the data (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MirrorPolicy {
    /// The paper's heuristic: immediate dispatch to the closest idle owner,
    /// else duplicate into every owner's queue.
    IdleOrDuplicate,
    /// Static assignment by block address (ablation baseline).
    Static,
}

/// Memory-cache configuration for the Figure 11 comparison.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Cache size in bytes.
    pub bytes: u64,
    /// Service time of a cache hit.
    pub hit_time: SimDuration,
}

/// Full configuration of an array simulation.
///
/// Its derived `Debug` form is the run cache's identity for the config
/// (`mimd_harness::fp`), so it must stay derived.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Array shape `Ds × Dr × Dm`.
    pub shape: Shape,
    /// Per-disk scheduling policy.
    pub policy: Policy,
    /// Replica-propagation mode.
    pub write_mode: WriteMode,
    /// Drive parameter set.
    pub disk_params: DiskParams,
    /// Timing fidelity.
    pub timing: TimingPath,
    /// Head-position knowledge (perfect vs software-tracked).
    pub knowledge: PositionKnowledge,
    /// Stagger mirror copies rotationally (§2.5 striped mirror).
    pub mirror_stagger: bool,
    /// Synchronise spindles across disks (else random phase offsets).
    pub sync_spindles: bool,
    /// Mirrored-read dispatch policy.
    pub mirror_policy: MirrorPolicy,
    /// NVRAM delayed-write table threshold (§3.4: 10 000 entries), split
    /// evenly across the mirror groups: each forces its delayed writes out
    /// at `ceil(nvram_threshold / groups)` entries.
    pub nvram_threshold: usize,
    /// Coalesce superseded delayed writes (§3.4 "data that die young").
    pub coalesce_delayed: bool,
    /// Optional front-end memory cache.
    pub cache: Option<CacheConfig>,
    /// Scheduling slack: replicas predicted closer than this are treated
    /// as a full revolution away (§3.2's k-sector conservatism). Only
    /// meaningful under tracked position knowledge.
    pub slack: SimDuration,
    /// Rotational-replica placement (§2.2; `Random` is an ablation).
    pub replica_placement: ReplicaPlacement,
    /// Enable the drives' track read-ahead buffers (off by default, as in
    /// the paper's experiments; see the read-ahead ablation).
    pub read_ahead: bool,
    /// Random seed (spindle phases, head-tracking error).
    pub seed: u64,
    /// Record every physical operation's predicted and measured access
    /// time in `RunReport::prediction` (Table 2's demerit figure needs
    /// both whole distributions). Off by default, which saves two `f64`
    /// per operation: the two sample sets then stay empty. The miss and
    /// error statistics are recorded either way.
    pub prediction_samples: bool,
    /// Fault-injection plan. The default (empty) plan disables the fault
    /// layer entirely: no extra RNG streams, no extra events, byte-identical
    /// reports (value-neutrality).
    pub faults: FaultPlan,
    /// XOR-parity organization (RAID 4/5) over the striped space. `None`
    /// (the default) leaves every replica/mirror path exactly as before —
    /// the same value-neutrality contract as `faults`.
    pub parity: Option<ParityConfig>,
}

impl EngineConfig {
    /// A configuration with the paper's defaults: RSATF on SR-Arrays and
    /// SATF elsewhere, background propagation, detailed timing, software
    /// head tracking at Table 2's accuracy, 64 KiB stripe unit,
    /// unsynchronised spindles, and a 10 000-entry NVRAM table.
    pub fn new(shape: Shape) -> Self {
        EngineConfig {
            shape,
            policy: Policy::default_for_dr(shape.dr),
            write_mode: WriteMode::Background,
            disk_params: DiskParams::st39133lwv(),
            timing: TimingPath::Detailed,
            knowledge: PositionKnowledge::Tracked {
                mean_error_us: 3.0,
                std_error_us: 31.0,
            },
            mirror_stagger: false,
            sync_spindles: false,
            mirror_policy: MirrorPolicy::IdleOrDuplicate,
            nvram_threshold: 10_000,
            coalesce_delayed: true,
            cache: None,
            // Four sectors' worth at the outer zone, per §3.2.
            slack: SimDuration::from_micros(110),
            replica_placement: ReplicaPlacement::Even,
            read_ahead: false,
            seed: 42,
            prediction_samples: false,
            faults: FaultPlan::default(),
            parity: None,
        }
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the write-propagation mode.
    pub fn with_write_mode(mut self, mode: WriteMode) -> Self {
        self.write_mode = mode;
        self
    }

    /// Uses perfect head-position knowledge (and drops the slack, which
    /// only hedges prediction error).
    pub fn with_perfect_knowledge(mut self) -> Self {
        self.knowledge = PositionKnowledge::Perfect;
        self.slack = SimDuration::ZERO;
        self
    }

    /// Installs a memory cache.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records the predicted and measured access-time samples that
    /// [`report::PredictionStats::demerit_us`] reads.
    pub fn with_prediction_samples(mut self) -> Self {
        self.prediction_samples = true;
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overlays an XOR-parity organization (RAID 4/5) on the array.
    pub fn with_parity(mut self, parity: ParityConfig) -> Self {
        self.parity = Some(parity);
        self
    }
}

/// Bound on how many queued entries a policy examines per decision, keeping
/// scheduling cost finite in saturated (beyond-knee) open-loop runs.
pub(crate) const SCHED_WINDOW: usize = 128;

/// One live logical request. `Option<Logical>` packs into the record's
/// own bytes (`op` and `failed` leave spare bit patterns), so a slab slot
/// carries no tag byte beside it.
#[derive(Debug, Clone, Copy)]
struct Logical {
    arrival: SimTime,
    op: Op,
    /// Outstanding *fragments*: each routed fragment resolves to exactly
    /// one completion [`Note`] from its owning shard.
    parts: u32,
    lbn: u64,
    sectors: u32,
    /// Whether any copy of this request was lost to a disk failure.
    failed: bool,
}

const _: () = assert!(std::mem::size_of::<Option<Logical>>() == std::mem::size_of::<Logical>());

/// Conductor-level events: everything that completes without touching a
/// disk. Folded into the conductor's witness sub-stream with disk
/// `u32::MAX` and kind 2, as the pre-shard engine did.
#[derive(Debug, Clone, Copy)]
enum CondEvent {
    /// A cache hit (or a request with no reachable fragment) completes.
    CacheDone(Key),
}

struct ClosedLoop {
    spec: IometerSpec,
    target: u64,
    issued: u64,
}

/// Array-health counters maintained from shard [`Note::Health`] messages,
/// replacing the old engine's direct reads of global fault state. Each
/// visible completion is classified against these counters at its
/// completion instant.
#[derive(Debug, Default)]
struct HealthState {
    dead: u32,
    slow: u32,
    rebuilding: u32,
}

impl HealthState {
    fn apply(&mut self, kind: HealthKind, on: bool) {
        let c = match kind {
            HealthKind::Dead => &mut self.dead,
            HealthKind::Slow => &mut self.slow,
            HealthKind::Rebuilding => &mut self.rebuilding,
        };
        if on {
            *c += 1;
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// The array simulator.
///
/// # Examples
///
/// ```
/// use mimd_core::{ArraySim, EngineConfig, Shape};
/// use mimd_workload::SyntheticSpec;
///
/// let trace = SyntheticSpec::cello_base().generate(1, 200);
/// let cfg = EngineConfig::new(Shape::sr_array(2, 3).unwrap());
/// let mut sim = ArraySim::new(cfg, trace.data_sectors).unwrap();
/// let report = sim.run_trace(&trace);
/// assert_eq!(report.completed, 200);
/// assert!(report.mean_response_ms() > 0.0);
/// ```
pub struct ArraySim {
    layout: Layout,
    /// One engine per mirror group, in group order.
    shards: Vec<Shard>,
    /// Conductor-level completions (cache hits, unreachable requests).
    events: EventQueue<CondEvent>,
    /// Live logical requests.
    logicals: Slab<Logical>,
    cache: Option<LruCache>,
    cache_hit_time: SimDuration,
    /// Conductor stream: closed-loop workload draws only.
    rng: SimRng,
    report: RunReport,
    closed_loop: Option<ClosedLoop>,
    last_completion: SimTime,
    /// Interleaved mode: every shard's earliest event time.
    heads: HeadIndex,
    /// Shards called into since `heads` was last re-keyed.
    dirty: ShardSet,
    /// Shards holding notes the conductor has not applied yet.
    noted: ShardSet,
    /// Reusable fragment buffer for request planning. The flag marks a
    /// parity full-stripe write; it is always `false` without a parity
    /// organization.
    frag_scratch: Vec<(Fragment, bool)>,
    /// The submissions `plan_logical` made for the latest request.
    plan: Vec<Submission>,
    /// The conductor's pops: arrivals (kind 0) and conductor completions
    /// (kind 2). Shard sub-streams are absorbed after its witness, in
    /// shard order, by `finish_report`.
    pops: Pops,
    health: HealthState,
    faults_active: bool,
    parallelism: usize,
    last_run_events: u64,
    /// Whether a run (or a drain) has reported; a second run is refused.
    ran: bool,
}

impl ArraySim {
    /// Builds an array for `data_sectors` of logical data.
    pub fn new(cfg: EngineConfig, data_sectors: u64) -> Result<Self, LayoutError> {
        let geometry = Geometry::new(&cfg.disk_params);
        let mut layout = Layout::new(
            cfg.shape,
            &geometry,
            data_sectors,
            DEFAULT_STRIPE_UNIT,
            cfg.mirror_stagger,
        )?
        .with_placement(cfg.replica_placement);
        if let Some(p) = cfg.parity {
            layout = layout.with_parity(p)?;
        }
        cfg.faults
            .validate(layout.disks())
            .map_err(LayoutError::InvalidFaultPlan)?;
        // Calibrate the drive model once — the seek fit is a numeric
        // bisection costing ~1 ms — and stamp out per-disk copies. The
        // profile's lookup tables are Arc-shared across all spindles.
        let seek = SeekProfile::fit(&cfg.disk_params).map_err(LayoutError::InvalidDiskParams)?;
        let groups = layout.groups();
        let shards: Vec<Shard> = (0..groups)
            .map(|g| Shard::new(g, &layout, &cfg, &geometry, &seek))
            .collect();
        let cache = cfg.cache.as_ref().map(|c| LruCache::new(c.bytes));
        let cache_hit_time = cfg
            .cache
            .as_ref()
            .map(|c| c.hit_time)
            .unwrap_or(SimDuration::ZERO);
        let faults_active = !cfg.faults.is_empty();
        let rng = SimRng::named(cfg.seed, "engine");
        Ok(ArraySim {
            layout,
            shards,
            events: EventQueue::new(),
            logicals: Slab::default(),
            cache,
            cache_hit_time,
            rng,
            report: RunReport::default(),
            closed_loop: None,
            last_completion: SimTime::ZERO,
            heads: HeadIndex::new(groups),
            dirty: ShardSet::new(groups),
            noted: ShardSet::new(groups),
            frag_scratch: Vec::new(),
            plan: Vec::new(),
            pops: Pops::default(),
            health: HealthState::default(),
            faults_active,
            parallelism: 1,
            last_run_events: 0,
            ran: false,
        })
    }

    /// Caps the worker threads that run shard engines concurrently in
    /// structured mode (default 1: fully serial). Reports and the
    /// determinism witness are byte-identical at any setting. The harness
    /// runs each job's engine serially and parallelises across jobs
    /// instead, so only a caller running one large array alone raises it.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.parallelism = workers.max(1);
    }

    /// Event pops across all shards and the conductor during the run, or
    /// during the drain that followed it — the throughput denominator for
    /// engine scaling.
    pub fn last_run_events(&self) -> u64 {
        self.last_run_events
    }

    /// Test hook: record every event pop so equivalence tests can compare
    /// the exact pop stream across shard/worker configurations.
    #[doc(hidden)]
    pub fn set_pop_capture(&mut self, on: bool) {
        self.pops.capture = on;
        for s in &mut self.shards {
            s.pops.capture = on;
        }
    }

    /// Test hook: the captured pop stream as `(time, entity, seq, disk,
    /// kind)` records, conductor first (entity 0) then shards in order.
    #[doc(hidden)]
    pub fn take_pop_stream(&mut self) -> Vec<(u64, u32, u64, u32, u8)> {
        let logs =
            std::iter::once(&mut self.pops).chain(self.shards.iter_mut().map(|s| &mut s.pops));
        logs.enumerate()
            .flat_map(|(e, p)| {
                p.log
                    .drain(..)
                    .map(move |(t, seq, d, k)| (t, e as u32, seq, d, k))
            })
            .collect()
    }

    /// Whether a disk has failed.
    pub fn disk_is_dead(&self, disk: usize) -> bool {
        let w = self.layout.disks_per_group().max(1);
        self.shards.get(disk / w).is_some_and(|s| s.is_dead(disk))
    }

    /// Pending delayed replica writes (the NVRAM table occupancy, §3.4),
    /// summed over the shards' budgets.
    pub fn nvram_entries(&self) -> usize {
        self.shards.iter().map(|s| s.nvram.count).sum()
    }

    /// Drains all pending background propagation to completion after a
    /// run and reports what the drain did: `delayed_propagated` counts the
    /// replica writes performed, and `completed` the requests the drain
    /// finished (a closed loop stops with requests still in flight, and
    /// a drain does not replenish them).
    ///
    /// This is §3.4's crash-recovery path made explicit: the NVRAM table
    /// records which replicas still need copies, and recovery replays them
    /// — no data buffer needed, because the first copy of each write is
    /// already durable on disk.
    pub fn drain_background(&mut self) -> RunReport {
        let at = self.last_completion;
        for c in 0..self.shards.len() {
            self.shards[c].drain(&self.layout, at);
            self.touched(c);
        }
        self.pump_notes();
        self.finish_report()
    }

    /// Refuses a second run: see the module docs.
    fn start_run(&self) {
        assert!(
            !self.ran,
            "an ArraySim runs once; build a new ArraySim for every run"
        );
    }

    /// The planned layout (for inspection).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Replays an open-loop trace to completion and reports. Without a
    /// memory cache the replay runs structured (shards in parallel); with
    /// one it runs interleaved, since cache hits are a cross-shard
    /// feedback path.
    ///
    /// # Panics
    ///
    /// Panics if this simulator has already run.
    pub fn run_trace(&mut self, trace: &Trace) -> RunReport {
        self.start_run();
        if self.cache.is_none() {
            self.run_structured(trace)
        } else {
            self.drive_interleaved(Some(trace))
        }
    }

    /// Runs an Iometer-style closed loop: keeps `outstanding` requests in
    /// flight until `completions` requests have finished. Always
    /// interleaved — replenishment is inherently global feedback.
    ///
    /// # Panics
    ///
    /// Panics if this simulator has already run.
    pub fn run_closed_loop(
        &mut self,
        spec: &IometerSpec,
        outstanding: usize,
        completions: u64,
    ) -> RunReport {
        self.start_run();
        self.closed_loop = Some(ClosedLoop {
            spec: *spec,
            target: completions,
            issued: outstanding as u64,
        });
        for i in 0..outstanding {
            let (op, lbn, sectors) = spec.next_at(&mut self.rng, i as u64);
            self.submit(SimTime::from_nanos(i as u64), op, lbn, sectors);
        }
        self.pump_notes();
        self.drive_interleaved(None)
    }

    /// Structured drive: pre-scan every arrival into per-shard submission
    /// lists, run each shard to quiescence (in parallel up to the worker
    /// cap), then merge the shards' notes in canonical order.
    fn run_structured(&mut self, trace: &Trace) -> RunReport {
        let groups = self.shards.len();
        let mut subs: Vec<Vec<Submission>> = vec![Vec::new(); groups];
        for (cursor, r) in trace.requests().iter().enumerate() {
            // Arrivals fold under the cursor index: the stream is fixed by
            // the trace alone, never by execution order.
            self.pops.fold(r.arrival, cursor as u64, u32::MAX, 0);
            self.plan_logical(r.arrival, r.op, r.lbn, r.sectors);
            for &s in &self.plan {
                subs[self.layout.group_of(s.frag)].push(s);
            }
        }

        let workers = self.parallelism.min(groups).max(1);
        let lay = &self.layout;
        if workers <= 1 {
            // Serial fallback: same shards, same order, same results.
            for (s, sub) in self.shards.iter_mut().zip(&subs) {
                s.run(lay, sub);
            }
        } else {
            let chunk = groups.div_ceil(workers);
            // simlint: allow(parallelism) — the conductor seam: shards are independent engines; their results merge deterministically below
            std::thread::scope(|scope| {
                for (sh, sb) in self.shards.chunks_mut(chunk).zip(subs.chunks(chunk)) {
                    scope.spawn(move || {
                        for (s, sub) in sh.iter_mut().zip(sb) {
                            s.run(lay, sub);
                        }
                    });
                }
            });
        }

        self.merge_notes();
        self.finish_report()
    }

    /// Interleaved drive: one serial loop stepping whichever of {next
    /// arrival, conductor completions, shards} fires earliest. The tie
    /// order at equal instants is fixed — arrival, then conductor, then
    /// shards by index — so the timeline is reproducible.
    fn drive_interleaved(&mut self, trace: Option<&Trace>) -> RunReport {
        // The fault events queued at build and closed-loop priming moved
        // shard heads outside this loop: key every shard once.
        for c in 0..self.shards.len() {
            self.dirty.insert(c);
        }
        self.rekey();
        let requests = trace.map_or(&[][..], Trace::requests);
        let n = requests.len();
        let mut cursor = 0usize;
        loop {
            let mut best: Option<(SimTime, usize)> = None;
            if let Some(r) = requests.get(cursor) {
                best = Some((r.arrival, 0));
            }
            if let Some(t) = self.events.peek_time() {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, 1));
                }
            }
            let head = self.heads.min();
            mimd_sim::sim_invariant!(
                head == self
                    .shards
                    .iter()
                    .enumerate()
                    .filter_map(|(c, s)| s.peek_time().map(|t| (t, c)))
                    .min(),
                "indexed shard head {head:?} differs from a scan of every shard"
            );
            if let Some((t, c)) = head {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, 2 + c));
                }
            }
            let Some((now, rank)) = best else {
                break;
            };
            match rank {
                0 => {
                    let r = requests[cursor];
                    self.pops.fold(now, cursor as u64, u32::MAX, 0);
                    cursor += 1;
                    self.submit(now, r.op, r.lbn, r.sectors);
                }
                1 => {
                    let Some((t, seq, CondEvent::CacheDone(id))) = self.events.pop_entry() else {
                        break;
                    };
                    self.pops.fold(t, seq, u32::MAX, 2);
                    self.complete_logical(t, id);
                }
                c => {
                    self.shards[c - 2].step(&self.layout);
                    self.touched(c - 2);
                }
            }
            self.pump_notes();
            self.rekey();
            if let Some(cl) = self.closed_loop.as_ref() {
                if self.report.completed >= cl.target {
                    break;
                }
            } else if cursor == n && self.logicals.is_empty() {
                break;
            }
        }
        self.finish_report()
    }

    /// Whether a closed loop has hit its completion target (at which
    /// point the run must stop consuming completions, exactly as the
    /// pre-shard engine stopped popping events).
    fn closed_target_reached(&self) -> bool {
        self.closed_loop
            .as_ref()
            .is_some_and(|cl| self.report.completed >= cl.target)
    }

    /// Records a conductor call into shard `c`: its head may have moved,
    /// and it may now hold notes.
    fn touched(&mut self, c: usize) {
        self.dirty.insert(c);
        if !self.shards[c].notes.is_empty() {
            self.noted.insert(c);
        }
    }

    /// Re-keys the head index for every shard touched since the last call.
    fn rekey(&mut self) {
        while let Some(c) = self.dirty.pop() {
            self.heads.set(c, self.shards[c].peek_time());
        }
    }

    /// Applies every queued shard note, in emission order, until a sweep
    /// finds none — iterative, so a completion whose replenishment fails
    /// immediately (all copies dead) cannot recurse. A sweep visits the
    /// shards holding notes in ascending index order; one that gains notes
    /// mid-sweep is visited in this sweep if it lies ahead of the cursor,
    /// else in the next. Stops at the closed loop's completion target,
    /// leaving later notes queued, so a chain of instantly-failing
    /// replenishments cannot overshoot the target.
    fn pump_notes(&mut self) {
        loop {
            if self.closed_target_reached() {
                return;
            }
            let mut any = false;
            let mut from = 0;
            while let Some(c) = self.noted.take_first_from(from) {
                any = true;
                from = c + 1;
                let notes = std::mem::take(&mut self.shards[c].notes);
                let mut it = notes.iter();
                while let Some(&note) = it.next() {
                    self.apply_note(note);
                    if self.closed_target_reached() {
                        // Re-queue the unapplied tail ahead of any notes
                        // the application just emitted.
                        let mut rest: Vec<Note> = it.copied().collect();
                        rest.append(&mut self.shards[c].notes);
                        self.shards[c].notes = rest;
                        self.touched(c);
                        return;
                    }
                }
                let mut buf = notes;
                buf.clear();
                if self.shards[c].notes.is_empty() {
                    self.shards[c].notes = buf;
                }
            }
            if !any {
                break;
            }
        }
    }

    /// Structured-mode merge: orders all shards' notes by
    /// `(time, health-before-completion, shard, emission index)` — a total
    /// order fixed by the simulation content, independent of how shards
    /// were packed onto worker threads — and applies them.
    fn merge_notes(&mut self) {
        let mut merged: Vec<(SimTime, u8, u32, u32, Note)> = Vec::new();
        for (c, s) in self.shards.iter_mut().enumerate() {
            for (i, &note) in s.notes.iter().enumerate() {
                let (at, rank) = match note {
                    Note::Health { at, .. } => (at, 0u8),
                    Note::Part { at, .. } => (at, 1u8),
                };
                merged.push((at, rank, c as u32, i as u32, note));
            }
            s.notes.clear();
        }
        merged.sort_by_key(|&(at, rank, c, i, _)| (at, rank, c, i));
        for &(_, _, _, _, note) in &merged {
            self.apply_note(note);
        }
    }

    fn apply_note(&mut self, note: Note) {
        match note {
            Note::Health { kind, on, .. } => self.health.apply(kind, on),
            Note::Part {
                logical,
                at,
                failed,
            } => {
                let Some(l) = self.logicals.get_mut(logical) else {
                    return;
                };
                l.failed |= failed;
                l.parts = l.parts.saturating_sub(1);
                if l.parts == 0 {
                    self.complete_logical(at, logical);
                }
            }
        }
    }

    fn finish_report(&mut self) -> RunReport {
        self.report.sim_time = self.last_completion.saturating_since(SimTime::ZERO);
        // Combine the witness: the conductor's sub-stream first, then each
        // shard's, in shard order. Idle sub-streams are skipped, so a run
        // that popped nothing reports the empty digest.
        let (witness, mut events) = self.pops.take_run();
        let mut combined = DetWitness::new();
        combined.absorb(0, &witness);
        for (c, s) in self.shards.iter_mut().enumerate() {
            let (witness, pops) = s.pops.take_run();
            combined.absorb(c as u32 + 1, &witness);
            events += pops;
        }
        self.report.witness = combined.value();
        self.last_run_events = events;
        if let Some(c) = &self.cache {
            self.report.cache_hits = c.hits();
            self.report.cache_misses = c.misses();
        }
        if self.faults_active {
            self.report.faults.active = true;
        }
        for s in &mut self.shards {
            let sr = std::mem::take(&mut s.report);
            self.report.merge_dispatch(&sr);
        }
        self.closed_loop = None;
        self.ran = true;
        std::mem::take(&mut self.report)
    }

    /// Plans one logical request: cache front-end, then one submission per
    /// fragment to the shard owning its mirror group.
    fn submit(&mut self, now: SimTime, op: Op, lbn: u64, sectors: u32) {
        // Memory cache front-end: full-hit reads never reach the disks;
        // writes leave their blocks resident but still go to disk.
        if let Some(c) = self.cache.as_mut() {
            if op == Op::Read {
                if c.lookup_range(lbn, sectors) {
                    let id = self.open_logical(now, op, lbn, sectors, 0);
                    self.events
                        .push(now + self.cache_hit_time, CondEvent::CacheDone(id));
                    return;
                }
            } else {
                c.insert_range(lbn, sectors);
            }
        }

        let id = self.plan_logical(now, op, lbn, sectors);
        if self.plan.is_empty() {
            // A zero-fragment request (never expected) completes through
            // the conductor queue rather than recursing.
            self.events.push(now, CondEvent::CacheDone(id));
        }
        // Every fragment is queued before any disk dispatches, as
        // `Shard::run` batches one request's submissions.
        let plan = std::mem::take(&mut self.plan);
        for &s in &plan {
            self.shards[self.layout.group_of(s.frag)].submit_frag(&self.layout, s);
        }
        for &s in &plan {
            let g = self.layout.group_of(s.frag);
            self.shards[g].kick(now);
            self.touched(g);
        }
        self.plan = plan;
    }

    /// Opens a logical request arriving at `now` and plans it into
    /// `self.plan`: one submission per fragment. Returns its key.
    fn plan_logical(&mut self, now: SimTime, op: Op, lbn: u64, sectors: u32) -> Key {
        let write = op.is_write();
        self.frag_scratch.clear();
        self.layout
            .plan_request(write, lbn, sectors, &mut self.frag_scratch);
        let id = self.open_logical(now, op, lbn, sectors, self.frag_scratch.len() as u32);
        self.plan.clear();
        self.plan
            .extend(self.frag_scratch.iter().map(|&(frag, stripe)| Submission {
                at: now,
                logical: id,
                frag,
                write,
                stripe,
            }));
        id
    }

    /// Registers a logical request awaiting `parts` fragment completions.
    fn open_logical(&mut self, now: SimTime, op: Op, lbn: u64, sectors: u32, parts: u32) -> Key {
        self.logicals.insert(Logical {
            arrival: now,
            op,
            parts,
            lbn,
            sectors,
            failed: false,
        })
    }

    fn complete_logical(&mut self, now: SimTime, id: Key) {
        let Some(l) = self.logicals.remove(id) else {
            return;
        };
        let response = now.saturating_since(l.arrival);
        self.report.completed += 1;
        self.last_completion = self.last_completion.max_of(now);
        if l.failed {
            self.report.failed_requests += 1;
        }
        if !l.failed && l.op.is_latency_visible() {
            let ms = response.as_millis_f64();
            self.report.response_ms.push(ms);
            self.report.response_samples_ms.push(ms);
            if l.op == Op::Read {
                self.report.read_ms.push(ms);
            } else {
                self.report.write_ms.push(ms);
            }
            // Degraded-mode windows: classify each visible completion by
            // the array's health at completion time.
            if self.faults_active {
                let set = if self.health.rebuilding > 0 {
                    &mut self.report.faults.rebuilding_ms
                } else if self.health.dead > 0 || self.health.slow > 0 {
                    &mut self.report.faults.degraded_ms
                } else {
                    &mut self.report.faults.healthy_ms
                };
                set.push(ms);
            }
        }
        // A failed read brought no data back, so it leaves nothing
        // resident: caching it would let the next read of lost data
        // "succeed" from memory.
        if l.op == Op::Read && !l.failed {
            if let Some(c) = self.cache.as_mut() {
                c.insert_range(l.lbn, l.sectors);
            }
        }

        // Closed loop: replace the completed request to hold the
        // outstanding count.
        if let Some(cl) = self.closed_loop.as_mut() {
            if self.report.completed < cl.target {
                let spec = cl.spec;
                let seq = cl.issued;
                cl.issued += 1;
                let (op, lbn, sectors) = spec.next_at(&mut self.rng, seq);
                self.submit(now, op, lbn, sectors);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_workload::SyntheticSpec;

    fn quick_cfg(shape: Shape) -> EngineConfig {
        EngineConfig::new(shape).with_perfect_knowledge()
    }

    #[test]
    fn single_disk_trace_completes_all_requests() {
        let trace = SyntheticSpec::cello_base().generate(1, 500);
        let mut sim = ArraySim::new(quick_cfg(Shape::striping(1)), trace.data_sectors).unwrap();
        let r = sim.run_trace(&trace);
        assert_eq!(r.completed, 500);
        assert!(r.mean_response_ms() > 2.0, "mean {}", r.mean_response_ms());
        assert!(
            r.mean_response_ms() < 100.0,
            "mean {}",
            r.mean_response_ms()
        );
        assert!(r.phys_requests >= 500);
    }

    #[test]
    fn striping_reduces_response_time() {
        let trace = SyntheticSpec::cello_base().generate(2, 1_500);
        let run = |shape: Shape| {
            let mut sim = ArraySim::new(quick_cfg(shape), trace.data_sectors).unwrap();
            sim.run_trace(&trace).mean_response_ms()
        };
        let one = run(Shape::striping(1));
        let six = run(Shape::striping(6));
        assert!(six < one, "1 disk {one} vs 6-stripe {six}");
    }

    #[test]
    fn sr_array_beats_striping_on_cello() {
        let trace = SyntheticSpec::cello_base().generate(3, 1_500);
        let run = |shape: Shape| {
            let mut sim = ArraySim::new(quick_cfg(shape), trace.data_sectors).unwrap();
            sim.run_trace(&trace).mean_response_ms()
        };
        let stripe = run(Shape::striping(6));
        let sr = run(Shape::sr_array(2, 3).unwrap());
        assert!(sr < stripe, "SR {sr} vs stripe {stripe}");
    }

    #[test]
    fn foreground_writes_gate_on_all_mirrors() {
        let trace = SyntheticSpec::tpcc().generate(4, 300);
        let bg = {
            let mut sim = ArraySim::new(
                quick_cfg(Shape::raid10(4).unwrap()).with_write_mode(WriteMode::Background),
                trace.data_sectors,
            )
            .unwrap();
            sim.run_trace(&trace)
        };
        let fg = {
            let mut sim = ArraySim::new(
                quick_cfg(Shape::raid10(4).unwrap()).with_write_mode(WriteMode::Foreground),
                trace.data_sectors,
            )
            .unwrap();
            sim.run_trace(&trace)
        };
        assert!(
            fg.write_ms.mean() > bg.write_ms.mean(),
            "fg {} vs bg {}",
            fg.write_ms.mean(),
            bg.write_ms.mean()
        );
        // Background mode propagates replicas off the critical path.
        assert!(bg.delayed_propagated > 0);
        assert_eq!(fg.delayed_propagated, 0);
    }

    #[test]
    fn delayed_writes_eventually_propagate_and_coalesce() {
        let spec = SyntheticSpec::cello_base();
        let trace = spec.generate(5, 2_000);
        let mut sim = ArraySim::new(
            quick_cfg(Shape::sr_array(2, 3).unwrap()),
            trace.data_sectors,
        )
        .unwrap();
        let r = sim.run_trace(&trace);
        assert!(r.delayed_propagated > 0);
        assert!(r.nvram_peak > 0);
    }

    #[test]
    fn closed_loop_maintains_throughput_accounting() {
        let spec = IometerSpec::random_read_512(16_000_000);
        let mut sim = ArraySim::new(quick_cfg(Shape::sr_array(2, 3).unwrap()), 16_000_000).unwrap();
        let r = sim.run_closed_loop(&spec, 8, 2_000);
        assert_eq!(r.completed, 2_000);
        let iops = r.throughput_iops();
        // Six 10k RPM disks with 2 ms overheads land in the hundreds.
        assert!(iops > 300.0 && iops < 5_000.0, "iops {iops}");
    }

    #[test]
    fn deeper_queues_raise_throughput() {
        let spec = IometerSpec::microbench(16_000_000, 1.0);
        let run = |q: usize| {
            let mut sim =
                ArraySim::new(quick_cfg(Shape::sr_array(3, 2).unwrap()), 16_000_000).unwrap();
            sim.run_closed_loop(&spec, q, 3_000).throughput_iops()
        };
        let shallow = run(2);
        let deep = run(32);
        assert!(deep > shallow * 1.2, "q2 {shallow} vs q32 {deep}");
    }

    #[test]
    fn cache_hits_reduce_response() {
        let trace = SyntheticSpec::cello_base().generate(6, 2_000);
        let no_cache = {
            let mut sim = ArraySim::new(quick_cfg(Shape::striping(2)), trace.data_sectors).unwrap();
            sim.run_trace(&trace)
        };
        let cached = {
            let cfg = quick_cfg(Shape::striping(2)).with_cache(CacheConfig {
                bytes: 256 << 20,
                hit_time: SimDuration::from_micros(100),
            });
            let mut sim = ArraySim::new(cfg, trace.data_sectors).unwrap();
            sim.run_trace(&trace)
        };
        assert!(cached.cache_hits > 0, "no hits recorded");
        assert!(
            cached.mean_response_ms() < no_cache.mean_response_ms(),
            "cached {} vs raw {}",
            cached.mean_response_ms(),
            no_cache.mean_response_ms()
        );
    }

    #[test]
    fn mirror_duplication_cancels_losers() {
        // Saturate a 2-way mirror with reads; duplicates must never double
        // count completions.
        let spec = IometerSpec::random_read_512(8_000_000);
        let mut sim = ArraySim::new(quick_cfg(Shape::mirror(2)), 8_000_000).unwrap();
        let r = sim.run_closed_loop(&spec, 16, 2_000);
        assert_eq!(r.completed, 2_000);
    }

    #[test]
    fn tracked_knowledge_reports_prediction_stats() {
        let trace = SyntheticSpec::cello_base().generate(7, 1_000);
        let cfg = EngineConfig::new(Shape::sr_array(2, 3).unwrap()).with_prediction_samples();
        let mut sim = ArraySim::new(cfg, trace.data_sectors).unwrap();
        let mut r = sim.run_trace(&trace);
        assert!(r.prediction.requests > 1_000 - 10);
        // Table 2 territory: sub-percent misses, tens-of-us errors.
        assert!(
            r.prediction.miss_rate() < 0.05,
            "miss {}",
            r.prediction.miss_rate()
        );
        let d = r.prediction.demerit_us().expect("samples were recorded");
        assert!(d < 500.0, "demerit {d}");
    }

    #[test]
    fn drain_background_empties_the_nvram_table() {
        let trace = SyntheticSpec::cello_base().generate(9, 1_500);
        let mut sim = ArraySim::new(
            quick_cfg(Shape::sr_array(2, 3).unwrap()),
            trace.data_sectors,
        )
        .unwrap();
        let _ = sim.run_trace(&trace);
        // Structured replays quiesce before reporting, so the table is
        // already clean; drain must agree and be a no-op.
        let pending = sim.nvram_entries();
        let drained = sim.drain_background().delayed_propagated;
        assert_eq!(sim.nvram_entries(), 0);
        assert!(drained >= pending as u64);

        // A closed loop stops at its completion target with delayed
        // writes still queued: the interleaved driver's table is dirty.
        let spec = IometerSpec::microbench(8_000_000, 0.3);
        let mut sim = ArraySim::new(quick_cfg(Shape::sr_array(2, 3).unwrap()), 8_000_000).unwrap();
        let _ = sim.run_closed_loop(&spec, 16, 2_000);
        let pending = sim.nvram_entries();
        assert!(pending > 0, "a write-heavy closed loop leaves work behind");
        let drained = sim.drain_background().delayed_propagated;
        assert_eq!(sim.nvram_entries(), 0);
        assert!(drained >= pending as u64, "drained {drained} of {pending}");
    }

    #[test]
    fn drain_background_is_a_noop_when_clean() {
        let trace = SyntheticSpec::cello_base().generate(10, 200);
        let mut sim = ArraySim::new(quick_cfg(Shape::striping(2)), trace.data_sectors).unwrap();
        let _ = sim.run_trace(&trace);
        // Striping makes no replicas: nothing to drain.
        assert_eq!(sim.nvram_entries(), 0);
        assert_eq!(sim.drain_background().delayed_propagated, 0);
    }

    /// An SR-Array that has replayed a short trace, or run a short closed
    /// loop when `closed` is set.
    fn used_once(closed: bool) -> ArraySim {
        let trace = SyntheticSpec::cello_base().generate(12, 100);
        let cfg = quick_cfg(Shape::sr_array(2, 3).unwrap());
        let mut sim = ArraySim::new(cfg, trace.data_sectors).unwrap();
        if closed {
            let spec = IometerSpec::microbench(trace.data_sectors, 0.5);
            let _ = sim.run_closed_loop(&spec, 4, 100);
        } else {
            let _ = sim.run_trace(&trace);
        }
        sim
    }

    #[test]
    #[should_panic(expected = "build a new ArraySim")]
    fn a_second_trace_run_is_rejected() {
        let trace = SyntheticSpec::cello_base().generate(12, 100);
        let _ = used_once(false).run_trace(&trace);
    }

    #[test]
    #[should_panic(expected = "build a new ArraySim")]
    fn a_closed_loop_after_a_trace_is_rejected() {
        let spec = IometerSpec::microbench(1 << 20, 0.5);
        let _ = used_once(false).run_closed_loop(&spec, 4, 100);
    }

    #[test]
    #[should_panic(expected = "build a new ArraySim")]
    fn a_second_closed_loop_is_rejected() {
        let spec = IometerSpec::microbench(1 << 20, 0.5);
        let _ = used_once(true).run_closed_loop(&spec, 4, 100);
    }

    #[test]
    #[should_panic(expected = "build a new ArraySim")]
    fn a_closed_loop_after_a_drain_is_rejected() {
        let mut sim = used_once(true);
        let _ = sim.drain_background();
        let spec = IometerSpec::microbench(1 << 20, 0.5);
        let _ = sim.run_closed_loop(&spec, 4, 100);
    }

    #[test]
    fn read_ahead_accelerates_sequential_streams() {
        let spec = IometerSpec::sequential_read(8_000_000, 128);
        let run = |read_ahead: bool| {
            let mut cfg = quick_cfg(Shape::striping(2));
            cfg.read_ahead = read_ahead;
            let mut sim = ArraySim::new(cfg, 8_000_000).unwrap();
            sim.run_closed_loop(&spec, 2, 2_000).throughput_iops()
        };
        let cold = run(false);
        let buffered = run(true);
        assert!(
            buffered > cold * 1.2,
            "read-ahead {buffered} vs cold {cold}"
        );
    }

    #[test]
    fn nvram_threshold_forces_delayed_writes_out() {
        // A tiny NVRAM table must bound the delayed-write backlog even
        // under continuous foreground pressure.
        let spec = IometerSpec::microbench(8_000_000, 0.3); // Write-heavy.
        let mut cfg = quick_cfg(Shape::sr_array(2, 3).unwrap());
        cfg.nvram_threshold = 20;
        let mut sim = ArraySim::new(cfg, 8_000_000).unwrap();
        let r = sim.run_closed_loop(&spec, 16, 3_000);
        assert!(
            r.nvram_peak <= 20 + 32,
            "NVRAM peaked at {} despite a 20-entry threshold",
            r.nvram_peak
        );
        assert!(r.delayed_propagated > 0);
    }

    /// A record store keyed by a monotone id keeps every id issued since
    /// its oldest live record; the slabs hold no more slots than were
    /// live at once, here the 128 requests a closed loop keeps in flight.
    /// On RAID 5 the one-sector requests are one fragment each, and a
    /// parity operation's legs count down that fragment's one job.
    #[test]
    fn record_stores_stay_within_the_live_count() {
        let runs = [
            (
                quick_cfg(Shape::raid10(16).unwrap()),
                IometerSpec::microbench(16_000_000, 1.0),
            ),
            (
                quick_cfg(Shape::striping(8)).with_parity(ParityConfig::raid5(4)),
                IometerSpec::mixed_512(16_000_000),
            ),
        ];
        for (cfg, spec) in runs {
            let parity = cfg.parity.is_some();
            let mut sim = ArraySim::new(cfg, 16_000_000).unwrap();
            let r = sim.run_closed_loop(&spec, 128, 10_000);
            assert_eq!(r.completed, 10_000);
            assert_eq!(r.faults.rmw_updates > 0, parity);
            assert!(
                sim.logicals.slot_count() <= 128,
                "conductor slab grew to {} slots",
                sim.logicals.slot_count()
            );
            for (g, s) in sim.shards.iter().enumerate() {
                assert!(
                    s.job_slots() <= 128,
                    "shard {g}'s job slab grew to {} slots",
                    s.job_slots()
                );
            }
        }
    }

    #[test]
    fn static_mirror_policy_completes_and_underperforms() {
        let spec = IometerSpec::microbench(8_000_000, 1.0);
        let run = |policy: MirrorPolicy| {
            let mut cfg = quick_cfg(Shape::mirror(3));
            cfg.mirror_policy = policy;
            let mut sim = ArraySim::new(cfg, 8_000_000).unwrap();
            sim.run_closed_loop(&spec, 6, 3_000)
        };
        let heuristic = run(MirrorPolicy::IdleOrDuplicate);
        let fixed = run(MirrorPolicy::Static);
        assert_eq!(heuristic.completed, 3_000);
        assert_eq!(fixed.completed, 3_000);
        assert!(heuristic.throughput_iops() > fixed.throughput_iops());
    }

    #[test]
    fn spanning_requests_wait_for_every_fragment() {
        // A request spanning many stripe units completes exactly once and
        // responds no faster than a single-unit request.
        let trace = {
            use mimd_workload::Request;
            let reqs = vec![
                Request {
                    id: 0,
                    arrival: SimTime::ZERO,
                    op: Op::Read,
                    lbn: 100,
                    sectors: 1_000, // Spans 9 units across 4 disks.
                },
                Request {
                    id: 0,
                    arrival: SimTime::ZERO,
                    op: Op::Read,
                    lbn: 5_000_000,
                    sectors: 8,
                },
            ];
            mimd_workload::Trace::new("span", 8_000_000, reqs)
        };
        let mut sim = ArraySim::new(quick_cfg(Shape::striping(4)), 8_000_000).unwrap();
        let r = sim.run_trace(&trace);
        assert_eq!(r.completed, 2);
        // Both requests recorded; the big one is the slower of the two.
        assert!(r.response_ms.max() >= r.response_ms.min());
        assert!(r.phys_requests > 9);
    }

    #[test]
    fn synchronized_striped_mirror_cuts_read_rotation() {
        // §2.5: staggered copies on synchronized spindles halve the
        // rotational wait of a 2-way mirror read.
        let spec = IometerSpec::random_read_512(8_000_000);
        let run = |stagger: bool| {
            let mut cfg = quick_cfg(Shape::raid10(4).unwrap());
            cfg.mirror_stagger = stagger;
            cfg.sync_spindles = true;
            let mut sim = ArraySim::new(cfg, 8_000_000).unwrap();
            sim.run_closed_loop(&spec, 1, 3_000).rotation_ms.mean()
        };
        let plain = run(false);
        let staggered = run(true);
        // R/2 = 3 ms down toward R/4 = 1.5 ms. The plain mean sits a
        // little under R/2 because idle-owner dispatch picks the shorter
        // total positioning of the two copies; the tolerance absorbs that
        // bias across workload-stream seeds.
        assert!((plain - 3.0).abs() < 0.45, "plain rot {plain}");
        assert!(staggered < 2.0, "staggered rot {staggered}");
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let trace = SyntheticSpec::tpcc().generate(8, 800);
        let run = || {
            let mut sim = ArraySim::new(
                EngineConfig::new(Shape::sr_array(2, 3).unwrap()),
                trace.data_sectors,
            )
            .unwrap();
            sim.run_trace(&trace)
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.phys_requests, b.phys_requests);
        assert!((a.mean_response_ms() - b.mean_response_ms()).abs() < 1e-12);
    }

    #[test]
    fn structured_replay_is_identical_at_any_worker_count() {
        let trace = SyntheticSpec::cello_base().generate(11, 600);
        let run = |workers: usize| {
            let mut sim = ArraySim::new(
                EngineConfig::new(Shape::sr_array(2, 3).unwrap()),
                trace.data_sectors,
            )
            .unwrap();
            sim.set_parallelism(workers);
            sim.run_trace(&trace)
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.witness, parallel.witness);
        assert_eq!(serial.completed, parallel.completed);
        assert_eq!(serial.phys_requests, parallel.phys_requests);
        assert!((serial.mean_response_ms() - parallel.mean_response_ms()).abs() == 0.0);
    }
}
