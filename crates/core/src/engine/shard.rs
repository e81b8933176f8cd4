//! Shard-local simulation engines: one [`Shard`] per mirror group.
//!
//! The sharded engine splits [`super::ArraySim`]'s formerly-global state
//! along the array's natural determinism boundary: the **mirror group**.
//! Group `g` of a `Ds × Dr × Dm` array owns exactly the `Dm` disks
//! `[g·Dm, (g+1)·Dm)`, and every physical operation a fragment can ever
//! cause — replica dispatch, mirror duplication, retry, redirect, delayed
//! propagation, hot-spare rebuild traffic — stays on those disks (see
//! [`crate::layout::Layout::group_of`]). A shard therefore carries its own
//! disks, drive queues, event queue, NVRAM budget, fault context, and
//! named RNG streams, and never touches another shard's state.
//!
//! Cross-shard traffic is carried as timestamped messages:
//!
//! - **inbound**, a time-sorted [`Submission`] list (one entry per
//!   fragment routed to this group) delivered by the conductor;
//! - **outbound**, [`Note`]s — fragment-completion `Part`s and array
//!   `Health` transitions — which the conductor merges in canonical
//!   `(time, shard, emission-index)` order.
//!
//! Each shard folds its own event pops into a private [`DetWitness`]
//! sub-stream with its own queue's FIFO sequence numbers; the conductor
//! combines the sub-streams in shard order (`DetWitness::absorb`), so the
//! final digest certifies the *per-shard pop sequences plus the canonical
//! merge* — a value that cannot depend on how many OS threads executed
//! the shards.

mod parity;

use std::collections::BTreeMap;

use mimd_disk::{SimDisk, Target};

use mimd_sim::{DetWitness, EventQueue, SimDuration, SimRng, SimTime};
use parity::ParityOp;

use super::flat::FlatMap;
use crate::dqueue::{DriveQueue, TaskId};
use crate::faults::{FaultCtx, RebuildState};
use crate::layout::{Fragment, Layout, Replica, LBN_LIMIT};
use crate::sched::{LookState, Policy, Schedulable};

use super::report::RunReport;
use super::{compact_live_groups, MirrorPolicy, SCHED_WINDOW, TASK_POOL_CAP};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskKind {
    Read,
    /// Foreground write of all rotational replicas on this disk.
    WriteAll,
    /// Background-mode first copy; completion spawns delayed propagation.
    WriteFirst,
    /// One delayed replica propagation.
    Delayed,
    /// A hot-spare rebuild chunk read on a surviving mirror. Rides the
    /// delayed queue so foreground work wins the disk, and stays out of
    /// the foreground latency accounting.
    Rebuild,
    /// One read leg of a parity operation (RAID 4/5): a plain data read,
    /// a degraded-read reconstruction leg, or the old-value read of an
    /// RMW. `task.job` holds the owning [`ParityOp`] id.
    ParityRead,
    /// One write leg of a parity operation: RMW data/parity update or a
    /// full-stripe member write. `task.job` holds the [`ParityOp`] id.
    ParityWrite,
}

#[derive(Debug, Clone)]
pub(crate) struct PendingTask {
    /// Shard-local job id (an index into the shard's [`JobRing`]), or
    /// `u64::MAX` for tasks with no logical request (delayed propagation,
    /// rebuild chunk reads).
    pub(crate) job: u64,
    pub(crate) frag: Fragment,
    pub(crate) write: bool,
    pub(crate) kind: TaskKind,
    pub(crate) targets: Vec<Target>,
    /// `(replica, mirror)` per target.
    pub(crate) meta: Vec<(u8, u8)>,
    pub(crate) enqueued: SimTime,
    pub(crate) dup: Option<u64>,
    /// Retry attempts consumed so far (fault layer).
    pub(crate) attempt: u8,
    /// Timeout-tracking stamp; `0` means no timeout is armed on this task.
    pub(crate) track: u64,
}

impl PendingTask {
    /// An empty shell for the recycling pool.
    fn shell() -> PendingTask {
        PendingTask {
            job: 0,
            frag: Fragment { lbn: 0, sectors: 0 },
            write: false,
            kind: TaskKind::Read,
            targets: Vec::new(),
            meta: Vec::new(),
            enqueued: SimTime::ZERO,
            dup: None,
            attempt: 0,
            track: 0,
        }
    }
}

impl Schedulable for PendingTask {
    fn candidates(&self) -> &[Target] {
        &self.targets
    }
    fn is_write(&self) -> bool {
        self.write
    }
    fn enqueued(&self) -> SimTime {
        self.enqueued
    }
}

/// The delayed-write coalesce key of one replica of the block at `lbn`:
/// the lbn in the high 48 bits, then the replica and mirror indexes. It
/// is injective because [`Layout::new`] places no lbn at or above
/// [`LBN_LIMIT`], which also keeps every key below `u64::MAX`, the index's
/// free-slot marker.
fn coalesce_key(lbn: u64, (replica, mirror): (u8, u8)) -> u64 {
    debug_assert!(lbn < LBN_LIMIT);
    (lbn << 16) | (replica as u64) << 8 | mirror as u64
}

/// Started mirror-duplicate generations, as a growable bitset.
#[derive(Debug, Default)]
struct DupSet {
    words: Vec<u64>,
}

impl DupSet {
    fn insert(&mut self, g: u64) {
        let (w, b) = ((g / 64) as usize, g % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << b;
    }

    fn contains(&self, g: u64) -> bool {
        let (w, b) = ((g / 64) as usize, g % 64);
        self.words.get(w).is_some_and(|&word| word >> b & 1 != 0)
    }
}

#[derive(Debug)]
struct InFlight {
    task: PendingTask,
    chosen: usize,
}

/// Shard-local events. The variants and witness kind codes mirror the
/// pre-shard engine's event enum exactly (kinds 1, 3–8); the conductor
/// folds the two array-wide kinds (0 = arrival, 2 = cache/empty
/// completion) into its own sub-stream. Disk indices are **global** so
/// witness records stay comparable across array shapes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColEvent {
    /// A disk finished its in-flight physical operation.
    DiskDone(usize),
    /// A disk fails (fault injection).
    DiskFail(usize),
    /// A fail-slow window opens on a disk.
    SlowStart(usize),
    /// A fail-slow window closes on a disk.
    SlowEnd(usize),
    /// A read's simulated-time timeout fires.
    Timeout { disk: usize, id: TaskId, track: u64 },
    /// The hot spare for a failed disk comes online and copying begins.
    RebuildStart(usize),
    /// The spare finished writing one rebuild chunk (all `Dr` replicas).
    SpareDone(usize),
}

impl ColEvent {
    /// The `(disk, kind)` pair folded into the determinism witness for
    /// every pop. Kind codes are part of the witness definition: renumber
    /// them and historical witness values stop being comparable.
    pub(crate) fn witness_code(&self) -> (u32, u8) {
        match *self {
            ColEvent::DiskDone(d) => (d as u32, 1),
            ColEvent::DiskFail(d) => (d as u32, 3),
            ColEvent::SlowStart(d) => (d as u32, 4),
            ColEvent::SlowEnd(d) => (d as u32, 5),
            ColEvent::Timeout { disk, .. } => (disk as u32, 6),
            ColEvent::RebuildStart(d) => (d as u32, 7),
            ColEvent::SpareDone(d) => (d as u32, 8),
        }
    }
}

/// An array-health transition a shard reports to the conductor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HealthKind {
    /// A disk died (on) or was restored by a completed rebuild (off).
    Dead,
    /// A fail-slow window opened (on) or closed (off).
    Slow,
    /// A hot-spare copy started (on) or ended/was abandoned (off).
    Rebuilding,
}

/// Outbound shard→conductor message.
///
/// Shards append notes in their own event order; the conductor applies
/// them immediately (interleaved mode) or merges them across shards in
/// `(time, shard, emission-index)` order (structured mode).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Note {
    /// One routed fragment of a logical request finished (all its local
    /// parts completed, or it was failed outright).
    Part {
        logical: u64,
        at: SimTime,
        failed: bool,
    },
    /// An array-health transition, for degraded-window classification.
    Health {
        at: SimTime,
        kind: HealthKind,
        on: bool,
    },
}

/// One fragment of a logical request, routed to the shard that owns its
/// mirror group, with the arrival-time stamp it must be submitted at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Submission {
    pub(crate) at: SimTime,
    pub(crate) logical: u64,
    pub(crate) frag: Fragment,
    pub(crate) write: bool,
    /// Foreground write mode: every replica group gets its own gating task.
    pub(crate) fg_write: bool,
    /// Parity organizations only: this fragment covers a group's full
    /// stripe row of new data, so parity is computed without old-value
    /// reads. Always `false` without a parity layout.
    pub(crate) stripe: bool,
}

/// One shard's share of the NVRAM delayed-write table (§3.4).
///
/// Each shard owns `ceil(threshold / groups)` entries of the configured
/// table and forces its delayed writes out once its own count reaches
/// that. The flush decision never reads another shard's state, so both
/// drive modes make it at the same events. The shard's peak occupancy
/// lands in its report's `nvram_peak`.
#[derive(Debug)]
pub(crate) struct Nvram {
    pub(crate) count: usize,
    threshold: usize,
}

/// Live fragment jobs of one shard, addressed by sequential local id.
/// Same ring-buffer idea as the conductor's `LogicalTable`, but only the
/// part countdown lives here — request metadata stays with the conductor.
#[derive(Debug, Default)]
struct JobRing {
    base: u64,
    logicals: std::collections::VecDeque<u64>,
    parts: std::collections::VecDeque<u32>,
    /// Bit 0: failed. Bit 1: live.
    flags: std::collections::VecDeque<u8>,
    live: usize,
}

const JOB_FAILED: u8 = 1;
const JOB_LIVE: u8 = 2;

impl JobRing {
    fn insert(&mut self, id: u64, logical: u64, parts: u32) {
        debug_assert_eq!(id, self.base + self.logicals.len() as u64);
        self.logicals.push_back(logical);
        self.parts.push_back(parts);
        self.flags.push_back(JOB_LIVE);
        self.live += 1;
    }

    fn index(&self, id: u64) -> Option<usize> {
        let idx = id.checked_sub(self.base)? as usize;
        (idx < self.flags.len() && self.flags[idx] & JOB_LIVE != 0).then_some(idx)
    }

    /// Counts one part done; on the job's last part, retires it and
    /// returns `(logical, failed)` for the completion note.
    fn dec(&mut self, id: u64, failed: bool) -> Option<(u64, bool)> {
        let idx = self.index(id)?;
        if failed {
            self.flags[idx] |= JOB_FAILED;
        }
        let p = self.parts[idx].saturating_sub(1);
        self.parts[idx] = p;
        if p != 0 {
            return None;
        }
        let out = (self.logicals[idx], self.flags[idx] & JOB_FAILED != 0);
        self.flags[idx] = 0;
        self.live -= 1;
        while self.flags.front() == Some(&0) {
            self.logicals.pop_front();
            self.parts.pop_front();
            self.flags.pop_front();
            self.base += 1;
        }
        Some(out)
    }
}

/// A captured pop record for the shard-equivalence property tests:
/// `(time_ns, seq, disk, kind)` exactly as folded into the witness.
pub(crate) type PopRecord = (u64, u64, u32, u8);

/// One event queue's pops: its witness sub-stream, the pop count (the
/// engine-scaling throughput denominator), and a capture log for the
/// equivalence property tests (off by default). The conductor and every
/// shard each keep one.
#[derive(Debug, Default)]
pub(crate) struct Pops {
    pub(crate) witness: DetWitness,
    pub(crate) count: u64,
    pub(crate) capture: bool,
    pub(crate) log: Vec<PopRecord>,
}

impl Pops {
    /// Folds one popped event into the witness (and the log when on).
    pub(crate) fn fold(&mut self, now: SimTime, seq: u64, disk: u32, kind: u8) {
        self.witness.fold(now.as_nanos(), seq, disk, kind);
        self.count += 1;
        if self.capture {
            self.log.push((now.as_nanos(), seq, disk, kind));
        }
    }

    /// Ends a run: returns its witness and pop count and starts afresh.
    pub(crate) fn take_run(&mut self) -> (DetWitness, u64) {
        let out = (self.witness, self.count);
        self.witness = DetWitness::new();
        self.count = 0;
        out
    }
}

/// One shard: a mirror group's disks and everything that schedules them.
#[derive(Debug)]
pub(crate) struct Shard {
    /// First global disk index owned by this shard; the shard owns
    /// `[base, base + width)` and local vectors are indexed by
    /// `disk - base`.
    pub(crate) base: usize,
    /// Disks this shard owns: `Dm` for mirrored shapes, the parity group
    /// size `G` for RAID 4/5 (the two organizations never combine).
    width: usize,
    dr: usize,
    stripe_unit: u32,
    /// `Ds × Dr` (static mirror-policy stride).
    ds_x_dr: u64,
    mirror_policy: MirrorPolicy,
    coalesce: bool,
    slack: SimDuration,
    disks: Vec<SimDisk>,
    fg: Vec<DriveQueue<PendingTask>>,
    delayed: Vec<DriveQueue<PendingTask>>,
    /// Mirror-duplicate tags per disk: (duplicate generation, queued id).
    dup_tags: Vec<Vec<(u64, TaskId)>>,
    /// Delayed-write coalesce index per disk: [`coalesce_key`] → queued id.
    delayed_keys: Vec<FlatMap<TaskId>>,
    look: Vec<LookState>,
    inflight: Vec<Option<InFlight>>,
    /// Per owned disk, indexed by `disk - base`; read through
    /// [`Shard::is_dead`], which takes a global disk index.
    dead: Vec<bool>,
    events: EventQueue<ColEvent>,
    jobs: JobRing,
    next_job: u64,
    dup_started: DupSet,
    next_dup: u64,
    /// Live parity operations (RAID 4/5 reads, RMWs, stripe writes),
    /// keyed by operation id; parity task `job` fields hold this id.
    parity_ops: BTreeMap<u64, ParityOp>,
    next_parity_op: u64,
    /// Per-shard fault context (own named RNG stream, own rebuild state);
    /// `None` for an empty plan.
    pub(crate) faults: Option<Box<FaultCtx>>,
    /// Dispatch-side statistics (prediction, service components, fault
    /// counters); merged into the conductor's report at run end.
    pub(crate) report: RunReport,
    /// Outbound mailbox, drained by the conductor.
    pub(crate) notes: Vec<Note>,
    /// This shard's delayed-write budget.
    pub(crate) nvram: Nvram,
    /// This shard's witness sub-stream over its own event pops.
    pub(crate) pops: Pops,
    touched: Vec<usize>,
    task_pool: Vec<PendingTask>,
    write_scratch: Vec<Target>,
    group_scratch: Vec<Replica>,
    /// Reused lanes for the idle-owner batched positioning probe.
    probe: ProbeScratch,
}

/// Input/output lanes for costing one mirror group's replicas against one
/// disk with [`SimDisk::sched_cost_batch`] (the mirrored/spared pick site
/// of `dispatch_groups`).
#[derive(Debug, Default)]
struct ProbeScratch {
    dist: Vec<u32>,
    surface: Vec<u32>,
    write: Vec<u8>,
    phase: Vec<f64>,
    pos: Vec<u64>,
    rot: Vec<u64>,
}

impl ProbeScratch {
    /// Minimum positioning cost over `g`'s replica targets on `disk`, via
    /// one batched kernel call. Per replica this equals
    /// `disk.estimate(now, &r.target, write).positioning().as_nanos()`
    /// exactly, provided the drive has no read-ahead buffer (the caller
    /// checks).
    fn min_positioning_ns(
        &mut self,
        disk: &SimDisk,
        now: SimTime,
        write: bool,
        g: &[Replica],
    ) -> u64 {
        let n = g.len();
        let arm = disk.arm_cylinder();
        self.dist.clear();
        self.surface.clear();
        self.phase.clear();
        for r in g {
            self.dist.push(arm.abs_diff(r.target.cylinder));
            self.surface.push(r.target.surface);
            self.phase.push(disk.sched_phase(&r.target));
        }
        self.write.clear();
        self.write.resize(n, u8::from(write));
        self.pos.clear();
        self.pos.resize(n, 0);
        self.rot.clear();
        self.rot.resize(n, 0);
        disk.sched_cost_batch(
            now,
            &self.dist,
            &self.surface,
            &self.write,
            &self.phase,
            &mut self.pos,
            &mut self.rot,
        );
        self.pos.iter().copied().min().unwrap_or(u64::MAX)
    }
}

impl Shard {
    /// Builds the shard for mirror group `group` of an `ndisks`-disk
    /// array. Per-disk RNG streams are `named_indexed` by **global** disk
    /// index, so the disk population is identical at any shard count and
    /// independent of construction order.
    pub(crate) fn new(
        group: usize,
        ndisks: usize,
        lay: &Layout,
        cfg: &super::EngineConfig,
        geometry: &mimd_disk::Geometry,
        seek: &mimd_disk::SeekProfile,
        policy: Policy,
    ) -> Shard {
        let shape = lay.shape();
        let width = lay.disks_per_group().max(1);
        let dr = shape.dr.max(1) as usize;
        let base = group * width;
        let mut disks = Vec::with_capacity(width);
        for m in 0..width {
            let d_global = (base + m) as u64;
            let mut d = SimDisk::with_parts(
                &cfg.disk_params,
                geometry.clone(),
                seek.clone(),
                cfg.timing,
                cfg.knowledge,
                SimRng::named_indexed(cfg.seed, "disk", d_global).below(u64::MAX),
            );
            if !cfg.sync_spindles {
                d.set_phase_offset(SimRng::named_indexed(cfg.seed, "spindle", d_global).unit());
            }
            d.set_read_ahead(cfg.read_ahead);
            disks.push(d);
        }
        let faults = if cfg.faults.is_empty() {
            None
        } else {
            let ctx = FaultCtx::new(&cfg.faults, cfg.seed, ndisks, group as u64);
            for w in &ctx.plan.fail_slow {
                if w.disk >= base && w.disk < base + width {
                    disks[w.disk - base].add_fail_slow(w.from, w.until, w.factor);
                }
            }
            Some(Box::new(ctx))
        };
        Shard {
            base,
            width,
            dr,
            stripe_unit: cfg.stripe_unit,
            ds_x_dr: shape.ds as u64 * shape.dr as u64,
            mirror_policy: cfg.mirror_policy,
            coalesce: cfg.coalesce_delayed,
            slack: cfg.slack,
            disks,
            fg: (0..width).map(|_| DriveQueue::new(policy)).collect(),
            delayed: (0..width).map(|_| DriveQueue::new(policy)).collect(),
            dup_tags: vec![Vec::new(); width],
            delayed_keys: (0..width).map(|_| FlatMap::new()).collect(),
            look: vec![LookState::default(); width],
            inflight: (0..width).map(|_| None).collect(),
            dead: vec![false; width],
            events: EventQueue::new(),
            jobs: JobRing::default(),
            next_job: 0,
            dup_started: DupSet::default(),
            next_dup: 0,
            parity_ops: BTreeMap::new(),
            next_parity_op: 0,
            faults,
            report: RunReport::default(),
            notes: Vec::new(),
            nvram: Nvram {
                count: 0,
                threshold: cfg.nvram_threshold.div_ceil(lay.groups().max(1)).max(1),
            },
            pops: Pops::default(),
            touched: Vec::new(),
            task_pool: Vec::new(),
            write_scratch: Vec::new(),
            group_scratch: Vec::new(),
            probe: ProbeScratch::default(),
        }
    }

    /// Arms the fault plan's events for this shard's disks (idempotent).
    pub(crate) fn arm(&mut self) {
        let (base, width) = (self.base, self.width);
        let Some(ctx) = self.faults.as_mut() else {
            return;
        };
        if ctx.armed {
            return;
        }
        ctx.armed = true;
        for f in &ctx.plan.fail_stop {
            if f.disk >= base && f.disk < base + width {
                self.events.push(f.at, ColEvent::DiskFail(f.disk));
            }
        }
        for w in &ctx.plan.fail_slow {
            if w.disk >= base && w.disk < base + width {
                self.events.push(w.from, ColEvent::SlowStart(w.disk));
                self.events.push(w.until, ColEvent::SlowEnd(w.disk));
            }
        }
    }

    /// Whether `disk`, a global index this shard owns, has failed.
    pub(crate) fn is_dead(&self, disk: usize) -> bool {
        self.dead[disk - self.base]
    }

    /// The firing time of this shard's earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Pops and handles exactly one event. Returns `false` when idle.
    pub(crate) fn step(&mut self, lay: &Layout) -> bool {
        let Some((now, seq, ev)) = self.events.pop_entry() else {
            return false;
        };
        let (wd, wk) = ev.witness_code();
        self.pops.fold(now, seq, wd, wk);
        match ev {
            ColEvent::DiskDone(d) => self.on_disk_done(lay, now, d),
            ColEvent::DiskFail(d) => self.on_disk_fail(lay, now, d),
            ColEvent::SlowStart(d) => self.on_slow_edge(now, d, true),
            ColEvent::SlowEnd(d) => self.on_slow_edge(now, d, false),
            ColEvent::Timeout { disk, id, track } => self.on_timeout(lay, now, disk, id, track),
            ColEvent::RebuildStart(d) => self.on_rebuild_start(lay, now, d),
            ColEvent::SpareDone(d) => self.on_spare_done(lay, now, d),
        }
        true
    }

    /// Runs this shard to quiescence against a time-sorted submission
    /// list (structured mode). Submissions are injected ahead of local
    /// events at equal instants — the fixed merge rule that makes the
    /// interleaving independent of how shards are packed onto threads.
    pub(crate) fn run(&mut self, lay: &Layout, subs: &[Submission]) {
        let mut i = 0;
        loop {
            let next_sub = subs.get(i).map(|s| s.at);
            let take_sub = match (next_sub, self.events.peek_time()) {
                (Some(st), Some(et)) => st <= et,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_sub {
                // Batch the fragments of one logical request arriving at
                // one instant, then kick, as the pre-shard submit path
                // dispatched per request.
                let st = subs[i].at;
                let logical = subs[i].logical;
                while i < subs.len() && subs[i].at == st && subs[i].logical == logical {
                    self.submit_frag(lay, subs[i]);
                    i += 1;
                }
                self.kick(st);
            } else {
                self.step(lay);
            }
        }
    }

    /// Drains every pending event (delayed propagation, in-flight rebuild
    /// chunks) to quiescence — the shard half of `drain_background`.
    pub(crate) fn drain(&mut self, lay: &Layout, at: SimTime) {
        for l in 0..self.width {
            self.try_dispatch(at, l);
        }
        while self.step(lay) {}
    }

    /// Plans one routed fragment into local tasks: one gating job with
    /// one part per replica-group task (foreground writes) or one part
    /// total (reads / background-mode first copies). A fragment with no
    /// surviving copy emits an immediate failed `Part` note.
    pub(crate) fn submit_frag(&mut self, lay: &Layout, sub: Submission) {
        let Submission {
            at: now,
            logical,
            frag,
            write,
            fg_write,
            stripe,
        } = sub;
        if lay.parity().is_some() {
            self.submit_parity_frag(lay, now, logical, frag, write, stripe);
            return;
        }
        let mut reps = std::mem::take(&mut self.group_scratch);
        reps.clear();
        lay.write_groups_into(frag, &mut reps);
        compact_live_groups(&mut reps, 0, self.dr, &self.dead, self.base);
        if reps.is_empty() {
            self.notes.push(Note::Part {
                logical,
                at: now,
                failed: true,
            });
        } else {
            let job = self.next_job;
            self.next_job += 1;
            let fg = write && fg_write;
            let parts = if fg { (reps.len() / self.dr) as u32 } else { 1 };
            self.jobs.insert(job, logical, parts);
            if fg {
                for replicas in reps.chunks_exact(self.dr) {
                    let disk = replicas[0].disk;
                    let task = self.make_task(job, frag, true, TaskKind::WriteAll, replicas, now);
                    self.enqueue(disk, task);
                    self.touched.push(disk - self.base);
                }
            } else {
                let kind = if write {
                    TaskKind::WriteFirst
                } else {
                    TaskKind::Read
                };
                self.dispatch_mirrored(job, frag, write, kind, &reps, now);
            }
        }
        reps.clear();
        self.group_scratch = reps;
    }

    /// Dispatches the disks touched since the last kick.
    pub(crate) fn kick(&mut self, now: SimTime) {
        if self.touched.is_empty() {
            return;
        }
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        for &l in &touched {
            self.try_dispatch(now, l);
        }
        touched.clear();
        self.touched = touched;
    }

    /// Builds a task over `replicas`, reusing a pooled shell.
    fn make_task(
        &mut self,
        job: u64,
        frag: Fragment,
        write: bool,
        kind: TaskKind,
        replicas: &[Replica],
        now: SimTime,
    ) -> PendingTask {
        let mut t = self.task_pool.pop().unwrap_or_else(PendingTask::shell);
        t.job = job;
        t.frag = frag;
        t.write = write;
        t.kind = kind;
        t.targets.clear();
        t.targets.extend(replicas.iter().map(|r| r.target));
        t.meta.clear();
        t.meta
            .extend(replicas.iter().map(|r| (r.replica, r.mirror)));
        t.enqueued = now;
        t.dup = None;
        t.attempt = 0;
        t.track = 0;
        t
    }

    /// Returns a completed task's shell (with its buffers) to the pool.
    fn recycle(&mut self, task: PendingTask) {
        if self.task_pool.len() < TASK_POOL_CAP {
            self.task_pool.push(task);
        }
    }

    /// Marks one part of a job done; the job's last part emits its
    /// completion note to the conductor.
    fn finish_part(&mut self, now: SimTime, job: u64, failed: bool) {
        if let Some((logical, any_failed)) = self.jobs.dec(job, failed) {
            self.notes.push(Note::Part {
                logical,
                at: now,
                failed: any_failed,
            });
        }
    }

    /// Dispatches a read (or first-copy write), steering it away from
    /// disks inside a fail-slow window first when the plan asks for
    /// redirection and a healthy copy exists.
    fn dispatch_mirrored(
        &mut self,
        job: u64,
        frag: Fragment,
        write: bool,
        kind: TaskKind,
        groups: &[Replica],
        now: SimTime,
    ) {
        let dr = self.dr;
        let mut filtered: Option<Vec<Replica>> = None;
        if !write && groups.len() > dr {
            if let Some(ctx) = self.faults.as_mut() {
                if ctx.plan.redirect && ctx.any_slow() {
                    let mut buf = std::mem::take(&mut ctx.redirect_scratch);
                    buf.clear();
                    for g in groups.chunks_exact(dr) {
                        if ctx.slow_now.get(g[0].disk).copied().unwrap_or(0) == 0 {
                            buf.extend_from_slice(g);
                        }
                    }
                    if !buf.is_empty() && buf.len() < groups.len() {
                        ctx.report.redirects += 1;
                        filtered = Some(buf);
                    } else {
                        buf.clear();
                        ctx.redirect_scratch = buf;
                    }
                }
            }
        }
        if let Some(mut buf) = filtered {
            self.dispatch_groups(job, frag, write, kind, &buf, now);
            buf.clear();
            if let Some(ctx) = self.faults.as_mut() {
                ctx.redirect_scratch = buf;
            }
        } else {
            self.dispatch_groups(job, frag, write, kind, groups, now);
        }
    }

    /// Dispatches a read (or first-copy write) per the §3.3 mirror
    /// heuristic, recording touched local disks for the next kick.
    fn dispatch_groups(
        &mut self,
        job: u64,
        frag: Fragment,
        write: bool,
        kind: TaskKind,
        groups: &[Replica],
        now: SimTime,
    ) {
        let dr = self.dr;
        let ngroups = groups.len() / dr;
        if ngroups == 1 || self.mirror_policy == MirrorPolicy::Static {
            let idx = if ngroups == 1 {
                0
            } else {
                ((frag.lbn / self.stripe_unit as u64) / self.ds_x_dr % ngroups as u64) as usize
            };
            let replicas = &groups[idx * dr..(idx + 1) * dr];
            let disk = replicas[0].disk;
            let task = self.make_task(job, frag, write, kind, replicas, now);
            self.enqueue(disk, task);
            self.touched.push(disk - self.base);
            return;
        }

        // Idle owners first: send to the idle head closest to a copy. One
        // batched kernel call costs a whole group's replicas; strict `<`
        // keeps the scalar `min_by_key`'s first-minimal tie rule.
        let base = self.base;
        let mut idle: Option<(&[Replica], u64)> = None;
        for g in groups.chunks_exact(dr) {
            let l = g[0].disk - base;
            if self.inflight[l].is_some() || !self.fg[l].is_empty() {
                continue;
            }
            let disk = &self.disks[l];
            let key = if disk.read_ahead_enabled() {
                // A buffered hit short-circuits positioning; stay scalar.
                g.iter()
                    .map(|r| {
                        disk.estimate(now, &r.target, write)
                            .positioning()
                            .as_nanos()
                    })
                    .min()
                    .unwrap_or(u64::MAX)
            } else {
                self.probe.min_positioning_ns(disk, now, write, g)
            };
            if idle.is_none_or(|(_, k)| key < k) {
                idle = Some((g, key));
            }
        }
        if let Some((replicas, _)) = idle {
            let disk = replicas[0].disk;
            let task = self.make_task(job, frag, write, kind, replicas, now);
            self.enqueue(disk, task);
            self.touched.push(disk - base);
            return;
        }

        // All owners busy: duplicate into every drive queue; the first
        // disk to start it wins and the rest are cancelled.
        let dup = self.next_dup;
        self.next_dup += 1;
        for replicas in groups.chunks_exact(dr) {
            let disk = replicas[0].disk;
            let mut t = self.make_task(job, frag, write, kind, replicas, now);
            t.dup = Some(dup);
            self.enqueue(disk, t);
            self.touched.push(disk - base);
        }
    }

    fn enqueue(&mut self, disk: usize, mut task: PendingTask) {
        let l = disk - self.base;
        // Arm a simulated-time timeout on single-queued reads; the
        // deadline backs off exponentially with the attempt count.
        let mut arm = None;
        if let Some(ctx) = self.faults.as_mut() {
            if ctx.plan.retry.enabled() && task.kind == TaskKind::Read && task.dup.is_none() {
                ctx.next_track += 1;
                task.track = ctx.next_track;
                arm = Some((
                    task.enqueued + ctx.plan.retry.timeout_for(task.attempt),
                    task.track,
                ));
            }
        }
        let dup = task.dup;
        let id = self.fg[l].insert(&self.disks[l], task);
        if let Some(g) = dup {
            self.dup_tags[l].push((g, id));
        }
        if let Some((at, track)) = arm {
            self.events.push(at, ColEvent::Timeout { disk, id, track });
        }
    }

    fn push_delayed(&mut self, disk: usize, replica: &Replica, frag: Fragment, now: SimTime) {
        if self.is_dead(disk) {
            return;
        }
        let l = disk - self.base;
        let meta = (replica.replica, replica.mirror);
        let key = coalesce_key(frag.lbn, meta);
        if self.coalesce {
            if let Some(id) = self.delayed_keys[l].get(key) {
                // A newer write to the same block supersedes the pending
                // propagation (§3.4 "data that die young").
                let target = replica.target;
                let live = self.delayed[l].replace_with(&self.disks[l], id, |t| {
                    t.targets.clear();
                    t.targets.push(target);
                    t.meta.clear();
                    t.meta.push(meta);
                    t.enqueued = now;
                });
                if live {
                    self.report.delayed_coalesced += 1;
                    return;
                }
            }
        }
        let mut t = self.task_pool.pop().unwrap_or_else(PendingTask::shell);
        t.job = u64::MAX;
        t.frag = frag;
        t.write = true;
        t.kind = TaskKind::Delayed;
        t.targets.clear();
        t.targets.push(replica.target);
        t.meta.clear();
        t.meta.push(meta);
        t.enqueued = now;
        t.dup = None;
        t.attempt = 0;
        t.track = 0;
        let id = self.delayed[l].insert(&self.disks[l], t);
        if self.coalesce {
            self.delayed_keys[l].insert(key, id);
        }
        self.nvram.count += 1;
        self.report.nvram_peak = self.report.nvram_peak.max(self.nvram.count);
    }

    fn try_dispatch(&mut self, now: SimTime, l: usize) {
        if self.inflight[l].is_some() {
            return;
        }
        // Purge mirror duplicates another disk already started.
        if !self.dup_tags[l].is_empty() {
            let started = &self.dup_started;
            let queue = &mut self.fg[l];
            let pool = &mut self.task_pool;
            self.dup_tags[l].retain(|&(g, id)| {
                if started.contains(g) {
                    if let Some(t) = queue.remove(id) {
                        if pool.len() < TASK_POOL_CAP {
                            pool.push(t);
                        }
                    }
                    return false;
                }
                queue.get(id).is_some()
            });
        }

        // Delayed writes run when the foreground queue is empty, or are
        // forced out when the NVRAM budget crosses its threshold (§3.4).
        let force_delayed = self.nvram.count >= self.nvram.threshold;
        let use_delayed = (self.fg[l].is_empty() || force_delayed) && !self.delayed[l].is_empty();
        let queue = if use_delayed {
            &mut self.delayed[l]
        } else {
            &mut self.fg[l]
        };
        let Some((id, candidate)) = queue.pick(
            &self.disks[l],
            now,
            &mut self.look[l],
            self.slack,
            SCHED_WINDOW,
        ) else {
            return;
        };
        let task = if use_delayed {
            self.delayed[l].remove(id)
        } else {
            self.fg[l].remove(id)
        };
        let Some(task) = task else {
            return; // Unreachable: the pick came from this queue.
        };
        if task.kind == TaskKind::Delayed {
            self.delayed_keys[l].remove(coalesce_key(task.frag.lbn, task.meta[0]));
        }
        if let Some(g) = task.dup {
            self.dup_started.insert(g);
        }

        // Service the chosen target (plus follow-on replicas for a
        // foreground multi-replica write).
        let chosen = &task.targets[candidate];
        let (predicted, first) = self.disks[l].begin_with_estimate(now, chosen, task.write);
        let predicted = predicted.total();
        let mut end = now + first.total();

        // Table-2 accounting: predicted vs realised access time.
        let pr = &mut self.report.prediction;
        pr.requests += 1;
        if first.missed_rotation {
            pr.misses += 1;
        }
        let actual_us = first.total().as_micros_f64();
        if !first.missed_rotation {
            pr.error.push(actual_us - predicted.as_micros_f64());
        }
        pr.predicted_us.push(predicted.as_micros_f64());
        pr.actual_us.push(actual_us);
        if !matches!(task.kind, TaskKind::Delayed | TaskKind::Rebuild) {
            self.report.seek_ms.push(first.seek.as_millis_f64());
            self.report.rotation_ms.push(first.rotation.as_millis_f64());
            self.report.transfer_ms.push(first.transfer.as_millis_f64());
            self.report
                .queue_wait_ms
                .push(now.saturating_since(task.enqueued).as_millis_f64());
        }

        if task.kind == TaskKind::WriteAll && task.targets.len() > 1 {
            // Walk the remaining rotational replicas greedily (§3.4).
            let mut rest = std::mem::take(&mut self.write_scratch);
            rest.clear();
            rest.extend(
                task.targets
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != candidate)
                    .map(|(_, t)| *t),
            );
            while let Some((i, _)) = rest.iter().enumerate().min_by_key(|(_, t)| {
                self.disks[l]
                    .estimate_chained(end, t, true)
                    .total()
                    .as_nanos()
            }) {
                let b = self.disks[l].begin_chained(end, &rest[i], true);
                end += b.total();
                rest.swap_remove(i);
            }
            self.write_scratch = rest;
        }

        self.report.phys_requests += 1;
        self.inflight[l] = Some(InFlight {
            task,
            chosen: candidate,
        });
        self.events.push(end, ColEvent::DiskDone(self.base + l));
    }

    fn on_disk_done(&mut self, lay: &Layout, now: SimTime, disk: usize) {
        let l = disk - self.base;
        let Some(fly) = self.inflight[l].take() else {
            return;
        };
        if fly.task.kind == TaskKind::Rebuild {
            if lay.parity().is_some() {
                self.on_parity_rebuild_read_done(lay, now, disk, fly.task);
            } else {
                self.on_rebuild_read_done(lay, now, disk, fly.task);
            }
            return;
        }
        // Transient media errors surface at completion time, drawn from
        // this shard's fault stream (foreground operations only).
        if let Some(ctx) = self.faults.as_mut() {
            if ctx.plan.media.enabled() && fly.task.kind != TaskKind::Delayed {
                let rate = if matches!(fly.task.kind, TaskKind::Read | TaskKind::ParityRead) {
                    ctx.plan.media.read_rate
                } else {
                    ctx.plan.media.write_rate
                };
                if rate > 0.0 && ctx.rng.chance(rate) {
                    ctx.report.media_errors += 1;
                    self.on_media_error(lay, now, disk, fly.task);
                    return;
                }
            }
        }
        if matches!(fly.task.kind, TaskKind::ParityRead | TaskKind::ParityWrite) {
            self.on_parity_done(now, disk, fly.task);
            return;
        }
        match fly.task.kind {
            TaskKind::Rebuild | TaskKind::ParityRead | TaskKind::ParityWrite => {}
            TaskKind::Delayed => {
                self.nvram.count = self.nvram.count.saturating_sub(1);
                self.report.delayed_propagated += 1;
            }
            TaskKind::Read | TaskKind::WriteAll | TaskKind::WriteFirst => {
                if fly.task.kind == TaskKind::WriteFirst {
                    // The first copy is durable; queue the remaining
                    // Dr*Dm - 1 copies for background propagation.
                    let written = fly.task.meta[fly.chosen];
                    let mut reps = std::mem::take(&mut self.group_scratch);
                    reps.clear();
                    lay.write_groups_into(fly.task.frag, &mut reps);
                    for r in &reps {
                        if (r.replica, r.mirror) == written {
                            continue;
                        }
                        self.push_delayed(r.disk, r, fly.task.frag, now);
                    }
                    reps.clear();
                    self.group_scratch = reps;
                }
                self.finish_part(now, fly.task.job, false);
            }
        }
        self.recycle(fly.task);
        self.try_dispatch(now, l);
    }

    /// A read's simulated-time timeout fired: pull and retry if it still
    /// sits in the foreground queue, else no-op.
    fn on_timeout(&mut self, lay: &Layout, now: SimTime, disk: usize, id: TaskId, track: u64) {
        if self.is_dead(disk) {
            return; // the queue died with the disk; rehoming handled it
        }
        let l = disk - self.base;
        if !self.fg[l]
            .get(id)
            .is_some_and(|t| t.track == track && t.kind == TaskKind::Read)
        {
            return;
        }
        let Some(task) = self.fg[l].remove(id) else {
            return;
        };
        if let Some(ctx) = self.faults.as_mut() {
            ctx.report.timeouts += 1;
        }
        self.retry_or_fail(lay, now, task, Some(disk));
    }

    /// Re-issues a read that timed out or returned a media error, on an
    /// alternate surviving replica group when one exists; a read that
    /// exhausts the attempt budget completes as failed.
    fn retry_or_fail(
        &mut self,
        lay: &Layout,
        now: SimTime,
        mut task: PendingTask,
        exclude: Option<usize>,
    ) {
        let budget = self
            .faults
            .as_ref()
            .map_or(0, |ctx| ctx.plan.retry.max_retries);
        if task.attempt >= budget {
            if let Some(ctx) = self.faults.as_mut() {
                ctx.report.unrecoverable += 1;
            }
            self.finish_part(now, task.job, true);
            self.recycle(task);
            return;
        }
        task.attempt += 1;
        let mut groups = std::mem::take(&mut self.group_scratch);
        groups.clear();
        lay.write_groups_into(task.frag, &mut groups);
        let dr = self.dr;
        compact_live_groups(&mut groups, 0, dr, &self.dead, self.base);
        let ngroups = groups.len() / dr;
        if ngroups == 0 {
            if let Some(ctx) = self.faults.as_mut() {
                ctx.report.unrecoverable += 1;
            }
            self.finish_part(now, task.job, true);
            self.recycle(task);
        } else {
            let mut pick = task.attempt as usize % ngroups;
            if ngroups > 1 && exclude == Some(groups[pick * dr].disk) {
                pick = (pick + 1) % ngroups;
            }
            let replicas = &groups[pick * dr..(pick + 1) * dr];
            let disk = replicas[0].disk;
            task.targets.clear();
            task.targets.extend(replicas.iter().map(|r| r.target));
            task.meta.clear();
            task.meta
                .extend(replicas.iter().map(|r| (r.replica, r.mirror)));
            task.enqueued = now;
            task.dup = None;
            if let Some(ctx) = self.faults.as_mut() {
                ctx.report.retries += 1;
            }
            self.enqueue(disk, task);
            self.try_dispatch(now, disk - self.base);
        }
        groups.clear();
        self.group_scratch = groups;
    }

    /// Handles a transient media error on a completed foreground
    /// operation. Reads retry on an alternate replica; writes retry in
    /// place; an exhausted budget fails the logical request.
    fn on_media_error(&mut self, lay: &Layout, now: SimTime, disk: usize, mut task: PendingTask) {
        match task.kind {
            TaskKind::Read => self.retry_or_fail(lay, now, task, Some(disk)),
            TaskKind::WriteAll | TaskKind::WriteFirst => {
                let budget = self
                    .faults
                    .as_ref()
                    .map_or(0, |ctx| ctx.plan.retry.max_retries);
                if task.attempt >= budget {
                    if let Some(ctx) = self.faults.as_mut() {
                        ctx.report.unrecoverable += 1;
                    }
                    self.finish_part(now, task.job, true);
                    self.recycle(task);
                } else {
                    task.attempt += 1;
                    task.enqueued = now;
                    task.dup = None;
                    if let Some(ctx) = self.faults.as_mut() {
                        ctx.report.retries += 1;
                    }
                    self.enqueue(disk, task);
                }
            }
            TaskKind::ParityRead | TaskKind::ParityWrite => {
                self.on_parity_media_error(now, disk, task)
            }
            TaskKind::Delayed | TaskKind::Rebuild => self.recycle(task),
        }
        self.try_dispatch(now, disk - self.base);
    }

    /// Tracks a fail-slow window edge and reports the health transition.
    fn on_slow_edge(&mut self, now: SimTime, disk: usize, start: bool) {
        if let Some(ctx) = self.faults.as_mut() {
            if let Some(c) = ctx.slow_now.get_mut(disk) {
                if start {
                    *c += 1;
                } else {
                    *c = c.saturating_sub(1);
                }
            }
        }
        self.notes.push(Note::Health {
            at: now,
            kind: HealthKind::Slow,
            on: start,
        });
    }

    fn on_disk_fail(&mut self, lay: &Layout, now: SimTime, disk: usize) {
        if self.is_dead(disk) {
            return;
        }
        self.dead[disk - self.base] = true;
        self.notes.push(Note::Health {
            at: now,
            kind: HealthKind::Dead,
            on: true,
        });
        let l = disk - self.base;
        // Unpropagated replicas bound for this disk are moot. Only true
        // delayed propagations hold NVRAM entries.
        let dropped = self.delayed[l]
            .ids()
            .iter()
            .filter(|&&id| {
                self.delayed[l]
                    .get(id)
                    .is_some_and(|t| t.kind == TaskKind::Delayed)
            })
            .count();
        self.delayed[l].clear();
        self.delayed_keys[l].clear();
        self.nvram.count = self.nvram.count.saturating_sub(dropped);
        // Re-home the in-flight operation and the queue (in arrival
        // order, so surviving mirrors see the same relative order).
        let ids: Vec<TaskId> = self.fg[l].ids().to_vec();
        let mut orphans: Vec<PendingTask> = ids
            .into_iter()
            .filter_map(|id| self.fg[l].remove(id))
            .collect();
        self.dup_tags[l].clear();
        if let Some(fly) = self.inflight[l].take() {
            orphans.push(fly.task);
        }
        for task in orphans {
            if let Some(g) = task.dup {
                if self.dup_started.contains(g) {
                    // A surviving duplicate already ran (or runs) elsewhere.
                    continue;
                }
            }
            self.rehome_task(lay, task, now);
        }
        self.kick(now);
        // Hot spare: arm the rebuild state machine if the plan provides
        // one for this disk, or re-issue a chunk whose copy source died
        // mid-read.
        let mut reissue = false;
        let mut abandon = false;
        if let Some(ctx) = self.faults.as_mut() {
            let spared = ctx.plan.fail_stop.iter().any(|f| f.disk == disk && f.spare);
            if spared && ctx.rebuild.is_none() {
                ctx.rebuild = Some(RebuildState {
                    disk,
                    started: now,
                    next: 0,
                    total: lay.per_disk_data_sectors(),
                    pending: 0,
                    source: usize::MAX,
                    copying: false,
                    writing: false,
                    reads_left: 0,
                });
                self.events.push(
                    now + ctx.plan.rebuild.spare_delay,
                    ColEvent::RebuildStart(disk),
                );
            } else if lay.parity().is_some() {
                // A second dead member leaves the survivor XOR short of
                // the lost data: the rebuild is abandoned and the spare
                // slot stays dead.
                if let Some(r) = ctx.rebuild.take() {
                    abandon = r.copying;
                }
            } else if let Some(r) = ctx.rebuild.as_mut() {
                if r.copying && r.source == disk && r.pending > 0 && !r.writing {
                    r.pending = 0;
                    reissue = true;
                }
            }
        }
        if abandon {
            self.notes.push(Note::Health {
                at: now,
                kind: HealthKind::Rebuilding,
                on: false,
            });
        }
        if reissue {
            self.rebuild_issue_chunk(lay, now);
        }
    }

    /// Re-dispatches a task from a failed disk onto surviving copies.
    fn rehome_task(&mut self, lay: &Layout, task: PendingTask, now: SimTime) {
        match task.kind {
            TaskKind::Delayed => {}
            // A dropped chunk read is re-issued by `on_disk_fail`.
            TaskKind::Rebuild => {}
            TaskKind::WriteAll => {
                // The surviving mirrors hold their own WriteAll tasks; the
                // write only fails outright if no live copy remains.
                let any_live = lay
                    .owner_disks(task.frag)
                    .into_iter()
                    .any(|d| !self.is_dead(d));
                self.finish_part(now, task.job, !any_live);
            }
            TaskKind::Read | TaskKind::WriteFirst => {
                let mut groups = std::mem::take(&mut self.group_scratch);
                groups.clear();
                lay.write_groups_into(task.frag, &mut groups);
                compact_live_groups(&mut groups, 0, self.dr, &self.dead, self.base);
                if groups.is_empty() {
                    self.finish_part(now, task.job, true);
                } else {
                    self.dispatch_mirrored(
                        task.job, task.frag, task.write, task.kind, &groups, now,
                    );
                }
                groups.clear();
                self.group_scratch = groups;
            }
            TaskKind::ParityRead | TaskKind::ParityWrite => {
                // The whole parity operation replans against the degraded
                // group; sibling legs still queued elsewhere find the op
                // gone and no-op on completion.
                if let Some(op) = self.parity_ops.remove(&task.job) {
                    self.replan_parity_op(lay, now, op);
                }
            }
        }
        self.recycle(task);
    }

    /// The hot spare for a failed disk came online: start copying.
    fn on_rebuild_start(&mut self, lay: &Layout, now: SimTime, disk: usize) {
        let ready = self
            .faults
            .as_mut()
            .and_then(|ctx| ctx.rebuild.as_mut())
            .is_some_and(|r| {
                if r.disk == disk && !r.copying {
                    r.copying = true;
                    true
                } else {
                    false
                }
            });
        if ready {
            self.notes.push(Note::Health {
                at: now,
                kind: HealthKind::Rebuilding,
                on: true,
            });
            if lay.parity().is_some() {
                self.parity_rebuild_issue_chunk(lay, now);
            } else {
                self.rebuild_issue_chunk(lay, now);
            }
        }
    }

    /// Queues the next rebuild chunk: one replica-track read on a
    /// surviving mirror, riding its *delayed* queue so foreground work
    /// keeps winning the disk.
    fn rebuild_issue_chunk(&mut self, lay: &Layout, now: SimTime) {
        let dm = self.width;
        let Some((spare, next, total, chunk)) = self.faults.as_ref().and_then(|ctx| {
            ctx.rebuild
                .as_ref()
                .filter(|r| r.copying && r.pending == 0)
                .map(|r| (r.disk, r.next, r.total, ctx.plan.rebuild.chunk_sectors))
        }) else {
            return;
        };
        if next >= total {
            return; // completion is accounted in `on_spare_done`
        }
        let mirror = spare % dm;
        let base = spare - mirror;
        let live: Vec<usize> = (0..dm)
            .map(|m| base + m)
            .filter(|&d| d != spare && !self.is_dead(d))
            .collect();
        if live.is_empty() {
            // No survivor left to copy from: the rebuild is abandoned and
            // the spare slot stays dead.
            if let Some(ctx) = self.faults.as_mut() {
                ctx.rebuild = None;
            }
            self.notes.push(Note::Health {
                at: now,
                kind: HealthKind::Rebuilding,
                on: false,
            });
            return;
        }
        let source = live[(next / u64::from(chunk.max(1))) as usize % live.len()];
        let src_mirror = (source % dm) as u32;
        let Some((target, span)) = lay.rebuild_extent(next, 0, src_mirror, chunk) else {
            // Off the mapped data (never expected before `total`): stop.
            if let Some(ctx) = self.faults.as_mut() {
                if let Some(r) = ctx.rebuild.as_mut() {
                    r.next = r.total;
                }
            }
            return;
        };
        let mut t = self.task_pool.pop().unwrap_or_else(PendingTask::shell);
        t.job = u64::MAX;
        t.frag = Fragment {
            lbn: u64::MAX,
            sectors: span,
        };
        t.write = false;
        t.kind = TaskKind::Rebuild;
        t.targets.clear();
        t.targets.push(target);
        t.meta.clear();
        t.meta.push((0, src_mirror as u8));
        t.enqueued = now;
        t.dup = None;
        t.attempt = 0;
        t.track = 0;
        let src_l = source - self.base;
        self.delayed[src_l].insert(&self.disks[src_l], t);
        if let Some(ctx) = self.faults.as_mut() {
            if let Some(r) = ctx.rebuild.as_mut() {
                r.source = source;
                r.pending = u64::from(span);
                r.writing = false;
            }
        }
        self.try_dispatch(now, source - self.base);
    }

    /// A rebuild chunk read completed on the copy source: chain all `Dr`
    /// replica writes of the chunk onto the spare.
    fn on_rebuild_read_done(
        &mut self,
        lay: &Layout,
        now: SimTime,
        source: usize,
        task: PendingTask,
    ) {
        self.recycle(task);
        let dr = self.dr as u32;
        let dm = self.width;
        let Some((spare, next, chunk)) = self.faults.as_ref().and_then(|ctx| {
            ctx.rebuild
                .as_ref()
                .filter(|r| r.copying && r.source == source && r.pending > 0 && !r.writing)
                .map(|r| (r.disk, r.next, ctx.plan.rebuild.chunk_sectors))
        }) else {
            // The rebuild moved on (e.g. abandoned); drop the stale read.
            self.try_dispatch(now, source - self.base);
            return;
        };
        let spare_l = spare - self.base;
        let spare_mirror = (spare % dm) as u32;
        let mut end = now;
        let mut wrote = false;
        let mut rest = std::mem::take(&mut self.write_scratch);
        rest.clear();
        for k in 0..dr {
            if let Some((t, _)) = lay.rebuild_extent(next, k, spare_mirror, chunk) {
                rest.push(t);
            }
        }
        while let Some((i, _)) = rest.iter().enumerate().min_by_key(|(_, t)| {
            self.disks[spare_l]
                .estimate_chained(end, t, true)
                .total()
                .as_nanos()
        }) {
            let b = if wrote {
                self.disks[spare_l].begin_chained(end, &rest[i], true)
            } else {
                self.disks[spare_l].begin(end, &rest[i], true)
            };
            end += b.total();
            wrote = true;
            rest.swap_remove(i);
        }
        self.write_scratch = rest;
        if let Some(ctx) = self.faults.as_mut() {
            if let Some(r) = ctx.rebuild.as_mut() {
                r.writing = true;
            }
        }
        self.report.phys_requests += 1;
        self.events.push(end, ColEvent::SpareDone(spare));
        self.try_dispatch(now, source - self.base);
    }

    /// The spare finished one chunk: advance the rebuild, and on the last
    /// chunk flip the disk back to live.
    fn on_spare_done(&mut self, lay: &Layout, now: SimTime, disk: usize) {
        let parity = lay.parity().is_some();
        let mut finished = None;
        let mut chunk_done = false;
        if let Some(ctx) = self.faults.as_mut() {
            if let Some(r) = ctx.rebuild.as_mut() {
                if r.disk == disk && r.writing {
                    r.next += r.pending;
                    r.pending = 0;
                    r.writing = false;
                    chunk_done = true;
                    if !parity {
                        ctx.report.rebuild_chunks += 1;
                    }
                    if r.next >= r.total {
                        finished = Some(r.started);
                    }
                }
            }
            if finished.is_some() {
                ctx.rebuild = None;
                ctx.report.rebuilds_completed += 1;
            }
        }
        if chunk_done && parity {
            // The parity twin of `rebuild_chunks`: chunks XOR-built from
            // the survivors rather than copied from a mirror. Accounted on
            // the shard report, like the other parity counters.
            self.report.faults.reconstruction_chunks += 1;
        }
        match finished {
            Some(started) => {
                if let Some(ctx) = self.faults.as_mut() {
                    ctx.report.rebuild_duration = now.saturating_since(started);
                }
                // Every replica is back in place: return the disk to
                // service for subsequent requests.
                self.dead[disk - self.base] = false;
                self.notes.push(Note::Health {
                    at: now,
                    kind: HealthKind::Rebuilding,
                    on: false,
                });
                self.notes.push(Note::Health {
                    at: now,
                    kind: HealthKind::Dead,
                    on: false,
                });
                #[cfg(debug_assertions)]
                lay.check_rebuilt_disk(disk);
                self.try_dispatch(now, disk - self.base);
            }
            None => {
                if parity {
                    self.parity_rebuild_issue_chunk(lay, now);
                } else {
                    self.rebuild_issue_chunk(lay, now);
                }
            }
        }
    }
}
