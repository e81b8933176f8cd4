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
//! Each owned disk's state is one [`Drive`] record: the disk, its two
//! queues, its in-flight operation, its LOOK state and its bookkeeping.
//! Mirror duplicates (§3.3) are tracked by generation, one [`DupGen`] per
//! generation with a copy still queued, so cancelling the copies that
//! lost costs O(Dm), not O(queue depth). Each routed fragment has one
//! [`Job`] record, whatever organization serves it: every task working
//! for the fragment, mirrored copy or parity leg alike, names it by key.
//! Jobs and duplicate generations each live in a generation-tagged
//! [`Slab`], so every store holds no more slots than were live at once.
//!
//! Cross-shard traffic is carried as timestamped messages:
//!
//! - **inbound**, a time-sorted [`Submission`] list (one entry per
//!   fragment routed to this group) delivered by the conductor;
//! - **outbound**, [`Note`]s — fragment-completion `Part`s and array
//!   `Health` transitions — which the conductor merges in canonical
//!   `(time, health-before-part, shard, emission-index)` order.
//!
//! Each shard folds its own event pops into a private [`DetWitness`]
//! sub-stream with its own queue's FIFO sequence numbers; the conductor
//! combines the sub-streams in shard order (`DetWitness::absorb`), so the
//! final digest certifies the *per-shard pop sequences plus the canonical
//! merge* — a value that cannot depend on how many OS threads executed
//! the shards.

mod parity;

use mimd_disk::{SimDisk, Target};

use mimd_sim::{DetWitness, EventQueue, SimDuration, SimRng, SimTime};

use super::flat::FlatMap;
use crate::dqueue::{DriveQueue, TaskId};
use crate::faults::{FaultCtx, RebuildState};
use crate::layout::{Fragment, Layout, Replica, LBN_LIMIT};
use crate::sched::{LookState, Schedulable};
use crate::slab::{Key, Slab};

use super::report::RunReport;
use super::{MirrorPolicy, WriteMode, SCHED_WINDOW};

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
    /// RMW. Its [`Job`] counts the legs of the operation's current phase.
    ParityRead,
    /// One write leg of a parity operation: RMW data/parity update or a
    /// full-stripe member write.
    ParityWrite,
}

impl TaskKind {
    /// Whether a task of this kind writes the disk.
    fn is_write(self) -> bool {
        !matches!(
            self,
            TaskKind::Read | TaskKind::Rebuild | TaskKind::ParityRead
        )
    }
}

#[derive(Debug, Clone)]
pub(crate) struct PendingTask {
    /// The [`Job`] of the fragment this task works for, whatever its
    /// kind; `None` for tasks with no logical request (delayed
    /// propagation, rebuild chunk reads).
    pub(crate) job: Option<Key>,
    pub(crate) frag: Fragment,
    pub(crate) kind: TaskKind,
    pub(crate) targets: Vec<Target>,
    /// `(first replica, mirror)`: target `i` is replica `first + i` of
    /// one mirror (see [`PendingTask::aim`]).
    pub(crate) meta: (u8, u8),
    pub(crate) enqueued: SimTime,
    /// The mirror-duplicate generation this copy belongs to.
    pub(crate) dup: Option<Key>,
    /// Retry attempts consumed so far (fault layer).
    pub(crate) attempt: u8,
    /// Timeout-tracking stamp; `0` means no timeout is armed on this task.
    pub(crate) track: u64,
}

impl PendingTask {
    /// A first attempt at `frag` over `replicas`, queued at `enqueued`.
    fn new(
        job: Option<Key>,
        frag: Fragment,
        kind: TaskKind,
        replicas: &[Replica],
        enqueued: SimTime,
    ) -> PendingTask {
        let mut t = PendingTask {
            job,
            frag,
            kind,
            targets: Vec::with_capacity(replicas.len()),
            meta: (0, 0),
            enqueued,
            dup: None,
            attempt: 0,
            track: 0,
        };
        t.aim(replicas);
        t
    }

    /// Points the task at `replicas`, one target each. Every caller passes
    /// a whole replica group or a single replica, so the replicas are
    /// consecutive on one mirror and `meta` names them all.
    fn aim(&mut self, replicas: &[Replica]) {
        self.targets.clear();
        self.targets.extend(replicas.iter().map(|r| r.target));
        self.meta = replicas.first().map_or((0, 0), |r| (r.replica, r.mirror));
        debug_assert!(
            replicas
                .iter()
                .enumerate()
                .all(|(i, r)| (r.replica, r.mirror) == (self.meta.0 + i as u8, self.meta.1)),
            "a task's targets must be consecutive replicas of one mirror"
        );
    }

    /// The `(replica, mirror)` of target `i`.
    fn replica_of(&self, i: usize) -> (u8, u8) {
        (self.meta.0 + i as u8, self.meta.1)
    }
}

impl Schedulable for PendingTask {
    fn candidates(&self) -> &[Target] {
        &self.targets
    }
    fn is_write(&self) -> bool {
        self.kind.is_write()
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

/// Writes every target in `rest` on `disk`, starting at `start`, and
/// returns when the last write ends. Each step takes the write whose
/// service, without command overhead, ends soonest: the greedy
/// nearest-replica walk of a multi-replica write (§3.4). The first write
/// pays the command overhead when `first_pays_overhead` is set; the rest
/// ride the same command. Drains `rest`.
fn write_nearest_first(
    disk: &mut SimDisk,
    start: SimTime,
    rest: &mut Vec<Target>,
    first_pays_overhead: bool,
) -> SimTime {
    let mut end = start;
    let mut overhead = first_pays_overhead;
    while let Some((i, _)) = rest
        .iter()
        .enumerate()
        .min_by_key(|(_, t)| disk.estimate_chained(end, t, true).total().as_nanos())
    {
        let b = if overhead {
            disk.begin(end, &rest[i], true)
        } else {
            disk.begin_chained(end, &rest[i], true)
        };
        overhead = false;
        end += b.total();
        rest.swap_remove(i);
    }
    end
}

/// Keeps the runs of `dr` replicas in `reps` (each run one replica group
/// on one disk) that `keep` accepts, in order.
fn retain_groups(reps: &mut Vec<Replica>, dr: usize, mut keep: impl FnMut(&[Replica]) -> bool) {
    let mut w = 0;
    for r in (0..reps.len()).step_by(dr) {
        if keep(&reps[r..r + dr]) {
            reps.copy_within(r..r + dr, w);
            w += dr;
        }
    }
    reps.truncate(w);
}

#[derive(Debug)]
struct InFlight {
    task: PendingTask,
    chosen: usize,
}

/// One owned disk and everything that schedules it: the record a dispatch
/// touches, kept together so an event on one disk reads one place.
#[derive(Debug)]
struct Drive {
    disk: SimDisk,
    fg: DriveQueue<PendingTask>,
    /// Delayed propagations and hot-spare rebuild chunk reads.
    delayed: DriveQueue<PendingTask>,
    /// Delayed-write coalesce index: [`coalesce_key`] → queued id.
    delayed_keys: FlatMap<TaskId>,
    look: LookState,
    inflight: Option<InFlight>,
    /// Queued ids of mirror duplicates whose generation another disk has
    /// started, cancelled at this disk's next dispatch. Stale ids are
    /// harmless: [`DriveQueue::remove`] ignores them.
    purge: Vec<TaskId>,
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
/// `(time, health-before-part, shard, emission-index)` order (structured
/// mode).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Note {
    /// One routed fragment of a logical request finished (all its local
    /// parts completed, or it was failed outright).
    Part {
        logical: Key,
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
    pub(crate) logical: Key,
    pub(crate) frag: Fragment,
    pub(crate) write: bool,
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

/// One routed fragment of a logical request: the shard's one record of
/// it, named by the `job` key of every task working for it. Request
/// metadata stays with the conductor.
#[derive(Debug)]
struct Job {
    logical: Key,
    /// Parts still outstanding: one per replica-group task of a
    /// foreground write, one for a read or first copy, or the legs of a
    /// parity operation's current phase.
    parts: u32,
    /// Whether any part failed.
    failed: bool,
    /// The submission's flags, from which a parity operation replans
    /// after a member failure (its legs carry the fragment).
    write: bool,
    stripe: bool,
    /// Parity read–modify–write only: whether the write phase, issued
    /// when the read phase drains, writes the row's data disk and its
    /// parity disk.
    rmw: (bool, bool),
}

impl Job {
    /// A record of `sub` with `parts` outstanding parts and no write
    /// phase to follow.
    fn new(sub: Submission, parts: u32) -> Job {
        Job {
            logical: sub.logical,
            parts,
            failed: false,
            write: sub.write,
            stripe: sub.stripe,
            rmw: (false, false),
        }
    }
}

/// An open mirror-duplicate generation (§3.3: a read whose owners are all
/// busy is queued on every owner, and the first copy to start wins). It
/// records its copies, so starting one finds its siblings in O(Dm) rather
/// than by scanning queues.
///
/// A generation is removed from its slab when one of its copies starts,
/// or when the last copy still queued on a live disk fails with its
/// disk, so the slab holds only the generations with a copy still queued.
#[derive(Debug)]
struct DupGen {
    /// Copies queued on a live disk. An open generation's copy leaves its
    /// queue only by starting, which closes the generation, or with its
    /// failed disk.
    live: u32,
    /// `(local disk, queued id)` per copy.
    copies: Vec<(u32, TaskId)>,
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
    /// Foreground write mode: every replica group of a write gets its own
    /// gating task.
    foreground: bool,
    coalesce: bool,
    slack: SimDuration,
    /// Keep the per-operation Table-2 sample sets
    /// (`EngineConfig::prediction_samples`).
    prediction_samples: bool,
    /// One record per owned disk, indexed by `disk - base`.
    drives: Vec<Drive>,
    /// Per owned disk, indexed by `disk - base`; read through
    /// [`Shard::is_dead`], which takes a global disk index.
    dead: Vec<bool>,
    events: EventQueue<ColEvent>,
    jobs: Slab<Job>,
    dups: Slab<DupGen>,
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
    write_scratch: Vec<Target>,
    group_scratch: Vec<Replica>,
}

impl Shard {
    /// Builds the shard for mirror group `group`. Per-disk RNG streams are
    /// `named_indexed` by **global** disk index, so the disk population is
    /// identical at any shard count and independent of construction order.
    pub(crate) fn new(
        group: usize,
        lay: &Layout,
        cfg: &super::EngineConfig,
        geometry: &mimd_disk::Geometry,
        seek: &mimd_disk::SeekProfile,
    ) -> Shard {
        let shape = lay.shape();
        let width = lay.disks_per_group().max(1);
        let dr = shape.dr.max(1) as usize;
        let base = group * width;
        let mut drives = Vec::with_capacity(width);
        for m in 0..width {
            let d_global = (base + m) as u64;
            let phase_offset = if cfg.sync_spindles {
                0.0
            } else {
                SimRng::named_indexed(cfg.seed, "spindle", d_global).unit()
            };
            let mut d = SimDisk::with_parts(
                &cfg.disk_params,
                geometry.clone(),
                seek.clone(),
                cfg.timing,
                cfg.knowledge,
                SimRng::named_indexed(cfg.seed, "disk", d_global).below(u64::MAX),
                phase_offset,
            );
            d.set_read_ahead(cfg.read_ahead);
            drives.push(Drive {
                disk: d,
                fg: DriveQueue::new(cfg.policy),
                delayed: DriveQueue::new(cfg.policy),
                delayed_keys: FlatMap::new(),
                look: LookState::default(),
                inflight: None,
                purge: Vec::new(),
            });
        }
        // The plan's events for the owned disks are queued before any
        // request, fail-stops first: the order fixes their FIFO sequence
        // numbers, which the witness folds.
        let mut events = EventQueue::new();
        let faults = if cfg.faults.is_empty() {
            None
        } else {
            let ctx = FaultCtx::new(&cfg.faults, cfg.seed, width, group as u64);
            let owned = base..base + width;
            for f in &ctx.plan.fail_stop {
                if owned.contains(&f.disk) {
                    events.push(f.at, ColEvent::DiskFail(f.disk));
                }
            }
            for w in &ctx.plan.fail_slow {
                if owned.contains(&w.disk) {
                    drives[w.disk - base]
                        .disk
                        .add_fail_slow(w.from, w.until, w.factor);
                    events.push(w.from, ColEvent::SlowStart(w.disk));
                    events.push(w.until, ColEvent::SlowEnd(w.disk));
                }
            }
            Some(Box::new(ctx))
        };
        Shard {
            base,
            width,
            dr,
            stripe_unit: lay.stripe_unit(),
            ds_x_dr: shape.ds as u64 * shape.dr as u64,
            mirror_policy: cfg.mirror_policy,
            foreground: cfg.write_mode == WriteMode::Foreground,
            coalesce: cfg.coalesce_delayed,
            slack: cfg.slack,
            prediction_samples: cfg.prediction_samples,
            drives,
            dead: vec![false; width],
            events,
            jobs: Slab::default(),
            dups: Slab::default(),
            faults,
            report: RunReport::default(),
            notes: Vec::new(),
            nvram: Nvram {
                count: 0,
                threshold: cfg.nvram_threshold.div_ceil(lay.groups().max(1)).max(1),
            },
            pops: Pops::default(),
            touched: Vec::new(),
            write_scratch: Vec::new(),
            group_scratch: Vec::new(),
        }
    }

    /// Slots the job slab has allocated: the most jobs ever live at once.
    #[cfg(test)]
    pub(crate) fn job_slots(&self) -> usize {
        self.jobs.slot_count()
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

    /// Plans one routed fragment into local tasks under one [`Job`]: one
    /// part per replica-group task (foreground writes), one part total
    /// (reads / background-mode first copies), or a parity operation. A
    /// fragment with no surviving copy emits an immediate failed `Part`
    /// note.
    pub(crate) fn submit_frag(&mut self, lay: &Layout, sub: Submission) {
        let Submission {
            at: now,
            frag,
            write,
            ..
        } = sub;
        if lay.parity().is_some() {
            self.plan_parity(lay, sub);
        } else if write && self.foreground {
            let groups = self.live_groups(lay, frag);
            if groups.is_empty() {
                self.fail_frag(sub);
            } else {
                let parts = (groups.len() / self.dr) as u32;
                let job = Some(self.jobs.insert(Job::new(sub, parts)));
                for replicas in groups.chunks_exact(self.dr) {
                    let disk = replicas[0].disk;
                    let task = PendingTask::new(job, frag, TaskKind::WriteAll, replicas, now);
                    self.enqueue(disk, task);
                    self.touched.push(disk - self.base);
                }
            }
            self.group_scratch = groups;
        } else {
            let job = self.jobs.insert(Job::new(sub, 1));
            let kind = if write {
                TaskKind::WriteFirst
            } else {
                TaskKind::Read
            };
            self.place(lay, now, Some(job), frag, kind);
        }
    }

    /// The replica groups of `frag` on live disks, as runs of `Dr`
    /// replicas in layout order. The vector is the shard's scratch
    /// buffer: hand it back through `self.group_scratch` when done.
    fn live_groups(&mut self, lay: &Layout, frag: Fragment) -> Vec<Replica> {
        let mut groups = std::mem::take(&mut self.group_scratch);
        groups.clear();
        lay.write_groups_into(frag, &mut groups);
        retain_groups(&mut groups, self.dr, |g| !self.is_dead(g[0].disk));
        groups
    }

    /// Places a read or first-copy write of `job`'s fragment on its live
    /// replica groups, or fails the part when none is left. Serves a
    /// fresh fragment and one rehomed from a failed disk alike.
    fn place(
        &mut self,
        lay: &Layout,
        now: SimTime,
        job: Option<Key>,
        frag: Fragment,
        kind: TaskKind,
    ) {
        let mut groups = self.live_groups(lay, frag);
        if groups.is_empty() {
            if let Some(job) = job {
                self.finish_part(lay, now, job, frag, true);
            }
        } else {
            self.dispatch_mirrored(job, frag, kind, &mut groups, now);
        }
        self.group_scratch = groups;
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

    /// Counts one part of `job`, a record of `frag`, done. The last part
    /// closes the record and emits its completion note, unless it drains
    /// the read phase of a parity read–modify–write, which then issues
    /// its write legs. A part whose record is gone (a parity leg orphaned
    /// by a replan or by its operation failing) does nothing.
    fn finish_part(&mut self, lay: &Layout, now: SimTime, job: Key, frag: Fragment, failed: bool) {
        let Some(j) = self.jobs.get_mut(job) else {
            return;
        };
        j.failed |= failed;
        j.parts = j.parts.saturating_sub(1);
        if j.parts > 0 {
            return;
        }
        match std::mem::take(&mut j.rmw) {
            (false, false) => self.close_job(now, job, false),
            rmw => self.issue_parity_writes(lay, now, job, frag, rmw),
        }
    }

    /// Removes `job` and emits its completion note, failed when `failed`
    /// is set or any part failed. A stale key does nothing.
    fn close_job(&mut self, now: SimTime, job: Key, failed: bool) {
        if let Some(j) = self.jobs.remove(job) {
            self.notes.push(Note::Part {
                logical: j.logical,
                at: now,
                failed: failed || j.failed,
            });
        }
    }

    /// Fails a fragment that no record was opened for: it has no copy,
    /// or too few parity members, left to serve it.
    fn fail_frag(&mut self, sub: Submission) {
        self.notes.push(Note::Part {
            logical: sub.logical,
            at: sub.at,
            failed: true,
        });
    }

    /// Dispatches a read (or first-copy write), first dropping from
    /// `groups` the disks inside a fail-slow window when the plan asks for
    /// redirection and a healthy copy exists.
    fn dispatch_mirrored(
        &mut self,
        job: Option<Key>,
        frag: Fragment,
        kind: TaskKind,
        groups: &mut Vec<Replica>,
        now: SimTime,
    ) {
        let dr = self.dr;
        let write = kind.is_write();
        if let Some(ctx) = self.faults.as_ref().filter(|c| c.plan.redirect && !write) {
            let healthy = |g: &[Replica]| ctx.slow_now[g[0].disk - self.base] == 0;
            let kept = groups.chunks_exact(dr).filter(|g| healthy(g)).count();
            if kept > 0 && kept < groups.len() / dr {
                retain_groups(groups, dr, healthy);
                self.report.faults.redirects += 1;
            }
        }
        self.dispatch_groups(job, frag, kind, groups, now);
    }

    /// Dispatches a read (or first-copy write) per the §3.3 mirror
    /// heuristic, recording touched local disks for the next kick.
    fn dispatch_groups(
        &mut self,
        job: Option<Key>,
        frag: Fragment,
        kind: TaskKind,
        groups: &[Replica],
        now: SimTime,
    ) {
        let dr = self.dr;
        let write = kind.is_write();
        let ngroups = groups.len() / dr;
        if ngroups == 1 || self.mirror_policy == MirrorPolicy::Static {
            let idx = if ngroups == 1 {
                0
            } else {
                ((frag.lbn / self.stripe_unit as u64) / self.ds_x_dr % ngroups as u64) as usize
            };
            let replicas = &groups[idx * dr..(idx + 1) * dr];
            let disk = replicas[0].disk;
            let task = PendingTask::new(job, frag, kind, replicas, now);
            self.enqueue(disk, task);
            self.touched.push(disk - self.base);
            return;
        }

        // Idle owners first: send to the idle head closest to a copy; strict
        // `<` keeps the first of equally close owners.
        let base = self.base;
        let mut idle: Option<(&[Replica], u64)> = None;
        for g in groups.chunks_exact(dr) {
            let d = &self.drives[g[0].disk - base];
            if d.inflight.is_some() || !d.fg.is_empty() {
                continue;
            }
            let disk = &d.disk;
            let key = g
                .iter()
                .map(|r| disk.sched_cost_ns(now, &r.target, write).0)
                .min()
                .unwrap_or(u64::MAX);
            if idle.is_none_or(|(_, k)| key < k) {
                idle = Some((g, key));
            }
        }
        if let Some((replicas, _)) = idle {
            let disk = replicas[0].disk;
            let task = PendingTask::new(job, frag, kind, replicas, now);
            self.enqueue(disk, task);
            self.touched.push(disk - base);
            return;
        }

        // All owners busy: duplicate into every drive queue; the first
        // disk to start it wins and the rest are cancelled.
        let dup = self.dups.insert(DupGen {
            live: ngroups as u32,
            copies: Vec::with_capacity(ngroups),
        });
        for replicas in groups.chunks_exact(dr) {
            let disk = replicas[0].disk;
            let mut t = PendingTask::new(job, frag, kind, replicas, now);
            t.dup = Some(dup);
            let id = self.enqueue(disk, t);
            if let Some(g) = self.dups.get_mut(dup) {
                g.copies.push(((disk - base) as u32, id));
            }
            self.touched.push(disk - base);
        }
    }

    /// Queues `task` on `disk`'s foreground queue and returns its id.
    fn enqueue(&mut self, disk: usize, mut task: PendingTask) -> TaskId {
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
        let d = &mut self.drives[l];
        let id = d.fg.insert(&d.disk, task);
        if let Some((at, track)) = arm {
            self.events.push(at, ColEvent::Timeout { disk, id, track });
        }
        id
    }

    fn push_delayed(&mut self, replica: &Replica, frag: Fragment, now: SimTime) {
        if self.is_dead(replica.disk) {
            return;
        }
        let l = replica.disk - self.base;
        let one = std::slice::from_ref(replica);
        let key = coalesce_key(frag.lbn, (replica.replica, replica.mirror));
        if self.coalesce {
            let d = &mut self.drives[l];
            if let Some(id) = d.delayed_keys.get(key) {
                // A newer write to the same block supersedes the pending
                // propagation (§3.4 "data that die young").
                let live = d.delayed.replace_with(&d.disk, id, |t| {
                    t.aim(one);
                    t.enqueued = now;
                });
                if live {
                    self.report.delayed_coalesced += 1;
                    return;
                }
            }
        }
        let t = PendingTask::new(None, frag, TaskKind::Delayed, one, now);
        let d = &mut self.drives[l];
        let id = d.delayed.insert(&d.disk, t);
        if self.coalesce {
            d.delayed_keys.insert(key, id);
        }
        self.nvram.count += 1;
        self.report.nvram_peak = self.report.nvram_peak.max(self.nvram.count);
    }

    /// Starts the next operation on idle local disk `l`, if it has work.
    fn try_dispatch(&mut self, now: SimTime, l: usize) {
        let d = &mut self.drives[l];
        if d.inflight.is_some() {
            return;
        }
        // Cancel the copies of mirror duplicates another disk started.
        for id in d.purge.drain(..) {
            d.fg.remove(id);
        }
        mimd_sim::sim_invariant!(
            d.fg.ids().iter().all(|&id| d
                .fg
                .get(id)
                .and_then(|t| t.dup)
                .is_none_or(|g| self.dups.get(g).is_some())),
            "disk {} still queues a copy of a started duplicate",
            self.base + l
        );

        // Delayed writes run when the foreground queue is empty, or are
        // forced out when the NVRAM budget crosses its threshold (§3.4).
        let force_delayed = self.nvram.count >= self.nvram.threshold;
        let use_delayed = (d.fg.is_empty() || force_delayed) && !d.delayed.is_empty();
        let queue = if use_delayed {
            &mut d.delayed
        } else {
            &mut d.fg
        };
        let Some((id, candidate)) = queue.pick(&d.disk, now, &mut d.look, self.slack, SCHED_WINDOW)
        else {
            return;
        };
        let Some(task) = queue.remove(id) else {
            return; // Unreachable: the pick came from this queue.
        };
        if task.kind == TaskKind::Delayed {
            d.delayed_keys
                .remove(coalesce_key(task.frag.lbn, task.meta));
        }
        if let Some(g) = task.dup.and_then(|g| self.dups.remove(g)) {
            // This copy won: queue its siblings for cancellation.
            for (m, id) in g.copies {
                let m = m as usize;
                if m != l && !self.dead[m] {
                    self.drives[m].purge.push(id);
                }
            }
        }

        // Service the chosen target (plus follow-on replicas for a
        // foreground multi-replica write).
        let chosen = &task.targets[candidate];
        let (predicted, first) =
            self.drives[l]
                .disk
                .begin_with_estimate(now, chosen, task.is_write());
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
        if self.prediction_samples {
            pr.predicted_us.push(predicted.as_micros_f64());
            pr.actual_us.push(actual_us);
        }
        if !matches!(task.kind, TaskKind::Delayed | TaskKind::Rebuild) {
            self.report.seek_ms.push(first.seek.as_millis_f64());
            self.report.rotation_ms.push(first.rotation.as_millis_f64());
            self.report.transfer_ms.push(first.transfer.as_millis_f64());
            self.report
                .queue_wait_ms
                .push(now.saturating_since(task.enqueued).as_millis_f64());
        }

        if task.kind == TaskKind::WriteAll && task.targets.len() > 1 {
            // The follow-on replicas ride the same command (§3.4).
            let rest = &mut self.write_scratch;
            rest.clear();
            rest.extend(
                task.targets
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != candidate)
                    .map(|(_, t)| *t),
            );
            end = write_nearest_first(&mut self.drives[l].disk, end, rest, false);
        }

        self.report.phys_requests += 1;
        self.drives[l].inflight = Some(InFlight {
            task,
            chosen: candidate,
        });
        self.events.push(end, ColEvent::DiskDone(self.base + l));
    }

    fn on_disk_done(&mut self, lay: &Layout, now: SimTime, disk: usize) {
        let l = disk - self.base;
        let Some(fly) = self.drives[l].inflight.take() else {
            return;
        };
        if fly.task.kind == TaskKind::Rebuild {
            self.on_rebuild_read_done(lay, now, disk);
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
                    self.report.faults.media_errors += 1;
                    self.on_media_error(lay, now, disk, fly.task);
                    return;
                }
            }
        }
        if fly.task.kind == TaskKind::Delayed {
            self.nvram.count = self.nvram.count.saturating_sub(1);
            self.report.delayed_propagated += 1;
        } else {
            if fly.task.kind == TaskKind::WriteFirst {
                // The first copy is durable; queue the remaining
                // Dr*Dm - 1 copies for background propagation.
                let written = fly.task.replica_of(fly.chosen);
                let mut reps = std::mem::take(&mut self.group_scratch);
                reps.clear();
                lay.write_groups_into(fly.task.frag, &mut reps);
                for r in &reps {
                    if (r.replica, r.mirror) == written {
                        continue;
                    }
                    self.push_delayed(r, fly.task.frag, now);
                }
                self.group_scratch = reps;
            }
            if let Some(job) = fly.task.job {
                self.finish_part(lay, now, job, fly.task.frag, false);
            }
        }
        // A parity phase that drained has queued its write legs.
        self.kick(now);
        self.try_dispatch(now, l);
    }

    /// A read's simulated-time timeout fired: pull and retry if it still
    /// sits in the foreground queue, else no-op.
    fn on_timeout(&mut self, lay: &Layout, now: SimTime, disk: usize, id: TaskId, track: u64) {
        if self.is_dead(disk) {
            return; // the queue died with the disk; rehoming handled it
        }
        let fg = &mut self.drives[disk - self.base].fg;
        if !fg
            .get(id)
            .is_some_and(|t| t.track == track && t.kind == TaskKind::Read)
        {
            return;
        }
        let Some(task) = fg.remove(id) else {
            return;
        };
        self.report.faults.timeouts += 1;
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
        if !self.may_retry(&task) {
            self.fail_unrecoverable(lay, now, task);
            return;
        }
        let groups = self.live_groups(lay, task.frag);
        let dr = self.dr;
        let ngroups = groups.len() / dr;
        if ngroups == 0 {
            self.fail_unrecoverable(lay, now, task);
        } else {
            // Rotate by the attempt this retry will be.
            let mut pick = (task.attempt as usize + 1) % ngroups;
            if ngroups > 1 && exclude == Some(groups[pick * dr].disk) {
                pick = (pick + 1) % ngroups;
            }
            let replicas = &groups[pick * dr..(pick + 1) * dr];
            let disk = replicas[0].disk;
            task.aim(replicas);
            self.requeue_retry(now, disk, task);
            self.try_dispatch(now, disk - self.base);
        }
        self.group_scratch = groups;
    }

    /// Whether `task` has attempts left in the plan's retry budget.
    fn may_retry(&self, task: &PendingTask) -> bool {
        let budget = self
            .faults
            .as_ref()
            .map_or(0, |ctx| ctx.plan.retry.max_retries);
        task.attempt < budget
    }

    /// Queues `task` on `disk` for its next attempt.
    fn requeue_retry(&mut self, now: SimTime, disk: usize, mut task: PendingTask) {
        task.attempt += 1;
        task.enqueued = now;
        task.dup = None;
        self.report.faults.retries += 1;
        self.enqueue(disk, task);
    }

    /// Fails a task that cannot be retried: one part of its job, or for a
    /// parity leg the whole operation, whose sibling legs then find the
    /// record gone.
    fn fail_unrecoverable(&mut self, lay: &Layout, now: SimTime, task: PendingTask) {
        self.report.faults.unrecoverable += 1;
        let Some(job) = task.job else {
            return;
        };
        if matches!(task.kind, TaskKind::ParityRead | TaskKind::ParityWrite) {
            self.close_job(now, job, true);
        } else {
            self.finish_part(lay, now, job, task.frag, true);
        }
    }

    /// Handles a transient media error on a completed foreground
    /// operation. Reads retry on an alternate replica; writes and parity
    /// legs retry in place (a parity organization holds no alternate copy
    /// of a block); an exhausted budget fails the logical request.
    fn on_media_error(&mut self, lay: &Layout, now: SimTime, disk: usize, task: PendingTask) {
        match task.kind {
            TaskKind::Read => self.retry_or_fail(lay, now, task, Some(disk)),
            TaskKind::Delayed | TaskKind::Rebuild => {}
            _ if self.may_retry(&task) => self.requeue_retry(now, disk, task),
            _ => self.fail_unrecoverable(lay, now, task),
        }
        self.try_dispatch(now, disk - self.base);
    }

    /// Tracks a fail-slow window edge and reports the health transition.
    fn on_slow_edge(&mut self, now: SimTime, disk: usize, start: bool) {
        if let Some(ctx) = self.faults.as_mut() {
            if let Some(c) = ctx.slow_now.get_mut(disk - self.base) {
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
        let d = &mut self.drives[disk - self.base];
        // Unpropagated replicas bound for this disk are moot. Only true
        // delayed propagations hold NVRAM entries.
        let dropped = d
            .delayed
            .ids()
            .iter()
            .filter(|&&id| {
                d.delayed
                    .get(id)
                    .is_some_and(|t| t.kind == TaskKind::Delayed)
            })
            .count();
        d.delayed.clear();
        d.delayed_keys.clear();
        d.purge.clear();
        self.nvram.count = self.nvram.count.saturating_sub(dropped);
        // Re-home the queue (in arrival order, so surviving mirrors see
        // the same relative order), then the in-flight operation.
        let ids: Vec<TaskId> = d.fg.ids().to_vec();
        let orphans: Vec<PendingTask> = ids.into_iter().filter_map(|id| d.fg.remove(id)).collect();
        for task in orphans {
            if let Some(g) = task.dup {
                // A surviving duplicate already ran (or runs) elsewhere,
                // closing the generation, or still waits on a live mirror.
                if self.dups.get_mut(g).is_none_or(|e| {
                    e.live = e.live.saturating_sub(1);
                    e.live > 0
                }) {
                    continue;
                }
                self.dups.remove(g);
            }
            self.rehome_task(lay, task, now);
        }
        // The in-flight task always rehomes: even a duplicate's siblings
        // were cancelled when this copy started.
        if let Some(fly) = self.drives[disk - self.base].inflight.take() {
            self.rehome_task(lay, fly.task, now);
        }
        mimd_sim::sim_invariant!(
            self.dups_consistent(),
            "duplicate generations out of step with the queues after disk {disk} failed"
        );
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

    /// Checks the duplicate slab against the queues (debug builds): every
    /// open generation has exactly `live` copies queued on live disks, and
    /// at least one, so a generation whose copies all died is closed.
    fn dups_consistent(&self) -> bool {
        self.dups.values().all(|e| {
            let queued = e
                .copies
                .iter()
                .filter(|&&(m, id)| {
                    !self.dead[m as usize] && self.drives[m as usize].fg.get(id).is_some()
                })
                .count();
            queued == e.live as usize && e.live > 0
        })
    }

    /// Re-dispatches a task from a failed disk onto surviving copies.
    fn rehome_task(&mut self, lay: &Layout, task: PendingTask, now: SimTime) {
        match task.kind {
            TaskKind::Delayed => {}
            // `on_disk_fail` reissues a mirror's dropped chunk read and
            // abandons a parity rebuild.
            TaskKind::Rebuild => {}
            TaskKind::WriteAll => {
                // The surviving mirrors hold their own WriteAll tasks; the
                // write only fails outright if no live copy remains.
                let groups = self.live_groups(lay, task.frag);
                let lost = groups.is_empty();
                self.group_scratch = groups;
                if let Some(job) = task.job {
                    self.finish_part(lay, now, job, task.frag, lost);
                }
            }
            TaskKind::Read | TaskKind::WriteFirst => {
                self.place(lay, now, task.job, task.frag, task.kind);
            }
            TaskKind::ParityRead | TaskKind::ParityWrite => {
                // The whole parity operation replans against the degraded
                // group under a fresh record; sibling legs still queued
                // elsewhere hold the stale key and no-op on completion.
                if let Some(j) = task.job.and_then(|job| self.jobs.remove(job)) {
                    let sub = Submission {
                        at: now,
                        logical: j.logical,
                        frag: task.frag,
                        write: j.write,
                        stripe: j.stripe,
                    };
                    self.plan_parity(lay, sub);
                }
            }
        }
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
            self.rebuild_issue_chunk(lay, now);
        }
    }

    /// Queues the next rebuild chunk on the spare's surviving group
    /// members, riding their *delayed* queues so foreground work keeps
    /// winning the disks. A mirror copies the chunk from one survivor,
    /// round-robin by chunk; a parity group reads it on every survivor,
    /// whose XOR is the lost content.
    fn rebuild_issue_chunk(&mut self, lay: &Layout, now: SimTime) {
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
        let live: Vec<usize> = (self.base..self.base + self.width)
            .filter(|&d| d != spare && !self.is_dead(d))
            .collect();
        let parity = lay.parity().is_some();
        let needed = if parity { self.width - 1 } else { 1 };
        if live.len() < needed {
            // Too few survivors to copy or XOR from: the rebuild is
            // abandoned and the spare slot stays dead.
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
        let sources = if parity {
            &live[..]
        } else {
            let i = (next / u64::from(chunk.max(1))) as usize % live.len();
            &live[i..=i]
        };
        // One extent serves every source: a parity layout has `Dm = 1`,
        // and a mirror has one source.
        let dm = lay.shape().dm as usize;
        let Some((target, span)) = lay.rebuild_extent(next, 0, (sources[0] % dm) as u32, chunk)
        else {
            // Off the mapped data (never expected before `total`): stop.
            if let Some(ctx) = self.faults.as_mut() {
                if let Some(r) = ctx.rebuild.as_mut() {
                    r.next = r.total;
                }
            }
            return;
        };
        let frag = Fragment {
            lbn: u64::MAX,
            sectors: span,
        };
        for &disk in sources {
            let read = Replica {
                disk,
                target,
                replica: 0,
                mirror: (disk % dm) as u8,
            };
            let t = PendingTask::new(None, frag, TaskKind::Rebuild, &[read], now);
            let d = &mut self.drives[disk - self.base];
            d.delayed.insert(&d.disk, t);
        }
        if let Some(ctx) = self.faults.as_mut() {
            if let Some(r) = ctx.rebuild.as_mut() {
                r.source = sources[0];
                r.pending = u64::from(span);
                r.writing = false;
                r.reads_left = sources.len() as u32;
            }
        }
        for &disk in sources {
            self.try_dispatch(now, disk - self.base);
        }
    }

    /// One rebuild chunk read completed on `source`. When the chunk's last
    /// read reports, all `Dr` replica writes of the chunk chain onto the
    /// spare (a parity group has `Dr = 1`).
    fn on_rebuild_read_done(&mut self, lay: &Layout, now: SimTime, source: usize) {
        let state = self.faults.as_mut().and_then(|ctx| {
            let chunk = ctx.plan.rebuild.chunk_sectors;
            ctx.rebuild
                .as_mut()
                .filter(|r| r.copying && r.pending > 0 && !r.writing && r.reads_left > 0)
                .map(|r| {
                    r.reads_left -= 1;
                    (r.disk, r.next, r.reads_left, chunk)
                })
        });
        // A stale read (the rebuild moved on, e.g. was abandoned) or one
        // of several survivor reads just lets the source continue.
        if let Some((spare, next, 0, chunk)) = state {
            let spare_mirror = (spare % lay.shape().dm as usize) as u32;
            let rest = &mut self.write_scratch;
            rest.clear();
            for k in 0..self.dr as u32 {
                if let Some((t, _)) = lay.rebuild_extent(next, k, spare_mirror, chunk) {
                    rest.push(t);
                }
            }
            let end =
                write_nearest_first(&mut self.drives[spare - self.base].disk, now, rest, true);
            if let Some(ctx) = self.faults.as_mut() {
                if let Some(r) = ctx.rebuild.as_mut() {
                    r.writing = true;
                }
            }
            self.report.phys_requests += 1;
            self.events.push(end, ColEvent::SpareDone(spare));
        }
        self.try_dispatch(now, source - self.base);
    }

    /// The spare finished one chunk: advance the rebuild, and on the last
    /// chunk flip the disk back to live.
    fn on_spare_done(&mut self, lay: &Layout, now: SimTime, disk: usize) {
        let parity = lay.parity().is_some();
        let mut finished = None;
        if let Some(ctx) = self.faults.as_mut() {
            if let Some(r) = ctx.rebuild.as_mut() {
                if r.disk == disk && r.writing {
                    r.next += r.pending;
                    r.pending = 0;
                    r.writing = false;
                    // Chunks XOR-built from parity survivors count apart
                    // from chunks copied from a mirror.
                    if parity {
                        self.report.faults.reconstruction_chunks += 1;
                    } else {
                        self.report.faults.rebuild_chunks += 1;
                    }
                    if r.next >= r.total {
                        finished = Some(r.started);
                    }
                }
            }
            if finished.is_some() {
                ctx.rebuild = None;
                self.report.faults.rebuilds_completed += 1;
            }
        }
        match finished {
            Some(started) => {
                self.report.faults.rebuild_duration = now.saturating_since(started);
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
            None => self.rebuild_issue_chunk(lay, now),
        }
    }
}
