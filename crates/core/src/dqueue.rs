//! A drive queue: slab-allocated pending requests in arrival order, plus an
//! incremental band index for SATF/RSATF, so a SATF pick costs time
//! proportional to the work it inspects rather than the queue depth.
//!
//! [`crate::sched::pick`] is a scan: every SATF decision costs every
//! queued candidate, even though arrivals and completions change the queue by one
//! entry at a time. For SATF/RSATF, [`DriveQueue`] moves that work to the
//! mutation sites:
//!
//! - Entries live with their arrival seq in the crate's generation-tagged
//!   slab, addressed by stable [`TaskId`]s; the arrival order and the
//!   index store ids, never moved structs.
//! - **SATF/RSATF** maintain a *rotational band index* in
//!   struct-of-arrays form: every candidate (entry × replica) lives in
//!   the per-cylinder-band `BandLanes` — flat, parallel columns of
//!   arrival seq, packed identity key (slot, cylinder, surface, replica,
//!   write flag), and memoised phase. A pick
//!   walks occupied bands outward from the arm, skips any band whose
//!   seek lower bound exceeds the incumbent's cost (one integer compare
//!   against the inverse seek curve), and gathers surviving lanes into
//!   scratch columns flushed through [`SimDisk::sched_cost_batch`] a
//!   chunk at a time, folding each chunk into a scalar
//!   `(cost, seq, candidate)` argmin.
//! - The scratch columns belong to the thread, not the queue: one
//!   `PickScratch` per thread serves every queue that thread picks from,
//!   so an array of many drives keeps one set of gather buffers per
//!   worker instead of one per queue.
//! - **FCFS, LOOK and RLOOK** keep no index: every pick runs the scan over
//!   the arrival-order window, one comparison per entry. The ordered
//!   per-policy indexes they once had showed no gain over that scan in
//!   an A/B (DESIGN.md, "Queue data structures").
//!
//! The phase column memoises [`SimDisk::sched_phase`] per candidate at
//! insert time. The phase folds in the disk's spindle-phase offset, which
//! is fixed when the disk is built, so a memoised phase stays valid for the
//! disk's lifetime and a pick never re-quantises.
//!
//! # Exactness
//!
//! Each banded pick returns *exactly* the entry and replica that
//! [`crate::sched::pick`] would return on the queue's arrival-order
//! window prefix:
//!
//! - Arrival order is tracked explicitly (`order`, always sorted by a
//!   per-queue monotone sequence number), so the scan's positional
//!   tie-break `(cost, queue index, candidate)` is reproduced as
//!   `(cost, seq, candidate)`.
//! - The winner is the pure `(cost, seq, candidate)` argmin over every
//!   candidate evaluated, which makes the band visit order, the gather
//!   order *within* a band, and the chunk-flush boundaries irrelevant to
//!   the result — only to how fast the incumbent tightens. Costing whole
//!   bands therefore cannot change the winner: extra candidates in a
//!   visited band cost at least the band's seek lower bound, and a band
//!   is only skipped when that bound exceeds the current incumbent's
//!   cost (which never rises), so every skipped candidate would have
//!   lost outright.
//! - Queues deeper than the scheduling window are masked, not rescanned:
//!   `order` is seq-sorted, so the scan's window prefix is exactly the
//!   lanes with seq below the first out-of-window entry's seq, and the
//!   argmin ignores masked lanes. The evaluated set still bounds every
//!   *eligible* candidate (band bounds hold for all members), so the
//!   windowed argmin is exact too.
//!
//! - Track-buffer hits on read-ahead drives are exact too. The buffered
//!   track always lies under the arm (see [`SimDisk::sched_cost_batch`]),
//!   so every hit lane sits at distance 0 in the arm's band, where the
//!   kernel prices it at zero. Both pick routes cost the arm's band whole,
//!   with no prune, and no lane in any other band can be a hit, so every
//!   seek and rotational bound used to skip lanes still holds.
//!
//! The equivalence tests at the bottom drive randomized queues through
//! both [`DriveQueue::pick`] and [`crate::sched::pick`] and require
//! identical picks — entry, replica, and sweep-direction side effects —
//! across every policy.

use std::cell::RefCell;

use mimd_disk::{mod1, PhaseFloorRuler, SimDisk};
use mimd_sim::{SimDuration, SimTime};

use crate::sched::{self, LookState, Policy, Schedulable};
pub use crate::slab::Key as TaskId;
use crate::slab::Slab;

/// Cylinders per band of the SATF band index. Wide bands keep the walk's
/// per-band fixed cost (cursor advance, seek bound) off the
/// critical path: at typical queue depths a band holds a kernel-sized run
/// of lanes, and the coarser distance prune costs at most one extra band
/// visit per side.
const BAND_CYLS: u32 = 64;

/// Slack added to the incumbent's cost before the rotational lower-bound
/// prune fires. The bound `seek_bound_ns + first-hit wait` is computed in
/// f64 phase space while the kernel's cost is integer nanoseconds; the slop
/// absorbs that rounding so a lane is only skipped when it is provably more
/// than a microsecond worse than the incumbent — equal-cost lanes always
/// reach the argmin and the legacy tie order is preserved.
const ROT_PRUNE_SLOP_NS: u64 = 1_000;

/// Below this many total lanes a SATF pick skips the outward band walk and
/// costs everything in one gather + one kernel flush. The walk's prunes
/// only pay for themselves once there are enough lanes to *skip*; on a
/// shallow queue the per-band bookkeeping (cursor scans, bound compares,
/// per-band flushes) costs more than just costing every lane. Same argmin
/// over the same eligible lanes either way — this is a route choice, not a
/// policy change.
const SMALL_LANES: usize = 24;

/// Packed per-lane identity: `slot` (28 bits) | `cyl` (20 bits) |
/// `surface` (8 bits) | `cand` (7 bits) | `write` (1 bit), most- to
/// least-significant. One u64 load per lane covers everything the gather
/// needs besides `seq` and `phase`, which keeps a band visit at three
/// column streams instead of eight.
#[inline]
fn pack_key(slot: u32, cyl: u32, surface: u32, cand: u8, write: bool) -> u64 {
    debug_assert!(slot < 1 << 28 && cyl < 1 << 20 && surface < 1 << 8 && cand < 1 << 7);
    (slot as u64) << 36
        | (cyl as u64) << 16
        | (surface as u64) << 8
        | (cand as u64) << 1
        | u64::from(write)
}

#[inline]
fn key_slot(k: u64) -> u32 {
    (k >> 36) as u32
}

#[inline]
fn key_cyl(k: u64) -> u32 {
    (k >> 16) as u32 & 0xF_FFFF
}

#[inline]
fn key_surface(k: u64) -> u32 {
    (k >> 8) as u32 & 0xFF
}

#[inline]
fn key_cand(k: u64) -> u8 {
    (k >> 1) as u8 & 0x7F
}

#[inline]
fn key_write(k: u64) -> u8 {
    k as u8 & 1
}

/// One cylinder band of the SATF index in struct-of-arrays form: lane `i`
/// across every column describes one candidate (entry × replica). The
/// layout feeds the pick's gather loop directly — eligible lanes stream
/// into the scratch columns for [`SimDisk::sched_cost_batch`].
#[derive(Debug, Default)]
struct BandLanes {
    /// Arrival sequence number (the scan's queue-position tie-break key).
    seq: Vec<u64>,
    /// Packed lane identity — see [`pack_key`].
    key: Vec<u64>,
    /// Memoised effective target phase ([`SimDisk::sched_phase`]), filled
    /// at insert.
    phase: Vec<f64>,
}

impl BandLanes {
    fn len(&self) -> usize {
        self.seq.len()
    }

    fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    fn push(&mut self, seq: u64, key: u64, phase: f64) {
        self.seq.push(seq);
        self.key.push(key);
        self.phase.push(phase);
    }

    fn swap_remove(&mut self, i: usize) {
        self.seq.swap_remove(i);
        self.key.swap_remove(i);
        self.phase.swap_remove(i);
    }

    fn clear(&mut self) {
        self.seq.clear();
        self.key.clear();
        self.phase.clear();
    }
}

/// Reused per-pick gather/output lanes for the batch kernel. A SATF pick
/// copies the eligible lanes into these contiguous columns and flushes
/// them through [`SimDisk::sched_cost_batch`] a chunk at a time, so the
/// kernel's fixed cost is amortised per chunk. Plain scratch: overwritten
/// every pick, never read across picks.
#[derive(Debug, Default)]
struct PickScratch {
    seq: Vec<u64>,
    key: Vec<u64>,
    write: Vec<u8>,
    dist: Vec<u32>,
    surface: Vec<u32>,
    phase: Vec<f64>,
    pos: Vec<u64>,
    rot: Vec<u64>,
}

// simlint: shard-local(per-thread pick scratch; value-transparent — every pick clears it before use and no value survives into the next pick)
thread_local! {
    /// The calling thread's [`PickScratch`], borrowed by every SATF/RSATF
    /// pick that thread makes, whichever queue it picks from.
    // simlint: shard-local(same scratch — overwritten on every pick)
    static PICK_SCRATCH: RefCell<PickScratch> = RefCell::new(PickScratch::default());
}

impl PickScratch {
    fn clear(&mut self) {
        self.seq.clear();
        self.key.clear();
        self.write.clear();
        self.dist.clear();
        self.surface.clear();
        self.phase.clear();
    }

    /// Costs every gathered lane in one batched pass, folds them into the
    /// incumbent, and resets the gather columns. Returns whether the
    /// incumbent's *cost* strictly improved (tie-break-only changes don't
    /// move the prune threshold).
    fn flush(
        &mut self,
        disk: &SimDisk,
        now: SimTime,
        slack_ns: u64,
        best: &mut Option<(u64, u64, u8, u32)>,
    ) -> bool {
        let n = self.seq.len();
        if n == 0 {
            return false;
        }
        if self.pos.len() < n {
            self.pos.resize(n, 0);
            self.rot.resize(n, 0);
        }
        disk.sched_cost_batch(
            now,
            &self.dist,
            &self.surface,
            &self.write,
            &self.phase,
            &mut self.pos[..n],
            &mut self.rot[..n],
        );
        let rot_penalty = disk.rotation_ns();
        let mut improved = false;
        for i in 0..n {
            let cost = self.pos[i] + u64::from(self.rot[i] < slack_ns) * rot_penalty;
            let cand = key_cand(self.key[i]);
            let wins = match *best {
                None => true,
                Some((bcost, bseq, bcand, _)) => {
                    cost < bcost || (cost == bcost && (self.seq[i], cand) < (bseq, bcand))
                }
            };
            if wins {
                improved |= best.is_none_or(|(bcost, ..)| cost < bcost);
                *best = Some((cost, self.seq[i], cand, key_slot(self.key[i])));
            }
        }
        self.clear();
        improved
    }
}

/// A drive queue with an incremental SATF/RSATF band index. See the module
/// docs.
#[derive(Debug)]
pub struct DriveQueue<S: Schedulable> {
    policy: Policy,
    /// Each queued task with its arrival seq.
    tasks: Slab<(u64, S)>,
    /// Live ids in arrival order (ascending `seq`).
    order: Vec<TaskId>,
    next_seq: u64,
    /// SATF/RSATF: per-band candidate lanes, grown on demand to cover the
    /// highest cylinder seen.
    bands: Vec<BandLanes>,
    /// One bit per band: set iff the band's lanes are non-empty.
    band_bits: Vec<u64>,
    /// Total lanes across all bands (sum of candidate counts of queued
    /// SATF/RSATF tasks); gates the shallow-queue fast path.
    lane_count: usize,
}

impl<S: Schedulable> DriveQueue<S> {
    /// Creates an empty queue scheduled by `policy`.
    pub fn new(policy: Policy) -> Self {
        DriveQueue {
            policy,
            tasks: Slab::default(),
            order: Vec::new(),
            next_seq: 0,
            bands: Vec::new(),
            band_bits: Vec::new(),
            lane_count: 0,
        }
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The task behind `id`, if it is still queued.
    pub fn get(&self, id: TaskId) -> Option<&S> {
        self.tasks.get(id).map(|(_, task)| task)
    }

    /// Live ids in arrival order.
    pub fn ids(&self) -> &[TaskId] {
        &self.order
    }

    /// Drops every queued task, invalidating all outstanding ids while
    /// keeping the queue's allocations for reuse.
    pub fn clear(&mut self) {
        for id in self.order.drain(..) {
            self.tasks.remove(id);
        }
        for lanes in &mut self.bands {
            lanes.clear();
        }
        self.band_bits.fill(0);
        self.lane_count = 0;
    }

    /// Inserts a task at the back of the arrival order.
    ///
    /// `disk` is the drive this queue schedules for: the SATF index
    /// memoises each candidate's effective target phase at insert time, so
    /// picks never re-quantise.
    pub fn insert(&mut self, disk: &SimDisk, task: S) -> TaskId {
        let id = self.tasks.insert((self.next_seq, task));
        self.next_seq += 1;
        self.order.push(id);
        self.index_insert(disk, id);
        id
    }

    /// Removes and returns the task behind `id`; `None` if the id is stale.
    pub fn remove(&mut self, id: TaskId) -> Option<S> {
        let seq = self.tasks.get(id)?.0;
        mimd_sim::sim_invariant!(
            self.order
                .windows(2)
                .all(|w| self.seq_of(w[0]) < self.seq_of(w[1])),
            "drive-queue arrival order out of seq order"
        );
        // `order` is sorted by seq, so the position is a binary search.
        let pos = self
            .order
            .binary_search_by_key(&seq, |&i| self.seq_of(i))
            .ok()?;
        self.index_remove(id);
        self.order.remove(pos);
        self.tasks.remove(id).map(|(_, task)| task)
    }

    /// Mutates the task behind `id` in place, keeping its arrival position,
    /// and re-indexes it (its targets may have changed).
    /// Returns whether the id was live.
    pub fn replace_with(&mut self, disk: &SimDisk, id: TaskId, f: impl FnOnce(&mut S)) -> bool {
        if self.tasks.get(id).is_none() {
            return false;
        }
        self.index_remove(id);
        if let Some((_, task)) = self.tasks.get_mut(id) {
            f(task);
        }
        self.index_insert(disk, id);
        true
    }

    /// Picks the next task for an idle disk exactly as
    /// [`crate::sched::pick`] would on the arrival-order prefix of at most
    /// `window` entries, returning the winning id and replica index.
    ///
    /// SATF/RSATF use the lane index at any depth (entries past the
    /// window are masked out of the argmin by sequence number), on drives
    /// with or without read-ahead. FCFS, LOOK and RLOOK always run the
    /// windowed scan.
    ///
    /// The queue is unchanged. A SATF/RSATF pick borrows the calling
    /// thread's gather scratch, which holds nothing between picks.
    pub fn pick(
        &self,
        disk: &SimDisk,
        now: SimTime,
        look: &mut LookState,
        slack: SimDuration,
        window: usize,
    ) -> Option<(TaskId, usize)> {
        if self.order.is_empty() {
            return None;
        }
        if self.banded() {
            PICK_SCRATCH.with(|s| self.pick_satf(&mut s.borrow_mut(), disk, now, slack, window))
        } else {
            self.pick_scan(disk, now, look, slack, window)
        }
    }

    /// Runs [`crate::sched::pick`] in place over the window prefix.
    fn pick_scan(
        &self,
        disk: &SimDisk,
        now: SimTime,
        look: &mut LookState,
        slack: SimDuration,
        window: usize,
    ) -> Option<(TaskId, usize)> {
        let window = window.min(self.order.len());
        let queue = self.order[..window].iter().map(|&id| {
            self.get(id).expect("order holds live ids") // simlint: allow(panic) — queue invariant
        });
        let p = sched::pick(self.policy, disk, now, queue, look, slack)?;
        Some((self.order[p.queue_index], p.candidate))
    }

    fn pick_satf(
        &self,
        scratch: &mut PickScratch,
        disk: &SimDisk,
        now: SimTime,
        slack: SimDuration,
        window: usize,
    ) -> Option<(TaskId, usize)> {
        // The scan only sees the arrival-order window prefix. `order` is
        // seq-sorted, so that prefix is exactly the lanes with seq below
        // the first out-of-window entry's seq; lanes at or past the cutoff
        // stay in the index but are masked out of the argmin.
        let cutoff = self
            .order
            .get(window)
            .map_or(u64::MAX, |&id| self.seq_of(id));
        let arm = disk.arm_cylinder();
        let arm_band = (arm / BAND_CYLS) as usize;
        let nbands = self.bands.len();
        let slack_ns = slack.as_nanos();
        // Hoists the now-dependent part of `arrival_phase_floor`: the walk
        // below prunes each lane against the earliest spindle phase it
        // could possibly be served at, and the ruler makes that floor one
        // fused multiply per lane instead of a full recomputation.
        let period = disk.rotation_ns() as f64;
        let ruler = disk.phase_floor_ruler(now);
        let mut best: Option<(u64, u64, u8, u32)> = None; // (cost, seq, cand, slot)
        if self.lane_count <= SMALL_LANES {
            scratch.clear();
            // Jump straight between occupied bands via the bitmap words —
            // on a shallow queue most bands are empty and a linear
            // occupancy scan would cost more than the gather itself.
            for w in 0..self.band_bits.len() {
                let mut bits = self.band_bits[w];
                while bits != 0 {
                    let band = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.gather_band(scratch, disk, &ruler, period, arm, band, cutoff, None);
                }
            }
            scratch.flush(disk, now, slack_ns, &mut best);
            let (_, seq, cand, slot) = best?;
            let id = self.id_at(slot, seq)?;
            return Some((id, cand as usize));
        }
        // `maxd` is the prune threshold in distance space: the largest
        // tabulated arm distance whose seek fits inside the incumbent's
        // cost. Skipping a band with `band_min_dist > maxd` is the same
        // test as `seek_bound_ns(band_min_dist) > incumbent` (the seek
        // curve is weakly monotone), but per band it is one integer
        // compare. Recomputed only when the incumbent's cost improves.
        let mut maxd = u32::MAX;
        scratch.clear();
        // Arm band first, flushed alone: it holds the nearest candidates,
        // so an early incumbent makes the distance prune bite immediately.
        if arm_band < nbands && self.band_occupied(arm_band) {
            self.gather_band(scratch, disk, &ruler, period, arm, arm_band, cutoff, None);
            if scratch.flush(disk, now, slack_ns, &mut best) {
                maxd = disk.max_seek_dist_within_ns(best.map_or(u64::MAX, |(c, ..)| c));
            }
        }
        // Walk outward, nearer cursor first; ties go upward. Band and
        // flush order are perf-only — the winner is a pure
        // (cost, seq, cand) argmin over everything flushed.
        let mut up = if arm_band < nbands {
            self.next_band_at_or_above(arm_band + 1)
        } else {
            None
        };
        let mut down = if arm_band > 0 {
            self.next_band_at_or_below((arm_band - 1).min(nbands.saturating_sub(1)))
        } else {
            None
        };
        while up.is_some() || down.is_some() {
            let du = up.map_or(u32::MAX, |b| self.band_min_dist(b, arm));
            let dd = down.map_or(u32::MAX, |b| self.band_min_dist(b, arm));
            let is_up = du <= dd;
            let (band, dist) = if is_up {
                (up.unwrap_or_default(), du)
            } else {
                (down.unwrap_or_default(), dd)
            };
            if dist > maxd {
                // Every remaining band on this side is at least as far, and
                // the other cursor (if live) is farther still: done.
                break;
            }
            let budget = best.map(|(c, ..)| c.saturating_add(ROT_PRUNE_SLOP_NS));
            self.gather_band(scratch, disk, &ruler, period, arm, band, cutoff, budget);
            // Flush whatever the band contributed right away: the handful
            // of lanes that survive the rotational screen are exactly the
            // ones that can move the incumbent, and folding them in now is
            // what keeps `maxd` and the prune budget tight for the next
            // band. Letting them sit until a large chunk accumulates
            // (tempting, to amortise the kernel's fixed cost) leaves both
            // prunes stale and the walk visits far more bands than it
            // saves in kernel overhead.
            if scratch.flush(disk, now, slack_ns, &mut best) {
                maxd = disk.max_seek_dist_within_ns(best.map_or(u64::MAX, |(c, ..)| c));
            }
            if is_up {
                up = if band + 1 < nbands {
                    self.next_band_at_or_above(band + 1)
                } else {
                    None
                };
            } else {
                down = if band > 0 {
                    self.next_band_at_or_below(band - 1)
                } else {
                    None
                };
            }
        }
        scratch.flush(disk, now, slack_ns, &mut best);
        let (_, seq, cand, slot) = best?;
        let id = self.id_at(slot, seq)?;
        Some((id, cand as usize))
    }

    /// Appends a band's *eligible* lanes — seq below `cutoff` (window
    /// masking) — to `s`. Gather-time filtering means masked
    /// lanes are never costed and the flush argmin needs no per-lane
    /// window check.
    ///
    /// When `budget` carries the incumbent's cost (plus
    /// [`ROT_PRUNE_SLOP_NS`]), each lane is also screened against a
    /// rotational lower bound before it is copied: the arm cannot reach the
    /// lane's cylinder before `seek_bound_ns(dist)`, and from that instant
    /// the head must still wait for the lane's angle to come around, so
    /// `bound + first_hit_wait` underestimates the true positioning time.
    /// Lanes whose underestimate already exceeds the budget can never win
    /// the argmin and are skipped without being costed. The first-hit wait
    /// is monotone in the arrival instant, so using the *earliest* arrival
    /// (the seek bound) keeps the bound sound.
    #[allow(clippy::too_many_arguments)]
    fn gather_band(
        &self,
        s: &mut PickScratch,
        disk: &SimDisk,
        ruler: &PhaseFloorRuler,
        period: f64,
        arm: u32,
        band: usize,
        cutoff: u64,
        budget: Option<u64>,
    ) {
        let lanes = &self.bands[band];
        if cutoff == u64::MAX && budget.is_none() {
            // Whole band eligible: straight column copies.
            s.seq.extend_from_slice(&lanes.seq);
            s.key.extend_from_slice(&lanes.key);
            s.phase.extend_from_slice(&lanes.phase);
            s.write.extend(lanes.key.iter().map(|&k| key_write(k)));
            s.surface.extend(lanes.key.iter().map(|&k| key_surface(k)));
            s.dist
                .extend(lanes.key.iter().map(|&k| arm.abs_diff(key_cyl(k))));
        } else {
            for i in 0..lanes.len() {
                if lanes.seq[i] >= cutoff {
                    continue;
                }
                let k = lanes.key[i];
                let dist = arm.abs_diff(key_cyl(k));
                if let Some(budget) = budget {
                    let bound = disk.seek_bound_ns(dist);
                    let wait = (mod1(lanes.phase[i] - ruler.floor(bound)) * period) as u64;
                    if bound.saturating_add(wait) > budget {
                        continue;
                    }
                }
                s.seq.push(lanes.seq[i]);
                s.key.push(k);
                s.phase.push(lanes.phase[i]);
                s.write.push(key_write(k));
                s.surface.push(key_surface(k));
                s.dist.push(dist);
            }
        }
    }

    fn band_min_dist(&self, band: usize, arm: u32) -> u32 {
        let lo = band as u32 * BAND_CYLS;
        let hi = lo + (BAND_CYLS - 1);
        if arm < lo {
            lo - arm
        } else {
            arm.saturating_sub(hi)
        }
    }

    fn band_occupied(&self, band: usize) -> bool {
        self.band_bits
            .get(band / 64)
            .is_some_and(|w| w & (1 << (band % 64)) != 0)
    }

    fn next_band_at_or_above(&self, from: usize) -> Option<usize> {
        let nwords = self.band_bits.len();
        let (mut w, bit) = (from / 64, from % 64);
        if w >= nwords {
            return None;
        }
        let mut word = self.band_bits[w] & (!0u64 << bit);
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= nwords {
                return None;
            }
            word = self.band_bits[w];
        }
    }

    fn next_band_at_or_below(&self, from: usize) -> Option<usize> {
        let (mut w, bit) = (from / 64, from % 64);
        if w >= self.band_bits.len() {
            return None;
        }
        let mask = if bit == 63 {
            !0u64
        } else {
            (1u64 << (bit + 1)) - 1
        };
        let mut word = self.band_bits[w] & mask;
        loop {
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
            if w == 0 {
                return None;
            }
            w -= 1;
            word = self.band_bits[w];
        }
    }

    fn id_at(&self, slot: u32, seq: u64) -> Option<TaskId> {
        let id = self.tasks.key_at(slot)?;
        (self.seq_of(id) == seq).then_some(id)
    }

    /// The arrival seq of a queued task (`u64::MAX` for a stale id).
    fn seq_of(&self, id: TaskId) -> u64 {
        self.tasks.get(id).map_or(u64::MAX, |&(seq, _)| seq)
    }

    /// Whether this queue keeps the band index: only SATF/RSATF do; the
    /// other policies pick by scan and index nothing.
    fn banded(&self) -> bool {
        matches!(self.policy, Policy::Satf | Policy::Rsatf)
    }

    /// How many of an entry's candidates the policy may choose among.
    fn lane_limit(&self, task: &S) -> usize {
        if self.policy.replica_aware() {
            task.candidates().len()
        } else {
            1
        }
    }

    fn index_insert(&mut self, disk: &SimDisk, id: TaskId) {
        if !self.banded() {
            return;
        }
        let Some((seq, task)) = self.tasks.get(id) else {
            return;
        };
        let write = task.is_write();
        let limit = self.lane_limit(task);
        for (c, t) in task.candidates().iter().take(limit).enumerate() {
            let band = (t.cylinder / BAND_CYLS) as usize;
            if band >= self.bands.len() {
                self.bands.resize_with(band + 1, BandLanes::default);
                self.band_bits.resize(self.bands.len().div_ceil(64), 0);
            }
            let key = pack_key(id.slot, t.cylinder, t.surface, c as u8, write);
            self.bands[band].push(*seq, key, disk.sched_phase(t));
            self.band_bits[band / 64] |= 1 << (band % 64);
            self.lane_count += 1;
        }
    }

    fn index_remove(&mut self, id: TaskId) {
        if !self.banded() {
            return;
        }
        let Some((seq, task)) = self.tasks.get(id) else {
            return;
        };
        let limit = self.lane_limit(task);
        for t in task.candidates().iter().take(limit) {
            let band = (t.cylinder / BAND_CYLS) as usize;
            let lanes = &mut self.bands[band];
            // `seq` alone identifies the entry; each loop pass removes one
            // of its lanes in this band, so entries with several replicas
            // in one band drain fully.
            if let Some(at) = lanes.seq.iter().position(|s| s == seq) {
                lanes.swap_remove(at);
                self.lane_count -= 1;
            }
            if lanes.is_empty() {
                self.band_bits[band / 64] &= !(1 << (band % 64));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_disk::{DiskParams, PositionKnowledge, Target, TimingPath};
    use mimd_sim::SimRng;

    #[derive(Debug, Clone)]
    struct Entry {
        candidates: Vec<Target>,
        write: bool,
        at: SimTime,
    }

    impl Schedulable for Entry {
        fn candidates(&self) -> &[Target] {
            &self.candidates
        }
        fn is_write(&self) -> bool {
            self.write
        }
        fn enqueued(&self) -> SimTime {
            self.at
        }
    }

    fn disk() -> SimDisk {
        SimDisk::new(
            &DiskParams::st39133lwv(),
            TimingPath::Detailed,
            PositionKnowledge::Perfect,
            7,
        )
        .unwrap()
    }

    fn random_entry(rng: &mut SimRng, cyls: u32, max_at_us: u64) -> Entry {
        let dr = 1 + rng.below(4) as usize;
        Entry {
            candidates: (0..dr)
                .map(|k| Target {
                    cylinder: rng.below(cyls as u64) as u32,
                    surface: k as u32,
                    angle: rng.unit(),
                    sectors: 8,
                })
                .collect(),
            write: rng.below(4) == 0,
            at: SimTime::from_micros(rng.below(max_at_us.max(1))),
        }
    }

    /// Every lane column of the band index must mirror the queue contents,
    /// and every phase lane must equal the disk's own `sched_phase` of its
    /// target.
    fn check_index(dq: &DriveQueue<Entry>, d: &SimDisk, mirror: &[Entry], ids: &[TaskId]) {
        if !matches!(dq.policy, Policy::Satf | Policy::Rsatf) {
            return;
        }
        // (band, seq, slot, cand, cyl, surface, write, phase bits)
        type Lane = (usize, u64, u32, u8, u32, u32, u8, u64);
        let mut want: Vec<Lane> = Vec::new();
        for (i, e) in mirror.iter().enumerate() {
            let id = ids[i];
            let seq = dq.seq_of(id);
            let limit = if dq.policy.replica_aware() {
                e.candidates.len()
            } else {
                1
            };
            for (c, t) in e.candidates.iter().take(limit).enumerate() {
                want.push((
                    (t.cylinder / BAND_CYLS) as usize,
                    seq,
                    id.slot,
                    c as u8,
                    t.cylinder,
                    t.surface,
                    u8::from(e.write),
                    d.sched_phase(t).to_bits(),
                ));
            }
        }
        let mut got: Vec<Lane> = Vec::new();
        for (b, lanes) in dq.bands.iter().enumerate() {
            assert_eq!(
                dq.band_occupied(b),
                !lanes.is_empty(),
                "band bit desync at {b}"
            );
            for i in 0..lanes.len() {
                let k = lanes.key[i];
                got.push((
                    b,
                    lanes.seq[i],
                    key_slot(k),
                    key_cand(k),
                    key_cyl(k),
                    key_surface(k),
                    key_write(k),
                    lanes.phase[i].to_bits(),
                ));
            }
        }
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "band index desynced");
        assert_eq!(dq.lane_count, got.len(), "lane count desynced");
    }

    /// The load-bearing equivalence property: on every randomized queue —
    /// built through interleaved inserts, removals, and in-place updates —
    /// the indexed pick must equal the windowed scan of `sched::pick`:
    /// same entry, same replica, same sweep-direction side effect.
    #[test]
    fn indexed_pick_matches_scan_on_randomized_queues() {
        let cyls = DiskParams::st39133lwv().total_cylinders();
        let policies = [
            Policy::Fcfs,
            Policy::Look,
            Policy::Satf,
            Policy::Rlook,
            Policy::Rsatf,
        ];
        mimd_sim::check::check_cases("indexed pick equals scan", 40, |case, rng| {
            let mut d = disk();
            // Move the head somewhere interesting.
            let park = Target {
                cylinder: rng.below(cyls as u64) as u32,
                surface: 0,
                angle: rng.unit(),
                sectors: 8,
            };
            let _ = d.begin(SimTime::ZERO, &park, false);
            let now = d.busy_until();
            let slack = if case % 3 == 0 {
                SimDuration::from_micros(rng.below(2_000))
            } else {
                SimDuration::ZERO
            };
            // A small window sometimes, to exercise the window mask.
            let window = if case % 4 == 0 { 8 } else { 128 };
            for policy in policies {
                let mut dq: DriveQueue<Entry> = DriveQueue::new(policy);
                let mut mirror: Vec<Entry> = Vec::new();
                let mut ids: Vec<TaskId> = Vec::new();
                let upward = rng.below(2) == 0;
                let mut look_dq = LookState::default();
                let mut look_scan = LookState::default();
                look_dq.upward = upward;
                look_scan.upward = upward;
                for step in 0..60 {
                    if step == 30 {
                        // A failed disk's delayed queue is cleared and then
                        // refilled by the rebuilt disk's writes.
                        dq.clear();
                        mirror.clear();
                        ids.clear();
                        check_index(&dq, &d, &mirror, &ids);
                    }
                    match rng.below(10) {
                        // Mostly inserts so queues get deep.
                        0..=5 => {
                            let e = random_entry(rng, cyls, 1 + step * 10);
                            ids.push(dq.insert(&d, e.clone()));
                            mirror.push(e);
                            check_index(&dq, &d, &mirror, &ids);
                        }
                        6 => {
                            if !mirror.is_empty() {
                                let at = rng.below(mirror.len() as u64) as usize;
                                let got = dq.remove(ids.remove(at));
                                mirror.remove(at);
                                assert!(got.is_some(), "live id must remove");
                                check_index(&dq, &d, &mirror, &ids);
                            }
                        }
                        7 => {
                            // Coalesce-style in-place update: new targets and
                            // enqueued time, same arrival position.
                            if !mirror.is_empty() {
                                let at = rng.below(mirror.len() as u64) as usize;
                                let e = random_entry(rng, cyls, 1 + step * 10);
                                let ok = dq.replace_with(&d, ids[at], |t| {
                                    t.candidates = e.candidates.clone();
                                    t.write = e.write;
                                    t.at = e.at;
                                });
                                assert!(ok);
                                mirror[at] = e;
                                check_index(&dq, &d, &mirror, &ids);
                            }
                        }
                        _ => {
                            let w = window.min(mirror.len());
                            let want =
                                sched::pick(policy, &d, now, &mirror[..w], &mut look_scan, slack)
                                    .map(|p| (ids[p.queue_index], p.candidate));
                            let got = dq.pick(&d, now, &mut look_dq, slack, window);
                            assert_eq!(
                                got,
                                want,
                                "policy {policy}, step {step}, depth {}",
                                mirror.len()
                            );
                            assert_eq!(look_dq.upward, look_scan.upward, "sweep diverged");
                        }
                    }
                }
                // Drain by repeated pick+remove: full agreement to empty.
                loop {
                    let w = window.min(mirror.len());
                    let want = sched::pick(policy, &d, now, &mirror[..w], &mut look_scan, slack)
                        .map(|p| (p.queue_index, p.candidate));
                    let got = dq.pick(&d, now, &mut look_dq, slack, window);
                    match (got, want) {
                        (None, None) => break,
                        (Some((id, c)), Some((qi, wc))) => {
                            assert_eq!((id, c), (ids[qi], wc), "drain diverged ({policy})");
                            assert!(dq.remove(id).is_some());
                            ids.remove(qi);
                            mirror.remove(qi);
                        }
                        (g, w) => panic!("presence diverged ({policy}): {g:?} vs {w:?}"),
                    }
                }
                assert!(dq.is_empty());
            }
        });
    }

    /// On a read-ahead drive the band index must price buffered-track hits
    /// exactly: candidates on the buffered track, as reads (free) and as
    /// writes (full positioning), at depths that reach both pick routes and
    /// pass the 128-entry window, with and without slack. Every drain step
    /// must equal the windowed scan.
    #[test]
    fn read_ahead_index_matches_scan() {
        let cyls = DiskParams::st39133lwv().total_cylinders();
        const WINDOW: usize = 128;
        let mut d = disk();
        d.set_read_ahead(true);
        let warm = Target {
            cylinder: 1_234,
            surface: 2,
            angle: 0.3,
            sectors: 8,
        };
        let _ = d.begin(SimTime::ZERO, &warm, false);
        let now = d.busy_until();
        let mut rng = SimRng::seed_from(0xAB5);
        for depth in [4usize, 16, 64, 256] {
            for slack in [SimDuration::ZERO, SimDuration::from_micros(110)] {
                for policy in [Policy::Satf, Policy::Rsatf] {
                    let mut dq: DriveQueue<Entry> = DriveQueue::new(policy);
                    let mut mirror = Vec::new();
                    let mut ids = Vec::new();
                    for _ in 0..depth {
                        let mut e = random_entry(&mut rng, cyls, 50);
                        // Put some primaries on the buffered track, or on
                        // the arm's cylinder one surface over.
                        match rng.below(4) {
                            0 => e.candidates[0] = warm,
                            1 => e.candidates[0] = Target { surface: 3, ..warm },
                            _ => {}
                        }
                        ids.push(dq.insert(&d, e.clone()));
                        mirror.push(e);
                    }
                    while !mirror.is_empty() {
                        let w = WINDOW.min(mirror.len());
                        let mut look_a = LookState::default();
                        let mut look_b = LookState::default();
                        let want = sched::pick(policy, &d, now, &mirror[..w], &mut look_b, slack)
                            .map(|p| (ids[p.queue_index], p.candidate));
                        let got = dq.pick(&d, now, &mut look_a, slack, WINDOW);
                        assert_eq!(got, want, "{policy} depth {depth} slack {slack:?}");
                        let (id, _) = got.expect("non-empty queue must pick");
                        let at = ids.iter().position(|&x| x == id).expect("live id");
                        assert!(dq.remove(id).is_some());
                        ids.remove(at);
                        mirror.remove(at);
                    }
                }
            }
        }
    }

    #[test]
    fn stale_ids_are_inert() {
        let d = disk();
        let mut dq: DriveQueue<Entry> = DriveQueue::new(Policy::Rsatf);
        let e = Entry {
            candidates: vec![Target {
                cylinder: 5,
                surface: 0,
                angle: 0.5,
                sectors: 8,
            }],
            write: false,
            at: SimTime::ZERO,
        };
        let id = dq.insert(&d, e.clone());
        assert!(dq.remove(id).is_some());
        // Double-remove is a no-op, and a reused slot gets a fresh gen.
        assert!(dq.remove(id).is_none());
        assert!(!dq.replace_with(&d, id, |_| {}));
        let id2 = dq.insert(&d, e);
        assert_eq!(id2.slot, id.slot, "slot is reused");
        assert_ne!(id2.gen, id.gen, "generation advances");
        assert!(dq.get(id).is_none());
        assert!(dq.get(id2).is_some());
    }

    #[test]
    fn arrival_order_survives_middle_removals() {
        let d = disk();
        let mut dq: DriveQueue<Entry> = DriveQueue::new(Policy::Fcfs);
        let mk = |at: u64| Entry {
            candidates: vec![Target {
                cylinder: 1,
                surface: 0,
                angle: 0.1,
                sectors: 8,
            }],
            write: false,
            at: SimTime::from_micros(at),
        };
        let a = dq.insert(&d, mk(3));
        let b = dq.insert(&d, mk(1));
        let c = dq.insert(&d, mk(2));
        assert_eq!(dq.ids(), &[a, b, c]);
        assert!(dq.remove(b).is_some());
        assert_eq!(dq.ids(), &[a, c]);
        let d2 = dq.insert(&d, mk(0));
        assert_eq!(dq.ids(), &[a, c, d2]);
        assert_eq!(dq.len(), 3);
    }

    /// Exhaustive band-run equivalence at fixed depths, including depths
    /// beyond the 128-entry scheduling window: the banded SATF pick masks
    /// out-of-window lanes by sequence number instead of falling back to
    /// the scan, and must still agree with the windowed scan on every
    /// drain step down to empty.
    #[test]
    fn banded_pick_matches_windowed_scan_at_fixed_depths() {
        let cyls = DiskParams::st39133lwv().total_cylinders();
        const WINDOW: usize = 128;
        mimd_sim::check::check_cases("banded pick at fixed depths", 6, |case, rng| {
            for depth in [4usize, 16, 64, 256] {
                for policy in [Policy::Satf, Policy::Rsatf] {
                    let mut d = disk();
                    let park = Target {
                        cylinder: rng.below(cyls as u64) as u32,
                        surface: 0,
                        angle: rng.unit(),
                        sectors: 8,
                    };
                    let _ = d.begin(SimTime::ZERO, &park, false);
                    let now = d.busy_until();
                    let slack = if case % 2 == 0 {
                        SimDuration::from_micros(500)
                    } else {
                        SimDuration::ZERO
                    };
                    let mut dq: DriveQueue<Entry> = DriveQueue::new(policy);
                    let mut mirror: Vec<Entry> = Vec::new();
                    let mut ids: Vec<TaskId> = Vec::new();
                    for _ in 0..depth {
                        let e = random_entry(rng, cyls, 50);
                        ids.push(dq.insert(&d, e.clone()));
                        mirror.push(e);
                    }
                    // Drain to empty: the queue crosses the window boundary
                    // mid-drain at depth 256, so both the masked and the
                    // unmasked argmin paths are exercised.
                    while !mirror.is_empty() {
                        let w = WINDOW.min(mirror.len());
                        let mut look_a = LookState::default();
                        let mut look_b = LookState::default();
                        let want = sched::pick(policy, &d, now, &mirror[..w], &mut look_b, slack)
                            .map(|p| (ids[p.queue_index], p.candidate));
                        let got = dq.pick(&d, now, &mut look_a, slack, WINDOW);
                        assert_eq!(got, want, "{policy} depth {depth}");
                        let (id, _) = got.expect("non-empty queue must pick");
                        let at = ids
                            .iter()
                            .position(|&x| x == id)
                            .expect("picked id is live");
                        assert!(dq.remove(id).is_some());
                        ids.remove(at);
                        mirror.remove(at);
                    }
                }
            }
        });
    }
}
