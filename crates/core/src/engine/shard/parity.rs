//! Parity-organization dispatch (RAID 4/5): the shard-side state machine
//! for reads, small-write RMWs, full-stripe writes, degraded
//! reconstruction reads, and spare rebuilds on XOR-parity groups.
//!
//! A parity operation fans a routed fragment out into *legs* — one
//! [`TaskKind::ParityRead`] / [`TaskKind::ParityWrite`] per member disk —
//! tracked by a [`ParityOp`] keyed by operation id (each leg carries the
//! id in its `job` field). A read–modify–write runs in two phases: the
//! old-value reads drain, then the buffered write legs issue. A member
//! failure mid-operation replans the whole op against the degraded group;
//! orphaned sibling legs find their op gone and no-op on completion.
//!
//! Everything here stays on the `G` disks of one group (one shard), uses
//! no RNG, and emits only pre-existing event kinds — which is what keeps
//! the determinism-witness contract untouched.

use mimd_disk::Target;
use mimd_sim::SimTime;

use crate::layout::{Fragment, Layout};

use super::{ColEvent, HealthKind, Note, PendingTask, Shard, TaskKind};

/// One in-flight parity operation: the fan-out bookkeeping for a single
/// routed fragment.
#[derive(Debug)]
pub(crate) struct ParityOp {
    /// Owning shard-local job (for the completion note).
    job: u64,
    /// The original fragment, kept for replanning after a member failure.
    frag: Fragment,
    write: bool,
    stripe: bool,
    /// Legs still outstanding in the current phase.
    remaining: u32,
    /// Write legs issued when the read phase drains (RMW phase 2).
    writes: Vec<(usize, Target)>,
}

impl Shard {
    /// Plans one routed fragment of a parity organization: a single job
    /// part that completes (or fails) when the whole operation does.
    pub(super) fn submit_parity_frag(
        &mut self,
        lay: &Layout,
        now: SimTime,
        logical: u64,
        frag: Fragment,
        write: bool,
        stripe: bool,
    ) {
        let job = self.next_job;
        self.next_job += 1;
        self.jobs.insert(job, logical, 1);
        self.plan_parity(lay, now, job, frag, write, stripe);
    }

    fn plan_parity(
        &mut self,
        lay: &Layout,
        now: SimTime,
        job: u64,
        frag: Fragment,
        write: bool,
        stripe: bool,
    ) {
        if !write {
            self.plan_parity_read(lay, now, job, frag);
        } else if stripe {
            self.plan_parity_stripe_write(lay, now, job, frag);
        } else {
            self.plan_parity_small_write(lay, now, job, frag);
        }
    }

    fn plan_parity_read(&mut self, lay: &Layout, now: SimTime, job: u64, frag: Fragment) {
        let Some(loc) = lay.parity_locate(frag) else {
            self.finish_part(now, job, true);
            return;
        };
        if !self.is_dead(loc.data_disk) {
            let op = self.new_parity_op(job, frag, false, false, 1, Vec::new());
            self.issue_parity_leg(op, frag, false, loc.data_disk, loc.target, now);
            return;
        }
        // Degraded read: the lost block is the XOR of all `G−1` survivor
        // blocks in its row, so every other member must be read.
        let survivors: Vec<usize> = lay
            .parity_members(loc.group)
            .filter(|&d| d != loc.data_disk && !self.is_dead(d))
            .collect();
        if survivors.len() != self.width - 1 {
            // A second dead member makes the XOR short: unrecoverable.
            self.finish_part(now, job, true);
            return;
        }
        self.report.faults.degraded_reads += 1;
        let op = self.new_parity_op(job, frag, false, false, survivors.len() as u32, Vec::new());
        for d in survivors {
            self.issue_parity_leg(op, frag, false, d, loc.target, now);
        }
    }

    fn plan_parity_small_write(&mut self, lay: &Layout, now: SimTime, job: u64, frag: Fragment) {
        let Some(loc) = lay.parity_locate(frag) else {
            self.finish_part(now, job, true);
            return;
        };
        let data_dead = self.is_dead(loc.data_disk);
        let parity_dead = self.is_dead(loc.parity_disk);
        if data_dead && parity_dead {
            self.finish_part(now, job, true);
        } else if !data_dead && !parity_dead {
            // Healthy read–modify–write: read old data + old parity, then
            // write new data + new parity.
            self.report.faults.rmw_updates += 1;
            let writes = vec![(loc.data_disk, loc.target), (loc.parity_disk, loc.target)];
            let op = self.new_parity_op(job, frag, true, false, 2, writes);
            self.issue_parity_leg(op, frag, false, loc.data_disk, loc.target, now);
            self.issue_parity_leg(op, frag, false, loc.parity_disk, loc.target, now);
        } else if parity_dead {
            // The row's parity is lost but the data disk lives: a plain
            // data write (parity is restored wholesale by the rebuild).
            let op = self.new_parity_op(job, frag, true, false, 1, Vec::new());
            self.issue_parity_leg(op, frag, true, loc.data_disk, loc.target, now);
        } else {
            // Data disk dead: fold the new block into parity instead —
            // read the `G−2` surviving data peers, then write parity as
            // the XOR of peers + new data.
            let peers: Vec<usize> = lay
                .parity_members(loc.group)
                .filter(|&d| d != loc.data_disk && d != loc.parity_disk && !self.is_dead(d))
                .collect();
            if peers.len() != self.width - 2 {
                self.finish_part(now, job, true);
                return;
            }
            let writes = vec![(loc.parity_disk, loc.target)];
            let op = self.new_parity_op(job, frag, true, false, peers.len() as u32, writes);
            for d in peers {
                self.issue_parity_leg(op, frag, false, d, loc.target, now);
            }
        }
    }

    fn plan_parity_stripe_write(&mut self, lay: &Layout, now: SimTime, job: u64, frag: Fragment) {
        let Some((group, _row, target)) = lay.parity_stripe(frag) else {
            self.finish_part(now, job, true);
            return;
        };
        // Parity comes straight from the new data: every live member —
        // data and parity alike — writes its unit of the row, no
        // old-value reads.
        let live: Vec<usize> = lay
            .parity_members(group)
            .filter(|&d| !self.is_dead(d))
            .collect();
        if live.is_empty() {
            self.finish_part(now, job, true);
            return;
        }
        let op = self.new_parity_op(job, frag, true, true, live.len() as u32, Vec::new());
        for d in live {
            self.issue_parity_leg(op, frag, true, d, target, now);
        }
    }

    fn new_parity_op(
        &mut self,
        job: u64,
        frag: Fragment,
        write: bool,
        stripe: bool,
        remaining: u32,
        writes: Vec<(usize, Target)>,
    ) -> u64 {
        let id = self.next_parity_op;
        self.next_parity_op += 1;
        self.parity_ops.insert(
            id,
            ParityOp {
                job,
                frag,
                write,
                stripe,
                remaining,
                writes,
            },
        );
        id
    }

    /// Queues one leg of a parity operation on `disk`, recording it for
    /// the caller's next `kick`.
    fn issue_parity_leg(
        &mut self,
        op: u64,
        frag: Fragment,
        write: bool,
        disk: usize,
        target: Target,
        now: SimTime,
    ) {
        let mut t = self.task_pool.pop().unwrap_or_else(PendingTask::shell);
        t.job = op;
        t.frag = frag;
        t.write = write;
        t.kind = if write {
            TaskKind::ParityWrite
        } else {
            TaskKind::ParityRead
        };
        t.targets.clear();
        t.targets.push(target);
        t.meta.clear();
        t.meta.push((0, (disk - self.base) as u8));
        t.enqueued = now;
        t.dup = None;
        t.attempt = 0;
        t.track = 0;
        self.enqueue(disk, t);
        self.touched.push(disk - self.base);
    }

    /// One leg of a parity operation completed on `disk`: count it down,
    /// and on the last leg either finish the job or flip an RMW into its
    /// write phase.
    pub(super) fn on_parity_done(&mut self, now: SimTime, disk: usize, task: PendingTask) {
        let l = disk - self.base;
        let op_id = task.job;
        self.recycle(task);
        enum Next {
            /// More legs outstanding, or an orphan of a replanned op.
            Wait,
            Finish(u64),
            Phase2,
        }
        let next = match self.parity_ops.get_mut(&op_id) {
            None => Next::Wait,
            Some(op) => {
                op.remaining -= 1;
                if op.remaining > 0 {
                    Next::Wait
                } else if op.writes.is_empty() {
                    Next::Finish(op.job)
                } else {
                    Next::Phase2
                }
            }
        };
        match next {
            Next::Wait => {}
            Next::Finish(job) => {
                self.parity_ops.remove(&op_id);
                self.finish_part(now, job, false);
            }
            Next::Phase2 => {
                // The read phase drained: issue the buffered write legs on
                // members still alive (a member lost since planning gets
                // its content back from the rebuild instead).
                let Some(mut op) = self.parity_ops.remove(&op_id) else {
                    return;
                };
                let writes = std::mem::take(&mut op.writes);
                let frag = op.frag;
                let mut issued = 0u32;
                for (d, t) in writes {
                    if self.is_dead(d) {
                        continue;
                    }
                    self.issue_parity_leg(op_id, frag, true, d, t, now);
                    issued += 1;
                }
                if issued == 0 {
                    self.finish_part(now, op.job, true);
                } else {
                    op.remaining = issued;
                    self.parity_ops.insert(op_id, op);
                }
            }
        }
        self.kick(now);
        self.try_dispatch(now, l);
    }

    /// A transient media error on a parity leg: retry in place — a parity
    /// organization holds no alternate copy of a block — and fail the
    /// whole operation when the attempt budget runs out. The caller's
    /// tail `try_dispatch` restarts the disk.
    pub(super) fn on_parity_media_error(
        &mut self,
        now: SimTime,
        disk: usize,
        mut task: PendingTask,
    ) {
        let budget = self
            .faults
            .as_ref()
            .map_or(0, |ctx| ctx.plan.retry.max_retries);
        if task.attempt >= budget {
            if let Some(ctx) = self.faults.as_mut() {
                ctx.report.unrecoverable += 1;
            }
            if let Some(op) = self.parity_ops.remove(&task.job) {
                self.finish_part(now, op.job, true);
            }
            self.recycle(task);
            return;
        }
        task.attempt += 1;
        task.enqueued = now;
        task.dup = None;
        if let Some(ctx) = self.faults.as_mut() {
            ctx.report.retries += 1;
        }
        self.enqueue(disk, task);
    }

    /// Replans a parity operation after a member failure dropped one of
    /// its legs: progress in the current phase is discarded and the
    /// fragment is planned afresh against the degraded group.
    pub(super) fn replan_parity_op(&mut self, lay: &Layout, now: SimTime, op: ParityOp) {
        self.plan_parity(lay, now, op.job, op.frag, op.write, op.stripe);
    }

    /// Queues the next parity-rebuild chunk: one chunk read on *every*
    /// survivor of the spare's group (their XOR is the lost content),
    /// riding the delayed queues so foreground work keeps winning.
    pub(super) fn parity_rebuild_issue_chunk(&mut self, lay: &Layout, now: SimTime) {
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
        let survivors: Vec<usize> = (self.base..self.base + self.width)
            .filter(|&d| d != spare && !self.is_dead(d))
            .collect();
        if survivors.len() != self.width - 1 {
            // Reconstruction needs every survivor; a second dead member
            // makes the XOR short, so abandon and leave the spare dead.
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
        let Some((target, span)) = lay.rebuild_extent(next, 0, 0, chunk) else {
            // Off the mapped data (never expected before `total`): stop.
            if let Some(ctx) = self.faults.as_mut() {
                if let Some(r) = ctx.rebuild.as_mut() {
                    r.next = r.total;
                }
            }
            return;
        };
        for &src in &survivors {
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
            t.meta.push((0, 0));
            t.enqueued = now;
            t.dup = None;
            t.attempt = 0;
            t.track = 0;
            let src_l = src - self.base;
            self.delayed[src_l].insert(&self.disks[src_l], t);
        }
        if let Some(ctx) = self.faults.as_mut() {
            if let Some(r) = ctx.rebuild.as_mut() {
                r.source = usize::MAX;
                r.pending = u64::from(span);
                r.writing = false;
                r.reads_left = survivors.len() as u32;
            }
        }
        for &src in &survivors {
            self.try_dispatch(now, src - self.base);
        }
    }

    /// One survivor finished its rebuild chunk read. When the last one
    /// reports, the XOR-reconstructed chunk is written onto the spare.
    pub(super) fn on_parity_rebuild_read_done(
        &mut self,
        lay: &Layout,
        now: SimTime,
        source: usize,
        task: PendingTask,
    ) {
        self.recycle(task);
        let state = self
            .faults
            .as_mut()
            .and_then(|ctx| ctx.rebuild.as_mut())
            .filter(|r| r.copying && r.pending > 0 && !r.writing && r.reads_left > 0)
            .map(|r| {
                r.reads_left -= 1;
                (r.disk, r.next, r.reads_left)
            });
        let Some((spare, next, left)) = state else {
            // The rebuild moved on (e.g. was abandoned); drop the stale
            // read and let the source disk continue.
            self.try_dispatch(now, source - self.base);
            return;
        };
        if left == 0 {
            let chunk = self
                .faults
                .as_ref()
                .map_or(0, |ctx| ctx.plan.rebuild.chunk_sectors);
            if let Some((target, _)) = lay.rebuild_extent(next, 0, 0, chunk) {
                let spare_l = spare - self.base;
                let b = self.disks[spare_l].begin(now, &target, true);
                if let Some(ctx) = self.faults.as_mut() {
                    if let Some(r) = ctx.rebuild.as_mut() {
                        r.writing = true;
                    }
                }
                self.report.phys_requests += 1;
                self.events
                    .push(now + b.total(), ColEvent::SpareDone(spare));
            }
        }
        self.try_dispatch(now, source - self.base);
    }
}
