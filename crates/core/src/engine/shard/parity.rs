//! Parity-organization dispatch (RAID 4/5): the shard-side state machine
//! for reads, small-write RMWs, full-stripe writes and degraded
//! reconstruction reads on XOR-parity groups.
//!
//! A parity operation fans a routed fragment out into *legs* — one
//! [`TaskKind::ParityRead`] / [`TaskKind::ParityWrite`] per member disk —
//! tracked by a [`ParityOp`] in the shard's slab (each leg carries the
//! op's key in its `job` field). A read–modify–write runs in two phases: the
//! old-value reads drain, then the buffered write legs issue. A member
//! failure mid-operation replans the whole op against the degraded group;
//! orphaned sibling legs find their op gone and no-op on completion.
//!
//! The fault paths are the mirrored ones in the parent module: a leg is
//! built like any task, as a one-replica task with mirror index
//! `disk − base`; a media error retries it in place under the shared
//! retry rule; and a spare rebuild runs the mirror rebuild machine with
//! every survivor as a source (their XOR is the lost chunk).
//!
//! Everything here stays on the `G` disks of one group (one shard), uses
//! no RNG, and emits only pre-existing event kinds — which is what keeps
//! the determinism-witness contract untouched.

use mimd_disk::Target;
use mimd_sim::SimTime;

use crate::layout::{Fragment, Layout, Replica};
use crate::slab::Key;

use super::{PendingTask, Shard, TaskKind};

/// One in-flight parity operation: the fan-out bookkeeping for a single
/// routed fragment.
#[derive(Debug)]
pub(crate) struct ParityOp {
    /// Owning shard-local job (for the completion note).
    pub(super) job: Key,
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
        logical: Key,
        frag: Fragment,
        write: bool,
        stripe: bool,
    ) {
        let job = self.jobs.insert(super::Job {
            logical,
            parts: 1,
            failed: false,
        });
        self.plan_parity(lay, now, job, frag, write, stripe);
    }

    fn plan_parity(
        &mut self,
        lay: &Layout,
        now: SimTime,
        job: Key,
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

    fn plan_parity_read(&mut self, lay: &Layout, now: SimTime, job: Key, frag: Fragment) {
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

    fn plan_parity_small_write(&mut self, lay: &Layout, now: SimTime, job: Key, frag: Fragment) {
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

    fn plan_parity_stripe_write(&mut self, lay: &Layout, now: SimTime, job: Key, frag: Fragment) {
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
        job: Key,
        frag: Fragment,
        write: bool,
        stripe: bool,
        remaining: u32,
        writes: Vec<(usize, Target)>,
    ) -> Key {
        self.parity_ops.insert(ParityOp {
            job,
            frag,
            write,
            stripe,
            remaining,
            writes,
        })
    }

    /// Queues one leg of a parity operation on `disk`, recording it for
    /// the caller's next `kick`.
    fn issue_parity_leg(
        &mut self,
        op: Key,
        frag: Fragment,
        write: bool,
        disk: usize,
        target: Target,
        now: SimTime,
    ) {
        let leg = Replica {
            disk,
            target,
            replica: 0,
            mirror: (disk - self.base) as u8,
        };
        let kind = if write {
            TaskKind::ParityWrite
        } else {
            TaskKind::ParityRead
        };
        let t = PendingTask::new(Some(op), frag, write, kind, &[leg], now);
        self.enqueue(disk, t);
        self.touched.push(disk - self.base);
    }

    /// One leg of a parity operation completed on `disk`: count it down,
    /// then dispatch the disk's next task.
    pub(super) fn on_parity_done(&mut self, now: SimTime, disk: usize, op: Option<Key>) {
        if let Some(op) = op {
            self.parity_leg_done(now, op);
        }
        self.kick(now);
        self.try_dispatch(now, disk - self.base);
    }

    /// Counts one leg of `key`'s current phase done. The phase's last leg
    /// either finishes the job or flips an RMW into its write phase. A leg
    /// orphaned by a replan finds its op gone and does nothing.
    fn parity_leg_done(&mut self, now: SimTime, key: Key) {
        let Some(op) = self.parity_ops.get_mut(key) else {
            return;
        };
        op.remaining -= 1;
        if op.remaining > 0 {
            return;
        }
        let (job, frag, writes) = (op.job, op.frag, std::mem::take(&mut op.writes));
        if writes.is_empty() {
            self.parity_ops.remove(key);
            self.finish_part(now, job, false);
            return;
        }
        // The read phase drained: issue the buffered write legs on members
        // still alive (a member lost since planning gets its content back
        // from the rebuild instead).
        let mut issued = 0u32;
        for (d, t) in writes {
            if self.is_dead(d) {
                continue;
            }
            self.issue_parity_leg(key, frag, true, d, t, now);
            issued += 1;
        }
        if issued == 0 {
            self.parity_ops.remove(key);
            self.finish_part(now, job, true);
        } else if let Some(op) = self.parity_ops.get_mut(key) {
            op.remaining = issued;
        }
    }

    /// Replans a parity operation after a member failure dropped one of
    /// its legs: progress in the current phase is discarded and the
    /// fragment is planned afresh against the degraded group.
    pub(super) fn replan_parity_op(&mut self, lay: &Layout, now: SimTime, op: ParityOp) {
        self.plan_parity(lay, now, op.job, op.frag, op.write, op.stripe);
    }
}
