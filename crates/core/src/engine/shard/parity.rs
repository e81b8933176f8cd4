//! Parity-organization dispatch (RAID 4/5): the shard-side state machine
//! for reads, small-write RMWs, full-stripe writes and degraded
//! reconstruction reads on XOR-parity groups.
//!
//! A parity operation fans a routed fragment out into *legs* — one
//! [`TaskKind::ParityRead`] / [`TaskKind::ParityWrite`] per member disk —
//! counted by the fragment's [`Job`], the same record a mirrored
//! fragment's tasks count down (each leg carries its key in `job`). A
//! read–modify–write runs in two phases: the old-value reads drain, then
//! the write legs the job's `rmw` flags select issue. A member failure
//! mid-operation replans the whole fragment against the degraded group
//! under a fresh job; orphaned sibling legs hold the stale key and no-op
//! on completion.
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

use super::{Job, PendingTask, Shard, Submission, TaskKind};

impl Shard {
    /// Plans one routed fragment of a parity organization, submitted at
    /// `sub.at`, under a fresh [`Job`] that completes (or fails) when the
    /// whole operation does, or fails it at once when the group has lost
    /// too much to serve it.
    pub(super) fn plan_parity(&mut self, lay: &Layout, sub: Submission) {
        if !sub.write {
            self.plan_parity_read(lay, sub);
        } else if sub.stripe {
            self.plan_parity_stripe_write(lay, sub);
        } else {
            self.plan_parity_small_write(lay, sub);
        }
    }

    fn plan_parity_read(&mut self, lay: &Layout, sub: Submission) {
        let Submission { at: now, frag, .. } = sub;
        let Some(loc) = lay.parity_locate(frag) else {
            self.fail_frag(sub);
            return;
        };
        if !self.is_dead(loc.data_disk) {
            let job = self.jobs.insert(Job::new(sub, 1));
            self.issue_parity_leg(job, frag, false, loc.data_disk, loc.target, now);
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
            self.fail_frag(sub);
            return;
        }
        self.report.faults.degraded_reads += 1;
        let job = self.jobs.insert(Job::new(sub, survivors.len() as u32));
        for d in survivors {
            self.issue_parity_leg(job, frag, false, d, loc.target, now);
        }
    }

    fn plan_parity_small_write(&mut self, lay: &Layout, sub: Submission) {
        let Submission { at: now, frag, .. } = sub;
        let Some(loc) = lay.parity_locate(frag) else {
            self.fail_frag(sub);
            return;
        };
        let data_dead = self.is_dead(loc.data_disk);
        let parity_dead = self.is_dead(loc.parity_disk);
        if data_dead && parity_dead {
            self.fail_frag(sub);
        } else if !data_dead && !parity_dead {
            // Healthy read–modify–write: read old data + old parity, then
            // write new data + new parity.
            self.report.faults.rmw_updates += 1;
            let job = self.jobs.insert(Job {
                rmw: (true, true),
                ..Job::new(sub, 2)
            });
            self.issue_parity_leg(job, frag, false, loc.data_disk, loc.target, now);
            self.issue_parity_leg(job, frag, false, loc.parity_disk, loc.target, now);
        } else if parity_dead {
            // The row's parity is lost but the data disk lives: a plain
            // data write (parity is restored wholesale by the rebuild).
            let job = self.jobs.insert(Job::new(sub, 1));
            self.issue_parity_leg(job, frag, true, loc.data_disk, loc.target, now);
        } else {
            // Data disk dead: fold the new block into parity instead —
            // read the `G−2` surviving data peers, then write parity as
            // the XOR of peers + new data.
            let peers: Vec<usize> = lay
                .parity_members(loc.group)
                .filter(|&d| d != loc.data_disk && d != loc.parity_disk && !self.is_dead(d))
                .collect();
            if peers.len() != self.width - 2 {
                self.fail_frag(sub);
                return;
            }
            let job = self.jobs.insert(Job {
                rmw: (false, true),
                ..Job::new(sub, peers.len() as u32)
            });
            for d in peers {
                self.issue_parity_leg(job, frag, false, d, loc.target, now);
            }
        }
    }

    fn plan_parity_stripe_write(&mut self, lay: &Layout, sub: Submission) {
        let Submission { at: now, frag, .. } = sub;
        let Some((group, _row, target)) = lay.parity_stripe(frag) else {
            self.fail_frag(sub);
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
            self.fail_frag(sub);
            return;
        }
        let job = self.jobs.insert(Job::new(sub, live.len() as u32));
        for d in live {
            self.issue_parity_leg(job, frag, true, d, target, now);
        }
    }

    /// Queues one leg of `job`'s parity operation on `disk`, recording it
    /// for the caller's next `kick`.
    fn issue_parity_leg(
        &mut self,
        job: Key,
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
        let t = PendingTask::new(Some(job), frag, kind, &[leg], now);
        self.enqueue(disk, t);
        self.touched.push(disk - self.base);
    }

    /// The read phase of `job`'s read–modify–write drained: write the
    /// row's data disk and parity disk, as `(data, parity)` selects, at
    /// the row's target, skipping members lost since planning (the
    /// rebuild gives them their content back), or fail the job when no
    /// member is left to write.
    pub(super) fn issue_parity_writes(
        &mut self,
        lay: &Layout,
        now: SimTime,
        job: Key,
        frag: Fragment,
        (data, parity): (bool, bool),
    ) {
        let mut issued = 0u32;
        if let Some(loc) = lay.parity_locate(frag) {
            for (planned, d) in [(data, loc.data_disk), (parity, loc.parity_disk)] {
                if planned && !self.is_dead(d) {
                    self.issue_parity_leg(job, frag, true, d, loc.target, now);
                    issued += 1;
                }
            }
        }
        if issued == 0 {
            self.close_job(now, job, true);
        } else if let Some(j) = self.jobs.get_mut(job) {
            j.parts = issued;
        }
    }
}
