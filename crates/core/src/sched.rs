//! Local disk scheduling policies (§2.4, §3.3).
//!
//! Each disk owns a *drive queue*; when it falls idle, the configured
//! policy picks the next request and — for replica-aware policies — which
//! rotational replica to use:
//!
//! - [`Policy::Fcfs`] — arrival order (baseline).
//! - [`Policy::Look`] — the elevator: bi-directional cylinder sweep.
//! - [`Policy::Satf`] — shortest access time first over the primary copy.
//! - [`Policy::Rlook`] — LOOK's sweep, but "chooses the replica that is
//!   rotationally closest among all the replicas during the scan".
//! - [`Policy::Rsatf`] — SATF over *all* rotational replicas.
//!
//! Positioning estimates come from [`SimDisk::estimate`], which is exactly
//! the head-position-prediction machinery of §3.2 (its residual error is
//! injected at service time, not here).

use mimd_disk::{SimDisk, Target};
use mimd_sim::{SimDuration, SimTime};

/// A disk-scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First come, first served.
    Fcfs,
    /// Elevator sweep without rotational knowledge.
    Look,
    /// Shortest access time first (primary replica only).
    Satf,
    /// Elevator sweep choosing the rotationally closest replica.
    Rlook,
    /// Shortest access time first over all replicas.
    Rsatf,
}

impl Policy {
    /// Whether the policy chooses among rotational replicas.
    pub fn replica_aware(self) -> bool {
        matches!(self, Policy::Rlook | Policy::Rsatf)
    }

    /// The paper's default pairing (§4.1): RSATF for SR-Arrays, SATF for
    /// everything else.
    pub fn default_for_dr(dr: u32) -> Policy {
        if dr > 1 {
            Policy::Rsatf
        } else {
            Policy::Satf
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Policy::Fcfs => "FCFS",
            Policy::Look => "LOOK",
            Policy::Satf => "SATF",
            Policy::Rlook => "RLOOK",
            Policy::Rsatf => "RSATF",
        };
        f.write_str(s)
    }
}

/// A schedulable entry in a drive queue, as the policies see it.
pub trait Schedulable {
    /// The replica targets available on this disk (never empty).
    fn candidates(&self) -> &[Target];
    /// Whether the first media operation is a write.
    fn is_write(&self) -> bool;
    /// Arrival time in the queue (FCFS order).
    fn enqueued(&self) -> SimTime;
}

/// Per-disk scheduler state: the LOOK/RLOOK elevator sweep direction.
/// The other policies ignore it.
#[derive(Debug, Clone, Default)]
pub struct LookState {
    /// Whether the sweep currently moves toward higher cylinders.
    pub upward: bool,
}

/// The scheduling decision: queue index and candidate (replica) index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// Position in the queue handed to [`pick`].
    pub queue_index: usize,
    /// Index into that entry's candidate list.
    pub candidate: usize,
}

/// Chooses the next entry (and replica) for an idle disk, or `None` if the
/// queue is empty.
///
/// `queue` is any cloneable iterator over the entries in arrival order (a
/// slice or `&Vec` works as is). The scan walks it in place, cloning it for
/// LOOK's second sweep, so a pick allocates nothing.
///
/// This scan is the only implementation of FCFS, LOOK and RLOOK;
/// [`crate::DriveQueue::pick`] runs it on the queue's window prefix. For
/// SATF/RSATF the drive queue's band index returns exactly this function's
/// pick on every drive, and this arm is the reference it is tested
/// against.
///
/// # Examples
///
/// ```
/// use mimd_core::sched::{pick, LookState, Policy, Schedulable};
/// use mimd_disk::{DiskParams, PositionKnowledge, SimDisk, Target, TimingPath};
/// use mimd_sim::SimTime;
///
/// struct Entry(Vec<Target>);
/// impl Schedulable for Entry {
///     fn candidates(&self) -> &[Target] { &self.0 }
///     fn is_write(&self) -> bool { false }
///     fn enqueued(&self) -> SimTime { SimTime::ZERO }
/// }
///
/// let disk = SimDisk::new(&DiskParams::st39133lwv(), TimingPath::Analytic,
///                         PositionKnowledge::Perfect, 0).unwrap();
/// let q = vec![Entry(vec![Target { cylinder: 9, surface: 0, angle: 0.1, sectors: 8 }])];
/// let mut look = LookState::default();
/// let p = pick(Policy::Satf, &disk, SimTime::ZERO, &q, &mut look,
///              mimd_sim::SimDuration::ZERO).unwrap();
/// assert_eq!((p.queue_index, p.candidate), (0, 0));
/// ```
pub fn pick<'a, S, Q>(
    policy: Policy,
    disk: &SimDisk,
    now: SimTime,
    queue: Q,
    look: &mut LookState,
    slack: SimDuration,
) -> Option<Pick>
where
    S: Schedulable + 'a,
    Q: IntoIterator<Item = &'a S>,
    Q::IntoIter: Clone,
{
    let queue = queue.into_iter();
    queue.clone().next()?; // an empty queue picks nothing
    match policy {
        Policy::Fcfs => {
            let (i, entry) = queue.enumerate().min_by_key(|(_, e)| e.enqueued())?;
            // FCFS still gets to use the nearest replica: replica choice is
            // free and does not reorder requests.
            let candidate = best_candidate(disk, now, entry, true, slack);
            Some(Pick {
                queue_index: i,
                candidate,
            })
        }
        Policy::Satf | Policy::Rsatf => {
            // First minimal `(cost, queue index, candidate)`: a strict `<`
            // keeps the earliest of equal costs. `DriveQueue` reproduces
            // this argmin with its band index; this loop is the reference
            // the index is tested against.
            let aware = policy.replica_aware();
            let mut best: Option<(u64, Pick)> = None;
            for (i, entry) in queue.enumerate() {
                let limit = if aware { entry.candidates().len() } else { 1 };
                let write = entry.is_write();
                for (c, target) in entry.candidates().iter().take(limit).enumerate() {
                    let cost = candidate_cost(disk, now, target, write, slack);
                    if best.is_none_or(|(b, _)| cost < b) {
                        let pick = Pick {
                            queue_index: i,
                            candidate: c,
                        };
                        best = Some((cost, pick));
                    }
                }
            }
            best.map(|(_, p)| p)
        }
        Policy::Look | Policy::Rlook => {
            let head = disk.arm_cylinder();
            // One flip allowed: if nothing lies in the sweep direction,
            // reverse (that is LOOK's end-of-stroke turn).
            for _ in 0..2 {
                let in_dir = queue.clone().enumerate().filter(|(_, e)| {
                    let cyl = e.candidates()[0].cylinder;
                    if look.upward {
                        cyl >= head
                    } else {
                        cyl <= head
                    }
                });
                let next = in_dir.min_by_key(|(i, e)| {
                    let cyl = e.candidates()[0].cylinder;
                    let dist = cyl.abs_diff(head);
                    // Nearest cylinder in the sweep; FIFO inside a cylinder.
                    (dist, e.enqueued(), *i)
                });
                if let Some((i, entry)) = next {
                    let candidate = best_candidate(disk, now, entry, policy.replica_aware(), slack);
                    return Some(Pick {
                        queue_index: i,
                        candidate,
                    });
                }
                look.upward = !look.upward;
            }
            None
        }
    }
}

/// The ranking cost of one candidate: predicted positioning time, plus a
/// full-revolution penalty when the predicted rotational wait falls inside
/// the slack window — within it the head-position prediction cannot be
/// trusted and "the scheduler conservatively chooses the next rotational
/// replica after the target" (§3.2).
fn candidate_cost(
    disk: &SimDisk,
    now: SimTime,
    target: &Target,
    write: bool,
    slack: SimDuration,
) -> u64 {
    let (positioning_ns, rotation_ns) = disk.sched_cost_ns(now, target, write);
    let mut cost = positioning_ns;
    if rotation_ns < slack.as_nanos() {
        cost += disk.rotation_ns();
    }
    cost
}

/// Picks the cheapest replica of one entry (or the primary when the policy
/// is not replica-aware). First-minimal tie-break; a replica whose seek
/// lower bound already reaches the incumbent's cost is skipped uncosted.
fn best_candidate<S: Schedulable>(
    disk: &SimDisk,
    now: SimTime,
    entry: &S,
    aware: bool,
    slack: SimDuration,
) -> usize {
    if !aware || entry.candidates().len() == 1 {
        return 0;
    }
    let write = entry.is_write();
    let arm = disk.arm_cylinder();
    let mut best: Option<(usize, u64)> = None;
    for (i, t) in entry.candidates().iter().enumerate() {
        if let Some((_, b)) = best {
            if disk.seek_bound_ns(arm.abs_diff(t.cylinder)) >= b {
                continue;
            }
        }
        let cost = candidate_cost(disk, now, t, write, slack);
        if best.map(|(_, b)| cost < b).unwrap_or(true) {
            best = Some((i, cost));
        }
    }
    best.map(|(i, _)| i).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_disk::{DiskParams, PositionKnowledge, TimingPath};

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
            TimingPath::Analytic,
            PositionKnowledge::Perfect,
            1,
        )
        .unwrap()
    }

    fn entry_at(cylinder: u32, angle: f64, at_us: u64) -> Entry {
        Entry {
            candidates: vec![Target {
                cylinder,
                surface: 0,
                angle,
                sectors: 8,
            }],
            write: false,
            at: SimTime::from_micros(at_us),
        }
    }

    fn entry_with_replicas(cylinder: u32, dr: u32) -> Entry {
        Entry {
            candidates: (0..dr)
                .map(|k| Target {
                    cylinder,
                    surface: k,
                    angle: k as f64 / dr as f64,
                    sectors: 8,
                })
                .collect(),
            write: false,
            at: SimTime::ZERO,
        }
    }

    #[test]
    fn empty_queue_picks_nothing() {
        let d = disk();
        let q: Vec<Entry> = vec![];
        let mut look = LookState::default();
        for p in [
            Policy::Fcfs,
            Policy::Look,
            Policy::Satf,
            Policy::Rlook,
            Policy::Rsatf,
        ] {
            assert!(pick(p, &d, SimTime::ZERO, &q, &mut look, SimDuration::ZERO).is_none());
        }
    }

    #[test]
    fn fcfs_takes_oldest() {
        let d = disk();
        let q = vec![entry_at(5000, 0.5, 100), entry_at(10, 0.1, 50)];
        let mut look = LookState::default();
        let p = pick(
            Policy::Fcfs,
            &d,
            SimTime::ZERO,
            &q,
            &mut look,
            SimDuration::ZERO,
        )
        .unwrap();
        assert_eq!(p.queue_index, 1);
    }

    #[test]
    fn satf_takes_cheapest_access() {
        let d = disk(); // Head at cylinder 0.
        let q = vec![entry_at(6000, 0.2, 0), entry_at(50, 0.2, 1)];
        let mut look = LookState::default();
        let p = pick(
            Policy::Satf,
            &d,
            SimTime::ZERO,
            &q,
            &mut look,
            SimDuration::ZERO,
        )
        .unwrap();
        assert_eq!(p.queue_index, 1);
    }

    #[test]
    fn satf_weighs_rotation_not_just_seek() {
        let mut d = disk();
        // Park the head at cylinder 1000.
        let _ = d.begin(
            SimTime::ZERO,
            &Target {
                cylinder: 1000,
                surface: 0,
                angle: 0.0,
                sectors: 1,
            },
            false,
        );
        let now = d.busy_until();
        // Same-cylinder target whose angle just passed (near-full rotation)
        // vs. a short seek whose angle lands shortly after the arm arrives:
        // SATF prefers the seek.
        let just_missed = mimd_disk::mod1(d.angle_at(now) - 0.02);
        let probe = Target {
            cylinder: 1030,
            surface: 0,
            angle: 0.0,
            sectors: 8,
        };
        let est = d.estimate(now, &probe, false);
        let arrive_angle = d.angle_at(now + est.overhead + est.seek);
        let q = vec![
            entry_at(1000, just_missed, 0),
            entry_at(1030, mimd_disk::mod1(arrive_angle + 0.1), 1),
        ];
        let mut look = LookState::default();
        let p = pick(Policy::Satf, &d, now, &q, &mut look, SimDuration::ZERO).unwrap();
        assert_eq!(p.queue_index, 1);
    }

    #[test]
    fn rsatf_picks_best_replica_but_satf_ignores_them() {
        let mut d = disk();
        let _ = d.begin(
            SimTime::ZERO,
            &Target {
                cylinder: 0,
                surface: 0,
                angle: 0.0,
                sectors: 1,
            },
            false,
        );
        let now = d.busy_until();
        let q = vec![entry_with_replicas(0, 3)];
        let mut look = LookState::default();
        let satf = pick(Policy::Satf, &d, now, &q, &mut look, SimDuration::ZERO).unwrap();
        assert_eq!(satf.candidate, 0);
        let rsatf = pick(Policy::Rsatf, &d, now, &q, &mut look, SimDuration::ZERO).unwrap();
        // The chosen replica is the rotationally nearest of the three.
        let costs: Vec<u64> = q[0]
            .candidates
            .iter()
            .map(|t| d.estimate(now, t, false).positioning().as_nanos())
            .collect();
        let best = costs.iter().enumerate().min_by_key(|(_, c)| **c).unwrap().0;
        assert_eq!(rsatf.candidate, best);
    }

    #[test]
    fn look_sweeps_upward_then_reverses() {
        let mut d = disk();
        let _ = d.begin(
            SimTime::ZERO,
            &Target {
                cylinder: 3000,
                surface: 0,
                angle: 0.0,
                sectors: 1,
            },
            false,
        );
        let now = d.busy_until();
        let q = vec![
            entry_at(2000, 0.0, 0),
            entry_at(3500, 0.0, 1),
            entry_at(5000, 0.0, 2),
        ];
        let mut look = LookState { upward: true };
        // Upward: nearest above 3000 is 3500.
        let p = pick(Policy::Look, &d, now, &q, &mut look, SimDuration::ZERO).unwrap();
        assert_eq!(p.queue_index, 1);
        assert!(look.upward);
        // With only a lower cylinder left, the sweep reverses.
        let q2 = vec![entry_at(2000, 0.0, 0)];
        let p2 = pick(Policy::Look, &d, now, &q2, &mut look, SimDuration::ZERO).unwrap();
        assert_eq!(p2.queue_index, 0);
        assert!(!look.upward);
    }

    #[test]
    fn rlook_chooses_rotationally_closest_replica_on_scan() {
        let d = disk();
        let q = vec![entry_with_replicas(0, 6)];
        let mut look = LookState { upward: true };
        let p = pick(
            Policy::Rlook,
            &d,
            SimTime::from_micros(777),
            &q,
            &mut look,
            SimDuration::ZERO,
        )
        .unwrap();
        let costs: Vec<u64> = q[0]
            .candidates
            .iter()
            .map(|t| {
                d.estimate(SimTime::from_micros(777), t, false)
                    .positioning()
                    .as_nanos()
            })
            .collect();
        let best = costs.iter().enumerate().min_by_key(|(_, c)| **c).unwrap().0;
        assert_eq!(p.candidate, best);
        // Plain LOOK would have taken the primary.
        let p_look = pick(
            Policy::Look,
            &d,
            SimTime::from_micros(777),
            &q,
            &mut look,
            SimDuration::ZERO,
        )
        .unwrap();
        assert_eq!(p_look.candidate, 0);
    }

    #[test]
    fn replica_on_the_buffered_track_wins_first_or_last() {
        let mut d = disk();
        d.set_read_ahead(true);
        let _ = d.begin(
            SimTime::ZERO,
            &Target {
                cylinder: 2000,
                surface: 1,
                angle: 0.0,
                sectors: 8,
            },
            false,
        );
        let now = d.busy_until();
        let buffered = Target {
            cylinder: 2000,
            surface: 1,
            angle: 0.5,
            sectors: 8,
        };
        let others = [
            Target {
                cylinder: 2000,
                surface: 2,
                angle: 0.3,
                sectors: 8,
            },
            Target {
                cylinder: 4000,
                surface: 0,
                angle: 0.7,
                sectors: 8,
            },
        ];
        for last in [false, true] {
            let mut candidates = others.to_vec();
            let hit = if last {
                candidates.push(buffered);
                candidates.len() - 1
            } else {
                candidates.insert(0, buffered);
                0
            };
            let q = vec![Entry {
                candidates,
                write: false,
                at: SimTime::ZERO,
            }];
            for policy in [Policy::Fcfs, Policy::Rlook] {
                let mut look = LookState::default();
                let p = pick(policy, &d, now, &q, &mut look, SimDuration::ZERO).unwrap();
                assert_eq!(p.candidate, hit, "{policy}, buffered replica last: {last}");
            }
        }
    }

    #[test]
    fn policy_metadata() {
        assert!(Policy::Rsatf.replica_aware());
        assert!(Policy::Rlook.replica_aware());
        assert!(!Policy::Satf.replica_aware());
        assert!(!Policy::Look.replica_aware());
        assert_eq!(Policy::default_for_dr(3), Policy::Rsatf);
        assert_eq!(Policy::default_for_dr(1), Policy::Satf);
        assert_eq!(Policy::Rlook.to_string(), "RLOOK");
    }
}
