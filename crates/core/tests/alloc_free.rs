//! The scheduler pick path allocates nothing in steady state: after one
//! warm-up pick, no decision over a 256-entry queue makes a heap
//! allocation, whether it runs the scan directly or through the engine's
//! entry point, `DriveQueue::pick`, under any of the five policies. SATF
//! and RSATF picks share one gather scratch per thread, so the test also
//! alternates picks between a shallow and a deep queue on one thread.
//!
//! A counting global allocator sees every allocation in the process, so
//! this file holds exactly one test: no other test thread can allocate
//! inside the counted window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use mimd_core::sched::{pick, LookState, Policy, Schedulable};
use mimd_core::DriveQueue;
use mimd_disk::{DiskParams, PositionKnowledge, SimDisk, Target, TimingPath};
use mimd_sim::{SimDuration, SimRng, SimTime};

/// The system allocator, plus a count of every allocation and reallocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Entry {
    targets: Vec<Target>,
    at: SimTime,
}

impl Schedulable for Entry {
    fn candidates(&self) -> &[Target] {
        &self.targets
    }
    fn is_write(&self) -> bool {
        false
    }
    fn enqueued(&self) -> SimTime {
        self.at
    }
}

/// `n` reads, each with `dr` rotational replicas at random positions.
fn make_queue(n: usize, dr: u32, rng: &mut SimRng) -> Vec<Entry> {
    (0..n)
        .map(|i| Entry {
            targets: (0..dr)
                .map(|k| Target {
                    cylinder: rng.below(3_000) as u32,
                    surface: k,
                    angle: rng.unit(),
                    sectors: 8,
                })
                .collect(),
            at: SimTime::from_micros(i as u64),
        })
        .collect()
}

/// Allocations made by 100 calls of `run` after one warm-up call (which
/// may grow lazily sized state).
fn steady_state_allocations<T>(mut run: impl FnMut() -> Option<T>) -> u64 {
    assert!(black_box(run()).is_some());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..100 {
        black_box(run());
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn scheduler_pick_allocates_nothing_after_warmup() {
    let disk = SimDisk::new(
        &DiskParams::st39133lwv(),
        TimingPath::Detailed,
        PositionKnowledge::Perfect,
        2,
    )
    .expect("valid params");
    let mut rng = SimRng::seed_from(7);
    let queue = make_queue(256, 3, &mut rng);
    let now = SimTime::from_millis(5);
    for policy in [Policy::Satf, Policy::Rsatf, Policy::Rlook] {
        let mut look = LookState::default();
        let grew = steady_state_allocations(|| {
            pick(
                policy,
                &disk,
                black_box(now),
                &queue,
                &mut look,
                SimDuration::ZERO,
            )
        });
        assert_eq!(
            grew, 0,
            "{policy} pick over 256 entries: {grew} allocations in steady state"
        );
    }

    // The engine's entry point: a drive queue holding the same entries.
    let policies = [
        Policy::Fcfs,
        Policy::Look,
        Policy::Satf,
        Policy::Rlook,
        Policy::Rsatf,
    ];
    for policy in policies {
        let mut dq = DriveQueue::new(policy);
        for e in make_queue(256, 3, &mut rng) {
            dq.insert(&disk, e);
        }
        let mut look = LookState::default();
        let grew = steady_state_allocations(|| {
            dq.pick(&disk, black_box(now), &mut look, SimDuration::ZERO, 128)
        });
        assert_eq!(
            grew, 0,
            "{policy} DriveQueue::pick over 256 entries: {grew} allocations in steady state"
        );
    }

    // RSATF on a read-ahead drive whose buffered track holds candidates.
    let mut ra = disk.clone();
    ra.set_read_ahead(true);
    let warm = Target {
        cylinder: 1_234,
        surface: 1,
        angle: 0.3,
        sectors: 8,
    };
    let _ = ra.begin(SimTime::ZERO, &warm, false);
    let mut dq = DriveQueue::new(Policy::Rsatf);
    for (i, mut e) in make_queue(256, 3, &mut rng).into_iter().enumerate() {
        if i % 8 == 0 {
            e.targets[1] = warm;
        }
        dq.insert(&ra, e);
    }
    let mut look = LookState::default();
    let at = ra.busy_until();
    let grew =
        steady_state_allocations(|| dq.pick(&ra, black_box(at), &mut look, SimDuration::ZERO, 128));
    assert_eq!(
        grew, 0,
        "read-ahead RSATF DriveQueue::pick: {grew} allocations in steady state"
    );

    // The thread's one pick scratch serves every queue: alternate SATF and
    // RSATF picks between a 4-deep and a 256-deep queue. Once the deep
    // queue has grown the scratch, the shallow one must not shrink it.
    let mut queues = Vec::new();
    for policy in [Policy::Satf, Policy::Rsatf] {
        for depth in [4, 256] {
            let mut dq = DriveQueue::new(policy);
            for e in make_queue(depth, 3, &mut rng) {
                dq.insert(&disk, e);
            }
            queues.push(dq);
        }
    }
    let mut look = LookState::default();
    let grew = steady_state_allocations(|| {
        let mut last = None;
        for i in [0, 3, 1, 2, 0, 1, 3, 2] {
            last = queues[i].pick(&disk, black_box(now), &mut look, SimDuration::ZERO, 128);
            last?;
        }
        last
    });
    assert_eq!(
        grew, 0,
        "SATF/RSATF picks alternating over 4- and 256-deep queues: {grew} allocations in steady state"
    );
}
