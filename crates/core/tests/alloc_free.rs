//! The scheduler pick path allocates nothing in steady state: after one
//! warm-up pick, SATF, RSATF and RLOOK decisions over a 256-entry queue
//! make no heap allocation at all.
//!
//! A counting global allocator sees every allocation in the process, so
//! this file holds exactly one test: no other test thread can allocate
//! inside the counted window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use mimd_core::sched::{pick, LookState, Policy, Schedulable};
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
    for policy in [Policy::Satf, Policy::Rsatf, Policy::Rlook] {
        let mut look = LookState::default();
        let mut run = || {
            pick(
                policy,
                &disk,
                black_box(SimTime::from_millis(5)),
                &queue,
                &mut look,
                SimDuration::ZERO,
            )
        };
        // Warmup: any lazily grown state may allocate here.
        assert!(black_box(run()).is_some());
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..100 {
            black_box(run());
        }
        let grew = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            grew, 0,
            "{policy} pick over 256 entries: {grew} allocations in steady state"
        );
    }
}
