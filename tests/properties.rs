//! Property-based cross-crate invariants, driven by the deterministic
//! in-repo harness (`mimd_sim::check`).

use mimdraid::core::{ArraySim, EngineConfig, Fragment, Layout, Shape};
use mimdraid::disk::{DiskParams, Geometry};
use mimdraid::sim::check::{check_cases, f64_in};
use mimdraid::sim::{SimRng, SimTime};
use mimdraid::workload::{Op, Request, Trace};

fn geometry() -> Geometry {
    Geometry::new(&DiskParams::st39133lwv())
}

/// The fragments `plan_request` routes for `[lbn, lbn+sectors)`.
fn fragments(layout: &Layout, lbn: u64, sectors: u32) -> Vec<Fragment> {
    let mut planned = Vec::new();
    layout.plan_request(false, lbn, sectors, &mut planned);
    planned.into_iter().map(|(f, _)| f).collect()
}

/// Generator over feasible shapes for an 8 GB data set.
fn arb_shape(rng: &mut SimRng) -> Shape {
    match rng.below(4) {
        0 => Shape::striping(rng.range(1, 17) as u32),
        1 => Shape::mirror(rng.range(2, 7) as u32),
        2 => {
            let ds = (rng.range(1, 7) as u32).max(2);
            let dr = rng.range(2, 5) as u32;
            Shape::sr_array(ds, dr).expect("feasible SR shape")
        }
        _ => {
            let ds = rng.range(1, 5) as u32 + 1;
            let dr = rng.range(1, 4) as u32;
            let dm = rng.range(2, 4) as u32;
            Shape::new(ds, dr, dm).expect("feasible shape")
        }
    }
}

#[test]
fn fragments_partition_every_request() {
    check_cases("fragments partition every request", 128, |_, rng| {
        let lbn = rng.below(16_000_000);
        let sectors = rng.range(1, 512) as u32;
        let layout =
            Layout::new(Shape::striping(4), &geometry(), 16_400_000, 128, false).expect("fits");
        let frags = fragments(&layout, lbn, sectors);
        // Contiguous, exhaustive, non-overlapping.
        assert_eq!(frags[0].lbn, lbn);
        assert_eq!(
            frags.iter().map(|f| f.sectors as u64).sum::<u64>(),
            sectors as u64
        );
        for w in frags.windows(2) {
            assert_eq!(w[0].lbn + w[0].sectors as u64, w[1].lbn);
            // Interior fragments end on unit boundaries.
            assert_eq!((w[0].lbn + w[0].sectors as u64) % 128, 0);
        }
    });
}

#[test]
fn replica_targets_are_physically_valid() {
    check_cases("replica targets are physically valid", 64, |_, rng| {
        let shape = arb_shape(rng);
        let lbn = rng.below(8_000_000);
        let sectors = rng.range(1, 128) as u32;
        let g = geometry();
        let Ok(layout) = Layout::new(shape, &g, 8_000_000, 128, false) else {
            // Infeasible combinations are allowed to be rejected.
            return;
        };
        for frag in fragments(&layout, lbn, sectors) {
            let candidates = layout.read_candidates(frag);
            assert_eq!(candidates.len() as u32, shape.dr * shape.dm);
            for r in &candidates {
                assert!(r.disk < layout.disks());
                assert!(r.target.cylinder < g.total_cylinders());
                assert!(r.target.surface < g.surfaces());
                assert!((0.0..1.0).contains(&r.target.angle));
                assert_eq!(r.target.sectors, frag.sectors);
            }
            // All rotational replicas of one mirror share a cylinder.
            for m in 0..shape.dm {
                let on_mirror: Vec<_> = candidates.iter().filter(|r| r.mirror == m as u8).collect();
                let colocated = on_mirror.windows(2).all(|w| {
                    w[0].target.cylinder == w[1].target.cylinder && w[0].disk == w[1].disk
                });
                assert!(colocated, "replicas of one mirror must share a cylinder");
            }
            // Write groups cover exactly the same copies.
            let mut writes = Vec::new();
            layout.write_groups_into(frag, &mut writes);
            assert_eq!(writes.len(), candidates.len());
        }
    });
}

#[test]
fn rotational_replicas_are_evenly_spaced() {
    check_cases("rotational replicas are evenly spaced", 64, |_, rng| {
        let ds = rng.range(1, 5) as u32;
        let dr = rng.range(2, 7) as u32;
        let lbn = rng.below(4_000_000);
        let g = geometry();
        let shape = Shape::sr_array(ds, dr).expect("feasible SR shape");
        let Ok(layout) = Layout::new(shape, &g, 4_000_000, 128, false) else {
            return;
        };
        let frag = Fragment { lbn, sectors: 8 };
        let mut angles: Vec<f64> = layout
            .read_candidates(frag)
            .iter()
            .map(|r| r.target.angle)
            .collect();
        angles.sort_by(f64::total_cmp);
        for w in angles.windows(2) {
            let gap = w[1] - w[0];
            assert!((gap - 1.0 / dr as f64).abs() < 1e-9, "gap {gap}");
        }
    });
}

#[test]
fn engine_completes_arbitrary_small_workloads() {
    check_cases(
        "engine completes arbitrary small workloads",
        24,
        |_, rng| {
            let shape = arb_shape(rng);
            let n = rng.range(50, 200) as usize;
            let mut reqs = Vec::with_capacity(n);
            for i in 0..n {
                let op = match rng.below(3) {
                    0 => Op::Read,
                    1 => Op::SyncWrite,
                    _ => Op::AsyncWrite,
                };
                let sectors = 1 + rng.below(64) as u32;
                reqs.push(Request {
                    id: 0,
                    arrival: SimTime::from_micros(i as u64 * rng.below(20_000)),
                    op,
                    lbn: rng.below(8_000_000 - 64),
                    sectors,
                });
            }
            let trace = Trace::new("prop", 8_000_000, reqs);
            let Ok(mut sim) = ArraySim::new(EngineConfig::new(shape), trace.data_sectors) else {
                return;
            };
            let r = sim.run_trace(&trace);
            assert_eq!(r.completed, n as u64);
            // Responses are positive and bounded by the run length plus a
            // generous service allowance.
            assert!(r.response_ms.min() >= 0.0);
            assert!(r.response_ms.count() <= n as u64);
        },
    );
}

#[test]
fn engine_is_deterministic() {
    check_cases("engine is deterministic", 12, |_, rng| {
        let shape = arb_shape(rng);
        let seed = rng.below(50);
        let trace = mimdraid::workload::SyntheticSpec::cello_base().generate(seed, 150);
        let Ok(mut a) = ArraySim::new(EngineConfig::new(shape), trace.data_sectors) else {
            return;
        };
        let Ok(mut b) = ArraySim::new(EngineConfig::new(shape), trace.data_sectors) else {
            return;
        };
        let ra = a.run_trace(&trace);
        let rb = b.run_trace(&trace);
        assert_eq!(ra.completed, rb.completed);
        assert_eq!(ra.phys_requests, rb.phys_requests);
        assert_eq!(ra.sim_time, rb.sim_time);
        assert!((ra.mean_response_ms() - rb.mean_response_ms()).abs() < 1e-12);
    });
}

#[test]
fn rate_scaling_is_linear_in_time() {
    check_cases("rate scaling is linear in time", 20, |_, rng| {
        let scale = f64_in(rng, 1.0, 64.0);
        let seed = rng.below(20);
        let trace = mimdraid::workload::SyntheticSpec::tpcc().generate(seed, 300);
        let scaled = trace.scaled(scale);
        assert_eq!(trace.len(), scaled.len());
        let d0 = trace.duration().as_secs_f64();
        let d1 = scaled.duration().as_secs_f64();
        assert!(
            (d0 / d1 / scale - 1.0).abs() < 0.01,
            "{d0} vs {d1} at {scale}"
        );
    });
}
