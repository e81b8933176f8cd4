//! Pinned end-to-end results for saturated mirrored arrays: Cello base at
//! 350 times its recorded rate, the fastest rate fig. 10 sweeps, on a
//! 6-way mirror and on a six-disk RAID-10.
//!
//! On the mirror every owner of a block is usually busy, so most reads are
//! duplicated onto all six drive queues and the losers are cancelled when
//! one copy starts; queues run deep (the mean response is near 190 ms).
//! RAID-10 duplicates onto two queues. The pins fix the duplicate path's
//! events and counters, so a change to how duplicates are queued,
//! started or cancelled cannot move fig. 10's saturated cells unseen.
//!
//! Each test asserts `(completed, failed_requests, witness, mean response
//! bits, FNV-1a of the report's Debug string)`, as `fault_pins.rs` does,
//! and records the Table-2 prediction samples, which the Debug string
//! covers.

use mimd_core::{ArraySim, EngineConfig, RunReport, Shape};
use mimd_workload::{SyntheticSpec, Trace};

type Pins = (u64, u64, u64, u64, u64);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pins(r: &RunReport) -> Pins {
    (
        r.completed,
        r.failed_requests,
        r.witness,
        r.mean_response_ms().to_bits(),
        fnv1a(format!("{r:?}").as_bytes()),
    )
}

/// Cello base at 350 times its rate, seed 1, 8 000 requests.
fn saturated() -> Trace {
    let mut spec = SyntheticSpec::cello_base();
    spec.rate_per_sec *= 350.0;
    spec.generate(1, 8_000)
}

fn replay(shape: Shape) -> Pins {
    let t = saturated();
    let cfg = EngineConfig::new(shape).with_prediction_samples();
    let mut sim = ArraySim::new(cfg, t.data_sectors).expect("fits");
    pins(&sim.run_trace(&t))
}

#[test]
fn six_way_mirror_at_350x() {
    assert_eq!(
        replay(Shape::mirror(6)),
        (
            8_000,
            0,
            3_022_412_151_949_712_829,
            4_640_823_598_211_165_820,
            8_918_811_140_167_078_076
        )
    );
}

#[test]
fn raid10_of_six_at_350x() {
    assert_eq!(
        replay(Shape::raid10(6).expect("valid")),
        (
            8_000,
            0,
            15_985_873_551_256_840_923,
            4_623_959_826_992_358_564,
            6_322_573_943_561_417_618
        )
    );
}
