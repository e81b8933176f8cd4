//! Properties of the determinism witness: identical runs produce an
//! identical digest, the digest reacts to anything that reorders events,
//! and a run that pops nothing stamps the empty digest.

use mimd_core::{ArraySim, EngineConfig, Shape};
use mimd_sim::witness::DetWitness;
use mimd_workload::{IometerSpec, SyntheticSpec};

fn run_witness(seed: u64, requests: usize) -> u64 {
    let trace = SyntheticSpec::cello_base().generate(seed, requests);
    let mut sim = ArraySim::new(
        EngineConfig::new(Shape::sr_array(2, 3).unwrap()),
        trace.data_sectors,
    )
    .unwrap();
    sim.run_trace(&trace).witness
}

#[test]
fn identical_runs_produce_identical_witnesses() {
    assert_eq!(run_witness(7, 400), run_witness(7, 400));
}

#[test]
fn witness_is_not_the_empty_digest() {
    // A run that processed events must have folded something.
    assert_ne!(run_witness(7, 400), DetWitness::new().value());
}

#[test]
fn different_traces_produce_different_witnesses() {
    assert_ne!(run_witness(7, 400), run_witness(8, 400));
    assert_ne!(run_witness(7, 400), run_witness(7, 401));
}

#[test]
fn an_empty_replay_stamps_the_empty_digest() {
    // An empty replay pops nothing: its witness is the empty digest.
    let empty = SyntheticSpec::cello_base().generate(7, 0);
    let mut sim = ArraySim::new(
        EngineConfig::new(Shape::sr_array(2, 3).unwrap()),
        empty.data_sectors,
    )
    .unwrap();
    assert_eq!(sim.run_trace(&empty).witness, DetWitness::new().value());
}

#[test]
fn closed_loop_runs_stamp_a_witness() {
    let spec = IometerSpec::random_read_512(1 << 20);
    let mk = || {
        let mut sim =
            ArraySim::new(EngineConfig::new(Shape::sr_array(2, 3).unwrap()), 1 << 20).unwrap();
        sim.run_closed_loop(&spec, 4, 200).witness
    };
    let a = mk();
    assert_ne!(a, DetWitness::new().value());
    assert_eq!(a, mk());
}
