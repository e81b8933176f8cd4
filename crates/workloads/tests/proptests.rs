//! Property tests for traces and generators, driven by the deterministic
//! in-repo harness (`mimd_sim::check`).

use mimd_sim::check::check_cases;
use mimd_sim::{SimRng, SimTime};
use mimd_workload::io::{read_trace, write_trace};
use mimd_workload::{Op, Request, SyntheticSpec, Trace, TraceStats};

fn arb_op(rng: &mut SimRng) -> Op {
    match rng.below(3) {
        0 => Op::Read,
        1 => Op::SyncWrite,
        _ => Op::AsyncWrite,
    }
}

fn arb_request(rng: &mut SimRng, data: u64) -> Request {
    Request {
        id: 0,
        arrival: SimTime::from_micros(rng.below(1 << 40)),
        op: arb_op(rng),
        lbn: rng.below(data - 256),
        sectors: rng.range(1, 256) as u32,
    }
}

fn arb_requests(rng: &mut SimRng, data: u64, lo: u64, hi: u64) -> Vec<Request> {
    let n = lo + rng.below(hi - lo);
    (0..n).map(|_| arb_request(rng, data)).collect()
}

#[test]
fn trace_io_round_trips() {
    check_cases("trace io round trips", 256, |_, rng| {
        let reqs = arb_requests(rng, 1_000_000, 0, 100);
        let t = Trace::new("prop", 1_000_000, reqs);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).expect("write");
        let back = read_trace(buf.as_slice()).expect("read");
        assert_eq!(back.len(), t.len());
        assert_eq!(back.data_sectors, t.data_sectors);
        for (a, b) in t.requests().iter().zip(back.requests()) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.lbn, b.lbn);
            assert_eq!(a.sectors, b.sectors);
            assert_eq!(a.arrival, b.arrival); // Microsecond inputs are exact.
        }
    });
}

#[test]
fn traces_are_sorted_and_renumbered() {
    check_cases("traces are sorted and renumbered", 256, |_, rng| {
        let reqs = arb_requests(rng, 1_000_000, 1, 100);
        let t = Trace::new("prop", 1_000_000, reqs);
        for (i, w) in t.requests().windows(2).enumerate() {
            assert!(w[0].arrival <= w[1].arrival);
            assert_eq!(w[0].id, i as u64);
        }
    });
}

#[test]
fn generator_respects_bounds_for_any_seed() {
    check_cases("generator respects bounds for any seed", 64, |_, rng| {
        let seed = rng.below(500);
        let t = SyntheticSpec::cello_base().generate(seed, 300);
        assert_eq!(t.len(), 300);
        assert!(t.max_block() <= t.data_sectors);
        for w in t.requests().windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    });
}

#[test]
fn stats_fractions_are_probabilities() {
    check_cases("stats fractions are probabilities", 48, |_, rng| {
        let seed = rng.below(100);
        let t = SyntheticSpec::tpcc().generate(seed, 400);
        let s = TraceStats::of(&t);
        assert!((0.0..=1.0).contains(&s.read_frac));
        assert!((0.0..=1.0).contains(&s.async_write_frac));
        assert!((0.0..=1.0).contains(&s.read_after_write_1h));
        assert!(s.read_frac + s.async_write_frac <= 1.0 + 1e-12);
        assert!(s.seek_locality >= 1.0);
        // p_ratio is monotone decreasing in the foreground share.
        assert!(s.p_ratio(0.0) >= s.p_ratio(0.5));
        assert!(s.p_ratio(0.5) >= s.p_ratio(1.0));
    });
}
