//! Property tests for the simulation kernel, driven by the deterministic
//! in-repo harness (`mimd_sim::check`).

use mimd_sim::check::{check_cases, f64_in};
use mimd_sim::{demerit, EventQueue, OnlineStats, SampleSet, SimDuration, SimTime};

#[test]
fn event_queue_pops_sorted_and_stable() {
    check_cases("event queue pops sorted and stable", 256, |_, rng| {
        let n = rng.range(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.below(1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        assert_eq!(popped.len(), times.len());
        // Sorted by time, FIFO within equal timestamps.
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1);
            }
        }
    });
}

#[test]
fn event_queue_pop_times_are_monotone_under_interleaving() {
    // The runtime invariant layer checks the same property inside
    // `EventQueue::pop`; this test drives it from outside with interleaved
    // pushes at or after the current pop frontier, the way the engine
    // schedules work.
    check_cases("event queue pop-order monotonicity", 256, |_, rng| {
        let mut q = EventQueue::new();
        let mut last = SimTime::ZERO;
        for _ in 0..rng.range(1, 64) {
            q.push(SimTime::from_micros(rng.below(10_000)), 0u32);
        }
        let mut steps = 0u32;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "pop went backwards: {t} after {last}");
            last = t;
            steps += 1;
            if steps > 10_000 {
                break;
            }
            // Schedule follow-on events no earlier than "now", like the
            // engine's completion → dispatch chains.
            if rng.chance(0.5) {
                let delay = rng.below(5_000);
                q.push(last + SimDuration::from_micros(delay), 1u32);
            }
        }
    });
}

#[test]
fn event_queue_fifo_survives_bucket_wrap_and_far_migration() {
    // Equal-time FIFO must hold whatever the queue's internals. The times
    // were chosen to stress a former timing wheel (2^16 ns buckets, 256 of
    // them, an overflow list beyond): bucket-edge multiples (±1 ns) and
    // strides that cross its horizon. For the heap they are a mix of near,
    // far and same-instant pushes.
    const BUCKET_NS: u64 = 1 << 16;
    const HORIZON_NS: u64 = 256 * BUCKET_NS;
    check_cases("fifo across wrap and migration", 128, |_, rng| {
        let mut q = EventQueue::new();
        let mut now = 0u64;
        let mut id = 0u64;
        let mut popped: Vec<(SimTime, u64)> = Vec::new();
        for _ in 0..200 {
            for _ in 0..rng.below(4) {
                let stride = match rng.below(4) {
                    0 => rng.below(4) * BUCKET_NS,              // on-edge, near
                    1 => rng.below(4) * BUCKET_NS + 1,          // just past edge
                    2 => HORIZON_NS + rng.below(3) * BUCKET_NS, // beyond horizon
                    _ => rng.below(2 * HORIZON_NS),             // anywhere
                };
                let at = SimTime::from_nanos(now + stride);
                // A burst of same-instant pushes is what FIFO must order.
                for _ in 0..1 + rng.below(3) {
                    q.push(at, id);
                    id += 1;
                }
            }
            if rng.chance(0.6) {
                if let Some((t, i)) = q.pop() {
                    now = t.as_nanos();
                    popped.push((t, i));
                }
            }
        }
        while let Some(p) = q.pop() {
            popped.push(p);
        }
        assert_eq!(popped.len(), id as usize);
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated at {w:?}");
            }
        }
    });
}

#[test]
fn online_stats_match_naive() {
    check_cases("online stats match naive", 256, |_, rng| {
        let n = rng.range(1, 300) as usize;
        let data: Vec<f64> = (0..n).map(|_| f64_in(rng, -1e6, 1e6)).collect();
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((s.population_variance() - var).abs() < 1e-4 * (1.0 + var));
        assert_eq!(s.count(), data.len() as u64);
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(s.min(), min);
        assert_eq!(s.max(), max);
    });
}

#[test]
fn merge_equals_sequential() {
    check_cases("merge equals sequential", 256, |_, rng| {
        let a: Vec<f64> = (0..rng.range(1, 100))
            .map(|_| f64_in(rng, -1e3, 1e3))
            .collect();
        let b: Vec<f64> = (0..rng.range(1, 100))
            .map(|_| f64_in(rng, -1e3, 1e3))
            .collect();
        let mut whole = OnlineStats::new();
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &a {
            whole.push(x);
            left.push(x);
        }
        for &x in &b {
            whole.push(x);
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.population_variance() - whole.population_variance()).abs() < 1e-6);
    });
}

#[test]
fn percentiles_agree_with_sorted_rank() {
    check_cases("percentiles agree with sorted rank", 256, |_, rng| {
        let n = rng.range(1, 200) as usize;
        let data: Vec<f64> = (0..n).map(|_| f64_in(rng, 0.0, 1e4)).collect();
        let p = rng.unit();
        let mut s = SampleSet::new();
        for &x in &data {
            s.push(x);
        }
        let got = s.percentile(p).expect("non-empty");
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p * sorted.len() as f64).ceil() as usize).max(1) - 1;
        assert_eq!(got, sorted[rank.min(sorted.len() - 1)]);
        // Monotone in p.
        let lo = s.percentile(p * 0.5).expect("non-empty");
        assert!(lo <= got);
    });
}

#[test]
fn demerit_is_symmetric_and_detects_shift() {
    check_cases("demerit is symmetric and detects shift", 256, |_, rng| {
        let n = rng.range(10, 200) as usize;
        let data: Vec<f64> = (0..n).map(|_| f64_in(rng, 0.0, 1e4)).collect();
        let shift = f64_in(rng, 0.0, 100.0);
        let mut a = SampleSet::new();
        let mut b = SampleSet::new();
        for &x in &data {
            a.push(x);
            b.push(x + shift);
        }
        let mut a2 = a.clone();
        let mut b2 = b.clone();
        let d1 = demerit(&mut a, &mut b);
        let d2 = demerit(&mut b2, &mut a2);
        assert!((d1 - d2).abs() < 1e-9);
        assert!(
            (d1 - shift).abs() < 1e-6 + shift * 1e-9,
            "d1 {d1} shift {shift}"
        );
    });
}

#[test]
fn time_arithmetic_is_consistent() {
    check_cases("time arithmetic is consistent", 512, |_, rng| {
        let a = rng.below(1 << 40);
        let b = rng.below(1 << 40);
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
        assert_eq!((t + d).saturating_since(t), d);
    });
}

#[test]
fn duration_scaling_round_trips() {
    check_cases("duration scaling round trips", 512, |_, rng| {
        let ms = rng.range(1, 1_000_000);
        let rate = f64_in(rng, 1.0, 128.0);
        let d = SimDuration::from_millis(ms);
        let scaled = d.mul_f64(1.0 / rate);
        let back = scaled.mul_f64(rate);
        // Round trip within rounding error of the two conversions.
        let err = back.as_nanos().abs_diff(d.as_nanos());
        assert!(err <= rate.ceil() as u64 + 1, "err {err}");
    });
}
