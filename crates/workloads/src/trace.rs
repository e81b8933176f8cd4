//! Trace containers and transformations.
//!
//! The paper replays traces at uniformly scaled rates ("when the scaling
//! rate is two, the traced inter-arrival times are halved");
//! [`Trace::scaled`] does the same. Its merged, concatenated data sets
//! (§4.1 "Logical Data Sets") are generated whole by
//! [`SyntheticSpec`](crate::SyntheticSpec).

use mimd_sim::{SimDuration, SimTime};

use crate::request::{Op, Request};

/// An ordered sequence of logical requests over a data set.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Human-readable workload name.
    pub name: String,
    /// Size of the logical data set, in sectors.
    pub data_sectors: u64,
    requests: Vec<Request>,
}

impl Trace {
    /// Builds a trace, sorting requests by arrival time (stable, so equal
    /// timestamps keep their relative order) and renumbering ids.
    pub fn new(name: impl Into<String>, data_sectors: u64, mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| r.arrival);
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = i as u64;
        }
        Trace {
            name: name.into(),
            data_sectors,
            requests,
        }
    }

    /// The requests, in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Wall-clock span from first to last arrival.
    pub fn duration(&self) -> SimDuration {
        match (self.requests.first(), self.requests.last()) {
            (Some(a), Some(b)) => b.arrival.saturating_since(a.arrival),
            _ => SimDuration::ZERO,
        }
    }

    /// Average I/O rate in requests per second (zero for traces shorter
    /// than two requests).
    pub fn avg_rate(&self) -> f64 {
        let d = self.duration().as_secs_f64();
        if d <= 0.0 {
            0.0
        } else {
            (self.len() as f64 - 1.0) / d
        }
    }

    /// Returns a copy replayed at `rate` times the original speed: arrival
    /// times are divided by `rate`, halving inter-arrival times at rate 2.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive and finite.
    pub fn scaled(&self, rate: f64) -> Trace {
        assert!(
            rate.is_finite() && rate > 0.0,
            "scale rate must be positive"
        );
        let requests = self
            .requests
            .iter()
            .map(|r| Request {
                arrival: SimTime::from_nanos((r.arrival.as_nanos() as f64 / rate).round() as u64),
                ..*r
            })
            .collect();
        Trace::new(
            format!("{} (x{rate})", self.name),
            self.data_sectors,
            requests,
        )
    }

    /// Fraction of requests with the given op kind.
    pub fn fraction(&self, op: Op) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests.iter().filter(|r| r.op == op).count() as f64 / self.len() as f64
    }

    /// Largest end block referenced (sanity bound versus `data_sectors`).
    pub fn max_block(&self) -> u64 {
        self.requests.iter().map(|r| r.end()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(arrival_ms: u64, lbn: u64, op: Op) -> Request {
        Request {
            id: 0,
            arrival: SimTime::from_millis(arrival_ms),
            op,
            lbn,
            sectors: 8,
        }
    }

    fn sample() -> Trace {
        Trace::new(
            "t",
            1_000,
            vec![
                r(20, 100, Op::Read),
                r(0, 0, Op::SyncWrite),
                r(10, 50, Op::Read),
            ],
        )
    }

    #[test]
    fn construction_sorts_and_renumbers() {
        let t = sample();
        let arrivals: Vec<u64> = t
            .requests()
            .iter()
            .map(|x| x.arrival.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(arrivals, vec![0, 10, 20]);
        let ids: Vec<u64> = t.requests().iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn duration_and_rate() {
        let t = sample();
        assert_eq!(t.duration(), SimDuration::from_millis(20));
        assert!((t.avg_rate() - 100.0).abs() < 1e-9);
        assert_eq!(Trace::new("e", 0, vec![]).avg_rate(), 0.0);
    }

    #[test]
    fn scaling_halves_interarrivals() {
        let t = sample().scaled(2.0);
        let arrivals: Vec<u64> = t
            .requests()
            .iter()
            .map(|x| x.arrival.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(arrivals, vec![0, 5, 10]);
        assert_eq!(t.duration(), SimDuration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "scale rate")]
    fn scaling_rejects_zero_rate() {
        let _ = sample().scaled(0.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let t = sample();
        let total = t.fraction(Op::Read) + t.fraction(Op::SyncWrite) + t.fraction(Op::AsyncWrite);
        assert!((total - 1.0).abs() < 1e-12);
        assert!((t.fraction(Op::Read) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_block_bounds_data_set() {
        let t = sample();
        assert_eq!(t.max_block(), 108);
        assert!(t.max_block() <= t.data_sectors);
    }
}
