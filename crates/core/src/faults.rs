//! Deterministic fault-injection plans and the engine's fault context.
//!
//! A [`FaultPlan`] is a declarative description of everything that goes
//! wrong during one run: scheduled fail-stop (optionally with a hot
//! spare), windowed fail-slow (service-time inflation inside the drive
//! model), transient media errors, and the recovery policies — retry with
//! capped exponential backoff, read redirection away from sick disks, and
//! the hot-spare rebuild throttle.
//!
//! Two properties are load-bearing:
//!
//! - **Value-neutrality.** An empty plan (`FaultPlan::default()`) makes
//!   the engine skip the fault layer entirely — no extra RNG draws, no
//!   extra events, byte-identical reports. Every figure regenerated with
//!   faults off therefore matches builds that predate this module.
//! - **Stream isolation.** All fault randomness comes from one dedicated,
//!   named stream ([`SimRng::named`]`(seed, "faults")`), never from the
//!   workload or per-disk streams. Injecting faults cannot perturb the
//!   workload a healthy run would have seen; the `fault-determinism`
//!   simlint rule pins this file to that discipline.

use mimd_sim::{SimDuration, SimRng, SimTime};

/// A scheduled fail-stop: the disk stops servicing at `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct FailStop {
    /// Index of the disk that fails.
    pub disk: usize,
    /// Failure instant.
    pub at: SimTime,
    /// Whether a hot spare takes over: after
    /// [`RebuildConfig::spare_delay`], surviving mirrors copy the disk's
    /// data onto the spare and the slot returns to service.
    pub spare: bool,
}

/// A fail-slow window: between `from` and `until`, every operation the
/// disk services takes `factor`× its healthy time.
#[derive(Debug, Clone, PartialEq)]
pub struct FailSlow {
    /// Index of the slow disk.
    pub disk: usize,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Service-time multiplier (must be finite and positive; `1.0` is a
    /// no-op window useful for neutrality tests).
    pub factor: f64,
}

/// Per-operation transient media-error probabilities.
///
/// Drawn once per completing foreground physical operation from the
/// dedicated fault stream; an erroring operation is retried under the
/// [`RetryPolicy`] attempt budget.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MediaErrors {
    /// Probability a read completes with a transient error.
    pub read_rate: f64,
    /// Probability a write completes with a transient error.
    pub write_rate: f64,
}

impl MediaErrors {
    /// Whether any error probability is non-zero.
    pub fn enabled(&self) -> bool {
        self.read_rate > 0.0 || self.write_rate > 0.0
    }
}

/// Timeout-and-retry policy for foreground reads, in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Base timeout armed when a read is enqueued; `ZERO` disables
    /// timeouts entirely.
    pub timeout: SimDuration,
    /// Retry attempts after the first try (both timeout- and
    /// media-error-triggered retries draw from this budget).
    pub max_retries: u8,
    /// Upper bound on the exponentially backed-off timeout.
    pub backoff_cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            timeout: SimDuration::ZERO,
            max_retries: 2,
            backoff_cap: SimDuration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// Whether timeouts are armed at all.
    pub fn enabled(&self) -> bool {
        self.timeout > SimDuration::ZERO
    }

    /// The timeout for a given attempt number: `timeout · 2^attempt`,
    /// capped at `backoff_cap` (never below the base timeout).
    pub fn timeout_for(&self, attempt: u8) -> SimDuration {
        let base = self.timeout.as_nanos();
        let shift = u32::from(attempt).min(20);
        let grown = base.saturating_mul(1u64 << shift);
        SimDuration::from_nanos(grown.min(self.backoff_cap.as_nanos().max(base)))
    }
}

/// Hot-spare rebuild parameters.
///
/// Rebuild copy traffic is throttled against foreground work by riding
/// the per-disk *delayed* [`crate::DriveQueue`]: chunk reads on the
/// surviving mirror only dispatch when its foreground queue is empty,
/// exactly like §3.4's delayed replica propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildConfig {
    /// Delay between the failure and the spare starting to fill.
    pub spare_delay: SimDuration,
    /// Upper bound on sectors copied per chunk (each chunk is further
    /// clamped to one replica track, the rebuild's natural copy unit).
    pub chunk_sectors: u32,
}

impl Default for RebuildConfig {
    fn default() -> RebuildConfig {
        RebuildConfig {
            spare_delay: SimDuration::from_secs(1),
            chunk_sectors: 1024,
        }
    }
}

/// A full fault-injection plan for one run.
///
/// The default plan is empty: [`FaultPlan::is_empty`] is what gates the
/// whole fault layer in the engine.
///
/// # Examples
///
/// ```
/// use mimd_core::faults::FaultPlan;
/// use mimd_sim::{SimDuration, SimTime};
///
/// let plan = FaultPlan::new()
///     .fail_stop_with_spare(0, SimTime::from_secs(30))
///     .media_errors(1e-3, 0.0)
///     .retry(SimDuration::from_millis(100), 3, SimDuration::from_secs(1));
/// assert!(!plan.is_empty());
/// assert!(FaultPlan::default().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Scheduled fail-stop events.
    pub fail_stop: Vec<FailStop>,
    /// Fail-slow windows.
    pub fail_slow: Vec<FailSlow>,
    /// Transient media-error rates.
    pub media: MediaErrors,
    /// Timeout/retry policy for reads.
    pub retry: RetryPolicy,
    /// Steer reads away from disks inside a fail-slow window when a
    /// healthy mirror copy exists.
    pub redirect: bool,
    /// Hot-spare rebuild parameters (used by spared fail-stops).
    pub rebuild: RebuildConfig,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan can have any effect on a run. Empty plans make
    /// the engine skip the fault layer entirely (value-neutrality).
    pub fn is_empty(&self) -> bool {
        self.fail_stop.is_empty()
            && self.fail_slow.is_empty()
            && !self.media.enabled()
            && !self.retry.enabled()
    }

    /// Adds a fail-stop without a spare: the disk stays dead.
    pub fn fail_stop(mut self, disk: usize, at: SimTime) -> FaultPlan {
        self.fail_stop.push(FailStop {
            disk,
            at,
            spare: false,
        });
        self
    }

    /// Adds a fail-stop with a hot spare: after
    /// [`RebuildConfig::spare_delay`], surviving mirrors rebuild the disk
    /// and it returns to service.
    pub fn fail_stop_with_spare(mut self, disk: usize, at: SimTime) -> FaultPlan {
        self.fail_stop.push(FailStop {
            disk,
            at,
            spare: true,
        });
        self
    }

    /// Adds a fail-slow window. Non-finite or non-positive factors are
    /// ignored (a plan is data, not a place to crash).
    pub fn fail_slow(
        mut self,
        disk: usize,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> FaultPlan {
        if factor.is_finite() && factor > 0.0 && until > from {
            self.fail_slow.push(FailSlow {
                disk,
                from,
                until,
                factor,
            });
        }
        self
    }

    /// Sets transient media-error rates (clamped to `[0, 1]`).
    pub fn media_errors(mut self, read_rate: f64, write_rate: f64) -> FaultPlan {
        self.media = MediaErrors {
            read_rate: read_rate.clamp(0.0, 1.0),
            write_rate: write_rate.clamp(0.0, 1.0),
        };
        self
    }

    /// Enables read timeouts with capped exponential backoff.
    pub fn retry(
        mut self,
        timeout: SimDuration,
        max_retries: u8,
        backoff_cap: SimDuration,
    ) -> FaultPlan {
        self.retry = RetryPolicy {
            timeout,
            max_retries,
            backoff_cap: backoff_cap.max(timeout),
        };
        self
    }

    /// Sets the retry attempt budget without arming timeouts (media-error
    /// retries use the same budget).
    pub fn retry_budget(mut self, max_retries: u8) -> FaultPlan {
        self.retry.max_retries = max_retries;
        self
    }

    /// Steers reads away from fail-slow disks when a healthy copy exists.
    pub fn redirect_slow_reads(mut self) -> FaultPlan {
        self.redirect = true;
        self
    }

    /// Sets hot-spare rebuild parameters.
    pub fn rebuild(mut self, spare_delay: SimDuration, chunk_sectors: u32) -> FaultPlan {
        self.rebuild = RebuildConfig {
            spare_delay,
            chunk_sectors: chunk_sectors.max(1),
        };
        self
    }

    /// Validates the plan against an array of `disks` disks: every
    /// targeted disk index must be in range, and no disk may carry two
    /// scheduled fail-stops (a disk fails at most once per run; the
    /// second event would fire against an already-dead or rebuilt slot
    /// whose meaning is undefined). Called by the engine at build time so
    /// a bad plan is a config error, not a mid-run debug assert.
    pub fn validate(&self, disks: usize) -> Result<(), String> {
        for f in &self.fail_stop {
            if f.disk >= disks {
                return Err(format!(
                    "fail-stop targets disk {} but the array has {disks} disks",
                    f.disk
                ));
            }
        }
        for w in &self.fail_slow {
            if w.disk >= disks {
                return Err(format!(
                    "fail-slow targets disk {} but the array has {disks} disks",
                    w.disk
                ));
            }
        }
        let mut failed: Vec<usize> = self.fail_stop.iter().map(|f| f.disk).collect();
        failed.sort_unstable();
        for pair in failed.windows(2) {
            if pair[0] == pair[1] {
                return Err(format!(
                    "disk {} has two scheduled fail-stops; a disk fails at most once per run",
                    pair[0]
                ));
            }
        }
        Ok(())
    }
}

/// Hot-spare rebuild progress: `failed → rebuilding → restored`.
#[derive(Debug, Clone)]
pub(crate) struct RebuildState {
    /// The failed disk being rebuilt in place.
    pub(crate) disk: usize,
    /// Failure instant (rebuild duration is measured from here).
    pub(crate) started: SimTime,
    /// Next per-disk data sector to copy.
    pub(crate) next: u64,
    /// Per-disk data sectors to restore in total.
    pub(crate) total: u64,
    /// Sectors covered by the chunk currently in flight.
    pub(crate) pending: u64,
    /// The in-flight chunk's first source: the one surviving mirror it is
    /// copied from, or the lowest of a parity group's survivors. A mirror
    /// reissues the chunk when this disk dies before its read completes.
    pub(crate) source: usize,
    /// Whether copying has begun (false while waiting for the spare).
    pub(crate) copying: bool,
    /// Whether the in-flight chunk is past its source read and writing to
    /// the spare (a source failure no longer invalidates it).
    pub(crate) writing: bool,
    /// Source reads of the in-flight chunk still outstanding: one for a
    /// mirror copy, `G−1` for a parity chunk (the XOR of every survivor).
    /// The spare write starts when this reaches zero.
    pub(crate) reads_left: u32,
}

/// Per-run fault state owned by the engine; exists only for non-empty
/// plans, so the empty-plan path never touches it.
#[derive(Debug)]
pub(crate) struct FaultCtx {
    /// The resolved plan.
    pub(crate) plan: FaultPlan,
    /// The dedicated fault stream — the only randomness the fault layer
    /// may consume (`fault-determinism` simlint rule).
    pub(crate) rng: SimRng,
    /// Per-disk count of open fail-slow windows, one entry per disk of the
    /// owning shard, indexed by `disk - base`.
    pub(crate) slow_now: Vec<u32>,
    /// Active rebuild, if any (one at a time).
    pub(crate) rebuild: Option<RebuildState>,
    /// Monotone stamp distinguishing timeout generations of a task slot.
    pub(crate) next_track: u64,
}

impl FaultCtx {
    /// Builds the context for a non-empty plan.
    ///
    /// `disks` is the owning shard's disk count. `shard` indexes the shard
    /// among the engine's shards: each shard draws media errors from its
    /// own member of the `"faults"` stream family, so the draw sequence is
    /// a pure function of `(seed, shard)` and never depends on how work
    /// interleaves across shards.
    pub(crate) fn new(plan: &FaultPlan, seed: u64, disks: usize, shard: u64) -> FaultCtx {
        FaultCtx {
            plan: plan.clone(),
            rng: SimRng::named_indexed(seed, "faults", shard),
            slow_now: vec![0; disks],
            rebuild: None,
            next_track: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_builders_arent() {
        assert!(FaultPlan::default().is_empty());
        assert!(FaultPlan::new().redirect_slow_reads().is_empty());
        assert!(!FaultPlan::new()
            .fail_stop(0, SimTime::from_secs(1))
            .is_empty());
        assert!(!FaultPlan::new()
            .fail_slow(1, SimTime::ZERO, SimTime::from_secs(5), 3.0)
            .is_empty());
        assert!(!FaultPlan::new().media_errors(0.01, 0.0).is_empty());
        assert!(!FaultPlan::new()
            .retry(
                SimDuration::from_millis(50),
                2,
                SimDuration::from_millis(400)
            )
            .is_empty());
    }

    #[test]
    fn degenerate_fail_slow_windows_are_dropped() {
        let p = FaultPlan::new()
            .fail_slow(0, SimTime::from_secs(2), SimTime::from_secs(1), 2.0)
            .fail_slow(0, SimTime::ZERO, SimTime::from_secs(1), f64::NAN)
            .fail_slow(0, SimTime::ZERO, SimTime::from_secs(1), 0.0);
        assert!(p.is_empty(), "all three windows are invalid");
    }

    #[test]
    fn media_rates_clamp_to_probabilities() {
        let p = FaultPlan::new().media_errors(2.0, -0.5);
        assert_eq!(p.media.read_rate, 1.0);
        assert_eq!(p.media.write_rate, 0.0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy {
            timeout: SimDuration::from_millis(100),
            max_retries: 5,
            backoff_cap: SimDuration::from_millis(350),
        };
        assert_eq!(r.timeout_for(0), SimDuration::from_millis(100));
        assert_eq!(r.timeout_for(1), SimDuration::from_millis(200));
        assert_eq!(r.timeout_for(2), SimDuration::from_millis(350));
        assert_eq!(r.timeout_for(200), SimDuration::from_millis(350));
    }

    #[test]
    fn backoff_cap_never_undercuts_base() {
        let r = RetryPolicy {
            timeout: SimDuration::from_millis(100),
            max_retries: 1,
            backoff_cap: SimDuration::from_millis(10),
        };
        assert_eq!(r.timeout_for(0), SimDuration::from_millis(100));
        assert_eq!(r.timeout_for(3), SimDuration::from_millis(100));
    }

    #[test]
    fn validate_rejects_out_of_range_and_double_fail_stops() {
        let t = SimTime::from_secs(1);
        assert!(FaultPlan::new().validate(4).is_ok());
        assert!(FaultPlan::new().fail_stop(3, t).validate(4).is_ok());
        assert!(FaultPlan::new().fail_stop(4, t).validate(4).is_err());
        assert!(FaultPlan::new()
            .fail_slow(7, SimTime::ZERO, t, 2.0)
            .validate(4)
            .is_err());
        // Two fail-stops on one disk are rejected even at distinct times.
        let twice = FaultPlan::new()
            .fail_stop_with_spare(1, t)
            .fail_stop(1, SimTime::from_secs(9));
        assert!(twice.validate(4).is_err());
        let distinct = FaultPlan::new()
            .fail_stop(0, t)
            .fail_stop(2, SimTime::from_secs(9));
        assert!(distinct.validate(4).is_ok());
    }

    #[test]
    fn fault_ctx_uses_the_named_stream() {
        let plan = FaultPlan::new().media_errors(0.5, 0.5);
        let mut a = FaultCtx::new(&plan, 7, 4, 0);
        let mut b = SimRng::named_indexed(7, "faults", 0);
        assert_eq!(a.rng.below(1 << 30), b.below(1 << 30));
        // Shards draw from distinct members of the stream family.
        let mut c = FaultCtx::new(&plan, 7, 4, 1);
        assert_ne!(a.rng.below(1 << 30), c.rng.below(1 << 30));
    }
}
