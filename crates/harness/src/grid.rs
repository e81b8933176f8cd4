//! Tests of experiment grids — a sweep of shapes × seeds (or one
//! closed-loop cell) built as a plain [`Job`](crate::Job) list and run
//! through [`run_jobs_on`](crate::run_jobs_on).

#[cfg(test)]
mod tests {
    use crate::{report_json, run_jobs_on, Job, RunCache};
    use mimd_core::{EngineConfig, Policy, Shape};
    use mimd_workload::{IometerSpec, SyntheticSpec, Trace};

    /// The 2 shapes × 2 seeds grid over one trace, in sweep order.
    fn small_grid(trace: &Trace) -> Vec<Job<'_>> {
        let mut jobs = Vec::new();
        for shape in [Shape::striping(2), Shape::new(1, 2, 1).unwrap()] {
            for seed in [42, 43] {
                jobs.push(Job::trace(EngineConfig::new(shape).with_seed(seed), trace));
            }
        }
        jobs
    }

    fn grid_json(threads: usize, jobs: Vec<Job<'_>>) -> Vec<String> {
        run_jobs_on(threads, &RunCache::disabled(), jobs)
            .into_iter()
            .map(|mut r| report_json(&mut r).to_json())
            .collect()
    }

    #[test]
    fn parallel_grid_json_matches_serial_bytes() {
        let trace = SyntheticSpec::cello_base().generate(7, 200);
        let serial = grid_json(1, small_grid(&trace));
        assert_eq!(serial.len(), 4);
        for threads in [2, 4, 8] {
            let parallel = grid_json(threads, small_grid(&trace));
            assert_eq!(parallel, serial, "threads = {threads}");
        }
        assert!(serial.iter().all(|j| j.contains("mean_response_ms")));
    }

    #[test]
    fn closed_loop_cells_run() {
        let data = 4 * 1024 * 1024; // sectors
        let cfg = EngineConfig::new(Shape::striping(2))
            .with_seed(1)
            .with_policy(Policy::Satf);
        let jobs = vec![Job::closed(cfg, IometerSpec::random_read_512(data), 4, 100)];
        let reports = run_jobs_on(2, &RunCache::disabled(), jobs);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].completed, 100);
    }
}
