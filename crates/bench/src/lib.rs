//! Shared plumbing for the paper-reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index). This library holds what they
//! share: canonical workload construction, run helpers, and plain-text
//! series printing so the output reads like the paper's figures.

use mimd_core::models::DiskCharacter;
use mimd_core::RunReport;
use mimd_disk::DiskParams;
use mimd_workload::{SyntheticSpec, Trace};

pub use mimd_harness::{run_jobs, Job, Json};

/// Canonical request counts, sized so every binary finishes in seconds
/// while staying deep in steady state.
pub mod sizes {
    /// Requests per open-loop trace replay.
    pub const TRACE_REQUESTS: usize = 20_000;
    /// Completions per closed-loop measurement.
    pub const CLOSED_LOOP_COMPLETIONS: u64 = 10_000;
}

/// The three paper workloads at canonical sizes (deterministic seeds).
pub struct Workloads {
    /// Cello minus the news disk.
    pub cello_base: Trace,
    /// The news disk.
    pub cello_disk6: Trace,
    /// The TPC-C disk trace.
    pub tpcc: Trace,
}

impl Workloads {
    /// Generates the three traces; a binary calls this once and lends
    /// them to its jobs.
    pub fn generate() -> Workloads {
        let n = sizes::TRACE_REQUESTS;
        Workloads {
            cello_base: SyntheticSpec::cello_base().generate(101, n),
            cello_disk6: SyntheticSpec::cello_disk6().generate(102, n),
            tpcc: SyntheticSpec::tpcc().generate(103, n),
        }
    }
}

/// The model-facing characteristics of the experiment drive.
pub fn drive_character() -> DiskCharacter {
    DiskCharacter::from_params(&DiskParams::st39133lwv())
}

/// Drive characteristics with a 4 KiB transfer folded into `To` (the
/// micro-benchmark request size).
pub fn drive_character_4k() -> DiskCharacter {
    let p = DiskParams::st39133lwv();
    DiskCharacter::from_params(&p).with_transfer(8, &p)
}

/// Whether `MIMD_BENCH_QUICK` (`1` or `true`) asks for the shrunken sweep
/// the CI smoke and witness steps run instead of the full one.
pub fn quick() -> bool {
    std::env::var("MIMD_BENCH_QUICK").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Accumulates one experiment's machine-readable record and writes it to
/// `MIMD_JSON_DIR` (default `target/experiments/`) as `<name>.json`.
///
/// Rows pair the experiment's own labels (the table's axes) with the full
/// [`report_json`](mimd_harness::report_json) metrics of one run, so a
/// plot or regression check can consume any figure without parsing tables.
pub struct ExperimentLog {
    name: String,
    rows: Vec<Json>,
}

impl ExperimentLog {
    /// Starts an empty log named after the experiment (the JSON file stem).
    pub fn new(name: &str) -> ExperimentLog {
        ExperimentLog {
            name: name.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends one measured row: axis labels plus the run's metrics.
    pub fn push(&mut self, labels: Vec<(&str, Json)>, report: &mut RunReport) {
        let mut row = Json::object([] as [(&str, Json); 0]);
        for (k, v) in labels {
            row.push_field(k, v);
        }
        row.push_field("metrics", mimd_harness::report_json(report));
        self.rows.push(row);
    }

    /// Appends a label-only row (derived statistics, model values, ...).
    pub fn note(&mut self, labels: Vec<(&str, Json)>) {
        let mut row = Json::object([] as [(&str, Json); 0]);
        for (k, v) in labels {
            row.push_field(k, v);
        }
        self.rows.push(row);
    }

    /// Writes `<name>.json` and prints where it landed.
    pub fn write(self) {
        let doc = Json::object([
            ("experiment", Json::from(self.name.as_str())),
            ("rows", Json::Arr(self.rows)),
        ]);
        match mimd_harness::write_json(&self.name, &doc) {
            Ok(path) => println!("\n[json] {}", path.display()),
            Err(e) => eprintln!("failed to write {}.json: {e}", self.name),
        }
    }
}

/// Pretty-prints one experiment table: a header and aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Formats milliseconds to two decimals.
pub fn ms(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a dimensionless ratio to two decimals with an `x` suffix.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "-".to_string()
    } else {
        format!("{:.2}x", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::{EngineConfig, Shape};

    #[test]
    fn workloads_generate_canonical_sizes() {
        let w = Workloads::generate();
        assert_eq!(w.cello_base.len(), sizes::TRACE_REQUESTS);
        assert_eq!(w.tpcc.len(), sizes::TRACE_REQUESTS);
        assert_eq!(w.cello_disk6.len(), sizes::TRACE_REQUESTS);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(1.234), "1.23");
        assert_eq!(ratio(3.0, 2.0), "1.50x");
        assert_eq!(ratio(1.0, 0.0), "-");
    }

    #[test]
    fn run_trace_smoke() {
        let trace = SyntheticSpec::cello_base().generate(1, 100);
        let r = Job::trace(EngineConfig::new(Shape::striping(2)), &trace).run();
        assert_eq!(r.completed, 100);
    }
}
