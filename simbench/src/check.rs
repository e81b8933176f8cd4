//! Output checks: invariants every run must hold, and simulated answers
//! pinned for the default and the held-out seed.
//!
//! A digest is the list of fields a repetition is judged by, each carrying
//! the number of requests it speaks for: a whole-run field speaks for every
//! request of the repetition, a grid cell's witness for that cell's. A
//! mismatch counts the requests behind it as failed.

use crate::workloads::{Inputs, Kind, Pooled, Rep, Size};

/// The seed a run uses when none is given, and whose answers are pinned.
pub const DEFAULT_SEED: u64 = 1;
/// A second pinned seed, never used while tuning the benchmark.
pub const HELD_OUT_SEED: u64 = 2;

/// Pinned digests: `<workload> <seed> <field> <value>` lines. Regenerate
/// with `--print-pins` (see README.md).
const PINS: &str = include_str!("../pins.txt");

/// One checked field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name, e.g. `witness` or `cell.07.witness`.
    pub name: String,
    /// The value, rendered exactly (floats in shortest round-trip form).
    pub value: String,
    /// Requests this field speaks for.
    pub requests: u64,
}

/// The checked fields of one repetition.
pub fn digest(inputs: &Inputs, rep: &Rep) -> Vec<Field> {
    let mut pooled = Pooled::of(&rep.runs);
    let all = inputs.attempted();
    let mut out = Vec::new();
    let mut push = |name: String, value: String, requests: u64| {
        out.push(Field {
            name,
            value,
            requests,
        })
    };
    push("attempted".into(), all.to_string(), all);
    push("completed".into(), pooled.completed.to_string(), all);
    push(
        "failed_requests".into(),
        pooled.failed_requests.to_string(),
        all,
    );
    push(
        "phys_requests".into(),
        pooled.phys_requests.to_string(),
        all,
    );
    let sim_mean = pooled.response.mean();
    let sim_p99 = pooled.p99_ms();
    push("sim_mean_response_ms".into(), format!("{sim_mean:?}"), all);
    push("sim_p99_response_ms".into(), format!("{sim_p99:?}"), all);
    push("sim_iops".into(), format!("{:?}", pooled.sim_iops()), all);
    if inputs.kind == Kind::GridCello {
        for (i, (run, job)) in rep.runs.iter().zip(&inputs.jobs).enumerate() {
            push(
                format!("cell.{i:02}.witness"),
                format!("{:016x}", run.report.witness),
                inputs.job_requests(job),
            );
        }
    } else {
        push(
            "witness".into(),
            format!("{:016x}", rep.runs[0].report.witness),
            all,
        );
    }
    out
}

/// Invariants every repetition must hold at any seed: every attempted
/// request completed and none failed. Returns the requests that broke
/// them, with a description of the first break.
pub fn invariants(inputs: &Inputs, rep: &Rep) -> (u64, Option<String>) {
    let mut failed = 0;
    let mut first = None;
    for (i, (run, job)) in rep.runs.iter().zip(&inputs.jobs).enumerate() {
        let want = inputs.job_requests(job);
        let r = &run.report;
        let bad = r.completed.abs_diff(want) + r.failed_requests;
        if bad > 0 {
            failed += bad.min(want);
            first.get_or_insert_with(|| {
                format!(
                    "job {i}: completed {} of {want}, {} failed",
                    r.completed, r.failed_requests
                )
            });
        }
    }
    (failed, first)
}

/// Compares `got` against `want`, field by field. Returns the requests
/// behind mismatching fields (a whole-run mismatch counts every request
/// once) and the first mismatch, rendered.
pub fn compare(got: &[Field], want: &[Field]) -> (u64, Option<String>) {
    let total = got.iter().map(|f| f.requests).max().unwrap_or(0);
    let mut failed = 0u64;
    let mut first = None;
    for w in want {
        let g = got.iter().find(|g| g.name == w.name);
        let ok = g.is_some_and(|g| g.value == w.value);
        if ok {
            continue;
        }
        first.get_or_insert_with(|| {
            format!(
                "field {}: got {}, pinned {}",
                w.name,
                g.map_or("<missing>", |g| g.value.as_str()),
                w.value
            )
        });
        failed += g.map_or(total, |g| g.requests);
    }
    (failed.min(total), first)
}

/// The pinned digest of `kind` at `seed`, if that seed is pinned.
pub fn pinned(kind: Kind, seed: u64) -> Option<Vec<Field>> {
    parse_pins(PINS, kind, seed)
}

/// Parses pin lines for one workload and seed. Field request weights are
/// not stored; the repetition's own digest supplies them on comparison.
pub fn parse_pins(text: &str, kind: Kind, seed: u64) -> Option<Vec<Field>> {
    let fields: Vec<Field> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (w, s, name, value) = (it.next()?, it.next()?, it.next()?, it.next()?);
            (w == kind.name() && s.parse::<u64>().ok()? == seed).then(|| Field {
                name: name.to_string(),
                value: value.to_string(),
                requests: 0,
            })
        })
        .collect();
    (!fields.is_empty()).then_some(fields)
}

/// Renders a digest as pin lines.
pub fn pin_lines(kind: Kind, seed: u64, fields: &[Field]) -> String {
    fields
        .iter()
        .map(|f| format!("{} {seed} {} {}\n", kind.name(), f.name, f.value))
        .collect()
}

/// Checks one full-size repetition: invariants, and the pinned digest when
/// its seed is pinned. Returns the requests counted as failed and the first
/// problem found.
pub fn verify(inputs: &Inputs, rep: &Rep) -> (u64, Option<String>) {
    let (mut failed, mut first) = invariants(inputs, rep);
    if inputs.size == Size::Full {
        if let Some(want) = pinned(inputs.kind, inputs.seed) {
            let (f, msg) = compare(&digest(inputs, rep), &want);
            failed = failed.max(f);
            first = first.or(msg);
        }
    }
    (failed, first)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(name: &str, value: &str, requests: u64) -> Field {
        Field {
            name: name.into(),
            value: value.into(),
            requests,
        }
    }

    #[test]
    fn perturbed_witness_is_caught_and_counted() {
        let got = vec![
            field("completed", "100", 100),
            field("cell.00.witness", "00000000deadbeef", 60),
            field("cell.01.witness", "00000000cafef00d", 40),
        ];
        let mut want = got.clone();
        assert_eq!(compare(&got, &want), (0, None));
        want[2].value = "00000000cafef00e".into();
        let (failed, first) = compare(&got, &want);
        assert_eq!(failed, 40, "only the perturbed cell's requests fail");
        assert!(first
            .expect("mismatch reported")
            .contains("cell.01.witness"));
        want[0].value = "99".into();
        let (failed, first) = compare(&got, &want);
        assert_eq!(failed, 100, "a whole-run field fails every request once");
        assert!(first
            .expect("mismatch reported")
            .starts_with("field completed"));
    }

    #[test]
    fn missing_field_fails_the_whole_run() {
        let got = vec![field("completed", "100", 100)];
        let want = vec![field("witness", "0000000000000001", 0)];
        assert_eq!(compare(&got, &want).0, 100);
    }

    #[test]
    fn pins_round_trip_through_text() {
        let fields = vec![field("witness", "00000000000000ff", 7)];
        let text = pin_lines(Kind::ClosedDeep, 5, &fields);
        let back = parse_pins(&text, Kind::ClosedDeep, 5).expect("pinned");
        assert_eq!(back[0].name, "witness");
        assert_eq!(back[0].value, "00000000000000ff");
        assert!(parse_pins(&text, Kind::ClosedDeep, 6).is_none());
        assert!(parse_pins(&text, Kind::GridCello, 5).is_none());
    }

    #[test]
    fn both_pinned_seeds_have_pins_for_every_workload() {
        for kind in Kind::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let pins = pinned(kind, seed).expect("every workload is pinned");
                assert!(pins.iter().any(|f| f.name.ends_with("witness")));
                assert!(pins.iter().any(|f| f.name == "sim_mean_response_ms"));
            }
        }
    }
}
