//! Fixture-corpus driver: every rule ships a `hit` / `miss` / `waived`
//! triple under `tests/fixtures/<rule>/`, and this test holds each to
//! its contract:
//!
//! - `hit.rs` — the rule fires at least one **active** finding;
//! - `miss.rs` — the rule fires nothing (the nearest-miss idiom is clean);
//! - `waived.rs` — the rule fires, but every finding is waived by a
//!   reasoned directive (and carries that reason).
//!
//! Fixtures are plain `.rs` text, never compiled: their first line is a
//! `//@path crates/...` header giving the *virtual* workspace path the
//! scope rules should see. Their real path lives under `/tests/`, which
//! [`simlint::Scope::for_path`] exempts — so the corpus can contain
//! every forbidden construct without polluting workspace lint runs.

use simlint::{lint_files, Finding, Rule, SourceFile};
use std::path::{Path, PathBuf};

/// Every rule, by directory name. Compile-time exhaustiveness: adding a
/// `Rule` variant without a fixture triple fails `all_rules_have_fixture_
/// triples` below.
const RULES: [&str; 11] = [
    "determinism",
    "collections",
    "time-units",
    "panic",
    "parallelism",
    "cache-hygiene",
    "fault-determinism",
    "shared-mutability",
    "float-order",
    "rng-provenance",
    "libm-round",
];

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Loads a fixture, honoring its `//@path` virtual-path header.
fn load(rule: &str, which: &str) -> SourceFile {
    let path = fixture_root().join(rule).join(format!("{which}.rs"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let first = text.lines().next().unwrap_or("");
    let virt = first
        .strip_prefix("//@path ")
        .unwrap_or_else(|| {
            panic!(
                "{}: first line must be `//@path <virtual path>`",
                path.display()
            )
        })
        .trim()
        .to_string();
    assert!(
        !simlint::Scope::for_path(&virt).is_exempt(),
        "{}: virtual path {virt} is exempt — the fixture would test nothing",
        path.display()
    );
    SourceFile {
        path: virt,
        source: text,
    }
}

fn findings_of(rule: Rule, file: &SourceFile) -> Vec<Finding> {
    lint_files(std::slice::from_ref(file))
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn all_rules_have_fixture_triples() {
    for dir in RULES {
        assert!(
            Rule::from_name(dir).is_some(),
            "fixture dir {dir} names no rule"
        );
        for which in ["hit", "miss", "waived"] {
            let p = fixture_root().join(dir).join(format!("{which}.rs"));
            assert!(p.is_file(), "missing fixture {}", p.display());
        }
    }
}

#[test]
fn hit_fixtures_fire_active_findings() {
    for dir in RULES {
        let rule = Rule::from_name(dir).unwrap();
        let found = findings_of(rule, &load(dir, "hit"));
        assert!(
            found.iter().any(|f| !f.waived),
            "{dir}/hit.rs: expected an active `{dir}` finding, got {found:?}"
        );
    }
}

#[test]
fn miss_fixtures_stay_clean() {
    for dir in RULES {
        let rule = Rule::from_name(dir).unwrap();
        let found = findings_of(rule, &load(dir, "miss"));
        assert!(
            found.is_empty(),
            "{dir}/miss.rs: expected no `{dir}` findings, got {found:?}"
        );
    }
}

#[test]
fn waived_fixtures_fire_but_are_fully_waived_with_reasons() {
    for dir in RULES {
        let rule = Rule::from_name(dir).unwrap();
        let found = findings_of(rule, &load(dir, "waived"));
        assert!(
            !found.is_empty(),
            "{dir}/waived.rs: the waived fixture must still trigger the rule"
        );
        for f in &found {
            assert!(f.waived, "{dir}/waived.rs: unwaived finding {f}");
            assert!(
                f.waiver_reason.as_deref().is_some_and(|r| !r.is_empty()),
                "{dir}/waived.rs: waiver without a reason on {f}"
            );
        }
    }
}

#[test]
fn fixture_corpus_real_paths_are_exempt() {
    // The corpus's on-disk home must never be linted as workspace code:
    // a `lint_workspace` sweep that descended into it would drown in
    // intentional violations.
    let rel = "crates/simlint/tests/fixtures/panic/hit.rs";
    assert!(simlint::Scope::for_path(rel).is_exempt());
}
