//! Project-specific static analysis for the MimdRAID workspace.
//!
//! The paper's headline validation (Figure 5: two independently built
//! timing paths agreeing to within a few percent) only means something if
//! the simulator is bit-for-bit deterministic and unit-correct — and
//! ROADMAP item 1 (the sharded engine) will multiply the ways that can
//! silently break. `simlint` enforces the coding rules that protect the
//! determinism bar, as a multi-pass analyzer with **no dependencies** so
//! it runs offline and in CI:
//!
//! 1. a hand-rolled lexer ([`lexer`]) — comments, raw strings,
//!    lifetimes, and `#[cfg(test)]` regions, so no rule ever fires
//!    inside (or is waived by) a string or comment;
//! 2. an item/scope pass ([`model`]) — fns with impl-qualified names,
//!    structs, and a conservative name-based call graph reachable from
//!    the sim entry points (`ArraySim::run*`/`::new`,
//!    `EventQueue::push`/`pop*`, `DriveQueue::pick*`);
//! 3. the rules ([`rules`]) — eight line-pattern rules (seven carried
//!    over from the original scanner), plus three model-based shard-safety
//!    rules ([`Rule::SharedMutability`], [`Rule::FloatOrder`],
//!    [`Rule::RngProvenance`]).
//!
//! A finding can be waived with a justification comment on the same
//! line or the line above; **the reason is mandatory** — a bare
//! directive leaves the finding active:
//!
//! ```text
//! let ppm = frac * 1e6; // simlint: allow(time-units) — ppm, not a time unit
//! phase: Cell<f64>,     // simlint: shard-local(per-queue memo, one owner)
//! ```
//!
//! Test modules (`#[cfg(test)]`), doc comments, strings, and the
//! `tests/`, `benches/`, and `examples/` trees are exempt.

use std::fmt;
use std::path::Path;

pub mod lexer;
pub mod model;
pub mod rules;

use lexer::{Directive, DirectiveKind};

/// The lint rules, named as they appear in `// simlint: allow(...)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock time or ambient randomness in simulation code.
    Determinism,
    /// Randomised-iteration-order collections in deterministic crates.
    Collections,
    /// Raw floating-point time-unit arithmetic outside `simcore::time`.
    TimeUnits,
    /// Panicking calls in the engine / disk-model hot paths.
    Panic,
    /// Threading/synchronization primitives below the harness layer.
    Parallelism,
    /// Filesystem writes outside the sanctioned env-var roots in bench /
    /// harness code.
    CacheHygiene,
    /// RNG construction outside the dedicated named stream in fault code.
    FaultDeterminism,
    /// Interior-mutable state reachable from sim code without a
    /// `shard-local` annotation.
    SharedMutability,
    /// f64 accumulation whose iteration order a sharded engine could
    /// permute.
    FloatOrder,
    /// `SimRng` construction that does not flow from `SimRng::named`
    /// with a string-literal stream name.
    RngProvenance,
    /// libm rounding (`rem_euclid`, `round`, `floor`, `ceil`, `trunc`) on
    /// the per-request timing path, where the exact helpers in
    /// `mimd_disk::mechanics` apply.
    LibmRound,
}

impl Rule {
    /// The rule's name in diagnostics and `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::Collections => "collections",
            Rule::TimeUnits => "time-units",
            Rule::Panic => "panic",
            Rule::Parallelism => "parallelism",
            Rule::CacheHygiene => "cache-hygiene",
            Rule::FaultDeterminism => "fault-determinism",
            Rule::SharedMutability => "shared-mutability",
            Rule::FloatOrder => "float-order",
            Rule::RngProvenance => "rng-provenance",
            Rule::LibmRound => "libm-round",
        }
    }

    /// Parses a rule name as written in an `allow(...)` directive.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "determinism" => Some(Rule::Determinism),
            "collections" => Some(Rule::Collections),
            "time-units" => Some(Rule::TimeUnits),
            "panic" => Some(Rule::Panic),
            "parallelism" => Some(Rule::Parallelism),
            "cache-hygiene" => Some(Rule::CacheHygiene),
            "fault-determinism" => Some(Rule::FaultDeterminism),
            "shared-mutability" => Some(Rule::SharedMutability),
            "float-order" => Some(Rule::FloatOrder),
            "rng-provenance" => Some(Rule::RngProvenance),
            "libm-round" => Some(Rule::LibmRound),
            _ => None,
        }
    }

    /// Diagnostic severity. Every current rule is an error: the
    /// workspace ships clean or annotated, never "warned".
    pub fn severity(self) -> Severity {
        Severity::Error
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Finding severity, reported in `--json` output and CI annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One rule finding at a source location, waived or active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description of what was matched.
    pub message: String,
    /// Whether a reasoned waiver directive covers this finding.
    pub waived: bool,
    /// The waiver's justification text, when waived.
    pub waiver_reason: Option<String>,
}

impl Finding {
    fn new(file: &str, line: usize, rule: Rule, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message,
            waived: false,
            waiver_reason: None,
        }
    }

    /// A GitHub Actions workflow annotation for this finding.
    pub fn github_annotation(&self) -> String {
        format!(
            "::{} file={},line={}::[{}] {}",
            self.rule.severity().name(),
            self.file,
            self.line,
            self.rule,
            self.message
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Which rule set applies to a file, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    pub(crate) determinism: bool,
    pub(crate) collections: bool,
    pub(crate) time_units: bool,
    pub(crate) panic: bool,
    pub(crate) parallelism: bool,
    pub(crate) cache_hygiene: bool,
    pub(crate) fault_determinism: bool,
    pub(crate) shared_mutability: bool,
    pub(crate) float_order: bool,
    pub(crate) rng_provenance: bool,
    pub(crate) libm_round: bool,
}

impl Scope {
    /// No rules — the file is not linted.
    pub const EXEMPT: Scope = Scope {
        determinism: false,
        collections: false,
        time_units: false,
        panic: false,
        parallelism: false,
        cache_hygiene: false,
        fault_determinism: false,
        shared_mutability: false,
        float_order: false,
        rng_provenance: false,
        libm_round: false,
    };

    /// Derives the applicable rules from a workspace-relative path
    /// (forward slashes).
    ///
    /// Integration tests, benches, examples, and the analyzer's fixture
    /// corpus are exempt wholesale: they may time wall-clock runs or use
    /// panicking asserts freely.
    pub fn for_path(rel: &str) -> Scope {
        let rel = rel.replace('\\', "/");
        if rel.contains("/tests/") || rel.contains("/benches/") || rel.starts_with("examples/") {
            return Scope::EXEMPT;
        }
        let in_src_of = |krate: &str| rel.starts_with(&format!("crates/{krate}/src/"));
        let sim_crate = in_src_of("simcore")
            || in_src_of("core")
            || in_src_of("diskmodel")
            || in_src_of("workloads")
            || rel.starts_with("src/");
        let any_src =
            (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/");
        Scope {
            determinism: sim_crate,
            collections: in_src_of("simcore") || in_src_of("core") || in_src_of("diskmodel"),
            time_units: sim_crate && rel != "crates/simcore/src/time.rs",
            panic: rel.starts_with("crates/core/src/engine/") || in_src_of("diskmodel"),
            parallelism: sim_crate,
            cache_hygiene: in_src_of("bench") || in_src_of("harness"),
            // The fault layer plus the parity modules: degraded reads,
            // RMW planning, and reconstruction must draw no RNG of their
            // own — all fault randomness comes from the one named stream
            // in faults.rs.
            fault_determinism: rel == "crates/core/src/faults.rs"
                || rel == "crates/core/src/layout/parity.rs"
                || rel == "crates/core/src/engine/shard/parity.rs",
            shared_mutability: sim_crate,
            float_order: sim_crate,
            // Workspace-wide: a SimRng exists only to feed sim code. The
            // constructor's own home and the analyzer are the exceptions.
            rng_provenance: any_src && rel != "crates/simcore/src/rng.rs" && !in_src_of("simlint"),
            // The per-request timing path: angle quantisation, the cost
            // kernels, the drive-queue pick and replica placement.
            libm_round: [
                "crates/diskmodel/src/geometry.rs",
                "crates/diskmodel/src/mechanics.rs",
                "crates/diskmodel/src/disk.rs",
                "crates/core/src/dqueue.rs",
                "crates/core/src/layout/mod.rs",
            ]
            .contains(&rel.as_str()),
        }
    }

    /// Whether no rule applies.
    pub fn is_exempt(&self) -> bool {
        *self == Scope::EXEMPT
    }

    /// Whether this file participates in the item/call-graph model.
    fn in_model(&self) -> bool {
        self.shared_mutability
    }
}

/// One in-memory source file: the pure input to [`lint_files`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path (drives [`Scope::for_path`]).
    pub path: String,
    pub source: String,
}

/// Lints a set of files as one workspace: builds the cross-file model,
/// runs every in-scope rule, and applies waiver directives. Returns all
/// findings — waived ones included, marked — sorted by file and line.
///
/// This is the pure core that the fixture corpus drives;
/// [`lint_workspace`] wires it to the filesystem.
pub fn lint_files(files: &[SourceFile]) -> Vec<Finding> {
    let lexed: Vec<(String, Scope, lexer::Lexed)> = files
        .iter()
        .map(|f| {
            let rel = f.path.replace('\\', "/");
            let scope = Scope::for_path(&rel);
            (rel, scope, lexer::lex(&f.source))
        })
        .collect();
    let model_inputs: Vec<(&str, &lexer::Lexed)> = lexed
        .iter()
        .filter(|(_, s, _)| s.in_model())
        .map(|(p, _, l)| (p.as_str(), l))
        .collect();
    let ws = model::Workspace::build(&model_inputs);

    let mut out = Vec::new();
    for (rel, scope, lx) in &lexed {
        if scope.is_exempt() {
            continue;
        }
        let mut found = Vec::new();
        rules::line::check(rel, scope, lx, &mut found);
        rules::shard::check(rel, scope, lx, &ws, &mut found);
        apply_waivers(&mut found, &lx.directives);
        out.extend(found);
    }
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    out.dedup();
    out
}

/// Lints one file's source text (scope derived from its path).
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    lint_files(&[SourceFile {
        path: rel_path.to_string(),
        source: source.to_string(),
    }])
}

/// Marks findings covered by a reasoned directive as waived. A
/// directive with no reason does **not** waive — the finding stays
/// active with an explanatory note, so every waiver in the tree carries
/// its why.
fn apply_waivers(findings: &mut [Finding], directives: &[Directive]) {
    for f in findings.iter_mut() {
        for d in directives {
            let covers = d.line == f.line || (d.own_line && d.line + 1 == f.line);
            if !covers {
                continue;
            }
            let (matches, reason) = match &d.kind {
                DirectiveKind::Allow { rules, reason } => (rules.contains(&f.rule), reason),
                DirectiveKind::ShardLocal { reason } => (f.rule == Rule::SharedMutability, reason),
            };
            if !matches {
                continue;
            }
            if reason.is_empty() {
                f.message.push_str(
                    " (waiver present but missing a reason — add one after the directive)",
                );
            } else {
                f.waived = true;
                f.waiver_reason = Some(reason.clone());
            }
            break;
        }
    }
}

/// Recursively lints every `.rs` file under `root` (a workspace
/// checkout). Returns all findings (waived included) sorted by file and
/// line; filter on [`Finding::waived`] for the active set.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    for top in ["crates", "src"] {
        collect_rs_files(&root.join(top), &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if Scope::for_path(&rel).is_exempt() {
            continue;
        }
        files.push(SourceFile {
            path: rel,
            source: std::fs::read_to_string(&path)?,
        });
    }
    Ok(lint_files(&files))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // `target/` never appears under crates/*/src, but guard anyway.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as the stable machine-readable document consumed by
/// CI: `{"version":1,"counts":{..},"findings":[..]}`.
pub fn findings_json(findings: &[Finding]) -> String {
    let active = findings.iter().filter(|f| !f.waived).count();
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"version\":1,\"counts\":{{\"total\":{},\"active\":{},\"waived\":{}}},\"findings\":[",
        findings.len(),
        active,
        findings.len() - active
    ));
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"severity\":\"{}\",\
             \"message\":\"{}\",\"waived\":{},\"waiver_reason\":{}}}",
            json_escape(&f.file),
            f.line,
            f.rule,
            f.rule.severity().name(),
            json_escape(&f.message),
            f.waived,
            match &f.waiver_reason {
                Some(r) => format!("\"{}\"", json_escape(r)),
                None => "null".to_string(),
            }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGINE: &str = "crates/core/src/engine/mod.rs";
    const SIM: &str = "crates/simcore/src/event.rs";

    fn active(v: &[Finding]) -> Vec<(usize, Rule)> {
        v.iter()
            .filter(|x| !x.waived)
            .map(|x| (x.line, x.rule))
            .collect()
    }

    #[test]
    fn scope_map_matches_workspace_layout() {
        assert!(Scope::for_path("crates/core/src/engine/cache.rs").panic);
        assert!(!Scope::for_path("crates/core/src/sched.rs").panic);
        assert!(Scope::for_path("crates/diskmodel/src/disk.rs").panic);
        assert!(Scope::for_path("crates/workloads/src/synth.rs").determinism);
        assert!(!Scope::for_path("crates/workloads/src/synth.rs").collections);
        assert!(!Scope::for_path("crates/simcore/src/time.rs").time_units);
        assert!(Scope::for_path("crates/core/tests/model_properties.rs").is_exempt());
        assert!(Scope::for_path("examples/quickstart.rs").is_exempt());
        assert!(Scope::for_path("crates/simlint/src/lib.rs").is_exempt());
        assert!(Scope::for_path("crates/simlint/tests/fixtures/panic/hit.rs").is_exempt());
        let bench_bin = Scope::for_path("crates/bench/src/bin/fig05_validation.rs");
        assert!(bench_bin.cache_hygiene && !bench_bin.is_exempt());
        assert!(!(bench_bin.parallelism || bench_bin.determinism || bench_bin.panic));
        let pool = Scope::for_path("crates/harness/src/pool.rs");
        assert!(pool.cache_hygiene && !pool.is_exempt());
        assert!(!(pool.parallelism || pool.determinism || pool.time_units));
        assert!(Scope::for_path("crates/harness/tests/cache_properties.rs").is_exempt());
        assert!(Scope::for_path("crates/bench/benches/engine_scaling.rs").is_exempt());
        assert!(!Scope::for_path("crates/core/src/engine/mod.rs").cache_hygiene);
        let faults = Scope::for_path("crates/core/src/faults.rs");
        assert!(faults.fault_determinism && faults.determinism && faults.collections);
        assert!(!Scope::for_path("crates/core/src/engine/mod.rs").fault_determinism);
        assert!(!Scope::for_path("crates/simcore/src/rng.rs").fault_determinism);
        // The parity modules carry the same no-local-RNG obligation.
        assert!(Scope::for_path("crates/core/src/layout/parity.rs").fault_determinism);
        assert!(Scope::for_path("crates/core/src/engine/shard/parity.rs").fault_determinism);
        assert!(Scope::for_path("crates/diskmodel/src/geometry.rs").libm_round);
        assert!(Scope::for_path("crates/core/src/layout/mod.rs").libm_round);
        assert!(!Scope::for_path("crates/diskmodel/src/calibration.rs").libm_round);
        assert!(!Scope::for_path("crates/core/src/layout/parity.rs").libm_round);
    }

    #[test]
    fn shard_rules_scope() {
        // The three shard-safety rules cover the sim crates; rng
        // provenance reaches every crate's src (bench bins construct the
        // RNGs the sim consumes) except the constructor's own home.
        for p in [
            "crates/simcore/src/event.rs",
            "crates/core/src/dqueue.rs",
            "crates/diskmodel/src/seek.rs",
            "crates/workloads/src/synth.rs",
        ] {
            let s = Scope::for_path(p);
            assert!(
                s.shared_mutability && s.float_order && s.rng_provenance,
                "{p}"
            );
        }
        assert!(Scope::for_path("crates/bench/src/bin/fig06_cello_latency.rs").rng_provenance);
        assert!(Scope::for_path("crates/harness/src/job.rs").rng_provenance);
        assert!(!Scope::for_path("crates/harness/src/job.rs").shared_mutability);
        assert!(!Scope::for_path("crates/simcore/src/rng.rs").rng_provenance);
        assert!(Scope::for_path("crates/simcore/src/rng.rs").shared_mutability);
        assert!(!Scope::for_path("crates/simlint/src/rules/shard.rs").rng_provenance);
    }

    #[test]
    fn flags_panicky_calls_with_line_numbers() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    let y = x.unwrap();\n    y\n}\n\
                   fn g() {\n    panic!(\"boom\");\n}\n";
        let v = lint_source(ENGINE, src);
        assert_eq!(active(&v), vec![(2, Rule::Panic), (6, Rule::Panic)]);
    }

    #[test]
    fn allow_directive_with_reason_waives_same_line() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // simlint: allow(panic) — checked above\n}\n";
        let v = lint_source(ENGINE, src);
        assert!(active(&v).is_empty(), "{v:?}");
        assert_eq!(v.len(), 1);
        assert!(v[0].waived);
        assert_eq!(v[0].waiver_reason.as_deref(), Some("checked above"));
    }

    #[test]
    fn allow_directive_waives_next_line() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // simlint: allow(panic) — checked above\n    x.unwrap()\n}\n";
        let v = lint_source(ENGINE, src);
        assert!(active(&v).is_empty(), "{v:?}");
    }

    #[test]
    fn waiver_without_reason_does_not_suppress() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // simlint: allow(panic)\n}\n";
        let v = lint_source(ENGINE, src);
        assert_eq!(active(&v), vec![(2, Rule::Panic)]);
        assert!(
            v[0].message.contains("missing a reason"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn allow_directive_is_rule_specific() {
        let src =
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // simlint: allow(time-units) — n/a\n}\n";
        let v = lint_source(ENGINE, src);
        assert_eq!(active(&v), vec![(2, Rule::Panic)]);
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "fn f() {\n    let s = \"call .unwrap() and panic!\";\n    // panic! here is fine\n    /* HashMap in a block comment */\n    let _ = s;\n}\n";
        let v = lint_source(ENGINE, src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn waivers_inside_block_comments_do_not_suppress() {
        // The directive sits inside a block comment: it is commentary,
        // not a waiver, so the violation on the next line stays active.
        let src = "fn f(x: Option<u32>) -> u32 {\n    /* simlint: allow(panic) — not a real directive */\n    x.unwrap()\n}\n";
        let v = lint_source(ENGINE, src);
        assert_eq!(active(&v), vec![(3, Rule::Panic)]);
    }

    #[test]
    fn waivers_inside_strings_do_not_suppress() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    let _d = \"simlint: allow(panic) — in a string\";\n    x.unwrap()\n}\n";
        let v = lint_source(ENGINE, src);
        assert_eq!(active(&v), vec![(3, Rule::Panic)]);
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn f() -> u32 { 1 }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n        panic!(\"fine in tests\");\n    }\n}\n";
        let v = lint_source(ENGINE, src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn code_after_test_module_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\nfn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let v = lint_source(ENGINE, src);
        assert_eq!(active(&v), vec![(6, Rule::Panic)]);
    }

    #[test]
    fn hash_collections_flagged_in_sim_crates_only() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u64, u64> }\n";
        let v = lint_source(SIM, src);
        assert_eq!(
            active(&v),
            vec![(1, Rule::Collections), (2, Rule::Collections)]
        );
        let w = lint_source("crates/workloads/src/stats.rs", src);
        assert!(w.iter().all(|x| x.rule != Rule::Collections), "{w:?}");
    }

    #[test]
    fn wall_clock_and_ambient_rng_flagged() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    let r = rand::thread_rng();\n    let _ = (t, r);\n}\n";
        let v = lint_source(SIM, src);
        assert!(v.iter().any(|x| x.line == 2 && x.rule == Rule::Determinism));
        assert!(v.iter().any(|x| x.line == 3 && x.rule == Rule::Determinism));
    }

    #[test]
    fn threads_locks_and_atomics_flagged_in_sim_crates() {
        let src = "use std::sync::atomic::AtomicUsize;\n\
                   use std::sync::{Mutex, RwLock};\n\
                   fn f() {\n    std::thread::spawn(|| {});\n    let (tx, rx) = mpsc::channel();\n}\n";
        let v = lint_source(SIM, src);
        assert!(v.iter().all(|x| x.rule == Rule::Parallelism), "{v:?}");
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert!(lines.contains(&1), "atomics import: {v:?}");
        assert!(lines.contains(&2), "Mutex/RwLock import: {v:?}");
        assert!(lines.contains(&4), "thread spawn: {v:?}");
        assert!(lines.contains(&5), "mpsc channel: {v:?}");
    }

    #[test]
    fn time_unit_conversions_flagged_near_time_idents() {
        let src = "fn f(service_ms: f64) -> f64 {\n    service_ms / 1_000.0\n}\n";
        let v = lint_source(SIM, src);
        assert_eq!(active(&v), vec![(2, Rule::TimeUnits)]);
    }

    #[test]
    fn conversion_literals_without_time_idents_pass() {
        let src = "fn f(x: f64) -> bool {\n    (x - 2.0).abs() < 1e-9\n}\nfn gb(bytes: u64) -> f64 {\n    bytes as f64 / 1e9\n}\n";
        let v = lint_source(SIM, src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unnamed_rng_construction_flagged_in_fault_module() {
        let rel = "crates/core/src/faults.rs";
        let src = "fn f(seed: u64, parent: &mut SimRng) {\n    \
                   let a = SimRng::seed_from(seed);\n    \
                   let b = parent.fork();\n    let _ = (a, b);\n}\n";
        let v = lint_source(rel, src);
        // Both the fault-determinism rule and the workspace-wide
        // rng-provenance rule flag these constructions.
        assert!(v
            .iter()
            .any(|x| x.line == 2 && x.rule == Rule::FaultDeterminism));
        assert!(v
            .iter()
            .any(|x| x.line == 3 && x.rule == Rule::FaultDeterminism));
        assert!(v
            .iter()
            .any(|x| x.line == 2 && x.rule == Rule::RngProvenance));
        assert!(v
            .iter()
            .any(|x| x.line == 3 && x.rule == Rule::RngProvenance));
        let ok = "fn f(seed: u64) -> SimRng {\n    SimRng::named(seed, \"faults\")\n}\n";
        let v = lint_source(rel, ok);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn fs_writes_flagged_in_bench_and_harness() {
        let src = "fn save() {\n    std::fs::write(\"out.json\", b\"x\").ok();\n    \
                   let f = std::fs::File::create(\"log.txt\");\n    \
                   std::fs::create_dir_all(\"scratch\").ok();\n    let _ = f;\n}\n";
        for rel in [
            "crates/bench/src/bin/fig06_cello_latency.rs",
            "crates/harness/src/cache.rs",
        ] {
            let v = lint_source(rel, src);
            assert_eq!(
                active(&v),
                vec![
                    (2, Rule::CacheHygiene),
                    (3, Rule::CacheHygiene),
                    (4, Rule::CacheHygiene)
                ],
                "{rel}"
            );
        }
    }

    #[test]
    fn time_rs_itself_is_exempt_from_time_units() {
        let src = "pub fn as_millis_f64(ns: u64) -> f64 {\n    ns as f64 * 1e-6\n}\n";
        let v = lint_source("crates/simcore/src/time.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "fn f() -> &'static str {\n    r#\"contains .unwrap() and HashMap\"#\n}\n";
        let v = lint_source(ENGINE, src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn finding_display_is_file_line_rule() {
        let f = Finding::new("crates/x/src/lib.rs", 7, Rule::Panic, "msg".into());
        assert_eq!(format!("{f}"), "crates/x/src/lib.rs:7: [panic] msg");
        assert_eq!(
            f.github_annotation(),
            "::error file=crates/x/src/lib.rs,line=7::[panic] msg"
        );
    }

    #[test]
    fn findings_json_shape() {
        let mut f = Finding::new("a.rs", 3, Rule::FloatOrder, "m \"q\"".into());
        f.waived = true;
        f.waiver_reason = Some("why".into());
        let doc = findings_json(&[f]);
        assert!(
            doc.starts_with("{\"version\":1,\"counts\":{\"total\":1,\"active\":0,\"waived\":1}")
        );
        assert!(doc.contains("\"rule\":\"float-order\""));
        assert!(doc.contains("\"message\":\"m \\\"q\\\"\""));
        assert!(doc.contains("\"waiver_reason\":\"why\""));
        let empty = findings_json(&[]);
        assert!(empty.contains("\"findings\":[]"));
    }

    /// The acceptance check: the workspace this linter ships in must be
    /// clean, so `cargo test` enforces what CI's `cargo run -p simlint`
    /// enforces — and every waiver must carry a reason.
    #[test]
    fn shipped_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let findings = lint_workspace(root).expect("workspace readable");
        let bad: Vec<&Finding> = findings.iter().filter(|f| !f.waived).collect();
        assert!(
            bad.is_empty(),
            "workspace has lint violations:\n{}",
            bad.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        for f in findings.iter().filter(|f| f.waived) {
            assert!(
                f.waiver_reason.as_deref().is_some_and(|r| !r.is_empty()),
                "waiver without reason: {f}"
            );
        }
    }
}
