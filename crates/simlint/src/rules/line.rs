//! The line-pattern rules, ported from the original per-line scanner.
//!
//! These run over the lexer's masked lines ([`crate::lexer::Line`]):
//! string, char, and comment content is already blanked, so a pattern
//! can never fire inside text. Waivers are applied centrally in
//! [`crate::lint_files`], not here — each check pushes an (unwaived)
//! [`Finding`] and lets the directive pass sort it out.

use crate::lexer::Lexed;
use crate::{Finding, Rule, Scope};

/// Whether `code` contains `needle` starting at a token boundary.
///
/// Boundary checks only apply on sides where the needle itself is
/// identifier-like: `.unwrap()` matches after `x`, but `SystemTime`
/// does not match inside `MySystemTimer`.
pub(crate) fn has_token(code: &str, needle: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let needle_starts_ident = needle.chars().next().is_some_and(ident);
    let needle_ends_ident = needle.chars().next_back().is_some_and(ident);
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let at = from + pos;
        let before = code[..at].chars().next_back().unwrap_or(' ');
        let after = code[at + needle.len()..].chars().next().unwrap_or(' ');
        if (!needle_starts_ident || !ident(before)) && (!needle_ends_ident || !ident(after)) {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Splits a code line into identifier tokens.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty() && !t.chars().next().is_some_and(|c| c.is_ascii_digit()))
}

/// Whether an identifier names a floating-point time quantity.
fn is_time_ident(t: &str) -> bool {
    t.ends_with("_ns")
        || t.ends_with("_us")
        || t.ends_with("_ms")
        || t.ends_with("_secs")
        || t.contains("nanos")
        || t.contains("micros")
        || t.contains("millis")
        || t.contains("seconds")
}

/// Unit-conversion literals that signal raw time math.
const CONVERSION_LITERALS: [&str; 12] = [
    "1e3",
    "1e-3",
    "1e6",
    "1e-6",
    "1e9",
    "1e-9",
    "1_000.0",
    "1_000_000.0",
    "1_000_000_000.0",
    "1000.0",
    "1000000.0",
    "0.001",
];

/// Numeric-literal token-boundary check (identifier rules, plus `.`/digit
/// adjacency so `11e9` or `1e-31` never match `1e9`/`1e-3`).
fn has_literal(code: &str, lit: &str) -> bool {
    let numy = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.';
    let mut from = 0;
    while let Some(pos) = code[from..].find(lit) {
        let at = from + pos;
        let before_ok = at == 0 || !numy(code[..at].chars().next_back().unwrap_or(' '));
        let after_ok = !numy(code[at + lit.len()..].chars().next().unwrap_or(' '));
        if before_ok && after_ok {
            return true;
        }
        from = at + lit.len();
    }
    false
}

/// Forbidden sources of nondeterminism, with diagnostics.
const NONDETERMINISM: [(&str, &str); 6] = [
    (
        "thread_rng",
        "ambient RNG; use a seeded `mimd_sim::SimRng` stream instead",
    ),
    (
        "Instant::now",
        "wall-clock read in simulation code; use `SimTime` from the event loop",
    ),
    (
        "std::time::Instant",
        "wall-clock type in simulation code; use `SimTime`",
    ),
    (
        "SystemTime",
        "wall-clock type in simulation code; use `SimTime`",
    ),
    (
        "rand::random",
        "ambient RNG; use a seeded `mimd_sim::SimRng` stream instead",
    ),
    (
        "RandomState",
        "per-process-seeded hasher; iteration order will differ across runs",
    ),
];

/// Panicking constructs banned from hot paths.
const PANICKY: [(&str, &str); 6] = [
    (
        ".unwrap()",
        "convert to `Result`/`Option` handling (or `// simlint: allow(panic)` with a why)",
    ),
    (
        ".expect(",
        "convert to `Result`/`Option` handling (or `// simlint: allow(panic)` with a why)",
    ),
    (
        "panic!",
        "return an error instead of aborting the simulation",
    ),
    (
        "unreachable!",
        "return an error instead of aborting the simulation",
    ),
    ("todo!", "unfinished code must not ship in the engine"),
    (
        "unimplemented!",
        "unfinished code must not ship in the engine",
    ),
];

/// Threading and synchronization constructs banned below the harness.
///
/// The simulator's determinism story is "independent shard engines,
/// joined only at the conductor's deterministic merge, fanned out by
/// `mimd_harness::parallel_map` across cells" — any *other* thread, lock,
/// channel, or atomic underneath it either breaks reproducibility or
/// silently depends on it being unused. The engine's one sanctioned
/// thread seam (`ArraySim`'s structured shard run) carries an explicit
/// waiver; new seams must justify themselves the same way. `Arc` is
/// deliberately absent: sharing immutable data is order-free.
const PARALLELISM: [(&str, &str); 8] = [
    (
        "std::thread",
        "threads below the harness are banned outside the engine's waived conductor seam; \
         fan out via `mimd_harness::parallel_map` or merge like the sharded engine",
    ),
    (
        "thread::spawn",
        "threads below the harness are banned outside the engine's waived conductor seam; \
         fan out via `mimd_harness::parallel_map` or merge like the sharded engine",
    ),
    (
        "thread::scope",
        "threads below the harness are banned outside the engine's waived conductor seam; \
         fan out via `mimd_harness::parallel_map` or merge like the sharded engine",
    ),
    (
        "Mutex",
        "no shared mutable state below the harness; pass data by value or `Arc` of immutable data",
    ),
    (
        "RwLock",
        "no shared mutable state below the harness; pass data by value or `Arc` of immutable data",
    ),
    (
        "Condvar",
        "no blocking synchronization in simulation code; the event queue is the only scheduler",
    ),
    (
        "mpsc",
        "no channels in simulation code; return results from the harness's ordered map",
    ),
    (
        "sync::atomic",
        "atomics imply cross-thread mutation; simulation state is single-threaded by contract",
    ),
];

/// Filesystem-write entry points covered by the cache-hygiene rule.
///
/// Bench and harness code may only write under the `MIMD_JSON_DIR` and
/// `MIMD_CACHE_DIR` roots; the sanctioned helpers (`write_json`, the run
/// cache's store path) carry explicit waivers at each call site, so any
/// *new* write call is flagged until it is either routed through them or
/// justified.
const FS_WRITES: [&str; 7] = [
    "fs::write",
    "File::create",
    "create_dir_all",
    "OpenOptions",
    "fs::rename",
    "fs::remove_file",
    "fs::copy",
];

/// RNG constructions banned from the fault module.
///
/// Fault draws must come from the one named stream created in
/// `FaultCtx::new` (`SimRng::named(seed, "faults")`). An anonymous seed
/// or a fork of an engine stream would consume draws the fault-free run
/// doesn't, breaking the empty-plan byte-identity guarantee.
const FAULT_RNG: [(&str, &str); 2] = [
    (
        "seed_from",
        "fault code must draw from the dedicated `SimRng::named(seed, \"faults\")` stream",
    ),
    (
        ".fork(",
        "forking entangles fault draws with the parent stream; use the dedicated \
         `SimRng::named(seed, \"faults\")` stream",
    ),
];

/// Rounding methods that call libm on baseline x86-64.
const LIBM_ROUNDING: [&str; 5] = [
    ".rem_euclid(",
    ".round()",
    ".floor()",
    ".ceil()",
    ".trunc()",
];

/// Runs every in-scope line rule over a lexed file.
pub fn check(rel: &str, scope: &Scope, lx: &Lexed, out: &mut Vec<Finding>) {
    for (idx, line) in lx.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        let code = line.code.as_str();
        let mut push = |rule: Rule, message: String| {
            out.push(Finding::new(rel, lineno, rule, message));
        };

        if scope.determinism {
            for (needle, why) in NONDETERMINISM {
                if has_token(code, needle) {
                    push(Rule::Determinism, format!("`{needle}`: {why}"));
                }
            }
        }
        if scope.collections {
            for ty in ["HashMap", "HashSet"] {
                if has_token(code, ty) {
                    push(
                        Rule::Collections,
                        format!(
                            "`{ty}` has per-process iteration order; for point lookups on \
                             `u64` keys use the fixed-hash `engine::flat::FlatMap` (no \
                             iteration), for ordered iteration `BTree{}`",
                            &ty[4..]
                        ),
                    );
                }
            }
        }
        if scope.time_units {
            let has_time_ident = idents(code).any(is_time_ident);
            if has_time_ident {
                for lit in CONVERSION_LITERALS {
                    if has_literal(code, lit) {
                        push(
                            Rule::TimeUnits,
                            format!(
                                "raw time-unit conversion `{lit}` next to a time quantity; \
                                 route through `SimTime`/`SimDuration` or `mimd_sim::time` \
                                 constants"
                            ),
                        );
                        break;
                    }
                }
            }
        }
        if scope.panic {
            for (needle, why) in PANICKY {
                if has_token(code, needle) {
                    push(Rule::Panic, format!("`{needle}` in a no-panic zone; {why}"));
                }
            }
        }
        if scope.parallelism {
            for (needle, why) in PARALLELISM {
                if has_token(code, needle) {
                    push(Rule::Parallelism, format!("`{needle}`: {why}"));
                }
            }
        }
        if scope.fault_determinism {
            for (needle, why) in FAULT_RNG {
                if has_token(code, needle) {
                    push(Rule::FaultDeterminism, format!("`{needle}`: {why}"));
                }
            }
        }
        if scope.libm_round {
            for needle in LIBM_ROUNDING {
                if has_token(code, needle) {
                    push(
                        Rule::LibmRound,
                        format!(
                            "`{needle}` calls libm on the per-request path; use the exact \
                             `mimd_disk::mechanics` helpers (`frac`, `round_u64`, \
                             `ceil_u32`), or waive with a why"
                        ),
                    );
                }
            }
        }
        if scope.cache_hygiene {
            for needle in FS_WRITES {
                if has_token(code, needle) {
                    push(
                        Rule::CacheHygiene,
                        format!(
                            "`{needle}` writes the filesystem outside the sanctioned \
                             `MIMD_JSON_DIR`/`MIMD_CACHE_DIR` helpers; route through \
                             `mimd_harness::write_json` / the run cache, or waive with \
                             a why"
                        ),
                    );
                }
            }
        }
    }
}
