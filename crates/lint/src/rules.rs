//! The lint rule set.
//!
//! Six families, mirroring the invariants the evaluation pipeline
//! depends on (see `DESIGN.md` §10/§15):
//!
//! * **determinism (token)** — the CI telemetry gate byte-diffs run
//!   reports, so nothing on a report path may read wall-clock time, draw
//!   OS entropy, or iterate an unordered map. Applied to *every* crate;
//!   the allowlist for these rules must stay empty (enforced at
//!   `lint.toml` parse time).
//! * **determinism (AST)** — float comparison/ordering hazards the token
//!   scanner cannot see: `==`/`!=` against inexact float expressions,
//!   `partial_cmp(..).unwrap()`, comparator closures that should use
//!   `total_cmp`, and float accumulation over unordered iteration.
//! * **exhaustiveness** — `match` over a workspace-owned event/error
//!   enum must not have an unguarded `_`/binding catch-all arm: adding a
//!   variant must be a compile surface, not a silent drop.
//! * **robustness** — library code of the model/substrate crates must
//!   surface failures as typed errors. Per-site: no
//!   `unwrap()`/`expect()`/`panic!`-family calls outside test regions.
//!   Interprocedural: no call path from a robustness-crate public fn to
//!   an explicit panic in any reachable crate (the workspace call graph
//!   covers what per-site scanning of a single crate cannot).
//! * **numeric** — the model crates implement the paper's equations
//!   (2)–(5); lossy `as` casts are flagged for audit, and any division
//!   by a `1 − ρ`-shaped denominator must sit in a file that checks the
//!   M/G/1 stability condition `λμ < 1`.
//! * **hygiene** — every crate root must carry `#![forbid(unsafe_code)]`
//!   and `#![deny(missing_docs)]`.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{visit_fns, BinOp, Expr, SourceAst};
use crate::callgraph::{CallGraph, FnNode};
use crate::lexer::{test_region_mask, tokenize, Token, TokenKind};
use crate::parser;

/// Rule ids, as they appear in findings and `lint.toml`.
pub mod id {
    /// `std::time::{Instant, SystemTime}` on a report path.
    pub const WALL_CLOCK: &str = "determinism/wall-clock";
    /// OS entropy (`thread_rng`, `from_entropy`, `OsRng`).
    pub const ENTROPY: &str = "determinism/entropy";
    /// `HashMap`/`HashSet` (unordered iteration) on a report path.
    pub const UNORDERED_MAP: &str = "determinism/unordered-map";
    /// `==`/`!=` against an inexact float expression, or
    /// `partial_cmp(..).unwrap()`.
    pub const FLOAT_CMP: &str = "determinism/float-cmp";
    /// Float comparator passed to `sort_by`-style methods without
    /// `total_cmp`.
    pub const FLOAT_SORT: &str = "determinism/float-sort";
    /// Float accumulation over a container without documented
    /// deterministic iteration order.
    pub const FLOAT_ACCUM: &str = "determinism/float-accum";
    /// Unguarded catch-all arm in a `match` over a workspace-owned enum.
    pub const WILDCARD_ARM: &str = "exhaustiveness/wildcard-arm";
    /// A panicking construct in robustness-crate library code, or a call
    /// path from robustness-crate public API to one.
    pub const PANIC_PATH: &str = "robustness/panic-path";
    /// `as` numeric casts in the model crates.
    pub const LOSSY_CAST: &str = "numeric/lossy-cast";
    /// Division by a `1 − ρ` denominator without a stability guard.
    pub const UNSTABLE_DENOMINATOR: &str = "numeric/unstable-denominator";
    /// Missing `#![forbid(unsafe_code)]` in a crate root.
    pub const FORBID_UNSAFE: &str = "hygiene/forbid-unsafe";
    /// Missing `#![deny(missing_docs)]` in a crate root.
    pub const DENY_MISSING_DOCS: &str = "hygiene/deny-missing-docs";
    /// An allowlist entry that matched nothing (reported by the driver).
    pub const STALE_ALLOW: &str = "allowlist/stale";
}

/// Crates whose *library* code must be panic-free. `lint` is included so
/// the analyzer is self-hosting: its own parser must never panic on
/// arbitrary workspace source.
pub const ROBUSTNESS_CRATES: [&str; 11] = [
    "availability",
    "core",
    "dfs",
    "ds",
    "lint",
    "metrics",
    "net",
    "sim",
    "trace",
    "verify",
    "workload",
];

/// Files allowed to read wall-clock time: the perf harness *is* a
/// wall-clock measurement, and its numbers are explicitly outside the
/// byte-stable report contract (the comparator uses a relative
/// threshold, not byte equality). Nothing else is exempt — keeping this
/// a named constant rather than a `lint.toml` entry records that the
/// exemption is structural, not an allowlisted one-off.
pub const WALL_CLOCK_EXEMPT_FILES: [&str; 1] = ["crates/experiments/src/bin/perf.rs"];

/// Crates implementing the paper's numeric model (equations (2)–(5)).
pub const NUMERIC_CRATES: [&str; 2] = ["availability", "core"];

/// Workspace-owned event/error/policy enums whose `match`es must stay
/// exhaustive (the exhaustiveness family's scope). Sorted.
pub const OWNED_ENUMS: [&str; 7] = [
    "ClusterEvent",
    "KillCause",
    "PolicyKind",
    "ReducerPhase",
    "SchedPolicy",
    "SimError",
    "TraceEvent",
];

/// All rule ids a finding can carry, for documentation and the report's
/// per-rule counters. Sorted.
pub const ALL_RULES: [&str; 13] = [
    id::STALE_ALLOW,
    id::ENTROPY,
    id::FLOAT_ACCUM,
    id::FLOAT_CMP,
    id::FLOAT_SORT,
    id::UNORDERED_MAP,
    id::WALL_CLOCK,
    id::WILDCARD_ARM,
    id::DENY_MISSING_DOCS,
    id::FORBID_UNSAFE,
    id::LOSSY_CAST,
    id::UNSTABLE_DENOMINATOR,
    id::PANIC_PATH,
];

/// One raw finding (not yet matched against the allowlist).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawFinding {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: u32,
    /// Rule id.
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Context the rules need about the file being scanned.
#[derive(Debug, Clone, Copy)]
pub struct FileContext<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// The crate's directory name under `crates/` (e.g. `sim`).
    pub crate_name: &'a str,
    /// Whether this file is the crate root (`src/lib.rs`).
    pub is_crate_root: bool,
}

/// The result of scanning one file: its findings plus the parsed AST
/// (reused by the workspace call graph so each file parses once).
#[derive(Debug, Clone)]
pub struct FileScan {
    /// Per-file rule violations, sorted.
    pub findings: Vec<RawFinding>,
    /// The file's AST.
    pub ast: SourceAst,
}

/// Scans one file: token rules, then AST rules on the parse.
pub fn scan_file(ctx: FileContext<'_>, source: &str) -> FileScan {
    let tokens = tokenize(source);
    let in_test = test_region_mask(&tokens);
    let ast = parser::parse(&tokens);
    let mut findings = Vec::new();

    determinism_token_rules(&ctx, &tokens, &mut findings);
    if ROBUSTNESS_CRATES.contains(&ctx.crate_name) {
        panic_site_rules(&ctx, &tokens, &in_test, &mut findings);
    }
    if NUMERIC_CRATES.contains(&ctx.crate_name) {
        numeric_rules(&ctx, &tokens, &in_test, &mut findings);
    }
    if ctx.is_crate_root {
        hygiene_rules(&ctx, &tokens, &mut findings);
    }
    ast_rules(&ctx, &ast, source, &mut findings);

    findings.sort();
    FileScan { findings, ast }
}

fn push(
    findings: &mut Vec<RawFinding>,
    ctx: &FileContext<'_>,
    line: u32,
    rule: &'static str,
    message: String,
) {
    findings.push(RawFinding {
        path: ctx.path.to_string(),
        line,
        rule,
        message,
    });
}

// --------------------------------------------------------------- token rules

/// Determinism: wall-clock, entropy, unordered maps — anywhere,
/// including tests (a nondeterministic test is still a flaky test).
fn determinism_token_rules(ctx: &FileContext<'_>, tokens: &[Token<'_>], out: &mut Vec<RawFinding>) {
    let wall_clock_exempt = WALL_CLOCK_EXEMPT_FILES.contains(&ctx.path);
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text {
            "Instant" | "SystemTime" if wall_clock_exempt => {}
            "time" if wall_clock_exempt && is_path_segment_of(tokens, i, "std") => {}
            "Instant" | "SystemTime" => push(
                out,
                ctx,
                t.line,
                id::WALL_CLOCK,
                format!(
                    "`{}` reads wall-clock time; report paths must use simulated \
                     time or `adapt-telemetry` counters",
                    t.text
                ),
            ),
            // `std :: time` as a path (covers `use std::time::…`).
            "time" if is_path_segment_of(tokens, i, "std") => push(
                out,
                ctx,
                t.line,
                id::WALL_CLOCK,
                "`std::time` is wall-clock; report paths must be deterministic".to_string(),
            ),
            "thread_rng" | "from_entropy" | "OsRng" => push(
                out,
                ctx,
                t.line,
                id::ENTROPY,
                format!(
                    "`{}` draws OS entropy; all randomness must derive from an \
                     explicit seed (`StdRng::seed_from_u64`)",
                    t.text
                ),
            ),
            "HashMap" | "HashSet" => push(
                out,
                ctx,
                t.line,
                id::UNORDERED_MAP,
                format!(
                    "`{}` iterates in unspecified order; use `BTreeMap`/`BTreeSet` \
                     (or sort keys before emission) so reports stay byte-stable",
                    t.text
                ),
            ),
            _ => {}
        }
    }
}

/// Whether token `i` is the segment after `prefix::` (e.g. `std::time`).
fn is_path_segment_of(tokens: &[Token<'_>], i: usize, prefix: &str) -> bool {
    i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].is_ident(prefix)
}

/// Per-site panic scan: no `unwrap()`/`expect(…)`/`panic!`/
/// `unimplemented!`/`todo!`/`unreachable!` outside test regions. The
/// token scan covers *all* non-test code (const initialisers included),
/// which per-fn AST traversal would miss; the interprocedural half of
/// the rule lives in [`cross_crate_panic_paths`].
fn panic_site_rules(
    ctx: &FileContext<'_>,
    tokens: &[Token<'_>],
    in_test: &[bool],
    out: &mut Vec<RawFinding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |c: char| tokens.get(i + 1).is_some_and(|n| n.is_punct(c));
        match t.text {
            // `.unwrap()` / `.expect(` — require the method-call shape so
            // identifiers like `unwrap_or_default` or a field named
            // `expect` don't trip the rule.
            "unwrap" | "expect" if i > 0 && tokens[i - 1].is_punct('.') && next_is('(') => push(
                out,
                ctx,
                t.line,
                id::PANIC_PATH,
                format!(
                    "`.{}()` in library code; return the crate's typed error instead",
                    t.text
                ),
            ),
            "panic" | "unimplemented" | "todo" | "unreachable" if next_is('!') => push(
                out,
                ctx,
                t.line,
                id::PANIC_PATH,
                format!(
                    "`{}!` in library code; return the crate's typed error instead",
                    t.text
                ),
            ),
            _ => {}
        }
    }
}

/// Numeric-safety rules for the model crates.
fn numeric_rules(
    ctx: &FileContext<'_>,
    tokens: &[Token<'_>],
    in_test: &[bool],
    out: &mut Vec<RawFinding>,
) {
    const NUMERIC_TYPES: [&str; 14] = [
        "f32", "f64", "i128", "i16", "i32", "i64", "i8", "isize", "u128", "u16", "u32", "u64",
        "u8", "usize",
    ];
    // A file dividing by a `1 − ρ` denominator must name the stability
    // condition somewhere: the typed error, the predicate, or an explicit
    // `ρ ≥ 1` comparison (`>=` lexes as `>` `=`).
    let has_stability_guard = tokens.windows(3).any(|w| {
        w[0].is_ident("UnstableQueue")
            || w[0].is_ident("is_stable")
            || (w[0].is_punct('>') && w[1].is_punct('=') && w[2].text == "1.0")
    });

    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        // `expr as <numeric>` — lossy float↔int (and narrowing) casts.
        if t.is_ident("as")
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident && NUMERIC_TYPES.contains(&n.text))
        {
            // `use x as y` aliasing never has a numeric type on the right,
            // so reaching here means a cast expression.
            push(
                out,
                ctx,
                t.line,
                id::LOSSY_CAST,
                format!(
                    "`as {}` cast in a model crate; audit for precision/truncation \
                     loss and allowlist deliberate casts",
                    tokens[i + 1].text
                ),
            );
        }
        // `/ (1.0 - …)` — the equation (3)/(5) busy-period denominator.
        if t.is_punct('/')
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            && tokens.get(i + 2).is_some_and(|n| n.text == "1.0")
            && tokens.get(i + 3).is_some_and(|n| n.is_punct('-'))
            && !has_stability_guard
        {
            push(
                out,
                ctx,
                t.line,
                id::UNSTABLE_DENOMINATOR,
                "division by a `1 - rho`-shaped denominator without an M/G/1 \
                 stability guard in this file; check `lambda * mu < 1` \
                 (equations (3)/(5) diverge at rho = 1)"
                    .to_string(),
            );
        }
    }
}

/// Hygiene: crate roots must forbid `unsafe` and deny missing docs.
fn hygiene_rules(ctx: &FileContext<'_>, tokens: &[Token<'_>], out: &mut Vec<RawFinding>) {
    if !has_inner_attribute(tokens, "forbid", "unsafe_code") {
        push(
            out,
            ctx,
            0,
            id::FORBID_UNSAFE,
            "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
        );
    }
    if !has_inner_attribute(tokens, "deny", "missing_docs") {
        push(
            out,
            ctx,
            0,
            id::DENY_MISSING_DOCS,
            "crate root lacks `#![deny(missing_docs)]`".to_string(),
        );
    }
}

/// Matches `#![<level>(<lint>)]` anywhere in the token stream.
fn has_inner_attribute(tokens: &[Token<'_>], level: &str, lint: &str) -> bool {
    tokens.windows(7).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident(level)
            && w[4].is_punct('(')
            && w[5].is_ident(lint)
            && w[6].is_punct(')')
    })
}

// ----------------------------------------------------------------- AST rules

/// Methods taking a comparator closure that must use `total_cmp` for
/// float keys.
const COMPARATOR_METHODS: [&str; 5] = [
    "binary_search_by",
    "max_by",
    "min_by",
    "sort_by",
    "sort_unstable_by",
];

/// The float-determinism and exhaustiveness families, walked over every
/// non-test fn body. Tests are exempt: the float rules would otherwise
/// flag legitimate bit-exact expectation checks, and exhaustive listing
/// in tests adds churn without protecting a report path.
fn ast_rules(ctx: &FileContext<'_>, ast: &SourceAst, source: &str, out: &mut Vec<RawFinding>) {
    // Local evidence of deterministic iteration order for the accum rule.
    let btree_ordered = source.contains("BTreeMap") || source.contains("BTreeSet");
    visit_fns(&ast.items, &mut |f, impl_ty, in_test| {
        if in_test {
            return;
        }
        let Some(body) = &f.body else { return };
        for e in &body.exprs {
            e.walk(&mut |x| {
                float_cmp_rule(ctx, x, out);
                float_sort_rule(ctx, x, out);
                float_accum_rule(ctx, x, btree_ordered, out);
                wildcard_arm_rule(ctx, x, impl_ty, out);
            });
        }
    });
}

/// `==`/`!=` where an operand is float-valued by syntactic evidence, or
/// `partial_cmp(..).unwrap()`.
fn float_cmp_rule(ctx: &FileContext<'_>, x: &Expr, out: &mut Vec<RawFinding>) {
    match x {
        Expr::Binary {
            op: BinOp::Eq | BinOp::Ne,
            lhs,
            rhs,
            line,
        } => {
            if let Some(why) = floatish(lhs).or_else(|| floatish(rhs)) {
                push(
                    out,
                    ctx,
                    *line,
                    id::FLOAT_CMP,
                    format!(
                        "float equality comparison ({why}); compare integers, use an \
                         explicit tolerance, or `total_cmp` — exact float equality is \
                         only sound for bit-exact sentinels"
                    ),
                );
            }
        }
        Expr::Method {
            recv, name, line, ..
        } if (name == "unwrap" || name == "expect")
            && matches!(recv.as_ref(), Expr::Method { name, .. } if name == "partial_cmp") =>
        {
            push(
                out,
                ctx,
                *line,
                id::FLOAT_CMP,
                format!(
                    "`partial_cmp(..).{name}()` panics on NaN and orders floats \
                     partially; use `total_cmp` for a deterministic total order"
                ),
            );
        }
        _ => {}
    }
}

/// Syntactic evidence that an expression is float-valued in a way exact
/// equality cannot be trusted on. Bare *exactly representable* literals
/// (`0.0`, `1.0`, `0.5`) are allowed sentinels; inexact literals
/// (`0.3`, `1e-9`), arithmetic over float literals, and casts to
/// `f32`/`f64` are not.
fn floatish(e: &Expr) -> Option<&'static str> {
    let mut inexact_lit = false;
    let mut float_lit = false;
    let mut arith = false;
    let mut float_cast = false;
    e.walk(&mut |x| match x {
        Expr::Number { text, .. } if is_float_literal(text) => {
            float_lit = true;
            if !exactly_representable(text) {
                inexact_lit = true;
            }
        }
        Expr::Binary { op, .. } if !matches!(op, BinOp::Eq | BinOp::Ne) => arith = true,
        Expr::Cast { ty, .. } if ty == "f32" || ty == "f64" => float_cast = true,
        _ => {}
    });
    if inexact_lit {
        Some("operand contains a float literal with no exact binary representation")
    } else if float_cast {
        Some("operand casts to a float type")
    } else if arith && float_lit {
        Some("operand is float arithmetic")
    } else {
        None
    }
}

/// Whether a `Number` token is a float literal (decimal point, exponent,
/// or `f32`/`f64` suffix; hex/octal/binary are integers).
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0o") || text.starts_with("0b") {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || text.contains('e')
        || text.contains('E')
}

/// Whether a decimal float literal is exactly representable as an `f64`:
/// its value `a/10^k` must reduce to a dyadic rational with numerator
/// ≤ 2⁵³. Pure integer arithmetic — no float rounding in the checker.
fn exactly_representable(text: &str) -> bool {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let body = cleaned
        .strip_suffix("f64")
        .or_else(|| cleaned.strip_suffix("f32"))
        .unwrap_or(&cleaned);
    // Split mantissa / exponent.
    let (mantissa, exp) = match body.split_once(['e', 'E']) {
        Some((m, e)) => match e.parse::<i32>() {
            Ok(v) => (m, v),
            Err(_) => return false,
        },
        None => (body, 0),
    };
    let (int_part, frac_part) = match mantissa.split_once('.') {
        Some((i, f)) => (i, f),
        None => (mantissa, ""),
    };
    let digits: String = [int_part, frac_part].concat();
    if digits.len() > 38 || digits.is_empty() {
        return false; // too wide for u128: treat as inexact
    }
    let Ok(mut a) = digits.parse::<u128>() else {
        return false;
    };
    // value = a * 10^(exp - frac_len): k > 0 means k fractional digits.
    let k = frac_part.len() as i32 - exp;
    if k <= 0 {
        // Integer value a * 10^(-k): exact iff it fits in 2^53.
        for _ in 0..(-k) {
            a = match a.checked_mul(10) {
                Some(v) => v,
                None => return false,
            };
        }
        return a <= 1u128 << 53;
    }
    // a / (2^k · 5^k): dyadic iff 5^k divides a; then the numerator
    // a / 5^k must fit the 53-bit mantissa.
    for _ in 0..k {
        if a % 5 == 0 {
            a /= 5;
        } else {
            return false;
        }
    }
    a <= 1u128 << 53
}

/// Comparator-taking methods whose comparator uses `partial_cmp`.
fn float_sort_rule(ctx: &FileContext<'_>, x: &Expr, out: &mut Vec<RawFinding>) {
    let Expr::Method {
        name, args, line, ..
    } = x
    else {
        return;
    };
    if !COMPARATOR_METHODS.contains(&name.as_str()) {
        return;
    }
    let mut uses_partial = false;
    for a in args {
        a.walk(&mut |y| {
            if matches!(y, Expr::Method { name, .. } if name == "partial_cmp") {
                uses_partial = true;
            }
        });
    }
    if uses_partial {
        push(
            out,
            ctx,
            *line,
            id::FLOAT_SORT,
            format!(
                "`{name}` comparator uses `partial_cmp`; use `total_cmp` so float \
                 ordering is total and deterministic (NaN has no partial order)"
            ),
        );
    }
}

/// Float accumulation (`sum::<f64>()`, float-seeded `fold`) over
/// `values()`/`keys()` of a container, unless the file shows the
/// container is ordered (`BTreeMap`/`BTreeSet`).
fn float_accum_rule(
    ctx: &FileContext<'_>,
    x: &Expr,
    btree_ordered: bool,
    out: &mut Vec<RawFinding>,
) {
    if btree_ordered {
        return;
    }
    let Expr::Method {
        recv,
        name,
        turbofish,
        args,
        line,
    } = x
    else {
        return;
    };
    let accumulates = match name.as_str() {
        "sum" | "product" => turbofish.iter().any(|t| t == "f32" || t == "f64"),
        "fold" => args.first().is_some_and(|seed| {
            let mut float_seed = false;
            seed.walk(&mut |y| {
                if matches!(y, Expr::Number { text, .. } if is_float_literal(text)) {
                    float_seed = true;
                }
            });
            float_seed
        }),
        _ => false,
    };
    if !accumulates {
        return;
    }
    let mut unordered_source = false;
    recv.walk(&mut |y| {
        if matches!(y, Expr::Method { name, .. } if name == "values" || name == "keys") {
            unordered_source = true;
        }
    });
    if unordered_source {
        push(
            out,
            ctx,
            *line,
            id::FLOAT_ACCUM,
            format!(
                "float `{name}` over `values()`/`keys()` with no documented \
                 deterministic iteration order in this file; float addition is \
                 non-associative, so accumulation order changes the result"
            ),
        );
    }
}

/// Unguarded catch-all arms in matches over workspace-owned enums.
fn wildcard_arm_rule(
    ctx: &FileContext<'_>,
    x: &Expr,
    impl_ty: Option<&str>,
    out: &mut Vec<RawFinding>,
) {
    let Expr::Match { arms, .. } = x else { return };
    let owned = arms.iter().find_map(|a| {
        a.pat
            .paths
            .iter()
            .find_map(|p| owned_enum_in_path(p, impl_ty))
    });
    let Some(enum_name) = owned else { return };
    for a in arms {
        if a.pat.top_wildcard && !a.has_guard {
            push(
                out,
                ctx,
                a.line,
                id::WILDCARD_ARM,
                format!(
                    "catch-all arm in a `match` over `{enum_name}`; list the \
                     variants so adding one is a compile error, not a silent drop"
                ),
            );
        }
    }
}

/// Whether a pattern path references a workspace-owned enum: by first
/// segment (`TraceEvent::NodeUp`), by qualifying segment
/// (`trace::TraceEvent::NodeUp`), or via `Self::` inside the enum's own
/// impl block.
fn owned_enum_in_path(path: &[String], impl_ty: Option<&str>) -> Option<&'static str> {
    for owned in OWNED_ENUMS {
        if path.iter().any(|s| s == owned) {
            return Some(owned);
        }
        if path.first().is_some_and(|s| s == "Self") && impl_ty == Some(owned) {
            return Some(owned);
        }
    }
    None
}

// ------------------------------------------------------------ interprocedural

/// The interprocedural half of `robustness/panic-path`: one finding per
/// explicit panic site reachable from robustness-crate public API but
/// living *outside* those crates (inside them, the per-site scan already
/// denies the site). The message carries the shortest call path.
pub fn cross_crate_panic_paths(
    graph: &CallGraph,
    deps: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (target, chain) in graph.reachable_panics(&ROBUSTNESS_CRATES, deps) {
        let Some(f) = graph.fns.get(target) else {
            continue;
        };
        let route: Vec<String> = chain
            .iter()
            .filter_map(|&i| graph.fns.get(i).map(FnNode::display))
            .collect();
        for p in &f.panics {
            out.push(RawFinding {
                path: f.path.clone(),
                line: p.line,
                rule: id::PANIC_PATH,
                message: format!(
                    "`{}` is reachable from robustness-crate public API: {}; \
                     return a typed error or make the callee infallible",
                    p.what,
                    route.join(" -> ")
                ),
            });
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FileContext<'static> {
        FileContext {
            path: "crates/core/src/x.rs",
            crate_name: "core",
            is_crate_root: false,
        }
    }

    fn rules_hit(ctx: FileContext<'_>, src: &str) -> Vec<&'static str> {
        scan_file(ctx, src)
            .findings
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn wall_clock_fires_on_instant() {
        assert!(rules_hit(ctx(), "fn f() { let t = Instant::now(); }").contains(&id::WALL_CLOCK));
        assert!(rules_hit(ctx(), "use std::time::Duration;").contains(&id::WALL_CLOCK));
    }

    #[test]
    fn wall_clock_exemption_covers_only_the_perf_harness() {
        let perf = FileContext {
            path: "crates/experiments/src/bin/perf.rs",
            crate_name: "experiments",
            is_crate_root: false,
        };
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }";
        assert!(!rules_hit(perf, src).contains(&id::WALL_CLOCK));
        // The exemption is wall-clock only: entropy in the harness would
        // still break run-to-run comparability and stays banned.
        assert!(rules_hit(perf, "fn f() { rand::thread_rng(); }").contains(&id::ENTROPY));
        // Any other file, same crate, still trips the rule.
        assert!(rules_hit(
            FileContext {
                path: "crates/experiments/src/bench.rs",
                crate_name: "experiments",
                is_crate_root: false,
            },
            src
        )
        .contains(&id::WALL_CLOCK));
    }

    #[test]
    fn entropy_fires_on_thread_rng() {
        assert!(
            rules_hit(ctx(), "fn f() { let mut r = rand::thread_rng(); }").contains(&id::ENTROPY)
        );
    }

    #[test]
    fn unordered_map_fires() {
        assert!(rules_hit(ctx(), "use std::collections::HashMap;").contains(&id::UNORDERED_MAP));
    }

    #[test]
    fn panic_path_fires_only_outside_tests() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(rules_hit(ctx(), src).contains(&id::PANIC_PATH));
        let test_src = "#[cfg(test)]\nmod tests { fn f(x: Option<u32>) -> u32 { x.unwrap() } }";
        assert!(!rules_hit(ctx(), test_src).contains(&id::PANIC_PATH));
    }

    #[test]
    fn panic_path_covers_unreachable_macro() {
        assert!(rules_hit(ctx(), "fn f() { unreachable!(\"no\") }").contains(&id::PANIC_PATH));
    }

    #[test]
    fn panic_path_ignores_unwrap_or_default() {
        assert!(!rules_hit(
            ctx(),
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or_default() }"
        )
        .contains(&id::PANIC_PATH));
    }

    #[test]
    fn lint_crate_is_in_scope_and_experiments_is_not() {
        let lint = FileContext {
            path: "crates/lint/src/parser.rs",
            crate_name: "lint",
            is_crate_root: false,
        };
        assert!(
            rules_hit(lint, "fn f(x: Option<u32>) -> u32 { x.unwrap() }").contains(&id::PANIC_PATH)
        );
        let exp = FileContext {
            path: "crates/experiments/src/x.rs",
            crate_name: "experiments",
            is_crate_root: false,
        };
        assert!(
            !rules_hit(exp, "fn f(x: Option<u32>) -> u32 { x.unwrap() }").contains(&id::PANIC_PATH)
        );
    }

    #[test]
    fn lossy_cast_fires_in_model_crates_only() {
        let src = "fn f(n: usize) -> f64 { n as f64 }";
        assert!(rules_hit(ctx(), src).contains(&id::LOSSY_CAST));
        let sim = FileContext {
            path: "crates/sim/src/x.rs",
            crate_name: "sim",
            is_crate_root: false,
        };
        assert!(!rules_hit(sim, src).contains(&id::LOSSY_CAST));
    }

    #[test]
    fn unstable_denominator_requires_guard() {
        let bad = "fn f(mu: f64, rho: f64) -> f64 { mu / (1.0 - rho) }";
        assert!(rules_hit(ctx(), bad).contains(&id::UNSTABLE_DENOMINATOR));
        let good = "fn f(mu: f64, rho: f64) -> Result<f64, E> {\n\
                    if rho >= 1.0 { return Err(E::UnstableQueue { rho }); }\n\
                    Ok(mu / (1.0 - rho)) }";
        assert!(!rules_hit(ctx(), good).contains(&id::UNSTABLE_DENOMINATOR));
    }

    #[test]
    fn hygiene_fires_on_bare_crate_root() {
        let root = FileContext {
            path: "crates/core/src/lib.rs",
            crate_name: "core",
            is_crate_root: true,
        };
        let hits = rules_hit(root, "//! docs\npub fn f() {}");
        assert!(hits.contains(&id::FORBID_UNSAFE));
        assert!(hits.contains(&id::DENY_MISSING_DOCS));
        let clean = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}";
        assert!(rules_hit(root, clean).is_empty());
    }

    // ------------------------------------------------------- float-cmp rule

    #[test]
    fn float_cmp_flags_inexact_literals_and_allows_sentinels() {
        assert!(rules_hit(ctx(), "fn f(x: f64) -> bool { x == 0.3 }").contains(&id::FLOAT_CMP));
        assert!(rules_hit(ctx(), "fn f(x: f64) -> bool { x != 1e-9 }").contains(&id::FLOAT_CMP));
        // Exactly representable sentinels are sound bit-exact compares.
        for good in ["x == 0.0", "x == 1.0", "x != 0.5", "x == 2.5"] {
            let src = format!("fn f(x: f64) -> bool {{ {good} }}");
            assert!(
                !rules_hit(ctx(), &src).contains(&id::FLOAT_CMP),
                "{good} must be allowed"
            );
        }
    }

    #[test]
    fn float_cmp_flags_arithmetic_and_casts() {
        assert!(
            rules_hit(ctx(), "fn f(x: f64, y: f64) -> bool { x == y * 2.0 }")
                .contains(&id::FLOAT_CMP)
        );
        assert!(
            rules_hit(ctx(), "fn f(x: f64, n: usize) -> bool { x == n as f64 }")
                .contains(&id::FLOAT_CMP)
        );
        // Var-to-var comparison carries no syntactic float evidence: the
        // differential oracle's bit-exact compares stay legal.
        assert!(
            !rules_hit(ctx(), "fn f(x: f64, y: f64) -> bool { x == y }").contains(&id::FLOAT_CMP)
        );
    }

    #[test]
    fn float_cmp_flags_partial_cmp_unwrap() {
        let src = "fn f(a: f64, b: f64) -> Ordering { a.partial_cmp(&b).unwrap() }";
        assert!(rules_hit(ctx(), src).contains(&id::FLOAT_CMP));
    }

    #[test]
    fn float_cmp_exempts_tests() {
        let src = "#[cfg(test)]\nmod tests { fn t(x: f64) { assert!(x == 0.3); } }";
        assert!(!rules_hit(ctx(), src).contains(&id::FLOAT_CMP));
    }

    #[test]
    fn exactly_representable_classification() {
        for exact in ["0.0", "1.0", "0.5", "0.25", "2.5", "160.0", "1e3", "4.0f64"] {
            assert!(exactly_representable(exact), "{exact} is exact");
        }
        for inexact in ["0.1", "0.3", "1e-9", "0.2f32", "3.14"] {
            assert!(!exactly_representable(inexact), "{inexact} is inexact");
        }
    }

    // ------------------------------------------------------ float-sort rule

    #[test]
    fn float_sort_flags_partial_cmp_comparators() {
        let bad = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert!(rules_hit(ctx(), bad).contains(&id::FLOAT_SORT));
        let good = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(!rules_hit(ctx(), good).contains(&id::FLOAT_SORT));
        let min =
            "fn f(v: &[f64]) -> Option<&f64> { v.iter().min_by(|a, b| a.partial_cmp(b).unwrap()) }";
        assert!(rules_hit(ctx(), min).contains(&id::FLOAT_SORT));
    }

    // ----------------------------------------------------- float-accum rule

    #[test]
    fn float_accum_flags_unordered_sources() {
        let bad = "fn f(m: &Map<u64, f64>) -> f64 { m.values().sum::<f64>() }";
        assert!(rules_hit(ctx(), bad).contains(&id::FLOAT_ACCUM));
        let fold = "fn f(m: &Map<u64, f64>) -> f64 { m.values().fold(0.0, |a, b| a + b) }";
        assert!(rules_hit(ctx(), fold).contains(&id::FLOAT_ACCUM));
        // Ordered-container evidence in the file disarms the rule.
        let good = "use std::collections::BTreeMap;\n\
                    fn f(m: &BTreeMap<u64, f64>) -> f64 { m.values().sum::<f64>() }";
        assert!(!rules_hit(ctx(), good).contains(&id::FLOAT_ACCUM));
        // Slice iteration has a defined order.
        let slice = "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }";
        assert!(!rules_hit(ctx(), slice).contains(&id::FLOAT_ACCUM));
    }

    // ---------------------------------------------------- exhaustiveness rule

    #[test]
    fn wildcard_arm_fires_on_owned_enums_only() {
        let bad =
            "fn f(e: TraceEvent) -> u32 { match e { TraceEvent::NodeUp { .. } => 1, _ => 0 } }";
        assert!(rules_hit(ctx(), bad).contains(&id::WILDCARD_ARM));
        // Bindings count as catch-alls too.
        let bind = "fn f(e: SimError) -> u32 { match e { SimError::InvalidConfig { .. } => 1, other => 0 } }";
        assert!(rules_hit(ctx(), bind).contains(&id::WILDCARD_ARM));
        // Foreign/unowned enums may use wildcards freely.
        let foreign = "fn f(o: Option<u32>) -> u32 { match o { Some(v) => v, _ => 0 } }";
        assert!(!rules_hit(ctx(), foreign).contains(&id::WILDCARD_ARM));
    }

    #[test]
    fn wildcard_arm_allows_guarded_arms_and_tests() {
        let guarded =
            "fn f(e: TraceEvent) -> u32 { match e { TraceEvent::NodeUp { .. } => 1, e if e.is_late() => 2, TraceEvent::NodeDown { .. } => 3 } }";
        assert!(!rules_hit(ctx(), guarded).contains(&id::WILDCARD_ARM));
        let test_src = "#[cfg(test)]\nmod tests { fn t(e: TraceEvent) -> u32 { match e { TraceEvent::NodeUp { .. } => 1, _ => 0 } } }";
        assert!(!rules_hit(ctx(), test_src).contains(&id::WILDCARD_ARM));
    }

    #[test]
    fn wildcard_arm_sees_self_patterns_in_owned_impls() {
        let src = "impl TraceEvent { fn kind(&self) -> u32 { match self { Self::NodeUp { .. } => 1, _ => 0 } } }";
        assert!(rules_hit(ctx(), src).contains(&id::WILDCARD_ARM));
        // `Self::` inside an unowned type's impl is not in scope.
        let other = "impl Widget { fn kind(&self) -> u32 { match self { Self::A => 1, _ => 0 } } }";
        assert!(!rules_hit(ctx(), other).contains(&id::WILDCARD_ARM));
    }

    #[test]
    fn string_dispatch_with_wildcard_is_allowed() {
        // `KillCause::from_str_opt` style: patterns are strings, the
        // owned enum only appears in arm *bodies* — no finding.
        let src = r#"fn f(s: &str) -> Option<KillCause> {
            match s {
                "interruption" => Some(KillCause::Interruption),
                _ => None,
            }
        }"#;
        assert!(!rules_hit(ctx(), src).contains(&id::WILDCARD_ARM));
    }

    #[test]
    fn findings_are_sorted_and_carry_lines() {
        let src = "fn f() { let t = Instant::now(); }\nfn g(x: Option<u32>) { x.unwrap(); }";
        let found = scan_file(ctx(), src).findings;
        assert!(found.windows(2).all(|w| w[0] <= w[1]));
        assert!(found
            .iter()
            .any(|f| f.rule == id::WALL_CLOCK && f.line == 1));
        assert!(found
            .iter()
            .any(|f| f.rule == id::PANIC_PATH && f.line == 2));
    }
}
