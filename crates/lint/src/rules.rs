//! The `pfm-lint` rule table.
//!
//! Every determinism, purity, non-interference and panic rule is one
//! row of [`RULES`]: a family and name, a [`Scope`] (crates,
//! function-name markers, or both), the [`Effect`]s it forbids there,
//! and whether it is local-only or transitive. [`check_effects`]
//! evaluates the table in one pass over the function table of an
//! [`Analysis`] and matches no token itself: every site comes from
//! [`crate::effects`], the one hazard detector. A row reports
//!
//! * each site of a forbidden effect inside an in-scope function, and,
//!   for a row scoped by crates alone, each item-level site of a
//!   forbidden effect in an in-scope crate (a `static` initializer or a
//!   `macro_rules!` body, say: see [`crate::effects`]);
//! * if transitive, each call from an in-scope function into an
//!   out-of-scope function whose summary carries a forbidden effect,
//!   one finding per rule and call line, with the witness chain. A call
//!   that stays inside the scope is not reported: the callee's own
//!   sites and calls answer to the same row, so every bad path is
//!   flagged once, where it first leaves the scope.
//!
//! The families:
//!
//! * **determinism** — inside the simulation crates, no unordered
//!   `HashMap`/`HashSet` iteration, wall-clock reads or entropy-seeded
//!   RNGs: the deduplicating executor collapses behaviourally equal
//!   runs into one simulation, which is only sound if every run is
//!   internally deterministic. Workspace-wide, snapshot/serialization
//!   functions must emit canonical bytes (no hash-ordered iteration,
//!   the `Fx` variants included, and no clock), and store-key/
//!   fingerprint constructors must be pure (no clock, environment or
//!   hash order).
//! * **noninterference** — `crates/fabric` and `crates/components` may
//!   observe the retired stream and emit packets through the sanctioned
//!   `FabricIo` API, but must never call an architectural-state mutator
//!   (register writes, committed-memory stores, PC redirects).
//!   `noninterference/agent-taint` is the data-flow half, in
//!   [`crate::taint`].
//! * **hygiene** — no `unwrap()`/`expect()` in non-test library code;
//!   invariants get a justified `// pfm-lint: allow(hygiene)`, IO paths
//!   get real error plumbing. `hygiene/unused-allow` lives in `lib.rs`.
//! * **robustness** — Agent library code must not use panic-family
//!   macros (a buggy component degrades gracefully, emitting nothing,
//!   rather than taking the simulator down), and reconfiguration paths
//!   must not read the clock or mutate architectural state.
//!
//! Two rules are plain token rules, not effects, and [`check_tokens`]
//! runs them per file: `provenance/raw-hex-pc` and
//! `robustness/catch-unwind` (panic isolation lives in the executor
//! alone, `crates/sim/src/exec.rs`, so a panicking run always surfaces
//! as a typed `RunOutcome`).
//!
//! All of it is conservative and type-blind (see DESIGN.md §
//! Invariants for the precision limits).

use crate::effects::{BaseSite, Effect, PANIC_MACROS};
use crate::lexer::Lexed;
use crate::Analysis;
use std::collections::BTreeSet;

/// Crates whose sources drive simulation results; determinism rules
/// apply here.
pub const SIM_CRATES: &[&str] = &["isa", "mem", "bpred", "core", "fabric", "components", "sim"];

/// Crates that implement fabric Agents; the non-interference rule
/// applies here. Everything else is allowed to mutate architectural
/// state (the core *retires* instructions; that is its job).
pub const AGENT_CRATES: &[&str] = &["fabric", "components"];

/// Crates whose configuration structs name snoop PCs; the
/// provenance/raw-hex-pc rule applies here. A PC spelled as a hex
/// literal is positional trivia that silently goes stale when the
/// kernel changes; PCs must be derived from assembler symbols
/// (`Program::require_symbol`) so `pfm-analyze` can hold them to the
/// watchlist contract.
pub const PC_CONFIG_CRATES: &[&str] = &["components", "workloads", "sim"];

/// Function-name substrings marking a snapshot/serialization code path
/// (the region the snapshot rules confine themselves to).
pub(crate) const SNAPSHOT_FN_MARKERS: &[&str] =
    &["snapshot", "encode", "decode", "restore", "serialize"];

/// Function-name substrings marking store-key / code-fingerprint
/// construction (the region the `store-key-purity` rule confines
/// itself to). A result-store address must be a pure function of spec
/// content and source bytes — anything environmental in the key makes
/// cached results unreachable (or worse, wrongly reachable) on another
/// machine or another day.
pub(crate) const STORE_KEY_FN_MARKERS: &[&str] = &[
    "fingerprint",
    "store_key",
    "cache_key",
    "key_hash",
    "digest",
];

/// Function-name substrings marking a runtime-reconfiguration path
/// (the region the `swap-purity` rule confines itself to). Swap,
/// drain, and phase-detection code decides *when* the fabric
/// intervenes; it must never touch *what* the core commits, and its
/// timing must come from the simulated clock, or the graceful-
/// degradation gate (bit-identical checksums across every scheduling
/// decision and mid-swap fault) stops holding by construction.
pub const SWAP_FN_MARKERS: &[&str] = &["swap", "drain", "reconfigure", "phase_signature"];

/// Crates the `swap-purity` rule applies in: the fabric (residency
/// machine, drain/load windows) and the sim layer (scheduler,
/// context-switch runner).
pub const SWAP_PURITY_CRATES: &[&str] = &["fabric", "sim"];

/// The one file allowed to call `catch_unwind`: the parallel executor,
/// where panic isolation turns a dying run into a typed
/// `RunOutcome::Panicked` instead of a dead process.
pub const UNWIND_BOUNDARY: &str = "crates/sim/src/exec.rs";

/// The functions a rule holds to its forbidden effects: those of the
/// listed crates whose name carries one of the markers, each filter
/// open when `None`.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// Crates the rule applies in.
    pub crates: Option<&'static [&'static str]>,
    /// Function-name substrings, matched case-insensitively.
    pub markers: Option<&'static [&'static str]>,
}

impl Scope {
    /// Every function of `crates`.
    const fn crates(crates: &'static [&'static str]) -> Scope {
        Scope {
            crates: Some(crates),
            markers: None,
        }
    }

    /// Every function, workspace-wide, whose name carries a marker.
    const fn marked(markers: &'static [&'static str]) -> Scope {
        Scope {
            crates: None,
            markers: Some(markers),
        }
    }

    /// Every function.
    const EVERYWHERE: Scope = Scope {
        crates: None,
        markers: None,
    };

    /// True when function `name` of crate `crate_name` is in scope.
    pub fn holds(&self, crate_name: Option<&str>, name: &str) -> bool {
        self.crates
            .is_none_or(|cs| crate_name.is_some_and(|c| cs.contains(&c)))
            && self.markers.is_none_or(|ms| {
                let lower = name.to_ascii_lowercase();
                ms.iter().any(|m| lower.contains(m))
            })
    }

    /// True when the item-level code of crate `crate_name` is in scope:
    /// the scope names no markers (an item has no function name to
    /// match) and admits the crate.
    pub fn holds_items(&self, crate_name: Option<&str>) -> bool {
        self.markers.is_none() && self.holds(crate_name, "")
    }
}

/// One effect rule: a row of [`RULES`].
#[derive(Debug)]
pub struct Rule {
    /// Rule family (`determinism`, `noninterference`, ...).
    pub family: &'static str,
    /// Rule name within the family.
    pub rule: &'static str,
    /// The functions the rule applies to.
    pub scope: Scope,
    /// Effects forbidden in the scope.
    pub forbids: &'static [Effect],
    /// When set, only sites of these tokens are findings (the rows
    /// that split [`Effect::Panics`] by token).
    pub tokens: Option<&'static [&'static str]>,
    /// True when calls leaving the scope are checked against the
    /// callee's transitive summary; false for rules about a function's
    /// own text.
    pub transitive: bool,
    /// The scope as diagnostics name it.
    pub place: &'static str,
    /// Why the effects are forbidden there.
    pub why: &'static str,
}

/// Every effect rule. [`check_effects`] evaluates it, and the effect
/// analysis derives from it which allows scrub which sites.
pub const RULES: &[Rule] = &[
    Rule {
        family: "determinism",
        rule: "wall-clock",
        scope: Scope::crates(SIM_CRATES),
        forbids: &[Effect::WallClock],
        tokens: None,
        transitive: true,
        place: "simulation code",
        why: "wall-clock reads are nondeterministic",
    },
    Rule {
        family: "determinism",
        rule: "rng",
        scope: Scope::crates(SIM_CRATES),
        forbids: &[Effect::Rng],
        tokens: None,
        transitive: true,
        place: "simulation code",
        why: "seed RNGs explicitly",
    },
    Rule {
        family: "determinism",
        rule: "hash-iter",
        scope: Scope::crates(SIM_CRATES),
        forbids: &[Effect::HashIter],
        tokens: None,
        transitive: true,
        place: "simulation code",
        why: "use BTreeMap/BTreeSet or sort before iterating",
    },
    Rule {
        family: "determinism",
        rule: "snapshot-wall-clock",
        scope: Scope::marked(SNAPSHOT_FN_MARKERS),
        forbids: &[Effect::WallClock],
        tokens: None,
        transitive: true,
        place: "a snapshot path",
        why: "snapshot bytes must be a function of machine state, never of when they were taken",
    },
    Rule {
        family: "determinism",
        rule: "snapshot-hash-iter",
        scope: Scope::marked(SNAPSHOT_FN_MARKERS),
        forbids: &[Effect::HashIter, Effect::FxHashIter],
        tokens: None,
        transitive: true,
        place: "a snapshot path",
        why: "snapshot bytes must be canonical; sort the keys first or use a BTree container",
    },
    Rule {
        family: "determinism",
        rule: "store-key-purity",
        scope: Scope::marked(STORE_KEY_FN_MARKERS),
        forbids: &[
            Effect::WallClock,
            Effect::EnvRead,
            Effect::HashIter,
            Effect::FxHashIter,
        ],
        tokens: None,
        transitive: true,
        place: "store-key/fingerprint construction",
        why: "a key that embeds time, the environment or bucket order is \
              unreproducible; fold pure inputs in sorted order",
    },
    Rule {
        family: "robustness",
        rule: "swap-purity",
        scope: Scope {
            crates: Some(SWAP_PURITY_CRATES),
            markers: Some(SWAP_FN_MARKERS),
        },
        forbids: &[Effect::WallClock, Effect::ArchMutation],
        tokens: None,
        transitive: true,
        place: "a reconfiguration path",
        why: "swaps and drains are microarchitectural: they are timed in simulated \
              cycles and leave the committed stream bit-identical",
    },
    Rule {
        family: "noninterference",
        rule: "arch-mutation",
        scope: Scope::crates(AGENT_CRATES),
        forbids: &[Effect::ArchMutation],
        tokens: None,
        transitive: true,
        place: "Agent code",
        why: "fabric components may only observe and emit `FabricIo` packets",
    },
    Rule {
        family: "hygiene",
        rule: "unwrap",
        scope: Scope::EVERYWHERE,
        forbids: &[Effect::Panics],
        tokens: Some(&["unwrap"]),
        transitive: false,
        place: "non-test code",
        why: "plumb the error with context or justify with `// pfm-lint: allow(hygiene)`",
    },
    Rule {
        family: "hygiene",
        rule: "expect",
        scope: Scope::EVERYWHERE,
        forbids: &[Effect::Panics],
        tokens: Some(&["expect"]),
        transitive: false,
        place: "non-test code",
        why: "plumb the error with context or justify with `// pfm-lint: allow(hygiene)`",
    },
    Rule {
        family: "robustness",
        rule: "panic",
        scope: Scope::crates(AGENT_CRATES),
        forbids: &[Effect::Panics],
        tokens: Some(PANIC_MACROS),
        transitive: false,
        place: "Agent library code",
        why: "a buggy component must degrade gracefully (emit nothing), not take the \
              simulator down",
    },
];

/// Where a source file sits in the workspace; decides which rules
/// apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileContext {
    /// Path string used in diagnostics.
    pub display: String,
    /// Workspace crate the file belongs to (`fabric`, `sim`, ...; the
    /// root package is `pfm`). `None` for files outside the workspace.
    pub crate_name: Option<String>,
    /// True for test/example/bench sources, which every rule family
    /// exempts.
    pub exempt: bool,
}

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path string used in diagnostics.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule family (`determinism`, `noninterference`, `hygiene`, ...).
    pub family: &'static str,
    /// Specific rule within the family (e.g. `hash-iter`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// For interprocedural findings: the offending call chain, one
    /// `` `fn` (file:line) `` hop per element. Empty for local
    /// (single-body) findings.
    pub path: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}/{}: {}",
            self.file, self.line, self.family, self.rule, self.message
        )?;
        if !self.path.is_empty() {
            write!(f, " (path: {})", self.path.join(" -> "))?;
        }
        Ok(())
    }
}

/// Pushes `row`'s local finding for each site in `sites` (of file
/// `file`) whose effect, and token where the row names tokens, it
/// forbids.
fn local_findings(row: &Rule, file: &str, sites: &[BaseSite], out: &mut Vec<Finding>) {
    for site in sites {
        let flagged = row.forbids.contains(&site.effect)
            && row
                .tokens
                .is_none_or(|ts| ts.contains(&site.token.as_str()));
        if flagged {
            out.push(Finding {
                file: file.to_string(),
                line: site.line,
                family: row.family,
                rule: row.rule,
                message: format!("{} in {}; {}", site.describe(), row.place, row.why),
                path: Vec::new(),
            });
        }
    }
}

/// Evaluates [`RULES`] over an analysis: every row's local, item-level
/// and transitive findings, before allow suppression (which `lib.rs`
/// applies per rule, like everywhere else).
pub fn check_effects(a: &Analysis) -> Vec<Finding> {
    let displays: Vec<String> = a.units.iter().map(|u| u.ctx.display.clone()).collect();
    let crate_of = |f: usize| a.units[a.fns[f].file].ctx.crate_name.as_deref();
    let mut out = Vec::new();
    for row in RULES {
        for (u, sites) in a.units.iter().zip(&a.effects.item_sites) {
            if !u.ctx.exempt && row.scope.holds_items(u.ctx.crate_name.as_deref()) {
                local_findings(row, &u.ctx.display, sites, &mut out);
            }
        }
        let in_scope = |f: usize| row.scope.holds(crate_of(f), &a.fns[f].item.name);
        for (fi, f) in a.fns.iter().enumerate() {
            if !in_scope(fi) {
                continue;
            }
            let file = &displays[f.file];
            local_findings(row, file, &a.effects.base_sites[fi], &mut out);
            if !row.transitive {
                continue;
            }
            // One finding per call line: the first out-of-scope callee
            // with a forbidden effect, and its first such effect,
            // ground the diagnostic.
            let mut lines = BTreeSet::new();
            for &(c, line) in &a.graph.callees[fi] {
                if in_scope(c) {
                    continue;
                }
                let summary = a.effects.summary[c];
                let Some(&e) = row.forbids.iter().find(|&&e| summary.has(e)) else {
                    continue;
                };
                if !lines.insert(line) {
                    continue;
                }
                out.push(Finding {
                    file: file.clone(),
                    line,
                    family: row.family,
                    rule: row.rule,
                    message: format!(
                        "`{}` ({}) calls `{}`, which transitively reaches {}; {}",
                        f.item.name,
                        row.place,
                        a.fns[c].item.name,
                        e.noun(),
                        row.why
                    ),
                    path: a.effects.witness_path(&a.fns, &displays, c, e),
                });
            }
        }
    }
    out
}

/// Runs the two token rules that are not effects over one lexed file:
/// `provenance/raw-hex-pc` in the PC-config crates and
/// `robustness/catch-unwind` everywhere but [`UNWIND_BOUNDARY`].
/// Findings are raw: allow suppression happens in `lib.rs`.
pub fn check_tokens(lexed: &Lexed, ctx: &FileContext) -> Vec<Finding> {
    let mut findings = Vec::new();
    if ctx.exempt {
        return findings;
    }
    let finding = |line: u32, family: &'static str, rule: &'static str, message: String| Finding {
        file: ctx.display.clone(),
        line,
        family,
        rule,
        message,
        path: Vec::new(),
    };
    let in_pc_config = ctx
        .crate_name
        .as_deref()
        .is_some_and(|c| PC_CONFIG_CRATES.contains(&c));
    let at_boundary = ctx.display.ends_with(UNWIND_BOUNDARY);
    let toks = &lexed.tokens;
    let t = |i: usize| toks.get(i).map(|t| t.text.as_str());
    for (i, tok) in toks.iter().enumerate() {
        if lexed.in_test_region(i) {
            continue;
        }
        let w = tok.text.as_str();
        if w == "catch_unwind" && !at_boundary {
            findings.push(finding(
                tok.line,
                "robustness",
                "catch-unwind",
                format!(
                    "`catch_unwind` outside the executor; panic isolation is \
                     centralized in `{UNWIND_BOUNDARY}` so a dying run always \
                     surfaces as a typed RunOutcome"
                ),
            ));
        }

        // provenance/raw-hex-pc: a hex literal assigned (or bound) to a
        // `*_pc`/`*_pcs` name. Watch PCs written as raw addresses drift
        // silently when the kernel is edited; they must come out of the
        // assembled program's symbol table.
        if !in_pc_config || !(w.ends_with("_pc") || w.ends_with("_pcs")) {
            continue;
        }
        // `name: <init>` (struct literal / typed let) or `name = <init>`
        // — but not `name::`, `name ==`, or a type position with no
        // initializer (no hex literal will follow before the
        // terminator in that case anyway).
        let sep = t(i + 1);
        if !matches!(sep, Some(":") | Some("=")) || t(i + 2) == sep {
            continue;
        }
        // Scan the initializer expression: stop at `;` or a top-level
        // `,`/`}`, descending into brackets so `vec![sym, 0x40]` is
        // still caught. The window cap keeps pathological files cheap.
        let mut depth = 0i32;
        for init in toks.iter().skip(i + 2).take(64) {
            let v = init.text.as_str();
            match v {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" => break,
                "," | "}" if depth <= 0 => break,
                "}" => depth -= 1,
                _ => {
                    if v.starts_with("0x") || v.starts_with("0X") {
                        findings.push(finding(
                            init.line,
                            "provenance",
                            "raw-hex-pc",
                            format!(
                                "raw hex PC literal `{v}` assigned to `{w}`; \
                                 derive watch PCs from assembler symbols \
                                 (`Program::require_symbol`) or justify with \
                                 `// pfm-lint: allow(raw-hex-pc)`"
                            ),
                        ));
                        break;
                    }
                }
            }
            if depth < 0 {
                break;
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;

    fn ctx(crate_name: &str) -> FileContext {
        FileContext {
            display: "test.rs".into(),
            crate_name: Some(crate_name.into()),
            exempt: false,
        }
    }

    fn rules_of(src: &str, c: &str) -> Vec<String> {
        lint_source(src, &ctx(c))
            .into_iter()
            .map(|f| format!("{}/{}", f.family, f.rule))
            .collect()
    }

    #[test]
    fn flags_hash_iteration_in_sim_crates() {
        let src = "struct S { m: HashMap<u64, u64> }\nimpl S { fn f(&self) { for k in &self.m { let _ = k; } } }";
        assert_eq!(rules_of(src, "fabric"), vec!["determinism/hash-iter"]);
        // Same source outside the sim crates is fine.
        assert!(rules_of(src, "lint").is_empty());
    }

    #[test]
    fn flags_iter_methods_but_not_point_lookups() {
        let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2); let _ = m.get(&1); }";
        assert!(rules_of(src, "core").is_empty());
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); for v in m.values() { let _ = v; } }";
        assert_eq!(rules_of(src, "core"), vec!["determinism/hash-iter"]);
    }

    #[test]
    fn noninterference_only_in_agent_crates() {
        let src = "fn f(m: &mut Machine) { m.set_reg(1, 2); }";
        assert_eq!(
            rules_of(src, "components"),
            vec!["noninterference/arch-mutation"]
        );
        assert!(rules_of(src, "isa").is_empty());
    }

    #[test]
    fn hygiene_everywhere_except_tests() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }";
        assert_eq!(rules_of(src, "workloads"), vec!["hygiene/unwrap"]);
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = "fn f() {\n  // pfm-lint: allow(hygiene)\n  x.unwrap();\n}";
        assert!(rules_of(src, "sim").is_empty());
    }

    #[test]
    fn raw_hex_pc_flagged_only_in_config_crates() {
        let src = "fn f() { let cfg = Config { load_pc: 0x1040, n: 4 }; }";
        assert_eq!(rules_of(src, "components"), vec!["provenance/raw-hex-pc"]);
        // The core crate has no watch-PC configs; rule does not apply.
        assert!(rules_of(src, "core").is_empty());
    }

    #[test]
    fn raw_hex_pc_sees_assignments_and_vec_elements() {
        let src = "fn f() { base_pcs = vec![sym, 0x2000]; }";
        assert_eq!(rules_of(src, "workloads"), vec!["provenance/raw-hex-pc"]);
        let ok = "fn f() { let load_pc = program.require_symbol(\"load_pc\"); }";
        assert!(rules_of(ok, "workloads").is_empty());
        // A struct *definition*'s type annotation is not an initializer.
        let def = "struct C { load_pc: u64, base_pcs: Vec<u64> }";
        assert!(rules_of(def, "components").is_empty());
    }

    #[test]
    fn raw_hex_pc_skips_comparisons_paths_and_allows() {
        let cmp = "fn f() { if load_pc == 0x1040 { g(); } }";
        assert!(rules_of(cmp, "sim").is_empty());
        let path = "fn f() { let x = boot_pc::OFFSET; }";
        assert!(rules_of(path, "sim").is_empty());
        let allowed = "fn f() {\n  // pfm-lint: allow(raw-hex-pc)\n  let boot_pc = 0x1000;\n}";
        assert!(rules_of(allowed, "sim").is_empty());
    }

    #[test]
    fn store_key_purity_flags_clocks_env_and_hash_iteration() {
        // Wall clock inside a fingerprint constructor.
        let src = "fn code_fingerprint() -> u64 { let t = SystemTime::now(); 0 }";
        assert!(rules_of(src, "lint")
            .iter()
            .any(|r| r == "determinism/store-key-purity"));

        // Environment variables inside a store-key builder.
        let src = "fn store_key_hash(k: &str) -> u64 { let h = std::env::var(\"HOST\"); 0 }";
        assert_eq!(
            rules_of(src, "workloads"),
            vec!["determinism/store-key-purity"]
        );
        let src = "fn cache_key() -> String { env!(\"PATH\").to_string() }";
        assert_eq!(rules_of(src, "lint"), vec!["determinism/store-key-purity"]);

        // Hash-order iteration inside a digest fold.
        let src = "fn source_digest(m: &HashMap<String, u64>) -> u64 {\n  let mut h = 0;\n  for kv in m.iter() { h ^= kv.1; }\n  h\n}";
        assert!(rules_of(src, "lint")
            .iter()
            .any(|r| r == "determinism/store-key-purity"));
    }

    #[test]
    fn store_key_purity_ignores_pure_and_unmarked_code() {
        // A pure FNV fold over sorted input is the sanctioned shape.
        let src = "fn store_key_hash(key: &str, salt: u64) -> u64 {\n  let mut h = salt;\n  for b in key.bytes() { h ^= b as u64; h = h.wrapping_mul(3); }\n  h\n}";
        assert!(rules_of(src, "sim").is_empty());
        // The same impurities outside a key-construction fn are not
        // this rule's business (other rules may still apply).
        let src = "fn report() { let t = std::env::var(\"HOME\"); }";
        assert!(rules_of(src, "lint").is_empty());
        // An allow annotation suppresses.
        let src = "fn fingerprint() -> u64 {\n  // pfm-lint: allow(store-key-purity)\n  let _ = std::env::var(\"CI\");\n  0\n}";
        assert!(rules_of(src, "lint").is_empty());
    }

    #[test]
    fn catch_unwind_is_flagged_outside_the_executor() {
        let src = "fn f() { let _ = std::panic::catch_unwind(|| 1); }";
        assert_eq!(rules_of(src, "sim"), vec!["robustness/catch-unwind"]);
        // The executor itself is the sanctioned isolation boundary.
        let boundary = FileContext {
            display: UNWIND_BOUNDARY.to_string(),
            crate_name: Some("sim".to_string()),
            exempt: false,
        };
        assert!(lint_source(src, &boundary).is_empty());
    }

    #[test]
    fn panic_macros_only_flagged_in_agent_crates() {
        let src = "fn f(x: u64) { if x == 0 { panic!(\"boom\") } }";
        assert_eq!(rules_of(src, "components"), vec!["robustness/panic"]);
        // The core may panic on internal invariants; only Agents are
        // held to the graceful-degradation bar.
        assert!(rules_of(src, "core").is_empty());
        // `std::panic::...` paths are not macro invocations.
        let path = "fn g() { std::panic::set_hook(Box::new(|_| {})); }";
        assert!(rules_of(path, "fabric").is_empty());
    }
}
