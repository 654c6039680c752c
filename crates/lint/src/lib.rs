//! `pfm-lint`: the PFM workspace invariant checker.
//!
//! Enforces the properties the simulator's correctness argument leans
//! on but the type system cannot see:
//!
//! 1. **determinism** — every simulation run must be internally
//!    deterministic (PR 1's deduplicating executor collapses equal run
//!    specs into one execution, so nondeterminism silently corrupts
//!    whole result tables). Unordered hash iteration, wall-clock reads
//!    and entropy-seeded RNGs are flagged inside the sim crates, and
//!    the snapshot/store-key purity rules hold serialization and
//!    fingerprint paths to canonical output workspace-wide.
//! 2. **non-interference** — fabric Agents observe the retired stream
//!    and intervene microarchitecturally *without changing
//!    architectural state* (PAPER.md §3). Agent crates must not call
//!    register/memory/PC mutators, and `noninterference/agent-taint`
//!    proves statically that values *returned* from Agent hooks never
//!    flow into a mutator argument in the core/sim crates — the static
//!    twin of the runtime `arch_checksum` bracket.
//! 3. **hygiene** — no `unwrap()`/`expect()` in non-test library code,
//!    and no stale `// pfm-lint: allow(...)` escapes (an allow that
//!    suppresses nothing is itself a finding).
//! 4. **robustness** — `catch_unwind` only inside the executor's
//!    isolation boundary, no panic-family macros in Agent library
//!    code, and reconfiguration paths free of clocks and mutators.
//!
//! The checker is *interprocedural*. A workspace call graph
//! ([`graph`]) links every function; one detector ([`effects`]) finds
//! each function's effect sites and closes them into transitive
//! summaries; and every determinism, purity, non-interference and
//! panic rule is one row of the rule table [`rules::RULES`], evaluated
//! in one pass. An impurity moved N calls deep below a
//! `snapshot`/`fingerprint`/`begin_swap` function is still a finding,
//! reported at the call site that first leaves the rule's scope, with
//! the offending chain printed.
//!
//! Violations print as `file:line: family/rule: message [(path: ...)]`.
//! A violation that is deliberate carries a `// pfm-lint:
//! allow(<rule>)` comment on the same line or the line above; allows
//! double as *audited assertions* that stop effect propagation at the
//! annotated site.
//!
//! The checker is dependency-free (the workspace is offline): a
//! hand-rolled lexer strips comments and literals, and the analyses
//! are conservative token-level approximations (name-matched calls,
//! opaque macro calls, item-level sites checked by the crate-scoped
//! rules only). See DESIGN.md § Invariants for the precision limits.

pub mod effects;
pub mod graph;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod taint;

pub use graph::{CallGraph, FnRef};
pub use rules::{FileContext, Finding};

use lexer::Lexed;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Directory names whose contents no rule family applies to (test,
/// example and bench code is exempt; `pfm-lint`'s own fixtures live
/// under `tests/` too).
const EXEMPT_DIRS: &[&str] = &["tests", "examples", "benches", "fixtures"];

/// Directory names never walked: build output, vendored dependency
/// stubs (third-party code mirrored for the offline workspace) and VCS
/// metadata.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];

/// One lexed source file under its workspace classification.
pub struct Unit {
    /// Where the file sits (crate, display path, exemption).
    pub ctx: FileContext,
    /// The lexed token stream and side tables.
    pub lexed: Lexed,
}

/// The full interprocedural view of a set of sources: function table,
/// call graph, effect summaries and the agent-taint analysis.
pub struct Analysis {
    /// The analyzed files.
    pub units: Vec<Unit>,
    /// Every extracted function; `FnRef::file` indexes `units`.
    pub fns: Vec<FnRef>,
    /// Name-matched workspace call graph with SCC condensation.
    pub graph: CallGraph,
    /// Base and transitive effect summaries with witnesses.
    pub effects: effects::Effects,
    /// Hook-value taint summaries and findings.
    pub taint: taint::Taint,
}

/// Classifies a path relative to the workspace root.
pub fn classify(root: &Path, path: &Path) -> FileContext {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let display = rel.display().to_string();
    let comps: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let crate_name = match comps.first().map(String::as_str) {
        Some("crates") => comps.get(1).cloned(),
        Some("src") => Some("pfm".to_string()),
        _ => None,
    };
    let exempt = comps.iter().any(|c| EXEMPT_DIRS.contains(&c.as_str()));
    FileContext {
        display,
        crate_name,
        exempt,
    }
}

/// Builds the interprocedural [`Analysis`] over a set of sources with
/// no crate-dependency information (every call link allowed). This is
/// the seam single-file runs and the fixture tests use.
pub fn analyze(sources: Vec<(FileContext, String)>) -> Analysis {
    analyze_with_deps(sources, None)
}

/// Direct crate dependencies parsed from the workspace manifests:
/// crate directory name → directory names of its `path` dependencies.
pub type CrateDeps = BTreeMap<String, BTreeSet<String>>;

/// Builds the interprocedural [`Analysis`] over a set of sources.
/// Exempt files are carried (their contexts stay addressable) but
/// contribute no functions to the graph. When `deps` is given, a call
/// in crate A only links into crate B if A transitively depends on B —
/// the dependency DAG rules the link out otherwise.
pub fn analyze_with_deps(
    sources: Vec<(FileContext, String)>,
    deps: Option<&CrateDeps>,
) -> Analysis {
    let units: Vec<Unit> = sources
        .into_iter()
        .map(|(ctx, src)| Unit {
            ctx,
            lexed: lexer::lex(&src),
        })
        .collect();
    let mut fns: Vec<FnRef> = Vec::new();
    for (i, u) in units.iter().enumerate() {
        if u.ctx.exempt {
            continue;
        }
        for item in graph::extract_fns(&u.lexed) {
            fns.push(FnRef { file: i, item });
        }
    }
    let policy = match deps {
        Some(d) => link_policy(&units, d),
        None => graph::LinkPolicy::allow_all(),
    };
    let call_graph = CallGraph::build(&fns, &policy);
    let lexeds: Vec<&Lexed> = units.iter().map(|u| &u.lexed).collect();
    let displays: Vec<String> = units.iter().map(|u| u.ctx.display.clone()).collect();
    let resolver = graph::Resolver::new(&fns, &policy);
    let eff = effects::compute(&lexeds, &fns, &call_graph);
    let tnt = taint::compute(&lexeds, &fns, &eff.base_sites, &displays, &resolver);
    Analysis {
        units,
        fns,
        graph: call_graph,
        effects: eff,
        taint: tnt,
    }
}

/// Expands direct crate deps into a file-level [`graph::LinkPolicy`]
/// via transitive closure. Files without a crate classification link
/// freely (conservative).
fn link_policy(units: &[Unit], deps: &CrateDeps) -> graph::LinkPolicy {
    // Transitive closure over the direct dependency map.
    let mut closure: BTreeMap<&str, BTreeSet<&str>> = deps
        .iter()
        .map(|(k, v)| (k.as_str(), v.iter().map(String::as_str).collect()))
        .collect();
    loop {
        let mut grew = false;
        let snapshot: BTreeMap<&str, BTreeSet<&str>> = closure.clone();
        for set in closure.values_mut() {
            let step: Vec<&str> = set
                .iter()
                .filter_map(|d| snapshot.get(d))
                .flatten()
                .copied()
                .collect();
            for d in step {
                grew |= set.insert(d);
            }
        }
        if !grew {
            break;
        }
    }
    let crates: Vec<Option<&str>> = units.iter().map(|u| u.ctx.crate_name.as_deref()).collect();
    let ok = crates
        .iter()
        .map(|ca| {
            crates
                .iter()
                .map(|cb| match (ca, cb) {
                    (Some(a), Some(b)) => {
                        a == b
                            || closure.get(a).is_some_and(|s| s.contains(b))
                            // A crate absent from the manifests keeps
                            // unconstrained links.
                            || !closure.contains_key(*a)
                    }
                    _ => true,
                })
                .collect()
        })
        .collect();
    graph::LinkPolicy { ok }
}

/// Parses every workspace `Cargo.toml` for `path = "..."` dependencies
/// and returns the direct crate dependency map (directory names; the
/// root package is crate `pfm`).
pub fn crate_deps(root: &Path) -> CrateDeps {
    let mut manifests: Vec<(String, PathBuf)> = vec![("pfm".to_string(), root.join("Cargo.toml"))];
    if let Ok(rd) = std::fs::read_dir(root.join("crates")) {
        for e in rd.flatten() {
            let m = e.path().join("Cargo.toml");
            if m.is_file() {
                manifests.push((e.file_name().to_string_lossy().into_owned(), m));
            }
        }
    }
    let mut deps: CrateDeps = BTreeMap::new();
    for (name, manifest) in manifests {
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let entry = deps.entry(name).or_default();
        for line in text.lines() {
            // `pfm-core = { path = "../core" }` — take the last path
            // component as the crate directory name.
            let Some(p) = line.find("path") else { continue };
            let rest = &line[p + 4..];
            let Some(eq) = rest.trim_start().strip_prefix('=') else {
                continue;
            };
            let Some(open) = eq.find('"') else { continue };
            let Some(close) = eq[open + 1..].find('"') else {
                continue;
            };
            let dep_path = &eq[open + 1..open + 1 + close];
            if let Some(dir) = dep_path.rsplit('/').next() {
                if !dir.is_empty() && dir != ".." && dir != "." {
                    entry.insert(dir.to_string());
                }
            }
        }
    }
    deps
}

/// 1-based line spans of `#[cfg(test)] mod` bodies (for excluding
/// test-code allows from the unused-allow audit).
fn test_line_spans(lexed: &Lexed) -> Vec<(u32, u32)> {
    lexed
        .test_ranges
        .iter()
        .filter_map(|&(s, e)| {
            let a = lexed.tokens.get(s)?.line;
            let b = lexed
                .tokens
                .get(e.saturating_sub(1))
                .or_else(|| lexed.tokens.last())?
                .line;
            Some((a, b))
        })
        .collect()
}

/// Runs every rule layer over an [`Analysis`]: the effect rule table,
/// the two token rules, agent-taint, allow suppression, and the
/// unused-allow audit. Findings come back sorted and deduplicated.
pub fn lint_analysis(a: &Analysis) -> Vec<Finding> {
    // Raw findings: effect rules + token rules + taint, before
    // suppression.
    let mut raw = rules::check_effects(a);
    for u in &a.units {
        raw.extend(rules::check_tokens(&u.lexed, &u.ctx));
    }
    for tf in &a.taint.findings {
        let ctx = &a.units[a.fns[tf.fn_idx].file].ctx;
        let in_scope = !ctx.exempt
            && ctx
                .crate_name
                .as_deref()
                .is_some_and(|c| taint::TAINT_REPORT_CRATES.contains(&c));
        if !in_scope {
            continue;
        }
        raw.push(Finding {
            file: ctx.display.clone(),
            line: tf.line,
            family: "noninterference",
            rule: "agent-taint",
            message: format!(
                "value returned from an Agent hook reaches architectural-state \
                 mutator `{}`; hook values may steer microarchitecture only",
                tf.mutator
            ),
            path: tf.path.clone(),
        });
    }

    // Allow suppression with used-allow accounting. Effect scrubs
    // already recorded their annotations as used.
    let by_display: BTreeMap<&str, usize> = a
        .units
        .iter()
        .enumerate()
        .map(|(i, u)| (u.ctx.display.as_str(), i))
        .collect();
    let mut used: Vec<BTreeSet<usize>> = a.effects.used_allows.clone();
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let Some(&ui) = by_display.get(f.file.as_str()) else {
            findings.push(f);
            continue;
        };
        let hits = effects::matching_allows(&a.units[ui].lexed, f.family, f.rule, f.line);
        if hits.is_empty() {
            findings.push(f);
        } else {
            used[ui].extend(hits);
        }
    }

    // Unused-allow audit: an annotation that neither suppressed a raw
    // finding nor scrubbed an effect is dead weight — and dead escapes
    // are how invariants drift. Test-region allows are out of scope
    // (no rule family runs there).
    for (ui, u) in a.units.iter().enumerate() {
        if u.ctx.exempt {
            continue;
        }
        let spans = test_line_spans(&u.lexed);
        for (ai, allow) in u.lexed.allows.iter().enumerate() {
            if used[ui].contains(&ai) {
                continue;
            }
            if allow.rules.iter().any(|r| r == "unused-allow") {
                continue;
            }
            if spans
                .iter()
                .any(|&(s, e)| allow.line >= s && allow.line <= e)
            {
                continue;
            }
            // An adjacent `allow(unused-allow)` keeps a deliberately
            // dormant escape (e.g. kept for a cfg'd-out path).
            let kept = u.lexed.allows.iter().enumerate().any(|(bi, b)| {
                bi != ai
                    && (b.line == allow.line || b.line + 1 == allow.line)
                    && b.rules.iter().any(|r| r == "unused-allow")
            });
            if kept {
                continue;
            }
            findings.push(Finding {
                file: u.ctx.display.clone(),
                line: allow.line,
                family: "hygiene",
                rule: "unused-allow",
                message: format!(
                    "`pfm-lint: allow({})` suppresses no finding and scrubs no \
                     effect; delete the stale escape",
                    allow.rules.join(", ")
                ),
                path: Vec::new(),
            });
        }
    }

    findings.sort();
    findings.dedup();
    findings
}

/// Lints one source string under an explicit context, with the full
/// rule stack (the interprocedural layers see just this file). This is
/// the seam the fixture tests use.
pub fn lint_source(source: &str, ctx: &FileContext) -> Vec<Finding> {
    lint_analysis(&analyze(vec![(ctx.clone(), source.to_string())]))
}

/// Recursively collects `.rs` files under `dir`, skipping build
/// output, vendored stubs, and exempt (test/example/bench) trees.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: cannot read dir: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: cannot read dir entry: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str())
                || EXEMPT_DIRS.contains(&name.as_str())
                || name.starts_with('.')
            {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` to the enclosing workspace root (the
/// first ancestor whose `Cargo.toml` contains a `[workspace]` table).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Builds an [`Analysis`] over a file list, classified against `root`
/// and link-constrained by the workspace manifests under `root`.
pub fn analyze_files(root: &Path, files: &[PathBuf]) -> Result<Analysis, String> {
    let mut sources = Vec::new();
    for f in files {
        let source =
            std::fs::read_to_string(f).map_err(|e| format!("{}: cannot read: {e}", f.display()))?;
        sources.push((classify(root, f), source));
    }
    let deps = crate_deps(root);
    Ok(analyze_with_deps(
        sources,
        (!deps.is_empty()).then_some(&deps),
    ))
}

/// Builds the workspace-wide [`Analysis`] rooted at `root`.
pub fn analyze_workspace(root: &Path) -> Result<Analysis, String> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    analyze_files(root, &files)
}

/// Lints the whole workspace rooted at `root`; findings come back
/// sorted by file then line.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    Ok(lint_analysis(&analyze_workspace(root)?))
}

/// Renders the call graph for `--graph`. Text form (one line per
/// function, effects in brackets, callees after `->`) or Graphviz dot.
pub fn render_graph(a: &Analysis, dot: bool) -> String {
    let mut out = String::new();
    if dot {
        out.push_str("digraph pfm_lint_calls {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        for (i, f) in a.fns.iter().enumerate() {
            let eff = a.effects.summary[i].names().join(",");
            let suffix = if eff.is_empty() {
                String::new()
            } else {
                format!("\\n[{eff}]")
            };
            out.push_str(&format!(
                "  n{i} [label=\"{}\\n{}:{}{suffix}\"];\n",
                f.item.name, a.units[f.file].ctx.display, f.item.line
            ));
        }
        for (i, callees) in a.graph.callees.iter().enumerate() {
            for &(c, _) in callees {
                out.push_str(&format!("  n{i} -> n{c};\n"));
            }
        }
        out.push_str("}\n");
    } else {
        for (i, f) in a.fns.iter().enumerate() {
            let eff = a.effects.summary[i].names().join(",");
            out.push_str(&format!(
                "{}:{} fn {}",
                a.units[f.file].ctx.display, f.item.line, f.item.name
            ));
            if !eff.is_empty() {
                out.push_str(&format!(" [effects: {eff}]"));
            }
            if !a.graph.callees[i].is_empty() {
                let names: Vec<&str> = a.graph.callees[i]
                    .iter()
                    .map(|&(c, _)| a.fns[c].item.name.as_str())
                    .collect();
                out.push_str(&format!(" -> {}", names.join(", ")));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_crate_and_exempt_paths() {
        let root = Path::new("/ws");
        let c = classify(root, Path::new("/ws/crates/fabric/src/fabric.rs"));
        assert_eq!(c.crate_name.as_deref(), Some("fabric"));
        assert!(!c.exempt);

        let c = classify(root, Path::new("/ws/crates/fabric/tests/proptests.rs"));
        assert!(c.exempt);

        let c = classify(root, Path::new("/ws/src/lib.rs"));
        assert_eq!(c.crate_name.as_deref(), Some("pfm"));

        let c = classify(root, Path::new("/ws/crates/sim/examples/smoke.rs"));
        assert!(c.exempt);
    }

    fn sim_ctx() -> FileContext {
        FileContext {
            display: "crates/core/src/lib.rs".into(),
            crate_name: Some("core".into()),
            exempt: false,
        }
    }

    #[test]
    fn transitive_wall_clock_under_snapshot_is_found() {
        let src = "fn snapshot_state() -> u64 { helper() }\n\
                   fn helper() -> u64 { let t = SystemTime::now(); 0 }";
        let findings = lint_source(src, &sim_ctx());
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "snapshot-wall-clock" && !f.path.is_empty()),
            "{findings:?}"
        );
    }

    #[test]
    fn unused_allow_is_flagged_and_used_allow_is_not() {
        let used = "fn f() {\n  // pfm-lint: allow(hygiene)\n  x.unwrap();\n}";
        assert!(lint_source(used, &sim_ctx()).is_empty());

        let stale = "fn f() -> u64 {\n  // pfm-lint: allow(hygiene)\n  0\n}";
        let findings = lint_source(stale, &sim_ctx());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "unused-allow");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn test_region_allows_are_not_audited() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n  // pfm-lint: allow(hygiene)\n  fn t() {}\n}";
        assert!(lint_source(src, &sim_ctx()).is_empty());
    }
}
