//! `noninterference/agent-taint`: a static proof that values returned
//! from Agent hooks never reach architectural-state mutator calls.
//!
//! The runtime enforces non-interference dynamically: `checked_hook!`
//! checksums architectural state around every hook call in debug
//! builds. This module is the static twin for the *data-flow* half of
//! the property: a value an Agent returns (`fetch_inst`,
//! `on_retire`, `retire_stalled`, `pop_load`) may steer
//! microarchitectural decisions — predictions, prefetches, stalls —
//! but must never be an argument to `set_reg`/`set_pc`/`commit_store`/
//! ... in the core or sim crates. Control decisions (e.g. comparing a
//! directive and then squashing) are sanctioned: squash is
//! microarchitectural; the rule tracks data flow only.
//!
//! The analysis is a conservative intraprocedural taint propagation
//! (let-bindings, assignments, match scrutinees) stitched together
//! interprocedurally with two per-function summary bits computed to a
//! global fixpoint:
//!
//! * `param_sink` — the set of parameter slots that can flow into a
//!   mutator argument (transitively through further calls);
//! * `ret_hook` — whether the function can return a hook-derived value.
//!
//! A finding fires where a hook-derived value enters a sinking
//! position, with the call chain to the mutator printed.
//!
//! Precision limits (DESIGN.md § Invariants): no control-dependence
//! tracking, no cross-variable struct-field flow (fields are tracked
//! by field *name* within one function), no container-insertion flow,
//! and call resolution is by name. The runtime checksum bracket
//! remains the complementary dynamic gate for everything this
//! approximation cannot see.

use crate::effects::{BaseSite, Effect};
use crate::graph::{FnItem, FnRef, Resolver};
use crate::lexer::Lexed;
use std::collections::BTreeMap;

/// Value-returning `PfmHooks` methods: calls to these (method syntax)
/// are the taint sources.
pub const HOOK_METHODS: &[&str] = &["fetch_inst", "on_retire", "retire_stalled", "pop_load"];

/// Crates in which a hook-to-mutator flow is reported. The hook values
/// are consumed by the core pipeline and the sim layer; Agent crates
/// cannot call mutators at all (`noninterference/arch-mutation`).
pub const TAINT_REPORT_CRATES: &[&str] = &["core", "sim"];

/// Taint mask bit 0: hook-derived. Bit `p + 1`: parameter slot `p`.
const HOOK_BIT: u32 = 1;
const MAX_PARAMS: usize = 30;

fn param_bit(slot: usize) -> u32 {
    if slot < MAX_PARAMS {
        1 << (slot + 1)
    } else {
        0
    }
}

/// Interprocedural summary of one function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaintSummary {
    /// Bit `p` set: parameter slot `p` can reach a mutator argument.
    pub param_sink: u32,
    /// The function can return a hook-derived value.
    pub ret_hook: bool,
}

/// How a sinking parameter slot reaches a mutator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkWitness {
    /// The slot flows into a mutator argument in this body.
    Direct {
        /// Line of the mutator call.
        line: u32,
        /// Mutator name.
        mutator: String,
    },
    /// The slot flows into a sinking parameter of `callee`.
    Via {
        /// Line of the forwarding call.
        line: u32,
        /// Callee index in the function table.
        callee: usize,
        /// Sinking slot of the callee the value flows into.
        slot: usize,
    },
}

/// A raw agent-taint finding, before file context is attached.
#[derive(Debug, Clone)]
pub struct TaintFinding {
    /// Function the flow starts in.
    pub fn_idx: usize,
    /// Line where the hook-derived value enters the sinking position.
    pub line: u32,
    /// Mutator ultimately reached.
    pub mutator: String,
    /// Call-chain hops from the entry point to the mutator.
    pub path: Vec<String>,
}

/// The computed taint analysis.
#[derive(Debug, Default)]
pub struct Taint {
    /// Per-function summaries at fixpoint.
    pub summaries: Vec<TaintSummary>,
    /// Per-function, per-slot sink witness.
    pub sink_witness: Vec<Vec<Option<SinkWitness>>>,
    /// Hook-to-mutator flows found (every crate; the caller filters to
    /// [`TAINT_REPORT_CRATES`]).
    pub findings: Vec<TaintFinding>,
}

/// Computes per-function taint summaries to a global fixpoint, then
/// collects hook-to-mutator findings in a final pass. `displays[i]` is
/// the diagnostic path of file `i` (the `FnRef::file` index space);
/// `sites[f]` are function `f`'s base sites from
/// [`crate::effects::compute`], whose architectural-mutation sites are
/// the sinks. Call resolution goes through the same [`Resolver`] as the
/// call graph, so shape/arity/dependency narrowing applies here too.
pub fn compute(
    lexeds: &[&Lexed],
    fns: &[FnRef],
    sites: &[Vec<BaseSite>],
    displays: &[String],
    resolver: &Resolver,
) -> Taint {
    // Per-function, per-call-site candidate lists, resolved once.
    let cands_by_tok: Vec<BTreeMap<usize, Vec<usize>>> = fns
        .iter()
        .map(|f| {
            f.item
                .calls
                .iter()
                .map(|c| (c.tok, resolver.candidates(f.file, c)))
                .collect()
        })
        .collect();
    let mut t = Taint {
        summaries: vec![TaintSummary::default(); fns.len()],
        sink_witness: fns
            .iter()
            .map(|f| vec![None; f.item.params.len()])
            .collect(),
        findings: Vec::new(),
    };
    // Global fixpoint: summaries only grow, so iteration terminates.
    loop {
        let mut changed = false;
        for (fi, f) in fns.iter().enumerate() {
            let res = analyze_fn(
                lexeds[f.file],
                &f.item,
                &sites[fi],
                fns,
                &cands_by_tok[fi],
                &t.summaries,
                false,
            );
            let new = TaintSummary {
                param_sink: t.summaries[fi].param_sink | res.summary.param_sink,
                ret_hook: t.summaries[fi].ret_hook || res.summary.ret_hook,
            };
            if new != t.summaries[fi] {
                t.summaries[fi] = new;
                changed = true;
            }
            for (slot, w) in res.witnesses {
                if t.sink_witness[fi][slot].is_none() {
                    t.sink_witness[fi][slot] = Some(w);
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Findings pass with converged summaries.
    for (fi, f) in fns.iter().enumerate() {
        let res = analyze_fn(
            lexeds[f.file],
            &f.item,
            &sites[fi],
            fns,
            &cands_by_tok[fi],
            &t.summaries,
            true,
        );
        for (line, entry) in res.hook_sinks {
            let (mutator, path) = t.flow_path(fns, displays, fi, line, &entry);
            t.findings.push(TaintFinding {
                fn_idx: fi,
                line,
                mutator,
                path,
            });
        }
    }
    t.findings
        .sort_by_key(|f| (f.fn_idx, f.line, f.mutator.clone()));
    t.findings
        .dedup_by_key(|f| (f.fn_idx, f.line, f.mutator.clone()));
    t
}

impl Taint {
    /// Renders the call chain from the entry point to the mutator as
    /// diagnostic hops `` `fn` (file:line) ``, ending with the mutator.
    fn flow_path(
        &self,
        fns: &[FnRef],
        displays: &[String],
        fn_idx: usize,
        line: u32,
        entry: &SinkWitness,
    ) -> (String, Vec<String>) {
        let loc = |f: usize, l: u32| format!("({}:{l})", displays[fns[f].file]);
        let mut path = vec![format!("`{}` {}", fns[fn_idx].item.name, loc(fn_idx, line))];
        let mut owner = fn_idx;
        let mut cur = entry.clone();
        for _ in 0..=fns.len() {
            match cur {
                SinkWitness::Direct { line, ref mutator } => {
                    path.push(format!("`{mutator}` {}", loc(owner, line)));
                    return (mutator.clone(), path);
                }
                SinkWitness::Via { line, callee, slot } => {
                    path.push(format!("`{}` {}", fns[callee].item.name, loc(owner, line)));
                    match &self.sink_witness[callee][slot] {
                        Some(next) => {
                            owner = callee;
                            cur = next.clone();
                        }
                        None => return ("<unresolved>".into(), path),
                    }
                }
            }
        }
        ("<cyclic>".into(), path)
    }
}

/// Result of one intraprocedural pass.
struct FnResult {
    summary: TaintSummary,
    /// Newly discovered (slot → witness) sink flows.
    witnesses: Vec<(usize, SinkWitness)>,
    /// Hook-derived values entering a sinking position:
    /// (line, entry witness).
    hook_sinks: Vec<(u32, SinkWitness)>,
}

/// One intraprocedural taint pass over `item`'s own region, whose
/// base sites are `sites`. `cands_by_tok` maps each call site's
/// callee-ident token index to its resolved candidate functions.
fn analyze_fn(
    lexed: &Lexed,
    item: &FnItem,
    sites: &[BaseSite],
    fns: &[FnRef],
    cands_by_tok: &BTreeMap<usize, Vec<usize>>,
    summaries: &[TaintSummary],
    collect_findings: bool,
) -> FnResult {
    let mut res = FnResult {
        summary: TaintSummary::default(),
        witnesses: Vec::new(),
        hook_sinks: Vec::new(),
    };
    let Some((start, end)) = item.body else {
        return res;
    };
    let toks = &lexed.tokens;
    let t = |i: usize| toks.get(i).map(|t| t.text.as_str());
    let end = end.min(toks.len());

    // Variable taint map: name → mask. Parameters seed their slots.
    let mut taint: BTreeMap<String, u32> = BTreeMap::new();
    for (p, slot) in item.params.iter().enumerate() {
        for name in slot {
            *taint.entry(name.clone()).or_default() |= param_bit(p);
        }
    }

    // Mask of a token range: tainted idents, hook-method calls, and
    // calls to functions whose summary says they can return a
    // hook-derived value. Implicit passthrough is deliberate: a call's
    // argument idents sit inside the range, so `wrap(tainted)` taints
    // whatever the range's value binds to.
    let region_mask = |taint: &BTreeMap<String, u32>, a: usize, b: usize| -> u32 {
        let mut m = 0u32;
        for i in a..b.min(end) {
            if !item.owns(i) {
                continue;
            }
            let Some(w) = t(i) else { continue };
            if let Some(&v) = taint.get(w) {
                m |= v;
            }
            if t(i + 1) == Some("(") {
                if HOOK_METHODS.contains(&w) && i >= 1 && t(i - 1) == Some(".") {
                    m |= HOOK_BIT;
                }
                if let Some(cands) = cands_by_tok.get(&i) {
                    if cands.iter().any(|&c| summaries[c].ret_hook) {
                        m |= HOOK_BIT;
                    }
                }
            }
        }
        m
    };

    // Terminator scan: first token equal to `stop` at bracket depth 0
    // relative to `from` (counting (), [], {}).
    let scan_to = |from: usize, stops: &[&str]| -> usize {
        let mut depth = 0i32;
        for j in from..end {
            let Some(w) = t(j) else { break };
            if depth == 0 && stops.contains(&w) {
                return j;
            }
            match w {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return j;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        end
    };

    // Intraprocedural fixpoint over the statement forms.
    loop {
        let mut changed = false;
        let bind = |taint: &mut BTreeMap<String, u32>, name: &str, mask: u32| {
            if mask == 0 {
                return false;
            }
            let e = taint.entry(name.to_string()).or_default();
            let new = *e | mask;
            if new != *e {
                *e = new;
                return true;
            }
            false
        };

        let mut i = start + 1;
        while i < end {
            if !item.owns(i) {
                i += 1;
                continue;
            }
            let Some(w) = t(i) else { break };

            // `let PAT (: TYPE)? = RHS ;` / `if let PAT = RHS {` /
            // `while let PAT = RHS {` / `let PAT = RHS else { .. };`
            if w == "let" {
                let braced = matches!(t(i.wrapping_sub(1)), Some("if") | Some("while"));
                // Pattern runs to the first `=` at depth 0 (a `:`
                // starts the type, which also ends at that `=`).
                let mut depth = 0i32;
                let mut eq = None;
                let mut colon = None;
                for j in i + 1..end {
                    match t(j) {
                        Some("(") | Some("[") | Some("{") | Some("<") => depth += 1,
                        Some(")") | Some("]") | Some("}") | Some(">") => depth -= 1,
                        Some(":") if depth == 0 && colon.is_none() => colon = Some(j),
                        Some("=") if depth == 0 && t(j + 1) != Some("=") => {
                            eq = Some(j);
                            break;
                        }
                        Some(";") if depth == 0 => break,
                        _ => {}
                    }
                }
                if let Some(eq) = eq {
                    let pat_end = colon.unwrap_or(eq);
                    let rhs_end = if braced {
                        scan_to(eq + 1, &["{"])
                    } else {
                        scan_to(eq + 1, &[";", "else"])
                    };
                    let mask = region_mask(&taint, eq + 1, rhs_end);
                    if mask != 0 {
                        for j in i + 1..pat_end {
                            if let Some(p) = t(j) {
                                if is_binding_ident(p) && bind(&mut taint, p, mask) {
                                    changed = true;
                                }
                            }
                        }
                    }
                    i = eq + 1;
                    continue;
                }
            }

            // Assignments: `lhs = RHS ;` and compound `lhs op= RHS ;`.
            if w == "=" && t(i + 1) != Some("=") && t(i + 1) != Some(">") {
                let prev = t(i.wrapping_sub(1));
                let comparison = matches!(prev, Some("=") | Some("!") | Some("<") | Some(">"));
                let shift_assign =
                    matches!(prev, Some("<") | Some(">")) && i >= 2 && t(i - 2) == prev;
                if !comparison || shift_assign {
                    let mut k = i - 1;
                    if shift_assign {
                        k = i - 3;
                    } else if matches!(
                        prev,
                        Some("+")
                            | Some("-")
                            | Some("*")
                            | Some("/")
                            | Some("%")
                            | Some("&")
                            | Some("|")
                            | Some("^")
                    ) {
                        k = i - 2;
                    }
                    if let Some(lhs) = t(k) {
                        if is_binding_ident(lhs) {
                            let rhs_end = scan_to(i + 1, &[";"]);
                            let mask = region_mask(&taint, i + 1, rhs_end);
                            if bind(&mut taint, lhs, mask) {
                                changed = true;
                            }
                        }
                    }
                }
            }

            // `match SCRUT { PAT => ..., PAT => ... }`: a tainted
            // scrutinee taints every arm-pattern binding.
            if w == "match" {
                let body_open = scan_to(i + 1, &["{"]);
                if body_open < end && t(body_open) == Some("{") {
                    let mask = region_mask(&taint, i + 1, body_open);
                    if mask != 0 {
                        let mut depth = 1i32;
                        let mut arm_start = body_open + 1;
                        let mut j = body_open + 1;
                        while j < end && depth > 0 {
                            match t(j) {
                                Some("(") | Some("[") | Some("{") => depth += 1,
                                Some(")") | Some("]") | Some("}") => depth -= 1,
                                Some("=") if depth == 1 && t(j + 1) == Some(">") => {
                                    for k in arm_start..j {
                                        if let Some(p) = t(k) {
                                            if is_binding_ident(p) && bind(&mut taint, p, mask) {
                                                changed = true;
                                            }
                                        }
                                    }
                                }
                                Some(",") if depth == 1 => arm_start = j + 1,
                                _ => {}
                            }
                            j += 1;
                        }
                    }
                }
            }

            i += 1;
        }
        if !changed {
            break;
        }
    }

    // `ret_hook`: a `return` region or the tail expression carries the
    // hook bit.
    {
        let mut regions: Vec<(usize, usize)> = Vec::new();
        let mut last_semi = start;
        let mut depth = 0i32;
        for j in start + 1..end {
            if !item.owns(j) {
                continue;
            }
            match t(j) {
                Some("(") | Some("[") | Some("{") => depth += 1,
                Some(")") | Some("]") | Some("}") => depth -= 1,
                Some(";") if depth == 0 => last_semi = j,
                Some("return") => regions.push((j + 1, scan_to(j + 1, &[";"]))),
                _ => {}
            }
        }
        regions.push((last_semi + 1, end.saturating_sub(1)));
        if regions
            .iter()
            .any(|&(a, b)| region_mask(&taint, a, b) & HOOK_BIT != 0)
        {
            res.summary.ret_hook = true;
        }
    }

    // Sinks: the arguments of the effect analysis's mutator-call sites,
    // scrubbed ones included (an allow vouches for the effect rules,
    // not for this data flow).
    for site in sites.iter().filter(|s| s.effect == Effect::ArchMutation) {
        let (i, line) = (site.tok, site.line);
        let close = match_paren(toks, i + 1, end);
        let mask = region_mask(&taint, i + 2, close);
        let direct = || SinkWitness::Direct {
            line,
            mutator: site.token.clone(),
        };
        if mask & HOOK_BIT != 0 && collect_findings {
            res.hook_sinks.push((line, direct()));
        }
        for p in 0..item.params.len() {
            if mask & param_bit(p) != 0 {
                res.summary.param_sink |= 1 << p;
                res.witnesses.push((p, direct()));
            }
        }
    }

    // Calls into functions with sinking parameters.
    for call in &item.calls {
        let Some(cands) = cands_by_tok.get(&call.tok) else {
            continue;
        };
        for &c in cands {
            if summaries[c].param_sink == 0 {
                continue;
            }
            let args = call_arg_ranges(lexed, call.tok + 1, end);
            let offset = usize::from(
                call.method
                    && fns[c]
                        .item
                        .params
                        .first()
                        .is_some_and(|s| s.iter().any(|n| n == "self")),
            );
            for (a, &(ra, rb)) in args.iter().enumerate() {
                let slot = a + offset;
                if slot >= 31 || summaries[c].param_sink & (1u32 << slot) == 0 {
                    continue;
                }
                let mask = region_mask(&taint, ra, rb);
                let via = SinkWitness::Via {
                    line: call.line,
                    callee: c,
                    slot,
                };
                if mask & HOOK_BIT != 0 && collect_findings {
                    res.hook_sinks.push((call.line, via.clone()));
                }
                for p in 0..item.params.len() {
                    if mask & param_bit(p) != 0 {
                        res.summary.param_sink |= 1 << p;
                        res.witnesses.push((p, via.clone()));
                    }
                }
            }
        }
    }

    res
}

/// True for identifiers a pattern can bind (lowercase start, not a
/// pattern keyword).
fn is_binding_ident(w: &str) -> bool {
    let lower = w
        .chars()
        .next()
        .is_some_and(|c| c.is_lowercase() || c == '_');
    lower
        && !matches!(
            w,
            "mut" | "ref" | "box" | "move" | "if" | "in" | "_" | "self"
        )
        && !w.chars().next().is_some_and(|c| c.is_ascii_digit())
}

/// Token index of the `)` matching the `(` at `open`.
fn match_paren(toks: &[crate::lexer::Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for (j, tok) in toks.iter().enumerate().take(end).skip(open) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    end
}

/// Splits the paren group opening at `open` into top-level-comma
/// argument token ranges (half-open, excluding the parens).
fn call_arg_ranges(lexed: &Lexed, open: usize, end: usize) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    if toks.get(open).map(|t| t.text.as_str()) != Some("(") {
        return Vec::new();
    }
    let close = match_paren(toks, open, end);
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut seg = open + 1;
    for (j, tok) in toks.iter().enumerate().take(close).skip(open + 1) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                out.push((seg, j));
                seg = j + 1;
            }
            _ => {}
        }
    }
    if close > seg {
        out.push((seg, close));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::extract_fns;
    use crate::lexer::lex;

    fn run(src: &str) -> (Vec<FnRef>, Taint) {
        let lexed = lex(src);
        let fns: Vec<FnRef> = extract_fns(&lexed)
            .into_iter()
            .map(|item| FnRef { file: 0, item })
            .collect();
        let policy = crate::graph::LinkPolicy::allow_all();
        let graph = crate::graph::CallGraph::build(&fns, &policy);
        let effects = crate::effects::compute(&[&lexed], &fns, &graph);
        let resolver = Resolver::new(&fns, &policy);
        let t = compute(
            &[&lexed],
            &fns,
            &effects.base_sites,
            &["test.rs".to_string()],
            &resolver,
        );
        (fns, t)
    }

    fn idx(fns: &[FnRef], name: &str) -> usize {
        fns.iter()
            .position(|f| f.item.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn direct_hook_to_mutator_is_found() {
        let src = "fn step(&mut self) {\n\
                     let d = self.hooks.on_retire(&info);\n\
                     self.machine.set_reg(1, d);\n\
                   }";
        let (_, t) = run(src);
        assert_eq!(t.findings.len(), 1);
        assert_eq!(t.findings[0].mutator, "set_reg");
    }

    #[test]
    fn hook_via_sinking_helper_is_found() {
        let src = "fn step(&mut self) {\n\
                     let v = self.hooks.pop_load();\n\
                     self.apply(v);\n\
                   }\n\
                   fn apply(&mut self, x: u64) { self.machine.set_pc(x); }";
        let (fns, t) = run(src);
        let apply = idx(&fns, "apply");
        // apply's slot 1 (after self) sinks.
        assert_eq!(t.summaries[apply].param_sink & (1 << 1), 1 << 1);
        assert_eq!(t.findings.len(), 1, "{:?}", t.findings);
        assert_eq!(t.findings[0].mutator, "set_pc");
        assert!(t.findings[0].path.len() >= 2, "{:?}", t.findings[0].path);
    }

    #[test]
    fn hook_steering_without_data_flow_is_clean() {
        // Comparing a hook value and then calling a mutator with
        // untainted arguments is the sanctioned control-flow shape.
        let src = "fn step(&mut self, seq: u64) {\n\
                     let d = self.hooks.on_retire(&info);\n\
                     if d == Directive::SquashYounger { self.machine.commit_store(seq); }\n\
                   }";
        let (_, t) = run(src);
        assert!(t.findings.is_empty(), "{:?}", t.findings);
    }

    #[test]
    fn ret_hook_propagates_through_wrapper() {
        let src = "fn grab(&mut self) -> u64 { self.hooks.retire_stalled() }\n\
                   fn step(&mut self) { let v = self.grab(); self.machine.set_reg(0, v); }";
        let (fns, t) = run(src);
        assert!(t.summaries[idx(&fns, "grab")].ret_hook);
        assert_eq!(t.findings.len(), 1, "{:?}", t.findings);
    }

    #[test]
    fn match_scrutinee_taints_arm_bindings() {
        let src = "fn step(&mut self) {\n\
                     match self.hooks.fetch_inst(s, pc, b) {\n\
                       FetchOverride::Use(dir) => { self.machine.set_pc(dir); }\n\
                       _ => {}\n\
                     }\n\
                   }";
        let (_, t) = run(src);
        assert_eq!(t.findings.len(), 1, "{:?}", t.findings);
    }

    #[test]
    fn assignment_and_field_names_carry_taint() {
        let src = "fn step(&mut self) {\n\
                     let mut used = false;\n\
                     used = self.hooks.retire_stalled();\n\
                     self.pred = used;\n\
                     self.machine.write_spec(self.pred);\n\
                   }";
        let (_, t) = run(src);
        assert_eq!(t.findings.len(), 1, "{:?}", t.findings);
    }

    #[test]
    fn untainted_code_has_no_findings() {
        let src = "fn retire(&mut self, seq: u64) {\n\
                     let v = self.window.len();\n\
                     self.machine.mem_mut().commit_store(seq);\n\
                     let _ = v;\n\
                   }";
        let (_, t) = run(src);
        assert!(t.findings.is_empty(), "{:?}", t.findings);
    }

    #[test]
    fn param_sink_chain_terminates_on_mutual_recursion() {
        let src = "fn a(&mut self, x: u64) { self.b(x); }\n\
                   fn b(&mut self, y: u64) { self.a(y); self.machine.set_reg(0, y); }\n\
                   fn step(&mut self) { let v = self.hooks.pop_load(); self.a(v); }";
        let (fns, t) = run(src);
        assert!(t.summaries[idx(&fns, "a")].param_sink & (1 << 1) != 0);
        assert!(t.summaries[idx(&fns, "b")].param_sink & (1 << 1) != 0);
        assert!(!t.findings.is_empty());
        // Path reconstruction must terminate despite the a<->b cycle.
        for f in &t.findings {
            assert!(f.path.len() <= fns.len() + 2, "{:?}", f.path);
        }
    }
}
