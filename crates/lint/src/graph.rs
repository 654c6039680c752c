//! Function-item extraction and the workspace call graph.
//!
//! The interprocedural rules need to know, for every `fn` in the
//! workspace, what it calls — so that an impurity moved one call into
//! a helper is still visible from the marked function that reaches it.
//! This module builds that view on top of the hand-rolled lexer:
//!
//! * [`extract_fns`] walks one file's token stream and records every
//!   `fn` item: name, parameter names, body token range, and the call
//!   sites inside its *own* region (nested `fn` items are carved out
//!   and get their own entries; `#[cfg(test)]` modules are skipped).
//! * [`CallGraph::build`] links call sites to every workspace function
//!   with a matching name — conservative name matching, since a
//!   token-level analysis has no type information. Method calls,
//!   free-function calls and path calls all resolve by their final
//!   segment; macro invocations (`name!(..)`) are opaque and produce
//!   no edges.
//! * The graph is condensed into strongly connected components
//!   (iterative Tarjan), emitted callee-first, so the monotone effect
//!   fixpoint in [`crate::effects`] is a single pass even over
//!   recursive and mutually recursive functions.
//!
//! Precision limits (documented in DESIGN.md § Invariants): calls are
//! name-matched, not type-resolved, so same-named methods on different
//! types alias; trait dispatch resolves to every implementor of the
//! method name; macro bodies are opaque; uppercase-initial idents are
//! treated as type/variant constructors, never calls.

use crate::lexer::Lexed;

/// Lowercase identifiers that look like calls (`for (..)` never lexes
/// that way, but `if (x)`, `match (x)`, `return (x)` do) and must not
/// become call-graph edges.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "loop", "for", "return", "break", "continue", "let", "fn",
    "impl", "in", "as", "move", "ref", "mut", "where", "unsafe", "dyn", "type", "const", "static",
    "crate", "super", "self", "use", "pub", "mod", "trait", "struct", "enum", "await",
];

/// One call site inside a function's own region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name as written (final path segment / method name).
    pub name: String,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// True for `recv.name(..)` method syntax (shifts the argument →
    /// parameter mapping past a `self` receiver).
    pub method: bool,
    /// True for `a::name(..)` path syntax (could target an associated
    /// function with an explicit `self` argument).
    pub path: bool,
    /// First segment of the `::` path when the whole prefix is a plain
    /// ident chain (`std` in `std::fs::write`); used to drop calls
    /// rooted in the standard library from workspace linking.
    pub root: Option<String>,
    /// Number of arguments at the site, excluding any method receiver.
    /// `None` when the argument list contains `|` at the top level
    /// (closure parameters would make a comma count unreliable).
    pub argc: Option<usize>,
}

/// Path roots that denote the standard library; a call spelled
/// `std::fs::write(..)` never targets a workspace function even if a
/// workspace function shares its final segment.
const STD_ROOTS: &[&str] = &[
    "std", "core", "alloc", "fs", "io", "process", "thread", "cmp", "ptr", "iter", "slice",
    "array", "fmt",
];

/// One `fn` item in one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub decl: usize,
    /// Half-open token range of the body including its braces.
    /// `None` for bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Parameter slots in positional order; each slot lists the
    /// identifiers its pattern binds (a tuple pattern binds several).
    /// A `self` receiver occupies slot 0 as `["self"]`.
    pub params: Vec<Vec<String>>,
    /// Call sites in the function's own region (nested `fn` bodies
    /// excluded — they get their own items).
    pub calls: Vec<CallSite>,
    /// Token ranges of nested `fn` bodies carved out of this body.
    pub nested: Vec<(usize, usize)>,
}

impl FnItem {
    /// True when token index `i` belongs to this item's own region:
    /// inside its body but outside any nested `fn` item.
    pub fn owns(&self, i: usize) -> bool {
        let Some((s, e)) = self.body else {
            return false;
        };
        i >= s && i < e && !self.nested.iter().any(|&(ns, ne)| i >= ns && i < ne)
    }

    /// True when the function takes a `self` receiver.
    pub fn has_self(&self) -> bool {
        self.params
            .first()
            .is_some_and(|p| p == &["self".to_string()])
    }
}

/// Walks a `::` path backwards from the callee ident at `j` and
/// returns its first segment when the whole prefix is a plain ident
/// chain (`None` for `<T as Trait>::f` or non-path calls).
fn path_root(lexed: &Lexed, j: usize) -> Option<String> {
    let toks = &lexed.tokens;
    let t = |i: usize| toks.get(i).map(|t| t.text.as_str());
    let mut k = j;
    loop {
        if k < 3 || t(k - 1) != Some(":") || t(k - 2) != Some(":") {
            break;
        }
        let seg = t(k - 3)?;
        if seg == ">" {
            // `<T as Trait>::f` — qualified, no simple root.
            return None;
        }
        if !seg
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            return None;
        }
        k -= 3;
    }
    if k == j {
        return None;
    }
    t(k).map(str::to_string)
}

/// Counts the arguments of the call whose `(` sits at `open`. Returns
/// `None` when a top-level `|` makes the comma count unreliable
/// (closure parameters) or the list is unterminated.
fn count_args(lexed: &Lexed, open: usize) -> Option<usize> {
    let toks = &lexed.tokens;
    let t = |i: usize| toks.get(i).map(|t| t.text.as_str());
    let mut depth = 1usize;
    let mut j = open + 1;
    let mut args = 0usize;
    let mut any = false;
    while j < toks.len() {
        match t(j)? {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(if any { args + 1 } else { 0 });
                }
            }
            "|" if depth == 1 => return None,
            // A trailing comma before `)` does not start a new arg.
            "," if depth == 1 && t(j + 1) != Some(")") => args += 1,
            _ => {}
        }
        any = true;
        j += 1;
    }
    None
}

/// True when `name` could be a call target: lowercase/underscore
/// start (workspace functions are snake_case; uppercase initials are
/// type or variant constructors) and not a keyword.
fn is_call_name(name: &str) -> bool {
    name.chars()
        .next()
        .is_some_and(|c| c.is_lowercase() || c == '_')
        && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
        && !NON_CALL_KEYWORDS.contains(&name)
}

/// Extracts every `fn` item from one lexed file. Items inside
/// `#[cfg(test)]` modules are skipped (no rule family applies there).
pub fn extract_fns(lexed: &Lexed) -> Vec<FnItem> {
    let toks = &lexed.tokens;
    let t = |i: usize| toks.get(i).map(|t| t.text.as_str());
    let mut items: Vec<FnItem> = Vec::new();

    // Pass 1: declarations and body ranges (nested items included —
    // the scan is linear, so an inner `fn` is simply found again).
    let mut i = 0;
    while i < toks.len() {
        if t(i) != Some("fn") || lexed.in_test_region(i) {
            i += 1;
            continue;
        }
        let Some(name) = t(i + 1) else { break };
        if !name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            // `fn(` in type position has no name.
            i += 1;
            continue;
        }
        let name = name.to_string();
        let line = toks[i].line;

        // Signature: find the parameter list and then the body brace
        // (or `;` for a bodiless trait method).
        let mut j = i + 2;
        // Skip generics `<...>` between name and `(`.
        if t(j) == Some("<") {
            let mut depth = 1usize;
            j += 1;
            while j < toks.len() && depth > 0 {
                match t(j) {
                    Some("<") => depth += 1,
                    Some(">") => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        let params = if t(j) == Some("(") {
            let (params, after) = parse_params(lexed, j);
            j = after;
            params
        } else {
            Vec::new()
        };
        // Scan the rest of the signature for `{` or `;`.
        let mut open = None;
        while j < toks.len() {
            match t(j) {
                Some(";") => break,
                Some("{") => {
                    open = Some(j);
                    break;
                }
                _ => j += 1,
            }
        }
        let body = open.map(|o| {
            let mut depth = 1usize;
            let mut e = o + 1;
            while e < toks.len() && depth > 0 {
                match t(e) {
                    Some("{") => depth += 1,
                    Some("}") => depth -= 1,
                    _ => {}
                }
                e += 1;
            }
            (o, e)
        });
        items.push(FnItem {
            name,
            line,
            decl: i,
            body,
            params,
            calls: Vec::new(),
            nested: Vec::new(),
        });
        // Continue scanning right after the signature so nested `fn`
        // items inside this body are found too.
        i = body.map_or(j + 1, |(o, _)| o + 1);
    }

    // Pass 2: carve nested bodies out of each item and collect call
    // sites in the remaining own-region.
    let ranges: Vec<Option<(usize, usize)>> = items.iter().map(|it| it.body).collect();
    for (k, item) in items.iter_mut().enumerate() {
        let Some((s, e)) = item.body else { continue };
        item.nested = ranges
            .iter()
            .enumerate()
            .filter_map(|(m, r)| {
                let &(ns, ne) = r.as_ref()?;
                (m != k && ns > s && ne <= e).then_some((ns, ne))
            })
            .collect();
        let mut j = s + 1;
        while j + 1 < e {
            if let Some(&(_, ne)) = item.nested.iter().find(|&&(ns, ne)| j >= ns && j < ne) {
                j = ne;
                continue;
            }
            let Some(w) = t(j) else { break };
            if t(j + 1) == Some("(") && is_call_name(w) && t(j.wrapping_sub(1)) != Some("fn") {
                let method = j >= 1 && t(j - 1) == Some(".");
                let path = j >= 2 && t(j - 1) == Some(":") && t(j - 2) == Some(":");
                item.calls.push(CallSite {
                    name: w.to_string(),
                    tok: j,
                    line: toks[j].line,
                    method,
                    path,
                    root: if path { path_root(lexed, j) } else { None },
                    argc: count_args(lexed, j + 1),
                });
            }
            j += 1;
        }
    }
    items
}

/// Parses a parameter list starting at the `(` token; returns the
/// parameter slots and the token index just past the closing `)`.
fn parse_params(lexed: &Lexed, open: usize) -> (Vec<Vec<String>>, usize) {
    let toks = &lexed.tokens;
    let t = |i: usize| toks.get(i).map(|t| t.text.as_str());
    let mut depth = 1usize;
    let mut j = open + 1;
    let mut seg_start = j;
    let mut segs: Vec<(usize, usize)> = Vec::new();
    while j < toks.len() && depth > 0 {
        match t(j) {
            Some("(") | Some("[") | Some("{") | Some("<") => depth += 1,
            Some(")") | Some("]") | Some("}") | Some(">") => {
                depth -= 1;
                if depth == 0 {
                    if j > seg_start {
                        segs.push((seg_start, j));
                    }
                    j += 1;
                    break;
                }
            }
            Some(",") if depth == 1 => {
                segs.push((seg_start, j));
                seg_start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    let mut params = Vec::new();
    for (a, b) in segs {
        let mut names = Vec::new();
        let mut is_self = false;
        for k in a..b {
            let Some(w) = t(k) else { break };
            if w == ":" {
                // Pattern ends at the top-level type colon (`::` paths
                // only occur in the type half, after this point).
                break;
            }
            if w == "self" {
                is_self = true;
                break;
            }
            if matches!(w, "mut" | "ref" | "&" | "'" | "_") {
                continue;
            }
            if w.chars()
                .next()
                .is_some_and(|c| c.is_lowercase() || c == '_')
            {
                names.push(w.to_string());
            }
        }
        if is_self {
            params.push(vec!["self".to_string()]);
        } else {
            params.push(names);
        }
    }
    (params, j)
}

/// A reference to one function in the flattened workspace table.
#[derive(Debug, Clone)]
pub struct FnRef {
    /// Index of the owning file in the analysis file table.
    pub file: usize,
    /// The extracted item.
    pub item: FnItem,
}

/// The workspace call graph over the flattened function table.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `callees[f]` — deduped resolved callee indices, with the line
    /// of the first call site that produced each edge.
    pub callees: Vec<Vec<(usize, u32)>>,
    /// `callers[g]` — reverse edges.
    pub callers: Vec<Vec<usize>>,
    /// Strongly connected components, callee-first (reverse
    /// topological order of the condensation).
    pub sccs: Vec<Vec<usize>>,
    /// Component index of each function.
    pub scc_of: Vec<usize>,
}

/// File-level linking constraints derived from the crate dependency
/// graph: a call in crate A can only target crate B if A (transitively)
/// depends on B. With no manifest information every link is allowed.
#[derive(Debug, Default, Clone)]
pub struct LinkPolicy {
    /// `ok[caller_file][callee_file]`; empty means allow-all.
    pub ok: Vec<Vec<bool>>,
}

impl LinkPolicy {
    /// The unconstrained policy (single-file runs, fixture trees
    /// without manifests).
    pub fn allow_all() -> LinkPolicy {
        LinkPolicy::default()
    }

    /// Whether a call in `caller_file` may link into `callee_file`.
    pub fn allows(&self, caller_file: usize, callee_file: usize) -> bool {
        match self.ok.get(caller_file) {
            Some(row) => row.get(callee_file).copied().unwrap_or(true),
            None => true,
        }
    }
}

/// Resolves call sites to candidate workspace functions. Matching is
/// by name, narrowed by call shape (`.m(..)` only targets methods,
/// bare `f(..)` only free functions, `a::b(..)` either), by argument
/// count when it is reliable, by standard-library path roots, and by
/// the crate-dependency [`LinkPolicy`].
pub struct Resolver<'a> {
    fns: &'a [FnRef],
    by_name: std::collections::BTreeMap<&'a str, Vec<usize>>,
    policy: &'a LinkPolicy,
}

impl<'a> Resolver<'a> {
    pub fn new(fns: &'a [FnRef], policy: &'a LinkPolicy) -> Resolver<'a> {
        let mut by_name: std::collections::BTreeMap<&'a str, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            by_name.entry(&f.item.name).or_default().push(idx);
        }
        Resolver {
            fns,
            by_name,
            policy,
        }
    }

    /// Whether one site could target one function, ignoring the name
    /// (the name index already matched it).
    fn links(&self, caller_file: usize, site: &CallSite, callee: &FnRef) -> bool {
        if !self.policy.allows(caller_file, callee.file) {
            return false;
        }
        if site.root.as_deref().is_some_and(|r| STD_ROOTS.contains(&r)) {
            return false;
        }
        let has_self = callee.item.has_self();
        if site.method && !has_self {
            return false;
        }
        if !site.method && !site.path && has_self {
            return false;
        }
        if let Some(argc) = site.argc {
            let effective = argc + usize::from(site.method);
            if effective != callee.item.params.len() {
                return false;
            }
        }
        true
    }

    /// Candidate function indices for a call site, ascending order.
    pub fn candidates(&self, caller_file: usize, site: &CallSite) -> Vec<usize> {
        self.by_name
            .get(site.name.as_str())
            .map(|cands| {
                cands
                    .iter()
                    .copied()
                    .filter(|&c| self.links(caller_file, site, &self.fns[c]))
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl CallGraph {
    /// Builds the graph: every call site links to every workspace
    /// function the [`Resolver`] admits for it.
    pub fn build(fns: &[FnRef], policy: &LinkPolicy) -> CallGraph {
        let resolver = Resolver::new(fns, policy);
        let mut callees: Vec<Vec<(usize, u32)>> = vec![Vec::new(); fns.len()];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (idx, f) in fns.iter().enumerate() {
            let mut seen: Vec<usize> = Vec::new();
            for call in &f.item.calls {
                for c in resolver.candidates(f.file, call) {
                    if c != idx && !seen.contains(&c) {
                        seen.push(c);
                        callees[idx].push((c, call.line));
                        callers[c].push(idx);
                    }
                }
            }
            callees[idx].sort_unstable();
        }
        for c in &mut callers {
            c.sort_unstable();
            c.dedup();
        }
        let (sccs, scc_of) = condense(&callees);
        CallGraph {
            callees,
            callers,
            sccs,
            scc_of,
        }
    }
}

/// Iterative Tarjan SCC; components come out callee-first (a component
/// is emitted only after every component it can reach).
fn condense(callees: &[Vec<(usize, u32)>]) -> (Vec<Vec<usize>>, Vec<usize>) {
    let n = callees.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut scc_of = vec![0usize; n];
    let mut next_index = 0usize;

    // Explicit DFS frames: (node, next-edge cursor).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor < callees[v].len() {
                let (w, _) = callees[v][*cursor];
                *cursor += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    for &w in &comp {
                        scc_of[w] = sccs.len();
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    (sccs, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<FnItem> {
        extract_fns(&lex(src))
    }

    #[test]
    fn extracts_names_params_and_calls() {
        let src = "fn alpha(x: u64, (a, b): (u64, u64)) -> u64 { beta(x); x.gamma() }\n\
                   fn beta(v: u64) {}\n";
        let fns = items(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "alpha");
        assert_eq!(fns[0].params, vec![vec!["x"], vec!["a", "b"]]);
        let calls: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, vec!["beta", "gamma"]);
        assert!(fns[0].calls[1].method);
        assert!(!fns[0].calls[0].method);
    }

    #[test]
    fn self_receiver_occupies_slot_zero() {
        let src = "impl S { fn run(&mut self, n: u64) { self.step(n); } }";
        let fns = items(src);
        assert_eq!(fns[0].params, vec![vec!["self"], vec!["n"]]);
    }

    #[test]
    fn nested_fns_are_carved_out() {
        let src = "fn outer() { fn inner() { leaf(); } inner(); }";
        let fns = items(src);
        assert_eq!(fns.len(), 2);
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        // `leaf()` belongs to inner, `inner()` to outer.
        assert_eq!(
            outer.calls.iter().map(|c| &c.name).collect::<Vec<_>>(),
            ["inner"]
        );
        assert_eq!(
            inner.calls.iter().map(|c| &c.name).collect::<Vec<_>>(),
            ["leaf"]
        );
    }

    #[test]
    fn macros_keywords_and_constructors_are_not_calls() {
        let src =
            "fn f(x: u64) -> Option<u64> { println!(\"x\"); if (x > 0) { return Some(x); } None }";
        let fns = items(src);
        assert!(fns[0].calls.is_empty(), "{:?}", fns[0].calls);
    }

    #[test]
    fn test_mod_fns_are_skipped() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { lib(); } }";
        let fns = items(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "lib");
    }

    #[test]
    fn bodiless_trait_methods_have_no_body() {
        let src = "trait T { fn hook(&mut self) -> bool; }";
        let fns = items(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].body, None);
    }

    #[test]
    fn scc_condensation_is_callee_first() {
        // a -> b -> c, c -> b (cycle b<->... no: b -> c -> b is a cycle), d leaf.
        let src = "fn a() { b(); }\nfn b() { c(); }\nfn c() { b(); d(); }\nfn d() {}";
        let fns: Vec<FnRef> = items(src)
            .into_iter()
            .map(|item| FnRef { file: 0, item })
            .collect();
        let g = CallGraph::build(&fns, &LinkPolicy::allow_all());
        let name_of = |i: usize| fns[i].item.name.clone();
        // b and c share a component; d's and the {b,c} component come
        // before a's.
        let scc_names: Vec<Vec<String>> = g
            .sccs
            .iter()
            .map(|c| c.iter().map(|&i| name_of(i)).collect())
            .collect();
        let pos = |n: &str| scc_names.iter().position(|c| c.iter().any(|m| m == n));
        assert_eq!(
            g.scc_of[1], g.scc_of[2],
            "b and c share an SCC: {scc_names:?}"
        );
        assert!(
            pos("b") < pos("a"),
            "callee SCC must precede caller: {scc_names:?}"
        );
        assert!(pos("d") < pos("b"), "leaf precedes the cycle that calls it");
    }
}
