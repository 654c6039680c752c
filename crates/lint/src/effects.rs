//! The one hazard detector of `pfm-lint`: per-function effect sites
//! and their summaries over the workspace call graph.
//!
//! This module is the only code that matches a hazard token. Each
//! function gets its *base sites* from token patterns in its own body:
//! wall-clock reads, environment reads, entropy RNGs, hash-ordered
//! iteration, architectural-state mutator calls and panics. Each site
//! keeps its effect, token index, line, matched token and a short
//! description. A *summary* set closes the base effects over the call
//! graph: a monotone union fixpoint, computed in one pass over the SCC
//! condensation (callee components first). The rule table in
//! [`crate::rules`] reads both: a site of a forbidden effect inside an
//! in-scope function is a local finding, and a call out of the scope
//! into a function whose summary carries a forbidden effect is a
//! transitive one. A wall-clock read two helpers deep below a
//! `snapshot` function thus shows up in the snapshot function's callee
//! summaries. The agent-taint pass ([`crate::taint`]) reads the
//! architectural-mutation sites as its sinks.
//!
//! Every token outside the function bodies — a `static` or `const`
//! initializer, a `macro_rules!` body, a signature — belongs to its
//! file's one list of *item-level sites*; `use` declarations and test
//! modules are left out. Nothing calls an item, so these sites reach no
//! summary. The crate-scoped rows of the rule table check them; a
//! marker-scoped row names functions, so no item is in its scope.
//!
//! Allow semantics: a `// pfm-lint: allow(...)` annotation adjacent to
//! a site, naming a rule that forbids the site's effect, is an
//! *audited assertion* that the site is harmless in context (e.g.
//! "sorted before return"). Such a site is *scrubbed*: it contributes
//! no base effect, so no caller of the audited function inherits it,
//! and the annotation is recorded as *used*, which feeds the
//! `hygiene/unused-allow` audit. A scrubbed site stays in the site
//! list; each rule's local finding there is suppressed only by an
//! allow that names that rule.
//!
//! Witnesses: for every (function, effect) pair the analysis keeps one
//! shortest call chain to a concrete source token, reconstructed for
//! diagnostics as `` `helper` (file:line) -> `SystemTime` (file:line) ``.
//! Witness chains are assigned by BFS from the direct sites over
//! reverse call edges, so they are acyclic even inside recursion
//! cycles.

use crate::graph::{CallGraph, FnRef};
use crate::lexer::Lexed;
use crate::rules::{Rule, RULES};
use std::collections::BTreeSet;

/// Unordered-iteration methods on hash collections.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// `std` hash-container type names; iterating one is
/// [`Effect::HashIter`].
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Every hash-container type name; iterating a name declared only with
/// the `Fx` types is [`Effect::FxHashIter`].
const ANY_HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Entropy-seeded RNG constructors/handles.
const RNG_IDENTS: &[&str] = &["thread_rng", "ThreadRng", "from_entropy", "OsRng"];

/// Architectural-state mutators ([`Effect::ArchMutation`]): Agent
/// crates must not call them, and Agent hook values must not reach
/// their arguments. The sanctioned intervention surface is `FabricIo`
/// (`push_pred`, `push_load`) only.
pub const ARCH_MUTATORS: &[&str] = &[
    "set_pc",
    "set_reg",
    "set_freg_bits",
    "mem_mut",
    "committed_mut",
    "write_spec",
    "commit_store",
    "squash_after",
    "write_u8",
];

/// Panic-family macros ([`Effect::Panics`], with `.unwrap()` and
/// `.expect()`).
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Number of effect kinds (bit width of [`EffectSet`]).
pub const N_EFFECTS: usize = 7;

/// One effect kind tracked by the summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Reads host time (`Instant::now`, `SystemTime`).
    WallClock = 0,
    /// Reads the process environment (`env::var`, `env!`).
    EnvRead = 1,
    /// Entropy-seeded randomness (`thread_rng`, `from_entropy`, ...).
    Rng = 2,
    /// Iterates a `std` hash container in bucket order.
    HashIter = 3,
    /// Iterates an `Fx` hash container in bucket order (deterministic
    /// per process, still not canonical across encodings).
    FxHashIter = 4,
    /// Calls an architectural-state mutator (`set_reg`, `set_pc`, ...).
    ArchMutation = 5,
    /// May panic (`panic!`-family macros, `.unwrap()`, `.expect()`).
    Panics = 6,
}

impl Effect {
    /// Every effect kind, in bit order.
    pub const ALL: [Effect; N_EFFECTS] = [
        Effect::WallClock,
        Effect::EnvRead,
        Effect::Rng,
        Effect::HashIter,
        Effect::FxHashIter,
        Effect::ArchMutation,
        Effect::Panics,
    ];

    /// Stable display name (used in `--graph` dumps and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Effect::WallClock => "wall-clock",
            Effect::EnvRead => "env-read",
            Effect::Rng => "rng",
            Effect::HashIter => "hash-iter",
            Effect::FxHashIter => "fx-hash-iter",
            Effect::ArchMutation => "arch-mutation",
            Effect::Panics => "panics",
        }
    }

    /// What a call reaches when its callee carries the effect, for
    /// transitive diagnostics.
    pub fn noun(self) -> &'static str {
        match self {
            Effect::WallClock => "a wall-clock read",
            Effect::EnvRead => "an environment read",
            Effect::Rng => "an entropy-seeded RNG",
            Effect::HashIter => "hash-ordered iteration",
            Effect::FxHashIter => "hash-ordered (Fx) iteration",
            Effect::ArchMutation => "an architectural-state mutator",
            Effect::Panics => "a panic",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }

    /// The hazard an allow annotation vouches for. The two hash
    /// effects are one hazard: an `allow(hash-iter)` over an `Fx`
    /// container scrubs it too.
    fn hazard(self) -> Effect {
        match self {
            Effect::FxHashIter => Effect::HashIter,
            e => e,
        }
    }

    /// The rules whose allow annotations scrub a site of this effect:
    /// every row of [`RULES`] that forbids its hazard. An allow written
    /// for any rule that would flag the site also asserts the site is
    /// safe for the transitive analysis.
    fn scrubbed_by(self) -> impl Iterator<Item = &'static Rule> {
        RULES
            .iter()
            .filter(move |r| r.forbids.iter().any(|f| f.hazard() == self.hazard()))
    }
}

/// A small bitset of [`Effect`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectSet(u16);

impl EffectSet {
    /// The empty set.
    pub fn empty() -> EffectSet {
        EffectSet(0)
    }

    /// True when `e` is in the set.
    pub fn has(self, e: Effect) -> bool {
        self.0 & (1 << e.idx()) != 0
    }

    /// Inserts `e`.
    pub fn insert(&mut self, e: Effect) {
        self.0 |= 1 << e.idx();
    }

    /// Set union.
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// True when no effect is present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when every effect in `self` is also in `other`.
    pub fn subset_of(self, other: EffectSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Display names of the member effects, in bit order.
    pub fn names(self) -> Vec<&'static str> {
        Effect::ALL
            .iter()
            .filter(|e| self.has(**e))
            .map(|e| e.name())
            .collect()
    }
}

/// A concrete source token that grounds an effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseSite {
    /// The effect the token produces.
    pub effect: Effect,
    /// Token index of the matched token in its file's stream.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// The matched identifier (`SystemTime`, `env`, `set_pc`,
    /// `unwrap`, `panic`, ...); for hash iteration, the container's
    /// name.
    pub token: String,
    /// Short description of the site (`SystemTime`, `m.iter()`, ...).
    pub what: String,
    /// True when an allow annotation scrubs the site: it stays out of
    /// the base set, the summaries and the witnesses.
    pub scrubbed: bool,
}

impl BaseSite {
    /// The site as a diagnostic names it.
    pub fn describe(&self) -> String {
        match self.effect {
            Effect::HashIter | Effect::FxHashIter => format!(
                "iteration `{}` over hash-ordered container `{}`",
                self.what, self.token
            ),
            Effect::ArchMutation => format!("architectural-state mutator `{}`", self.token),
            _ => format!("`{}`", self.what),
        }
    }
}

/// One hop of a witness chain for (function, effect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// The function's own body contains the source token.
    Direct {
        /// Line of the source token.
        line: u32,
        /// Short description of the token.
        what: String,
    },
    /// The effect arrives through a call to `callee`.
    Call {
        /// Line of the call site.
        line: u32,
        /// Index of the callee in the function table.
        callee: usize,
    },
}

/// The computed effect summaries for one analysis.
#[derive(Debug, Default)]
pub struct Effects {
    /// Per-function base effects (own body only, scrubbed sites left
    /// out).
    pub base: Vec<EffectSet>,
    /// Per-function base sites, scrubbed ones included: the rule
    /// table's local findings and the diagnostic grounding.
    pub base_sites: Vec<Vec<BaseSite>>,
    /// Per-file item-level sites (tokens outside every function body,
    /// `use` declaration and test module), scrubbed ones included.
    pub item_sites: Vec<Vec<BaseSite>>,
    /// Per-function transitive summaries (base closed over calls).
    pub summary: Vec<EffectSet>,
    /// Per-function, per-effect witness hop (None when absent).
    pub witness: Vec<[Option<Witness>; N_EFFECTS]>,
    /// Per-file indices into `Lexed::allows` that scrubbed a base
    /// site; feeds the unused-allow audit.
    pub used_allows: Vec<BTreeSet<usize>>,
}

/// Indices of allow annotations that cover a finding of
/// (`family`, `rule`) on `line` (same line or the line above).
pub fn matching_allows(lexed: &Lexed, family: &str, rule: &str, line: u32) -> Vec<usize> {
    let qualified = format!("{family}/{rule}");
    lexed
        .allows
        .iter()
        .enumerate()
        .filter(|(_, a)| {
            (a.line == line || a.line + 1 == line)
                && a.rules
                    .iter()
                    .any(|r| r == family || r == rule || *r == qualified)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Computes base sites, transitive summaries and witnesses for the
/// function table `fns` over `graph`. `lexeds[i]` is the lexed source
/// of file `i` (the index space of `FnRef::file`).
pub fn compute(lexeds: &[&Lexed], fns: &[FnRef], graph: &CallGraph) -> Effects {
    let n = fns.len();
    let mut out = Effects {
        base: vec![EffectSet::empty(); n],
        base_sites: vec![Vec::new(); n],
        item_sites: vec![Vec::new(); lexeds.len()],
        summary: vec![EffectSet::empty(); n],
        witness: vec![std::array::from_fn(|_| None); n],
        used_allows: vec![BTreeSet::new(); lexeds.len()],
    };

    // Per-file hash-container binding names: `std` containers carry
    // HashIter, `Fx`-only names carry FxHashIter.
    let per_file_names: Vec<(Vec<String>, Vec<String>)> = lexeds
        .iter()
        .map(|l| {
            let std_names = hash_names_of(l, HASH_TYPES);
            let fx_names = hash_names_of(l, ANY_HASH_TYPES)
                .into_iter()
                .filter(|n| !std_names.contains(n))
                .collect();
            (std_names, fx_names)
        })
        .collect();

    // Tokens an item-level scan skips: function bodies, `use`
    // declarations and test modules.
    let mut claimed: Vec<Vec<bool>> = lexeds
        .iter()
        .map(|l| {
            let n = l.tokens.len();
            let mut c = vec![false; n];
            for &(s, e) in l.test_ranges.iter().chain(&use_ranges(l)) {
                c[s.min(n)..e.min(n)].fill(true);
            }
            c
        })
        .collect();

    for (fi, f) in fns.iter().enumerate() {
        let lexed = lexeds[f.file];
        let Some((start, end)) = f.item.body else {
            continue;
        };
        let end = end.min(lexed.tokens.len());
        claimed[f.file][start..end].fill(true);
        let (std_names, fx_names) = &per_file_names[f.file];
        let own = (start..end).filter(|&i| f.item.owns(i) && !lexed.in_test_region(i));
        let mut sites = sites_in(lexed, own, std_names, fx_names);
        scrub(&mut sites, lexed, &mut out.used_allows[f.file]);
        for site in sites.iter().filter(|s| !s.scrubbed) {
            out.base[fi].insert(site.effect);
        }
        out.base_sites[fi] = sites;
    }
    for (file, lexed) in lexeds.iter().enumerate() {
        let (std_names, fx_names) = &per_file_names[file];
        let free = (0..lexed.tokens.len()).filter(|&i| !claimed[file][i]);
        let mut sites = sites_in(lexed, free, std_names, fx_names);
        scrub(&mut sites, lexed, &mut out.used_allows[file]);
        out.item_sites[file] = sites;
    }

    // Monotone fixpoint in one pass: SCCs arrive callee-first, so
    // every external callee summary is final when its callers fold it.
    for scc in &graph.sccs {
        let this = graph.scc_of[scc[0]];
        let mut s = EffectSet::empty();
        for &f in scc {
            s = s.union(out.base[f]);
            for &(c, _) in &graph.callees[f] {
                if graph.scc_of[c] != this {
                    s = s.union(out.summary[c]);
                }
            }
        }
        for &f in scc {
            out.summary[f] = s;
        }
    }

    // Witnesses: per effect, BFS from the direct sites over reverse
    // edges. Each hop points at an already-witnessed callee, so chains
    // terminate even through recursion cycles.
    for e in Effect::ALL {
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for fi in 0..n {
            let direct = out.base_sites[fi]
                .iter()
                .find(|s| s.effect == e && !s.scrubbed);
            if let Some(site) = direct {
                out.witness[fi][e.idx()] = Some(Witness::Direct {
                    line: site.line,
                    what: site.what.clone(),
                });
                queue.push_back(fi);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &caller in &graph.callers[f] {
                if out.witness[caller][e.idx()].is_some() {
                    continue;
                }
                let line = graph.callees[caller]
                    .iter()
                    .find(|&&(c, _)| c == f)
                    .map_or(fns[caller].item.line, |&(_, l)| l);
                out.witness[caller][e.idx()] = Some(Witness::Call { line, callee: f });
                queue.push_back(caller);
            }
        }
    }
    out
}

/// Collects names declared with one of the `types` anywhere in the
/// file: struct fields and typed bindings (`name: HashMap<..>`,
/// possibly behind `&`/`&mut`/a `std::collections::` path) and
/// inferred bindings (`let name = HashMap::new()`).
fn hash_names_of(lexed: &Lexed, types: &[&str]) -> Vec<String> {
    let toks = &lexed.tokens;
    let t = |i: usize| toks.get(i).map(|t| t.text.as_str());
    let mut names = Vec::new();
    for i in 0..toks.len() {
        let is_hash = t(i).is_some_and(|w| types.contains(&w));
        if !is_hash {
            continue;
        }
        // Walk left over a type-path / reference prefix to find either
        // `name :` (typed binding or field) or `name =` (let binding).
        let mut j = i;
        // `std :: collections ::` / `crate :: fxhash ::` path segments
        // (each is `seg : :`).
        while j >= 3
            && t(j - 1) == Some(":")
            && t(j - 2) == Some(":")
            && matches!(
                t(j - 3),
                Some("std") | Some("collections") | Some("crate") | Some("fxhash")
            )
        {
            j -= 3;
        }
        // Reference / lifetime / mut prefix (`& 'a mut`).
        loop {
            let is_lifetime = j >= 2
                && t(j - 2) == Some("'")
                && t(j - 1).is_some_and(|w| w.chars().all(|c| c.is_alphanumeric() || c == '_'));
            if is_lifetime {
                j -= 2;
            } else if j >= 1 && matches!(t(j - 1), Some("&") | Some("mut")) {
                j -= 1;
            } else {
                break;
            }
        }
        // `j` now points at the first token of the type expression; the
        // token before it should be `:` or `=` preceded by the name.
        if j >= 2 && matches!(t(j - 1), Some(":") | Some("=")) {
            if let Some(name) = t(j - 2) {
                if name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
                    && !names.iter().any(|n| n == name)
                {
                    names.push(name.to_string());
                }
            }
        }
    }
    names
}

/// Half-open token ranges of the file's `use` declarations: `use`
/// through its `;`.
fn use_ranges(lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "use" {
            let end = (i..toks.len())
                .find(|&j| toks[j].text == ";")
                .map_or(toks.len(), |j| j + 1);
            out.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// Marks each site scrubbed by an adjacent allow that names a rule
/// forbidding its effect, recording those allows in `used`.
fn scrub(sites: &mut [BaseSite], lexed: &Lexed, used: &mut BTreeSet<usize>) {
    for site in sites {
        for r in site.effect.scrubbed_by() {
            let hits = matching_allows(lexed, r.family, r.rule, site.line);
            site.scrubbed |= !hits.is_empty();
            used.extend(hits);
        }
    }
}

/// Scans the token indices `region` (ascending) for base-effect source
/// tokens.
fn sites_in(
    lexed: &Lexed,
    region: impl Iterator<Item = usize>,
    std_names: &[String],
    fx_names: &[String],
) -> Vec<BaseSite> {
    let mut sites = Vec::new();
    let toks = &lexed.tokens;
    let t = |i: usize| toks.get(i).map(|t| t.text.as_str());
    let mut push = |effect: Effect, tok: usize, token: &str, what: String| {
        sites.push(BaseSite {
            effect,
            tok,
            line: toks[tok].line,
            token: token.to_string(),
            what,
            scrubbed: false,
        });
    };
    let hash_grade = |name: &str| {
        if std_names.iter().any(|n| n == name) {
            Some(Effect::HashIter)
        } else if fx_names.iter().any(|n| n == name) {
            Some(Effect::FxHashIter)
        } else {
            None
        }
    };
    for i in region {
        let Some(w) = t(i) else { continue };

        // Wall clock.
        if w == "Instant"
            && t(i + 1) == Some(":")
            && t(i + 2) == Some(":")
            && t(i + 3) == Some("now")
        {
            push(Effect::WallClock, i, w, "Instant::now".into());
        }
        if w == "SystemTime" {
            push(Effect::WallClock, i, w, w.into());
        }

        // Environment.
        if w == "env"
            && t(i + 1) == Some(":")
            && t(i + 2) == Some(":")
            && matches!(t(i + 3), Some("var") | Some("var_os") | Some("vars"))
        {
            push(
                Effect::EnvRead,
                i,
                w,
                format!("env::{}", t(i + 3).unwrap_or("var")),
            );
        }
        if matches!(w, "env" | "option_env") && t(i + 1) == Some("!") {
            push(Effect::EnvRead, i, w, format!("{w}!"));
        }

        // Entropy RNG.
        if RNG_IDENTS.contains(&w) {
            push(Effect::Rng, i, w, w.into());
        }

        // Hash-ordered iteration: `name.iter()` and friends.
        if let Some(e) = hash_grade(w) {
            if t(i + 1) == Some(".") && t(i + 3) == Some("(") {
                if let Some(m) = t(i + 2) {
                    if HASH_ITER_METHODS.contains(&m) {
                        push(e, i, w, format!("{w}.{m}()"));
                    }
                }
            }
        }

        // `for k in &map {`.
        if w == "in" {
            let mut j = i + 1;
            while matches!(t(j), Some("&") | Some("mut") | Some("self") | Some(".")) {
                j += 1;
            }
            if let Some(name) = t(j) {
                if let (Some(e), Some("{")) = (hash_grade(name), t(j + 1)) {
                    push(e, j, name, format!("for _ in {name}"));
                }
            }
        }

        // Architectural-state mutator calls (method or path form).
        if ARCH_MUTATORS.contains(&w)
            && t(i + 1) == Some("(")
            && i > 0
            && (t(i - 1) == Some(".") || (i >= 2 && t(i - 1) == Some(":") && t(i - 2) == Some(":")))
        {
            push(Effect::ArchMutation, i, w, w.into());
        }

        // Panic paths.
        if PANIC_MACROS.contains(&w) && t(i + 1) == Some("!") {
            push(Effect::Panics, i, w, format!("{w}!"));
        }
        if matches!(w, "unwrap" | "expect")
            && i > 0
            && t(i - 1) == Some(".")
            && t(i + 1) == Some("(")
        {
            push(Effect::Panics, i, w, format!(".{w}()"));
        }
    }
    sites
}

impl Effects {
    /// Renders the witness chain for (`start`, `e`) as diagnostic
    /// hops: intermediate hops are `` `fn` (file:line-of-call) ``, the
    /// final hop is `` `token` in `fn` (file:line) ``.
    pub fn witness_path(
        &self,
        fns: &[FnRef],
        displays: &[String],
        start: usize,
        e: Effect,
    ) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = start;
        // The chain is acyclic by construction; the bound is a guard
        // against internal inconsistency, not an expected exit.
        for _ in 0..=fns.len() {
            let file = &displays[fns[cur].file];
            match &self.witness[cur][e.idx()] {
                Some(Witness::Direct { line, what }) => {
                    out.push(format!(
                        "`{}` in `{}` ({file}:{line})",
                        what, fns[cur].item.name
                    ));
                    return out;
                }
                Some(Witness::Call { line, callee }) => {
                    out.push(format!("`{}` ({file}:{line})", fns[cur].item.name));
                    cur = *callee;
                }
                None => {
                    out.push(format!(
                        "`{}` ({file}:{})",
                        fns[cur].item.name, fns[cur].item.line
                    ));
                    return out;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{extract_fns, CallGraph};
    use crate::lexer::lex;

    fn analyze(src: &str) -> (Vec<FnRef>, CallGraph, Effects, Lexed) {
        let lexed = lex(src);
        let fns: Vec<FnRef> = extract_fns(&lexed)
            .into_iter()
            .map(|item| FnRef { file: 0, item })
            .collect();
        let graph = CallGraph::build(&fns, &crate::graph::LinkPolicy::allow_all());
        let effects = compute(&[&lexed], &fns, &graph);
        (fns, graph, effects, lexed)
    }

    fn idx(fns: &[FnRef], name: &str) -> usize {
        fns.iter()
            .position(|f| f.item.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn base_effects_are_detected() {
        let src = "fn clocky() { let t = SystemTime::now(); }\n\
                   fn envy() { let v = std::env::var(\"X\"); }\n\
                   fn rngy() { let r = thread_rng(); }\n\
                   fn mutey(m: &mut M) { m.set_reg(1, 2); }\n\
                   fn panicky(x: u64) { if x == 0 { panic!(\"b\") } }\n";
        let (fns, _, eff, _) = analyze(src);
        assert!(eff.base[idx(&fns, "clocky")].has(Effect::WallClock));
        assert!(eff.base[idx(&fns, "envy")].has(Effect::EnvRead));
        assert!(eff.base[idx(&fns, "rngy")].has(Effect::Rng));
        assert!(eff.base[idx(&fns, "mutey")].has(Effect::ArchMutation));
        assert!(eff.base[idx(&fns, "panicky")].has(Effect::Panics));
    }

    #[test]
    fn hash_iteration_grades_std_vs_fx() {
        let src = "fn f(m: &HashMap<u32, u32>, g: &FxHashMap<u32, u32>) {\n\
                     for k in m { let _ = k; }\n\
                     for k in g { let _ = k; }\n\
                   }";
        let (fns, _, eff, _) = analyze(src);
        let s = eff.base[idx(&fns, "f")];
        assert!(s.has(Effect::HashIter));
        assert!(s.has(Effect::FxHashIter));
    }

    #[test]
    fn summaries_propagate_transitively() {
        let src =
            "fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() { let t = SystemTime::now(); }";
        let (fns, _, eff, _) = analyze(src);
        assert!(eff.summary[idx(&fns, "top")].has(Effect::WallClock));
        assert!(eff.summary[idx(&fns, "mid")].has(Effect::WallClock));
        assert!(eff.base[idx(&fns, "top")].is_empty());
    }

    #[test]
    fn summaries_are_monotone_and_converged() {
        // A diamond plus a recursion cycle; the fixpoint must satisfy
        // summary(f) ⊇ base(f) ∪ ⋃ summary(callee) — i.e. re-applying
        // the transfer function changes nothing (convergence), and
        // every summary contains its base (monotonicity).
        let src = "fn a() { b(); c(); }\nfn b() { d(); }\nfn c() { d(); let r = thread_rng(); }\n\
                   fn d() { a_cycle(); }\nfn a_cycle() { d(); let t = SystemTime::now(); }";
        let (fns, graph, eff, _) = analyze(src);
        for (fi, f) in fns.iter().enumerate() {
            assert!(
                eff.base[fi].subset_of(eff.summary[fi]),
                "base ⊄ summary for {}",
                f.item.name
            );
            let mut re = eff.base[fi];
            for &(c, _) in &graph.callees[fi] {
                re = re.union(eff.summary[c]);
            }
            assert_eq!(
                re, eff.summary[fi],
                "transfer function not at fixpoint for {}",
                f.item.name
            );
        }
        // And the witness table agrees exactly with the summaries.
        for (fi, f) in fns.iter().enumerate() {
            for e in Effect::ALL {
                assert_eq!(
                    eff.summary[fi].has(e),
                    eff.witness[fi][e as usize].is_some(),
                    "witness/summary mismatch for {} / {}",
                    f.item.name,
                    e.name()
                );
            }
        }
    }

    #[test]
    fn scc_cycles_converge_with_witnesses() {
        let src = "fn ping() { pong(); }\nfn pong() { ping(); tick(); }\nfn tick() { let t = SystemTime::now(); }";
        let (fns, _, eff, _) = analyze(src);
        let ping = idx(&fns, "ping");
        assert!(eff.summary[ping].has(Effect::WallClock));
        let path = eff.witness_path(&fns, &["a.rs".to_string()], ping, Effect::WallClock);
        let joined = path.join(" -> ");
        assert!(joined.contains("`SystemTime`"), "{joined}");
        assert!(
            path.len() <= fns.len() + 1,
            "witness chain cycled: {joined}"
        );
    }

    #[test]
    fn allow_scrubs_base_effect_and_is_recorded_used() {
        let src = "fn audited(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                     // pfm-lint: allow(hash-iter)\n\
                     let mut v: Vec<u32> = m.keys().copied().collect();\n\
                     v.sort_unstable(); v\n\
                   }";
        let (fns, _, eff, _) = analyze(src);
        assert!(eff.base[idx(&fns, "audited")].is_empty());
        assert_eq!(
            eff.used_allows[0].iter().copied().collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn scrubbed_sites_stay_listed_and_hash_allows_cover_fx() {
        // The scrubbed site is still a site (each rule's local finding
        // is suppressed only by an allow naming that rule), and an
        // `allow(hash-iter)` vouches for an Fx container as well.
        let src = "fn audited(m: &FxHashMap<u32, u32>) -> Vec<u32> {\n\
                     // pfm-lint: allow(hash-iter)\n\
                     let mut v: Vec<u32> = m.keys().copied().collect();\n\
                     v.sort_unstable(); v\n\
                   }";
        let (fns, _, eff, _) = analyze(src);
        let f = idx(&fns, "audited");
        assert!(eff.base[f].is_empty());
        assert!(eff.witness[f][Effect::FxHashIter as usize].is_none());
        let sites = &eff.base_sites[f];
        assert_eq!(sites.len(), 1, "{sites:?}");
        assert_eq!(sites[0].effect, Effect::FxHashIter);
        assert_eq!(sites[0].token, "m");
        assert!(sites[0].scrubbed);
    }

    #[test]
    fn item_sites_are_the_tokens_outside_bodies_uses_and_tests() {
        let src = "use std::time::SystemTime;\n\
                   static T: u64 = seed().unwrap();\n\
                   fn f() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests { static U: u64 = y.unwrap(); }";
        let (fns, _, eff, _) = analyze(src);
        let item: Vec<(u32, &str)> = eff.item_sites[0]
            .iter()
            .map(|s| (s.line, s.token.as_str()))
            .collect();
        assert_eq!(item, vec![(2, "unwrap")]);
        // The body's site is the function's alone, and no item-level
        // site reaches a summary.
        let f = idx(&fns, "f");
        assert_eq!(eff.base_sites[f].len(), 1);
        assert_eq!(eff.summary[f].names(), vec!["panics"]);
    }

    #[test]
    fn witness_path_names_each_hop() {
        let src = "fn snap_outer() { helper_one(); }\nfn helper_one() { helper_two(); }\n\
                   fn helper_two() { let t = SystemTime::now(); }";
        let (fns, _, eff, _) = analyze(src);
        let path = eff.witness_path(
            &fns,
            &["crates/x/src/y.rs".to_string()],
            idx(&fns, "helper_one"),
            Effect::WallClock,
        );
        assert_eq!(path.len(), 2, "{path:?}");
        assert!(path[0].starts_with("`helper_one`"), "{path:?}");
        assert!(path[1].contains("`SystemTime` in `helper_two`"), "{path:?}");
    }
}
