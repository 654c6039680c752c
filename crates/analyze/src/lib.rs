//! `pfm-analyze`: static analysis of assembled PFM programs.
//!
//! PFM's fabric components observe *specific PCs* in the retired
//! stream — predictor configs name branch PCs, prefetcher configs name
//! a delinquent load, snoop tables name value-producing instructions.
//! Nothing in the type system ties those PCs to the assembled kernel:
//! an assembler or kernel edit can silently turn a use case into a
//! no-op that still simulates and still produces (wrong) numbers.
//! This crate closes that gap with program-level analysis:
//!
//! 1. **CFG construction** ([`cfg`]) — basic blocks with direct,
//!    call/return and explicit *unknown* (indirect-jump) edges;
//! 2. **dominators + natural loops** ([`dom`]);
//! 3. **dataflow** ([`dataflow`]) — forward definite-initialization
//!    and backward liveness over the flat 64-register space;
//! 4. **a check suite** ([`checks`]) — uninitialized-register reads,
//!    unreachable blocks, fall-off-end and out-of-range control
//!    transfers, code/data image overlap, and the headline
//!    **agent-watchlist validation**: every `(pc, WatchKind)` a
//!    component's [`watchlist`](pfm_fabric::CustomComponent::watchlist)
//!    claims is checked against what the program actually decodes to
//!    at that PC (conditional branch, loop-controlling branch per the
//!    dominator analysis, load, store, or value-producing
//!    instruction).
//!
//! The crate is dependency-free beyond the workspace's own `pfm-isa`
//! and `pfm-fabric` (the workspace builds offline), and it never
//! executes the program — everything is static, so it runs in
//! microseconds per kernel and belongs in CI.
//!
//! Known limits: indirect jumps other than the `ret` idiom produce
//! [`cfg::EdgeKind::Unknown`] edges the analysis cannot follow (kept
//! explicit, never dropped), and returns conservatively edge to every
//! call's return site — over-approximate control flow, which is the
//! safe direction for every check above. See DESIGN.md § Static
//! Analysis.

pub mod absint;
pub mod cfg;
pub mod checks;
pub mod dataflow;
pub mod dom;
pub mod profile;
pub mod scev;

use pfm_fabric::WatchKind;
use pfm_isa::Program;
use std::collections::BTreeMap;

/// One watched PC with the instruction kind its owner assumes, plus a
/// human-readable origin ("component templated-runahead", "fst", "rst")
/// so a finding names who made the broken assumption.
#[derive(Clone, Debug)]
pub struct WatchEntry {
    /// The watched PC.
    pub pc: u64,
    /// What the watcher assumes lives at `pc`.
    pub kind: WatchKind,
    /// Who watches it.
    pub origin: String,
}

/// One defect the analyzer found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable check identifier (`uninit-read`, `unreachable-block`,
    /// `fall-off-end`, `bad-fetch-target`, `code-data-overlap`,
    /// `watch-mismatch`).
    pub check: &'static str,
    /// The PC (or page address) the finding anchors to.
    pub pc: Option<u64>,
    /// The watchlist origin for `watch-mismatch`; empty otherwise.
    pub origin: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: ", self.check)?;
        if !self.origin.is_empty() {
            write!(f, "[{}] ", self.origin)?;
        }
        f.write_str(&self.message)
    }
}

/// Everything the analyzer computed for one program. The intermediate
/// structures are public so callers (and tests) can ask richer
/// questions than the findings list answers.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The control-flow graph.
    pub cfg: cfg::Cfg,
    /// Dominator tree over it.
    pub dom: dom::Dominators,
    /// Natural loops (one per back edge).
    pub loops: Vec<dom::NaturalLoop>,
    /// Definite-initialization solution.
    pub init: dataflow::InitAnalysis,
    /// Liveness solution.
    pub liveness: dataflow::Liveness,
    /// Constant-propagation solution (over the final CFG).
    pub constprop: absint::ConstProp,
    /// Unique-reaching-definition solution (over the final CFG).
    pub rdefs: absint::ReachingDefs,
    /// Computed `jalr`s constant propagation resolved; the CFG's
    /// former `Unknown` edges for these PCs are `Direct`/`Call` edges.
    pub resolved_jalrs: BTreeMap<u64, u64>,
    /// Interface inference: derived loops, streams, branches, watch
    /// set and hand-watchlist coverage.
    pub profile: profile::ProgramProfile,
    /// Check-suite results, sorted by PC then check name.
    pub findings: Vec<Finding>,
}

/// Analyzes one assembled program against a merged watchlist and the
/// page map of its initialized data image.
///
/// Runs a bounded resolve-rebuild loop first: constant propagation
/// over the current CFG may prove computed `jalr` targets, which turn
/// `Unknown` edges into `Direct`/`Call` edges, which can make more
/// code reachable and more constants provable. The resolved set is
/// *sticky* — a target proven in an earlier round is kept even when
/// the expanded CFG's conservative joins (a `ret`'s
/// return-to-every-call-site edges flowing into a return site, say)
/// blur the base register again; re-deriving from scratch each round
/// would oscillate on exactly the kernels that need resolution. The
/// set only grows, so the fixpoint is reached in a handful of rounds;
/// four is far beyond anything a real kernel needs.
pub fn analyze(prog: &Program, watch: &[WatchEntry], data_pages: &[u64]) -> Analysis {
    let mut resolved: BTreeMap<u64, u64> = BTreeMap::new();
    let mut cfg = cfg::Cfg::build(prog);
    let mut constprop = absint::ConstProp::solve(prog, &cfg);
    for _ in 0..4 {
        let next = absint::resolved_jalr_targets(prog, &cfg, &constprop);
        let mut grew = false;
        for (pc, target) in next {
            grew |= !resolved.contains_key(&pc);
            resolved.entry(pc).or_insert(target);
        }
        if !grew {
            break;
        }
        cfg = cfg::Cfg::build_with(prog, &resolved);
        constprop = absint::ConstProp::solve(prog, &cfg);
    }
    let dom = dom::Dominators::compute(&cfg);
    let loops = dom::natural_loops(&cfg, &dom);
    let init = dataflow::InitAnalysis::solve(prog, &cfg);
    let liveness = dataflow::Liveness::solve(prog, &cfg);
    let rdefs = absint::ReachingDefs::solve(prog, &cfg);
    let profile = profile::derive(prog, &cfg, &loops, &constprop, &rdefs, &resolved, watch);
    let findings = checks::run(prog, &cfg, &dom, &init, watch, data_pages, &profile);
    Analysis {
        cfg,
        dom,
        loops,
        init,
        liveness,
        constprop,
        rdefs,
        resolved_jalrs: resolved,
        profile,
        findings,
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one finding as a JSON object (schema `pfm-analyze/1`).
pub fn finding_to_json(f: &Finding) -> String {
    let pc = match f.pc {
        Some(pc) => format!("\"{pc:#x}\""),
        None => "null".to_string(),
    };
    format!(
        "{{\"check\":\"{}\",\"pc\":{},\"origin\":\"{}\",\"message\":\"{}\"}}",
        f.check,
        pc,
        json_escape(&f.origin),
        json_escape(&f.message)
    )
}

/// Renders a whole multi-program report as JSON. The schema is stable
/// for downstream tooling and pinned by a snapshot test:
///
/// ```json
/// {"schema":"pfm-analyze/1",
///  "programs":[{"name":"...","findings":[
///      {"check":"...","pc":"0x...","origin":"...","message":"..."}]}]}
/// ```
pub fn report_to_json(programs: &[(String, Vec<Finding>)]) -> String {
    let mut out = String::from("{\"schema\":\"pfm-analyze/1\",\"programs\":[");
    for (i, (name, findings)) in programs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"findings\":[",
            json_escape(name)
        ));
        for (j, f) in findings.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&finding_to_json(f));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_safe() {
        let f = Finding {
            check: "watch-mismatch",
            pc: Some(0x108),
            origin: "component \"x\"".to_string(),
            message: "line\nbreak\tand \\slash".to_string(),
        };
        let j = finding_to_json(&f);
        assert!(j.contains("\\\"x\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\\t"));
        assert!(j.contains("\\\\slash"));
        assert!(j.contains("\"pc\":\"0x108\""));
    }

    #[test]
    fn display_includes_origin_only_when_present() {
        let mut f = Finding {
            check: "watch-mismatch",
            pc: Some(0x10),
            origin: "fst".to_string(),
            message: "m".to_string(),
        };
        assert_eq!(f.to_string(), "watch-mismatch: [fst] m");
        f.origin.clear();
        assert_eq!(f.to_string(), "watch-mismatch: m");
    }
}
