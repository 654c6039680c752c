//! Fixture-corpus tests: each rule family against known-bad,
//! known-allowed and known-clean sources, plus the workspace
//! self-check (the tree `pfm-lint` ships in must itself be clean).

use pfm_lint::{lint_source, FileContext, Finding};
use std::path::Path;

/// A source inside a simulation crate (determinism + hygiene apply).
fn sim_ctx() -> FileContext {
    FileContext {
        display: "crates/core/src/fixture.rs".to_string(),
        crate_name: Some("core".to_string()),
        exempt: false,
    }
}

/// A source inside an Agent crate (all three families apply).
fn agent_ctx() -> FileContext {
    FileContext {
        display: "crates/fabric/src/fixture.rs".to_string(),
        crate_name: Some("fabric".to_string()),
        exempt: false,
    }
}

/// A source outside the sim crates (only hygiene applies).
fn tool_ctx() -> FileContext {
    FileContext {
        display: "crates/bench/src/fixture.rs".to_string(),
        crate_name: Some("bench".to_string()),
        exempt: false,
    }
}

fn rules(findings: &[Finding]) -> Vec<(&'static str, &'static str)> {
    findings.iter().map(|f| (f.family, f.rule)).collect()
}

#[test]
fn hash_iter_patterns_are_flagged() {
    let src = include_str!("fixtures/hash_iter_bad.rs");
    let findings = lint_source(src, &sim_ctx());
    let hash_iter = findings
        .iter()
        .filter(|f| f.rule == "hash-iter")
        .collect::<Vec<_>>();
    // .iter(), for-in &map, for-in &set, .keys(), .values(), .drain()
    assert_eq!(
        hash_iter.len(),
        6,
        "expected all six hazards flagged, got: {findings:#?}"
    );
    assert!(findings.iter().all(|f| f.family == "determinism"));
}

#[test]
fn hash_iter_is_crate_scoped() {
    // The same hazards outside the sim crates are not determinism
    // findings (the dedup-executor argument only covers sim results).
    let src = include_str!("fixtures/hash_iter_bad.rs");
    let findings = lint_source(src, &tool_ctx());
    assert!(
        findings.iter().all(|f| f.family != "determinism"),
        "tool crates are out of determinism scope: {findings:#?}"
    );
}

#[test]
fn allow_annotations_suppress_hash_iter() {
    let src = include_str!("fixtures/hash_iter_allowed.rs");
    let findings = lint_source(src, &sim_ctx());
    assert!(
        findings.is_empty(),
        "allow(<rule>) on the same or previous line must suppress: {findings:#?}"
    );
}

#[test]
fn wall_clock_reads_are_flagged() {
    let src = include_str!("fixtures/wall_clock_bad.rs");
    let findings = lint_source(src, &sim_ctx());
    let r = rules(&findings);
    assert!(
        r.contains(&("determinism", "wall-clock")),
        "expected wall-clock findings: {findings:#?}"
    );
    assert!(findings.iter().any(|f| f.message.contains("Instant::now")));
}

#[test]
fn entropy_rng_is_flagged() {
    let src = include_str!("fixtures/rng_bad.rs");
    let findings = lint_source(src, &sim_ctx());
    assert!(
        rules(&findings).contains(&("determinism", "rng")),
        "expected rng findings: {findings:#?}"
    );
}

#[test]
fn arch_mutators_are_flagged_in_agent_crates() {
    let src = include_str!("fixtures/arch_mutation_bad.rs");
    let findings = lint_source(src, &agent_ctx());
    let arch = findings
        .iter()
        .filter(|f| f.rule == "arch-mutation")
        .collect::<Vec<_>>();
    // set_reg, set_pc, mem_mut, commit_store, set_freg_bits.
    assert_eq!(
        arch.len(),
        5,
        "expected all five mutator calls flagged: {findings:#?}"
    );
    assert!(arch.iter().all(|f| f.family == "noninterference"));
}

#[test]
fn arch_mutators_are_fine_outside_agent_crates() {
    // The core itself retires stores and writes registers; only the
    // Agent crates are barred from the mutator surface.
    let src = include_str!("fixtures/arch_mutation_bad.rs");
    let findings = lint_source(src, &sim_ctx());
    assert!(
        findings.iter().all(|f| f.rule != "arch-mutation"),
        "non-agent crates may mutate architectural state: {findings:#?}"
    );
}

#[test]
fn unwrap_and_expect_are_flagged() {
    let src = include_str!("fixtures/hygiene_bad.rs");
    let findings = lint_source(src, &tool_ctx());
    let r = rules(&findings);
    assert!(r.contains(&("hygiene", "unwrap")), "{findings:#?}");
    assert!(r.contains(&("hygiene", "expect")), "{findings:#?}");
    assert_eq!(findings.len(), 2);
}

#[test]
fn catch_unwind_is_flagged_outside_the_executor() {
    let src = include_str!("fixtures/catch_unwind_bad.rs");
    let findings = lint_source(src, &sim_ctx());
    let hits = findings
        .iter()
        .filter(|f| f.rule == "catch-unwind")
        .collect::<Vec<_>>();
    // The `use` plus both call sites.
    assert_eq!(hits.len(), 3, "expected all three sites: {findings:#?}");
    assert!(hits.iter().all(|f| f.family == "robustness"));
}

#[test]
fn catch_unwind_is_sanctioned_at_the_executor_boundary() {
    let src = include_str!("fixtures/catch_unwind_bad.rs");
    let ctx = FileContext {
        display: "crates/sim/src/exec.rs".to_string(),
        crate_name: Some("sim".to_string()),
        exempt: false,
    };
    let findings = lint_source(src, &ctx);
    assert!(
        findings.iter().all(|f| f.rule != "catch-unwind"),
        "the executor owns panic isolation: {findings:#?}"
    );
}

#[test]
fn panic_macros_are_flagged_in_agent_crates() {
    let src = include_str!("fixtures/panic_bad.rs");
    let findings = lint_source(src, &agent_ctx());
    let hits = findings
        .iter()
        .filter(|f| f.rule == "panic")
        .collect::<Vec<_>>();
    // panic!, todo!, unimplemented!, unreachable! — the annotated
    // fifth site is suppressed by its allow(robustness).
    assert_eq!(hits.len(), 4, "expected four macro sites: {findings:#?}");
    assert!(hits.iter().all(|f| f.family == "robustness"));
}

#[test]
fn panic_macros_are_fine_outside_agent_crates() {
    // The core and the tools may panic on internal invariants; only
    // fabric components are held to the graceful-degradation bar.
    let src = include_str!("fixtures/panic_bad.rs");
    let findings = lint_source(src, &tool_ctx());
    assert!(
        findings.iter().all(|f| f.rule != "panic"),
        "tool crates are out of robustness/panic scope: {findings:#?}"
    );
}

/// A source inside a PC-config crate (provenance applies).
fn config_ctx() -> FileContext {
    FileContext {
        display: "crates/components/src/fixture.rs".to_string(),
        crate_name: Some("components".to_string()),
        exempt: false,
    }
}

#[test]
fn raw_hex_pcs_are_flagged() {
    let src = include_str!("fixtures/raw_hex_pc_bad.rs");
    let findings = lint_source(src, &config_ctx());
    let hits = findings
        .iter()
        .filter(|f| f.rule == "raw-hex-pc")
        .collect::<Vec<_>>();
    // struct-literal field, vec! element, let binding, reassignment;
    // the allow-annotated boot vector and the symbol-derived/compare
    // sites stay silent.
    assert_eq!(
        hits.len(),
        4,
        "expected the four seeded sites: {findings:#?}"
    );
    assert!(hits.iter().all(|f| f.family == "provenance"));
    assert!(hits.iter().any(|f| f.message.contains("`load_pc`")));
    assert!(hits.iter().any(|f| f.message.contains("require_symbol")));
}

#[test]
fn raw_hex_pcs_are_out_of_scope_for_tool_crates() {
    // bench/lint tooling may name PCs numerically (e.g. CLI parsing
    // or fixture tables); only configuration-bearing crates are held
    // to symbol provenance.
    let src = include_str!("fixtures/raw_hex_pc_bad.rs");
    let findings = lint_source(src, &tool_ctx());
    assert!(
        findings.iter().all(|f| f.rule != "raw-hex-pc"),
        "tool crates are out of provenance scope: {findings:#?}"
    );
}

#[test]
fn snapshot_hash_iter_is_workspace_wide_and_sees_fx_containers() {
    // Unlike the crate-scoped basic rule, the snapshot rules fire even
    // in tool crates, and FxHashMap is in scope: canonical snapshot
    // bytes must not depend on any hasher's bucket order.
    let src = include_str!("fixtures/snapshot_hash_iter_bad.rs");
    let findings = lint_source(src, &tool_ctx());
    let r = rules(&findings);
    assert_eq!(
        r,
        vec![
            ("determinism", "snapshot-hash-iter"),
            ("determinism", "snapshot-hash-iter"),
        ],
        "expected exactly the two unsorted walks in snapshot_encode: {findings:#?}"
    );
    // The for-in over the Fx map, then the .keys() walk of the std map.
    assert_eq!(findings[0].line, 16);
    assert_eq!(findings[1].line, 20);
}

#[test]
fn snapshot_hash_iter_allow_and_non_snapshot_paths_stay_silent() {
    // The annotated sorted-encode site is suppressed, and tick() is
    // outside every snapshot path, so a sim crate adds only the basic
    // hash-iter finding for the std-hash walk in tick() — the Fx walk
    // there stays invisible to the basic rule by design.
    let src = include_str!("fixtures/snapshot_hash_iter_bad.rs");
    let findings = lint_source(src, &sim_ctx());
    let r = rules(&findings);
    assert_eq!(
        r.iter()
            .filter(|(_, rule)| *rule == "snapshot-hash-iter")
            .count(),
        2,
        "snapshot findings must not change under a sim ctx: {findings:#?}"
    );
    assert!(
        !r.contains(&("determinism", "snapshot-wall-clock")),
        "no wall-clock reads in this fixture: {findings:#?}"
    );
}

#[test]
fn snapshot_wall_clock_is_flagged_only_inside_snapshot_paths() {
    let src = include_str!("fixtures/snapshot_wall_clock_bad.rs");
    let findings = lint_source(src, &tool_ctx());
    let r = rules(&findings);
    assert_eq!(
        r,
        vec![
            ("determinism", "snapshot-wall-clock"),
            ("determinism", "snapshot-wall-clock"),
        ],
        "expected the Instant and SystemTime reads in encode(): {findings:#?}"
    );
    assert_eq!(findings[0].line, 14);
    assert_eq!(findings[1].line, 16);
}

#[test]
fn store_key_impurities_are_flagged_workspace_wide() {
    // Like the snapshot rules, store-key purity applies even in tool
    // crates: any code that builds cache keys or code fingerprints is
    // held to the pure-function bar, wherever it lives.
    let src = include_str!("fixtures/store_key_bad.rs");
    let findings = lint_source(src, &tool_ctx());
    let hits = findings
        .iter()
        .filter(|f| f.rule == "store-key-purity")
        .collect::<Vec<_>>();
    // Instant::now, SystemTime, env::var, env!, and the hash-order
    // fold — the allow-annotated sorted fold and the sites outside
    // key construction stay silent.
    assert_eq!(hits.len(), 5, "expected five seeded sites: {findings:#?}");
    assert!(hits.iter().all(|f| f.family == "determinism"));
    assert!(hits.iter().any(|f| f.message.contains("embeds time")));
    assert!(hits.iter().any(|f| f.message.contains("`env::var`")));
    assert!(hits.iter().any(|f| f.message.contains("`env!`")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("hash-ordered container `files`")));
}

#[test]
fn store_key_purity_findings_are_context_independent() {
    // A sim crate adds its own basic wall-clock/rng findings on top,
    // but the store-key findings themselves must not change.
    let src = include_str!("fixtures/store_key_bad.rs");
    for ctx in [sim_ctx(), agent_ctx(), tool_ctx()] {
        let findings = lint_source(src, &ctx);
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.rule == "store-key-purity")
                .count(),
            5,
            "store-key findings drifted under {}: {findings:#?}",
            ctx.display
        );
    }
}

#[test]
fn item_level_hazards_are_flagged_but_use_lines_are_not() {
    let src = include_str!("fixtures/item_level_bad.rs");
    let sites = |ctx: &FileContext| -> Vec<(u32, &'static str, &'static str)> {
        lint_source(src, ctx)
            .iter()
            .map(|f| (f.line, f.family, f.rule))
            .collect()
    };
    // The `.unwrap()` in the `static` and the `Instant::now` in the
    // macro body; nothing on the `use` lines.
    assert_eq!(
        sites(&sim_ctx()),
        vec![(7, "hygiene", "unwrap"), (11, "determinism", "wall-clock")]
    );
    // Crate scopes still apply: outside the sim crates only hygiene
    // does.
    assert_eq!(sites(&tool_ctx()), vec![(7, "hygiene", "unwrap")]);
}

#[test]
fn clean_fixture_is_clean_everywhere() {
    let src = include_str!("fixtures/clean.rs");
    for ctx in [sim_ctx(), agent_ctx(), tool_ctx()] {
        let findings = lint_source(src, &ctx);
        assert!(
            findings.is_empty(),
            "clean fixture flagged under {}: {findings:#?}",
            ctx.display
        );
    }
}

#[test]
fn exempt_sources_are_never_flagged() {
    let src = include_str!("fixtures/hash_iter_bad.rs");
    let ctx = FileContext {
        exempt: true,
        ..sim_ctx()
    };
    assert!(lint_source(src, &ctx).is_empty());
}

#[test]
fn seeded_fabric_violation_is_caught() {
    // The acceptance probe: a freshly seeded `for k in &hash_map` in
    // crates/fabric must produce a finding (the CLI then exits 1).
    let src = "use std::collections::HashMap;\n\
               fn f(hash_map: &HashMap<u64, u64>) -> u64 {\n\
                   let mut acc = 0;\n\
                   for k in hash_map { acc += k.1; }\n\
                   acc\n\
               }\n";
    let findings = lint_source(src, &agent_ctx());
    assert_eq!(rules(&findings), vec![("determinism", "hash-iter")]);
    assert_eq!(findings[0].line, 4);
}

#[test]
fn swap_purity_flags_mutators_and_wall_clocks_in_reconfig_paths() {
    let src = include_str!("fixtures/swap_purity_bad.rs");
    // sim crate: the scheduler/runner side of the rule.
    let findings = lint_source(src, &sched_ctx());
    let swap = findings
        .iter()
        .filter(|f| f.rule == "swap-purity")
        .collect::<Vec<_>>();
    // set_pc, Instant::now, mem_mut, write_u8, SystemTime — and
    // nothing from `unrelated_helper`, whose name carries no marker.
    assert_eq!(
        swap.len(),
        5,
        "expected all five hazards flagged, got: {findings:#?}"
    );
    assert!(swap.iter().all(|f| f.family == "robustness"));

    // fabric crate: the rule applies there too (alongside
    // noninterference, which also sees the mutators).
    let findings = lint_source(src, &agent_ctx());
    assert_eq!(
        findings.iter().filter(|f| f.rule == "swap-purity").count(),
        5
    );
}

#[test]
fn swap_purity_is_crate_scoped_and_allowable() {
    // Outside fabric/sim the rule does not run at all.
    let src = include_str!("fixtures/swap_purity_bad.rs");
    let findings = lint_source(src, &tool_ctx());
    assert!(findings.iter().all(|f| f.rule != "swap-purity"));

    // A justified allow suppresses it.
    let allowed = "fn drain_window(&self) -> u64 {\n\
                   \x20 // pfm-lint: allow(swap-purity)\n\
                   \x20 let t = Instant::now();\n\
                   \x20 0\n\
                   }\n";
    let findings = lint_source(allowed, &sched_ctx());
    assert!(
        findings.iter().all(|f| f.rule != "swap-purity"),
        "allow annotation must suppress: {findings:#?}"
    );
}

/// A source inside the sim crate proper (where the scheduler and the
/// context-switch runner live; `swap-purity` applies).
fn sched_ctx() -> FileContext {
    FileContext {
        display: "crates/sim/src/fixture.rs".to_string(),
        crate_name: Some("sim".to_string()),
        exempt: false,
    }
}

#[test]
fn diagnostic_format_is_stable() {
    let src = include_str!("fixtures/hygiene_bad.rs");
    let findings = lint_source(src, &tool_ctx());
    let line = findings[0].to_string();
    assert!(
        line.starts_with("crates/bench/src/fixture.rs:4: hygiene/unwrap: "),
        "unexpected diagnostic shape: {line}"
    );
}

#[test]
fn workspace_self_check_is_clean() {
    // pfm-lint must hold its own workspace to its own standard.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf();
    let findings = pfm_lint::lint_workspace(&root).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "workspace is not lint-clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
