//! Golden-stats regression test: every use case's complete statistics
//! vector, at a small instruction budget, folded into one checksum per
//! (use case, mode) pair and pinned against values captured *before*
//! the simulator's hot paths were optimized.
//!
//! This is the contract every fast path in the simulator must honor:
//! an optimization that changes any statistic — cycles, mispredicts,
//! cache hits, fabric counters — is a bug, not a speedup. The run-plan
//! dedup layer and the EXPERIMENTS.md tables both rely on per-run
//! determinism, so the checksums here must be stable across
//! debug/release builds, thread schedules, and host machines.
//!
//! Regenerating (only after an *intentional* model change): run with
//! `PFM_GOLDEN_PRINT=1` and paste the printed table over `GOLDEN`.

use pfm_sim::plan::RunSpec;
use pfm_sim::{exec, usecases, ExecOptions, RunConfig, RunResult};

/// Instruction budget: small enough to keep debug-build test time in
/// check, large enough to exercise squashes, cache misses, the TLB,
/// both prefetchers, and every fabric agent path.
const GOLDEN_INSTRS: u64 = 30_000;

/// FNV-1a over every statistic of a completed run. Field order is
/// fixed; adding a counter to any stats struct will change checksums
/// and require a deliberate regeneration.
fn checksum(r: &RunResult) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(FNV_PRIME);
    };
    let s = &r.stats;
    for v in [
        s.cycles,
        s.retired,
        s.cond_branches,
        s.mispredicts,
        s.target_mispredicts,
        s.squash_mispredict,
        s.squash_disambiguation,
        s.squash_roi,
        s.fetch_icache_stall_cycles,
        s.fetch_fabric_stall_cycles,
        s.fetch_redirect_stall_cycles,
        s.retire_agent_stall_cycles,
        s.fabric_predictions_used,
        s.fabric_mispredicts,
        s.fabric_loads,
        s.fabric_prefetches,
        s.loads,
        s.stores,
    ] {
        fold(v);
    }
    let m = &r.hier;
    for v in [
        m.l1d_hits,
        m.l1d_misses,
        m.inflight_merges,
        m.l2_hits,
        m.l3_hits,
        m.dram_accesses,
        m.l1i_misses,
        m.prefetches_issued,
        m.mshr_wait_cycles,
    ] {
        fold(v);
    }
    if let Some(f) = &r.fabric {
        for v in [
            f.fetched_in_roi,
            f.fst_hits,
            f.retired_in_roi,
            f.rst_hits,
            f.obs_packets,
            f.preds_delivered,
            f.preds_dropped,
            f.pred_mismatch_passes,
            f.loads_injected,
            f.prefetches_injected,
            f.mlb_replays,
            f.mlb_full_drops,
            f.squash_packets,
            f.port_conflict_delays,
            u64::from(f.watchdog_fired),
        ] {
            fold(v);
        }
    }
    h
}

/// Captured from the pre-optimization simulator (PR 3 baseline) at
/// `GOLDEN_INSTRS` on the Table 1 machine. `(name, mode, checksum)`.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("astar", "baseline", 0xca0ef10b69cdbb6f),
    ("astar", "pfm", 0xd19c4e470aa89b0a),
    ("astar-slipstream", "baseline", 0xca0ef10b69cdbb6f),
    ("astar-slipstream", "pfm", 0xa25178aea7eff907),
    ("astar-alt", "baseline", 0xca0ef10b69cdbb6f),
    ("astar-alt", "pfm", 0x69ea7496e7cc0bca),
    ("bfs-roads", "baseline", 0x9806e36721d7e2b7),
    ("bfs-roads", "pfm", 0x6c132a2e773cf24a),
    ("bfs-roads-slipstream", "baseline", 0x9806e36721d7e2b7),
    ("bfs-roads-slipstream", "pfm", 0x2145bcef98d5967c),
    ("bfs-youtube", "baseline", 0xcc9036f48c6d2cad),
    ("bfs-youtube", "pfm", 0xcd347456d2a1d589),
    ("libquantum", "baseline", 0x6e1a23d3c44e67b6),
    ("libquantum", "pfm", 0xd74629ee54d25f42),
    ("bwaves", "baseline", 0xa2c1ac7ad2aa7efb),
    ("bwaves", "pfm", 0x5240d278391daa16),
    ("lbm", "baseline", 0xa73ed1c544a065fb),
    ("lbm", "pfm", 0x5478d30cfcbf7473),
    ("milc", "baseline", 0x2874c375a3bbaee9),
    ("milc", "pfm", 0x566d57fd6ad7b09f),
    ("leslie", "baseline", 0xb26c506d32b12e9f),
    ("leslie", "pfm", 0x633c84d6ffb482e8),
];

#[test]
fn golden_stats_are_bit_identical() {
    let rc = RunConfig {
        max_instrs: GOLDEN_INSTRS,
        ..RunConfig::paper_scale()
    };
    let mut specs = Vec::new();
    let mut expected = Vec::new();
    for uc in usecases::throughput_suite_factories() {
        specs.push(RunSpec::baseline(uc.clone(), &rc));
        expected.push((uc.name().to_string(), "baseline"));
        specs.push(RunSpec::pfm(
            uc.clone(),
            pfm_fabric::FabricParams::paper_default(),
            &rc,
        ));
        expected.push((uc.name().to_string(), "pfm"));
    }

    let (runs, _) = exec::execute(
        &specs,
        &ExecOptions {
            jobs: 4,
            progress: false,
            keep_going: false,
            store: None,
        },
    );

    let mut actual = Vec::new();
    for (spec, (name, mode)) in specs.iter().zip(&expected) {
        let r = runs.get(spec.key()).expect("golden run completes");
        actual.push((name.clone(), *mode, checksum(r)));
    }

    if std::env::var_os("PFM_GOLDEN_PRINT").is_some() {
        for (name, mode, sum) in &actual {
            println!("    (\"{name}\", \"{mode}\", {sum:#018x}),");
        }
    }

    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "golden table out of sync with the use-case list"
    );
    let mut failures = Vec::new();
    for ((name, mode, sum), (gname, gmode, gsum)) in actual.iter().zip(GOLDEN) {
        assert_eq!((name.as_str(), *mode), (*gname, *gmode), "table order");
        if sum != gsum {
            failures.push(format!("{name}/{mode}: got {sum:#018x}, want {gsum:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "statistics drifted from the golden capture (an optimization \
         changed simulated behavior):\n  {}\nIf the model change was \
         intentional, regenerate with PFM_GOLDEN_PRINT=1.",
        failures.join("\n  ")
    );
}
