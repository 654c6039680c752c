//! Functional/detailed equivalence gate: the functional executor
//! (`FastExec`, the `Machine`'s functional loop over the same execute
//! and commit fold the core retires through) must retire the *exact
//! same committed stream* as the detailed out-of-order core — for every
//! use case the experiment suite simulates, in both baseline and PFM
//! modes.
//!
//! The committed-stream checksum folds PCs, branch outcomes, register
//! writes and stores over the first `max_instrs` retired instructions,
//! so equality here means the two speeds are architecturally
//! interchangeable: the sampled-run mode may fast-forward functionally
//! and hand off to detailed intervals without changing what the
//! program computes.
//!
//! The budget is deliberately truncated — this runs as a CI smoke
//! step (`ci.sh`); the full-length equivalence is implied by
//! determinism plus the snapshot round-trip regression.

use pfm_fabric::FabricParams;
use pfm_sim::usecases::throughput_suite_factories;
use pfm_sim::{run_baseline, run_functional, run_pfm, RunConfig};

#[test]
fn functional_matches_detailed_for_every_use_case_and_mode() {
    let rc = RunConfig {
        max_instrs: 10_000,
        ..RunConfig::test_scale()
    };
    let factories = throughput_suite_factories();
    assert_eq!(factories.len(), 11, "suite shrank — update this gate");
    for factory in factories {
        let uc = factory.build();
        let name = factory.name();
        let fun = run_functional(&uc, &rc).unwrap_or_else(|e| panic!("{name} functional: {e}"));
        let base = run_baseline(&uc, &rc).unwrap_or_else(|e| panic!("{name} baseline: {e}"));
        let pfm = run_pfm(&uc, FabricParams::paper_default(), &rc)
            .unwrap_or_else(|e| panic!("{name} pfm: {e}"));

        assert_eq!(
            fun.arch_checksum, base.arch_checksum,
            "{name}: functional and baseline committed streams differ"
        );
        assert_eq!(
            fun.arch_checksum, pfm.arch_checksum,
            "{name}: functional and PFM committed streams differ \
             (fabric interventions must stay microarchitectural)"
        );
        assert_eq!(
            fun.completed, base.completed,
            "{name}: completion disagrees between speeds"
        );
        assert!(fun.stats.retired > 0, "{name}: functional retired nothing");
        assert_eq!(
            fun.stats.loads, base.stats.loads,
            "{name}: retired load counts differ"
        );
        assert_eq!(
            fun.stats.stores, base.stats.stores,
            "{name}: retired store counts differ"
        );
    }
}
