//! Static analysis of registered use cases: merges every PC the
//! configuration bitstream watches — the custom component's own
//! [`watchlist`](pfm_fabric::CustomComponent::watchlist), the Fetch
//! Snoop Table, and the Retire Snoop Table — into one
//! [`WatchEntry`] list and runs the `pfm-analyze` check suite over the
//! assembled kernel and its initial memory image.
//!
//! This is the CI teeth behind the watchlist contract: the
//! `pfm-analyze` binary calls [`analyze_usecase`] for every factory in
//! [`usecases::throughput_suite_factories`](crate::usecases::throughput_suite_factories)
//! and fails on any finding, so a kernel edit that silently strands a
//! snoop PC breaks the build instead of the results.

use pfm_analyze::{Analysis, WatchEntry};
use pfm_fabric::{ObserveKind, WatchKind};
use pfm_workloads::UseCase;

/// The merged watchlist of one use case, each entry tagged with the
/// origin that claims it (`component <name>`, `fst`, or `rst`).
pub fn watchlist_for(uc: &UseCase) -> Vec<WatchEntry> {
    let component = uc.component();
    let mut watch: Vec<WatchEntry> = component
        .watchlist()
        .into_iter()
        .map(|(pc, kind)| WatchEntry {
            pc,
            kind,
            origin: format!("component {}", component.name()),
        })
        .collect();
    // Every FST entry redirects fetch on a predicted-taken branch, so
    // it must name a conditional branch.
    watch.extend(uc.fst.iter().map(|&pc| WatchEntry {
        pc,
        kind: WatchKind::CondBranch,
        origin: "fst".to_string(),
    }));
    // RST observations constrain the retiring instruction's shape;
    // pure ROI markers (no observation) place no shape constraint and
    // are covered by the component/FST entries that share the PC.
    watch.extend(uc.rst.iter().filter_map(|(&pc, entry)| {
        let kind = match entry.observe? {
            ObserveKind::DestValue => WatchKind::DestValue,
            ObserveKind::StoreValue => WatchKind::Store,
            ObserveKind::BranchOutcome => WatchKind::CondBranch,
        };
        Some(WatchEntry {
            pc,
            kind,
            origin: "rst".to_string(),
        })
    }));
    watch
}

/// Runs the full `pfm-analyze` suite over one use case with an
/// explicit watchlist. This is the test seam: corrupting one entry
/// before calling it must surface as a `watch-mismatch` finding.
pub fn analyze_usecase_with(uc: &UseCase, watch: &[WatchEntry]) -> Analysis {
    let data_pages = uc.memory.committed().resident_page_addrs();
    pfm_analyze::analyze(&uc.program, watch, &data_pages)
}

/// Runs the full `pfm-analyze` suite over one use case: kernel CFG +
/// dataflow checks plus validation of the merged watchlist against
/// the assembled program.
pub fn analyze_usecase(uc: &UseCase) -> Analysis {
    analyze_usecase_with(uc, &watchlist_for(uc))
}

/// Analyzes every registered use case (the throughput-suite registry)
/// and returns `(name, analysis)` per program. The `pfm-analyze` binary
/// renders the findings ([`pfm_analyze::report_to_json`]) or the
/// interface-inference profiles
/// ([`pfm_analyze::profile::profile_report_to_json`]). `corrupt_watch`
/// is the acceptance-test seam: for the named use case the first
/// watchlist entry's PC is redirected to an address outside any
/// kernel, which must surface as a `watch-mismatch` finding and, since
/// no derived watch entry can match it, as a coverage gap
/// (`derived-watch-gap`).
pub fn analyze_all(corrupt_watch: Option<&str>) -> Vec<(String, Analysis)> {
    crate::usecases::throughput_suite_factories()
        .into_iter()
        .map(|factory| {
            let uc = factory.build();
            let mut watch = watchlist_for(&uc);
            if corrupt_watch == Some(uc.name.as_str()) {
                if let Some(entry) = watch.first_mut() {
                    entry.pc = 0xdead_0000;
                }
            }
            let analysis = analyze_usecase_with(&uc, &watch);
            (uc.name.clone(), analysis)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usecases;

    /// The headline acceptance test: every registered use case's
    /// configuration is consistent with its assembled kernel.
    #[test]
    fn all_registered_use_cases_analyze_clean() {
        for factory in usecases::throughput_suite_factories() {
            let uc = factory.build();
            let analysis = analyze_usecase(&uc);
            assert!(
                analysis.findings.is_empty(),
                "{}: static analysis found defects:\n  {}",
                uc.name,
                analysis
                    .findings
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("\n  ")
            );
        }
    }

    /// Corrupting one watch PC must produce a finding that names the
    /// PC and the expected kind — the analyzer actually cross-checks
    /// the watchlist rather than rubber-stamping it.
    #[test]
    fn corrupted_watch_pc_is_detected() {
        let uc = usecases::astar_custom();
        let mut watch = watchlist_for(&uc);
        assert!(!watch.is_empty(), "astar must watch something");
        let victim = &mut watch[0];
        victim.pc = 0xdead_0000;
        let expected_kind = victim.kind;
        let origin = victim.origin.clone();
        let analysis = analyze_usecase_with(&uc, &watch);
        let f = analysis
            .findings
            .iter()
            .find(|f| f.check == "watch-mismatch")
            .expect("the corrupted entry is flagged");
        assert_eq!(f.pc, Some(0xdead_0000));
        assert_eq!(f.origin, origin);
        assert!(f.message.contains("0xdead0000"), "{}", f.message);
        assert!(
            f.message.contains(&expected_kind.to_string()),
            "{}",
            f.message
        );
    }

    /// The merged watchlist covers all three origins for a use case
    /// that exercises them.
    #[test]
    fn watchlist_merges_component_fst_and_rst() {
        let uc = usecases::astar_custom();
        let watch = watchlist_for(&uc);
        let has = |p: &str| watch.iter().any(|w| w.origin.starts_with(p));
        assert!(has("component "), "component watchlist present");
        assert!(has("fst"), "FST entries present");
        assert!(has("rst"), "RST entries present");
    }
}
