//! Interface inference over the registered use cases: the derived
//! profile summaries are pinned, the profile-seeded astar template
//! equals the spec the astar use case runs, the seeded component's
//! watchlist is fully covered by the derived watch set, and the
//! computed-dispatch kernel's `jalr` edge resolves to a profiled
//! handler.

use pfm_analyze::cfg::Cfg;
use pfm_analyze::profile::StreamClass;
use pfm_components::astar_alt::NEIGHBORS;
use pfm_components::template::spec_from_profile;
use pfm_components::TemplateComponent;
use pfm_fabric::CustomComponent;
use pfm_sim::analyze::{analyze_all, analyze_usecase};
use pfm_sim::usecases;
use pfm_workloads::astar::{template_spec, AstarParams};

/// The derived profile of every registered use case, pinned as its
/// PC-free summary line. A kernel or analyzer change that alters loop
/// structure, stream classification, watch derivation, or coverage
/// must update this snapshot deliberately. Every program ends in
/// `gaps=0`: the hand-built watchlists are fully derived or carry a
/// typed divergence.
#[test]
fn derived_profile_summaries_are_pinned() {
    let got: Vec<String> = analyze_all(None)
        .into_iter()
        .map(|(name, a)| format!("{name}: {}", a.profile.summary()))
        .collect();
    let want = [
        "astar: loops=4 strided=3 indirect=33 irregular=8 branches=20 watch=76 \
         resolved_jalrs=1 covered=20 divergences=0 gaps=0",
        "astar-slipstream: loops=4 strided=3 indirect=33 irregular=8 branches=20 watch=76 \
         resolved_jalrs=1 covered=20 divergences=0 gaps=0",
        "astar-alt: loops=4 strided=3 indirect=33 irregular=8 branches=20 watch=76 \
         resolved_jalrs=1 covered=28 divergences=0 gaps=0",
        "bfs-roads: loops=3 strided=2 indirect=4 irregular=1 branches=4 watch=20 \
         resolved_jalrs=0 covered=5 divergences=0 gaps=0",
        "bfs-roads-slipstream: loops=3 strided=2 indirect=4 irregular=1 branches=4 watch=20 \
         resolved_jalrs=0 covered=5 divergences=0 gaps=0",
        "bfs-youtube: loops=3 strided=2 indirect=4 irregular=1 branches=4 watch=20 \
         resolved_jalrs=0 covered=5 divergences=0 gaps=0",
        "libquantum: loops=2 strided=2 indirect=0 irregular=0 branches=3 watch=9 \
         resolved_jalrs=0 covered=3 divergences=0 gaps=0",
        "bwaves: loops=3 strided=3 indirect=0 irregular=0 branches=3 watch=11 \
         resolved_jalrs=0 covered=1 divergences=2 gaps=0",
        "lbm: loops=1 strided=10 indirect=0 irregular=0 branches=1 watch=14 \
         resolved_jalrs=0 covered=3 divergences=0 gaps=0",
        "milc: loops=1 strided=5 indirect=0 irregular=0 branches=1 watch=9 \
         resolved_jalrs=0 covered=3 divergences=0 gaps=0",
        "leslie: loops=6 strided=3 indirect=0 irregular=0 branches=6 watch=18 \
         resolved_jalrs=0 covered=6 divergences=3 gaps=0",
    ];
    assert_eq!(got, want, "derived profile summaries drifted");
}

/// The corrupt-watch seam redirects a component watch entry to a PC
/// no derivation can explain, which must surface as a coverage gap —
/// the CI gate behind `pfm-analyze --corrupt-watch astar`.
#[test]
fn corrupted_watch_entry_becomes_a_coverage_gap() {
    let report: Vec<_> = analyze_all(Some("astar"))
        .into_iter()
        .map(|(name, a)| (name, a.profile))
        .collect();
    let astar = &report
        .iter()
        .find(|(n, _)| n == "astar")
        .expect("astar is registered")
        .1;
    let gaps: usize = astar.coverage.iter().map(|c| c.gaps.len()).sum();
    assert_eq!(gaps, 1, "the corrupted entry must be the one gap");
    assert_eq!(astar.coverage[0].gaps[0].0, 0xdead_0000);
    // Every other use case stays gap-free.
    for (name, p) in &report {
        if name != "astar" {
            assert!(p.coverage.iter().all(|c| c.gaps.is_empty()), "{name}");
        }
    }
}

/// §7's generator gate: feeding the derived profile of the real astar
/// kernel to `spec_from_profile` recovers exactly the spec the astar
/// use case runs — every snoop PC, table base, neighbor offset, lane
/// predicate, and the store-inference flags.
#[test]
fn profile_seeded_spec_equals_the_spec_astar_runs() {
    let uc = usecases::astar_custom();
    let params = AstarParams::default();
    let profile = analyze_usecase(&uc).profile;
    let spec = spec_from_profile(&profile, params.scope)
        .expect("the astar kernel matches the template shape");
    assert_eq!(spec, template_spec(&uc.program, &params));
}

/// The seeded component is a valid fifth component: every PC/kind it
/// watches is in the derived watch set (the same coverage relation the
/// `derived-watch-gap` check enforces for the hand-built components).
#[test]
fn seeded_component_watchlist_is_covered_by_the_profile() {
    let uc = usecases::astar_custom();
    let profile = analyze_usecase(&uc).profile;
    let spec = spec_from_profile(&profile, 8).expect("the astar kernel matches the template shape");
    let seeded = TemplateComponent::new(spec);
    let watchlist = seeded.watchlist();
    assert_eq!(watchlist.len(), 4 + 2 * NEIGHBORS);
    for (pc, kind) in watchlist {
        assert!(
            profile.covers(pc, kind),
            "derived watch set must cover the seeded component's {kind} @ {pc:#x}"
        );
    }
}

/// The computed-dispatch kernel: a naive CFG sees an `Unknown` edge at
/// the `jalr` and an unreachable handler; the resolve loop proves the
/// target, the edge lands on the handler, and the handler's store loop
/// profiles as stride-8 over the dispatch table — with no findings.
#[test]
fn dispatch_jalr_resolves_to_a_profiled_handler() {
    use pfm_workloads::dispatch::{dispatch_program, sym, TABLE_BASE};
    let prog = dispatch_program();
    let jalr = prog.require_symbol(sym::JALR);
    let handler = prog.require_symbol(sym::HANDLER);
    let store = prog.require_symbol(sym::STORE);

    let naive = Cfg::build(&prog);
    assert!(
        naive.has_unknown_edges(),
        "without constant propagation the computed call is opaque"
    );

    let analysis = pfm_analyze::analyze(&prog, &[], &[]);
    assert!(
        !analysis.cfg.has_unknown_edges(),
        "the resolve loop closes the CFG"
    );
    assert_eq!(analysis.resolved_jalrs.get(&jalr), Some(&handler));
    // The handler's `ret` resolves too (its `ra` is the proven link
    // value of the computed call), so the halt after the call site is
    // reached through a single direct edge.
    let ret = prog.end() - pfm_isa::inst::INST_BYTES;
    assert_eq!(
        analysis.profile.resolved_jalrs,
        vec![(jalr, handler), (ret, jalr + pfm_isa::inst::INST_BYTES)]
    );

    let s = analysis
        .profile
        .stream_at(store)
        .expect("the handler's store loop is profiled once the edge resolves");
    match &s.class {
        StreamClass::Strided { stride, base, .. } => {
            assert_eq!(*stride, 8);
            assert_eq!(*base, Some(TABLE_BASE));
        }
        other => panic!("dispatch table store must be strided, got {other:?}"),
    }
    assert!(
        analysis.findings.is_empty(),
        "the handler is reachable and clean: {:?}",
        analysis.findings
    );
}
