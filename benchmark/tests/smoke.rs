//! Smoke tests at tiny budgets: every metric `BENCHMARK.json` lists is
//! emitted with its unit, chunked runs equal the repository's own run
//! path bit for bit, and tracing leaves simulated results unchanged.

use pfm_benchmark::sim::run_detailed;
use pfm_benchmark::workload::{build_inputs, Seeds, Workload};
use pfm_benchmark::{run, Config, Scale, MIN_CYCLES};
use pfm_fabric::FabricParams;
use pfm_sim::usecases::{
    astar_custom_factory, bfs_roads_factory, leslie_factory, libquantum_factory,
};
use pfm_sim::{RunConfig, RunSpec};
use std::path::Path;

const TINY: Scale = Scale {
    detailed_instrs: 20_000,
    suite_instrs: 10_000,
    functional_instrs: 50_000,
    chunk_instrs: 5_000,
    warm_passes: 1,
};

fn tiny_rc() -> RunConfig {
    RunConfig {
        max_instrs: TINY.detailed_instrs,
        ..RunConfig::paper_scale()
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section is present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field is present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("field is a string")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

#[test]
fn every_listed_metric_is_emitted_with_its_unit() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = run(&Config {
                workload: w,
                seed: 0,
                cycles: MIN_CYCLES,
                setup_reps: 1,
                trace,
                scale: TINY,
                store_dir: Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("target")
                    .join(format!("smoke-{}-{}-{trace}", std::process::id(), w.name())),
            })
            .expect("the run starts");
            assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.failures);
            assert_eq!(report.cycles, MIN_CYCLES, "{}", w.name());
            let emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(emitted, listed(section), "{} trace={trace}", w.name());
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            let json = report.to_json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(!json.contains('\n'));
        }
    }
}

#[test]
fn chunked_runs_equal_run_spec_execute() {
    let rc = tiny_rc();
    let params = FabricParams::paper_default;
    // One (kernel, mode) per workload, against the experiment factories.
    let cases = [
        (
            Workload::Astar,
            0,
            true,
            RunSpec::pfm(astar_custom_factory(), params(), &rc),
        ),
        (
            Workload::Bfs,
            0,
            false,
            RunSpec::baseline(bfs_roads_factory(), &rc),
        ),
        (
            Workload::Stream,
            0,
            true,
            RunSpec::pfm(libquantum_factory(), params(), &rc),
        ),
        (
            Workload::Suite,
            10,
            false,
            RunSpec::baseline(leslie_factory(), &rc),
        ),
    ];
    for (w, input, pfm, spec) in cases {
        let inputs = build_inputs(w, &Seeds::new(0));
        let ours = run_detailed(&inputs[input].uc, pfm, rc.max_instrs, 3_000, false, &rc)
            .expect("chunked run succeeds");
        let theirs = spec.execute().expect("reference run succeeds");
        assert!(spec.key().starts_with(&inputs[input].key), "{}", spec.key());
        assert_eq!(ours.stats, theirs.stats, "{}", spec.key());
        assert_eq!(ours.hier, theirs.hier, "{}", spec.key());
        assert_eq!(ours.fabric, theirs.fabric, "{}", spec.key());
        assert_eq!(ours.checksum, theirs.arch_checksum, "{}", spec.key());
    }
}

#[test]
fn tracing_leaves_results_unchanged() {
    let rc = tiny_rc();
    let inputs = build_inputs(Workload::Astar, &Seeds::new(0));
    let run = |traced| {
        run_detailed(&inputs[0].uc, true, rc.max_instrs, 5_000, traced, &rc).expect("run succeeds")
    };
    let (plain, traced) = (run(false), run(true));
    assert_eq!(plain.digest(), traced.digest());
    let hooks = traced.hooks.expect("traced runs time the hooks");
    assert!(hooks.total_nanos() > 0);
    assert!(
        traced
            .ticks
            .expect("traced runs time the component")
            .get()
            .0
            > 0
    );
}
