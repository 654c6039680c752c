//! Pins the whole finding set of the fixture corpus: every fixture
//! linted under the `core`, `fabric`, `bench` and `sim` crate contexts,
//! one `fixture context line family/rule` row per finding, compared
//! with `corpus_findings.txt`. The per-rule tests in `fixtures.rs` and
//! `interprocedural.rs` check chosen findings; this one catches any
//! finding that appears, disappears or moves.

use pfm_lint::{lint_source, FileContext};
use std::path::Path;

const CONTEXTS: &[&str] = &["core", "fabric", "bench", "sim"];

/// One row per finding, fixtures in name order, contexts in
/// [`CONTEXTS`] order, findings in the order `lint_source` sorts them.
fn corpus_rows() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixture directory is readable")
        .map(|e| {
            e.expect("fixture entry is readable")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    let mut rows = Vec::new();
    for name in &names {
        let src = std::fs::read_to_string(dir.join(name)).expect("fixture is readable");
        for c in CONTEXTS {
            let ctx = FileContext {
                display: format!("crates/{c}/src/fixture.rs"),
                crate_name: Some(c.to_string()),
                exempt: false,
            };
            for f in lint_source(&src, &ctx) {
                rows.push(format!("{name} {c} {} {}/{}", f.line, f.family, f.rule));
            }
        }
    }
    rows
}

#[test]
fn fixture_corpus_findings_are_pinned() {
    let want: Vec<String> = include_str!("corpus_findings.txt")
        .lines()
        .map(str::to_string)
        .collect();
    let got = corpus_rows();
    if got != want {
        let missing: Vec<&String> = want.iter().filter(|w| !got.contains(w)).collect();
        let extra: Vec<&String> = got.iter().filter(|g| !want.contains(g)).collect();
        panic!(
            "fixture corpus drifted ({} pinned, {} found)\nmissing: {missing:#?}\nextra: {extra:#?}",
            want.len(),
            got.len()
        );
    }
}
