//! `pfm-analyze`: static analysis of every registered use case.
//!
//! Builds each use case in the throughput-suite registry, merges its
//! watchlist (custom component + FST + RST), and runs the `pfm-analyze`
//! check suite — CFG construction, dominators/loops, dataflow, and
//! watchlist validation — over the assembled kernel. Exits non-zero if
//! any program has findings.
//!
//! ```text
//! pfm-analyze                    # human-readable report
//! pfm-analyze --json             # machine-readable (schema pfm-analyze/1)
//! pfm-analyze --json -o out.json # atomic write (temp + rename)
//! pfm-analyze --profile astar    # interface-inference profile (pfm-analyze/2)
//! pfm-analyze --profile all --json -o profiles.json
//! pfm-analyze --corrupt-watch astar   # test seam: must fail
//! ```
//!
//! `--profile <usecase>` runs the abstract-interpretation layer and
//! emits the derived loops/streams/branches/watch profile instead of
//! the finding report; `all` selects every registered use case.
//!
//! `-o <path>` writes the JSON to a temporary file in the target
//! directory and renames it into place, so a reader never observes a
//! truncated report (and implies `--json`).
//!
//! `--corrupt-watch <name>` redirects the named use case's first
//! watchlist entry to a bogus PC before analysis; CI uses it to prove
//! the analyzer has teeth (a clean report under corruption would mean
//! the cross-check is vacuous).

use pfm_analyze::profile::profile_report_to_json;
use pfm_analyze::report_to_json;
use pfm_sim::analyze::analyze_all;

const USAGE: &str =
    "usage: pfm-analyze [--json] [-o <path>] [--profile <usecase>|all] [--corrupt-watch <usecase>]";

/// Writes `data` atomically: a temporary file in the destination's
/// directory, flushed, then renamed over the target, so a concurrent
/// reader sees either the old report or the new one — never a prefix.
fn write_atomic(path: &str, data: &str) {
    let target = std::path::Path::new(path);
    let dir = match target.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => std::path::Path::new("."),
    };
    let stem = target
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("pfm-analyze.json");
    let tmp = dir.join(format!(".{stem}.{}.tmp", std::process::id()));
    if let Err(e) = std::fs::write(&tmp, data) {
        eprintln!("pfm-analyze: cannot write {}: {e}", tmp.display());
        std::process::exit(1);
    }
    if let Err(e) = std::fs::rename(&tmp, target) {
        let _ = std::fs::remove_file(&tmp);
        eprintln!(
            "pfm-analyze: cannot rename {} to {path}: {e}",
            tmp.display()
        );
        std::process::exit(1);
    }
}

/// Prints the JSON to stdout, or atomically to `-o <path>` when given.
fn emit(json_text: &str, out: Option<&str>) {
    match out {
        Some(path) => {
            write_atomic(path, json_text);
            eprintln!("wrote {path}");
        }
        None => println!("{json_text}"),
    }
}

fn main() {
    let mut json = false;
    let mut out: Option<String> = None;
    let mut profile: Option<String> = None;
    let mut corrupt: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "-o" | "--output" => match it.next() {
                Some(path) => out = Some(path),
                None => {
                    eprintln!("pfm-analyze: -o needs a path");
                    std::process::exit(2);
                }
            },
            "--profile" => match it.next() {
                Some(name) => profile = Some(name),
                None => {
                    eprintln!("pfm-analyze: --profile needs a use-case name (or `all`)");
                    std::process::exit(2);
                }
            },
            "--corrupt-watch" => match it.next() {
                Some(name) => corrupt = Some(name),
                None => {
                    eprintln!("pfm-analyze: --corrupt-watch needs a use-case name");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("pfm-analyze: unknown argument `{other}`");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    // `-o` only makes sense for machine-readable output.
    if out.is_some() {
        json = true;
    }

    let suite = analyze_all(corrupt.as_deref());
    if let Some(name) = &corrupt {
        if !suite.iter().any(|(n, _)| n == name) {
            eprintln!("pfm-analyze: no registered use case named `{name}`");
            std::process::exit(2);
        }
    }

    // Profile mode: the interface-inference report (pfm-analyze/2).
    if let Some(which) = &profile {
        let mut report: Vec<_> = suite.into_iter().map(|(n, a)| (n, a.profile)).collect();
        if which != "all" {
            report.retain(|(n, _)| n == which);
            if report.is_empty() {
                eprintln!("pfm-analyze: no registered use case named `{which}`");
                std::process::exit(2);
            }
        }
        if json {
            emit(&profile_report_to_json(&report), out.as_deref());
        } else {
            for (name, p) in &report {
                println!("{name}: {}", p.summary());
            }
            println!("derived {} program profile(s)", report.len());
        }
        return;
    }

    let report: Vec<_> = suite.into_iter().map(|(n, a)| (n, a.findings)).collect();
    let total: usize = report.iter().map(|(_, f)| f.len()).sum();
    if json {
        emit(&report_to_json(&report), out.as_deref());
    } else {
        for (name, findings) in &report {
            if findings.is_empty() {
                println!("{name}: clean");
            } else {
                println!("{name}: {} finding(s)", findings.len());
                for f in findings {
                    println!("  {f}");
                }
            }
        }
        println!("analyzed {} program(s), {} finding(s)", report.len(), total);
    }
    if total > 0 {
        std::process::exit(1);
    }
}
