//! `pfm-benchmark --workload <astar|bfs|stream|suite> [--seed S]
//! [--seconds 20] [--trace 0|1]`
//!
//! Prints one line per metric, then the result as one line of JSON
//! (the last line of standard output). Exits 0 when every run was
//! correct, 1 when any failed or disagreed, 2 on a usage error.

use pfm_benchmark::workload::Workload;
use pfm_benchmark::{run, Config, RUN_SECONDS};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: pfm-benchmark --workload <astar|bfs|stream|suite> [--seed S] [--seconds 20] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            // The run length is part of the benchmark, not a setting: a
            // run is a fixed number of cycles calibrated to RUN_SECONDS.
            // The flag is accepted so that the command line can state it.
            "--seconds" => {
                let v = value()?;
                if v.parse::<f64>() != Ok(RUN_SECONDS as f64) {
                    return Err(format!(
                        "--seconds must be {RUN_SECONDS}, the run length the cycle counts are calibrated to, not {v}"
                    ));
                }
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // Inside the package's own (ignored) target directory, so the
    // benchmark writes nowhere outside the checkout it was built in.
    let store_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("stores-{}", std::process::id()));
    Ok(Config::bench(workload, seed, trace, store_dir))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("pfm-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for f in &report.failures {
                eprintln!("pfm-benchmark: FAILED {f}");
            }
            print!("{}", report.render());
            println!("{}", report.to_json());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pfm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
