//! Differential fuzzing campaigns from the command line.
//!
//! Usage: `cargo run --release -p ise-bench --bin fuzz -- [flags]`
//!
//! Flags:
//!
//! * `--seed N` — master seed (default 1)
//! * `--cases N` — cases to run (default 500)
//! * `--sim` — also run the timing-simulator oracle legs (slow)
//! * `--no-shrink` — report raw findings without delta-debugging
//! * `--seeded-bug pc-drain` — let the PC store buffer drain out of
//!   order on purpose (harness self-check: the campaign *must* end
//!   dirty)
//! * `--write-regressions DIR` — render each finding into `DIR` as a
//!   replayable `.litmus` reproducer
//!
//! Prints the campaign registry as JSON and exits nonzero when any
//! finding survived — so a CI smoke leg is just this binary with a
//! fixed seed.

use ise_fuzz::{run_campaign, write_regressions, FuzzConfig};
use ise_litmus::machine::SeededBug;

fn main() {
    let mut cfg = FuzzConfig {
        cases: 500,
        ..FuzzConfig::default()
    };
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => cfg.seed = value("--seed").parse().expect("--seed: not a u64"),
            "--cases" => cfg.cases = value("--cases").parse().expect("--cases: not a count"),
            "--sim" => cfg.oracle.run_sim = true,
            "--no-shrink" => cfg.shrink = false,
            "--seeded-bug" => {
                cfg.oracle.seeded_bug = Some(match value("--seeded-bug").as_str() {
                    "pc-drain" => SeededBug::PcDrainReorder,
                    other => panic!("--seeded-bug: unknown bug {other:?} (pc-drain)"),
                })
            }
            "--write-regressions" => out_dir = Some(value("--write-regressions").into()),
            other => panic!("unknown flag {other:?}"),
        }
    }
    let report = run_campaign(&cfg);
    println!("{}", report.to_registry().render());
    if let Some(dir) = out_dir {
        let paths = write_regressions(&report.findings, &dir).expect("writing reproducers");
        for p in &paths {
            eprintln!("wrote {}", p.display());
        }
    }
    if !report.clean() {
        eprintln!(
            "{} finding(s) — each `reproducers` entry above is a shrunk litmus program",
            report.findings.len()
        );
        std::process::exit(1);
    }
}
