//! The repository benchmark. See `perfbench/README.md` for the
//! workloads, the metrics and what each layer metric should move.
//!
//! ```text
//! perfbench --workload <fig6|fault-storm|table3|litmus-fuzz> --seed <n> --seconds <s> --trace <0|1>
//! perfbench check-paper
//! perfbench compare <before-dir> <after-dir>
//! ```
//!
//! A run repeats passes over the workload's cells, each on inputs of its
//! own drawn from `--seed`, until another pass would end after
//! `--seconds`, and reports medians over its passes. An
//! untraced run spreads its passes over worker processes (see
//! `workers.rs`). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). Each run also writes a stamped record under
//! `perfbench/out/`.

mod cells;
mod record;
mod spans;
mod stats;
mod workers;

use cells::{run_pass, Kind, Pass, Seeds};
use record::Record;
use spans::{check_nesting, covered_s, self_times, Span, Tracer};
use stats::{median, Tally};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A run with fewer passes than this adds set-up-only passes, so that
/// `setup_s` is always a median of several samples.
const MIN_SETUP_SAMPLES: usize = 3;

/// An untraced run's worker processes each get this share of
/// `--seconds`, and run at least one pass.
const WORKER_SHARE: f64 = 1.0 / 8.0;

/// End-to-end metrics, measured with tracing off: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "share"),
];

/// Host self-time spans and the per-layer metric each one feeds.
const SPAN_METRICS: [(&str, &str); 13] = [
    ("workloads.synth", "workloads.synth_s"),
    ("sim.build", "sim.build_s"),
    ("sim.run", "sim.run_s"),
    ("sim.finalize", "sim.finalize_s"),
    ("telemetry.render", "telemetry.render_s"),
    ("aso.sweep", "aso.sweep_s"),
    ("fuzz.gen", "fuzz.gen_s"),
    ("litmus.explore", "litmus.explore_s"),
    ("litmus.explore_bare", "litmus.explore_bare_s"),
    ("litmus.corpus", "litmus.corpus_s"),
    ("consistency.axiom", "consistency.axiom_s"),
    ("bench.cell", "bench.self_s"),
    ("", "trace.unattributed_s"),
];

/// Counts read from the cells' outputs, reported as they are.
const COUNT_METRICS: [&str; 31] = [
    "cpu.retired",
    "cpu.cycles",
    "cpu.store_stall_cycles",
    "cpu.sync_stall_cycles",
    "cpu.sb_drained",
    "cpu.sb_coalesced",
    "cpu.l1d_misses",
    "mem.l1_hits",
    "mem.l1_misses",
    "mem.l2_hits",
    "mem.peer_forwards",
    "mem.accesses",
    "mem.tlb.l1_misses",
    "mem.tlb.walks",
    "core.imprecise_exceptions",
    "core.faulting_stores",
    "core.fsb_high_water",
    "core.early_drain_interrupts",
    "core.mem.denied",
    "os.invocations",
    "os.stores_applied",
    "os.pages_resolved",
    "os.breakdown_uarch",
    "os.breakdown_apply",
    "os.breakdown_other_os",
    "os.io_cycles",
    "sim.cycles",
    "litmus.states",
    "consistency.axiom_enumerations",
    "fuzz.cases",
    "fuzz.findings",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Index of the first pass, which picks its seeds; set only for
    /// worker processes.
    first_pass: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut first_pass = 0;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: {value:?} is not a u64"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: {value:?} is not a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: {value:?} is not 0 or 1")),
                }
            }
            "--first-pass" => {
                first_pass = value
                    .parse()
                    .map_err(|_| format!("--first-pass: {value:?} is not a pass index"))?
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        first_pass,
    })
}

/// What a run measured and checked.
struct Outcome {
    tally: Tally,
    problems: Vec<String>,
    metrics: Vec<(String, String, f64)>,
    /// Each traced pass's spans and cell names.
    spans: Vec<(Vec<Span>, Vec<String>)>,
}

/// Counts each cell of a pass, failing those whose registry differs from
/// the one the same cell produced in `seen`, an earlier run of the same
/// pass (a traced run runs every pass twice).
fn settle(
    p: &Pass,
    seen: &mut BTreeMap<String, String>,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) {
    for cell in &p.cells {
        let first = seen
            .entry(cell.name.clone())
            .or_insert_with(|| cell.registry.clone());
        let same = *first == cell.registry;
        if let Some(why) = &cell.failure {
            problems.push(format!("{}: {why}", cell.name));
        } else if !same {
            problems.push(format!("{}: registry differs between passes", cell.name));
        }
        tally.record(cell.failure.is_none() && same);
    }
}

fn geomean(pairs: &[(u64, u64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let logs: f64 = pairs
        .iter()
        .map(|&(b, i)| (b as f64 / i.max(1) as f64).ln())
        .sum();
    (logs / pairs.len() as f64).exp()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(plain: &[Pass], traced: &[(Pass, Vec<Span>)]) -> Vec<(String, String, f64)> {
    let per_pass: Vec<BTreeMap<&str, f64>> = traced
        .iter()
        .map(|(p, spans)| {
            let mut m = self_times(spans);
            m.insert("", p.wall_s - covered_s(spans));
            m
        })
        .collect();
    let span_median = |span: &str| {
        median(
            &per_pass
                .iter()
                .map(|m| m.get(span).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let mut out: Vec<(String, String, f64)> = SPAN_METRICS
        .iter()
        .map(|&(span, metric)| (metric.to_string(), "s".to_string(), span_median(span)))
        .collect();
    // Simulated counts come from pass 0, whose inputs are the seed's own,
    // so they repeat exactly from run to run.
    let first = &traced.first().expect("a traced run has a traced pass").0;
    let c = |k: &str| first.counts.get(k).copied().unwrap_or(0.0);
    for k in COUNT_METRICS {
        out.push((k.to_string(), "count".to_string(), c(k)));
    }
    let per_count = |k: &str| {
        let xs: Vec<f64> = traced
            .iter()
            .zip(&per_pass)
            .map(|((p, _), m)| {
                1e9 * ratio(
                    m.get("sim.run").copied().unwrap_or(0.0),
                    p.counts.get(k).copied().unwrap_or(0.0),
                )
            })
            .collect();
        median(&xs)
    };
    let handler = c("os.breakdown_uarch") + c("os.breakdown_apply") + c("os.breakdown_other_os");
    // Each traced pass runs right after its untraced twin on the same
    // inputs; the median of the pairs' ratios resists host drift better
    // than a ratio of medians.
    let overhead: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(p, (t, _))| ratio(t.wall_s, p.wall_s) - 1.0)
        .collect();
    let traced_wall = median(&traced.iter().map(|(p, _)| p.wall_s).collect::<Vec<_>>());
    out.extend([
        (
            "sim.ns_per_instr".into(),
            "ns".into(),
            per_count("cpu.retired"),
        ),
        (
            "sim.ns_per_cycle".into(),
            "ns".into(),
            per_count("sim.cycles"),
        ),
        ("sim.rel_perf".into(), "ratio".into(), geomean(&first.pairs)),
        (
            "os.handler_cycle_frac".into(),
            "share".into(),
            ratio(handler, c("cpu.cycles")),
        ),
        (
            "os.cycles_per_faulting_store".into(),
            "cycles".into(),
            ratio(handler, c("core.faulting_stores")),
        ),
        (
            "trace.overhead_frac".into(),
            "share".into(),
            median(&overhead),
        ),
        (
            "trace.unattributed_frac".into(),
            "share".into(),
            ratio(span_median(""), traced_wall),
        ),
    ]);
    out
}

/// True when another pass as long as the one begun at `pass_start` would
/// end after `seconds` from `start`.
fn overrun(start: Instant, pass_start: Instant, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + pass_start.elapsed().as_secs_f64() > seconds
}

/// A worker process: untraced passes from `a.first_pass` on, at least
/// one, until another would overrun `a.seconds`.
fn worker(a: &Args) -> workers::Report {
    let start = Instant::now();
    let mut r = workers::Report::default();
    for index in a.first_pass.. {
        let pass_start = Instant::now();
        let seeds = Seeds::for_pass(a.seed, index);
        let p = run_pass(a.kind, &seeds, &mut Tracer::new(false), false);
        settle(&p, &mut BTreeMap::new(), &mut r.tally, &mut r.problems);
        eprintln!(
            "perfbench: pass {index}: wall {:.4} s, set-up {:.4} s",
            p.wall_s, p.setup_s
        );
        r.passes.push(workers::PassTimes {
            wall_s: p.wall_s,
            setup_s: p.setup_s,
            items: p.items,
        });
        if overrun(start, pass_start, a.seconds) {
            break;
        }
    }
    r.rss_mib = stats::peak_rss_mib();
    r
}

/// An untraced run: worker processes one after another, each with its
/// share of `--seconds`, until the next one's first pass would overrun.
fn run_untraced(a: &Args) -> Outcome {
    let start = Instant::now();
    let mut all = workers::Report::default();
    let exe = std::env::current_exe();
    let mut longest = 0.0f64;
    while all.passes.is_empty() || start.elapsed().as_secs_f64() + longest <= a.seconds {
        let exe = match &exe {
            Ok(exe) => exe,
            Err(e) => {
                all.problems.push(format!("cannot find this program: {e}"));
                break;
            }
        };
        let remaining = a.seconds - start.elapsed().as_secs_f64();
        let share = (a.seconds * WORKER_SHARE).min(remaining);
        let args: Vec<String> = [
            "--workload",
            a.kind.name(),
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &share.to_string(),
            "--trace",
            "0",
            "--first-pass",
            &all.passes.len().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match workers::run(exe, &args) {
            Ok(r) => {
                longest = r.passes.iter().map(|p| p.wall_s).fold(longest, f64::max);
                all.merge(r);
            }
            Err(e) => {
                all.problems.push(e);
                all.tally.record(false);
                break;
            }
        }
    }
    let mut setups: Vec<f64> = all.passes.iter().map(|p| p.setup_s).collect();
    while setups.len() < MIN_SETUP_SAMPLES {
        let seeds = Seeds::for_pass(a.seed, setups.len());
        setups.push(run_pass(a.kind, &seeds, &mut Tracer::new(false), true).setup_s);
    }
    let rates: Vec<f64> = all
        .passes
        .iter()
        .map(|p| ratio(p.items as f64, p.wall_s - p.setup_s))
        .collect();
    // The set-up passes above ran in this process.
    let rss = match (all.rss_mib, stats::peak_rss_mib()) {
        (Some(w), Some(own)) => w.max(own),
        _ => {
            all.problems.push("no VmHWM in /proc/<pid>/status".into());
            0.0
        }
    };
    let values = [
        median(&all.passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
        median(&setups),
        median(&rates),
        rss,
        all.tally.ok_frac(),
    ];
    Outcome {
        tally: all.tally,
        problems: all.problems,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), u.to_string(), v))
            .collect(),
        spans: Vec::new(),
    }
}

/// A traced run, in this process: each pass untraced, then traced on the
/// same inputs.
fn run_traced(a: &Args) -> Outcome {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Vec<Span>)> = Vec::new();
    loop {
        let pass_start = Instant::now();
        let index = plain.len();
        let seeds = Seeds::for_pass(a.seed, index);
        let mut seen = BTreeMap::new();
        let p = run_pass(a.kind, &seeds, &mut Tracer::new(false), false);
        settle(&p, &mut seen, &mut tally, &mut problems);
        plain.push(p);
        let mut tr = Tracer::new(true);
        let p = run_pass(a.kind, &seeds, &mut tr, false);
        if let Err(e) = check_nesting(tr.spans()) {
            problems.push(format!("traced pass {index}: {e}"));
        }
        settle(&p, &mut seen, &mut tally, &mut problems);
        traced.push((p, tr.spans().to_vec()));
        if overrun(start, pass_start, a.seconds) {
            break;
        }
    }
    let metrics = per_layer(&plain, &traced);
    let spans = traced
        .into_iter()
        .map(|(p, s)| (s, p.cells.into_iter().map(|c| c.name).collect()))
        .collect();
    Outcome {
        tally,
        problems,
        metrics,
        spans,
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the run's record and, for traced runs, its spans.
fn write_outputs(a: &Args, o: &Outcome) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stamp_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let base = format!(
        "{}-seed{}-trace{}-{stamp_ms}",
        a.kind.name(),
        a.seed,
        u8::from(a.trace)
    );
    let rec = Record {
        stamp: record::host_stamp(),
        run: BTreeMap::from([
            ("commit".to_string(), record::git_commit()),
            ("workload".to_string(), a.kind.name().to_string()),
            ("seed".to_string(), a.seed.to_string()),
            ("seconds".to_string(), a.seconds.to_string()),
            ("trace".to_string(), u8::from(a.trace).to_string()),
            ("attempted".to_string(), o.tally.attempted.to_string()),
            ("failed".to_string(), o.tally.failed.to_string()),
        ]),
        metrics: o
            .metrics
            .iter()
            .map(|(n, u, v)| (n.clone(), (u.clone(), *v)))
            .collect(),
    };
    print!("{}", rec.render());
    let path = dir.join(format!("{base}.tsv"));
    std::fs::write(&path, rec.render())?;
    if a.trace {
        let mut text = String::from("pass\tname\tstart_ns\tend_ns\tparent\tcell\n");
        for (pass, (spans, cells)) in o.spans.iter().enumerate() {
            for s in spans {
                let cell = s
                    .cell
                    .and_then(|c| cells.get(c))
                    .map_or("-", String::as_str);
                let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
                let end = s.end_ns.map_or("-".to_string(), |e| e.to_string());
                text += &format!(
                    "{pass}\t{}\t{}\t{end}\t{parent}\t{cell}\n",
                    s.name, s.start_ns
                );
            }
        }
        std::fs::write(dir.join(format!("spans-{base}.tsv")), text)?;
    }
    Ok(path)
}

fn result_line(correct: bool, tally: Tally, metrics: &[(String, String, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Reruns the paper drivers on one thread at the default seeds and checks
/// that the benchmark's cells reproduce them exactly.
fn check_paper() -> bool {
    use ise_sim::experiments::{fig6_with_workers, table3_with_workers, Fig6Scale, Table3Scale};
    use ise_types::json::{Json, ToJson};
    let seeds = Seeds::from_arg(0);
    let bench = |k| run_pass(k, &seeds, &mut Tracer::new(false), false);
    let fuzz = ise_fuzz::run_campaign_with_workers(
        &ise_fuzz::FuzzConfig {
            seed: seeds.fuzz,
            cases: cells::FUZZ_CASES,
            ..Default::default()
        },
        1,
    );
    let corpus = ise_litmus::run_corpus_with_workers(&ise_litmus::corpus(), 1);
    let litmus_want = Json::obj([
        ("corpus", Json::str(corpus.to_registry().render())),
        ("fuzz_cases", Json::from(fuzz.cases)),
        ("axiom_enumerations", Json::from(fuzz.axiom_enumerations)),
        (
            "model_cases",
            Json::arr(fuzz.model_cases.iter().map(|&c| Json::from(c))),
        ),
    ])
    .render();
    let checks = [
        (
            "fig6",
            bench(Kind::Fig6),
            fig6_with_workers(&Fig6Scale::full(), 1).to_json().render(),
        ),
        (
            "table3",
            bench(Kind::Table3),
            table3_with_workers(&Table3Scale::full(), 1)
                .to_json()
                .render(),
        ),
        ("litmus-fuzz", bench(Kind::LitmusFuzz), litmus_want),
    ];
    let mut ok = corpus.all_passed() && fuzz.clean();
    println!("table6 corpus all_passed: {}", corpus.all_passed());
    println!("fuzz campaign seed {} clean: {}", seeds.fuzz, fuzz.clean());
    for (name, pass, want) in checks {
        let failed = pass.cells.iter().filter(|c| c.failure.is_some()).count();
        let same = pass.paper == want;
        ok &= same && failed == 0;
        println!("{name}: reproduces the paper driver: {same}; failed cells: {failed}");
        if !same {
            println!("  benchmark: {}\n  driver:    {want}", pass.paper);
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => {
            return match parse_args(&args[1..]) {
                Ok(a) if !a.trace => {
                    print!("{}", worker(&a).render());
                    ExitCode::SUCCESS
                }
                Ok(_) => {
                    eprintln!("perfbench worker: workers run untraced");
                    ExitCode::from(2)
                }
                Err(e) => {
                    eprintln!("perfbench worker: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Some("check-paper") => {
            return if check_paper() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        Some("compare") => {
            let [_, before, after] = args.as_slice() else {
                eprintln!("usage: perfbench compare <before-dir> <after-dir>");
                return ExitCode::from(2);
            };
            let loaded = record::load_dir(before.as_ref())
                .and_then(|b| Ok((b, record::load_dir(after.as_ref())?)))
                .and_then(|(b, a)| record::compare(&b, &a));
            return match loaded {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let o = if a.trace {
        run_traced(&a)
    } else {
        run_untraced(&a)
    };
    for p in &o.problems {
        eprintln!("perfbench: {p}");
    }
    match write_outputs(&a, &o) {
        Ok(path) => eprintln!("perfbench: record written to {}", path.display()),
        Err(e) => {
            eprintln!("perfbench: cannot write the run record: {e}");
            return ExitCode::FAILURE;
        }
    }
    let correct = o.problems.is_empty() && o.tally.failed == 0;
    println!("{}", result_line(correct, o.tally, &o.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_registry_change_between_runs_of_one_pass_fails_the_cell() {
        let cell = |name: &str, reg: &str, failure: Option<&str>| cells::Cell {
            name: name.into(),
            registry: reg.into(),
            failure: failure.map(Into::into),
        };
        let pass = |cells| Pass {
            cells,
            ..Pass::default()
        };
        let mut seen = BTreeMap::new();
        let mut tally = Tally::default();
        let mut problems = Vec::new();
        let mut settle_pass = |cells| settle(&pass(cells), &mut seen, &mut tally, &mut problems);
        settle_pass(vec![cell("a", "1", None), cell("b", "2", None)]);
        // The same pass again, as a traced run repeats it.
        settle_pass(vec![cell("a", "1", None), cell("b", "3", None)]);
        settle_pass(vec![
            cell("a", "1", Some("timed out")),
            cell("b", "2", None),
        ]);
        assert_eq!((tally.attempted, tally.failed), (6, 2));
        assert_eq!(tally.ok_frac(), 1.0 - 2.0 / 6.0);
        assert_eq!(
            problems,
            ["b: registry differs between passes", "a: timed out"]
        );
    }

    #[test]
    fn result_line_has_the_contract_keys_and_no_non_finite_numbers() {
        let t = Tally {
            attempted: 3,
            failed: 0,
        };
        let line = result_line(
            true,
            t,
            &[
                ("wall_s".into(), "s".into(), 1.5),
                ("x".into(), "share".into(), f64::NAN),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"share\"}}}"
        );
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let a = parse_args(&s(&[
            "--workload",
            "table3",
            "--seed",
            "4",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace, a.first_pass),
            (Kind::Table3, 4, 10.0, true, 0)
        );
        let w = parse_args(&s(&["--workload", "fig6", "--first-pass", "7"])).expect("valid");
        assert_eq!(w.first_pass, 7);
        assert!(parse_args(&s(&["--workload", "fig6", "--first-pass", "-1"])).is_err());
        assert!(parse_args(&s(&["--workload", "nope"])).is_err());
        assert!(parse_args(&s(&["--workload", "fig6", "--trace", "2"])).is_err());
        assert!(parse_args(&s(&["--workload", "fig6", "--seconds", "-1"])).is_err());
        assert!(parse_args(&s(&["--seed", "1"])).is_err());
    }

    #[test]
    fn default_seed_offsets_reproduce_the_paper_drivers_seeds() {
        let d = Seeds::for_pass(0, 0);
        assert_eq!(
            (d.graph_kv, d.microbench, d.mix, d.sweep, d.fuzz),
            (42, 99, 7, 0x7a31, 1)
        );
        assert_eq!(Seeds::for_pass(3, 0).fuzz, 4);
        // Later passes draw distinct seeds, the same ones on every run.
        assert_ne!(Seeds::for_pass(3, 1), Seeds::for_pass(3, 2));
        assert_ne!(Seeds::for_pass(3, 1), Seeds::for_pass(4, 1));
        assert_eq!(Seeds::for_pass(3, 1), Seeds::for_pass(3, 1));
    }

    /// `(name, unit)` of every metric listed under `section` in the
    /// repository's `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|item| {
                let (name, rest) = item.split_once('"').expect("name closes");
                let unit = rest.split("\"unit\": \"").nth(1).expect("unit present");
                (
                    name.to_string(),
                    unit[..unit.find('"').expect("unit closes")].to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_exactly_those_benchmark_json_lists() {
        let sorted = |mut v: Vec<(String, String)>| {
            v.sort();
            v
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(sorted(e2e), sorted(listed("end_to_end")));
        let pass = Pass::default();
        let layers = per_layer(std::slice::from_ref(&pass), &[(pass.clone(), Vec::new())]);
        let layers: Vec<(String, String)> = layers.into_iter().map(|(n, u, _)| (n, u)).collect();
        assert_eq!(sorted(layers), sorted(listed("per_layer")));
    }

    #[test]
    fn geomean_of_cycle_ratios() {
        assert!((geomean(&[(96, 100), (96, 100)]) - 0.96).abs() < 1e-12);
        assert!((geomean(&[(1, 4), (4, 1)]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
