//! The four workloads, each a pass over independent cells built from the
//! crates' public functions on one thread.
//!
//! Every call into a layer sits inside a [`Tracer`] span named after the
//! crate it enters. A pass can also stop after set-up, which is how a run
//! collects several set-up samples when a full pass is long.

use crate::spans::Tracer;
use ise_aso::sweep::{sweep_checkpoints, SweepResult};
use ise_consistency::BatchChecker;
use ise_fuzz::{case_seed, generate, GenConfig};
use ise_litmus::machine::MachineConfig;
use ise_litmus::runner::{run_test_with_policy, CorpusSummary, FaultMode};
use ise_litmus::{corpus, explore, ExplorationResult};
use ise_sim::experiments::{Fig6Row, Fig6Scale, Table3Row, Table3Scale};
use ise_sim::{System, SystemStats};
use ise_telemetry::{MetricValue, Registry};
use ise_types::config::SystemConfig;
use ise_types::instr::InstructionMix;
use ise_types::json::{Json, ToJson};
use ise_types::model::{ConsistencyModel, DrainPolicy};
use ise_workloads::graph::{gap_workload, GapConfig, GapKernel};
use ise_workloads::kvstore::{kv_workload, KvConfig, KvEngine};
use ise_workloads::microbench::{microbench, MicrobenchConfig};
use ise_workloads::mixes::{synthesize, table3_mixes};
use ise_workloads::Workload;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Simulated-cycle budget per cell; a cell that reaches it has timed out.
pub const MAX_CYCLES: u64 = 20_000_000_000;

/// Fault-storm array: large enough that drains keep meeting faulting
/// pages at every intensity.
const STORM_ARRAY_BYTES: u64 = 64 << 20;
/// Fault-storm intensities (faulting pages of the array's 16,384).
const STORM_PAGES: [usize; 5] = [1_024, 2_048, 4_096, 8_192, 16_384];
/// Intensities of the §5.3 demand-paging cells.
const STORM_IO_PAGES: [usize; 3] = [1_024, 4_096, 16_384];
/// Device latency of a page-in, cycles (the Fig. 5 extension's value).
const STORM_IO_LATENCY: u64 = 20_000;
/// Stores per fault-storm trace (the §6.4 microbenchmark's 10 K).
const STORM_STORES: usize = 10_000;

/// Differential fuzz cases per litmus-fuzz pass. A case's cost grows
/// exponentially with its interleavings, so a few cases in a thousand
/// take seconds: the median over many short passes, each with its own
/// seed, is steady across seeds where the sum over one long pass is not.
pub const FUZZ_CASES: usize = 100;

/// Largest memoized state count for which a fuzz case is also explored
/// without memoization (see `litmus_fuzz`).
const BARE_MAX_STATES: usize = 200;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The five Fig. 6 bars, baseline and all-pages-faulting.
    Fig6,
    /// The §6.4 microbenchmark at high fault intensity, plus §5.3
    /// demand-paging cells.
    FaultStorm,
    /// The Table 3 ASO checkpoint-budget sweeps.
    Table3,
    /// The differential fuzz campaign plus the Table 6 corpus.
    LitmusFuzz,
}

impl Kind {
    /// Every workload: those `BENCHMARK.json` lists, in its order, and
    /// `fault-storm`, which runs by hand.
    pub const ALL: [Kind; 4] = [Kind::Fig6, Kind::Table3, Kind::LitmusFuzz, Kind::FaultStorm];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig6 => "fig6",
            Kind::FaultStorm => "fault-storm",
            Kind::Table3 => "table3",
            Kind::LitmusFuzz => "litmus-fuzz",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Generator seeds derived from the benchmark's `--seed`. Seed 0 gives
/// the paper drivers' defaults: 42 (GAP and Tailbench), 99 (the
/// microbenchmark), 7 and 0x7a31 (Table 3 mix and sweep traces) and 1
/// (the fuzz campaign).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `GapConfig::seed` and `KvConfig::seed`.
    pub graph_kv: u64,
    /// `MicrobenchConfig::seed`.
    pub microbench: u64,
    /// `synthesize` seed of the trace whose mix Table 3 reports.
    pub mix: u64,
    /// `synthesize` seed of the traces the Table 3 sweeps run.
    pub sweep: u64,
    /// `FuzzConfig::seed`.
    pub fuzz: u64,
}

impl Seeds {
    /// The seeds of pass `k` of a run with `--seed n`. Pass 0 uses `n`
    /// itself; later passes use seeds drawn from `n` by the fuzz
    /// campaign's splitmix64 stride, so a run's figures are medians over
    /// several independent inputs rather than over repeats of one.
    pub fn for_pass(n: u64, k: usize) -> Seeds {
        match k {
            0 => Seeds::from_arg(n),
            _ => Seeds::from_arg(case_seed(n, k - 1)),
        }
    }

    /// Offsets every default seed by `n`.
    pub fn from_arg(n: u64) -> Seeds {
        Seeds {
            graph_kv: 42u64.wrapping_add(n),
            microbench: 99u64.wrapping_add(n),
            mix: 7u64.wrapping_add(n),
            sweep: 0x7a31u64.wrapping_add(n),
            fuzz: 1u64.wrapping_add(n),
        }
    }
}

/// One cell's outcome.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Cell name, unique within a pass.
    pub name: String,
    /// The cell's rendered registry: its deterministic output.
    pub registry: String,
    /// Why the cell failed, if it did.
    pub failure: Option<String>,
}

/// What one pass over a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Host seconds spent before each cell's first simulated cycle,
    /// summed over cells.
    pub setup_s: f64,
    /// Work items checked: retired simulated instructions, or cases.
    pub items: u64,
    /// Cells in pass order.
    pub cells: Vec<Cell>,
    /// Per-layer counts read from the cells' outputs, summed.
    pub counts: BTreeMap<&'static str, f64>,
    /// (baseline, studied) simulated cycles of each paired cell.
    pub pairs: Vec<(u64, u64)>,
    /// The paper driver's rows for this pass, rendered as JSON.
    pub paper: String,
}

impl Pass {
    fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let e = self.counts.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    /// Runs `body` as one cell: a panic or a returned failure marks the
    /// cell failed and the pass goes on.
    fn cell(
        &mut self,
        tr: &mut Tracer,
        name: String,
        body: impl FnOnce(&mut Tracer, &mut Pass) -> Result<String, (String, String)>,
    ) {
        tr.set_cell(Some(self.cells.len()));
        tr.begin("bench.cell");
        let outcome = catch_unwind(AssertUnwindSafe(|| body(tr, self)));
        tr.end();
        tr.set_cell(None);
        let (registry, failure) = match outcome {
            Ok(Ok(reg)) => (reg, None),
            Ok(Err((reg, why))) => (reg, Some(why)),
            Err(_) => (String::new(), Some("panicked".to_string())),
        };
        self.cells.push(Cell {
            name,
            registry,
            failure,
        });
    }

    /// Times `f` as set-up.
    fn setup<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.setup_s += t.elapsed().as_secs_f64();
        r
    }
}

/// Runs one pass of `kind` on the inputs `seeds` generate. With
/// `setup_only`, each cell stops before its first simulated cycle and
/// only `setup_s` is meaningful.
pub fn run_pass(kind: Kind, seeds: &Seeds, tr: &mut Tracer, setup_only: bool) -> Pass {
    let t = Instant::now();
    let mut p = Pass::default();
    match kind {
        Kind::Fig6 => fig6(&mut p, seeds, tr, setup_only),
        Kind::FaultStorm => fault_storm(&mut p, seeds, tr, setup_only),
        Kind::Table3 => table3(&mut p, seeds, tr, setup_only),
        Kind::LitmusFuzz => litmus_fuzz(&mut p, seeds, tr, setup_only),
    }
    p.wall_s = t.elapsed().as_secs_f64();
    p
}

// ---------------------------------------------------------------------
// Timing-simulator cells (fig6, fault-storm)
// ---------------------------------------------------------------------

/// Per-core counters of the `cpu` layer, summed over cores and cells.
const CPU_COUNTS: [(&str, &str); 7] = [
    ("retired", "cpu.retired"),
    ("cycles", "cpu.cycles"),
    ("store_stall_cycles", "cpu.store_stall_cycles"),
    ("sync_stall_cycles", "cpu.sync_stall_cycles"),
    ("sb_drained", "cpu.sb_drained"),
    ("sb_coalesced", "cpu.sb_coalesced"),
    ("l1d_misses", "cpu.l1d_misses"),
];

/// Registry keys of the `mem`, `core` and `os` layers and the per-layer
/// metric each one feeds.
const SYSTEM_COUNTS: [(&str, &str); 11] = [
    ("mem.l1_hits", "mem.l1_hits"),
    ("mem.l1_misses", "mem.l1_misses"),
    ("mem.l2_hits", "mem.l2_hits"),
    ("mem.peer_forwards", "mem.peer_forwards"),
    ("mem.accesses", "mem.accesses"),
    ("tlb.l1_misses", "mem.tlb.l1_misses"),
    ("tlb.walks", "mem.tlb.walks"),
    ("mem.denied", "core.mem.denied"),
    ("os.invocations", "os.invocations"),
    ("os.stores_applied", "os.stores_applied"),
    ("os.pages_resolved", "os.pages_resolved"),
];

fn add_system_counts(p: &mut Pass, reg: &Registry, stats: &SystemStats) {
    for (key, value) in reg.iter() {
        let MetricValue::Counter(v) = value else {
            continue;
        };
        let v = *v as f64;
        if let Some((_, metric)) = SYSTEM_COUNTS.iter().find(|(k, _)| *k == key) {
            p.count(metric, v);
        } else if let Some((core, counter)) =
            key.strip_prefix("core").and_then(|r| r.split_once('.'))
        {
            if core.bytes().all(|b| b.is_ascii_digit()) {
                if let Some((_, metric)) = CPU_COUNTS.iter().find(|(c, _)| *c == counter) {
                    p.count(metric, v);
                }
            }
        }
    }
    p.count("sim.cycles", stats.cycles as f64);
    p.count(
        "core.imprecise_exceptions",
        stats.imprecise_exceptions as f64,
    );
    p.count("core.faulting_stores", stats.faulting_stores as f64);
    p.count(
        "core.early_drain_interrupts",
        stats.early_drain_interrupts as f64,
    );
    p.max("core.fsb_high_water", stats.fsb_high_water_mark as f64);
    p.count("os.breakdown_uarch", stats.breakdown.uarch as f64);
    p.count("os.breakdown_apply", stats.breakdown.apply as f64);
    p.count("os.breakdown_other_os", stats.breakdown.other_os as f64);
    p.count("os.io_cycles", stats.io_cycles as f64);
}

/// Builds, runs and finalizes one system. The simulation is split as
/// `run_to` to completion, then the finalizing `run_bounded`, which
/// yields the same registry as `System::run`.
fn sim_cell(
    p: &mut Pass,
    tr: &mut Tracer,
    name: String,
    cfg: SystemConfig,
    workload: &Workload,
    io_latency: Option<u64>,
    setup_only: bool,
) -> Option<SystemStats> {
    let mut out = None;
    p.cell(tr, name, |tr, p| {
        let mut sys = p.setup(|| {
            tr.time("sim.build", || {
                let sys = System::new(cfg, workload);
                match io_latency {
                    Some(latency) => sys.with_demand_paging_io(latency),
                    None => sys,
                }
            })
        });
        if setup_only {
            return Ok(String::new());
        }
        let skip = ise_engine::cycle_skip_override().unwrap_or(!cfg.reference_clock);
        let completed = tr.time("sim.run", || sys.run_to(MAX_CYCLES, skip));
        let (stats, timed_out) = tr.time("sim.finalize", || sys.run_bounded(MAX_CYCLES, skip));
        let registry = tr.time("telemetry.render", || sys.telemetry().registry.render());
        add_system_counts(p, &sys.telemetry().registry, &stats);
        p.items += stats.retired();
        let expected = workload.total_instructions() as u64;
        let failure = if !completed || timed_out {
            Some(format!("timed out at {MAX_CYCLES} cycles"))
        } else if stats.killed > 0 {
            Some(format!("{} process(es) killed", stats.killed))
        } else if stats.retired() < expected {
            Some(format!(
                "retired {} of {expected} instructions",
                stats.retired()
            ))
        } else {
            None
        };
        out = Some(stats);
        match failure {
            Some(why) => Err((registry, why)),
            None => Ok(registry),
        }
    });
    out
}

/// Runs `faulting` and the same traces with no page marked faulting as
/// two cells, and records their cycle pair.
fn paired_cells(
    p: &mut Pass,
    tr: &mut Tracer,
    cfg: SystemConfig,
    faulting: &Workload,
    setup_only: bool,
) -> Option<(SystemStats, SystemStats)> {
    let baseline = Workload {
        name: faulting.name.clone(),
        traces: faulting.traces.clone(),
        einject_pages: Vec::new(),
    };
    let name = &faulting.name;
    let base = sim_cell(
        p,
        tr,
        format!("{name}/baseline"),
        cfg,
        &baseline,
        None,
        setup_only,
    );
    let imp = sim_cell(
        p,
        tr,
        format!("{name}/imprecise"),
        cfg,
        faulting,
        None,
        setup_only,
    );
    let (b, i) = (base?, imp?);
    p.pairs.push((b.cycles, i.cycles));
    Some((b, i))
}

/// Synthesizes one Fig. 6 bar exactly as the `fig6` driver does.
fn fig6_bar(bar: usize, scale: &Fig6Scale, seed: u64) -> Workload {
    let gap = |kernel| {
        gap_workload(
            kernel,
            &GapConfig {
                nodes: scale.gap_nodes,
                degree: 8,
                cores: scale.cores,
                trials: scale.gap_trials,
                seed,
                in_einject: true,
            },
        )
    };
    let kv = |engine, ops_factor| {
        kv_workload(
            engine,
            &KvConfig {
                preload: scale.kv_preload,
                ops_per_core: scale.kv_ops * ops_factor,
                cores: scale.cores,
                seed,
                in_einject: true,
            },
        )
    };
    match bar {
        0 => gap(GapKernel::Bfs),
        1 => gap(GapKernel::Sssp),
        2 => gap(GapKernel::Bc),
        3 => kv(KvEngine::Silo, 1),
        _ => kv(KvEngine::Masstree, 4),
    }
}

fn fig6(p: &mut Pass, seeds: &Seeds, tr: &mut Tracer, setup_only: bool) {
    let scale = Fig6Scale::full();
    let mut cfg = SystemConfig::isca23();
    cfg.cores = scale.cores;
    let mut rows = Vec::new();
    for bar in 0..5 {
        let faulting =
            p.setup(|| tr.time("workloads.synth", || fig6_bar(bar, &scale, seeds.graph_kv)));
        if let Some((b, i)) = paired_cells(p, tr, cfg, &faulting, setup_only) {
            rows.push(Fig6Row {
                name: faulting.name,
                baseline_cycles: b.cycles,
                imprecise_cycles: i.cycles,
                exceptions: i.imprecise_exceptions,
                precise_exceptions: i.precise_exceptions,
                faulting_stores: i.faulting_stores,
            });
        }
    }
    p.paper = rows.to_json().render();
}

fn storm_workload(pages: usize, seed: u64) -> Workload {
    let mb = microbench(&MicrobenchConfig {
        stores_per_iter: STORM_STORES,
        iterations: 1,
        array_bytes: STORM_ARRAY_BYTES,
        faulting_pages_per_iter: pages,
        seed,
    });
    let it = &mb.iterations[0];
    Workload {
        name: format!("mbench-{pages}"),
        traces: vec![it.trace.clone()],
        einject_pages: it.faulting_pages.clone(),
    }
}

fn fault_storm(p: &mut Pass, seeds: &Seeds, tr: &mut Tracer, setup_only: bool) {
    // The 1-core Fig. 5 system.
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    cfg.cores = 1;
    for pages in STORM_PAGES {
        let faulting = p.setup(|| {
            tr.time("workloads.synth", || {
                storm_workload(pages, seeds.microbench)
            })
        });
        paired_cells(p, tr, cfg, &faulting, setup_only);
    }
    for pages in STORM_IO_PAGES {
        let w = p.setup(|| {
            tr.time("workloads.synth", || {
                storm_workload(pages, seeds.microbench)
            })
        });
        let name = format!("{}/demand-paging", w.name);
        sim_cell(p, tr, name, cfg, &w, Some(STORM_IO_LATENCY), setup_only);
    }
}

// ---------------------------------------------------------------------
// ASO sweeps (table3)
// ---------------------------------------------------------------------

fn sweep_registry(r: &SweepResult) -> Registry {
    let mut reg = Registry::new();
    reg.gauge("sc_ipc", r.sc_ipc);
    reg.gauge("wc_ipc", r.wc_ipc);
    for pt in &r.points {
        let k = pt.checkpoints;
        reg.gauge(&format!("budget{k}.ipc"), pt.ipc);
        reg.add(&format!("budget{k}.peak_sb"), pt.peak_sb as u64);
        reg.add(&format!("budget{k}.state_bytes"), pt.state_bytes as u64);
    }
    reg.put("required_kb", r.required_kb().to_json());
    reg
}

fn table3(p: &mut Pass, seeds: &Seeds, tr: &mut Tracer, setup_only: bool) {
    let scale = Table3Scale::full();
    let mut base = SystemConfig::isca23();
    base.cores = scale.cores;
    let systems = [
        ("baseline", base),
        ("2x-mem", base.with_double_memory_latency()),
        ("4x-skew", base.with_store_skew(4)),
    ];
    // Each sweep runs the traces once on SC, once on WC and once per budget.
    let machines = 2 + scale.budgets.len() as u64;
    let mut rows = Vec::new();
    for spec in table3_mixes() {
        let (mix_w, sweep_w) = p.setup(|| {
            tr.time("workloads.synth", || {
                (
                    synthesize(&spec, scale.instrs_per_core, 1, seeds.mix),
                    synthesize(&spec, scale.instrs_per_core, scale.cores, seeds.sweep),
                )
            })
        });
        if setup_only {
            continue;
        }
        let mut sweeps = Vec::new();
        for (sys_name, cfg) in systems {
            p.cell(tr, format!("{}/{sys_name}", spec.name), |tr, p| {
                let r = tr.time("aso.sweep", || {
                    sweep_checkpoints(&cfg, &sweep_w.traces, scale.budgets, MAX_CYCLES)
                });
                let registry = tr.time("telemetry.render", || sweep_registry(&r).render());
                let instrs = sweep_w.total_instructions() as u64;
                p.items += instrs * machines;
                p.count("cpu.retired", (instrs * machines) as f64);
                // A sweep reports only aggregate IPC, retired ÷ elapsed
                // cycles, so each machine's elapsed cycles come back
                // exactly by rounding; per-core cycles are not exposed.
                let ipcs = [r.sc_ipc, r.wc_ipc]
                    .into_iter()
                    .chain(r.points.iter().map(|pt| pt.ipc));
                let cycles: f64 = ipcs.map(|ipc| (instrs as f64 / ipc).round()).sum();
                p.count("sim.cycles", cycles);
                let ok = r.sc_ipc > 0.0 && r.wc_ipc > 0.0;
                sweeps.push(r);
                if ok {
                    Ok(registry)
                } else {
                    Err((registry, "a sweep machine retired nothing".to_string()))
                }
            });
        }
        if let [b, m, s] = sweeps.as_slice() {
            rows.push(Table3Row {
                spec,
                measured_mix: InstructionMix::measure(mix_w.traces[0].iter()),
                wc_speedup: b.wc_speedup(),
                state_kb: [b.required_kb(), m.required_kb(), s.required_kb()],
            });
        }
    }
    p.paper = rows.to_json().render();
}

// ---------------------------------------------------------------------
// Litmus machine, axioms and fuzzing (litmus-fuzz)
// ---------------------------------------------------------------------

/// Everything the fuzz campaign's memo oracle compares.
fn same_exploration(a: &ExplorationResult, b: &ExplorationResult) -> bool {
    a.outcomes == b.outcomes
        && a.states == b.states
        && a.imprecise_detections == b.imprecise_detections
        && a.precise_exceptions == b.precise_exceptions
        && a.mem_values == b.mem_values
}

fn litmus_fuzz(p: &mut Pass, seeds: &Seeds, tr: &mut Tracer, setup_only: bool) {
    let gen = GenConfig::default();
    let cases = p.setup(|| {
        tr.time("fuzz.gen", || {
            (0..FUZZ_CASES)
                .map(|i| generate(case_seed(seeds.fuzz, i), &gen))
                .collect::<Vec<_>>()
        })
    });
    let tests = p.setup(|| tr.time("litmus.corpus", corpus));
    if setup_only {
        return;
    }
    let mut axiom_enumerations = 0u64;
    let mut model_cases = [0u64; 3];
    for (i, case) in cases.iter().enumerate() {
        p.cell(tr, format!("fuzz/{i}"), |tr, p| {
            let cfg = MachineConfig {
                faulting: case.faulting_set(),
                ..MachineConfig::baseline(case.model).with_policy(case.policy)
            };
            let memo = tr.time("litmus.explore", || explore(&case.program, &cfg));
            let mut findings = Vec::new();
            // The campaign re-walks without memoization where the path
            // count stays small: at most two threads or five statements.
            // Of those cases, the 1.5% whose memoized walk visits more
            // than BARE_MAX_STATES states take nine tenths of the re-walk
            // time, seconds each, so a pass's time would depend on
            // whether it drew one; they are left out here.
            let small = case.program.threads.len() <= 2 || case.program.len() <= 5;
            if small && memo.states <= BARE_MAX_STATES {
                let bare_cfg = cfg.clone().with_memoize(false);
                let bare = tr.time("litmus.explore_bare", || explore(&case.program, &bare_cfg));
                if !same_exploration(&memo, &bare) {
                    findings.push("memoized and bare exploration disagree".to_string());
                }
            }
            let mut batch = BatchChecker::new();
            if case.policy == DrainPolicy::SameStream {
                let bad = tr.time("consistency.axiom", || {
                    batch.violations(&case.program, case.model, &memo.outcomes)
                });
                if !bad.is_empty() {
                    findings.push(format!(
                        "{} outcome(s) forbidden under {}",
                        bad.len(),
                        case.model
                    ));
                }
            }
            axiom_enumerations += batch.misses();
            let m = ConsistencyModel::ALL
                .iter()
                .position(|&m| m == case.model)
                .unwrap_or(0);
            model_cases[m] += 1;
            p.count("litmus.states", memo.states as f64);
            p.count("consistency.axiom_enumerations", batch.misses() as f64);
            p.count("fuzz.cases", 1.0);
            p.count("fuzz.findings", findings.len() as f64);
            p.items += 1;
            let registry = Registry::from_sections([
                ("outcomes", Json::from(memo.outcomes.len())),
                ("states", Json::from(memo.states)),
                (
                    "imprecise_detections",
                    Json::from(memo.imprecise_detections),
                ),
                ("precise_exceptions", Json::from(memo.precise_exceptions)),
                ("axiom_enumerations", Json::from(batch.misses())),
            ])
            .render();
            if findings.is_empty() {
                Ok(registry)
            } else {
                Err((registry, findings.join("; ")))
            }
        });
    }
    let mut reports = Vec::new();
    for test in &tests {
        for model in [ConsistencyModel::Pc, ConsistencyModel::Wc] {
            for mode in FaultMode::ALL {
                let name = format!("corpus/{}/{model}/{mode}", test.name);
                p.cell(tr, name, |tr, p| {
                    let r = tr.time("litmus.corpus", || {
                        run_test_with_policy(test, model, mode, DrainPolicy::SameStream)
                    });
                    p.count("litmus.states", r.states as f64);
                    p.items += 1;
                    let registry = Registry::from_sections([
                        ("observed", Json::from(r.observed.len())),
                        ("allowed", Json::from(r.allowed.len())),
                        ("states", Json::from(r.states)),
                        ("imprecise_detections", Json::from(r.imprecise_detections)),
                    ])
                    .render();
                    let passed = r.passed();
                    reports.push(r);
                    if passed {
                        Ok(registry)
                    } else {
                        Err((
                            registry,
                            "observed an outcome the model forbids".to_string(),
                        ))
                    }
                });
            }
        }
    }
    p.paper = Json::obj([
        (
            "corpus",
            Json::str(CorpusSummary { reports }.to_registry().render()),
        ),
        ("fuzz_cases", Json::from(FUZZ_CASES)),
        ("axiom_enumerations", Json::from(axiom_enumerations)),
        (
            "model_cases",
            Json::arr(model_cases.iter().map(|&c| Json::from(c))),
        ),
    ])
    .render();
}
