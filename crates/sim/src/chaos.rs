//! Chaos campaigns: fault-injection sweeps with invariant checks.
//!
//! A campaign takes the workloads' own faulting pages, replaces EInject
//! with a [`FaultInjector`] interpreting a richer [`FaultKind`] — see
//! `ise-core`'s fault layer — and sweeps fault **kind** × injection
//! **rate** × **workload**. Every cell is a [`FaultCell`], so every
//! completed run passes the one campaign audit ([`crate::invariants`]):
//! completion, store conservation on surviving cores, FSB rings drained,
//! the Table 5 ordering contract, the containment checks and the
//! applied-visibility audit, whose findings chaos appends to the cell's
//! violations.
//!
//! The campaign is deterministic: the same [`ChaosConfig::seed`] yields
//! a byte-identical JSON report.

use crate::cell::FaultCell;
use ise_core::{FaultInjector, FaultPlan};
use ise_engine::{Cycle, SimRng};
use ise_telemetry::{Registry, TraceEventKind};
use ise_types::config::SystemConfig;
use ise_types::{FaultKind, FaultSpec, Json, ToJson};
use ise_workloads::stats::touched_pages;
use ise_workloads::Workload;
use std::collections::HashSet;

/// Sweep parameters of one campaign.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; page sampling and intermittent draws derive from it.
    pub seed: u64,
    /// Fault kinds to sweep (each with its concrete parameters).
    pub kinds: Vec<FaultKind>,
    /// Fractions of each workload's faulting pages to inject, in `(0, 1]`.
    pub rates: Vec<f64>,
    /// Cycle budget per run.
    pub max_cycles: Cycle,
}

impl ChaosConfig {
    /// The default sweep: all four kinds × three rates, seeded.
    pub fn default_sweep() -> Self {
        ChaosConfig {
            seed: 0xC4A05,
            kinds: vec![
                FaultKind::Permanent,
                FaultKind::Transient { clears_after: 2 },
                FaultKind::Intermittent { probability: 0.5 },
                FaultKind::Windowed {
                    from: 0,
                    until: 100_000,
                },
            ],
            rates: vec![0.1, 0.5, 1.0],
            max_cycles: 200_000_000,
        }
    }
}

/// The outcome of one sweep cell (workload × kind × rate).
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Workload name.
    pub workload: String,
    /// Injected fault kind (with parameters).
    pub kind: FaultKind,
    /// Requested injection rate.
    pub rate: f64,
    /// Pages actually injected.
    pub pages_injected: usize,
    /// Total cycles to completion.
    pub cycles: Cycle,
    /// Imprecise exceptions taken.
    pub imprecise_exceptions: u64,
    /// Stores the OS applied.
    pub stores_applied: u64,
    /// Transactions the injector denied.
    pub denied: u64,
    /// Handler retries on still-present causes.
    pub transient_retries: u64,
    /// Stores recovered after at least one retry.
    pub transient_recovered: u64,
    /// Early-drain interrupts (chunked episodes).
    pub early_drain_interrupts: u64,
    /// Deepest FSB occupancy observed.
    pub fsb_high_water_mark: usize,
    /// Processes killed.
    pub killed: u64,
    /// Whether the run exhausted its cycle budget (the `ISE_CELL_BUDGET`
    /// watchdog or [`ChaosConfig::max_cycles`], whichever is tighter) and
    /// was cut off. Invariant checks are skipped on a timed-out cell —
    /// mid-flight state legitimately violates end-of-run conservation.
    pub timed_out: bool,
    /// Invariant violations (empty = all held).
    pub violations: Vec<String>,
}

impl ChaosRun {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The cell as a telemetry [`Registry`]: counters for everything
    /// monotone, JSON values for identity and verdict fields, in the
    /// report's historical key order (the parallel-equivalence suite
    /// pins the rendering byte-for-byte).
    pub fn to_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.put("workload", Json::str(self.workload.clone()));
        reg.put("kind", Json::str(self.kind.to_string()));
        reg.put("rate", Json::from(self.rate));
        reg.add("pages_injected", self.pages_injected as u64);
        reg.add("cycles", self.cycles);
        reg.add("imprecise_exceptions", self.imprecise_exceptions);
        reg.add("stores_applied", self.stores_applied);
        reg.add("denied", self.denied);
        reg.add("transient_retries", self.transient_retries);
        reg.add("transient_recovered", self.transient_recovered);
        reg.add("early_drain_interrupts", self.early_drain_interrupts);
        reg.add("fsb_high_water_mark", self.fsb_high_water_mark as u64);
        reg.add("killed", self.killed);
        reg.put("timed_out", Json::from(self.timed_out));
        reg.put("ok", Json::from(self.ok()));
        reg.put(
            "violations",
            Json::arr(self.violations.iter().map(Json::str)),
        );
        reg
    }
}

impl ToJson for ChaosRun {
    fn to_json(&self) -> Json {
        self.to_registry().to_json()
    }
}

/// A whole campaign's results.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The master seed the campaign ran under.
    pub seed: u64,
    /// Cells actually simulated after snapshot-hash dedupe (≤
    /// `runs.len()`; duplicate sweep entries share one evaluation).
    pub unique_cells: usize,
    /// One entry per sweep cell, in sweep order.
    pub runs: Vec<ChaosRun>,
}

impl ChaosReport {
    /// Whether every run's invariants held.
    pub fn all_ok(&self) -> bool {
        self.runs.iter().all(ChaosRun::ok)
    }

    /// The campaign as a telemetry [`Registry`] (seed, per-cell runs in
    /// sweep order, verdict).
    pub fn to_registry(&self) -> Registry {
        Registry::from_sections([
            ("seed", Json::from(self.seed)),
            ("unique_cells", Json::from(self.unique_cells)),
            ("runs", self.runs.to_json()),
            ("all_ok", Json::from(self.all_ok())),
        ])
    }
}

impl ToJson for ChaosReport {
    fn to_json(&self) -> Json {
        self.to_registry().to_json()
    }
}

/// Sweeps fault kind × rate × workload, checking invariants per run.
#[derive(Debug, Clone)]
pub struct ChaosCampaign {
    cfg: SystemConfig,
    chaos: ChaosConfig,
}

impl ChaosCampaign {
    /// A campaign running each cell on `cfg` (its consistency model is
    /// the one the ordering contract is checked against).
    pub fn new(cfg: SystemConfig, chaos: ChaosConfig) -> Self {
        ChaosCampaign { cfg, chaos }
    }

    /// Runs the full sweep over `workloads`, one kind × rate × workload
    /// cell per worker, on [`ise_par::worker_count`] workers (the
    /// `ISE_WORKERS` environment variable overrides the machine
    /// default).
    ///
    /// Each workload must declare `einject_pages` (the pool faults are
    /// sampled from); the campaign clears that list so EInject stays
    /// inert and the [`FaultInjector`] is the only fault source.
    ///
    /// A cell that would exceed its cycle budget (the tighter of
    /// [`ChaosConfig::max_cycles`] and the `ISE_CELL_BUDGET` watchdog)
    /// degrades to a reported [`ChaosRun::timed_out`] outcome instead of
    /// panicking out of a worker.
    ///
    /// # Panics
    ///
    /// Panics if a workload declares no faulting pages.
    pub fn run(&self, workloads: &[Workload]) -> ChaosReport {
        self.run_with_workers(workloads, ise_par::worker_count())
    }

    /// One deterministic stream per cell, derived from the cell's
    /// *content* (workload name, fault kind, rate) rather than its sweep
    /// position: reordering or extending the sweep leaves every other
    /// cell's stream untouched, and duplicate sweep entries become
    /// byte-identical cells the snapshot-hash dedupe collapses.
    fn cell_seed(&self, workload: &Workload, kind: FaultKind, rate: f64) -> u64 {
        let key = format!("{}\u{1f}{kind:?}\u{1f}{}", workload.name, rate.to_bits());
        self.chaos.seed.wrapping_add(
            0x9e37_79b9_7f4a_7c15u64.wrapping_mul(ise_types::persist::fnv1a(key.as_bytes()) | 1),
        )
    }

    /// [`run`](ChaosCampaign::run) with an explicit worker count.
    ///
    /// Every cell is fully independent — it seeds its own RNG stream and
    /// builds its own machine — and results are reduced in sweep
    /// order, so the report (and its JSON rendering) is byte-identical
    /// for every worker count. Cells whose boot snapshots hash equal
    /// (duplicate sweep entries) are simulated once and their result
    /// replicated into each sweep slot.
    pub fn run_with_workers(&self, workloads: &[Workload], workers: usize) -> ChaosReport {
        let mut cells =
            Vec::with_capacity(workloads.len() * self.chaos.kinds.len() * self.chaos.rates.len());
        for (wi, workload) in workloads.iter().enumerate() {
            assert!(
                !workload.einject_pages.is_empty(),
                "workload {} declares no faulting pages to sample from",
                workload.name
            );
            for &kind in &self.chaos.kinds {
                for &rate in &self.chaos.rates {
                    cells.push((wi, kind, rate, self.cell_seed(workload, kind, rate)));
                }
            }
        }
        // Snapshot-hash dedupe: a cell is keyed by the FNV-1a hash of its
        // boot snapshot (workload identity, armed fault plan, RNG
        // positions), so equal keys mean equal trajectories.
        let (runs, unique_cells) = ise_par::par_map_dedup(
            &cells,
            workers,
            |&(wi, kind, rate, seed)| {
                let (cell, _) = self.build_cell(&workloads[wi], kind, rate, seed);
                ise_types::persist::fnv1a(&cell.sys.snapshot())
            },
            |_, &(wi, kind, rate, seed)| self.run_cell(&workloads[wi], kind, rate, seed, None).0,
        );
        ChaosReport {
            seed: self.chaos.seed,
            unique_cells,
            runs,
        }
    }

    /// Runs one sweep cell with the event trace enabled (a ring of
    /// `capacity` events) and returns the cell's result together with
    /// the trace as JSON. The trace opens with one `fault_activated`
    /// event per injected page and closes with `fault_cleared` for every
    /// cause that healed or was resolved — the campaign-level events the
    /// per-run counters lose. Cell seeding matches what
    /// [`ChaosCampaign::run`] would use for the matching sweep cell of
    /// `workload`, so the traced run reproduces a sweep cell exactly.
    pub fn trace_cell(
        &self,
        workload: &Workload,
        kind: FaultKind,
        rate: f64,
        capacity: usize,
    ) -> (ChaosRun, Json) {
        let cell_seed = self.cell_seed(workload, kind, rate);
        let (run, trace) = self.run_cell(workload, kind, rate, cell_seed, Some(capacity));
        (run, trace.expect("tracing was requested"))
    }

    /// Builds one sweep cell up to (but not including) its first cycle:
    /// the workload armed with the cell's fault plan, plus the pages the
    /// plan injects. Both the run path and the snapshot-hash dedupe key
    /// start here, so the key hashes exactly the state the run evolves
    /// from.
    fn build_cell<'w>(
        &self,
        workload: &'w Workload,
        kind: FaultKind,
        rate: f64,
        seed: u64,
    ) -> (FaultCell<'w>, Vec<ise_types::PageId>) {
        // Sample from the declared pages the traces actually reach —
        // regions are reserved generously, and injecting only cold pages
        // would make the whole sweep vacuous.
        let touched: HashSet<_> = workload
            .traces
            .iter()
            .flat_map(|t| touched_pages(t))
            .collect();
        let pool: Vec<_> = workload
            .einject_pages
            .iter()
            .copied()
            .filter(|p| touched.contains(p))
            .collect();
        assert!(
            !pool.is_empty(),
            "workload {} never touches its declared faulting pages",
            workload.name
        );
        let k = ((pool.len() as f64 * rate).ceil() as usize).clamp(1, pool.len());
        let mut rng = SimRng::seed_from(seed);
        let picked: Vec<_> = rng
            .sample_indices(pool.len(), k)
            .into_iter()
            .map(|i| pool[i])
            .collect();
        let plan =
            FaultPlan::new(seed ^ 0xF417).pages(picked.iter().copied(), FaultSpec::bus_error(kind));
        (FaultCell::build(self.cfg, workload, Some(plan)), picked)
    }

    fn run_cell(
        &self,
        workload: &Workload,
        kind: FaultKind,
        rate: f64,
        seed: u64,
        trace_capacity: Option<usize>,
    ) -> (ChaosRun, Option<Json>) {
        let (mut cell, picked) = self.build_cell(workload, kind, rate, seed);
        if let Some(cap) = trace_capacity {
            cell.sys = cell.sys.with_trace(cap);
            for &page in &picked {
                cell.sys
                    .record_event(0, TraceEventKind::FaultActivated { page: page.index() });
            }
        }
        let run = cell.run(self.chaos.max_cycles, ise_engine::skip_clock(&self.cfg));
        let injector: &FaultInjector = cell.injector.as_ref().expect("chaos cells are armed");
        let trace = trace_capacity.map(|_| {
            for page in injector.cleared_pages() {
                cell.sys
                    .record_event(0, TraceEventKind::FaultCleared { page: page.index() });
            }
            cell.sys.trace_json()
        });

        let stats = run.stats;
        let mut violations = run.audit.violations;
        violations.extend(run.audit.corruption);
        let run = ChaosRun {
            workload: workload.name.clone(),
            kind,
            rate,
            pages_injected: picked.len(),
            cycles: stats.cycles,
            imprecise_exceptions: stats.imprecise_exceptions,
            stores_applied: stats.stores_applied,
            denied: injector.denied_count(),
            transient_retries: stats.transient_retries,
            transient_recovered: stats.transient_recovered,
            early_drain_interrupts: stats.early_drain_interrupts,
            fsb_high_water_mark: stats.fsb_high_water_mark,
            killed: stats.killed,
            timed_out: run.timed_out,
            violations,
        };
        (run, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::model::ConsistencyModel;
    use ise_workloads::kvstore::{kv_workload, KvConfig, KvEngine};

    fn tiny_workload() -> Workload {
        let mut kv = KvConfig::small(2);
        kv.preload = 200;
        kv.ops_per_core = 40;
        kv.in_einject = true;
        kv_workload(KvEngine::Silo, &kv)
    }

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::isca23();
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        cfg.cores = 2;
        cfg.with_model(ConsistencyModel::Pc)
    }

    #[test]
    fn single_cell_holds_invariants() {
        let chaos = ChaosConfig {
            seed: 3,
            kinds: vec![FaultKind::Permanent],
            rates: vec![0.5],
            max_cycles: 200_000_000,
        };
        let report = ChaosCampaign::new(small_cfg(), chaos).run(&[tiny_workload()]);
        assert_eq!(report.runs.len(), 1);
        let run = &report.runs[0];
        assert!(run.ok(), "violations: {:?}", run.violations);
        assert!(run.denied > 0, "permanent faults must deny something");
        assert!(run.imprecise_exceptions > 0);
    }

    #[test]
    fn report_json_is_deterministic_per_seed() {
        let chaos = ChaosConfig {
            seed: 9,
            kinds: vec![FaultKind::Intermittent { probability: 0.4 }],
            rates: vec![0.3],
            max_cycles: 200_000_000,
        };
        let mk = || {
            ChaosCampaign::new(small_cfg(), chaos.clone())
                .run(&[tiny_workload()])
                .to_json()
                .render()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn exhausted_budget_degrades_to_timeout_outcome() {
        // A 500-cycle budget cannot complete the workload; the cell must
        // report timed_out instead of panicking out of the campaign, and
        // identically under both clocks.
        let chaos = ChaosConfig {
            seed: 3,
            kinds: vec![FaultKind::Permanent],
            rates: vec![0.5],
            max_cycles: 500,
        };
        let mk = |reference: bool| {
            let mut cfg = small_cfg();
            cfg.reference_clock = reference;
            ChaosCampaign::new(cfg, chaos.clone()).run(&[tiny_workload()])
        };
        let skip = mk(false);
        let run = &skip.runs[0];
        assert!(run.timed_out);
        assert!(run.ok(), "timed-out cells skip invariant audits");
        assert!(run.cycles <= 500);
        assert_eq!(
            skip.to_json().render(),
            mk(true).to_json().render(),
            "timeout outcomes must be byte-identical across clocks"
        );
    }

    #[test]
    fn trace_cell_records_fault_lifecycle_without_perturbing_the_run() {
        let kind = FaultKind::Transient { clears_after: 2 };
        // Seed 7's content-derived cell samples store-touched pages, so
        // the trace shows the full detect→drain→heal lifecycle.
        let chaos = ChaosConfig {
            seed: 7,
            kinds: vec![kind],
            rates: vec![0.5],
            max_cycles: 200_000_000,
        };
        let campaign = ChaosCampaign::new(small_cfg(), chaos);
        let w = tiny_workload();
        let (run, trace) = campaign.trace_cell(&w, kind, 0.5, 8192);
        assert!(run.ok(), "violations: {:?}", run.violations);
        let rendered = trace.render();
        assert!(rendered.contains("\"fault_activated\""));
        assert!(rendered.contains("\"fault_cleared\""), "transients heal");
        assert!(rendered.contains("\"fsb_drain_begin\""));
        // Tracing is a pure observer: the traced cell reproduces the
        // corresponding sweep cell byte-for-byte.
        let report = campaign.run(&[w]);
        assert_eq!(
            run.to_json().render(),
            report.runs[0].to_json().render(),
            "traced cell must match the sweep cell"
        );
    }

    #[test]
    fn duplicate_sweep_cells_evaluate_once_and_report_identically() {
        // A sweep with repeated (kind, rate) entries boots to identical
        // snapshots, so the campaign must simulate one representative and
        // replicate its result into every matching slot.
        let chaos = ChaosConfig {
            seed: 5,
            kinds: vec![FaultKind::Permanent, FaultKind::Permanent],
            rates: vec![0.5, 0.5],
            max_cycles: 200_000_000,
        };
        let report = ChaosCampaign::new(small_cfg(), chaos.clone()).run(&[tiny_workload()]);
        assert_eq!(report.runs.len(), 4);
        assert_eq!(report.unique_cells, 1, "all four cells hash equal");
        let first = report.runs[0].to_json().render();
        for run in &report.runs[1..] {
            assert_eq!(run.to_json().render(), first);
        }
        // The deduped result matches what a single-entry sweep computes.
        let single = ChaosConfig {
            kinds: vec![FaultKind::Permanent],
            rates: vec![0.5],
            ..chaos
        };
        let solo = ChaosCampaign::new(small_cfg(), single).run(&[tiny_workload()]);
        assert_eq!(solo.unique_cells, 1);
        assert_eq!(solo.runs[0].to_json().render(), first);
    }
}
