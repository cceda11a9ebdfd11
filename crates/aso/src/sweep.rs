//! The checkpoint-budget sweep behind Table 3's right-hand columns.
//!
//! For a given workload (one trace per core) we measure:
//!
//! 1. the SC machine (store buffer disabled — §2.3's forced-precise
//!    baseline);
//! 2. the WC machine (Table 2's configuration);
//! 3. an ASO machine for each checkpoint budget `C`: a WC-ordered pipeline
//!    whose store drains are capped at `C` concurrently outstanding
//!    (each outstanding store miss holds one checkpoint) backed by a
//!    scalable store buffer whose *peak occupancy* we record.
//!
//! The reported requirement is the cheapest budget whose IPC reaches the
//! WC machine's (within [`WC_TOLERANCE`]), priced by
//! [`crate::SpeculationAccounting`].

use crate::account::SpeculationAccounting;
use ise_cpu::{run_cores, Core, VecTrace};
use ise_engine::{skip_clock, Cycle};
use ise_mem::MemoryHierarchy;
use ise_types::config::SystemConfig;
use ise_types::model::ConsistencyModel;
use ise_types::{CoreId, Instruction};

/// Fraction of WC IPC that counts as "achieving the full WC performance
/// benefits".
pub const WC_TOLERANCE: f64 = 0.995;

/// Scalable store-buffer capacity used while sweeping (generous: the
/// paper's point is that the *required* state is what we measure, so the
/// sweep must not clip it).
const SCALABLE_SB_CAP: usize = 8192;

/// One sweep sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Checkpoint budget.
    pub checkpoints: usize,
    /// Aggregate IPC achieved.
    pub ipc: f64,
    /// Peak scalable store-buffer occupancy observed (entries).
    pub peak_sb: usize,
    /// Priced speculation state in bytes for this budget.
    pub state_bytes: usize,
}

/// The result of one workload's sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// SC (forced-precise) aggregate IPC.
    pub sc_ipc: f64,
    /// WC aggregate IPC.
    pub wc_ipc: f64,
    /// All sampled budgets.
    pub points: Vec<SweepPoint>,
    /// The cheapest point reaching [`WC_TOLERANCE`] × WC IPC, if any.
    pub required: Option<SweepPoint>,
}

impl SweepResult {
    /// WC speedup over SC (Table 3's "WC speedup" column).
    pub fn wc_speedup(&self) -> f64 {
        if self.sc_ipc == 0.0 {
            0.0
        } else {
            self.wc_ipc / self.sc_ipc
        }
    }

    /// Required speculation state in KB (Table 3's right-hand columns), if
    /// some budget achieved WC performance.
    pub fn required_kb(&self) -> Option<f64> {
        self.required.map(|p| p.state_bytes as f64 / 1024.0)
    }
}

fn make_cores(
    cfg: &SystemConfig,
    traces: &[std::sync::Arc<[Instruction]>],
    model: ConsistencyModel,
) -> Vec<Core<VecTrace>> {
    traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let core_cfg = cfg.core.with_model(model);
            Core::new(CoreId(i), core_cfg, VecTrace::shared(t.clone()))
        })
        .collect()
}

fn aggregate_ipc(cores: &[Core<VecTrace>]) -> f64 {
    let retired: u64 = cores.iter().map(|c| c.stats().retired).sum();
    let cycles: u64 = cores.iter().map(|c| c.stats().cycles).max().unwrap_or(0);
    if cycles == 0 {
        0.0
    } else {
        retired as f64 / cycles as f64
    }
}

/// Runs `cores` to completion on a fresh hierarchy, tracking the peak
/// store-buffer occupancy across all cores.
///
/// Store-buffer occupancy only changes inside [`Core::step`], and the
/// cycle-skip clock executes steps at exactly the cycles the reference
/// clock would, so skipping dead windows cannot miss a peak.
fn run_tracking_peak_clocked(
    cfg: &SystemConfig,
    cores: &mut [Core<VecTrace>],
    max_cycles: Cycle,
    skip: bool,
) -> usize {
    let mut hier = MemoryHierarchy::new(*cfg);
    let mut peak = 0;
    run_cores(cores, &mut hier, max_cycles, skip, |c| {
        peak = peak.max(c.sb_len())
    });
    peak
}

/// Sweeps checkpoint budgets for one workload. `traces` supplies one
/// instruction stream per core; the system configuration's core count must
/// be at least `traces.len()`.
///
/// # Panics
///
/// Panics if `traces` is empty, a workload raises an exception (the
/// Table 3 study is exception-free), or `max_cycles` elapses.
pub fn sweep_checkpoints(
    cfg: &SystemConfig,
    traces: &[std::sync::Arc<[Instruction]>],
    budgets: &[usize],
    max_cycles: Cycle,
) -> SweepResult {
    sweep_checkpoints_clocked(cfg, traces, budgets, max_cycles, skip_clock(cfg))
}

/// [`sweep_checkpoints`] with an explicit clock choice, ignoring the
/// `ISE_CYCLE_SKIP` environment override — the entry point the
/// differential suite uses to compare the reference and cycle-skip
/// clocks in-process.
///
/// # Panics
///
/// As [`sweep_checkpoints`].
pub fn sweep_checkpoints_clocked(
    cfg: &SystemConfig,
    traces: &[std::sync::Arc<[Instruction]>],
    budgets: &[usize],
    max_cycles: Cycle,
    skip: bool,
) -> SweepResult {
    assert!(!traces.is_empty(), "need at least one trace");
    let mut run_cfg = *cfg;
    run_cfg.cores = run_cfg.cores.max(traces.len());

    // SC baseline.
    let mut sc_cores = make_cores(&run_cfg, traces, ConsistencyModel::Sc);
    run_tracking_peak_clocked(&run_cfg, &mut sc_cores, max_cycles, skip);
    let sc_ipc = aggregate_ipc(&sc_cores);

    // WC target.
    let mut wc_cores = make_cores(&run_cfg, traces, ConsistencyModel::Wc);
    run_tracking_peak_clocked(&run_cfg, &mut wc_cores, max_cycles, skip);
    let wc_ipc = aggregate_ipc(&wc_cores);

    let acc = SpeculationAccounting::for_system(&run_cfg);
    let mut points = Vec::with_capacity(budgets.len());
    for &budget in budgets {
        let mut aso_cfg = run_cfg;
        aso_cfg.core.sb_entries = SCALABLE_SB_CAP;
        let mut cores = make_cores(&aso_cfg, traces, ConsistencyModel::Wc);
        for c in cores.iter_mut() {
            c.set_sb_max_in_flight(budget);
        }
        let peak_sb = run_tracking_peak_clocked(&aso_cfg, &mut cores, max_cycles, skip);
        let ipc = aggregate_ipc(&cores);
        points.push(SweepPoint {
            checkpoints: budget,
            ipc,
            peak_sb,
            state_bytes: acc.state_bytes(budget, peak_sb),
        });
    }

    let required = points
        .iter()
        .filter(|p| p.ipc >= WC_TOLERANCE * wc_ipc)
        .min_by_key(|p| p.state_bytes)
        .copied();

    SweepResult {
        sc_ipc,
        wc_ipc,
        points,
        required,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::addr::Addr;

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::isca23();
        cfg.cores = 2;
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        cfg
    }

    /// A store-miss-heavy trace: the case WC/ASO accelerate.
    fn store_trace(seed: u64, n: u64) -> std::sync::Arc<[Instruction]> {
        let mut v = Vec::new();
        for i in 0..n {
            v.push(Instruction::store(Addr::new((seed + i) * 4096), i));
            v.push(Instruction::other());
            v.push(Instruction::other());
        }
        v.into()
    }

    #[test]
    fn wc_beats_sc_and_big_budget_reaches_wc() {
        let cfg = small_cfg();
        let traces = vec![store_trace(0, 60), store_trace(1 << 20, 60)];
        let r = sweep_checkpoints(&cfg, &traces, &[1, 8, 32], 10_000_000);
        assert!(r.wc_speedup() > 1.2, "speedup {:.2}", r.wc_speedup());
        let best = r.points.last().unwrap();
        assert!(
            best.ipc >= WC_TOLERANCE * r.wc_ipc,
            "32 checkpoints should reach WC ({:.3} vs {:.3})",
            best.ipc,
            r.wc_ipc
        );
        assert!(r.required.is_some());
    }

    #[test]
    fn ipc_is_monotone_in_checkpoints_roughly() {
        let cfg = small_cfg();
        let traces = vec![store_trace(0, 60)];
        let r = sweep_checkpoints(&cfg, &traces, &[1, 4, 16], 10_000_000);
        assert!(
            r.points[0].ipc <= r.points[2].ipc * 1.02,
            "more checkpoints should not hurt: {:?}",
            r.points
        );
    }

    #[test]
    fn state_includes_overlay_floor() {
        let cfg = small_cfg();
        let traces = vec![store_trace(0, 20)];
        let r = sweep_checkpoints(&cfg, &traces, &[2], 10_000_000);
        let acc = SpeculationAccounting::for_system(&cfg);
        assert!(r.points[0].state_bytes >= acc.cache_overlay_bytes);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_traces_rejected() {
        sweep_checkpoints(&small_cfg(), &[], &[1], 1000);
    }

    #[test]
    fn cycle_skip_sweep_matches_reference() {
        let cfg = small_cfg();
        let traces = vec![store_trace(0, 60), store_trace(1 << 20, 60)];
        let reference = sweep_checkpoints_clocked(&cfg, &traces, &[1, 8, 32], 10_000_000, false);
        let skipped = sweep_checkpoints_clocked(&cfg, &traces, &[1, 8, 32], 10_000_000, true);
        assert_eq!(reference, skipped);
    }
}
