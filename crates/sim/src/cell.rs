//! The one fault-campaign cell: chaos sweeps ([`crate::chaos`]), the
//! adversary's objective evaluation and the litmus timing-sim leg
//! ([`crate::litmus`]) all build, run and audit their runs here. Building
//! and running are two steps because callers act on the machine before
//! its first cycle: chaos hashes the boot snapshot and records trace
//! events, the adversary resizes the FSB rings.

use crate::invariants::{self, Audit};
use crate::system::{System, SystemStats};
use ise_core::{FaultInjector, FaultPlan, FaultResolver};
use ise_engine::Cycle;
use ise_types::config::SystemConfig;
use ise_workloads::Workload;
use std::rc::Rc;

/// A built, not yet run, campaign cell.
pub struct FaultCell<'w> {
    /// The machine, contract monitor on; callers may rebuild it (e.g.
    /// [`System::with_fsb_capacity`]) before [`FaultCell::run`].
    pub sys: System,
    /// The injector of the cell's [`FaultPlan`], if it has one.
    pub injector: Option<Rc<FaultInjector>>,
    workload: &'w Workload,
}

/// What one cell run produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Run statistics (as of the cut-off cycle when timed out).
    pub stats: SystemStats,
    /// The budget the run had: the requested maximum clamped to the
    /// `ISE_CELL_BUDGET` watchdog.
    pub budget: Cycle,
    /// Whether the run exhausted `budget` and was cut off.
    pub timed_out: bool,
    /// The post-run audit; empty when timed out, since mid-flight state
    /// legitimately violates end-of-run conservation.
    pub audit: Audit,
}

impl<'w> FaultCell<'w> {
    /// Builds `workload` on `cfg` with the contract monitor on. With no
    /// `plan`, EInject marks the workload's `einject_pages` faulting;
    /// given a plan, EInject stays inert and the plan's injector is the
    /// only fault source.
    pub fn build(cfg: SystemConfig, workload: &'w Workload, plan: Option<FaultPlan>) -> Self {
        let (sys, injector) = match plan {
            None => (System::new(cfg, workload), None),
            Some(plan) => {
                let injector = Rc::new(plan.build());
                let mut quiet = workload.clone();
                quiet.einject_pages.clear();
                let source = injector.clone() as Rc<dyn FaultResolver>;
                (
                    System::with_fault_sources(cfg, &quiet, vec![source]),
                    Some(injector),
                )
            }
        };
        let sys = sys.with_contract_monitor();
        FaultCell {
            sys,
            injector,
            workload,
        }
    }

    /// Runs the cell on the clock `skip` selects for at most `max_cycles`
    /// (clamped to `ISE_CELL_BUDGET`), auditing the run if it completed.
    pub fn run(&mut self, max_cycles: Cycle, skip: bool) -> CellRun {
        let budget = ise_engine::cell_budget().map_or(max_cycles, |cap| max_cycles.min(cap));
        let (stats, timed_out) = self.sys.run_bounded(budget, skip);
        let audit = if timed_out {
            Audit::default()
        } else {
            invariants::audit(&self.sys, self.workload, &stats)
        };
        CellRun {
            stats,
            budget,
            timed_out,
            audit,
        }
    }
}
