//! Differential tests for the two simulator clocks: the event-driven
//! cycle-skipping loop must be indistinguishable — stat for stat, byte
//! for byte — from the per-cycle reference, for every workload mix,
//! builder combination, fault plan, and sweep-worker count.
//!
//! CI additionally runs the whole test suite under an
//! `ISE_CYCLE_SKIP={0,1}` matrix so the env-driven default path is
//! pinned against the goldens at both ends; this suite compares the two
//! clocks directly in-process through the `*_clocked` entry points,
//! which ignore the override.

use imprecise_store_exceptions::aso::sweep_checkpoints_clocked;
use imprecise_store_exceptions::core_hw::FaultPlan;
use imprecise_store_exceptions::sim::experiments::{
    fig5_demand_paging_with_workers, fig5_with_workers, fig6_with_workers, table3_with_workers,
    Fig6Scale, Table3Scale,
};
use imprecise_store_exceptions::sim::{FaultCell, System};
use imprecise_store_exceptions::types::addr::Addr;
use imprecise_store_exceptions::types::instr::FenceKind;
use imprecise_store_exceptions::types::{
    ConsistencyModel, DrainPolicy, FaultKind, FaultSpec, Instruction, Json, SystemConfig, ToJson,
};
use imprecise_store_exceptions::workloads::kvstore::{kv_workload, KvConfig, KvEngine};
use imprecise_store_exceptions::workloads::layout::EINJECT_BASE;
use imprecise_store_exceptions::workloads::stats::touched_pages;
use imprecise_store_exceptions::workloads::Workload;

const MAX_CYCLES: u64 = 200_000_000;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Builds the system twice (the builder is consumed by the run) and
/// asserts the two clocks render byte-identical `SystemStats` JSON.
fn assert_clocks_agree(label: &str, mk: impl Fn() -> System) {
    let reference = mk().run_clocked(MAX_CYCLES, false).to_json().render();
    let skipped = mk().run_clocked(MAX_CYCLES, true).to_json().render();
    assert_eq!(reference, skipped, "{label}: clocks disagree");
}

fn cfg2() -> SystemConfig {
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    cfg.cores = 2;
    cfg
}

/// Two store-heavy traces over the EInject region, optionally faulting.
fn store_mix(faulting: bool) -> Workload {
    let base = Addr::new(EINJECT_BASE);
    let mk = |seed: u64| {
        let mut t = Vec::new();
        for i in 0..60u64 {
            t.push(Instruction::store(base.offset((seed * 97 + i) * 512), i));
            t.push(Instruction::other());
        }
        t
    };
    let traces: Vec<std::sync::Arc<[Instruction]>> = vec![mk(0).into(), mk(1).into()];
    let einject_pages = if faulting {
        let mut pages = Vec::new();
        for t in &traces {
            for p in touched_pages(t) {
                if !pages.contains(&p) {
                    pages.push(p);
                }
            }
        }
        pages
    } else {
        Vec::new()
    };
    Workload {
        name: format!("store-mix-{faulting}"),
        traces,
        einject_pages,
    }
}

/// Loads, stores, fences, and atomics interleaved — every stall arm the
/// idle-charging logic distinguishes shows up in this trace.
fn fence_atomic_mix() -> Workload {
    let base = Addr::new(EINJECT_BASE);
    let mk = |seed: u64| {
        let mut t = Vec::new();
        for i in 0..40u64 {
            let a = base.offset((seed * 131 + i) * 640);
            t.push(Instruction::store(a, i + 1));
            if i % 3 == 0 {
                t.push(Instruction::fence(FenceKind::Full));
            }
            if i % 5 == 0 {
                t.push(Instruction::fence(FenceKind::StoreStore));
            }
            if i % 7 == 0 {
                t.push(Instruction::atomic(
                    a,
                    1,
                    imprecise_store_exceptions::types::instr::Reg(0),
                ));
            }
            t.push(Instruction::load(
                a,
                imprecise_store_exceptions::types::instr::Reg(1),
            ));
            t.push(Instruction::other());
        }
        t
    };
    let traces: Vec<std::sync::Arc<[Instruction]>> = vec![mk(0).into(), mk(1).into()];
    let mut pages = Vec::new();
    for t in &traces {
        for p in touched_pages(t) {
            if !pages.contains(&p) {
                pages.push(p);
            }
        }
    }
    Workload {
        name: "fence-atomic-mix".into(),
        traces,
        einject_pages: pages,
    }
}

fn kv_mix() -> Workload {
    let mut cfg = KvConfig::small(2);
    cfg.preload = 300;
    cfg.ops_per_core = 60;
    cfg.in_einject = true;
    kv_workload(KvEngine::Silo, &cfg)
}

#[test]
fn clocks_agree_across_workload_mixes_and_models() {
    assert_clocks_agree("clean stores, WC", || {
        System::new(cfg2(), &store_mix(false))
    });
    assert_clocks_agree("faulting stores, WC", || {
        System::new(cfg2(), &store_mix(true))
    });
    assert_clocks_agree("faulting stores, PC", || {
        System::new(cfg2().with_model(ConsistencyModel::Pc), &store_mix(true))
    });
    assert_clocks_agree("faulting stores, SC (precise path)", || {
        System::new(cfg2().with_model(ConsistencyModel::Sc), &store_mix(true))
    });
    assert_clocks_agree("fences and atomics, WC", || {
        System::new(cfg2(), &fence_atomic_mix())
    });
    assert_clocks_agree("fences and atomics, PC", || {
        System::new(cfg2().with_model(ConsistencyModel::Pc), &fence_atomic_mix())
    });
    assert_clocks_agree("kv engine, WC", || System::new(cfg2(), &kv_mix()));
}

#[test]
fn clocks_agree_with_split_stream_drains() {
    let mut cfg = cfg2();
    cfg.core.drain_policy = DrainPolicy::SplitStream;
    assert_clocks_agree("split-stream drains", || System::new(cfg, &store_mix(true)));
}

#[test]
fn clocks_agree_with_undersized_fsb_rings() {
    // A 4-entry ring forces the early-drain recovery path: drain
    // episodes reach the OS in capacity-sized chunks.
    assert_clocks_agree("undersized FSB", || {
        System::new(cfg2(), &store_mix(true)).with_fsb_capacity(4)
    });
    assert_clocks_agree("undersized FSB + fences", || {
        System::new(cfg2(), &fence_atomic_mix()).with_fsb_capacity(4)
    });
}

#[test]
fn clocks_agree_with_timer_interrupt_delivery_and_deferral() {
    for interval in [200u64, 350, 1000] {
        assert_clocks_agree(&format!("timer interval {interval}"), || {
            System::new(cfg2(), &store_mix(true)).with_timer_interrupts(interval)
        });
    }
}

#[test]
fn clocks_agree_with_demand_paging_io() {
    for io_latency in [300u64, 2_000] {
        assert_clocks_agree(&format!("demand paging, {io_latency}-cycle IO"), || {
            System::new(cfg2(), &store_mix(true)).with_demand_paging_io(io_latency)
        });
    }
}

#[test]
fn clocks_agree_under_chaos_fault_plans() {
    let workload = kv_mix();
    let touched: Vec<_> = {
        let mut pages = Vec::new();
        for t in &workload.traces {
            for p in touched_pages(t) {
                if workload.einject_pages.contains(&p) && !pages.contains(&p) {
                    pages.push(p);
                }
            }
        }
        pages
    };
    assert!(!touched.is_empty(), "kv workload must touch faulting pages");
    // Built as the chaos campaigns build their cells: EInject stays
    // inert and the plan injector is the only fault source.
    for kind in [
        FaultKind::Permanent,
        FaultKind::Transient { clears_after: 2 },
        FaultKind::Intermittent { probability: 0.5 },
        FaultKind::Windowed {
            from: 0,
            until: 100_000,
        },
    ] {
        assert_clocks_agree(&format!("fault plan {kind:?}"), || {
            let plan = FaultPlan::new(0xC10C).pages(
                touched.iter().step_by(2).copied(),
                FaultSpec::bus_error(kind),
            );
            FaultCell::build(cfg2(), &workload, Some(plan)).sys
        });
    }
}

#[test]
fn aso_sweep_identical_across_clocks_multicore() {
    let base = Addr::new(0x1000_0000);
    let mk = |seed: u64| {
        (0..50u64)
            .flat_map(|i| {
                [
                    Instruction::store(base.offset((seed << 22) + i * 4096), i),
                    Instruction::other(),
                ]
            })
            .collect::<Vec<_>>()
    };
    let traces: Vec<std::sync::Arc<[Instruction]>> = vec![mk(0).into(), mk(1).into()];
    let reference = sweep_checkpoints_clocked(&cfg2(), &traces, &[1, 8, 32], MAX_CYCLES, false);
    let skipped = sweep_checkpoints_clocked(&cfg2(), &traces, &[1, 8, 32], MAX_CYCLES, true);
    assert_eq!(reference, skipped, "ASO sweep: clocks disagree");
}

fn render_rows<T: ToJson>(rows: &[T]) -> String {
    Json::arr(rows.iter().map(ToJson::to_json)).render()
}

#[test]
fn experiment_sweeps_identical_across_worker_counts() {
    // Every sweep runs on the (default) cycle-skipping clock here; the
    // CI `ISE_CYCLE_SKIP` matrix pins the sweeps cross-clock. What this
    // test pins is the insertion-order merge: the fan-out must be
    // invisible at every worker count.
    let fig5_ref = render_rows(&fig5_with_workers(&[2, 64], 1));
    let io_ref = render_rows(&fig5_demand_paging_with_workers(&[2, 16], 500, 1));
    let scale = Table3Scale {
        instrs_per_core: 1_500,
        cores: 2,
        budgets: &[1, 8],
    };
    let table3_ref = render_rows(&table3_with_workers(&scale, 1));
    for workers in WORKER_COUNTS {
        assert_eq!(
            render_rows(&fig5_with_workers(&[2, 64], workers)),
            fig5_ref,
            "fig5 workers={workers}"
        );
        assert_eq!(
            render_rows(&fig5_demand_paging_with_workers(&[2, 16], 500, workers)),
            io_ref,
            "fig5-io workers={workers}"
        );
        assert_eq!(
            render_rows(&table3_with_workers(&scale, workers)),
            table3_ref,
            "table3 workers={workers}"
        );
    }
}

#[test]
fn fig6_sweep_identical_across_worker_counts() {
    let scale = Fig6Scale {
        gap_nodes: 400,
        gap_trials: 2,
        kv_preload: 300,
        kv_ops: 500,
        cores: 2,
    };
    let reference = render_rows(&fig6_with_workers(&scale, 1));
    for workers in WORKER_COUNTS {
        assert_eq!(
            render_rows(&fig6_with_workers(&scale, workers)),
            reference,
            "fig6 workers={workers}"
        );
    }
}
