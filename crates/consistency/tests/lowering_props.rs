//! Property tests for the compiler-mapping pass: every lowering — the
//! correct tables *and* every seeded-buggy variant — must preserve the
//! program's structure. A mapping bug is allowed to drop fences, never
//! to move, drop, or reorder accesses:
//!
//! * each thread's memory-access sequence (kind, location, value or
//!   destination register) survives verbatim once fences are stripped;
//! * dependency annotations ride on the lowered access 1:1;
//! * registers and thread indices are preserved, so source and lowered
//!   outcomes are directly comparable — the invariant the whole
//!   trisection oracle rests on;
//! * the lowered program still validates (no dangling dependencies, no
//!   empty thread lists).

use ise_consistency::program::{Loc, Statement, StmtOp};
use ise_consistency::source::{MemOrder, SrcOp, SrcProgram, SrcStmt};
use ise_consistency::{buggy_table, correct_table, lower, MappingBug, MappingTable};
use ise_types::instr::Reg;
use ise_types::model::ConsistencyModel;
use quickprop::Gen;

/// A random well-formed source program (valid orders, deps only on
/// registers produced earlier in the same thread).
fn arb_src_program(g: &mut Gen) -> SrcProgram {
    let n_threads = g.range_usize(1, 4);
    let threads: Vec<Vec<SrcStmt>> = (0..n_threads)
        .map(|_| {
            let n_stmts = g.range_usize(1, 5);
            let mut produced: Vec<Reg> = Vec::new();
            let mut next_reg = 0u8;
            (0..n_stmts)
                .map(|_| {
                    let loc = Loc(g.range_u64(0, 3) as u8);
                    let mut stmt = match g.range_u64(0, 10) {
                        0..=3 => SrcStmt::store(
                            loc,
                            g.range_u64(1, 4),
                            *g.choose(&[MemOrder::Relaxed, MemOrder::Release, MemOrder::SeqCst]),
                        ),
                        4..=7 => {
                            let dst = Reg(next_reg);
                            next_reg += 1;
                            SrcStmt::load(
                                loc,
                                dst,
                                *g.choose(&[
                                    MemOrder::Relaxed,
                                    MemOrder::Acquire,
                                    MemOrder::SeqCst,
                                ]),
                            )
                        }
                        _ => SrcStmt::fence(*g.choose(&[
                            MemOrder::Acquire,
                            MemOrder::Release,
                            MemOrder::SeqCst,
                        ])),
                    };
                    if !produced.is_empty()
                        && !matches!(stmt.op, SrcOp::Fence { .. })
                        && g.range_u64(0, 5) == 0
                    {
                        stmt = stmt.depending_on(*g.choose(&produced));
                    }
                    if let Some(dst) = stmt.produced() {
                        produced.push(dst);
                    }
                    stmt
                })
                .collect()
        })
        .collect();
    SrcProgram::new(threads)
}

/// Every table a campaign can lower through.
fn all_tables() -> Vec<MappingTable> {
    let mut tables = Vec::new();
    for model in ConsistencyModel::ALL {
        tables.push(correct_table(model));
        for bug in MappingBug::ALL {
            tables.push(buggy_table(model, bug));
        }
    }
    tables
}

/// The access skeleton of a source thread: fences stripped, each access
/// as (is_store, loc, value-or-dst, dep).
fn src_skeleton(stmts: &[SrcStmt]) -> Vec<(bool, Loc, u64, Option<Reg>)> {
    stmts
        .iter()
        .filter_map(|s| match s.op {
            SrcOp::Store { loc, value, .. } => Some((true, loc, value, s.dep)),
            SrcOp::Load { loc, dst, .. } => Some((false, loc, u64::from(dst.0), s.dep)),
            SrcOp::Fence { .. } => None,
        })
        .collect()
}

#[test]
fn every_lowering_preserves_access_order_and_dependencies() {
    quickprop::check(256, |g| {
        let prog = arb_src_program(g);
        for table in all_tables() {
            let lowered = lower(&prog, &table);
            assert_eq!(
                lowered.threads.len(),
                prog.threads.len(),
                "{}: thread count changed",
                table.model
            );
            for (src_thread, low_thread) in prog.threads.iter().zip(&lowered.threads) {
                let got: Vec<(bool, Loc, u64, Option<Reg>)> = low_thread
                    .iter()
                    .filter_map(|s| match s.op {
                        StmtOp::Write { loc, value } => Some((true, loc, value, s.dep)),
                        StmtOp::Read { loc, dst } => Some((false, loc, u64::from(dst.0), s.dep)),
                        StmtOp::Fence(_) => None,
                        StmtOp::Amo { .. } => panic!("lowering never emits atomics"),
                    })
                    .collect();
                assert_eq!(
                    got,
                    src_skeleton(src_thread),
                    "{}: access skeleton changed",
                    table.model
                );
            }
        }
    });
}

#[test]
fn every_lowering_keeps_fences_adjacent_to_their_access() {
    // A table entry's fences must sit immediately before/after the
    // access they annotate — no other access may slip between an access
    // and its own fences.
    quickprop::check(128, |g| {
        let prog = arb_src_program(g);
        for table in all_tables() {
            let lowered = lower(&prog, &table);
            for (src_thread, low_thread) in prog.threads.iter().zip(&lowered.threads) {
                // Concatenate what the table says each statement should
                // become — the table is data, so it *is* the spec.
                let mut expect: Vec<String> = Vec::new();
                for s in src_thread {
                    match s.op {
                        SrcOp::Store { loc, value, order } => {
                            let m = &table.stores[&order];
                            expect.extend(m.pre.iter().map(|k| format!("{:?}", StmtOp::Fence(*k))));
                            expect.push(format!("{:?}", StmtOp::Write { loc, value }));
                            expect
                                .extend(m.post.iter().map(|k| format!("{:?}", StmtOp::Fence(*k))));
                        }
                        SrcOp::Load { loc, dst, order } => {
                            let m = &table.loads[&order];
                            expect.extend(m.pre.iter().map(|k| format!("{:?}", StmtOp::Fence(*k))));
                            expect.push(format!("{:?}", StmtOp::Read { loc, dst }));
                            expect
                                .extend(m.post.iter().map(|k| format!("{:?}", StmtOp::Fence(*k))));
                        }
                        SrcOp::Fence { order } => expect.extend(
                            table.fences[&order]
                                .iter()
                                .map(|k| format!("{:?}", StmtOp::Fence(*k))),
                        ),
                    }
                }
                // A thread whose every statement erases lowers to the
                // non-empty-thread placeholder fence.
                if expect.is_empty() {
                    expect.push(format!(
                        "{:?}",
                        StmtOp::Fence(ise_types::instr::FenceKind::Full)
                    ));
                }
                let got: Vec<String> = low_thread.iter().map(|st| format!("{:?}", st.op)).collect();
                assert_eq!(got, expect, "{}: fence placement drifted", table.model);
            }
        }
    });
}

#[test]
fn sc_lowering_is_fence_free_and_wc_seq_cst_is_fully_fenced() {
    quickprop::check(64, |g| {
        let prog = arb_src_program(g);
        let sc = lower(&prog, &correct_table(ConsistencyModel::Sc));
        let mem_ops = prog
            .threads
            .iter()
            .flatten()
            .filter(|s| !matches!(s.op, SrcOp::Fence { .. }))
            .count();
        let sc_stmts: Vec<_> = sc.threads.iter().flatten().collect();
        // SC hardware needs no fences: everything beyond the empty-thread
        // placeholder is a bare access.
        assert_eq!(
            sc_stmts
                .iter()
                .filter(|s| !matches!(s.op, StmtOp::Fence(_)))
                .count(),
            mem_ops
        );
        // Under WC every seq_cst access is fenced on both sides.
        let wc = lower(&prog, &correct_table(ConsistencyModel::Wc));
        for (src_thread, low_thread) in prog.threads.iter().zip(&wc.threads) {
            let mut cursor = 0usize;
            for s in src_thread {
                match s.op {
                    SrcOp::Store { order, .. } | SrcOp::Load { order, .. }
                        if order == MemOrder::SeqCst =>
                    {
                        // Find the access for this statement.
                        while !matches!(
                            low_thread[cursor].op,
                            StmtOp::Write { .. } | StmtOp::Read { .. }
                        ) {
                            cursor += 1;
                        }
                        assert!(
                            matches!(low_thread[cursor - 1].op, StmtOp::Fence(_)),
                            "seq_cst access without leading fence"
                        );
                        assert!(
                            matches!(low_thread[cursor + 1].op, StmtOp::Fence(_)),
                            "seq_cst access without trailing fence"
                        );
                        cursor += 1;
                    }
                    SrcOp::Fence { .. } => {}
                    _ => {
                        while !matches!(
                            low_thread[cursor].op,
                            StmtOp::Write { .. } | StmtOp::Read { .. }
                        ) {
                            cursor += 1;
                        }
                        cursor += 1;
                    }
                }
            }
        }
    });
}
