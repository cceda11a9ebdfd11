//! Delta-debugging findings down to minimal reproducers.
//!
//! A raw finding points at whatever program the generator happened to
//! emit; before it is worth a human's attention (or a slot in the
//! regression corpus) it is shrunk: repeatedly try a simplification,
//! keep it if the *same kind* of finding still reproduces, restart the
//! scan from the most aggressive simplification whenever one lands.
//! The passes, most to least aggressive:
//!
//! 1. remove a whole thread;
//! 2. remove one statement;
//! 3. drop a dependency annotation;
//! 4. the dialect's own statement passes ([`Dialect::PASSES`]): here,
//!    rewrite a stored value / AMO addend to 1; at the source level,
//!    weaken a memory order, then rewrite a stored value to 1;
//! 5. un-fault one location;
//! 6. turn the transient overlay off.
//!
//! Structural edits can orphan things, so every candidate is
//! re-normalized: dependencies on registers no longer produced earlier
//! in their thread are cleared, faulting locations the program no
//! longer touches are dropped, and the overlay flag is cleared when
//! nothing faults. Progress is monotone (every accepted step strictly
//! shrinks a finite measure), and a global attempt bound caps the cost
//! of re-running the oracles.
//!
//! One loop ([`shrink_while`]) serves both dialects: hardware fuzz cases
//! and trisection source cases differ only in what [`Dialect`] says.

use crate::campaign::CampaignFinding;
use crate::gen::FuzzCase;
use ise_consistency::program::{Loc, Program, Statement, Stmt, StmtOp};
use std::fmt::Debug;

/// Upper bound on oracle re-runs during one shrink.
const MAX_ATTEMPTS: usize = 10_000;

/// One per-statement simplification: a simpler statement, or `None`
/// when the pass does not apply.
pub type Pass<S> = fn(&S) -> Option<S>;

/// A fuzz case as the shared campaign loop, shrinker, finding pipeline
/// and reproducer writer see it. [`FuzzCase`] and
/// [`TrisectCase`](crate::src_gen::TrisectCase) implement it; they differ
/// in generator, oracles, statement type, extra shrink passes, finding
/// kinds and reproducer format.
pub trait Dialect: Clone + Send + Sync {
    /// The program's statement type.
    type Stmt: Statement + 'static;
    /// The dialect's finding kinds.
    type Kind: Copy + Ord + Debug + Send;
    /// The generator's program-shape limits.
    type Gen;
    /// Oracle selection.
    type Oracle: Sync;
    /// Per-case checker counters the dialect's campaign report sums.
    type Tally: Clone + Send;
    /// Per-statement simplifications tried after dropping dependencies,
    /// one pass over every statement each, in order.
    const PASSES: &'static [Pass<Self::Stmt>];
    /// Reproducer file extension, also the registry key of a rendered
    /// reproducer.
    const EXT: &'static str;
    /// The program, the faulting locations and the transient-overlay
    /// flag.
    fn parts(&mut self) -> (&mut Program<Self::Stmt>, &mut Vec<Loc>, &mut bool);
    /// The stable name of a finding kind (telemetry key, file name).
    fn kind_name(kind: Self::Kind) -> &'static str;
    /// Renders a finding as reproducer text.
    fn render(finding: &CampaignFinding<Self>) -> String;
    /// Generates the case for one per-case seed.
    fn generate(seed: u64, gen: &Self::Gen) -> Self;
    /// Everything the oracles observe of the case: the campaign loop
    /// evaluates equal contents once.
    fn content(&self) -> String;
    /// Checks the case and files its findings as campaign case `index`
    /// with per-case `seed`, returning them with the checker counters.
    fn evaluate(
        &self,
        index: usize,
        seed: u64,
        oracle: &Self::Oracle,
        shrink: bool,
    ) -> (Self::Tally, Vec<CampaignFinding<Self>>);
}

/// A shrunk reproducer.
#[derive(Debug, Clone)]
pub struct ShrinkResult<C = FuzzCase> {
    /// The minimal case that still reproduces the finding kind.
    pub case: C,
    /// Accepted simplification steps.
    pub steps: usize,
    /// Oracle re-runs spent.
    pub attempts: usize,
}

/// Drops orphaned dependencies, faulting entries for untouched
/// locations, and the overlay flag of a fault-free case.
fn normalize<C: Dialect>(mut case: C) -> C {
    let (program, faulting, overlay) = case.parts();
    for thread in &mut program.threads {
        let mut produced = Vec::new();
        for stmt in thread.iter_mut() {
            if stmt.dep().is_some_and(|r| !produced.contains(&r)) {
                *stmt = stmt.with_dep(None);
            }
            produced.extend(stmt.produced());
        }
    }
    let locs = program.locations();
    faulting.retain(|l| locs.contains(l));
    if faulting.is_empty() {
        *overlay = false;
    }
    case
}

/// A copy of `case` with `f` applied.
fn edited<C: Clone>(case: &C, f: impl FnOnce(&mut C)) -> C {
    let mut c = case.clone();
    f(&mut c);
    c
}

/// Every one-step simplification of `case`, most aggressive first.
fn candidates<C: Dialect>(case: &C) -> Vec<C> {
    let mut base = case.clone();
    let (program, faulting, overlay) = base.parts();
    let threads = &program.threads;
    let mut out = Vec::new();
    if threads.len() > 1 {
        for t in 0..threads.len() {
            out.push(edited(case, |c| {
                c.parts().0.threads.remove(t);
            }));
        }
    }
    for t in 0..threads.len() {
        if threads[t].len() <= 1 && threads.len() == 1 {
            continue; // a program needs at least one statement
        }
        for i in 0..threads[t].len() {
            out.push(edited(case, |c| {
                let threads = &mut c.parts().0.threads;
                threads[t].remove(i);
                if threads[t].is_empty() {
                    threads.remove(t);
                }
            }));
        }
    }
    let drop_dep: Pass<C::Stmt> = |s| s.dep().map(|_| s.with_dep(None));
    for pass in std::iter::once(&drop_dep).chain(C::PASSES) {
        for (t, thread) in threads.iter().enumerate() {
            for (i, stmt) in thread.iter().enumerate() {
                if let Some(simpler) = pass(stmt) {
                    out.push(edited(case, |c| c.parts().0.threads[t][i] = simpler));
                }
            }
        }
    }
    for f in 0..faulting.len() {
        out.push(edited(case, |c| {
            c.parts().1.remove(f);
        }));
    }
    if *overlay {
        out.push(edited(case, |c| *c.parts().2 = false));
    }
    out.into_iter().map(normalize).collect()
}

/// Shrinks `case` while `reproduces` holds.
///
/// Greedy with restarts: the first accepted candidate restarts the scan
/// from the top (thread removal), so late cheap passes never block
/// early aggressive ones.
pub fn shrink_while<C: Dialect>(
    case: &C,
    mut reproduces: impl FnMut(&C) -> bool,
) -> ShrinkResult<C> {
    let mut current = normalize(case.clone());
    debug_assert!(
        reproduces(&current),
        "finding must reproduce before shrinking"
    );
    let mut steps = 0;
    let mut attempts = 0;
    'outer: loop {
        for cand in candidates(&current) {
            if attempts >= MAX_ATTEMPTS {
                break 'outer;
            }
            attempts += 1;
            if reproduces(&cand) {
                current = cand;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    ShrinkResult {
        case: current,
        steps,
        attempts,
    }
}

/// Rewrites a stored value or AMO addend to 1 — the hardware dialect's
/// one statement pass.
pub(crate) fn unit_value(s: &Stmt) -> Option<Stmt> {
    match s.op {
        StmtOp::Write { loc, value } if value != 1 => Some(Stmt::write(loc, 1).with_dep(s.dep)),
        StmtOp::Amo { loc, add, dst } if add != 1 => Some(Stmt::amo(loc, 1, dst).with_dep(s.dep)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use crate::oracle::{check_case, FindingKind, OracleConfig};
    use ise_consistency::program::LitmusProgram;
    use ise_consistency::BatchChecker;
    use ise_litmus::machine::SeededBug;
    use ise_types::instr::Reg;

    #[test]
    fn normalize_clears_orphans() {
        let mut case = generate(0, &GenConfig::default());
        // Fabricate an orphan dep and a stale faulting entry.
        case.program.threads[0][0].dep = Some(Reg(200));
        case.faulting = vec![ise_consistency::program::Loc(7)];
        case.overlay = true;
        let n = normalize(case);
        assert!(n.program.threads[0][0].dep.is_none());
        assert!(n.faulting.is_empty());
        assert!(!n.overlay);
        // The result is still a valid program.
        let _ = LitmusProgram::new(n.program.threads.clone());
    }

    #[test]
    fn candidates_strictly_simplify() {
        for seed in 0..40 {
            let case = generate(seed, &GenConfig::default());
            for cand in candidates(&case) {
                let _ = LitmusProgram::new(cand.program.threads.clone());
                let measure = |c: &FuzzCase| {
                    c.program.len() * 100
                        + c.program
                            .threads
                            .iter()
                            .flatten()
                            .filter(|s| s.dep.is_some())
                            .count()
                            * 10
                        + c.faulting.len() * 2
                        + usize::from(c.overlay)
                        + c.program
                            .threads
                            .iter()
                            .flatten()
                            .map(|s| match s.op {
                                StmtOp::Write { value, .. } => value as usize,
                                StmtOp::Amo { add, .. } => add as usize,
                                _ => 0,
                            })
                            .sum::<usize>()
                };
                assert!(
                    measure(&cand) < measure(&case),
                    "seed {seed}: candidate did not shrink"
                );
            }
        }
    }

    #[test]
    fn a_seeded_bug_finding_shrinks_to_a_tiny_reproducer() {
        let gen_cfg = GenConfig::default();
        let oracle = OracleConfig {
            seeded_bug: Some(SeededBug::PcDrainReorder),
            run_sim: false,
            ..OracleConfig::default()
        };
        let mut batch = BatchChecker::new();
        let seed = (0..300)
            .find(|&s| {
                let c = generate(s, &gen_cfg);
                check_case(&c, &oracle, &mut batch)
                    .iter()
                    .any(|f| f.kind == FindingKind::AxiomViolation)
            })
            .expect("no seed exposes the bug");
        let case = generate(seed, &gen_cfg);
        let shrunk = shrink_while(&case, |c| {
            check_case(c, &oracle, &mut batch)
                .iter()
                .any(|f| f.kind == FindingKind::AxiomViolation)
        });
        // The PC drain-reorder bug is a two-thread, message-passing-shaped
        // race: the minimal reproducer is small.
        assert!(
            shrunk.case.program.threads.len() <= 2,
            "still {} threads",
            shrunk.case.program.threads.len()
        );
        assert!(
            shrunk.case.program.len() <= 6,
            "still {} statements",
            shrunk.case.program.len()
        );
        // And it still reproduces.
        assert!(check_case(&shrunk.case, &oracle, &mut batch)
            .iter()
            .any(|f| f.kind == FindingKind::AxiomViolation));
    }
}
