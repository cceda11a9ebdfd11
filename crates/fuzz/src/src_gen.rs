//! Seeded random *source-program* generation for the trisection
//! campaign.
//!
//! The hardware generator ([`gen`](crate::gen)) emits litmus primitives
//! directly; this one emits C11-like [`SrcProgram`]s that only reach the
//! hardware through a [`MappingTable`](ise_consistency::MappingTable).
//! The shape caps are tighter than [`GenConfig`](crate::gen::GenConfig)'s
//! because lowering inflates programs — a WC `seq_cst` access becomes
//! three hardware statements — and both the axiomatic checker and the
//! operational machine are exponential in the *lowered* size.
//!
//! The distributions are deliberately skewed toward where mapping bugs
//! live: WC is the most-picked hardware model (its table is the only one
//! with per-access fences), and release/acquire annotations are drawn
//! often enough that message-passing shapes — the witness for both
//! seeded table mutations — arise within a few dozen seeds.

use ise_consistency::program::{Loc, Statement};
use ise_consistency::source::{MemOrder, SrcProgram, SrcStmt};
use ise_engine::SimRng;
use ise_types::instr::Reg;
use ise_types::model::ConsistencyModel;

/// Shape limits for generated source programs.
#[derive(Debug, Clone, Copy)]
pub struct SrcGenConfig {
    /// Most threads per program.
    pub max_threads: usize,
    /// Most statements per thread.
    pub max_stmts_per_thread: usize,
    /// Most statements across all threads (*source* statements; the
    /// lowered program can be up to 3× larger under WC).
    pub max_total_stmts: usize,
    /// Distinct locations a program may touch (≤ [`Loc::LIMIT`]).
    pub max_locs: u8,
    /// Most stores to any one location (coherence orders are factorial
    /// in this).
    pub max_writes_per_loc: usize,
    /// Largest value a store writes.
    pub max_value: u64,
    /// Probability each touched location starts out faulting in the
    /// machine/sim legs.
    pub fault_prob: f64,
    /// Probability a faulting case uses the transient-overlay fault
    /// source instead of EInject in the sim leg.
    pub overlay_prob: f64,
}

impl Default for SrcGenConfig {
    fn default() -> Self {
        SrcGenConfig {
            max_threads: 3,
            max_stmts_per_thread: 3,
            max_total_stmts: 6,
            max_locs: 2,
            max_writes_per_loc: 2,
            max_value: 2,
            fault_prob: 0.3,
            overlay_prob: 0.15,
        }
    }
}

/// One generated trisection case: a source program plus the hardware
/// model it will be lowered to and the fault environment for the
/// operational/sim legs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrisectCase {
    /// The seed that produced this case (reproduce with
    /// [`generate_src`]`(seed, cfg)`).
    pub seed: u64,
    /// The source program under test.
    pub program: SrcProgram,
    /// Hardware model the program is lowered to.
    pub model: ConsistencyModel,
    /// Locations whose pages start out faulting (sorted, deduped).
    pub faulting: Vec<Loc>,
    /// Whether the sim leg replaces EInject with the transient fault
    /// overlay.
    pub overlay: bool,
}

impl TrisectCase {
    /// The faulting set as the machine wants it.
    pub fn faulting_set(&self) -> std::collections::BTreeSet<Loc> {
        self.faulting.iter().copied().collect()
    }
}

fn store_order(rng: &mut SimRng) -> MemOrder {
    match rng.range(0, 10) {
        0..=3 => MemOrder::Relaxed,
        4..=7 => MemOrder::Release,
        _ => MemOrder::SeqCst,
    }
}

fn load_order(rng: &mut SimRng) -> MemOrder {
    match rng.range(0, 10) {
        0..=3 => MemOrder::Relaxed,
        4..=7 => MemOrder::Acquire,
        _ => MemOrder::SeqCst,
    }
}

fn fence_order(rng: &mut SimRng) -> MemOrder {
    match rng.range(0, 4) {
        0 => MemOrder::Acquire,
        1 => MemOrder::Release,
        _ => MemOrder::SeqCst,
    }
}

/// A two-thread litmus skeleton with randomized memory orders —
/// TriCheck's insight that mapping bugs are witnessed by a handful of
/// classic shapes (message passing above all), so the corpus seeds them
/// directly instead of waiting for the random walk to stumble into one.
fn template_threads(rng: &mut SimRng) -> Vec<Vec<SrcStmt>> {
    let (a, b) = (Loc(0), Loc(1));
    let (r0, r1) = (Reg(0), Reg(1));
    match rng.range(0, 4) {
        // Message passing (×2 weight): the witness shape for every
        // dropped release/acquire fence.
        0 | 1 => {
            let mut consume = SrcStmt::load(b, r1, load_order(rng));
            if rng.chance(0.2) {
                consume = consume.depending_on(r0);
            }
            vec![
                vec![
                    SrcStmt::store(b, 1, store_order(rng)),
                    SrcStmt::store(a, 1, store_order(rng)),
                ],
                vec![SrcStmt::load(a, r0, load_order(rng)), consume],
            ]
        }
        // Store buffering (Dekker): the seq_cst-mapping witness.
        2 => vec![
            vec![
                SrcStmt::store(a, 1, store_order(rng)),
                SrcStmt::load(b, r0, load_order(rng)),
            ],
            vec![
                SrcStmt::store(b, 1, store_order(rng)),
                SrcStmt::load(a, r1, load_order(rng)),
            ],
        ],
        // Load buffering: pins the deliberate absence of a no-thin-air
        // axiom (relaxed LB must stay clean through correct tables).
        _ => vec![
            vec![
                SrcStmt::load(a, r0, load_order(rng)),
                SrcStmt::store(b, 1, store_order(rng)),
            ],
            vec![
                SrcStmt::load(b, r1, load_order(rng)),
                SrcStmt::store(a, 1, store_order(rng)),
            ],
        ],
    }
}

/// Deterministically generates the trisection case for `seed`.
pub fn generate_src(seed: u64, cfg: &SrcGenConfig) -> TrisectCase {
    let mut rng = SimRng::seed_from(seed);
    let max_locs = cfg.max_locs.min(Loc::LIMIT);
    if cfg.max_threads >= 2
        && cfg.max_stmts_per_thread >= 2
        && cfg.max_total_stmts >= 4
        && max_locs >= 2
        && rng.chance(0.35)
    {
        let threads = template_threads(&mut rng);
        return finish_case(seed, SrcProgram::new(threads), &mut rng, cfg);
    }
    // Mapping bugs are cross-thread, cross-location phenomena (the
    // witness for a dropped fence is always a message-passing-style
    // shape), so single-thread and single-location programs — which can
    // only exercise coherence — are kept as a small tail rather than a
    // third/half of the corpus.
    let n_threads = match rng.range(0, 10) {
        0 => 1,
        1..=5 => 2.min(cfg.max_threads),
        _ => cfg.max_threads,
    };
    let n_locs = if rng.chance(0.1) { 1 } else { 2.min(max_locs) };

    let mut writes_per_loc = vec![0usize; n_locs as usize];
    let mut total = 0usize;
    let mut threads: Vec<Vec<SrcStmt>> = Vec::with_capacity(n_threads);
    for _ in 0..n_threads {
        // Every thread gets at least one statement; the global budget is
        // spent left to right.
        let budget = (cfg.max_total_stmts - total).saturating_sub(n_threads - threads.len() - 1);
        let want = rng.range(1, cfg.max_stmts_per_thread as u64 + 1) as usize;
        let n_stmts = want.min(budget).max(1);
        let mut stmts = Vec::with_capacity(n_stmts);
        let mut produced: Vec<Reg> = Vec::new();
        let mut next_reg = 0u8;
        for _ in 0..n_stmts {
            let loc = Loc(rng.range(0, u64::from(n_locs)) as u8);
            let roll = rng.range(0, 100);
            let mut stmt = if roll < 45 && writes_per_loc[loc.0 as usize] < cfg.max_writes_per_loc {
                writes_per_loc[loc.0 as usize] += 1;
                SrcStmt::store(loc, rng.range(1, cfg.max_value + 1), store_order(&mut rng))
            } else if roll < 55 {
                SrcStmt::fence(fence_order(&mut rng))
            } else {
                let dst = Reg(next_reg);
                next_reg += 1;
                SrcStmt::load(loc, dst, load_order(&mut rng))
            };
            // Dependencies survive lowering and constrain the hardware
            // models; fences cannot carry them.
            if !produced.is_empty()
                && !matches!(stmt.op, ise_consistency::source::SrcOp::Fence { .. })
                && rng.chance(0.2)
            {
                stmt = stmt.depending_on(produced[rng.index(produced.len())]);
            }
            if let Some(dst) = stmt.produced() {
                produced.push(dst);
            }
            stmts.push(stmt);
            total += 1;
        }
        threads.push(stmts);
    }
    finish_case(seed, SrcProgram::new(threads), &mut rng, cfg)
}

/// Draws the hardware model and fault environment for a generated
/// program.
fn finish_case(
    seed: u64,
    program: SrcProgram,
    rng: &mut SimRng,
    cfg: &SrcGenConfig,
) -> TrisectCase {
    // Mapping bugs are only *observable* where the table actually emits
    // fences, so WC dominates; SC and PC keep the plain/seq_cst entries
    // honest.
    let model = match rng.range(0, 10) {
        0 => ConsistencyModel::Sc,
        1 | 2 => ConsistencyModel::Pc,
        _ => ConsistencyModel::Wc,
    };
    let faulting: Vec<Loc> = program
        .locations()
        .into_iter()
        .filter(|_| rng.chance(cfg.fault_prob))
        .collect();
    let overlay = !faulting.is_empty() && rng.chance(cfg.overlay_prob);

    TrisectCase {
        seed,
        program,
        model,
        faulting,
        overlay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_consistency::source::SrcOp;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SrcGenConfig::default();
        for seed in 0..50 {
            let a = generate_src(seed, &cfg);
            let b = generate_src(seed, &cfg);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn generated_programs_respect_every_cap() {
        let cfg = SrcGenConfig::default();
        for seed in 0..500 {
            let case = generate_src(seed, &cfg);
            let p = &case.program;
            assert!(p.threads.len() <= cfg.max_threads, "seed {seed}");
            assert!(p.len() <= cfg.max_total_stmts, "seed {seed}");
            assert!(p.threads.iter().all(|t| !t.is_empty()), "seed {seed}");
            assert!(
                p.threads
                    .iter()
                    .all(|t| t.len() <= cfg.max_stmts_per_thread),
                "seed {seed}"
            );
            let locs = p.locations();
            assert!(locs.len() <= cfg.max_locs as usize, "seed {seed}");
            for loc in &locs {
                let writes = p
                    .threads
                    .iter()
                    .flatten()
                    .filter(|s| matches!(s.op, SrcOp::Store { loc: l, .. } if l == *loc))
                    .count();
                assert!(writes <= cfg.max_writes_per_loc, "seed {seed}");
            }
            assert!(
                case.faulting.iter().all(|l| locs.contains(l)),
                "seed {seed}"
            );
            if case.overlay {
                assert!(!case.faulting.is_empty(), "seed {seed}");
            }
        }
    }

    #[test]
    fn the_corpus_covers_every_order_kind_and_knob() {
        let cfg = SrcGenConfig::default();
        let cases: Vec<TrisectCase> = (0..400).map(|s| generate_src(s, &cfg)).collect();
        let stmts: Vec<&SrcStmt> = cases
            .iter()
            .flat_map(|c| c.program.threads.iter().flatten())
            .collect();
        for order in [MemOrder::Relaxed, MemOrder::Release, MemOrder::SeqCst] {
            assert!(
                stmts
                    .iter()
                    .any(|s| matches!(s.op, SrcOp::Store { order: o, .. } if o == order)),
                "no {order} store"
            );
        }
        for order in [MemOrder::Relaxed, MemOrder::Acquire, MemOrder::SeqCst] {
            assert!(
                stmts
                    .iter()
                    .any(|s| matches!(s.op, SrcOp::Load { order: o, .. } if o == order)),
                "no {order} load"
            );
        }
        for order in [MemOrder::Acquire, MemOrder::Release, MemOrder::SeqCst] {
            assert!(
                stmts
                    .iter()
                    .any(|s| matches!(s.op, SrcOp::Fence { order: o } if o == order)),
                "no {order} fence"
            );
        }
        assert!(stmts.iter().any(|s| s.dep.is_some()));
        for model in ConsistencyModel::ALL {
            assert!(cases.iter().any(|c| c.model == model), "{model:?} missing");
        }
        assert!(cases.iter().any(|c| !c.faulting.is_empty()));
        assert!(cases.iter().any(|c| c.faulting.is_empty()));
        assert!(cases.iter().any(|c| c.overlay));
        // WC dominates: the mapping bugs live there.
        let wc = cases
            .iter()
            .filter(|c| c.model == ConsistencyModel::Wc)
            .count();
        assert!(wc > cases.len() / 2, "only {wc}/{} WC cases", cases.len());
    }
}
