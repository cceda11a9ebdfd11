//! Batched axiomatic checking with allowed-set memoization.
//!
//! Enumerating a program's allowed outcomes is the expensive half of a
//! differential check (candidate executions grow with the product of
//! reads-from choices and per-location coherence orders). The fuzzing
//! harness asks for the same program's envelope repeatedly — once when
//! the case runs, then once per shrinking attempt, most of which mutate
//! a program the shrinker has already tried — so [`BatchChecker`] caches
//! the enumeration keyed by `(program, model)` and exposes the
//! subset-check the litmus runner uses as its pass criterion.

use crate::axiom::allowed_outcomes;
use crate::program::{LitmusProgram, Outcome};
use crate::source::{allowed_src_outcomes, SrcProgram};
use ise_types::model::ConsistencyModel;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::rc::Rc;

/// Allowed-outcome sets memoized by key `K`, with hit and miss counts.
/// [`BatchChecker`] and [`SrcBatchChecker`] differ only in the key and
/// in which enumerator fills a miss.
#[derive(Debug)]
pub struct OutcomeMemo<K> {
    cache: HashMap<K, Rc<BTreeSet<Outcome>>>,
    hits: u64,
    misses: u64,
}

/// A memoizing front-end over [`allowed_outcomes`], keyed by
/// `(program, model)`.
pub type BatchChecker = OutcomeMemo<(LitmusProgram, ConsistencyModel)>;

/// A memoizing front-end over [`allowed_src_outcomes`] — the
/// language-level twin of [`BatchChecker`], used by the trisection
/// harness (the source program is the whole key: the language has no
/// model parameter).
pub type SrcBatchChecker = OutcomeMemo<SrcProgram>;

impl<K> Default for OutcomeMemo<K> {
    fn default() -> Self {
        OutcomeMemo {
            cache: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }
}

impl<K: Eq + Hash> OutcomeMemo<K> {
    /// An empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set stored under `key`, running `enumerate` on a miss.
    fn memo(
        &mut self,
        key: K,
        enumerate: impl FnOnce() -> BTreeSet<Outcome>,
    ) -> Rc<BTreeSet<Outcome>> {
        match self.cache.entry(key) {
            Entry::Occupied(e) => {
                self.hits += 1;
                Rc::clone(e.get())
            }
            Entry::Vacant(e) => {
                self.misses += 1;
                Rc::clone(e.insert(Rc::new(enumerate())))
            }
        }
    }

    /// Cache hits so far (repeat queries answered without enumeration).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far (enumerations actually performed).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl BatchChecker {
    /// The allowed-outcome set for `(prog, model)`, enumerated at most
    /// once per checker.
    pub fn allowed(
        &mut self,
        prog: &LitmusProgram,
        model: ConsistencyModel,
    ) -> Rc<BTreeSet<Outcome>> {
        self.memo((prog.clone(), model), || allowed_outcomes(prog, model))
    }

    /// The outcomes in `observed` the model forbids (empty exactly when
    /// `observed ⊆ allowed` — the litmus pass criterion).
    pub fn violations(
        &mut self,
        prog: &LitmusProgram,
        model: ConsistencyModel,
        observed: &BTreeSet<Outcome>,
    ) -> Vec<Outcome> {
        let allowed = self.allowed(prog, model);
        observed.difference(&allowed).cloned().collect()
    }
}

impl SrcBatchChecker {
    /// The language-allowed outcome set for `prog`, enumerated at most
    /// once per checker.
    pub fn allowed(&mut self, prog: &SrcProgram) -> Rc<BTreeSet<Outcome>> {
        self.memo(prog.clone(), || allowed_src_outcomes(prog))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Loc, Stmt};
    use crate::source::{MemOrder, SrcStmt};
    use ise_types::instr::Reg;

    fn sb() -> LitmusProgram {
        LitmusProgram::new(vec![
            vec![Stmt::write(Loc(0), 1), Stmt::read(Loc(1), Reg(0))],
            vec![Stmt::write(Loc(1), 1), Stmt::read(Loc(0), Reg(1))],
        ])
    }

    #[test]
    fn cached_set_matches_direct_enumeration() {
        let mut b = BatchChecker::new();
        for model in ConsistencyModel::ALL {
            let cached = b.allowed(&sb(), model);
            assert_eq!(*cached, allowed_outcomes(&sb(), model));
        }
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let mut b = BatchChecker::new();
        let first = b.allowed(&sb(), ConsistencyModel::Pc);
        let second = b.allowed(&sb(), ConsistencyModel::Pc);
        assert_eq!(first, second);
        assert_eq!(b.misses(), 1);
        assert_eq!(b.hits(), 1);
        // A different model is a different key.
        let _ = b.allowed(&sb(), ConsistencyModel::Wc);
        assert_eq!(b.misses(), 2);
    }

    #[test]
    fn src_checker_caches_by_program() {
        let mp = SrcProgram::new(vec![
            vec![SrcStmt::store(Loc(0), 1, MemOrder::Release)],
            vec![SrcStmt::load(Loc(0), Reg(0), MemOrder::Acquire)],
        ]);
        let mut b = SrcBatchChecker::new();
        let first = b.allowed(&mp);
        let second = b.allowed(&mp);
        assert_eq!(first, second);
        assert_eq!(b.misses(), 1);
        assert_eq!(b.hits(), 1);
        assert_eq!(*first, allowed_src_outcomes(&mp));
    }

    #[test]
    fn violations_empty_iff_subset() {
        let mut b = BatchChecker::new();
        let allowed = b.allowed(&sb(), ConsistencyModel::Wc);
        let observed: BTreeSet<Outcome> = allowed.iter().take(2).cloned().collect();
        assert!(b
            .violations(&sb(), ConsistencyModel::Wc, &observed)
            .is_empty());
        let mut bogus = Outcome::new();
        bogus.insert((0, Reg(0)), 99);
        let observed: BTreeSet<Outcome> = [bogus.clone()].into_iter().collect();
        assert_eq!(
            b.violations(&sb(), ConsistencyModel::Wc, &observed),
            vec![bogus]
        );
    }
}
