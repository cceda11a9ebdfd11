//! Litmus programs: the input language of the checker and the operational
//! machine.

use ise_types::instr::{FenceKind, Reg};
use std::collections::BTreeMap;
use std::fmt;

/// A symbolic memory location (litmus tests use a handful: A, B, C...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Loc(pub u8);

impl Loc {
    /// The number of distinct locations the litmus toolchain supports
    /// end to end: the parser rejects names past `A..H`, the fuzz
    /// generator stays inside the bound, and the sim bridge maps each
    /// location to its own EInject page. Eight is far more than any
    /// litmus shape needs while keeping exhaustive exploration and
    /// axiom enumeration tractable.
    pub const LIMIT: u8 = 8;

    /// Conventional names for the first few locations.
    pub fn name(self) -> String {
        if self.0 < 26 {
            ((b'A' + self.0) as char).to_string()
        } else {
            format!("x{}", self.0)
        }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One statement's operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StmtOp {
    /// Store `value` to `loc`.
    Write {
        /// Target location.
        loc: Loc,
        /// Stored value (give each write a distinct nonzero value).
        value: u64,
    },
    /// Load `loc` into `dst`.
    Read {
        /// Source location.
        loc: Loc,
        /// Destination register.
        dst: Reg,
    },
    /// Memory fence.
    Fence(FenceKind),
    /// Atomic fetch-add: loads the old value into `dst` and stores
    /// `old + add`. Fully ordered (RVWMO `aq`+`rl` semantics).
    Amo {
        /// Target location.
        loc: Loc,
        /// Addend.
        add: u64,
        /// Destination register for the old value.
        dst: Reg,
    },
}

/// One statement: an operation plus an optional dependency on an earlier
/// load's destination register (models RVWMO's address/data/control
/// dependencies — the "Dependencies" family of Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stmt {
    /// The operation.
    pub op: StmtOp,
    /// If `Some(r)`, this statement is dependency-ordered after the load
    /// producing `r`.
    pub dep: Option<Reg>,
}

impl Stmt {
    /// A store.
    pub fn write(loc: Loc, value: u64) -> Self {
        Stmt {
            op: StmtOp::Write { loc, value },
            dep: None,
        }
    }

    /// A load.
    pub fn read(loc: Loc, dst: Reg) -> Self {
        Stmt {
            op: StmtOp::Read { loc, dst },
            dep: None,
        }
    }

    /// A fence.
    pub fn fence(kind: FenceKind) -> Self {
        Stmt {
            op: StmtOp::Fence(kind),
            dep: None,
        }
    }

    /// An atomic fetch-add.
    pub fn amo(loc: Loc, add: u64, dst: Reg) -> Self {
        Stmt {
            op: StmtOp::Amo { loc, add, dst },
            dep: None,
        }
    }

    /// Marks this statement dependent on register `r`.
    pub fn depending_on(mut self, r: Reg) -> Self {
        self.dep = Some(r);
        self
    }
}

/// What dialect-neutral code (the litmus text skeleton, the fuzz
/// shrinker) needs from a statement of either program form: [`Stmt`]
/// here, [`SrcStmt`](crate::source::SrcStmt) at the source level.
pub trait Statement: Copy {
    /// The register this statement is dependency-ordered after, if any.
    fn dep(&self) -> Option<Reg>;
    /// This statement with its dependency set to `dep`.
    fn with_dep(self, dep: Option<Reg>) -> Self;
    /// The register this statement produces, if any.
    fn produced(&self) -> Option<Reg>;
    /// The location this statement accesses (`None` for a fence).
    fn loc(&self) -> Option<Loc>;
}

impl Statement for Stmt {
    fn dep(&self) -> Option<Reg> {
        self.dep
    }

    fn with_dep(mut self, dep: Option<Reg>) -> Self {
        self.dep = dep;
        self
    }

    fn produced(&self) -> Option<Reg> {
        match self.op {
            StmtOp::Read { dst, .. } | StmtOp::Amo { dst, .. } => Some(dst),
            _ => None,
        }
    }

    fn loc(&self) -> Option<Loc> {
        match self.op {
            StmtOp::Write { loc, .. } | StmtOp::Read { loc, .. } | StmtOp::Amo { loc, .. } => {
                Some(loc)
            }
            StmtOp::Fence(_) => None,
        }
    }
}

/// The first statement of one thread (its index and register) whose
/// dependency names a register no earlier statement produced.
pub fn dangling_dep<S: Statement>(stmts: &[S]) -> Option<(usize, Reg)> {
    let mut produced = Vec::new();
    for (i, s) in stmts.iter().enumerate() {
        if let Some(r) = s.dep().filter(|r| !produced.contains(r)) {
            return Some((i, r));
        }
        produced.extend(s.produced());
    }
    None
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            StmtOp::Write { loc, value } => write!(f, "W {loc}={value}")?,
            StmtOp::Read { loc, dst } => write!(f, "R {dst}<-{loc}")?,
            StmtOp::Fence(k) => write!(f, "{k}")?,
            StmtOp::Amo { loc, add, dst } => write!(f, "AMO {dst}<-{loc}+={add}")?,
        }
        if let Some(r) = self.dep {
            write!(f, " [dep {r}]")?;
        }
        Ok(())
    }
}

/// A multi-threaded program over statements of type `S`; memory is
/// zero-initialized. [`LitmusProgram`] is the hardware form and
/// [`SrcProgram`](crate::source::SrcProgram) the source form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program<S> {
    /// One statement list per thread.
    pub threads: Vec<Vec<S>>,
}

/// A multi-threaded litmus program. Memory is zero-initialized.
pub type LitmusProgram = Program<Stmt>;

impl LitmusProgram {
    /// Builds a program from per-thread statement lists.
    ///
    /// # Panics
    ///
    /// Panics if there are no threads, or a dependency references a
    /// register not produced by an earlier load on the same thread.
    pub fn new(threads: Vec<Vec<Stmt>>) -> Self {
        assert!(!threads.is_empty(), "program needs at least one thread");
        for (t, stmts) in threads.iter().enumerate() {
            if let Some((i, r)) = dangling_dep(stmts) {
                panic!("thread {t} stmt {i}: dependency on {r} not produced earlier");
            }
        }
        LitmusProgram { threads }
    }
}

impl<S: Statement> Program<S> {
    /// All locations the program touches, ascending.
    pub fn locations(&self) -> Vec<Loc> {
        let mut locs: Vec<Loc> = self.threads.iter().flatten().filter_map(S::loc).collect();
        locs.sort_unstable();
        locs.dedup();
        locs
    }

    /// Total statements across threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Whether the program has no statements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A final outcome: the value each load-producing register ended with,
/// keyed by `(thread, register)`.
pub type Outcome = BTreeMap<(usize, Reg), u64>;

/// Formats an outcome compactly (`0:r0=1 1:r1=0`).
pub fn format_outcome(o: &Outcome) -> String {
    o.iter()
        .map(|((t, r), v)| format!("{t}:{r}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Loc {
        Loc(0)
    }
    fn b() -> Loc {
        Loc(1)
    }

    #[test]
    fn locations_deduped_and_sorted() {
        let p = LitmusProgram::new(vec![
            vec![Stmt::write(b(), 1), Stmt::write(a(), 1)],
            vec![Stmt::read(a(), Reg(0)), Stmt::read(b(), Reg(1))],
        ]);
        assert_eq!(p.locations(), vec![a(), b()]);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn dependency_validation_accepts_well_formed() {
        let p = LitmusProgram::new(vec![vec![
            Stmt::read(a(), Reg(0)),
            Stmt::write(b(), 1).depending_on(Reg(0)),
        ]]);
        assert_eq!(p.threads[0][1].dep, Some(Reg(0)));
    }

    #[test]
    #[should_panic(expected = "not produced earlier")]
    fn dangling_dependency_rejected() {
        LitmusProgram::new(vec![vec![Stmt::write(b(), 1).depending_on(Reg(0))]]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_program_rejected() {
        LitmusProgram::new(vec![]);
    }

    #[test]
    fn display_reads_like_litmus() {
        assert_eq!(Stmt::write(a(), 1).to_string(), "W A=1");
        assert_eq!(Stmt::read(b(), Reg(2)).to_string(), "R r2<-B");
        assert_eq!(
            Stmt::write(a(), 1).depending_on(Reg(0)).to_string(),
            "W A=1 [dep r0]"
        );
    }

    #[test]
    fn loc_names() {
        assert_eq!(Loc(0).name(), "A");
        assert_eq!(Loc(25).name(), "Z");
        assert_eq!(Loc(30).name(), "x30");
    }
}
