//! Trace recording: algorithms call these helpers as they execute.

use ise_types::addr::Addr;
use ise_types::instr::{FenceKind, Reg};
use ise_types::Instruction;

/// Accumulates the instruction trace of an executing algorithm.
///
/// Array elements are 8 bytes; `load_elem(base, i)` records a load of
/// `base + 8 i`. Non-memory work between accesses is recorded as ALU
/// instructions so traces carry realistic instruction mixes.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    trace: Vec<Instruction>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded trace, frozen into shareable form.
    pub fn into_trace(self) -> crate::Trace {
        self.trace.into()
    }

    /// Instructions recorded so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Records a load of element `i` of the array at `base`.
    pub fn load_elem(&mut self, base: Addr, i: u64) {
        self.trace
            .push(Instruction::load(base.offset(i * 8), Reg(0)));
    }

    /// Records a store of `value` to element `i` of the array at `base`.
    pub fn store_elem(&mut self, base: Addr, i: u64, value: u64) {
        self.trace
            .push(Instruction::store(base.offset(i * 8), value));
    }

    /// Records an atomic fetch-add on element `i` of the array at `base`.
    pub fn atomic_elem(&mut self, base: Addr, i: u64, add: u64) {
        self.trace
            .push(Instruction::atomic(base.offset(i * 8), add, Reg(0)));
    }

    /// Records `n` single-cycle ALU instructions.
    pub fn alu(&mut self, n: usize) {
        for _ in 0..n {
            self.trace.push(Instruction::other());
        }
    }

    /// Records a full fence.
    pub fn fence(&mut self) {
        self.trace.push(Instruction::fence(FenceKind::Full));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::instr::InstrKind;

    #[test]
    fn records_expected_addresses() {
        let mut r = TraceRecorder::new();
        let base = Addr::new(0x1000);
        r.load_elem(base, 3);
        r.store_elem(base, 4, 9);
        r.alu(2);
        r.fence();
        let t = r.into_trace();
        assert_eq!(t.len(), 5);
        assert_eq!(t[0].kind.addr(), Some(Addr::new(0x1018)));
        assert_eq!(t[1].kind.addr(), Some(Addr::new(0x1020)));
        assert!(matches!(t[2].kind, InstrKind::Other { .. }));
        assert!(matches!(t[4].kind, InstrKind::Fence(_)));
    }

    #[test]
    fn atomic_records_amo() {
        let mut r = TraceRecorder::new();
        r.atomic_elem(Addr::new(0), 1, 5);
        let t = r.into_trace();
        assert!(matches!(t[0].kind, InstrKind::Atomic { add: 5, .. }));
    }
}
