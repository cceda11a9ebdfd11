//! A täkō-style near-cache accelerator model (paper §2.2, Example 1).
//!
//! täkō [Schwedock et al., ISCA '22] attaches a software-programmable
//! engine to the L2/LLC slice of each core; user-defined callbacks
//! transform data as it moves through the hierarchy (compress on
//! eviction, decompress on fill, encrypt, scatter/gather...). Because the
//! callbacks run under the virtual-memory abstraction, servicing a plain
//! core load/store can raise a **page fault or a software fault inside
//! the accelerator** — detected only when the memory request reaches it,
//! i.e. post-retirement for stores.
//!
//! [`Tako`] models exactly that failure surface: a configurable set of
//! callback programs, each with a deterministic fault predicate over the
//! accessed page. It implements [`FaultOracle`], so it can guard the
//! LLC↔memory boundary of the timing hierarchy just like
//! [`EInject`](crate::EInject) — but it raises *accelerator* error codes
//! (distinct per callback), which the OS must expose to the user handler
//! rather than consume silently (paper §1: exceptions from accelerators
//! "might have to be exposed to the user").

use ise_mem::FaultOracle;
use ise_types::addr::{Addr, PAGE_SIZE};
use ise_types::exception::{ErrorCode, ExceptionKind};
use ise_types::PageId;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// A software-defined data-transformation callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callback {
    /// Compress on eviction / decompress on fill.
    Compression,
    /// Encrypt on eviction / decrypt on fill.
    Encryption,
    /// Pointer-based gather/scatter.
    Scatter,
}

impl Callback {
    /// The accelerator-specific error code this callback raises
    /// (reported through the FSB entry to the user handler).
    pub fn error_code(self) -> ErrorCode {
        match self {
            Callback::Compression => ErrorCode(0x0100),
            Callback::Encryption => ErrorCode(0x0101),
            Callback::Scatter => ErrorCode(0x0102),
        }
    }
}

/// The accelerator model: a region of memory whose traffic runs through
/// callbacks, with per-page fault state.
#[derive(Debug)]
pub struct Tako {
    region: Range<u64>,
    callback: Callback,
    /// Pages whose callback metadata is not yet resident (first touch
    /// faults, then the OS handler "faults it in").
    cold_pages: RefCell<HashSet<PageId>>,
    /// Pages whose data the callback cannot process (persistent traps
    /// until software repairs them).
    poisoned: RefCell<HashSet<PageId>>,
    faults_raised: RefCell<HashMap<ErrorCode, u64>>,
}

impl Tako {
    /// Attaches the accelerator to `[base, base+bytes)` running
    /// `callback`.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty or not page-aligned.
    pub fn new(base: Addr, bytes: u64, callback: Callback) -> Self {
        assert!(bytes > 0, "tako region must be non-empty");
        assert_eq!(base.page_offset(), 0, "tako region must be page-aligned");
        assert_eq!(bytes % PAGE_SIZE, 0, "tako region must be whole pages");
        Tako {
            region: base.raw()..base.raw() + bytes,
            callback,
            cold_pages: RefCell::new(HashSet::new()),
            poisoned: RefCell::new(HashSet::new()),
            faults_raised: RefCell::new(HashMap::new()),
        }
    }

    /// The configured callback.
    pub fn callback(&self) -> Callback {
        self.callback
    }

    /// Whether `addr` is inside the accelerated region.
    pub fn covers(&self, addr: Addr) -> bool {
        self.region.contains(&addr.raw())
    }

    /// Marks every page's callback metadata non-resident (program start:
    /// dictionaries/tables are demand-loaded).
    pub fn make_all_cold(&self) {
        let mut cold = self.cold_pages.borrow_mut();
        let mut p = self.region.start;
        while p < self.region.end {
            cold.insert(Addr::new(p).page());
            p += PAGE_SIZE;
        }
    }

    /// Marks one page's metadata non-resident.
    pub fn make_cold(&self, addr: Addr) {
        if self.covers(addr) {
            self.cold_pages.borrow_mut().insert(addr.page());
        }
    }

    /// OS/driver: metadata for `addr`'s page is now resident.
    pub fn resolve_page(&self, addr: Addr) {
        self.cold_pages.borrow_mut().remove(&addr.page());
    }

    /// Poisons a page: the callback will trap on it until repaired.
    pub fn poison(&self, addr: Addr) {
        if self.covers(addr) {
            self.poisoned.borrow_mut().insert(addr.page());
        }
    }

    /// User/driver: repairs a poisoned page.
    pub fn repair(&self, addr: Addr) {
        self.poisoned.borrow_mut().remove(&addr.page());
    }

    /// Pure probe: whether an access to `addr` would currently be denied
    /// (cold metadata or poisoned data), without counting a fault.
    pub fn probe(&self, addr: Addr) -> bool {
        self.covers(addr)
            && (self.poisoned.borrow().contains(&addr.page())
                || self.cold_pages.borrow().contains(&addr.page()))
    }

    /// Pages currently cold.
    pub fn cold_count(&self) -> usize {
        self.cold_pages.borrow().len()
    }

    /// Faults raised so far, by error code.
    pub fn fault_counts(&self) -> Vec<(ErrorCode, u64)> {
        let mut v: Vec<_> = self
            .faults_raised
            .borrow()
            .iter()
            .map(|(&c, &n)| (c, n))
            .collect();
        v.sort_unstable_by_key(|&(c, _)| c);
        v
    }

    fn raise(&self, code: ErrorCode) {
        *self.faults_raised.borrow_mut().entry(code).or_insert(0) += 1;
    }

    /// Saves the accelerator's dynamic state: cold and poisoned page sets
    /// (sorted — the canonical form) and the per-code fault counters. The
    /// region and callback are an identity fingerprint.
    pub fn save_state(&self, w: &mut ise_types::persist::Writer) {
        use ise_types::persist::Persist;
        w.section(*b"TAKO", |w| {
            w.u64(self.region.start);
            w.u64(self.region.end);
            w.u8(match self.callback {
                Callback::Compression => 0,
                Callback::Encryption => 1,
                Callback::Scatter => 2,
            });
            let sorted = |set: &HashSet<PageId>| {
                let mut v: Vec<PageId> = set.iter().copied().collect();
                v.sort_by_key(|p| p.index());
                v
            };
            sorted(&self.cold_pages.borrow()).save(w);
            sorted(&self.poisoned.borrow()).save(w);
            self.fault_counts().save(w);
        });
    }

    /// Restores the dynamic state in place.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Corrupt`](ise_types::persist::PersistError)
    /// if the snapshot came from an accelerator with a different region
    /// or callback.
    pub fn restore_state(
        &self,
        r: &mut ise_types::persist::Reader,
    ) -> Result<(), ise_types::persist::PersistError> {
        use ise_types::persist::{Persist, PersistError};
        r.section(*b"TAKO", |r| {
            let (start, end) = (r.u64()?, r.u64()?);
            let cb = r.u8()?;
            let same_cb = matches!(
                (cb, self.callback),
                (0, Callback::Compression) | (1, Callback::Encryption) | (2, Callback::Scatter)
            );
            if start != self.region.start || end != self.region.end || !same_cb {
                return Err(PersistError::Corrupt("tako identity mismatch"));
            }
            let cold: Vec<PageId> = Persist::restore(r)?;
            let poisoned: Vec<PageId> = Persist::restore(r)?;
            let counts: Vec<(ErrorCode, u64)> = Persist::restore(r)?;
            *self.cold_pages.borrow_mut() = cold.into_iter().collect();
            *self.poisoned.borrow_mut() = poisoned.into_iter().collect();
            *self.faults_raised.borrow_mut() = counts.into_iter().collect();
            Ok(())
        })
    }
}

impl FaultOracle for Tako {
    fn check(&self, addr: Addr, _is_store: bool) -> Option<ExceptionKind> {
        if !self.covers(addr) {
            return None;
        }
        // Trap takes precedence: poisoned data cannot be processed even
        // with resident metadata.
        if self.poisoned.borrow().contains(&addr.page()) {
            let code = self.callback.error_code();
            self.raise(code);
            return Some(ExceptionKind::AcceleratorFault(code));
        }
        if self.cold_pages.borrow().contains(&addr.page()) {
            self.raise(ExceptionKind::PageFault.error_code());
            return Some(ExceptionKind::PageFault);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tako() -> Tako {
        Tako::new(Addr::new(0x40_0000), 8 * PAGE_SIZE, Callback::Compression)
    }

    #[test]
    fn cold_pages_fault_until_resolved() {
        let t = tako();
        let a = Addr::new(0x40_0000);
        t.make_cold(a);
        assert_eq!(t.check(a, true), Some(ExceptionKind::PageFault));
        t.resolve_page(a);
        assert_eq!(t.check(a, true), None);
    }

    #[test]
    fn poisoned_pages_raise_accelerator_faults() {
        let t = tako();
        let a = Addr::new(0x40_0000 + PAGE_SIZE);
        t.poison(a);
        let got = t.check(a, false);
        assert_eq!(
            got,
            Some(ExceptionKind::AcceleratorFault(
                Callback::Compression.error_code()
            ))
        );
        // The accelerator fault is recoverable but must reach the user.
        assert!(got.unwrap().is_recoverable());
        t.repair(a);
        assert_eq!(t.check(a, false), None);
    }

    #[test]
    fn poison_takes_precedence_over_cold() {
        let t = tako();
        let a = Addr::new(0x40_0000);
        t.make_cold(a);
        t.poison(a);
        assert!(matches!(
            t.check(a, true),
            Some(ExceptionKind::AcceleratorFault(_))
        ));
    }

    #[test]
    fn outside_region_never_faults() {
        let t = tako();
        t.make_all_cold();
        assert_eq!(t.check(Addr::new(0), true), None);
        assert_eq!(t.cold_count(), 8);
    }

    #[test]
    fn callbacks_have_distinct_codes() {
        let codes = [
            Callback::Compression.error_code(),
            Callback::Encryption.error_code(),
            Callback::Scatter.error_code(),
        ];
        for i in 0..3 {
            for j in i + 1..3 {
                assert_ne!(codes[i], codes[j]);
            }
        }
    }

    #[test]
    fn fault_accounting() {
        let t = tako();
        let a = Addr::new(0x40_0000);
        t.make_cold(a);
        t.check(a, true);
        t.check(a, true);
        t.resolve_page(a);
        t.poison(a);
        t.check(a, false);
        let counts = t.fault_counts();
        assert_eq!(counts.len(), 2);
        let total: u64 = counts.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 3);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_region_rejected() {
        let _ = Tako::new(Addr::new(0x123), PAGE_SIZE, Callback::Scatter);
    }

    #[test]
    fn persist_round_trip_restores_page_sets_and_counts() {
        use ise_types::persist::{Reader, Writer};
        let t = tako();
        t.make_all_cold();
        t.resolve_page(Addr::new(0x40_0000));
        t.poison(Addr::new(0x40_0000 + 2 * PAGE_SIZE));
        t.check(Addr::new(0x40_0000 + PAGE_SIZE), true);
        t.check(Addr::new(0x40_0000 + 2 * PAGE_SIZE), true);
        let mut w = Writer::container();
        t.save_state(&mut w);
        let bytes = w.finish();
        let back = tako();
        let mut r = Reader::container(&bytes).unwrap();
        back.restore_state(&mut r).unwrap();
        assert_eq!(back.cold_count(), t.cold_count());
        assert!(back.probe(Addr::new(0x40_0000 + 2 * PAGE_SIZE)));
        assert!(!back.probe(Addr::new(0x40_0000)));
        assert_eq!(back.fault_counts(), t.fault_counts());
        let mut w2 = Writer::container();
        back.save_state(&mut w2);
        assert_eq!(w2.finish(), bytes, "re-save must be byte-identical");
    }

    #[test]
    fn persist_rejects_identity_mismatch() {
        use ise_types::persist::{PersistError, Reader, Writer};
        let t = tako();
        let mut w = Writer::container();
        t.save_state(&mut w);
        let bytes = w.finish();
        let other = Tako::new(Addr::new(0x40_0000), 8 * PAGE_SIZE, Callback::Scatter);
        let mut r = Reader::container(&bytes).unwrap();
        assert!(matches!(
            other.restore_state(&mut r),
            Err(PersistError::Corrupt("tako identity mismatch"))
        ));
    }
}
