//! EInject: the error/poison injection device of paper §6.2.
//!
//! "EInject monitors each non-coherent TileLink-UL transaction between the
//! LLC and memory. For transactions whose addresses lie in the memory
//! region reserved by EInject, it looks up a bitmap to check whether the
//! targeting physical page is marked as faulting. If so, EInject
//! terminates the transaction and generates a response to the LLC with a
//! bus error by setting the *denied* bit."
//!
//! The device exposes two MMIO registers, `set` and `clr`; writing an
//! address marks or unmarks its 4 KiB page in the bitmap. User code maps
//! the reserved region and toggles faults via these registers (the paper
//! wraps this in an `mmap`/`ioctl` driver; workloads here call the
//! methods directly).
//!
//! `EInject` uses interior mutability so a single device can be shared
//! (via `Rc`) between the memory hierarchy — which consults it as a
//! [`FaultOracle`] — and the OS/workload code that programs it.

use ise_mem::FaultOracle;
use ise_types::addr::{Addr, PAGE_SIZE};
use ise_types::exception::ExceptionKind;
use ise_types::PageId;
use std::cell::RefCell;
use std::collections::HashSet;
use std::ops::Range;

/// The error-injection device.
#[derive(Debug)]
pub struct EInject {
    region: Range<u64>,
    faulting: RefCell<HashSet<PageId>>,
    denied: RefCell<u64>,
    set_writes: RefCell<u64>,
    clr_writes: RefCell<u64>,
}

impl EInject {
    /// Reserves `[base, base + bytes)` as the EInject region.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty or not page-aligned.
    pub fn new(base: Addr, bytes: u64) -> Self {
        assert!(bytes > 0, "EInject region must be non-empty");
        assert_eq!(base.page_offset(), 0, "EInject region must be page-aligned");
        assert_eq!(bytes % PAGE_SIZE, 0, "EInject region must be whole pages");
        EInject {
            region: base.raw()..base.raw() + bytes,
            faulting: RefCell::new(HashSet::new()),
            denied: RefCell::new(0),
            set_writes: RefCell::new(0),
            clr_writes: RefCell::new(0),
        }
    }

    /// The reserved physical region.
    pub fn region(&self) -> Range<u64> {
        self.region.clone()
    }

    /// Whether `addr` lies inside the reserved region.
    pub fn covers(&self, addr: Addr) -> bool {
        self.region.contains(&addr.raw())
    }

    /// MMIO `set` register: mark the page containing `addr` as faulting.
    /// Addresses outside the region are ignored (hardware discards them).
    pub fn set_faulting(&self, addr: Addr) {
        *self.set_writes.borrow_mut() += 1;
        if self.covers(addr) {
            self.faulting.borrow_mut().insert(addr.page());
        }
    }

    /// MMIO `clr` register: mark the page containing `addr` as
    /// non-faulting.
    pub fn clear_faulting(&self, addr: Addr) {
        *self.clr_writes.borrow_mut() += 1;
        if self.covers(addr) {
            self.faulting.borrow_mut().remove(&addr.page());
        }
    }

    /// Marks every page of the region faulting — how the litmus tests and
    /// §6.5 workloads are set up ("all the allocated memory regions are
    /// marked as faulting before the workload starts").
    pub fn set_all_faulting(&self) {
        let mut map = self.faulting.borrow_mut();
        let mut p = self.region.start;
        while p < self.region.end {
            map.insert(Addr::new(p).page());
            p += PAGE_SIZE;
        }
    }

    /// Whether the page containing `addr` is currently marked faulting.
    pub fn is_faulting(&self, addr: Addr) -> bool {
        self.covers(addr) && self.faulting.borrow().contains(&addr.page())
    }

    /// Number of pages currently marked faulting.
    pub fn faulting_pages(&self) -> usize {
        self.faulting.borrow().len()
    }

    /// Transactions denied so far.
    pub fn denied_count(&self) -> u64 {
        *self.denied.borrow()
    }

    /// MMIO register write counts (set, clr) — driver statistics.
    pub fn mmio_writes(&self) -> (u64, u64) {
        (*self.set_writes.borrow(), *self.clr_writes.borrow())
    }

    /// Saves the device's dynamic state: the faulting bitmap (pages in
    /// sorted order — the canonical form) and the MMIO/denial counters.
    /// The reserved region is written as an identity fingerprint only;
    /// `&self` suffices because all mutable state sits behind `RefCell`.
    pub fn save_state(&self, w: &mut ise_types::persist::Writer) {
        use ise_types::persist::Persist;
        w.section(*b"EINJ", |w| {
            w.u64(self.region.start);
            w.u64(self.region.end);
            let mut pages: Vec<PageId> = self.faulting.borrow().iter().copied().collect();
            pages.sort_by_key(|p| p.index());
            pages.save(w);
            w.u64(*self.denied.borrow());
            w.u64(*self.set_writes.borrow());
            w.u64(*self.clr_writes.borrow());
        });
    }

    /// Restores the bitmap and counters in place.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Corrupt`](ise_types::persist::PersistError)
    /// if the snapshot was taken from a device with a different reserved
    /// region, or names a faulting page outside the region.
    pub fn restore_state(
        &self,
        r: &mut ise_types::persist::Reader,
    ) -> Result<(), ise_types::persist::PersistError> {
        use ise_types::persist::{Persist, PersistError};
        r.section(*b"EINJ", |r| {
            let (start, end) = (r.u64()?, r.u64()?);
            if start != self.region.start || end != self.region.end {
                return Err(PersistError::Corrupt("EInject region mismatch"));
            }
            let pages: Vec<PageId> = Persist::restore(r)?;
            for p in &pages {
                let base = p.index().checked_mul(PAGE_SIZE);
                if !base.is_some_and(|b| self.region.contains(&b)) {
                    return Err(PersistError::Corrupt(
                        "EInject faulting page outside region",
                    ));
                }
            }
            *self.faulting.borrow_mut() = pages.into_iter().collect();
            *self.denied.borrow_mut() = r.u64()?;
            *self.set_writes.borrow_mut() = r.u64()?;
            *self.clr_writes.borrow_mut() = r.u64()?;
            Ok(())
        })
    }
}

impl FaultOracle for EInject {
    fn check(&self, addr: Addr, _is_store: bool) -> Option<ExceptionKind> {
        if self.is_faulting(addr) {
            *self.denied.borrow_mut() += 1;
            Some(ExceptionKind::BusError)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> EInject {
        EInject::new(Addr::new(0x10_0000), 16 * PAGE_SIZE)
    }

    #[test]
    fn set_and_clear_toggle_page_faulting() {
        let d = dev();
        let a = Addr::new(0x10_0000 + 5 * PAGE_SIZE + 128);
        assert!(!d.is_faulting(a));
        d.set_faulting(a);
        assert!(d.is_faulting(a));
        // Whole page faults, not just the byte.
        assert!(d.is_faulting(Addr::new(0x10_0000 + 5 * PAGE_SIZE)));
        d.clear_faulting(a);
        assert!(!d.is_faulting(a));
    }

    #[test]
    fn out_of_region_writes_ignored() {
        let d = dev();
        d.set_faulting(Addr::new(0));
        assert_eq!(d.faulting_pages(), 0);
        assert!(!d.is_faulting(Addr::new(0)));
        assert_eq!(d.mmio_writes(), (1, 0));
    }

    #[test]
    fn oracle_denies_only_marked_pages() {
        let d = dev();
        let good = Addr::new(0x10_0000);
        let bad = Addr::new(0x10_0000 + PAGE_SIZE);
        d.set_faulting(bad);
        assert_eq!(d.check(good, true), None);
        assert_eq!(d.check(bad, true), Some(ExceptionKind::BusError));
        assert_eq!(d.check(bad, false), Some(ExceptionKind::BusError));
        assert_eq!(d.denied_count(), 2);
    }

    #[test]
    fn set_all_marks_whole_region() {
        let d = dev();
        d.set_all_faulting();
        assert_eq!(d.faulting_pages(), 16);
        assert!(d.is_faulting(Addr::new(0x10_0000 + 15 * PAGE_SIZE)));
    }

    #[test]
    fn addresses_outside_region_never_fault() {
        let d = dev();
        d.set_all_faulting();
        assert_eq!(d.check(Addr::new(0x20_0000), true), None);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_region_rejected() {
        let _ = EInject::new(Addr::new(0x100), PAGE_SIZE);
    }

    #[test]
    fn persist_round_trip_restores_bitmap_and_counters() {
        use ise_types::persist::{Reader, Writer};
        let d = dev();
        d.set_faulting(Addr::new(0x10_0000 + 3 * PAGE_SIZE));
        d.set_faulting(Addr::new(0x10_0000 + 9 * PAGE_SIZE));
        d.clear_faulting(Addr::new(0x10_0000));
        d.check(Addr::new(0x10_0000 + 3 * PAGE_SIZE), true);
        let mut w = Writer::container();
        d.save_state(&mut w);
        let bytes = w.finish();
        let back = dev();
        let mut r = Reader::container(&bytes).unwrap();
        back.restore_state(&mut r).unwrap();
        assert_eq!(back.faulting_pages(), 2);
        assert!(back.is_faulting(Addr::new(0x10_0000 + 9 * PAGE_SIZE)));
        assert_eq!(back.denied_count(), 1);
        assert_eq!(back.mmio_writes(), (2, 1));
        // Canonical: re-save is byte-identical despite HashSet iteration
        // order being arbitrary.
        let mut w2 = Writer::container();
        back.save_state(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn persist_rejects_region_mismatch() {
        use ise_types::persist::{PersistError, Reader, Writer};
        let d = dev();
        let mut w = Writer::container();
        d.save_state(&mut w);
        let bytes = w.finish();
        let other = EInject::new(Addr::new(0x20_0000), 16 * PAGE_SIZE);
        let mut r = Reader::container(&bytes).unwrap();
        assert!(matches!(
            other.restore_state(&mut r),
            Err(PersistError::Corrupt("EInject region mismatch"))
        ));
    }
}
