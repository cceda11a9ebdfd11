//! Set-associative cache tag arrays with LRU replacement.
//!
//! Tag state is struct-of-arrays: one flat dense array per field
//! (`tags` / `lru` / packed valid+dirty flags), indexed by
//! `set * ways + way`. A probe walks `ways` adjacent elements of one
//! array instead of chasing a per-set `Vec` allocation, and the array
//! never reallocates after construction.

use ise_types::addr::{Addr, LINE_SIZE};
use ise_types::config::CacheConfig;

const FLAG_VALID: u8 = 1 << 0;
const FLAG_DIRTY: u8 = 1 << 1;

/// A set-associative tag array (no data — the hierarchy is
/// timing-directed; see the crate docs).
///
/// Lines are identified by their line-aligned address.
#[derive(Debug, Clone)]
pub struct CacheArray {
    tags: Box<[u64]>,
    lru: Box<[u64]>,
    flags: Box<[u8]>,
    ways: usize,
    set_count: usize,
    tick: u64,
}

/// The result of inserting a line: what had to leave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// An invalid way was used; nothing evicted.
    None,
    /// A clean line was silently dropped.
    Clean(Addr),
    /// A dirty line must be written back.
    Dirty(Addr),
}

impl CacheArray {
    /// Builds an array from a cache configuration and the global 64 B
    /// block size.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or zero ways.
    pub fn new(cfg: &CacheConfig) -> Self {
        let set_count = cfg.sets(LINE_SIZE as usize);
        assert!(set_count > 0 && cfg.ways > 0, "degenerate cache geometry");
        let slots = set_count * cfg.ways;
        CacheArray {
            tags: vec![0; slots].into_boxed_slice(),
            lru: vec![0; slots].into_boxed_slice(),
            flags: vec![0; slots].into_boxed_slice(),
            ways: cfg.ways,
            set_count,
            tick: 0,
        }
    }

    fn index_tag(&self, line: Addr) -> (usize, u64) {
        let block = line.raw() / LINE_SIZE;
        (
            (block % self.set_count as u64) as usize,
            block / self.set_count as u64,
        )
    }

    /// Index of the way holding `tag` in `set`, if resident.
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        (base..base + self.ways).find(|&i| self.flags[i] & FLAG_VALID != 0 && self.tags[i] == tag)
    }

    /// Probes for `line` (line-aligned address), refreshing LRU on hit.
    pub fn lookup(&mut self, line: Addr) -> bool {
        debug_assert_eq!(line, line.line(), "lookup requires a line-aligned address");
        let (set, tag) = self.index_tag(line);
        self.tick += 1;
        if let Some(i) = self.find(set, tag) {
            self.lru[i] = self.tick;
            true
        } else {
            false
        }
    }

    /// Probes without touching LRU state (used by coherence forwards).
    pub fn contains(&self, line: Addr) -> bool {
        let (set, tag) = self.index_tag(line);
        self.find(set, tag).is_some()
    }

    /// Marks a resident line dirty (stores). No-op if absent.
    pub fn mark_dirty(&mut self, line: Addr) {
        let (set, tag) = self.index_tag(line);
        if let Some(i) = self.find(set, tag) {
            self.flags[i] |= FLAG_DIRTY;
        }
    }

    /// Installs `line`, evicting the LRU way if the set is full.
    /// Installing an already-resident line just refreshes it.
    pub fn insert(&mut self, line: Addr, dirty: bool) -> Eviction {
        debug_assert_eq!(line, line.line(), "insert requires a line-aligned address");
        let (set, tag) = self.index_tag(line);
        self.tick += 1;
        let tick = self.tick;
        let base = set * self.ways;
        // Already present: refresh.
        if let Some(i) = self.find(set, tag) {
            self.lru[i] = tick;
            if dirty {
                self.flags[i] |= FLAG_DIRTY;
            }
            return Eviction::None;
        }
        // Free way.
        if let Some(i) = (base..base + self.ways).find(|&i| self.flags[i] & FLAG_VALID == 0) {
            self.tags[i] = tag;
            self.lru[i] = tick;
            self.flags[i] = FLAG_VALID | if dirty { FLAG_DIRTY } else { 0 };
            return Eviction::None;
        }
        // LRU victim: first way with the minimal stamp, in way order.
        let mut victim = base;
        for i in base + 1..base + self.ways {
            if self.lru[i] < self.lru[victim] {
                victim = i;
            }
        }
        let victim_block = self.tags[victim] * self.set_count as u64 + set as u64;
        let evicted = Addr::new(victim_block * LINE_SIZE);
        let was_dirty = self.flags[victim] & FLAG_DIRTY != 0;
        self.tags[victim] = tag;
        self.lru[victim] = tick;
        self.flags[victim] = FLAG_VALID | if dirty { FLAG_DIRTY } else { 0 };
        if was_dirty {
            Eviction::Dirty(evicted)
        } else {
            Eviction::Clean(evicted)
        }
    }

    /// Invalidates `line` if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: Addr) -> Option<bool> {
        let (set, tag) = self.index_tag(line);
        if let Some(i) = self.find(set, tag) {
            let dirty = self.flags[i] & FLAG_DIRTY != 0;
            self.flags[i] &= !FLAG_VALID;
            Some(dirty)
        } else {
            None
        }
    }

    /// Number of resident lines (for tests and occupancy stats).
    pub fn occupancy(&self) -> usize {
        self.flags.iter().filter(|&&f| f & FLAG_VALID != 0).count()
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.set_count * self.ways
    }
}

impl ise_types::persist::Persist for CacheArray {
    /// The LRU `tick` counter and per-way stamps are saved verbatim:
    /// victim selection compares raw stamps, so replacement decisions
    /// after a restore are identical to the uninterrupted run.
    fn save(&self, w: &mut ise_types::persist::Writer) {
        w.section(*b"CACH", |w| {
            w.usize(self.ways);
            w.usize(self.set_count);
            w.u64(self.tick);
            self.tags.save(w);
            self.lru.save(w);
            self.flags.save(w);
        });
    }
    fn restore(
        r: &mut ise_types::persist::Reader,
    ) -> Result<Self, ise_types::persist::PersistError> {
        use ise_types::persist::{Persist, PersistError};
        r.section(*b"CACH", |r| {
            let ways = r.usize()?;
            let set_count = r.usize()?;
            if ways == 0 || set_count == 0 {
                return Err(PersistError::Corrupt("degenerate cache geometry"));
            }
            let tick = r.u64()?;
            let tags: Box<[u64]> = Persist::restore(r)?;
            let lru: Box<[u64]> = Persist::restore(r)?;
            let flags: Box<[u8]> = Persist::restore(r)?;
            let slots = set_count
                .checked_mul(ways)
                .ok_or(PersistError::Corrupt("cache slot overflow"))?;
            if tags.len() != slots || lru.len() != slots || flags.len() != slots {
                return Err(PersistError::Corrupt("cache array lengths"));
            }
            let max_tag = u64::MAX / LINE_SIZE / set_count as u64;
            if tags.iter().any(|&t| t > max_tag) {
                return Err(PersistError::Corrupt("cache tag beyond the address space"));
            }
            Ok(CacheArray {
                tags,
                lru,
                flags,
                ways,
                set_count,
                tick,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 2 sets x 2 ways of 64B lines = 256B.
        CacheArray::new(&CacheConfig {
            capacity_bytes: 256,
            ways: 2,
            latency: 1,
            mshrs: 4,
        })
    }

    fn line(i: u64) -> Addr {
        Addr::new(i * LINE_SIZE)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.lookup(line(0)));
        c.insert(line(0), false);
        assert!(c.lookup(line(0)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (even line numbers with 2 sets).
        c.insert(line(0), false);
        c.insert(line(2), false);
        // Touch 0 so 2 is LRU.
        assert!(c.lookup(line(0)));
        let ev = c.insert(line(4), false);
        assert_eq!(ev, Eviction::Clean(line(2)));
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(2)));
        assert!(c.contains(line(4)));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.insert(line(0), true);
        c.insert(line(2), false);
        c.lookup(line(2));
        let ev = c.insert(line(4), false);
        assert_eq!(ev, Eviction::Dirty(line(0)));
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let mut c = tiny();
        c.insert(line(0), false);
        assert_eq!(c.insert(line(0), true), Eviction::None);
        assert_eq!(c.occupancy(), 1);
        // And the dirty bit stuck.
        c.insert(line(2), false);
        c.lookup(line(2));
        assert_eq!(c.insert(line(4), false), Eviction::Dirty(line(0)));
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = tiny();
        c.insert(line(0), false);
        c.mark_dirty(line(0));
        assert_eq!(c.invalidate(line(0)), Some(true));
        assert_eq!(c.invalidate(line(0)), None);
        assert!(!c.contains(line(0)));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        c.insert(line(0), false);
        c.insert(line(1), false); // odd line -> set 1
        c.insert(line(2), false);
        assert_eq!(c.occupancy(), 3);
        assert!(c.contains(line(0)));
    }

    #[test]
    fn persist_round_trip_replays_identical_evictions() {
        use ise_types::persist::{restore_container, save_container};
        let mut c = tiny();
        c.insert(line(0), true);
        c.insert(line(2), false);
        c.lookup(line(0));
        let bytes = save_container(&c);
        let mut back: CacheArray = restore_container(&bytes).unwrap();
        assert_eq!(save_container(&back), bytes);
        // Same LRU stamps => same victim choices from here on.
        assert_eq!(back.insert(line(4), false), c.insert(line(4), false));
        assert_eq!(back.insert(line(6), true), c.insert(line(6), true));
        assert_eq!(back.occupancy(), c.occupancy());
    }

    #[test]
    fn geometry_matches_table2() {
        let l1 = CacheArray::new(&CacheConfig::l1d_isca23());
        assert_eq!(l1.capacity_lines(), 64 * 1024 / 64);
        let l2 = CacheArray::new(&CacheConfig::l2_isca23());
        assert_eq!(l2.capacity_lines(), 1024 * 1024 / 64);
    }
}
