//! A small fully-associative TLB. Misses add a fixed page-walk latency.

const PAGE_SHIFT: u64 = 12;

/// Fully-associative, true-LRU TLB.
///
/// ```
/// use pfm_mem::tlb::Tlb;
/// let mut t = Tlb::new(4, 30);
/// assert_eq!(t.translate(0x1234), 30); // cold miss: page walk
/// assert_eq!(t.translate(0x1FFF), 0);  // same page: hit
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Vec<(u64, u64)>, // (page, lru)
    capacity: usize,
    walk_latency: u64,
    stamp: u64,
    /// Slot of the most recent translation: accesses cluster on one
    /// page, so checking here first skips the linear scan on the
    /// common path. Purely an access-order cache — LRU stamps and
    /// eviction decisions are identical with or without it.
    mru: usize,
    /// Translation hits.
    pub hits: u64,
    /// Translation misses (page walks).
    pub misses: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries and `walk_latency` extra
    /// cycles per miss.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, walk_latency: u64) -> Tlb {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            walk_latency,
            stamp: 0,
            mru: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates `addr`, returning the added latency (0 on hit, the
    /// walk latency on miss). The entry is installed/refreshed.
    pub fn translate(&mut self, addr: u64) -> u64 {
        let page = addr >> PAGE_SHIFT;
        self.stamp += 1;
        // Same-page fast path via the MRU slot.
        if let Some(e) = self.entries.get_mut(self.mru) {
            if e.0 == page {
                e.1 = self.stamp;
                self.hits += 1;
                return 0;
            }
        }
        if let Some(i) = self.entries.iter().position(|e| e.0 == page) {
            self.entries[i].1 = self.stamp;
            self.mru = i;
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                // pfm-lint: allow(hygiene): eviction only runs when entries is full
                .expect("non-empty");
            self.entries.swap_remove(victim);
        }
        self.entries.push((page, self.stamp));
        self.mru = self.entries.len() - 1;
        self.walk_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut t = Tlb::new(2, 25);
        assert_eq!(t.translate(0x0000), 25);
        assert_eq!(t.translate(0x0FFF), 0);
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2, 25);
        t.translate(0x0000); // page 0
        t.translate(0x1000); // page 1
        t.translate(0x0000); // refresh page 0
        t.translate(0x2000); // evicts page 1
        assert_eq!(t.translate(0x0000), 0);
        assert_eq!(t.translate(0x1000), 25);
    }
}
