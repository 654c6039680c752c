//! A small fully-associative TLB. Misses add a fixed page-walk latency.

use pfm_isa::fxhash::FxHashMap;

const PAGE_SHIFT: u64 = 12;

/// End of the recency list.
const NIL: usize = usize::MAX;

/// Fully-associative, true-LRU TLB.
///
/// A page finds its slot through a hash map, and the slots form an
/// intrusive recency list, most recent first: a translation moves its
/// slot to the front, and a miss in a full TLB evicts the slot at the
/// back, the least recently translated page. Both are O(1).
///
/// ```
/// use pfm_mem::tlb::Tlb;
/// let mut t = Tlb::new(4, 30);
/// assert_eq!(t.translate(0x1234), 30); // cold miss: page walk
/// assert_eq!(t.translate(0x1FFF), 0);  // same page: hit
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Page -> slot.
    index: FxHashMap<u64, usize>,
    slots: Vec<Slot>,
    /// Most recently translated slot (`NIL` when empty).
    head: usize,
    /// Least recently translated slot (`NIL` when empty).
    tail: usize,
    capacity: usize,
    walk_latency: u64,
    /// Translation hits.
    pub hits: u64,
    /// Translation misses (page walks).
    pub misses: u64,
}

/// One TLB entry and its neighbours in the recency list.
#[derive(Clone, Copy, Debug)]
struct Slot {
    page: u64,
    /// Next more recently translated slot.
    prev: usize,
    /// Next less recently translated slot.
    next: usize,
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
            index: FxHashMap::default(),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            walk_latency,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates `addr`, returning the added latency (0 on hit, the
    /// walk latency on miss). The entry is installed/refreshed.
    pub fn translate(&mut self, addr: u64) -> u64 {
        let page = addr >> PAGE_SHIFT;
        // Accesses cluster on one page: the most recent slot needs no
        // lookup and no relinking.
        if self.slots.get(self.head).is_some_and(|s| s.page == page) {
            self.hits += 1;
            return 0;
        }
        if let Some(&i) = self.index.get(&page) {
            self.unlink(i);
            self.push_front(i);
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
        let i = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                page,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            let victim = self.tail;
            self.unlink(victim);
            self.index.remove(&self.slots[victim].page);
            self.slots[victim].page = page;
            victim
        };
        self.index.insert(page, i);
        self.push_front(i);
        self.walk_latency
    }

    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The TLB as a stamp scan: every translation stamps its entry, and
    /// a miss in a full TLB evicts the smallest stamp.
    struct StampTlb {
        entries: Vec<(u64, u64)>, // (page, stamp)
        capacity: usize,
        walk_latency: u64,
        stamp: u64,
        hits: u64,
        misses: u64,
    }

    impl StampTlb {
        fn new(capacity: usize, walk_latency: u64) -> StampTlb {
            StampTlb {
                entries: Vec::new(),
                capacity,
                walk_latency,
                stamp: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn translate(&mut self, addr: u64) -> u64 {
            let page = addr >> PAGE_SHIFT;
            self.stamp += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == page) {
                e.1 = self.stamp;
                self.hits += 1;
                return 0;
            }
            self.misses += 1;
            if self.entries.len() >= self.capacity {
                let victim = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].1)
                    .unwrap();
                self.entries.swap_remove(victim);
            }
            self.entries.push((page, self.stamp));
            self.walk_latency
        }
    }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every translation costs what the stamp-scan TLB charges, and
        /// the hit and miss counts agree, over page streams that mix
        /// repeats, a working set near the capacity and fresh pages.
        #[test]
        fn matches_the_stamp_scan(seed in any::<u64>(), which in 0usize..4, pages in 1u64..160) {
            let capacity = [1, 2, 3, 64][which];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tlb = Tlb::new(capacity, 30);
            let mut reference = StampTlb::new(capacity, 30);
            for _ in 0..2_000 {
                let page = rng.gen_range(0..pages);
                let addr = (page << PAGE_SHIFT) | rng.gen_range(0..1u64 << PAGE_SHIFT);
                prop_assert_eq!(tlb.translate(addr), reference.translate(addr));
            }
            prop_assert_eq!(tlb.hits, reference.hits);
            prop_assert_eq!(tlb.misses, reference.misses);
        }
    }
}
