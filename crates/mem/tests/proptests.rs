//! Property-based tests for the memory hierarchy: cache behaviour
//! against a naive reference model, MSHR invariants, and latency
//! sanity across random access streams.

use pfm_mem::cache::{line_of, Cache, CacheConfig, CacheStats};
use pfm_mem::hierarchy::{AccessKind, Hierarchy, HierarchyConfig, HitLevel};
use pfm_mem::mshr::MshrFile;
use proptest::prelude::*;
use std::collections::VecDeque;

/// One resident line of the reference model.
#[derive(Clone, Copy)]
struct RefLine {
    line: u64,
    dirty: bool,
    prefetched: bool,
}

/// Naive fully-explicit reference for a set-associative, write-back
/// LRU cache: each set lists its lines most recent first, and the
/// model keeps its own statistics.
struct RefCacheModel {
    sets: Vec<VecDeque<RefLine>>,
    ways: usize,
    num_sets: u64,
    stats: CacheStats,
}

impl RefCacheModel {
    fn new(cfg: &CacheConfig) -> RefCacheModel {
        RefCacheModel {
            sets: (0..cfg.sets()).map(|_| VecDeque::new()).collect(),
            ways: cfg.ways,
            num_sets: cfg.sets(),
            stats: CacheStats::default(),
        }
    }

    fn set_of(&mut self, addr: u64) -> &mut VecDeque<RefLine> {
        &mut self.sets[((addr >> 6) & (self.num_sets - 1)) as usize]
    }

    fn probe(&mut self, addr: u64) -> bool {
        self.set_of(addr).iter().any(|l| l.line == addr >> 6)
    }

    fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let s = self.set_of(addr);
        let Some(pos) = s.iter().position(|l| l.line == addr >> 6) else {
            self.stats.misses += 1;
            return false;
        };
        let mut l = s.remove(pos).unwrap();
        l.dirty |= is_write;
        let useful = std::mem::replace(&mut l.prefetched, false);
        s.push_front(l);
        self.stats.hits += 1;
        self.stats.prefetch_useful += u64::from(useful);
        true
    }

    /// Fills an absent line; returns the dirty victim's address.
    fn fill(&mut self, addr: u64, from_prefetch: bool) -> Option<u64> {
        let ways = self.ways;
        let s = self.set_of(addr);
        let victim = if s.len() == ways { s.pop_back() } else { None };
        s.push_front(RefLine {
            line: addr >> 6,
            dirty: false,
            prefetched: from_prefetch,
        });
        self.stats.prefetch_fills += u64::from(from_prefetch);
        let writeback = victim.filter(|v| v.dirty).map(|v| v.line << 6);
        self.stats.writebacks += u64::from(writeback.is_some());
        writeback
    }
}

/// Associativities the reference test covers.
const REF_WAYS: [usize; 4] = [1, 3, 8, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache matches the reference LRU model on every hit, every
    /// writeback address and its full statistics, over geometries of
    /// 1, 3, 8 and 16 ways by 1 to 64 sets, for reads, writes, probes
    /// followed by an access, and prefetch fills, at addresses near 0
    /// or near `u64::MAX`.
    #[test]
    fn cache_matches_reference_lru(
        ways_idx in 0usize..4,
        log_sets in 0u32..7,
        high in any::<bool>(),
        ops in prop::collection::vec((any::<u64>(), 0u64..64, 0u8..4), 1..400),
    ) {
        let ways = REF_WAYS[ways_idx];
        let sets = 1u64 << log_sets;
        let cfg = CacheConfig::new(sets * ways as u64 * 64, ways, 1);
        let mut cache = Cache::new(cfg);
        let mut reference = RefCacheModel::new(&cfg);
        // A pool of twice the capacity plus one line keeps every set
        // under conflict.
        let pool = 2 * sets * ways as u64 + 1;
        let base = if high { 0u64.wrapping_sub(pool * 64) } else { 0 };
        for &(pick, offset, op) in &ops {
            let addr = base + (pick % pool) * 64 + offset;
            let (hit, ref_hit) = match op {
                // Prefetch fill: probe, fill only if absent.
                0 => {
                    let present = cache.probe(addr).is_some();
                    prop_assert_eq!(present, reference.probe(addr), "probe {:#x}", addr);
                    if !present {
                        let wb = cache.fill(addr, true);
                        prop_assert_eq!(wb, reference.fill(addr, true), "prefetch fill {:#x}", addr);
                    }
                    (present, present)
                }
                // Probe, then hand a hit's way to the access.
                1 => match cache.probe(addr) {
                    Some(way) => {
                        cache.access_way(way, false);
                        (true, reference.access(addr, false))
                    }
                    None => (cache.access(addr, false), reference.access(addr, false)),
                },
                // Demand read or write.
                _ => (cache.access(addr, op == 3), reference.access(addr, op == 3)),
            };
            prop_assert_eq!(hit, ref_hit, "op {} at {:#x}", op, addr);
            if !hit && op != 0 {
                let wb = cache.fill(addr, false);
                prop_assert_eq!(wb, reference.fill(addr, false), "demand fill {:#x}", addr);
            }
            prop_assert_eq!(*cache.stats(), reference.stats);
        }
    }

    /// Probe never mutates: probing between accesses does not change
    /// the hit/miss stream.
    #[test]
    fn probe_is_pure(addrs in prop::collection::vec(0u64..0x4000, 1..200)) {
        let cfg = CacheConfig::new(2048, 2, 1);
        let mut with_probe = Cache::new(cfg);
        let mut without = Cache::new(cfg);
        for &a in &addrs {
            let _ = with_probe.probe(a ^ 0x40);
            let h1 = with_probe.access(a, false);
            let h2 = without.access(a, false);
            prop_assert_eq!(h1, h2);
            if !h1 {
                with_probe.fill(a, false);
                without.fill(a, false);
            }
        }
    }

    /// MSHR in-flight count never exceeds capacity and lookups only
    /// match the same line.
    #[test]
    fn mshr_invariants(ops in prop::collection::vec((0u64..0x2000, 1u64..400), 1..100)) {
        let mut m = MshrFile::new(8);
        let mut cycle = 0u64;
        for (addr, lat) in ops {
            cycle += 7;
            m.expire(cycle);
            prop_assert!(m.in_flight() <= 8);
            if let Some(ready) = m.peek(addr) {
                // expire() just dropped everything ready at or before
                // this cycle, so surviving entries are in the future.
                prop_assert!(ready > cycle, "entry survived expire({cycle}) with ready {ready}");
                // Same-line lookups must agree with line_of.
                prop_assert!(m.peek(line_of(addr)).is_some());
            } else if m.has_free() {
                m.alloc(addr, cycle + lat).unwrap();
            }
        }
    }

    /// Hierarchy latencies are always one of the configured levels (or
    /// above, when MSHR/TLB waits add on), and repeated access to the
    /// same line is never slower than the first.
    #[test]
    fn hierarchy_latency_sanity(addrs in prop::collection::vec(0u64..0x40_0000, 1..150)) {
        let mut cfg = HierarchyConfig::micro21();
        cfg.next_n_line = 0;
        cfg.vldp = false;
        cfg.tlb_walk_latency = 0;
        let l1 = cfg.l1d.latency;
        let mut h = Hierarchy::new(cfg);
        let mut cycle = 0;
        for &a in &addrs {
            cycle += 500; // far apart: no in-flight interference
            let first = h.access(a, AccessKind::Load, cycle);
            prop_assert!(first.latency >= l1);
            cycle += 500;
            let second = h.access(a, AccessKind::Load, cycle);
            prop_assert_eq!(second.level, HitLevel::L1, "fill must land in L1");
            prop_assert!(second.latency <= first.latency);
        }
    }

    /// Perfect-data mode always reports L1 latency regardless of the
    /// stream.
    #[test]
    fn perfect_data_is_flat(addrs in prop::collection::vec(0u64..0x100_0000, 1..100)) {
        let mut cfg = HierarchyConfig::micro21();
        cfg.perfect_data = true;
        let l1 = cfg.l1d.latency;
        let mut h = Hierarchy::new(cfg);
        for (i, &a) in addrs.iter().enumerate() {
            let o = h.access(a, AccessKind::Load, i as u64);
            prop_assert_eq!(o.latency, l1);
        }
    }

    /// In-flight merges always return a residual latency no larger
    /// than the full miss latency.
    #[test]
    fn merge_residual_is_bounded(offset in 0u64..64, gap in 1u64..291) {
        let mut cfg = HierarchyConfig::micro21();
        cfg.next_n_line = 0;
        cfg.vldp = false;
        cfg.tlb_walk_latency = 0;
        let mut h = Hierarchy::new(cfg);
        let base = 0x70_0000u64;
        let first = h.access(base, AccessKind::Load, 0);
        prop_assert_eq!(first.level, HitLevel::Dram);
        let merged = h.access(base + offset, AccessKind::Load, gap);
        prop_assert_eq!(merged.level, HitLevel::InFlight);
        prop_assert!(merged.latency <= first.latency);
        prop_assert!(merged.latency >= first.latency.saturating_sub(gap).max(3));
    }
}
