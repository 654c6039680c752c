//! A set-associative cache model with true-LRU replacement.
//!
//! The timing simulator uses an "atomic lookahead" discipline: tag state
//! is mutated at access time and the computed latency tells the core
//! when the data arrives. This keeps the model single-pass while still
//! capturing hit/miss behaviour, eviction and prefetch pollution.
//!
//! State is 16 bytes a line, in one zeroed allocation per cache. Set
//! `s` of a `w`-way cache is the words `[2ws, 2ws + 2w)`: first its `w`
//! tag words, then its `w` recency words.
//! - A tag word is `(addr >> LINE_SHIFT) + 1`, so zero means an invalid
//!   way. Line numbers are below 2^58, so the `+ 1` cannot wrap.
//! - A recency word is the way's last access or fill stamp (counted
//!   from 1) shifted left by two, with the dirty and prefetched flags in
//!   the two low bits. Stamps are unique, so the flags never change
//!   which way is least recent. An invalid way's recency word is zero.
//!
//! A fill replaces the first invalid way by position, otherwise the
//! way least recently accessed or filled: both are the first way with
//! the least recency word. The filled line must be absent (a debug
//! assertion): every caller fills only after a miss or a failed probe
//! at that level, so a miss scans its set's tags once.

/// Base-2 logarithm of the cache line size (64-byte lines).
pub const LINE_SHIFT: u64 = 6;
/// Cache line size in bytes.
pub const LINE_BYTES: u64 = 1 << LINE_SHIFT;

/// Returns the line-aligned address containing `addr`.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

/// Static geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Load-to-use latency in cycles for a hit at this level.
    pub latency: u64,
}

impl CacheConfig {
    /// Creates a config.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero ways, capacity not a
    /// multiple of `ways * LINE_BYTES`, or a non-power-of-two set
    /// count).
    pub fn new(size_bytes: u64, ways: usize, latency: u64) -> CacheConfig {
        assert!(ways > 0, "cache must have at least one way");
        assert_eq!(
            size_bytes % (ways as u64 * LINE_BYTES),
            0,
            "capacity must divide evenly into sets"
        );
        let sets = size_bytes / (ways as u64 * LINE_BYTES);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig {
            size_bytes,
            ways,
            latency,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * LINE_BYTES)
    }

    /// Canonical content key, e.g. `32k8w3` (capacity, ways, latency).
    pub fn key(&self) -> String {
        let cap = if self.size_bytes.is_multiple_of(1024) {
            format!("{}k", self.size_bytes / 1024)
        } else {
            format!("{}b", self.size_bytes)
        };
        format!("{cap}{}w{}", self.ways, self.latency)
    }
}

/// Hit/miss statistics for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Lines filled due to prefetches.
    pub prefetch_fills: u64,
    /// Prefetched lines that were later hit by a demand access.
    pub prefetch_useful: u64,
    /// Dirty evictions (writebacks).
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand miss ratio in [0, 1]; zero when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Recency-word flag: the line was written since its fill.
const DIRTY: u64 = 1;
/// Recency-word flag: a prefetch filled the line and no demand access
/// has hit it since.
const PREFETCHED: u64 = 2;
/// Recency words hold the stamp above the two flag bits.
const STAMP_SHIFT: u32 = 2;

/// The tag word of `addr`'s line (never zero).
#[inline]
fn tag_word(addr: u64) -> u64 {
    (addr >> LINE_SHIFT) + 1
}

/// Where [`Cache::probe`] found a line: hand it to [`Cache::access_way`]
/// so the access that follows does not scan the set again. It stays
/// valid until the cache's next fill.
#[derive(Clone, Copy, Debug)]
pub struct Way(usize);

/// A single set-associative, write-back, write-allocate cache level.
///
/// ```
/// use pfm_mem::cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new(32 * 1024, 8, 3));
/// assert!(!c.access(0x1000, false)); // cold miss
/// c.fill(0x1000, false);
/// assert!(c.access(0x1000, false)); // now hits
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `sets() - 1`, precomputed: set selection is on the per-access
    /// hot path and `sets()` costs a 64-bit division.
    set_mask: u64,
    /// Per set, `ways` tag words then `ways` recency words (module
    /// docs).
    words: Vec<u64>,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache: one zeroed allocation.
    pub fn new(config: CacheConfig) -> Cache {
        let n = 2 * config.sets() as usize * config.ways;
        Cache {
            config,
            set_mask: config.sets() - 1,
            words: vec![0; n],
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Index of the first tag word of `addr`'s set.
    #[inline]
    fn set_start(&self, addr: u64) -> usize {
        ((addr >> LINE_SHIFT) & self.set_mask) as usize * 2 * self.config.ways
    }

    /// Demand access. Returns whether the line is present; updates LRU
    /// and dirty state on hit, and records statistics.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        match self.probe(addr) {
            Some(way) => {
                self.access_way(way, is_write);
                true
            }
            None => {
                self.stamp += 1;
                self.stats.misses += 1;
                false
            }
        }
    }

    /// A demand access that hits the line `probe` just found: the same
    /// update and statistics as [`Cache::access`]'s hit, without its
    /// scan.
    #[inline]
    pub fn access_way(&mut self, way: Way, is_write: bool) {
        debug_assert_ne!(self.words[way.0], 0, "access_way on an invalid way");
        self.stamp += 1;
        let recency = &mut self.words[way.0 + self.config.ways];
        if *recency & PREFETCHED != 0 {
            self.stats.prefetch_useful += 1;
        }
        *recency = (self.stamp << STAMP_SHIFT) | (*recency & DIRTY) | u64::from(is_write);
        self.stats.hits += 1;
    }

    /// Non-mutating presence probe (no LRU update, no stats): where the
    /// line is, if present.
    #[inline]
    pub fn probe(&self, addr: u64) -> Option<Way> {
        let start = self.set_start(addr);
        let tag = tag_word(addr);
        self.words[start..start + self.config.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|w| Way(start + w))
    }

    /// Fills the line containing `addr`, evicting the LRU victim.
    /// Returns the evicted line's base address if a dirty line was
    /// displaced (i.e., a writeback is generated).
    ///
    /// The line must be absent: call `fill` only after a miss or a
    /// failed probe of this cache, with no fill of it in between.
    /// Debug builds assert this; a present line would be duplicated.
    pub fn fill(&mut self, addr: u64, from_prefetch: bool) -> Option<u64> {
        debug_assert!(
            self.probe(addr).is_none(),
            "fill of {addr:#x}, which is already present"
        );
        let ways = self.config.ways;
        let start = self.set_start(addr);
        self.stamp += 1;
        if from_prefetch {
            self.stats.prefetch_fills += 1;
        }
        let (tags, recency) = self.words[start..start + 2 * ways].split_at_mut(ways);
        // An invalid way's recency word is zero and a valid way's is
        // not, so the first least word is the first invalid way, else
        // the least recent one.
        let mut victim = 0;
        let mut least = recency[0];
        for (w, &r) in recency.iter().enumerate().skip(1) {
            if r < least {
                victim = w;
                least = r;
            }
        }
        let evicted = if least & DIRTY != 0 {
            self.stats.writebacks += 1;
            Some((tags[victim] - 1) << LINE_SHIFT)
        } else {
            None
        };
        tags[victim] = tag_word(addr);
        recency[victim] = (self.stamp << STAMP_SHIFT) | if from_prefetch { PREFETCHED } else { 0 };
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways x 64B = 256B
        Cache::new(CacheConfig::new(256, 2, 3))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(32 * 1024, 8, 3);
        assert_eq!(c.sets(), 64);
    }

    #[test]
    #[should_panic]
    fn non_pow2_sets_panics() {
        let _ = CacheConfig::new(3 * 64 * 2, 2, 1);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x0, false));
        c.fill(0x0, false);
        assert!(c.access(0x0, false));
        assert!(c.access(0x3F, false)); // same line
        assert!(!c.access(0x40, false)); // next line, different set
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set 0 holds lines 0x000, 0x080, 0x100 (stride = sets*64 = 128).
        c.fill(0x000, false);
        c.fill(0x080, false);
        c.access(0x000, false); // make 0x080 the LRU
        c.fill(0x100, false); // evicts 0x080
        assert!(c.probe(0x000).is_some());
        assert!(c.probe(0x080).is_none());
        assert!(c.probe(0x100).is_some());
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.fill(0x000, false);
        c.access(0x000, true); // dirty it
        c.fill(0x080, false);
        let evicted = c.fill(0x100, false); // victim is LRU = 0x000 (dirty)
        assert_eq!(evicted, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn prefetch_usefulness_tracking() {
        let mut c = small();
        c.fill(0x000, true);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert_eq!(c.stats().prefetch_useful, 0);
        c.access(0x000, false);
        assert_eq!(c.stats().prefetch_useful, 1);
        // Second access does not double count.
        c.access(0x000, false);
        assert_eq!(c.stats().prefetch_useful, 1);
    }

    #[test]
    fn fill_requires_an_absent_line() {
        // Callers fill only after a miss; debug builds refuse a fill of
        // a present line instead of scanning for it in every build.
        let mut c = small();
        c.fill(0x000, false);
        let refused = std::panic::catch_unwind(move || c.fill(0x000, false)).is_err();
        assert_eq!(refused, cfg!(debug_assertions));
    }

    #[test]
    fn probed_way_takes_the_access() {
        let mut a = small();
        let mut b = small();
        for c in [&mut a, &mut b] {
            c.fill(0x000, true);
            c.fill(0x080, false);
        }
        let way = a.probe(0x000).expect("filled line is present");
        a.access_way(way, true);
        assert!(b.access(0x000, true));
        assert_eq!(a.stats(), b.stats());
        // Both now evict 0x080 and write 0x000 back on the next two fills.
        assert_eq!(a.fill(0x100, false), b.fill(0x100, false));
        assert_eq!(a.fill(0x180, false), Some(0x000));
        assert_eq!(b.fill(0x180, false), Some(0x000));
        assert_eq!(a.words, b.words);
    }

    #[test]
    fn table1_l3_keeps_16_bytes_a_line() {
        let cfg = CacheConfig::new(8 * 1024 * 1024, 16, 42);
        let c = Cache::new(cfg);
        let lines = (cfg.size_bytes / LINE_BYTES) as usize;
        let bytes = c.words.capacity() * std::mem::size_of::<u64>();
        assert!(bytes <= 16 * lines, "{bytes} bytes for {lines} lines");
    }

    #[test]
    fn miss_ratio() {
        let mut c = small();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0x0, false);
        c.fill(0x0, false);
        c.access(0x0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }
}
