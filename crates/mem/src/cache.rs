//! A set-associative cache model with true-LRU replacement.
//!
//! The timing simulator uses an "atomic lookahead" discipline: tag state
//! is mutated at access time and the computed latency tells the core
//! when the data arrives. This keeps the model single-pass while still
//! capturing hit/miss behaviour, eviction and prefetch pollution.

use pfm_isa::snap::{Dec, Enc, SnapError};

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

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic use stamp for true LRU.
    lru: u64,
    /// Whether the line was filled by a prefetch and never demanded.
    prefetched: bool,
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
    /// Serializes the counters.
    pub fn snapshot_encode(&self, e: &mut Enc) {
        e.u64(self.hits);
        e.u64(self.misses);
        e.u64(self.prefetch_fills);
        e.u64(self.prefetch_useful);
        e.u64(self.writebacks);
    }

    /// Decodes counters serialized by [`CacheStats::snapshot_encode`].
    pub fn snapshot_decode(d: &mut Dec<'_>) -> Result<CacheStats, SnapError> {
        Ok(CacheStats {
            hits: d.u64()?,
            misses: d.u64()?,
            prefetch_fills: d.u64()?,
            prefetch_useful: d.u64()?,
            writebacks: d.u64()?,
        })
    }

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
    lines: Vec<Line>,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Cache {
        let n = (config.sets() as usize) * config.ways;
        Cache {
            config,
            set_mask: config.sets() - 1,
            lines: vec![Line::default(); n],
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

    #[inline]
    fn set_range(&self, addr: u64) -> (usize, usize) {
        let set = ((addr >> LINE_SHIFT) & self.set_mask) as usize;
        let start = set * self.config.ways;
        (start, start + self.config.ways)
    }

    /// Demand access. Returns whether the line is present; updates LRU
    /// and dirty state on hit, and records statistics.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let tag = addr >> LINE_SHIFT;
        let (lo, hi) = self.set_range(addr);
        self.stamp += 1;
        for line in &mut self.lines[lo..hi] {
            if line.valid && line.tag == tag {
                line.lru = self.stamp;
                line.dirty |= is_write;
                if line.prefetched {
                    line.prefetched = false;
                    self.stats.prefetch_useful += 1;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Non-mutating presence probe (no LRU update, no stats).
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        let tag = addr >> LINE_SHIFT;
        let (lo, hi) = self.set_range(addr);
        self.lines[lo..hi].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Fills the line containing `addr`, evicting the LRU victim.
    /// Returns the evicted line's base address if a dirty line was
    /// displaced (i.e., a writeback is generated).
    pub fn fill(&mut self, addr: u64, from_prefetch: bool) -> Option<u64> {
        let tag = addr >> LINE_SHIFT;
        let (lo, hi) = self.set_range(addr);
        self.stamp += 1;
        // Already present (e.g., duplicate fill): refresh only.
        for line in &mut self.lines[lo..hi] {
            if line.valid && line.tag == tag {
                return None;
            }
        }
        if from_prefetch {
            self.stats.prefetch_fills += 1;
        }
        // Choose invalid way or LRU victim.
        let set = &mut self.lines[lo..hi];
        let victim = match set.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => {
                let mut best = 0;
                for (i, l) in set.iter().enumerate() {
                    if l.lru < set[best].lru {
                        best = i;
                    }
                }
                best
            }
        };
        let evicted = if set[victim].valid && set[victim].dirty {
            self.stats.writebacks += 1;
            let set_idx = (addr >> LINE_SHIFT) & self.set_mask;
            Some(((set[victim].tag & !self.set_mask) | set_idx) << LINE_SHIFT)
        } else {
            None
        };
        set[victim] = Line {
            tag,
            valid: true,
            dirty: false,
            lru: self.stamp,
            prefetched: from_prefetch,
        };
        evicted
    }

    /// Invalidates every line (used between experiment runs).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
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
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
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
    fn duplicate_fill_is_noop() {
        let mut c = small();
        c.fill(0x000, false);
        assert!(c.fill(0x000, false).is_none());
        assert!(c.probe(0x000));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        c.fill(0x000, false);
        c.flush();
        assert!(!c.probe(0x000));
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
