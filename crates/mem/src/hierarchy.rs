//! The full memory hierarchy of Table 1: L1I/L1D/L2/L3 + DRAM, with the
//! baseline next-2-line L1D prefetcher, a VLDP L2/L3 prefetcher, MSHRs
//! bounding MLP, and a data TLB.
//!
//! Timing discipline is "atomic lookahead": an access at cycle *t*
//! immediately updates tag/replacement state and returns the cycle
//! count until data arrives. In-flight misses are represented in the
//! MSHR file so overlapping accesses to the same line observe the
//! residual latency rather than a fresh miss — this is what lets the
//! PFM components' decoupled load engines express memory-level
//! parallelism, and what makes the Load Agent's missed-load-buffer
//! replay loop behave as in the paper.

use crate::cache::{line_of, Cache, CacheConfig};
use crate::mshr::MshrFile;
use crate::prefetch::{NextNLine, Prefetcher, Vldp};
use crate::tlb::Tlb;

/// Kind of memory access presented to the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand data load.
    Load,
    /// Demand data store (write-allocate).
    Store,
    /// Instruction fetch.
    Ifetch,
    /// Software/fabric-injected prefetch (fills, returns no data).
    Prefetch,
}

/// Level at which an access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// First-level cache (L1I or L1D).
    L1,
    /// Merged into an in-flight miss (residual latency).
    InFlight,
    /// Second-level cache.
    L2,
    /// Last-level cache.
    L3,
    /// Main memory.
    Dram,
}

/// Outcome of a hierarchy access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycles from access until the data is usable.
    pub latency: u64,
    /// Where the data came from.
    pub level: HitLevel,
}

/// Hierarchy configuration (defaults follow Table 1 of the paper).
#[derive(Clone, Debug)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Unified L3.
    pub l3: CacheConfig,
    /// Total load-to-use latency for DRAM accesses.
    pub dram_latency: u64,
    /// Number of L1D MSHRs (bounds data-side MLP).
    pub mshrs: usize,
    /// N for the baseline next-N-line L1D prefetcher (0 disables).
    pub next_n_line: u64,
    /// Enable the VLDP L2/L3 prefetcher.
    pub vldp: bool,
    /// Data TLB entries.
    pub tlb_entries: usize,
    /// Page-walk latency added on TLB miss.
    pub tlb_walk_latency: u64,
    /// Oracle mode: every data access hits in L1 (perfect D$).
    pub perfect_data: bool,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig::micro21()
    }
}

impl HierarchyConfig {
    /// Canonical content key covering every field. Two configs with
    /// the same key time identically; the experiment planner relies on
    /// this to deduplicate runs.
    pub fn key(&self) -> String {
        format!(
            "i{}_d{}_l2{}_l3{}_dram{}_mshr{}_nl{}_vldp{}_tlb{}w{}{}",
            self.l1i.key(),
            self.l1d.key(),
            self.l2.key(),
            self.l3.key(),
            self.dram_latency,
            self.mshrs,
            self.next_n_line,
            u8::from(self.vldp),
            self.tlb_entries,
            self.tlb_walk_latency,
            if self.perfect_data { "_perfD" } else { "" }
        )
    }

    /// The exact configuration of Table 1 (MICRO 2021 paper).
    pub fn micro21() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::new(32 * 1024, 8, 1),
            l1d: CacheConfig::new(32 * 1024, 8, 3),
            l2: CacheConfig::new(256 * 1024, 8, 12),
            l3: CacheConfig::new(8 * 1024 * 1024, 16, 42),
            dram_latency: 292, // 42-cycle L3 + 250-cycle DRAM
            mshrs: 16,
            next_n_line: 2,
            vldp: true,
            tlb_entries: 64,
            tlb_walk_latency: 30,
            perfect_data: false,
        }
    }
}

pfm_isa::counters! {
    /// Hierarchy-level statistics (authoritative for experiments; per-cache
    /// stats additionally track prefetch usefulness).
    ///
    /// `Eq` is part of the simulator's determinism contract (identical
    /// runs must produce identical counters).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct HierarchyStats {
        /// Demand data accesses that hit L1D.
        pub l1d_hits: u64,
        /// Demand data accesses that missed L1D.
        pub l1d_misses: u64,
        /// Demand data accesses merged into an in-flight miss.
        pub inflight_merges: u64,
        /// L1D misses satisfied by L2.
        pub l2_hits: u64,
        /// L1D misses satisfied by L3.
        pub l3_hits: u64,
        /// L1D misses that went to DRAM.
        pub dram_accesses: u64,
        /// Instruction-fetch L1I misses.
        pub l1i_misses: u64,
        /// Prefetch lines issued (all sources).
        pub prefetches_issued: u64,
        /// Cycles of extra latency charged waiting for a free MSHR.
        pub mshr_wait_cycles: u64,
    }
}

/// The memory hierarchy.
pub struct Hierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    mshrs: MshrFile,
    l1_prefetcher: Option<NextNLine>,
    l2_prefetcher: Option<Vldp>,
    /// Reused prefetch-target buffer (the demand-miss path is hot).
    pf_targets: Vec<u64>,
    tlb: Tlb,
    stats: HierarchyStats,
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Hierarchy {
        Hierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            mshrs: MshrFile::new(config.mshrs),
            l1_prefetcher: if config.next_n_line > 0 {
                Some(NextNLine::new(config.next_n_line))
            } else {
                None
            },
            l2_prefetcher: if config.vldp {
                Some(Vldp::default())
            } else {
                None
            },
            pf_targets: Vec::new(),
            tlb: Tlb::new(config.tlb_entries, config.tlb_walk_latency),
            config,
            stats: HierarchyStats::default(),
        }
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Hierarchy statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Performs an access at `cycle` and returns its latency/source.
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind, cycle: u64) -> AccessOutcome {
        match kind {
            AccessKind::Ifetch => self.ifetch(addr),
            AccessKind::Prefetch => {
                self.data_access(addr, false, cycle, true);
                AccessOutcome {
                    latency: 0,
                    level: HitLevel::L1,
                }
            }
            AccessKind::Load => self.data_access(addr, false, cycle, false),
            AccessKind::Store => self.data_access(addr, true, cycle, false),
        }
    }

    fn ifetch(&mut self, addr: u64) -> AccessOutcome {
        if self.l1i.access(addr, false) {
            return AccessOutcome {
                latency: self.config.l1i.latency,
                level: HitLevel::L1,
            };
        }
        self.stats.l1i_misses += 1;
        let (latency, level) = if self.l2.access(addr, false) {
            (self.config.l2.latency, HitLevel::L2)
        } else if self.l3.access(addr, false) {
            self.l2.fill(addr, false);
            (self.config.l3.latency, HitLevel::L3)
        } else {
            self.l2.fill(addr, false);
            self.l3.fill(addr, false);
            (self.config.dram_latency, HitLevel::Dram)
        };
        self.l1i.fill(addr, false);
        AccessOutcome { latency, level }
    }

    fn data_access(
        &mut self,
        addr: u64,
        is_write: bool,
        cycle: u64,
        is_prefetch: bool,
    ) -> AccessOutcome {
        if self.config.perfect_data && !is_prefetch {
            return AccessOutcome {
                latency: self.config.l1d.latency,
                level: HitLevel::L1,
            };
        }

        self.mshrs.expire(cycle);
        let tlb_extra = if is_prefetch {
            0
        } else {
            self.tlb.translate(addr)
        };

        // In-flight miss covering this line? A demand access merges
        // into it (and counts the merge); a prefetch is dropped.
        if is_prefetch {
            if self.mshrs.peek(addr).is_some() {
                return AccessOutcome {
                    latency: 0,
                    level: HitLevel::InFlight,
                };
            }
        } else if let Some(ready) = self.mshrs.lookup(addr) {
            self.stats.inflight_merges += 1;
            let residual = ready.saturating_sub(cycle).max(self.config.l1d.latency);
            return AccessOutcome {
                latency: residual + tlb_extra,
                level: HitLevel::InFlight,
            };
        }

        if self.l1d.access(addr, is_write) {
            if !is_prefetch {
                self.stats.l1d_hits += 1;
            }
            return AccessOutcome {
                latency: self.config.l1d.latency + tlb_extra,
                level: HitLevel::L1,
            };
        }

        if !is_prefetch {
            self.stats.l1d_misses += 1;
        }

        // Locate the data below L1.
        let (mut latency, level) = if self.l2.access(addr, is_write) {
            if !is_prefetch {
                self.stats.l2_hits += 1;
            }
            (self.config.l2.latency, HitLevel::L2)
        } else if self.l3.access(addr, is_write) {
            if !is_prefetch {
                self.stats.l3_hits += 1;
            }
            self.l2.fill(addr, is_prefetch);
            (self.config.l3.latency, HitLevel::L3)
        } else {
            if !is_prefetch {
                self.stats.dram_accesses += 1;
            }
            self.l2.fill(addr, is_prefetch);
            self.l3.fill(addr, is_prefetch);
            (self.config.dram_latency, HitLevel::Dram)
        };
        self.l1d.fill(addr, is_prefetch);

        // Charge MSHR occupancy: wait for a free entry if none.
        if let Err(earliest) = self.mshrs.alloc(addr, cycle + latency) {
            let wait = earliest.saturating_sub(cycle);
            self.stats.mshr_wait_cycles += wait;
            latency += wait;
            self.mshrs.expire(earliest);
            let _ = self.mshrs.alloc(addr, cycle + latency);
        }

        // Trigger prefetchers on demand misses only. The target buffer
        // is owned by the hierarchy and reused across misses;
        // `prefetch_fill` never re-enters this path, so taking it for
        // the duration of the loop is safe.
        if !is_prefetch {
            let mut targets = std::mem::take(&mut self.pf_targets);
            targets.clear();
            if let Some(pf) = self.l1_prefetcher.as_mut() {
                pf.observe_into(addr, true, &mut targets);
            }
            if let Some(pf) = self.l2_prefetcher.as_mut() {
                pf.observe_into(addr, true, &mut targets);
            }
            for &t in &targets {
                self.stats.prefetches_issued += 1;
                self.prefetch_fill(t, cycle);
            }
            self.pf_targets = targets;
        }

        AccessOutcome {
            latency: latency + tlb_extra,
            level,
        }
    }

    /// Fills `addr`'s line as a prefetch (no demand latency returned).
    fn prefetch_fill(&mut self, addr: u64, cycle: u64) {
        if self.mshrs.peek(addr).is_some() || self.l1d.probe(addr).is_some() {
            return;
        }
        let latency = if let Some(way) = self.l2.probe(addr) {
            self.l2.access_way(way, false);
            self.config.l2.latency
        } else if let Some(way) = self.l3.probe(addr) {
            self.l3.access_way(way, false);
            self.l2.fill(addr, true);
            self.config.l3.latency
        } else {
            self.l2.fill(addr, true);
            self.l3.fill(addr, true);
            self.config.dram_latency
        };
        self.l1d.fill(addr, true);
        // Prefetches occupy MSHRs only if one is free (they are dropped
        // rather than stalling demand traffic).
        if self.mshrs.has_free() {
            let _ = self.mshrs.alloc(addr, cycle + latency);
        }
    }

    /// Issues an external (fabric) prefetch for `addr` at `cycle`.
    #[inline]
    pub fn external_prefetch(&mut self, addr: u64, cycle: u64) {
        self.stats.prefetches_issued += 1;
        self.prefetch_fill(line_of(addr), cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> Hierarchy {
        let mut c = HierarchyConfig::micro21();
        c.next_n_line = 0;
        c.vldp = false;
        c.tlb_walk_latency = 0;
        Hierarchy::new(c)
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits_everywhere() {
        let mut h = hier();
        let o = h.access(0x10_0000, AccessKind::Load, 0);
        assert_eq!(o.level, HitLevel::Dram);
        assert_eq!(o.latency, 292);
        // Long after the fill, it's an L1 hit.
        let o2 = h.access(0x10_0000, AccessKind::Load, 1000);
        assert_eq!(o2.level, HitLevel::L1);
        assert_eq!(o2.latency, 3);
    }

    #[test]
    fn overlapping_miss_merges_with_residual_latency() {
        let mut h = hier();
        h.access(0x20_0000, AccessKind::Load, 0); // miss, ready at 292
        let o = h.access(0x20_0008, AccessKind::Load, 100); // same line
        assert_eq!(o.level, HitLevel::InFlight);
        assert_eq!(o.latency, 192);
        assert_eq!(h.stats().inflight_merges, 1);
    }

    #[test]
    fn independent_misses_overlap_mlp() {
        let mut h = hier();
        // Two misses to different lines at the same cycle both take the
        // full latency — they overlap rather than serialize.
        let a = h.access(0x30_0000, AccessKind::Load, 0);
        let b = h.access(0x30_1000, AccessKind::Load, 0);
        assert_eq!(a.latency, 292);
        assert_eq!(b.latency, 292);
    }

    #[test]
    fn mshr_exhaustion_delays_new_misses() {
        let mut cfg = HierarchyConfig::micro21();
        cfg.next_n_line = 0;
        cfg.vldp = false;
        cfg.tlb_walk_latency = 0;
        cfg.mshrs = 2;
        let mut h = Hierarchy::new(cfg);
        h.access(0x0000, AccessKind::Load, 0);
        h.access(0x2000, AccessKind::Load, 0);
        let o = h.access(0x4000, AccessKind::Load, 0); // MSHRs full until 292
        assert!(
            o.latency > 292,
            "third miss should wait for an MSHR, got {}",
            o.latency
        );
        assert!(h.stats().mshr_wait_cycles > 0);
    }

    #[test]
    fn l2_and_l3_hit_latencies() {
        let mut h = hier();
        h.access(0x40_0000, AccessKind::Load, 0); // fill everything
                                                  // Evict from L1 by filling 9 conflicting lines (8-way L1).
                                                  // L1D: 32KB/8way/64B = 64 sets; same-set stride = 4096 bytes.
                                                  // (4096 < L2's 32768-byte same-set stride, so L2 keeps the line.)
        for i in 1..=9u64 {
            h.access(0x40_0000 + i * 4096, AccessKind::Load, 0);
        }
        // This line should now be out of L1 but in L2.
        let o = h.access(0x40_0000, AccessKind::Load, 10_000);
        assert_eq!(o.level, HitLevel::L2);
        assert_eq!(o.latency, 12);
    }

    #[test]
    fn perfect_data_always_l1() {
        let mut cfg = HierarchyConfig::micro21();
        cfg.perfect_data = true;
        let mut h = Hierarchy::new(cfg);
        let o = h.access(0xAA_0000, AccessKind::Load, 0);
        assert_eq!(o.level, HitLevel::L1);
        assert_eq!(o.latency, 3);
    }

    #[test]
    fn next_line_prefetcher_hides_sequential_misses() {
        let mut cfg = HierarchyConfig::micro21();
        cfg.vldp = false;
        cfg.tlb_walk_latency = 0;
        let mut h = Hierarchy::new(cfg);
        h.access(0x50_0000, AccessKind::Load, 0); // miss; prefetch +1, +2
                                                  // Much later, the next line is already resident.
        let o = h.access(0x50_0040, AccessKind::Load, 5000);
        assert_eq!(o.level, HitLevel::L1);
        assert!(h.stats().prefetches_issued >= 2);
    }

    #[test]
    fn external_prefetch_then_demand_hit() {
        let mut h = hier();
        h.external_prefetch(0x60_0000, 0);
        let o = h.access(0x60_0000, AccessKind::Load, 1000);
        assert_eq!(o.level, HitLevel::L1);
    }

    #[test]
    fn ifetch_path() {
        let mut h = hier();
        let o = h.access(0x1000, AccessKind::Ifetch, 0);
        assert_eq!(o.level, HitLevel::Dram);
        let o2 = h.access(0x1000, AccessKind::Ifetch, 0);
        assert_eq!(o2.level, HitLevel::L1);
        assert_eq!(o2.latency, 1);
        assert_eq!(h.stats().l1i_misses, 1);
    }

    #[test]
    fn store_write_allocates() {
        let mut h = hier();
        let o = h.access(0x70_0000, AccessKind::Store, 0);
        assert_eq!(o.level, HitLevel::Dram);
        let o2 = h.access(0x70_0000, AccessKind::Load, 1000);
        assert_eq!(o2.level, HitLevel::L1);
    }

    #[test]
    fn tlb_miss_adds_walk_latency() {
        let mut cfg = HierarchyConfig::micro21();
        cfg.next_n_line = 0;
        cfg.vldp = false;
        let mut h = Hierarchy::new(cfg);
        let o = h.access(0x90_0000, AccessKind::Load, 0);
        assert_eq!(o.latency, 292 + 30);
        let o2 = h.access(0x90_0008, AccessKind::Load, 500);
        assert_eq!(o2.latency, 3); // TLB + cache hit
    }
}
