//! Custom prefetch engines (§4.3, Figure 16): a Prefetch Generation
//! Engine driven by values snooped from the retire stream, plus the
//! sampling-based performance-feedback mechanism that adapts the
//! prefetch distance.
//!
//! One component type covers all five SPEC use-cases by composing
//! engines:
//!
//! * *libquantum*: one engine, one stream, simple stride, adaptive
//!   distance.
//! * *bwaves*: one engine with a nested-loop iteration space whose FSM
//!   "surgically follows" the multi-induction-variable pattern.
//! * *lbm*: one engine with a cluster of streams pushed **as a set**
//!   (MLP-aware: skip the whole set if IntQ-IS lacks room).
//! * *milc*: several libquantum-like streams, each with adaptive
//!   distance.
//! * *leslie*: multiple engines, one per ROI.

use pfm_fabric::{CustomComponent, FabricIo, FabricLoad, ObsPacket, WatchKind};

/// The paper's epoch-based adaptive prefetch-distance controller: the
/// number of retired delinquent-load instances per epoch is a proxy for
/// IPC; keep increasing the distance while the proxy improves, settle
/// when flat, back off when it degrades.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveDistance {
    distance: u64,
    step: i64,
    last_proxy: u64,
    epoch_start_count: u64,
    epoch_start_rf: u64,
    epoch_len: u64,
    min: u64,
    max: u64,
}

impl AdaptiveDistance {
    /// Creates a controller starting at `init` lines of distance.
    pub fn new(init: u64, epoch_len: u64) -> AdaptiveDistance {
        AdaptiveDistance {
            distance: init,
            step: 4,
            last_proxy: 0,
            epoch_start_count: 0,
            epoch_start_rf: 0,
            epoch_len,
            min: 4,
            max: 512,
        }
    }

    /// Current prefetch distance (iterations ahead of retirement).
    pub fn distance(&self) -> u64 {
        self.distance
    }

    /// Called every RF cycle with the cumulative retired-instance
    /// count; adapts at epoch boundaries.
    pub fn observe(&mut self, rf_cycle: u64, retired_count: u64) {
        if rf_cycle < self.epoch_start_rf + self.epoch_len {
            return;
        }
        let proxy = retired_count - self.epoch_start_count;
        self.epoch_start_rf = rf_cycle;
        self.epoch_start_count = retired_count;
        if self.last_proxy == 0 {
            self.last_proxy = proxy;
            return;
        }
        // Hill climb: keep increasing while the proxy improves, settle
        // when flat, back off when it degrades.
        if proxy * 100 > self.last_proxy * 105 {
            self.distance =
                (self.distance as i64 + self.step).clamp(self.min as i64, self.max as i64) as u64;
        } else if proxy * 100 < self.last_proxy * 90 {
            self.distance =
                (self.distance as i64 - self.step).clamp(self.min as i64, self.max as i64) as u64;
        }
        self.last_proxy = proxy;
    }
}

/// One Prefetch Generation Engine: a (possibly nested) affine iteration
/// space over one or more delinquent-load streams.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// PCs whose retired destination values are the stream base
    /// addresses (one per stream; observing the first one resets the
    /// engine for a new ROI invocation).
    pub base_pcs: Vec<u64>,
    /// PC whose retired destination value is the total inner-iteration
    /// count for this invocation.
    pub count_pc: u64,
    /// PC of the delinquent load; each retired instance advances the
    /// engine's notion of where the core is.
    pub load_pc: u64,
    /// Nested loop extents, outermost first (a single entry is a plain
    /// 1-D stream). The product bounds the walk when `count_pc` gives
    /// no tighter bound.
    pub extents: Vec<u64>,
    /// Byte stride contributed by each loop level.
    pub strides: Vec<i64>,
    /// Static byte offsets of additional streams sharing the snooped
    /// base (e.g., lbm's cluster of delinquent loads at fixed plane
    /// offsets). The effective streams are the cross product of
    /// `base_pcs` and `stream_offsets`; leave as `[0]` for one stream
    /// per base.
    pub stream_offsets: Vec<i64>,
    /// Push the cluster's prefetches only as a complete set (lbm).
    pub as_set: bool,
    /// Enable the adaptive-distance feedback.
    pub adaptive: bool,
    /// Initial prefetch distance in iterations.
    pub init_distance: u64,
}

#[derive(Clone, Debug)]
struct Engine {
    cfg: EngineConfig,
    bases: Vec<Option<u64>>,
    count: u64,
    have_count: bool,
    /// Flat iteration index of the next prefetch.
    next: u64,
    /// Retired delinquent-load instances this invocation.
    retired: u64,
    total_retired: u64,
    adaptive: AdaptiveDistance,
    issued: u64,
    /// Streams already pushed for the in-progress set (multi-cycle
    /// cluster pushes).
    set_pos: usize,
    /// Sets skipped because IntQ-IS lacked room (lbm's MLP-aware skip).
    sets_skipped: u64,
}

impl Engine {
    fn new(cfg: EngineConfig) -> Engine {
        let n = cfg.base_pcs.len();
        let adaptive = AdaptiveDistance::new(cfg.init_distance, 256);
        Engine {
            cfg,
            bases: vec![None; n],
            count: 0,
            have_count: false,
            next: 0,
            retired: 0,
            total_retired: 0,
            adaptive,
            issued: 0,
            set_pos: 0,
            sets_skipped: 0,
        }
    }

    fn reset_invocation(&mut self) {
        self.next = 0;
        self.retired = 0;
        self.have_count = false;
        for b in &mut self.bases {
            *b = None;
        }
    }

    fn observe(&mut self, pc: u64, value: u64) {
        if let Some(i) = self.cfg.base_pcs.iter().position(|&p| p == pc) {
            if i == 0 {
                self.reset_invocation();
            }
            self.bases[i] = Some(value);
            return;
        }
        if pc == self.cfg.count_pc {
            self.count = value.min(self.cfg.extents.iter().product());
            self.have_count = true;
            return;
        }
        if pc == self.cfg.load_pc {
            self.retired += 1;
            self.total_retired += 1;
        }
    }

    /// Byte offset of flat iteration `f` in the affine space.
    fn offset_of(&self, f: u64) -> i64 {
        let mut rem = f;
        let mut off = 0i64;
        for lvl in (0..self.cfg.extents.len()).rev() {
            let e = self.cfg.extents[lvl].max(1);
            let i = rem % e;
            rem /= e;
            off += i as i64 * self.cfg.strides[lvl];
        }
        off
    }

    fn ready(&self) -> bool {
        self.have_count && self.bases.iter().all(|b| b.is_some())
    }

    fn tick(&mut self, io: &mut FabricIo<'_>) {
        if !self.ready() {
            return;
        }
        if self.cfg.adaptive {
            self.adaptive.observe(io.rf_cycle(), self.total_retired);
        }
        let dist = self.adaptive.distance();
        // A starved engine must not prefetch behind the core: jump the
        // walk forward to the retirement point (stay "just ahead").
        if self.next < self.retired && self.set_pos == 0 {
            self.next = self.retired;
        }
        let horizon = (self.retired + dist).min(self.count);
        let n_streams = self.bases.len() * self.cfg.stream_offsets.len().max(1);
        while self.next < horizon {
            // MLP-aware set push: when starting a set, either the whole
            // cluster fits IntQ-IS or the set is skipped (never split
            // by space; a partial cluster just moves the bottleneck).
            if self.cfg.as_set && self.set_pos == 0 && io.load_queue_space() < n_streams {
                if io.load_queue_space() == 0 {
                    return;
                }
                self.sets_skipped += 1;
                self.next += 1;
                continue;
            }
            let off = self.offset_of(self.next);
            let offsets: &[i64] = if self.cfg.stream_offsets.is_empty() {
                &[0]
            } else {
                &self.cfg.stream_offsets
            };
            let mut flat: Vec<u64> = Vec::with_capacity(n_streams);
            for b in 0..self.bases.len() {
                // pfm-lint: allow(hygiene): set emission starts only once every base is ready
                let base = self.bases[b].expect("ready") as i64;
                for &soff in offsets {
                    // Wrapping: `base` is an observed value, and a
                    // faulty fabric (the chaos harness) can garble it.
                    flat.push(base.wrapping_add(soff).wrapping_add(off) as u64);
                }
            }
            while self.set_pos < flat.len() {
                let addr = flat[self.set_pos];
                if !io.push_load(FabricLoad {
                    id: 0,
                    addr,
                    size: 8,
                    is_prefetch: true,
                }) {
                    return; // width budget: resume the set next cycle
                }
                self.issued += 1;
                self.set_pos += 1;
            }
            self.set_pos = 0;
            self.next += 1;
        }
    }
}

/// Per-component statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrefetcherStats {
    /// Prefetch OPs pushed into IntQ-IS.
    pub prefetches: u64,
    /// Current distance of the first engine (post-adaptation).
    pub distance: u64,
}

/// A custom prefetcher: one or more Prefetch Generation Engines
/// (Figure 16).
pub struct CustomPrefetcher {
    engines: Vec<Engine>,
    name: &'static str,
}

impl std::fmt::Debug for CustomPrefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CustomPrefetcher")
            .field("name", &self.name)
            .finish()
    }
}

impl CustomPrefetcher {
    /// Creates a prefetcher from its engine configurations.
    pub fn new(name: &'static str, engines: Vec<EngineConfig>) -> CustomPrefetcher {
        CustomPrefetcher {
            engines: engines.into_iter().map(Engine::new).collect(),
            name,
        }
    }

    /// Component statistics.
    pub fn stats(&self) -> PrefetcherStats {
        PrefetcherStats {
            prefetches: self.engines.iter().map(|e| e.issued).sum(),
            distance: self
                .engines
                .first()
                .map(|e| e.adaptive.distance())
                .unwrap_or(0),
        }
    }
}

impl CustomComponent for CustomPrefetcher {
    fn tick(&mut self, io: &mut FabricIo<'_>) {
        while let Some(obs) = io.pop_obs() {
            if let ObsPacket::DestValue { pc, value } = obs {
                for e in &mut self.engines {
                    e.observe(pc, value);
                }
            }
        }
        for e in &mut self.engines {
            e.tick(io);
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn watchlist(&self) -> Vec<(u64, WatchKind)> {
        let mut w = Vec::new();
        for e in &self.engines {
            for &pc in &e.cfg.base_pcs {
                w.push((pc, WatchKind::DestValue));
            }
            w.push((e.cfg.count_pc, WatchKind::DestValue));
            w.push((e.cfg.load_pc, WatchKind::Load));
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn stride_cfg() -> EngineConfig {
        EngineConfig {
            base_pcs: vec![0x100],
            count_pc: 0x104,
            load_pc: 0x108,
            extents: vec![1 << 30],
            strides: vec![16],
            stream_offsets: vec![0],
            as_set: false,
            adaptive: false,
            init_distance: 8,
        }
    }

    fn tick(
        c: &mut CustomPrefetcher,
        obs: &mut VecDeque<ObsPacket>,
        width: usize,
        rf: u64,
    ) -> Vec<FabricLoad> {
        let mut resp = VecDeque::new();
        let mut preds = Vec::new();
        let mut loads = Vec::new();
        {
            let mut io = FabricIo::new(width, rf, obs, &mut resp, &mut preds, &mut loads, 64, 64);
            c.tick(&mut io);
        }
        loads
    }

    #[test]
    fn strided_prefetches_run_distance_ahead() {
        let mut c = CustomPrefetcher::new("libq", vec![stride_cfg()]);
        let mut obs = VecDeque::new();
        obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0x10_0000,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 1000,
        });
        let loads = tick(&mut c, &mut obs, 8, 1);
        // Distance 8, nothing retired: exactly 8 prefetches, stride 16.
        assert_eq!(loads.len(), 8);
        assert!(loads.iter().all(|l| l.is_prefetch));
        assert_eq!(loads[0].addr, 0x10_0000);
        assert_eq!(loads[1].addr, 0x10_0010);
        // Retire 3 instances: 3 more prefetches.
        for _ in 0..3 {
            obs.push_back(ObsPacket::DestValue {
                pc: 0x108,
                value: 0,
            });
        }
        let loads = tick(&mut c, &mut obs, 8, 2);
        assert_eq!(loads.len(), 3);
        assert_eq!(loads[0].addr, 0x10_0000 + 8 * 16);
    }

    #[test]
    fn walk_stops_at_count() {
        let mut cfg = stride_cfg();
        cfg.init_distance = 100;
        let mut c = CustomPrefetcher::new("libq", vec![cfg]);
        let mut obs = VecDeque::new();
        obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0x10_0000,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 5,
        });
        let mut total = 0;
        for rf in 1..10 {
            total += tick(&mut c, &mut obs, 16, rf).len();
        }
        assert_eq!(total, 5);
    }

    #[test]
    fn nested_loop_addresses_follow_the_affine_space() {
        // Two-level nest: outer extent 3 stride 1000, inner extent 2
        // stride 8 (like a bwaves plane walk).
        let cfg = EngineConfig {
            base_pcs: vec![0x100],
            count_pc: 0x104,
            load_pc: 0x108,
            extents: vec![3, 2],
            strides: vec![1000, 8],
            stream_offsets: vec![0],
            as_set: false,
            adaptive: false,
            init_distance: 6,
        };
        let mut c = CustomPrefetcher::new("bwaves", vec![cfg]);
        let mut obs = VecDeque::new();
        obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 6,
        });
        let loads = tick(&mut c, &mut obs, 8, 1);
        let addrs: Vec<u64> = loads.iter().map(|l| l.addr).collect();
        assert_eq!(addrs, vec![0, 8, 1000, 1008, 2000, 2008]);
    }

    #[test]
    fn cluster_pushes_as_complete_sets() {
        let cfg = EngineConfig {
            base_pcs: vec![0x100, 0x110, 0x120],
            count_pc: 0x104,
            load_pc: 0x108,
            extents: vec![100],
            strides: vec![64],
            stream_offsets: vec![0],
            as_set: true,
            adaptive: false,
            init_distance: 10,
        };
        let mut c = CustomPrefetcher::new("lbm", vec![cfg]);
        let mut obs = VecDeque::new();
        obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0x1000,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x110,
            value: 0x2000,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x120,
            value: 0x3000,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 100,
        });
        // Width 4 allows one full set (3) plus the start of the next.
        let loads = tick(&mut c, &mut obs, 4, 1);
        assert_eq!(loads[0].addr, 0x1000);
        assert_eq!(loads[1].addr, 0x2000);
        assert_eq!(loads[2].addr, 0x3000);
        // A narrow width spreads a set across cycles but never
        // interleaves sets: the next ticks finish set 1 then walk set 2
        // in stream order.
        let mut all = loads;
        for rf in 2..12 {
            all.extend(tick(&mut c, &mut obs, 2, rf));
        }
        for (i, l) in all.iter().enumerate() {
            let set = i / 3;
            let stream = i % 3;
            assert_eq!(
                l.addr,
                0x1000 + stream as u64 * 0x1000 + set as u64 * 64,
                "load {i}"
            );
        }
    }

    #[test]
    fn adaptive_distance_hill_climbs() {
        let mut a = AdaptiveDistance::new(8, 10);
        let mut count = 0u64;
        // Improving epochs: distance should grow.
        for epoch in 1..6 {
            count += 100 + epoch * 10;
            a.observe(epoch * 10, count);
        }
        assert!(
            a.distance() > 8,
            "distance should grow, got {}",
            a.distance()
        );
        let peak = a.distance();
        // Degrading epochs: it should back off.
        for epoch in 6..12 {
            count += 500 - epoch * 40;
            a.observe(epoch * 10, count);
        }
        assert!(
            a.distance() < peak,
            "distance should back off from {peak}, got {}",
            a.distance()
        );
        assert!(a.distance() >= 1);
    }

    #[test]
    fn new_invocation_resets_the_walk() {
        let mut c = CustomPrefetcher::new("libq", vec![stride_cfg()]);
        let mut obs = VecDeque::new();
        obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0x10_0000,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 1000,
        });
        tick(&mut c, &mut obs, 8, 1);
        // New call with a different base.
        obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0x40_0000,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 1000,
        });
        let loads = tick(&mut c, &mut obs, 8, 2);
        assert_eq!(loads[0].addr, 0x40_0000);
    }
}
