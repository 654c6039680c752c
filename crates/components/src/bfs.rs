//! The custom *bfs* component of §4.2 (Figure 11): four decoupled
//! engines achieving high memory-level parallelism on load-dependent
//! loads, plus custom predictions for the two hard branches.
//!
//! * **T0** maintains a sliding window over the program's global
//!   frontier ("frontier queue").
//! * **T1** pops a node id `u` and loads `offsets[u]` and
//!   `offsets[u+1]`, producing the first-neighbor address and the
//!   trip count `b - a`.
//! * **T2** loads all of `u`'s neighbors and supplies trip-count
//!   predictions for the neighbor-loop branch.
//! * **T3** loads each neighbor's visited-ness property and predicts
//!   the visited branch, inferring unretired visited-stores by
//!   searching the neighbor window for prior instances of the same
//!   neighbor (the paper's presence rule).

use pfm_fabric::{CustomComponent, FabricIo, FabricLoad, ObsPacket, PredPacket, WatchKind};
use std::collections::{BTreeMap, VecDeque};

/// Static configuration for the bfs component.
#[derive(Clone, Debug)]
pub struct BfsConfig {
    /// PC whose destination value is the frontier base (per level).
    pub frontier_base_pc: u64,
    /// PC whose destination value is the frontier length.
    pub frontier_len_pc: u64,
    /// PC of the outer-loop induction increment (commit head advance).
    pub induction_pc: u64,
    /// CSR offsets array base (8 bytes per node, `n + 1` entries).
    pub offsets_base: u64,
    /// CSR neighbors array base (4 bytes per edge).
    pub neighbors_base: u64,
    /// Properties / parent array base (8 bytes per node; negative =
    /// unvisited).
    pub properties_base: u64,
    /// PC of the neighbor-loop branch (taken = exit loop).
    pub loop_branch_pc: u64,
    /// PC of the visited branch (taken = already visited, skip).
    pub visited_branch_pc: u64,
    /// Frontier-window entries (the paper sweeps 16..128; default 64).
    pub window_size: usize,
    /// Infer unretired visited-stores via the neighbor-window search.
    pub dup_inference: bool,
    /// Predict the neighbor-loop branch from trip counts.
    pub predict_loop: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LoadTag {
    Frontier { slot: u64 },
    OffsetA { slot: u64 },
    OffsetB { slot: u64 },
    Neighbor { slot: u64, j: u64 },
    Property { slot: u64, j: u64 },
}

#[derive(Clone, Debug)]
struct NodeEntry {
    u: Option<u64>,
    off_a: Option<u64>,
    off_b: Option<u64>,
    off_a_issued: bool,
    off_b_issued: bool,
    trip: Option<u64>,
    neighbors: Vec<Option<u32>>,
    props: Vec<Option<i64>>,
    nbr_issued: u64,
    prop_issued: u64,
}

impl NodeEntry {
    fn new() -> NodeEntry {
        NodeEntry {
            u: None,
            off_a: None,
            off_b: None,
            off_a_issued: false,
            off_b_issued: false,
            trip: None,
            neighbors: Vec::new(),
            props: Vec::new(),
            nbr_issued: 0,
            prop_issued: 0,
        }
    }
}

/// Per-component statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct BfsComponentStats {
    /// Frontier levels observed.
    pub levels: u64,
    /// Frontier nodes processed.
    pub nodes: u64,
    /// Predictions emitted.
    pub predictions: u64,
    /// Visited predictions overridden by the duplicate-neighbor rule.
    pub dup_overrides: u64,
}

/// The custom bfs component (Figure 11).
pub struct BfsComponent {
    cfg: BfsConfig,
    frontier_base: u64,
    frontier_len: u64,
    have_level: bool,

    commit_u: u64,
    alloc_u: u64,
    t1_u: u64,
    t2_u: u64,
    t3_u: u64,
    emit_u: u64,
    emit_j: u64,
    /// Emission sub-state: loop-branch prediction for (emit_u, emit_j)
    /// already pushed, visited pending.
    emit_loop_done: bool,

    base_u: u64,
    window: VecDeque<NodeEntry>,

    /// Emitted-but-recently-unretired neighbor multiset (the paper's
    /// neighbor queue search).
    seen: BTreeMap<u32, u32>,
    /// Per-node emitted neighbors, decremented `window` nodes after
    /// retirement.
    seen_log: VecDeque<(u64, Vec<u32>)>,

    next_id: u64,
    tags: BTreeMap<u64, LoadTag>,
    gen: u64,

    stats: BfsComponentStats,
}

impl std::fmt::Debug for BfsComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BfsComponent{{have={} len={} commit={} alloc={} t1={} t2={} t3={} emit=({},{}) base={} window={} tags={} seen={} stats={:?}}}",
            self.have_level,
            self.frontier_len,
            self.commit_u,
            self.alloc_u,
            self.t1_u,
            self.t2_u,
            self.t3_u,
            self.emit_u,
            self.emit_j,
            self.base_u,
            self.window.len(),
            self.tags.len(),
            self.seen.len(),
            self.stats
        )
    }
}

impl BfsComponent {
    /// Creates the component from its configuration.
    pub fn new(cfg: BfsConfig) -> BfsComponent {
        BfsComponent {
            cfg,
            frontier_base: 0,
            frontier_len: 0,
            have_level: false,
            commit_u: 0,
            alloc_u: 0,
            t1_u: 0,
            t2_u: 0,
            t3_u: 0,
            emit_u: 0,
            emit_j: 0,
            emit_loop_done: false,
            base_u: 0,
            window: VecDeque::new(),
            seen: BTreeMap::new(),
            seen_log: VecDeque::new(),
            next_id: 0,
            tags: BTreeMap::new(),
            gen: 0,
            stats: BfsComponentStats::default(),
        }
    }

    /// Component statistics.
    pub fn stats(&self) -> &BfsComponentStats {
        &self.stats
    }

    fn reset_level(&mut self) {
        self.gen += 1;
        self.have_level = false;
        self.commit_u = 0;
        self.alloc_u = 0;
        self.t1_u = 0;
        self.t2_u = 0;
        self.t3_u = 0;
        self.emit_u = 0;
        self.emit_j = 0;
        self.emit_loop_done = false;
        self.base_u = 0;
        self.window.clear();
        self.seen.clear();
        self.seen_log.clear();
        self.tags.clear();
    }

    fn alloc_id(&mut self, tag: LoadTag) -> u64 {
        self.next_id += 1;
        let id = (self.gen << 40) | self.next_id;
        self.tags.insert(id, tag);
        id
    }

    fn slot(&self, u: u64) -> Option<&NodeEntry> {
        if u < self.base_u {
            return None;
        }
        self.window.get((u - self.base_u) as usize)
    }

    fn slot_mut(&mut self, u: u64) -> Option<&mut NodeEntry> {
        if u < self.base_u {
            return None;
        }
        let base = self.base_u;
        self.window.get_mut((u - base) as usize)
    }

    fn retire_node(&mut self) {
        self.commit_u += 1;
        // The base follows the commit head even past nodes T0 never
        // allocated (the core ran ahead on fallback predictions), so the
        // bumps below skip what the core retired first.
        while self.base_u < self.commit_u {
            self.window.pop_front();
            self.base_u += 1;
        }
        // Engine pointers must never dangle below the window base: the
        // duplicate-inference rule lets emission (and hence retirement)
        // pass nodes whose property loads were never needed.
        if self.t1_u < self.base_u {
            self.t1_u = self.base_u;
        }
        if self.t2_u < self.base_u {
            self.t2_u = self.base_u;
        }
        if self.t3_u < self.base_u {
            self.t3_u = self.base_u;
        }
        if self.alloc_u < self.base_u {
            self.alloc_u = self.base_u;
        }
        if self.emit_u < self.base_u {
            self.emit_u = self.base_u;
            self.emit_j = 0;
            self.emit_loop_done = false;
        }
        // The duplicate-neighbor search set keeps entries one extra
        // window beyond retirement: property loads issued before the
        // visited-store committed may be converted into predictions
        // after it retires, and visited-ness is sticky, so the longer
        // lifetime is always safe.
        let margin = self.cfg.window_size as u64;
        while let Some(&(u, _)) = self.seen_log.front() {
            if u + margin >= self.commit_u {
                break;
            }
            // pfm-lint: allow(hygiene): front() just returned Some
            let (_, nbrs) = self.seen_log.pop_front().expect("non-empty");
            for v in nbrs {
                if let Some(c) = self.seen.get_mut(&v) {
                    *c -= 1;
                    if *c == 0 {
                        self.seen.remove(&v);
                    }
                }
            }
        }
    }

    fn consume_observations(&mut self, io: &mut FabricIo<'_>) {
        while let Some(obs) = io.pop_obs() {
            if let ObsPacket::DestValue { pc, value } = obs {
                if pc == self.cfg.frontier_base_pc {
                    self.reset_level();
                    self.frontier_base = value;
                } else if pc == self.cfg.frontier_len_pc {
                    self.frontier_len = value;
                    self.have_level = true;
                    self.stats.levels += 1;
                } else if pc == self.cfg.induction_pc {
                    self.retire_node();
                }
            }
        }
    }

    fn consume_load_responses(&mut self, io: &mut FabricIo<'_>) {
        while let Some(resp) = io.pop_load_resp() {
            let Some(tag) = self.tags.remove(&resp.id) else {
                continue;
            };
            match tag {
                LoadTag::Frontier { slot } => {
                    if let Some(e) = self.slot_mut(slot) {
                        e.u = Some(resp.value);
                    }
                }
                LoadTag::OffsetA { slot } => {
                    if let Some(e) = self.slot_mut(slot) {
                        e.off_a = Some(resp.value);
                    }
                    self.try_trip(slot);
                }
                LoadTag::OffsetB { slot } => {
                    if let Some(e) = self.slot_mut(slot) {
                        e.off_b = Some(resp.value);
                    }
                    self.try_trip(slot);
                }
                LoadTag::Neighbor { slot, j } => {
                    if let Some(e) = self.slot_mut(slot) {
                        if let Some(n) = e.neighbors.get_mut(j as usize) {
                            *n = Some(resp.value as u32);
                        }
                    }
                }
                LoadTag::Property { slot, j } => {
                    if let Some(e) = self.slot_mut(slot) {
                        if let Some(p) = e.props.get_mut(j as usize) {
                            *p = Some(resp.value as i64);
                        }
                    }
                }
            }
        }
    }

    fn try_trip(&mut self, slot: u64) {
        if let Some(e) = self.slot_mut(slot) {
            if let (Some(a), Some(b)) = (e.off_a, e.off_b) {
                if e.trip.is_none() {
                    let trip = b.saturating_sub(a);
                    e.trip = Some(trip);
                    e.neighbors = vec![None; trip as usize];
                    e.props = vec![None; trip as usize];
                }
            }
        }
    }

    /// T0: slide the frontier window forward.
    fn t0(&mut self, io: &mut FabricIo<'_>) {
        if !self.have_level {
            return;
        }
        while self.alloc_u < self.frontier_len
            && ((self.alloc_u - self.base_u) as usize) < self.cfg.window_size
        {
            let addr = self.frontier_base + 4 * self.alloc_u;
            let id = self.alloc_id(LoadTag::Frontier { slot: self.alloc_u });
            if !io.push_load(FabricLoad {
                id,
                addr,
                size: 4,
                is_prefetch: false,
            }) {
                self.tags.remove(&id);
                return;
            }
            self.window.push_back(NodeEntry::new());
            self.alloc_u += 1;
        }
    }

    /// T1: offsets loads for the next node in order. Each half of the
    /// pair is tracked separately so a tight width budget never
    /// re-issues (or live-locks on) the first half.
    fn t1(&mut self, io: &mut FabricIo<'_>) {
        while self.t1_u < self.alloc_u {
            let Some(e) = self.slot(self.t1_u) else {
                return;
            };
            if e.off_a_issued && e.off_b_issued {
                self.t1_u += 1;
                continue;
            }
            let Some(u) = e.u else { return };
            let base = self.cfg.offsets_base;
            if !e.off_a_issued {
                let a_id = self.alloc_id(LoadTag::OffsetA { slot: self.t1_u });
                if !io.push_load(FabricLoad {
                    id: a_id,
                    // Wrapping address math here and below: `u`, `a`
                    // and `v` come from load responses, and a faulty
                    // fabric (the chaos harness) can return garbage.
                    // Hardware adders wrap; wild addresses just miss.
                    addr: base.wrapping_add(u.wrapping_mul(8)),
                    size: 8,
                    is_prefetch: false,
                }) {
                    self.tags.remove(&a_id);
                    return;
                }
                let slot = self.t1_u;
                if let Some(e) = self.slot_mut(slot) {
                    e.off_a_issued = true;
                }
            }
            let b_pending = self.slot(self.t1_u).is_some_and(|e| !e.off_b_issued);
            if b_pending {
                let b_id = self.alloc_id(LoadTag::OffsetB { slot: self.t1_u });
                if !io.push_load(FabricLoad {
                    id: b_id,
                    addr: base.wrapping_add(u.wrapping_add(1).wrapping_mul(8)),
                    size: 8,
                    is_prefetch: false,
                }) {
                    self.tags.remove(&b_id);
                    return; // finish the pair next cycle
                }
                let slot = self.t1_u;
                if let Some(e) = self.slot_mut(slot) {
                    e.off_b_issued = true;
                }
            }
            self.t1_u += 1;
        }
    }

    /// T2: neighbor loads.
    fn t2(&mut self, io: &mut FabricIo<'_>) {
        while self.t2_u < self.alloc_u {
            let Some(e) = self.slot(self.t2_u) else {
                return;
            };
            let (Some(trip), Some(a)) = (e.trip, e.off_a) else {
                return;
            };
            if e.nbr_issued >= trip {
                self.t2_u += 1;
                continue;
            }
            let j = e.nbr_issued;
            let addr = self
                .cfg
                .neighbors_base
                .wrapping_add(a.wrapping_add(j).wrapping_mul(4));
            let id = self.alloc_id(LoadTag::Neighbor { slot: self.t2_u, j });
            if !io.push_load(FabricLoad {
                id,
                addr,
                size: 4,
                is_prefetch: false,
            }) {
                self.tags.remove(&id);
                return;
            }
            if let Some(e) = self.slot_mut(self.t2_u) {
                e.nbr_issued += 1;
            }
        }
    }

    /// T3: visited-ness property loads.
    fn t3(&mut self, io: &mut FabricIo<'_>) {
        while self.t3_u < self.alloc_u {
            let Some(e) = self.slot(self.t3_u) else {
                return;
            };
            let Some(trip) = e.trip else { return };
            if e.prop_issued >= trip {
                self.t3_u += 1;
                continue;
            }
            let j = e.prop_issued;
            let Some(Some(v)) = e.neighbors.get(j as usize).copied() else {
                return;
            };
            let addr = self
                .cfg
                .properties_base
                .wrapping_add((v as u64).wrapping_mul(8));
            let id = self.alloc_id(LoadTag::Property { slot: self.t3_u, j });
            if !io.push_load(FabricLoad {
                id,
                addr,
                size: 8,
                is_prefetch: false,
            }) {
                self.tags.remove(&id);
                return;
            }
            if let Some(e) = self.slot_mut(self.t3_u) {
                e.prop_issued += 1;
            }
        }
    }

    /// Interleaved emission of loop-branch and visited-branch
    /// predictions in program order.
    fn emit(&mut self, io: &mut FabricIo<'_>) {
        loop {
            if self.emit_u >= self.frontier_len || self.emit_u >= self.alloc_u {
                return;
            }
            let (trip, v, prop) = {
                let Some(e) = self.slot(self.emit_u) else {
                    return;
                };
                let Some(trip) = e.trip else { return };
                let v = e.neighbors.get(self.emit_j as usize).copied().flatten();
                let prop = e.props.get(self.emit_j as usize).copied().flatten();
                (trip, v, prop)
            };

            if self.emit_j >= trip {
                // Loop-exit prediction, then next node.
                if self.cfg.predict_loop {
                    if !io.push_pred(PredPacket {
                        pc: self.cfg.loop_branch_pc,
                        taken: true,
                    }) {
                        return;
                    }
                    self.stats.predictions += 1;
                }
                self.emit_u += 1;
                self.emit_j = 0;
                self.emit_loop_done = false;
                self.stats.nodes += 1;
                continue;
            }

            if !self.emit_loop_done {
                if self.cfg.predict_loop {
                    if !io.push_pred(PredPacket {
                        pc: self.cfg.loop_branch_pc,
                        taken: false,
                    }) {
                        return;
                    }
                    self.stats.predictions += 1;
                }
                self.emit_loop_done = true;
            }

            // Visited prediction needs the neighbor id; the property
            // value is needed only when the duplicate rule doesn't fire.
            let Some(v) = v else { return };
            let dup = self.cfg.dup_inference && self.seen.contains_key(&v);
            let taken = if dup {
                self.stats.dup_overrides += 1;
                true
            } else {
                let Some(p) = prop else { return };
                p >= 0
            };
            if !io.push_pred(PredPacket {
                pc: self.cfg.visited_branch_pc,
                taken,
            }) {
                return;
            }
            self.stats.predictions += 1;
            *self.seen.entry(v).or_insert(0) += 1;
            match self.seen_log.back_mut() {
                Some((u, nbrs)) if *u == self.emit_u => nbrs.push(v),
                _ => self.seen_log.push_back((self.emit_u, vec![v])),
            }
            self.emit_j += 1;
            self.emit_loop_done = false;
        }
    }
}

impl CustomComponent for BfsComponent {
    fn tick(&mut self, io: &mut FabricIo<'_>) {
        self.consume_observations(io);
        self.consume_load_responses(io);
        self.emit(io);
        self.t3(io);
        self.t2(io);
        self.t1(io);
        self.t0(io);
    }

    fn name(&self) -> &'static str {
        "bfs-custom"
    }

    fn debug_state(&self) -> String {
        format!("{self:?}")
    }

    fn watchlist(&self) -> Vec<(u64, WatchKind)> {
        vec![
            (self.cfg.frontier_base_pc, WatchKind::DestValue),
            (self.cfg.frontier_len_pc, WatchKind::DestValue),
            (self.cfg.induction_pc, WatchKind::DestValue),
            // The trip-count predictor's target controls the neighbor
            // loop; the dominator analysis must agree it is loop
            // control, not just any branch.
            (self.cfg.loop_branch_pc, WatchKind::LoopBranch),
            (self.cfg.visited_branch_pc, WatchKind::CondBranch),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfm_fabric::LoadResponse;

    fn cfg() -> BfsConfig {
        BfsConfig {
            frontier_base_pc: 0x100,
            frontier_len_pc: 0x104,
            induction_pc: 0x108,
            offsets_base: 0x100_0000,
            neighbors_base: 0x200_0000,
            properties_base: 0x300_0000,
            loop_branch_pc: 0x400,
            visited_branch_pc: 0x410,
            window_size: 64,
            dup_inference: true,
            predict_loop: true,
        }
    }

    struct Harness {
        obs: std::collections::VecDeque<ObsPacket>,
        resp: std::collections::VecDeque<LoadResponse>,
        preds: Vec<PredPacket>,
        loads: Vec<FabricLoad>,
    }

    impl Harness {
        fn new() -> Harness {
            Harness {
                obs: Default::default(),
                resp: Default::default(),
                preds: Vec::new(),
                loads: Vec::new(),
            }
        }

        fn tick(&mut self, c: &mut BfsComponent, width: usize) {
            let mut preds = Vec::new();
            let mut loads = Vec::new();
            {
                let mut io = FabricIo::new(
                    width,
                    0,
                    &mut self.obs,
                    &mut self.resp,
                    &mut preds,
                    &mut loads,
                    256,
                    256,
                );
                c.tick(&mut io);
            }
            self.preds.extend(preds);
            self.loads.extend(loads);
        }
    }

    /// A tiny in-memory graph the harness answers loads from.
    struct MiniGraph {
        offsets: Vec<u64>,
        neighbors: Vec<u32>,
        props: Vec<i64>,
    }

    impl MiniGraph {
        fn answer(&self, c: &mut BfsComponent, h: &mut Harness, frontier: &[u32]) {
            let pending: Vec<(u64, LoadTag)> = h
                .loads
                .iter()
                .filter_map(|l| c.tags.get(&l.id).map(|t| (l.id, *t)))
                .collect();
            for (id, tag) in pending {
                let cfgv = &c.cfg;
                let value = match tag {
                    LoadTag::Frontier { slot } => frontier[slot as usize] as u64,
                    LoadTag::OffsetA { .. } | LoadTag::OffsetB { .. } => {
                        // Recover u from the original address.
                        let l = h.loads.iter().find(|l| l.id == id).unwrap();
                        let u = (l.addr - cfgv.offsets_base) / 8;
                        self.offsets[u as usize]
                    }
                    LoadTag::Neighbor { .. } => {
                        let l = h.loads.iter().find(|l| l.id == id).unwrap();
                        let e = (l.addr - cfgv.neighbors_base) / 4;
                        self.neighbors[e as usize] as u64
                    }
                    LoadTag::Property { .. } => {
                        let l = h.loads.iter().find(|l| l.id == id).unwrap();
                        let v = (l.addr - cfgv.properties_base) / 8;
                        self.props[v as usize] as u64
                    }
                };
                h.resp.push_back(LoadResponse { id, value });
            }
        }
    }

    #[test]
    fn emits_trip_count_and_visited_predictions_in_program_order() {
        // Frontier = [node 0]; node 0 has neighbors [5, 6]; 5 is
        // visited (prop >= 0), 6 is not.
        let g = MiniGraph {
            offsets: vec![0, 2],
            neighbors: vec![5, 6],
            props: vec![-1; 10]
                .into_iter()
                .enumerate()
                .map(|(i, p)| if i == 5 { 0 } else { p })
                .collect(),
        };
        let mut c = BfsComponent::new(cfg());
        let mut h = Harness::new();
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0x500_0000,
        });
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 1,
        });
        for _ in 0..30 {
            h.tick(&mut c, 8);
            g.answer(&mut c, &mut h, &[0]);
        }
        let expect = vec![
            PredPacket {
                pc: 0x400,
                taken: false,
            }, // j=0 continue
            PredPacket {
                pc: 0x410,
                taken: true,
            }, // v=5 visited
            PredPacket {
                pc: 0x400,
                taken: false,
            }, // j=1 continue
            PredPacket {
                pc: 0x410,
                taken: false,
            }, // v=6 unvisited
            PredPacket {
                pc: 0x400,
                taken: true,
            }, // exit
        ];
        assert_eq!(h.preds, expect);
        assert_eq!(c.stats().nodes, 1);
    }

    #[test]
    fn duplicate_neighbor_inferred_visited() {
        // Two frontier nodes both pointing at neighbor 7 (unvisited in
        // memory): the second visit must be predicted taken via the
        // window search.
        let g = MiniGraph {
            offsets: vec![0, 1, 2],
            neighbors: vec![7, 7],
            props: vec![-1; 10],
        };
        let mut c = BfsComponent::new(cfg());
        let mut h = Harness::new();
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0x500_0000,
        });
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 2,
        });
        for _ in 0..40 {
            h.tick(&mut c, 8);
            g.answer(&mut c, &mut h, &[0, 1]);
        }
        let visited: Vec<_> = h.preds.iter().filter(|p| p.pc == 0x410).collect();
        assert_eq!(visited.len(), 2);
        assert!(!visited[0].taken, "first visit enters");
        assert!(visited[1].taken, "second visit inferred visited");
        assert_eq!(c.stats().dup_overrides, 1);
    }

    #[test]
    fn no_dup_inference_repeats_the_mistake() {
        let g = MiniGraph {
            offsets: vec![0, 1, 2],
            neighbors: vec![7, 7],
            props: vec![-1; 10],
        };
        let mut config = cfg();
        config.dup_inference = false;
        let mut c = BfsComponent::new(config);
        let mut h = Harness::new();
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0x500_0000,
        });
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 2,
        });
        for _ in 0..40 {
            h.tick(&mut c, 8);
            g.answer(&mut c, &mut h, &[0, 1]);
        }
        let visited: Vec<_> = h.preds.iter().filter(|p| p.pc == 0x410).collect();
        assert!(
            !visited[1].taken,
            "without inference the stale property wins"
        );
    }

    #[test]
    fn zero_degree_node_emits_single_exit_prediction() {
        let g = MiniGraph {
            offsets: vec![0, 0],
            neighbors: vec![],
            props: vec![-1; 4],
        };
        let mut c = BfsComponent::new(cfg());
        let mut h = Harness::new();
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0x500_0000,
        });
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 1,
        });
        for _ in 0..20 {
            h.tick(&mut c, 8);
            g.answer(&mut c, &mut h, &[0]);
        }
        assert_eq!(
            h.preds,
            vec![PredPacket {
                pc: 0x400,
                taken: true
            }]
        );
    }

    #[test]
    fn t0_skips_nodes_the_core_retired_first() {
        // Two frontier nodes retire before T0 allocated any: T0 must
        // start at frontier[2], not load (and predict) retired nodes.
        let mut c = BfsComponent::new(cfg());
        let mut h = Harness::new();
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0x500_0000,
        });
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 4,
        });
        for i in 1..=2 {
            h.obs.push_back(ObsPacket::DestValue {
                pc: 0x108,
                value: i,
            });
        }
        h.tick(&mut c, 8);
        let addrs: Vec<u64> = h.loads.iter().map(|l| l.addr).collect();
        assert_eq!(addrs, vec![0x500_0000 + 4 * 2, 0x500_0000 + 4 * 3]);
    }

    #[test]
    fn retirement_frees_window_and_seen_set() {
        let g = MiniGraph {
            offsets: vec![0, 1, 2],
            neighbors: vec![7, 7],
            props: vec![-1; 10],
        };
        let mut c = BfsComponent::new(cfg());
        let mut h = Harness::new();
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0x500_0000,
        });
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 2,
        });
        for _ in 0..40 {
            h.tick(&mut c, 8);
            g.answer(&mut c, &mut h, &[0, 1]);
        }
        assert!(c.seen.contains_key(&7));
        // The set persists for `window` extra retirements (sticky
        // visited-ness), so retire window+2 nodes.
        for i in 0..(c.cfg.window_size as u64 + 2) {
            h.obs.push_back(ObsPacket::DestValue {
                pc: 0x108,
                value: i,
            });
        }
        for _ in 0..20 {
            h.tick(&mut c, 8);
        }
        assert!(
            !c.seen.contains_key(&7),
            "old entries leave the search window"
        );
        assert!(c.base_u >= 2);
    }
}
