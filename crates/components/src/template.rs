//! The templated run-ahead engine — the paper's §7 future work, and
//! the one engine behind the astar use cases.
//!
//! §7: "the astar and bfs designs presented in this paper follow a
//! similar strategy. If this could be templated, it suggests a path
//! toward automation." A [`TemplateSpec`] declares one design of that
//! family, which
//!
//! 1. walks an input worklist ahead of the core (T0),
//! 2. fans each element out into a fixed set of derived loads (T1),
//! 3. converts loaded values into branch predictions (T2), and
//! 4. infers not-yet-retired stores via a sticky "recently predicted
//!    entered" set (astar's index1_CAM).
//!
//! [`spec_from_profile`] derives the spec from static analysis alone;
//! for astar's ROI it equals the spec the astar use case runs. The
//! engine runs Figure 7's synthesized design cycle for cycle, and
//! slipstream's restricted form of it is a spec transform
//! ([`crate::slipstream`]). bfs's neighbor loop has data-dependent trip
//! counts the template cannot express, so [`crate::bfs::BfsComponent`]
//! stays separate.

use pfm_fabric::{CustomComponent, FabricIo, FabricLoad, ObsPacket, PredPacket, WatchKind};
use std::collections::{BTreeMap, VecDeque};

/// Worklist loads T0 issues per RF cycle, as in Figure 7's synthesized
/// design.
const T0_LOADS_PER_CYCLE: usize = 1;
/// Lane groups T1 completes per RF cycle: Figure 7's synthesized design
/// handles "two index1s / four loads per RF cycle".
const T1_GROUPS_PER_CYCLE: usize = 2;

/// A load id packs the call generation (bits 40..64), the iteration
/// (bits 16..40) and the lane + 1 (bits 0..16; 0 is T0's worklist
/// load), so a response finds its slot without a lookup table.
const ID_GEN_SHIFT: u32 = 40;
const ID_ITER_SHIFT: u32 = 16;

/// How a derived lane turns its loaded value into a branch predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Predicate {
    /// Taken iff the loaded value equals the snooped tag (astar's
    /// `waymap[index1].fillnum != fillnum` visited test).
    EqualsTag,
    /// Taken iff the loaded value is non-zero (astar's
    /// `maparp[index1] == 0` obstacle test).
    NonZero,
    /// Taken iff the loaded value, sign-extended, is non-negative
    /// (bfs-style `parent[v] >= 0` visited test).
    NonNegative,
}

impl Predicate {
    fn eval(self, value: u64, size: u64, tag: u64) -> bool {
        match self {
            Predicate::EqualsTag => value == tag,
            Predicate::NonZero => value != 0,
            Predicate::NonNegative => {
                let shift = 64 - 8 * size;
                (((value << shift) as i64) >> shift) >= 0
            }
        }
    }
}

/// One derived load + prediction lane: for worklist element `x`, load
/// `table_base + (x + offset) * elem_scale + elem_offset` and emit a
/// prediction for `branch_pc`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneSpec {
    /// Added to the worklist element before scaling (astar's neighbor
    /// offsets).
    pub offset: i64,
    /// Table base address.
    pub table_base: u64,
    /// Bytes per table element.
    pub elem_scale: u64,
    /// Byte offset within the element.
    pub elem_offset: i64,
    /// Load size in bytes.
    pub size: u64,
    /// Branch this lane predicts.
    pub branch_pc: u64,
    /// Predicate mapping the value to a direction.
    pub predicate: Predicate,
    /// A taken prediction from this lane skips the rest of the
    /// element's lane group (astar: visited ⇒ the maparp branch is
    /// never fetched).
    pub taken_skips_group: bool,
    /// Group id: lanes with the same group form a short-circuit chain
    /// in order.
    pub group: u32,
    /// When the whole group predicts not-taken, record the derived
    /// index as "entered" (sticky-visited inference) and override
    /// future first-lane predictions for it to taken.
    pub infer_store_on_all_not_taken: bool,
    /// Send this lane's prediction. A non-predicting lane still loads,
    /// and emission waits for its value before moving on (slipstream's
    /// maparp lanes, whose branches are left to the core predictor).
    pub predict: bool,
}

impl LaneSpec {
    /// The derived index for worklist element `index`. Wrapping:
    /// `index` is a load response, and a faulty fabric (the chaos
    /// harness) can return garbage. Hardware adders wrap; the wild
    /// address simply misses in the cache.
    fn key(&self, index: u64) -> u64 {
        (index as i64).wrapping_add(self.offset) as u64
    }

    fn addr(&self, key: u64) -> u64 {
        (self.table_base as i64)
            .wrapping_add((key as i64).wrapping_mul(self.elem_scale as i64))
            .wrapping_add(self.elem_offset) as u64
    }
}

/// The declarative component description (the artifact a generator
/// would emit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TemplateSpec {
    /// PC whose destination value is the sticky tag (astar's fillnum).
    pub tag_pc: u64,
    /// PC whose destination value is the worklist base.
    pub wl_base_pc: u64,
    /// PC whose destination value is the worklist length.
    pub wl_len_pc: u64,
    /// PC of the induction increment (commit-head advance).
    pub induction_pc: u64,
    /// Worklist element size in bytes.
    pub wl_elem_size: u64,
    /// The derived lanes, in program order.
    pub lanes: Vec<LaneSpec>,
    /// Speculative scope (worklist elements in flight; astar's
    /// index_queue size).
    pub scope: usize,
}

#[derive(Clone, Debug)]
struct IterState {
    index: Option<u64>,
    values: Vec<Option<u64>>,
}

/// The instantiated template component.
pub struct TemplateComponent {
    spec: TemplateSpec,
    tag: u64,
    wl_base: u64,
    wl_len: u64,
    have_call: bool,
    /// Call generation, modulo the id's 24-bit field.
    call_gen: u64,

    /// Absolute iteration numbers, `base ≤ emit ≤ issue ≤ alloc`, with
    /// lane cursors for the partially issued and emitted iterations.
    /// `base_iter` is also the commit head: the window holds
    /// iterations `[base_iter, alloc_iter)`.
    base_iter: u64,
    alloc_iter: u64,
    issue_iter: u64,
    issue_lane: usize,
    emit_iter: u64,
    emit_lane: usize,
    window: VecDeque<IterState>,

    /// Sticky entered-set (the generalized index1_CAM): derived index
    /// -> inserting iteration.
    entered: BTreeMap<u64, u64>,
}

impl std::fmt::Debug for TemplateComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateComponent")
            .field("lanes", &self.spec.lanes.len())
            .field("scope", &self.spec.scope)
            .finish()
    }
}

impl TemplateComponent {
    /// Instantiates the template.
    pub fn new(spec: TemplateSpec) -> TemplateComponent {
        TemplateComponent {
            spec,
            tag: 0,
            wl_base: 0,
            wl_len: 0,
            have_call: false,
            call_gen: 0,
            base_iter: 0,
            alloc_iter: 0,
            issue_iter: 0,
            issue_lane: 0,
            emit_iter: 0,
            emit_lane: 0,
            window: VecDeque::new(),
            entered: BTreeMap::new(),
        }
    }

    fn reset_call(&mut self) {
        self.call_gen = (self.call_gen + 1) % (1 << (64 - ID_GEN_SHIFT));
        self.have_call = false;
        self.base_iter = 0;
        self.alloc_iter = 0;
        self.issue_iter = 0;
        self.issue_lane = 0;
        self.emit_iter = 0;
        self.emit_lane = 0;
        self.window.clear();
        self.entered.clear();
    }

    /// The id of the load for `iter`'s lane `code - 1` (`code` 0: its
    /// worklist element).
    fn load_id(&self, iter: u64, code: usize) -> u64 {
        (self.call_gen << ID_GEN_SHIFT) | (iter << ID_ITER_SHIFT) | code as u64
    }

    fn slot(&self, iter: u64) -> Option<&IterState> {
        if iter < self.base_iter {
            return None;
        }
        self.window.get((iter - self.base_iter) as usize)
    }

    fn slot_mut(&mut self, iter: u64) -> Option<&mut IterState> {
        if iter < self.base_iter {
            return None;
        }
        let b = self.base_iter;
        self.window.get_mut((iter - b) as usize)
    }

    /// One past the last lane of `lane`'s group.
    fn group_end(&self, lane: usize) -> usize {
        let lanes = &self.spec.lanes;
        (lane + 1..lanes.len())
            .find(|&l| lanes[l].group != lanes[lane].group)
            .unwrap_or(lanes.len())
    }

    /// The core retired the iteration at the commit head. The base
    /// advances even past iterations the component never allocated
    /// (the core ran ahead on fallback predictions), and every engine
    /// skips what the core retired first.
    fn retire(&mut self) {
        self.window.pop_front();
        self.base_iter += 1;
        let base = self.base_iter;
        self.alloc_iter = self.alloc_iter.max(base);
        for (iter, lane) in [
            (&mut self.issue_iter, &mut self.issue_lane),
            (&mut self.emit_iter, &mut self.emit_lane),
        ] {
            if *iter < base {
                *iter = base;
                *lane = 0;
            }
        }
        // Entered keys live one extra scope beyond retirement: a T1
        // load issued before the store committed may only be converted
        // by T2 after the store retires, and "entered" is sticky within
        // a call, so the longer lifetime is always safe (a bounded CAM
        // of groups × 2·scope entries).
        let scope = self.spec.scope as u64;
        self.entered.retain(|_, &mut it| it + scope >= base);
    }

    fn observations(&mut self, io: &mut FabricIo<'_>) {
        while let Some(obs) = io.pop_obs() {
            if let ObsPacket::DestValue { pc, value } = obs {
                if pc == self.spec.tag_pc {
                    self.tag = value;
                } else if pc == self.spec.wl_base_pc {
                    self.reset_call();
                    self.wl_base = value;
                } else if pc == self.spec.wl_len_pc {
                    self.wl_len = value;
                    self.have_call = true;
                } else if pc == self.spec.induction_pc {
                    self.retire();
                }
            }
        }
    }

    fn responses(&mut self, io: &mut FabricIo<'_>) {
        while let Some(r) = io.pop_load_resp() {
            // A response issued before the current call began, or for
            // an iteration that already retired, finds no slot.
            if r.id >> ID_GEN_SHIFT != self.call_gen {
                continue;
            }
            let iter = (r.id % (1 << ID_GEN_SHIFT)) >> ID_ITER_SHIFT;
            let code = (r.id % (1 << ID_ITER_SHIFT)) as usize;
            let Some(s) = self.slot_mut(iter) else {
                continue;
            };
            if code == 0 {
                s.index = Some(r.value);
            } else if let Some(v) = s.values.get_mut(code - 1) {
                *v = Some(r.value);
            }
        }
    }

    /// T0: allocate the next worklist element within the scope and
    /// load it.
    fn t0(&mut self, io: &mut FabricIo<'_>) {
        for _ in 0..T0_LOADS_PER_CYCLE {
            if !self.have_call
                || self.alloc_iter >= self.wl_len
                || (self.alloc_iter - self.base_iter) as usize >= self.spec.scope
            {
                return;
            }
            let addr = self.wl_base + self.spec.wl_elem_size * self.alloc_iter;
            if !io.push_load(FabricLoad {
                id: self.load_id(self.alloc_iter, 0),
                addr,
                size: self.spec.wl_elem_size,
                is_prefetch: false,
            }) {
                return;
            }
            self.window.push_back(IterState {
                index: None,
                values: vec![None; self.spec.lanes.len()],
            });
            self.alloc_iter += 1;
        }
    }

    /// T1: issue the lanes' derived loads in order once an element's
    /// value is back. A push that fails mid-group resumes at the same
    /// lane next cycle, and that group counts toward the next cycle's
    /// [`T1_GROUPS_PER_CYCLE`].
    fn t1(&mut self, io: &mut FabricIo<'_>) {
        let mut groups = 0;
        while groups < T1_GROUPS_PER_CYCLE && self.issue_iter < self.alloc_iter {
            let Some(index) = self.slot(self.issue_iter).and_then(|s| s.index) else {
                return;
            };
            let Some(lane) = self.spec.lanes.get(self.issue_lane) else {
                return;
            };
            if !io.push_load(FabricLoad {
                id: self.load_id(self.issue_iter, self.issue_lane + 1),
                addr: lane.addr(lane.key(index)),
                size: lane.size,
                is_prefetch: false,
            }) {
                return;
            }
            self.issue_lane += 1;
            if self.issue_lane == self.group_end(self.issue_lane - 1) {
                groups += 1;
            }
            if self.issue_lane == self.spec.lanes.len() {
                self.issue_lane = 0;
                self.issue_iter += 1;
            }
        }
    }

    /// T2: convert loaded values into predictions in program order,
    /// overriding a group's first lane to taken when its derived index
    /// was entered. A group is emitted only after T1 has issued all of
    /// its lanes.
    fn t2(&mut self, io: &mut FabricIo<'_>) {
        while self.emit_iter < self.alloc_iter && self.emit_iter < self.wl_len {
            let lanes = &self.spec.lanes;
            let Some(lane) = lanes.get(self.emit_lane) else {
                return;
            };
            let end = self.group_end(self.emit_lane);
            // T1's cursor must be past the group: issue_iter is ahead,
            // or equal with issue_lane at or past the group's end.
            if (self.emit_iter, end) > (self.issue_iter, self.issue_lane) {
                return;
            }
            let Some(s) = self.slot(self.emit_iter) else {
                return;
            };
            let Some(index) = s.index else {
                return;
            };
            let key = lane.key(index);
            let leader = self.emit_lane == 0 || lanes[self.emit_lane - 1].group != lane.group;
            let taken = if leader && lane.taken_skips_group && self.entered.contains_key(&key) {
                true
            } else {
                let Some(v) = s.values[self.emit_lane] else {
                    return;
                };
                lane.predicate.eval(v, lane.size, self.tag)
            };
            if lane.predict
                && !io.push_pred(PredPacket {
                    pc: lane.branch_pc,
                    taken,
                })
            {
                return;
            }
            if taken && lane.taken_skips_group {
                self.emit_lane = end;
            } else {
                if !taken && self.emit_lane + 1 == end && lane.infer_store_on_all_not_taken {
                    self.entered.insert(key, self.emit_iter);
                }
                self.emit_lane += 1;
            }
            if self.emit_lane == lanes.len() {
                self.emit_lane = 0;
                self.emit_iter += 1;
            }
        }
    }
}

impl CustomComponent for TemplateComponent {
    fn tick(&mut self, io: &mut FabricIo<'_>) {
        self.observations(io);
        self.responses(io);
        self.t2(io);
        self.t1(io);
        self.t0(io);
    }

    fn name(&self) -> &'static str {
        "templated-runahead"
    }

    fn watchlist(&self) -> Vec<(u64, WatchKind)> {
        let mut w = vec![
            (self.spec.tag_pc, WatchKind::DestValue),
            (self.spec.wl_base_pc, WatchKind::DestValue),
            (self.spec.wl_len_pc, WatchKind::DestValue),
            (self.spec.induction_pc, WatchKind::DestValue),
        ];
        for lane in &self.spec.lanes {
            w.push((lane.branch_pc, WatchKind::CondBranch));
        }
        w
    }
}

/// One branch the profile shows observing a derived load fed by the
/// worklist walk: the raw material of a [`LaneSpec`].
struct LaneCand {
    branch_pc: u64,
    taken: u64,
    /// PC of the worklist load feeding this lane's derived load.
    wl_load: u64,
    elem_scale: i64,
    /// `table_base + elem_scale * offset` (the gauge splits it).
    addend: u64,
    size: u64,
    predicate: Predicate,
    /// Defining PC of the tag comparand, `EqualsTag` lanes only.
    tag_def: Option<u64>,
}

/// Maps a profiled branch to the lane predicate it would become: which
/// load it observes directly (scale 1, addend 0) and how the *taken*
/// direction reads the value.
fn lane_predicate(
    br: &pfm_analyze::profile::BranchProfile,
) -> Option<(u64, Predicate, Option<u64>)> {
    use pfm_analyze::profile::ValueDesc;
    let direct = |v: &ValueDesc| match v {
        ValueDesc::Loaded {
            feeder,
            scale: 1,
            addend: Some(0),
        } => Some(*feeder),
        _ => None,
    };
    match br.cond {
        "eq" | "ne" => {
            let (load, other) = if let Some(f) = direct(&br.operands[0]) {
                (f, &br.operands[1])
            } else if let Some(f) = direct(&br.operands[1]) {
                (f, &br.operands[0])
            } else {
                return None;
            };
            match (br.cond, other) {
                (
                    "eq",
                    ValueDesc::Invariant {
                        def_pc: Some(d), ..
                    },
                ) => Some((load, Predicate::EqualsTag, Some(*d))),
                ("ne", ValueDesc::Const(0)) => Some((load, Predicate::NonZero, None)),
                _ => None,
            }
        }
        // `bge loaded, x0`: taken iff the value is non-negative. The
        // mirrored form reads `0 >= loaded`, which is not this lane.
        "ge" => {
            let f = direct(&br.operands[0])?;
            (br.operands[1] == ValueDesc::Const(0)).then_some((f, Predicate::NonNegative, None))
        }
        _ => None,
    }
}

/// Derives a [`TemplateSpec`] from an interface-inference profile —
/// §7's generator, fed by static analysis instead of a hand-read of
/// the kernel. Returns `None` when the program does not match the
/// template's shape (one strided worklist walk fanning out into
/// indirect loads that feed in-loop predicate branches).
///
/// The recovered lane offsets use the sum-zero gauge: each lane
/// position's addends across groups split as
/// `table_base + elem_scale * offset` with the offsets summing to
/// zero, which is exact for symmetric neighborhoods (astar's ±1 row /
/// ±1 column ring) and rejects inconsistent splits.
pub fn spec_from_profile(
    profile: &pfm_analyze::profile::ProgramProfile,
    scope: usize,
) -> Option<TemplateSpec> {
    use pfm_analyze::profile::{BoundKind, StreamClass, ValueDesc};

    let mut cands: Vec<LaneCand> = Vec::new();
    for br in &profile.branches {
        if br.is_exit || br.is_latch || !br.data_dependent {
            continue;
        }
        let Some((lane_load, predicate, tag_def)) = lane_predicate(br) else {
            continue;
        };
        let Some(lane) = profile.stream_at(lane_load) else {
            continue;
        };
        let StreamClass::Indirect {
            feeder,
            scale,
            addend: Some(addend),
            ..
        } = &lane.class
        else {
            continue;
        };
        if lane.is_store || *scale <= 0 || lane.loop_header_pc != br.loop_header_pc {
            continue;
        }
        let Some(wl) = profile.stream_at(*feeder) else {
            continue;
        };
        let StreamClass::Strided { stride, .. } = &wl.class else {
            continue;
        };
        // The feeder must walk the worklist in whole elements.
        if wl.is_store
            || *stride <= 0
            || *stride as u64 != wl.width
            || wl.loop_header_pc != br.loop_header_pc
        {
            continue;
        }
        cands.push(LaneCand {
            branch_pc: br.pc,
            taken: br.taken_target,
            wl_load: *feeder,
            elem_scale: *scale,
            addend: *addend,
            size: lane.width,
            predicate,
            tag_def,
        });
    }

    // One worklist walk feeds every lane.
    let wl_load = cands.first()?.wl_load;
    if cands.iter().any(|c| c.wl_load != wl_load) {
        return None;
    }
    cands.sort_by_key(|c| c.branch_pc);

    // Lanes sharing a taken target form one short-circuit group;
    // groups keep first-branch program order.
    let mut groups: Vec<(u64, Vec<&LaneCand>)> = Vec::new();
    for c in &cands {
        match groups.iter_mut().find(|(t, _)| *t == c.taken) {
            Some((_, g)) => g.push(c),
            None => groups.push((c.taken, vec![c])),
        }
    }
    let lanes_per_group = groups.first()?.1.len();
    if groups.iter().any(|(_, g)| g.len() != lanes_per_group) {
        return None;
    }
    for (target, g) in &groups {
        // Taken must skip the whole group (the template's semantics).
        if g.last().is_none_or(|last| *target <= last.branch_pc) {
            return None;
        }
    }
    // Per-position shape must agree across groups.
    for i in 0..lanes_per_group {
        let p0 = groups[0].1[i];
        if groups.iter().any(|(_, g)| {
            g[i].elem_scale != p0.elem_scale
                || g[i].size != p0.size
                || g[i].predicate != p0.predicate
                || g[i].tag_def != p0.tag_def
        }) {
            return None;
        }
    }
    // All EqualsTag positions must snoop the same tag def.
    let mut tag_pc: Option<u64> = None;
    for i in 0..lanes_per_group {
        if let Some(d) = groups[0].1[i].tag_def {
            if *tag_pc.get_or_insert(d) != d {
                return None;
            }
        }
    }
    let tag_pc = tag_pc?;

    // Split each position's addends into table base + scaled offset.
    let group_count = groups.len() as i128;
    let mut offsets: Vec<i64> = Vec::new();
    let mut bases: Vec<u64> = Vec::new();
    for i in 0..lanes_per_group {
        let sum: i128 = groups.iter().map(|(_, g)| g[i].addend as i64 as i128).sum();
        if sum % group_count != 0 {
            return None;
        }
        let base = sum / group_count;
        let scale = groups[0].1[i].elem_scale as i128;
        for (gi, (_, g)) in groups.iter().enumerate() {
            let diff = g[i].addend as i64 as i128 - base;
            if diff % scale != 0 {
                return None;
            }
            let off = i64::try_from(diff / scale).ok()?;
            if i == 0 {
                offsets.push(off);
            } else if offsets[gi] != off {
                return None;
            }
        }
        bases.push(i64::try_from(base).ok()? as u64);
    }

    // Worklist base, length and commit head from the walk's loop.
    let wl = profile.stream_at(wl_load)?;
    let StreamClass::Strided { base_defs, .. } = &wl.class else {
        return None;
    };
    let [wl_base_pc] = base_defs.as_slice() else {
        return None;
    };
    let lp = profile
        .loops
        .iter()
        .find(|l| l.header_pc == wl.loop_header_pc)?;
    let [iv] = lp.ivs.as_slice() else {
        return None;
    };
    let [induction_pc] = iv.step_pcs.as_slice() else {
        return None;
    };
    let mut inv_bounds = lp.bounds.iter().filter(|b| b.kind == BoundKind::Invariant);
    let bound = inv_bounds.next()?;
    if inv_bounds.next().is_some() {
        return None;
    }
    let wl_len_pc = bound.def_pc?;

    // Store inference: every group writes the tag back through the
    // same chain as its first lane (astar's visited-mark store).
    let infer = groups.iter().all(|(_, g)| {
        let lead = g[0];
        profile.streams.iter().any(|s| {
            s.is_store
                && matches!(&s.class, StreamClass::Indirect { feeder, scale, addend: Some(a), .. }
                    if *feeder == wl_load && *scale == lead.elem_scale && *a == lead.addend)
                && matches!(&s.value,
                    Some(ValueDesc::Invariant { def_pc: Some(d), .. }) if *d == tag_pc)
        })
    });

    let mut lanes = Vec::new();
    for (gi, (_, g)) in groups.iter().enumerate() {
        for (i, c) in g.iter().enumerate() {
            lanes.push(LaneSpec {
                offset: offsets[gi],
                table_base: bases[i],
                elem_scale: c.elem_scale as u64,
                elem_offset: 0,
                size: c.size,
                branch_pc: c.branch_pc,
                predicate: c.predicate,
                taken_skips_group: true,
                group: gi as u32,
                infer_store_on_all_not_taken: infer && i + 1 == g.len(),
                predict: true,
            });
        }
    }
    Some(TemplateSpec {
        tag_pc,
        wl_base_pc: *wl_base_pc,
        wl_len_pc,
        induction_pc: *induction_pc,
        wl_elem_size: wl.width,
        lanes,
        scope,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfm_fabric::LoadResponse;
    use std::collections::BTreeSet;

    fn spec_two_lane() -> TemplateSpec {
        TemplateSpec {
            tag_pc: 0x100,
            wl_base_pc: 0x104,
            wl_len_pc: 0x108,
            induction_pc: 0x10c,
            wl_elem_size: 4,
            lanes: vec![
                LaneSpec {
                    offset: 1,
                    table_base: 0x10_0000,
                    elem_scale: 8,
                    elem_offset: 0,
                    size: 4,
                    branch_pc: 0x200,
                    predicate: Predicate::EqualsTag,
                    taken_skips_group: true,
                    group: 0,
                    infer_store_on_all_not_taken: false,
                    predict: true,
                },
                LaneSpec {
                    offset: 1,
                    table_base: 0x20_0000,
                    elem_scale: 1,
                    elem_offset: 0,
                    size: 1,
                    branch_pc: 0x204,
                    predicate: Predicate::NonZero,
                    taken_skips_group: true,
                    group: 0,
                    infer_store_on_all_not_taken: true,
                    predict: true,
                },
            ],
            scope: 8,
        }
    }

    /// astar's spec on a 64-wide grid: per neighbor `k`, the `waymap`
    /// lane (branch `0x200 + 0x10k`, taken = visited) then the `maparp`
    /// lane (branch 4 bytes on, taken = blocked).
    fn astar_spec(store_inference: bool) -> TemplateSpec {
        let offsets = [-65, -64, -63, -1, 1, 63, 64, 65];
        let mut lanes = Vec::new();
        for (k, &offset) in offsets.iter().enumerate() {
            let lane = |table_base, elem_scale, size, branch_pc, predicate, infer| LaneSpec {
                offset,
                table_base,
                elem_scale,
                elem_offset: 0,
                size,
                branch_pc,
                predicate,
                taken_skips_group: true,
                group: k as u32,
                infer_store_on_all_not_taken: infer,
                predict: true,
            };
            let pc = 0x200 + 0x10 * k as u64;
            lanes.push(lane(0x10_0000, 8, 4, pc, Predicate::EqualsTag, false));
            lanes.push(lane(
                0x20_0000,
                1,
                1,
                pc + 4,
                Predicate::NonZero,
                store_inference,
            ));
        }
        TemplateSpec {
            lanes,
            ..spec_two_lane()
        }
    }

    /// Drives the template over the scripted worklist; iterations
    /// retire only after all their group-leader predictions were
    /// emitted, as the core would (it cannot retire unfetched code).
    fn drive(
        spec: TemplateSpec,
        worklist: &[u64],
        answer: impl Fn(u64) -> u64,
        tag: u64,
    ) -> Vec<PredPacket> {
        let leaders: BTreeSet<u64> = spec
            .lanes
            .iter()
            .enumerate()
            .filter(|&(i, l)| i == 0 || spec.lanes[i - 1].group != l.group)
            .map(|(_, l)| l.branch_pc)
            .collect();
        let groups = leaders.len() as u64;
        let mut c = TemplateComponent::new(spec);
        let mut obs: VecDeque<ObsPacket> = VecDeque::new();
        obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: tag,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 0x50_0000,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x108,
            value: worklist.len() as u64,
        });
        let mut resp: VecDeque<LoadResponse> = VecDeque::new();
        let mut preds: Vec<PredPacket> = Vec::new();
        let mut retired = 0u64;
        for tick in 0..800 {
            let mut out_p = Vec::new();
            let mut out_l = Vec::new();
            {
                let mut io = FabricIo::new(
                    8, tick, &mut obs, &mut resp, &mut out_p, &mut out_l, 512, 512,
                );
                c.tick(&mut io);
            }
            for l in out_l {
                let value = if l.addr >= 0x50_0000 {
                    worklist[((l.addr - 0x50_0000) / 4) as usize]
                } else {
                    answer(l.addr)
                };
                resp.push_back(LoadResponse { id: l.id, value });
            }
            preds.extend(out_p);
            let emitted = preds.iter().filter(|p| leaders.contains(&p.pc)).count() as u64;
            if emitted >= (retired + 1) * groups && (retired as usize) < worklist.len() {
                retired += 1;
                obs.push_back(ObsPacket::DestValue {
                    pc: 0x10c,
                    value: retired,
                });
            }
        }
        preds
    }

    #[test]
    fn two_lane_group_short_circuits() {
        // Element 10 -> key 11: visited (waymap == tag) -> single taken
        // pred, no second-lane pred.
        let preds = drive(
            spec_two_lane(),
            &[10],
            |addr| if addr == 0x10_0000 + 8 * 11 { 5 } else { 0 },
            5,
        );
        assert_eq!(
            preds,
            vec![PredPacket {
                pc: 0x200,
                taken: true
            }]
        );
    }

    #[test]
    fn entered_set_infers_stores() {
        // Elements 10 and 10 again: both map to key 11, unvisited and
        // passable. First: [NT, NT] + entered; second: inferred taken.
        let preds = drive(spec_two_lane(), &[10, 10], |_| 0, 5);
        assert_eq!(
            preds,
            vec![
                PredPacket {
                    pc: 0x200,
                    taken: false
                },
                PredPacket {
                    pc: 0x204,
                    taken: false
                },
                PredPacket {
                    pc: 0x200,
                    taken: true
                },
            ]
        );
    }

    /// Worklist loads go to `0x50_0000`/`0x60_0000`, table loads below.
    fn is_worklist(l: &FabricLoad) -> bool {
        l.addr >= 0x50_0000
    }

    struct Harness {
        obs: VecDeque<ObsPacket>,
        resp: VecDeque<LoadResponse>,
        preds: Vec<PredPacket>,
        loads: Vec<FabricLoad>,
    }

    impl Harness {
        fn new() -> Harness {
            Harness {
                obs: VecDeque::new(),
                resp: VecDeque::new(),
                preds: Vec::new(),
                loads: Vec::new(),
            }
        }

        fn tick(&mut self, c: &mut TemplateComponent, width: usize) {
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
                    64,
                    64,
                );
                c.tick(&mut io);
            }
            self.preds.extend(preds);
            self.loads.extend(loads);
        }

        /// Answers every table load not answered yet with `value(load)`.
        fn answer_tables(
            &mut self,
            answered: &mut BTreeSet<u64>,
            value: impl Fn(&FabricLoad) -> u64,
        ) {
            for l in self.loads.iter().filter(|l| !is_worklist(l)) {
                if answered.insert(l.id) {
                    self.resp.push_back(LoadResponse {
                        id: l.id,
                        value: value(l),
                    });
                }
            }
        }
    }

    fn setup_call(h: &mut Harness, c: &mut TemplateComponent, fillnum: u64, base: u64, len: u64) {
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: fillnum,
        });
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: base,
        });
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x108,
            value: len,
        });
        h.tick(c, 4);
    }

    #[test]
    fn t0_issues_worklist_loads_up_to_scope() {
        let mut c = TemplateComponent::new(astar_spec(true));
        let mut h = Harness::new();
        setup_call(&mut h, &mut c, 5, 0x50_0000, 100);
        let mut t0_loads = h.loads.iter().filter(|l| is_worklist(l)).count();
        for _ in 0..20 {
            h.tick(&mut c, 4);
            t0_loads = h.loads.iter().filter(|l| is_worklist(l)).count();
        }
        // Scope is 8: T0 must stop at 8 outstanding iterations.
        assert_eq!(t0_loads, 8);
        assert_eq!(h.loads[0].addr, 0x50_0000);
        assert_eq!(h.loads[0].size, 4);
    }

    #[test]
    fn t1_issues_neighbor_load_pairs_in_order() {
        let mut c = TemplateComponent::new(astar_spec(true));
        let mut h = Harness::new();
        setup_call(&mut h, &mut c, 5, 0x50_0000, 4);
        h.tick(&mut c, 4);
        // Return the first worklist index (cell 1000).
        let t0 = h.loads.iter().find(|l| is_worklist(l)).unwrap();
        h.resp.push_back(LoadResponse {
            id: t0.id,
            value: 1000,
        });
        h.tick(&mut c, 4);
        h.tick(&mut c, 4);
        let t1: Vec<_> = h.loads.iter().filter(|l| !is_worklist(l)).collect();
        assert!(
            t1.len() >= 4,
            "expected waymap/maparp pairs, got {}",
            t1.len()
        );
        // First pair: neighbor 0 => idx1 = 1000 - 65 = 935.
        assert_eq!(t1[0].addr, 0x10_0000 + 8 * 935);
        assert_eq!(t1[0].size, 4);
        assert_eq!(t1[1].addr, 0x20_0000 + 935);
        assert_eq!(t1[1].size, 1);
    }

    /// Drives one full iteration at worklist index 1000 and returns the
    /// emitted predictions.
    fn run_iteration(
        wvals: [u32; 8],
        mvals: [u8; 8],
        fillnum: u64,
        store_inf: bool,
    ) -> Vec<PredPacket> {
        let spec = astar_spec(store_inf);
        let offsets: Vec<i64> = spec.lanes.iter().step_by(2).map(|l| l.offset).collect();
        let mut c = TemplateComponent::new(spec);
        let mut h = Harness::new();
        setup_call(&mut h, &mut c, fillnum, 0x50_0000, 1);
        h.tick(&mut c, 8);
        let t0 = h.loads.iter().find(|l| is_worklist(l)).unwrap();
        h.resp.push_back(LoadResponse {
            id: t0.id,
            value: 1000,
        });
        // Tick until all loads issued, answering as they appear.
        let mut answered = BTreeSet::new();
        for _ in 0..40 {
            h.tick(&mut c, 8);
            h.answer_tables(&mut answered, |l| {
                let is_m = l.addr >= 0x20_0000;
                let idx1 = if is_m {
                    l.addr - 0x20_0000
                } else {
                    (l.addr - 0x10_0000) / 8
                };
                let k = offsets
                    .iter()
                    .position(|&o| 1000 + o == idx1 as i64)
                    .unwrap();
                if is_m {
                    mvals[k] as u64
                } else {
                    wvals[k] as u64
                }
            });
        }
        h.preds.clone()
    }

    #[test]
    fn predictions_follow_loaded_predicates() {
        // Neighbor 0: visited (waymap == fillnum) => [T] only.
        // Neighbor 1: unvisited, passable => [NT, NT].
        // Neighbor 2: unvisited, blocked => [NT, T].
        let mut wvals = [5u32; 8];
        wvals[1] = 0;
        wvals[2] = 0;
        let mut mvals = [0u8; 8];
        mvals[2] = 1;
        let preds = run_iteration(wvals, mvals, 5, true);
        assert_eq!(
            preds[0],
            PredPacket {
                pc: 0x200,
                taken: true
            }
        );
        assert_eq!(
            preds[1],
            PredPacket {
                pc: 0x210,
                taken: false
            }
        );
        assert_eq!(
            preds[2],
            PredPacket {
                pc: 0x214,
                taken: false
            }
        );
        assert_eq!(
            preds[3],
            PredPacket {
                pc: 0x220,
                taken: false
            }
        );
        assert_eq!(
            preds[4],
            PredPacket {
                pc: 0x224,
                taken: true
            }
        );
        // Remaining 5 neighbors visited => single taken preds.
        assert_eq!(preds.len(), 5 + 5);
    }

    /// Runs worklist [1000, 1002] with every cell unvisited and
    /// passable: any taken prediction was inferred from the entered set.
    fn run_repeat(store_inference: bool) -> Vec<PredPacket> {
        let mut c = TemplateComponent::new(astar_spec(store_inference));
        let mut h = Harness::new();
        setup_call(&mut h, &mut c, 5, 0x50_0000, 2);
        h.tick(&mut c, 8);
        let t0s: Vec<_> = h.loads.iter().filter(|l| is_worklist(l)).copied().collect();
        h.resp.push_back(LoadResponse {
            id: t0s[0].id,
            value: 1000,
        });
        for _ in 0..3 {
            h.tick(&mut c, 8);
        }
        let t0s: Vec<_> = h.loads.iter().filter(|l| is_worklist(l)).copied().collect();
        assert_eq!(t0s.len(), 2);
        h.resp.push_back(LoadResponse {
            id: t0s[1].id,
            value: 1002,
        });
        let mut answered = BTreeSet::new();
        for _ in 0..80 {
            h.tick(&mut c, 8);
            // Everything unvisited (0 != fillnum 5) and passable.
            h.answer_tables(&mut answered, |_| 0);
        }
        h.preds
    }

    #[test]
    fn cam_infers_unretired_store_for_repeated_index1() {
        // Offsets -1 (k=3) and +1 (k=4) of indices 1000 and 1002 both
        // touch cell 1001. All cells unvisited & passable: the first
        // visit to 1001 stores fillnum, so the second visit's waymap
        // branch must be overridden to taken.
        let preds = run_repeat(true);
        assert!(
            preds.iter().any(|p| p.taken),
            "expected an entered-set override"
        );
        // Iteration 0 neighbor k=4 (1000+1) => [NT,NT].
        let it0_k4: Vec<_> = preds
            .iter()
            .filter(|p| p.pc == 0x240 || p.pc == 0x244)
            .collect();
        assert!(!it0_k4[0].taken);
        // The second iteration's k=3 waymap branch (pc 0x230) appears
        // twice across the two iterations; its second instance must be
        // taken via the entered set.
        let k3: Vec<_> = preds.iter().filter(|p| p.pc == 0x230).collect();
        assert_eq!(k3.len(), 2);
        assert!(!k3[0].taken, "first visit to some cell at k=3 enters");
        assert!(
            k3[1].taken,
            "second visit to cell 1001 must be inferred visited"
        );
    }

    #[test]
    fn no_store_inference_misses_the_repeat() {
        let preds = run_repeat(false);
        let k3: Vec<_> = preds.iter().filter(|p| p.pc == 0x230).collect();
        assert_eq!(k3.len(), 2);
        assert!(
            !k3[1].taken,
            "without inference the stale load value wins (wrongly)"
        );
        assert!(preds.iter().all(|p| !p.taken), "no entered-set override");
    }

    #[test]
    fn induction_retirement_frees_scope() {
        let mut c = TemplateComponent::new(astar_spec(true));
        let mut h = Harness::new();
        setup_call(&mut h, &mut c, 5, 0x50_0000, 100);
        for _ in 0..20 {
            h.tick(&mut c, 4);
        }
        assert_eq!(c.alloc_iter, 8, "scope full");
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x10c,
            value: 1,
        });
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x10c,
            value: 2,
        });
        for _ in 0..10 {
            h.tick(&mut c, 4);
        }
        assert_eq!(
            c.alloc_iter, 10,
            "two slots freed, two new iterations allocated"
        );
    }

    #[test]
    fn new_call_resets_state() {
        let mut c = TemplateComponent::new(astar_spec(true));
        let mut h = Harness::new();
        setup_call(&mut h, &mut c, 5, 0x50_0000, 100);
        for _ in 0..10 {
            h.tick(&mut c, 4);
        }
        let gen_before = c.call_gen;
        let old_loads = h.loads.len();
        setup_call(&mut h, &mut c, 5, 0x60_0000, 50);
        assert_eq!(c.call_gen, gen_before + 1);
        assert_eq!(c.wl_base, 0x60_0000);
        // T0 restarts from iteration 0 of the new worklist.
        let new_call_t0: Vec<_> = h.loads[old_loads..]
            .iter()
            .filter(|l| is_worklist(l))
            .collect();
        assert!(new_call_t0.iter().all(|l| l.addr >= 0x60_0000));
        // A stale response from the old call (its iteration-0 load) is
        // ignored.
        h.resp.push_back(LoadResponse {
            id: h.loads[0].id,
            value: 7,
        });
        h.tick(&mut c, 4);
        assert!(c
            .slot(0)
            .is_none_or(|e| e.index.is_none() || e.index != Some(7)));
    }

    #[test]
    fn spec_from_profile_reads_an_astar_shaped_kernel() {
        // A two-neighbor astar-shaped kernel: walk a worklist, probe
        // waymap (tag test) and maparp (non-zero test) at offsets ±1,
        // mark visited entries with the tag.
        use pfm_isa::reg::names::*;
        let mut a = pfm_isa::Asm::new(0x1000);
        let top = a.label();
        let done = a.label();
        a.li(S1, 0x10_0000); // waymap
        a.li(S2, 0x20_0000); // maparp
        let tag_pc = a.here();
        a.li(S0, 7); // tag
        let wl_base_pc = a.here();
        a.li(A0, 0x50_0000); // worklist base
        let wl_len_pc = a.here();
        a.li(A1, 4); // worklist length
        a.li(T0, 0);
        a.place(top);
        a.bge(T0, A1, done);
        a.slli(T3, T0, 2);
        a.add(T3, A0, T3);
        a.lwu(T1, T3, 0); // worklist element
        let mut way_pcs = Vec::new();
        let mut map_pcs = Vec::new();
        for off in [1i64, -1] {
            let skip = a.label();
            a.addi(T2, T1, off);
            a.slli(T3, T2, 3);
            a.add(T3, S1, T3);
            a.lwu(T4, T3, 0);
            way_pcs.push(a.here());
            a.beq(T4, S0, skip);
            a.add(T5, S2, T2);
            a.lbu(T5, T5, 0);
            map_pcs.push(a.here());
            a.bne(T5, X0, skip);
            a.slli(T3, T2, 3);
            a.add(T3, S1, T3);
            a.sw(S0, T3, 0); // mark visited with the tag
            a.place(skip);
        }
        let induction_pc = a.here();
        a.addi(T0, T0, 1);
        a.j(top);
        a.place(done);
        a.halt();
        let prog = a.finish().expect("assembles");

        let profile = pfm_analyze::analyze(&prog, &[], &[]).profile;
        let spec = spec_from_profile(&profile, 8).expect("kernel matches the template");
        let lane = |gi: usize, off: i64, way: bool| LaneSpec {
            offset: off,
            table_base: if way { 0x10_0000 } else { 0x20_0000 },
            elem_scale: if way { 8 } else { 1 },
            elem_offset: 0,
            size: if way { 4 } else { 1 },
            branch_pc: if way { way_pcs[gi] } else { map_pcs[gi] },
            predicate: if way {
                Predicate::EqualsTag
            } else {
                Predicate::NonZero
            },
            taken_skips_group: true,
            group: gi as u32,
            infer_store_on_all_not_taken: !way,
            predict: true,
        };
        assert_eq!(
            spec,
            TemplateSpec {
                tag_pc,
                wl_base_pc,
                wl_len_pc,
                induction_pc,
                wl_elem_size: 4,
                lanes: vec![
                    lane(0, 1, true),
                    lane(0, 1, false),
                    lane(1, -1, true),
                    lane(1, -1, false),
                ],
                scope: 8,
            }
        );
    }

    #[test]
    fn predicates_evaluate_correctly() {
        assert!(Predicate::EqualsTag.eval(5, 4, 5));
        assert!(!Predicate::EqualsTag.eval(4, 4, 5));
        assert!(Predicate::NonZero.eval(1, 1, 0));
        assert!(!Predicate::NonZero.eval(0, 1, 0));
        assert!(Predicate::NonNegative.eval(3, 8, 0));
        assert!(!Predicate::NonNegative.eval((-1i64) as u64, 8, 0));
        // Sign extension respects the load size.
        assert!(!Predicate::NonNegative.eval(0x80, 1, 0));
        assert!(Predicate::NonNegative.eval(0x80, 2, 0));
    }
}
