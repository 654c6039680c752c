//! The templated run-ahead engine — the paper's §7 future work, and
//! the one engine behind the astar and bfs use cases.
//!
//! §7: "the astar and bfs designs presented in this paper follow a
//! similar strategy. If this could be templated, it suggests a path
//! toward automation." A [`TemplateSpec`] declares one design of that
//! family as a short chain of stages. The engine
//!
//! 1. walks an input worklist ahead of the core (T0),
//! 2. issues each stage's derived loads per element of the stage's
//!    source: each element of the previous stage, or a `[lo, hi)`
//!    range read from two of its loads (a data-dependent trip count),
//! 3. converts loaded values into branch predictions in program order,
//!    a range's loop branch included, and
//! 4. infers not-yet-retired stores via a sticky "recently predicted
//!    entered" set (astar's index1_CAM, bfs's neighbor-window search).
//!
//! astar (Figure 7) is the worklist and one stage of eight two-lane
//! groups; bfs (Figure 11) is the frontier, then the offsets pair, the
//! neighbor range and the property stage. Their rates, inference rule
//! and emission gate are spec values too. [`spec_from_profile`] derives
//! astar's spec from static analysis alone, and slipstream's restricted
//! form of either design is a spec transform ([`crate::slipstream`]).

use pfm_fabric::{CustomComponent, FabricIo, FabricLoad, ObsPacket, PredPacket, WatchKind};
use pfm_isa::fxhash::FxHashMap;
use std::collections::VecDeque;

/// A load id packs, from the low bits up, the lane (6 bits), the
/// element (24), the stage code (2; 0 is T0's worklist load, `s + 1`
/// stage `s`), the iteration (20) and the call generation (12), so a
/// response finds its slot without a lookup table. The iteration is
/// decoded relative to the window base, so only the scope must fit.
const ELEM_SHIFT: u32 = 6;
const STAGE_SHIFT: u32 = 30;
const ITER_SHIFT: u32 = 32;
const GEN_SHIFT: u32 = 52;

/// Stages a spec may chain (the id's stage codes 1..=3).
pub const MAX_STAGES: usize = 3;

/// The low `bits` bits.
fn mask(bits: u32) -> u64 {
    (1 << bits) - 1
}

/// How a lane's branch turns its loaded value into a direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Predicate {
    /// Taken iff the loaded value equals the snooped tag (astar's
    /// `waymap[index1].fillnum != fillnum` visited test).
    EqualsTag,
    /// Taken iff the loaded value is non-zero (astar's
    /// `maparp[index1] == 0` obstacle test).
    NonZero,
    /// Taken iff the loaded value, sign-extended, is non-negative
    /// (bfs's `parent[v] >= 0` visited test).
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

/// The branch a lane predicts from its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchSpec {
    /// Branch PC.
    pub pc: u64,
    /// Predicate mapping the value to a direction.
    pub predicate: Predicate,
    /// Send the prediction. A non-predicting branch still waits for its
    /// value before emission moves on (slipstream's maparp lanes, whose
    /// branches are left to the core predictor).
    pub predict: bool,
}

/// One derived load: for stage input `x`, load
/// `table_base + (x + offset) * elem_scale`, and predict `branch` from
/// the value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneSpec {
    /// Added to the input before scaling (astar's neighbor offsets).
    pub offset: i64,
    /// Table base address.
    pub table_base: u64,
    /// Bytes per table element.
    pub elem_scale: u64,
    /// Load size in bytes.
    pub size: u64,
    /// The branch this lane predicts; `None` for a lane that only
    /// feeds a later stage (bfs's offsets and neighbor loads).
    pub branch: Option<BranchSpec>,
    /// Group id: lanes with the same group form a short-circuit chain
    /// in order, and a taken prediction skips the rest of the group
    /// (astar: visited ⇒ the maparp branch is never fetched).
    pub group: u32,
}

impl LaneSpec {
    /// The derived index for input `x`. Wrapping: `x` is a load
    /// response, and a faulty fabric (the chaos harness) can return
    /// garbage. Hardware adders wrap; the wild address simply misses in
    /// the cache.
    fn key(&self, x: u64) -> u64 {
        (x as i64).wrapping_add(self.offset) as u64
    }

    fn addr(&self, x: u64) -> u64 {
        (self.table_base as i64)
            .wrapping_add((self.key(x) as i64).wrapping_mul(self.elem_scale as i64)) as u64
    }
}

/// Where a stage's elements come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// One element per element of the previous stage, whose first
    /// lane's value is the input (the first stage: the worklist
    /// element).
    Each,
    /// Elements `lo..hi`, read from the previous stage's lanes 0 and 1
    /// (bfs's `offsets[u]`, `offsets[u + 1]`); element `j`'s input is
    /// `lo + j`. The loop branch is predicted not-taken before each
    /// element and taken after the last.
    Range {
        /// PC of the loop branch (taken = exit).
        loop_pc: u64,
        /// Send the loop-branch predictions.
        predict: bool,
    },
}

/// One stage of the chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSpec {
    /// Where the stage's elements come from.
    pub source: Source,
    /// The derived lanes per element, in program order (at least one).
    pub lanes: Vec<LaneSpec>,
    /// Lane groups the stage issues per RF cycle.
    pub groups_per_cycle: usize,
}

/// When an emitted prediction records its derived index as entered,
/// so that later group leaders on the same index predict taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Infer {
    /// When a whole group predicts not-taken (astar: the cell is
    /// entered and its visited mark stored).
    AllNotTaken,
    /// On every outcome (bfs: a neighbor is visited once any frontier
    /// node has looked at it).
    EveryOutcome,
}

/// The declarative component description (the artifact a generator
/// would emit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TemplateSpec {
    /// PC whose destination value is the sticky tag (astar's fillnum),
    /// for [`Predicate::EqualsTag`].
    pub tag_pc: Option<u64>,
    /// PC whose destination value is the worklist base.
    pub wl_base_pc: u64,
    /// PC whose destination value is the worklist length.
    pub wl_len_pc: u64,
    /// PC of the induction increment (commit-head advance).
    pub induction_pc: u64,
    /// Worklist element size in bytes.
    pub wl_elem_size: u64,
    /// Worklist loads T0 issues per RF cycle.
    pub wl_loads_per_cycle: usize,
    /// The stages in program order: at most [`MAX_STAGES`], and at
    /// most one [`Source::Range`], which follows a stage of at least
    /// two lanes.
    pub stages: Vec<StageSpec>,
    /// Speculative scope (worklist elements in flight; astar's
    /// index_queue, bfs's frontier window).
    pub scope: usize,
    /// Store inference through the entered set, if any.
    pub infer: Option<Infer>,
    /// A group's predictions also wait until its stage has issued the
    /// whole group (Figure 7's T2), not only for the values they read.
    pub emit_after_issue: bool,
}

#[derive(Clone, Debug)]
struct IterState {
    /// The worklist element.
    index: Option<u64>,
    /// Per stage, the loaded values by element, then lane. A slot is
    /// added as its load issues, so a wild trip count costs nothing
    /// until its loads go out.
    values: [Vec<Option<u64>>; MAX_STAGES],
}

/// One position of an iteration's emission walk: a stage's lane, or a
/// range's loop branch. The steps from the loop branch on repeat per
/// range element.
#[derive(Clone, Copy, Debug)]
enum Step {
    Lane(usize, usize),
    Loop {
        stage: usize,
        pc: u64,
        predict: bool,
    },
}

/// An (iteration, element, lane or step) position; cursors advance in
/// this lexicographic order.
type Cursor = (u64, u64, usize);

/// The instantiated template component.
pub struct TemplateComponent {
    spec: TemplateSpec,
    /// The range stage, and the step of its loop branch.
    range: Option<(usize, usize)>,
    steps: Vec<Step>,
    tag: u64,
    wl_base: u64,
    wl_len: u64,
    have_call: bool,
    /// Call generation, modulo the id's 12-bit field.
    call_gen: u64,

    /// The window holds iterations `[base_iter, alloc_iter)`;
    /// `base_iter` is also the commit head. Every cursor stays at or
    /// past the base.
    base_iter: u64,
    alloc_iter: u64,
    /// Per stage, the next load to issue.
    issue: [Cursor; MAX_STAGES],
    /// The next step to emit.
    emit: Cursor,
    window: VecDeque<IterState>,

    /// Sticky entered-set (the generalized index1_CAM): derived index
    /// -> latest inserting iteration.
    entered: FxHashMap<u64, u64>,
    /// Every insert into `entered` as (iteration, key), oldest first.
    /// Iterations never decrease within a call (the emit cursor only
    /// moves forward), so expiry pops from the front.
    entered_log: VecDeque<(u64, u64)>,
    /// `entered` maintained by whole-set expiry, which `retire` checks
    /// the log against.
    #[cfg(debug_assertions)]
    entered_shadow: std::collections::BTreeMap<u64, u64>,
}

impl std::fmt::Debug for TemplateComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateComponent")
            .field("stages", &self.spec.stages.len())
            .field("scope", &self.spec.scope)
            .finish()
    }
}

impl TemplateComponent {
    /// Instantiates the template.
    ///
    /// # Panics
    /// Panics if the spec chains more than [`MAX_STAGES`] stages.
    pub fn new(spec: TemplateSpec) -> TemplateComponent {
        assert!(spec.stages.len() <= MAX_STAGES, "too many stages");
        let mut range = None;
        let mut steps = Vec::new();
        for (s, stage) in spec.stages.iter().enumerate() {
            if let Source::Range { loop_pc, predict } = stage.source {
                range = Some((s, steps.len()));
                steps.push(Step::Loop {
                    stage: s,
                    pc: loop_pc,
                    predict,
                });
            }
            steps.extend((0..stage.lanes.len()).map(|l| Step::Lane(s, l)));
        }
        TemplateComponent {
            spec,
            range,
            steps,
            tag: 0,
            wl_base: 0,
            wl_len: 0,
            have_call: false,
            call_gen: 0,
            base_iter: 0,
            alloc_iter: 0,
            issue: [(0, 0, 0); MAX_STAGES],
            emit: (0, 0, 0),
            window: VecDeque::new(),
            entered: FxHashMap::default(),
            entered_log: VecDeque::new(),
            #[cfg(debug_assertions)]
            entered_shadow: std::collections::BTreeMap::new(),
        }
    }

    fn reset_call(&mut self) {
        self.call_gen = (self.call_gen + 1) & mask(64 - GEN_SHIFT);
        self.have_call = false;
        self.base_iter = 0;
        self.alloc_iter = 0;
        self.issue = [(0, 0, 0); MAX_STAGES];
        self.emit = (0, 0, 0);
        self.window.clear();
        self.entered.clear();
        self.entered_log.clear();
        #[cfg(debug_assertions)]
        self.entered_shadow.clear();
    }

    /// The id of `iter`'s load for stage code `code`, `elem`, `lane`.
    fn load_id(&self, iter: u64, code: usize, elem: u64, lane: usize) -> u64 {
        (self.call_gen << GEN_SHIFT)
            | ((iter & mask(GEN_SHIFT - ITER_SHIFT)) << ITER_SHIFT)
            | ((code as u64) << STAGE_SHIFT)
            | ((elem & mask(STAGE_SHIFT - ELEM_SHIFT)) << ELEM_SHIFT)
            | lane as u64
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

    /// Stage `s`'s loaded value for (`elem`, `lane`).
    fn value(&self, slot: &IterState, s: usize, elem: u64, lane: usize) -> Option<u64> {
        let at = elem as usize * self.spec.stages[s].lanes.len() + lane;
        slot.values[s].get(at).copied().flatten()
    }

    /// Stage `s`'s elements: one before the range, the trip count from
    /// the range on (`None` until both bounds are back).
    fn count(&self, slot: &IterState, s: usize) -> Option<u64> {
        match self.range {
            Some((r, _)) if s >= r => {
                let (lo, hi) = self.bounds(slot, r)?;
                Some(hi.saturating_sub(lo))
            }
            _ => Some(1),
        }
    }

    /// The range stage `r`'s `[lo, hi)`.
    fn bounds(&self, slot: &IterState, r: usize) -> Option<(u64, u64)> {
        let prev = r.checked_sub(1)?;
        Some((self.value(slot, prev, 0, 0)?, self.value(slot, prev, 0, 1)?))
    }

    /// The input of stage `s`'s element `elem`.
    fn input(&self, slot: &IterState, s: usize, elem: u64) -> Option<u64> {
        match self.spec.stages[s].source {
            Source::Each if s == 0 => slot.index,
            Source::Each => self.value(slot, s - 1, elem, 0),
            Source::Range { .. } => Some(self.bounds(slot, s)?.0.wrapping_add(elem)),
        }
    }

    /// The core retired the iteration at the commit head. The base
    /// advances even past iterations the component never allocated
    /// (the core ran ahead on fallback predictions), and every cursor
    /// skips what the core retired first.
    fn retire(&mut self) {
        self.window.pop_front();
        self.base_iter += 1;
        let base = self.base_iter;
        self.alloc_iter = self.alloc_iter.max(base);
        for c in self.issue.iter_mut().chain([&mut self.emit]) {
            if c.0 < base {
                *c = (base, 0, 0);
            }
        }
        // Entered keys live one extra scope beyond retirement: a load
        // issued before the store committed may only be converted into
        // a prediction after the store retires, and "entered" is
        // sticky within a call, so the longer lifetime is always safe
        // (a bounded CAM of 2·scope iterations' keys). A key expires
        // with its latest insert: an older log entry for a key a later
        // insert refreshed leaves it in place.
        let scope = self.spec.scope as u64;
        while let Some(&(it, key)) = self.entered_log.front() {
            if it + scope >= base {
                break;
            }
            self.entered_log.pop_front();
            if self.entered.get(&key) == Some(&it) {
                self.entered.remove(&key);
            }
        }
        #[cfg(debug_assertions)]
        {
            self.entered_shadow.retain(|_, &mut it| it + scope >= base);
            debug_assert!(
                self.entered.len() == self.entered_shadow.len()
                    && self
                        .entered_shadow
                        .iter()
                        .all(|(k, v)| self.entered.get(k) == Some(v)),
                "entered set diverged from whole-set expiry at iteration {base}"
            );
        }
    }

    /// Records `key` as entered by iteration `iter`.
    fn enter(&mut self, key: u64, iter: u64) {
        debug_assert!(self.entered_log.back().is_none_or(|&(it, _)| it <= iter));
        self.entered.insert(key, iter);
        self.entered_log.push_back((iter, key));
        #[cfg(debug_assertions)]
        self.entered_shadow.insert(key, iter);
    }

    fn observations(&mut self, io: &mut FabricIo<'_>) {
        while let Some(obs) = io.pop_obs() {
            if let ObsPacket::DestValue { pc, value } = obs {
                if self.spec.tag_pc == Some(pc) {
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
            if r.id >> GEN_SHIFT != self.call_gen {
                continue;
            }
            let field = |lo: u32, hi: u32| (r.id >> lo) & mask(hi - lo);
            let ahead = field(ITER_SHIFT, GEN_SHIFT).wrapping_sub(self.base_iter);
            let iter = self.base_iter + (ahead & mask(GEN_SHIFT - ITER_SHIFT));
            let stage = (field(STAGE_SHIFT, ITER_SHIFT) as usize).checked_sub(1);
            let at = stage.map_or(0, |s| {
                let lanes = self.spec.stages[s].lanes.len();
                field(ELEM_SHIFT, STAGE_SHIFT) as usize * lanes + field(0, ELEM_SHIFT) as usize
            });
            let Some(slot) = self.slot_mut(iter) else {
                continue;
            };
            let v = match stage {
                Some(s) => slot.values[s].get_mut(at),
                None => Some(&mut slot.index),
            };
            if let Some(v) = v {
                *v = Some(r.value);
            }
        }
    }

    /// T0: allocate the next worklist element within the scope and
    /// load it.
    fn t0(&mut self, io: &mut FabricIo<'_>) {
        for _ in 0..self.spec.wl_loads_per_cycle {
            if !self.have_call
                || self.alloc_iter >= self.wl_len
                || (self.alloc_iter - self.base_iter) as usize >= self.spec.scope
            {
                return;
            }
            let addr = self.wl_base + self.spec.wl_elem_size * self.alloc_iter;
            if !io.push_load(FabricLoad {
                id: self.load_id(self.alloc_iter, 0, 0, 0),
                addr,
                size: self.spec.wl_elem_size,
                is_prefetch: false,
            }) {
                return;
            }
            let stages = &self.spec.stages;
            self.window.push_back(IterState {
                index: None,
                values: std::array::from_fn(|s| {
                    Vec::with_capacity(stages.get(s).map_or(0, |st| st.lanes.len()))
                }),
            });
            self.alloc_iter += 1;
        }
    }

    /// Issues stage `s`'s loads in order, each once its input is back.
    /// A push that fails mid-group resumes at the same lane next cycle,
    /// and that group counts toward the next cycle's rate.
    fn issue(&mut self, s: usize, io: &mut FabricIo<'_>) {
        let mut groups = 0;
        while groups < self.spec.stages[s].groups_per_cycle {
            let (iter, elem, l) = self.issue[s];
            let Some(slot) = self.slot(iter) else {
                return;
            };
            let Some(count) = self.count(slot, s) else {
                return;
            };
            if elem >= count {
                self.issue[s] = (iter + 1, 0, 0);
                continue;
            }
            let Some(x) = self.input(slot, s, elem) else {
                return;
            };
            let lanes = &self.spec.stages[s].lanes;
            if !io.push_load(FabricLoad {
                id: self.load_id(iter, s + 1, elem, l),
                addr: lanes[l].addr(x),
                size: lanes[l].size,
                is_prefetch: false,
            }) {
                return;
            }
            if l + 1 == group_end(lanes, l) {
                groups += 1;
            }
            self.issue[s] = if l + 1 < lanes.len() {
                (iter, elem, l + 1)
            } else {
                (iter, elem + 1, 0)
            };
            if let Some(slot) = self.slot_mut(iter) {
                slot.values[s].push(None);
            }
        }
    }

    /// Converts loaded values into predictions in program order. A
    /// group leader whose derived index was entered predicts taken
    /// without its value.
    fn emit(&mut self, io: &mut FabricIo<'_>) {
        loop {
            let (iter, elem, k) = self.emit;
            if iter >= self.wl_len {
                return;
            }
            let Some(slot) = self.slot(iter) else {
                return;
            };
            self.emit = match self.steps.get(k) {
                None => match self.range {
                    Some((_, body)) => (iter, elem + 1, body),
                    None => (iter + 1, 0, 0),
                },
                Some(&Step::Loop { stage, pc, predict }) => {
                    let Some(count) = self.count(slot, stage) else {
                        return;
                    };
                    let taken = elem >= count;
                    if predict && !io.push_pred(PredPacket { pc, taken }) {
                        return;
                    }
                    if taken {
                        (iter + 1, 0, 0)
                    } else {
                        (iter, elem, k + 1)
                    }
                }
                Some(&Step::Lane(s, l)) => {
                    let lanes = &self.spec.stages[s].lanes;
                    let end = group_end(lanes, l);
                    if self.spec.emit_after_issue && (iter, elem, end) > self.issue[s] {
                        return;
                    }
                    let lane = lanes[l];
                    let Some(branch) = lane.branch else {
                        self.emit = (iter, elem, k + 1);
                        continue;
                    };
                    let Some(x) = self.input(slot, s, elem) else {
                        return;
                    };
                    let key = lane.key(x);
                    let leader = l == 0 || lanes[l - 1].group != lane.group;
                    let taken = if leader && self.entered.contains_key(&key) {
                        true
                    } else {
                        let Some(v) = self.value(slot, s, elem, l) else {
                            return;
                        };
                        branch.predicate.eval(v, lane.size, self.tag)
                    };
                    if branch.predict
                        && !io.push_pred(PredPacket {
                            pc: branch.pc,
                            taken,
                        })
                    {
                        return;
                    }
                    let entered = match self.spec.infer {
                        Some(Infer::AllNotTaken) => !taken && l + 1 == end,
                        Some(Infer::EveryOutcome) => true,
                        None => false,
                    };
                    if entered {
                        self.enter(key, iter);
                    }
                    (iter, elem, if taken { k + end - l } else { k + 1 })
                }
            };
        }
    }
}

/// One past the last lane of `lane`'s group.
fn group_end(lanes: &[LaneSpec], lane: usize) -> usize {
    (lane + 1..lanes.len())
        .find(|&l| lanes[l].group != lanes[lane].group)
        .unwrap_or(lanes.len())
}

impl CustomComponent for TemplateComponent {
    fn tick(&mut self, io: &mut FabricIo<'_>) {
        self.observations(io);
        self.responses(io);
        self.emit(io);
        for s in (0..self.spec.stages.len()).rev() {
            self.issue(s, io);
        }
        self.t0(io);
    }

    fn name(&self) -> &'static str {
        "templated-runahead"
    }

    fn watchlist(&self) -> Vec<(u64, WatchKind)> {
        let spec = &self.spec;
        let mut w: Vec<_> = spec
            .tag_pc
            .into_iter()
            .chain([spec.wl_base_pc, spec.wl_len_pc, spec.induction_pc])
            .map(|pc| (pc, WatchKind::DestValue))
            .collect();
        for stage in &spec.stages {
            // A range's trip count controls a loop: the dominator
            // analysis must agree it is loop control, not just any
            // branch, whether or not slipstream predicts it.
            if let Source::Range { loop_pc, .. } = stage.source {
                w.push((loop_pc, WatchKind::LoopBranch));
            }
            w.extend(
                stage
                    .lanes
                    .iter()
                    .filter_map(|l| Some((l.branch?.pc, WatchKind::CondBranch))),
            );
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
                size: c.size,
                branch: Some(BranchSpec {
                    pc: c.branch_pc,
                    predicate: c.predicate,
                    predict: true,
                }),
                group: gi as u32,
            });
        }
    }
    // Figure 7's synthesized design: one worklist load and "two
    // index1s / four loads" per RF cycle, and T2 converts a group only
    // once T1 has issued it.
    Some(TemplateSpec {
        tag_pc: Some(tag_pc),
        wl_base_pc: *wl_base_pc,
        wl_len_pc,
        induction_pc: *induction_pc,
        wl_elem_size: wl.width,
        wl_loads_per_cycle: 1,
        stages: vec![StageSpec {
            source: Source::Each,
            lanes,
            groups_per_cycle: 2,
        }],
        scope,
        infer: infer.then_some(Infer::AllNotTaken),
        emit_after_issue: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfm_fabric::LoadResponse;
    use std::collections::BTreeSet;

    fn lane(
        offset: i64,
        table_base: u64,
        elem_scale: u64,
        size: u64,
        branch: Option<(u64, Predicate)>,
        group: u32,
    ) -> LaneSpec {
        LaneSpec {
            offset,
            table_base,
            elem_scale,
            size,
            branch: branch.map(|(pc, predicate)| BranchSpec {
                pc,
                predicate,
                predict: true,
            }),
            group,
        }
    }

    fn spec_two_lane() -> TemplateSpec {
        TemplateSpec {
            tag_pc: Some(0x100),
            wl_base_pc: 0x104,
            wl_len_pc: 0x108,
            induction_pc: 0x10c,
            wl_elem_size: 4,
            wl_loads_per_cycle: 1,
            stages: vec![StageSpec {
                source: Source::Each,
                lanes: vec![
                    lane(1, 0x10_0000, 8, 4, Some((0x200, Predicate::EqualsTag)), 0),
                    lane(1, 0x20_0000, 1, 1, Some((0x204, Predicate::NonZero)), 0),
                ],
                groups_per_cycle: 2,
            }],
            scope: 8,
            infer: Some(Infer::AllNotTaken),
            emit_after_issue: true,
        }
    }

    /// astar's spec on a 64-wide grid: per neighbor `k`, the `waymap`
    /// lane (branch `0x200 + 0x10k`, taken = visited) then the `maparp`
    /// lane (branch 4 bytes on, taken = blocked).
    fn astar_spec(store_inference: bool) -> TemplateSpec {
        let offsets = [-65, -64, -63, -1, 1, 63, 64, 65];
        let mut lanes = Vec::new();
        for (k, &offset) in offsets.iter().enumerate() {
            let pc = 0x200 + 0x10 * k as u64;
            let group = k as u32;
            lanes.push(lane(
                offset,
                0x10_0000,
                8,
                4,
                Some((pc, Predicate::EqualsTag)),
                group,
            ));
            lanes.push(lane(
                offset,
                0x20_0000,
                1,
                1,
                Some((pc + 4, Predicate::NonZero)),
                group,
            ));
        }
        let mut spec = spec_two_lane();
        spec.stages[0].lanes = lanes;
        spec.infer = store_inference.then_some(Infer::AllNotTaken);
        spec
    }

    /// bfs's spec: the frontier (base, length and induction snooped at
    /// `0x100`/`0x104`/`0x108`), the `offsets` pair at `0x100_0000`, the
    /// neighbor range at `0x200_0000` with its loop branch at `0x400`,
    /// and the property stage at `0x300_0000` predicting the visited
    /// branch at `0x410`.
    fn bfs_spec(scope: usize, dup_inference: bool) -> TemplateSpec {
        let stage = |source, lanes| StageSpec {
            source,
            lanes,
            groups_per_cycle: usize::MAX,
        };
        let visited = Some((0x410, Predicate::NonNegative));
        TemplateSpec {
            tag_pc: None,
            wl_base_pc: 0x100,
            wl_len_pc: 0x104,
            induction_pc: 0x108,
            wl_elem_size: 4,
            wl_loads_per_cycle: usize::MAX,
            stages: vec![
                stage(
                    Source::Each,
                    vec![
                        lane(0, 0x100_0000, 8, 8, None, 0),
                        lane(1, 0x100_0000, 8, 8, None, 0),
                    ],
                ),
                stage(
                    Source::Range {
                        loop_pc: 0x400,
                        predict: true,
                    },
                    vec![lane(0, 0x200_0000, 4, 4, None, 0)],
                ),
                stage(Source::Each, vec![lane(0, 0x300_0000, 8, 8, visited, 0)]),
            ],
            scope,
            infer: dup_inference.then_some(Infer::EveryOutcome),
            emit_after_issue: false,
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
        let lanes = &spec.stages[0].lanes;
        let leaders: BTreeSet<u64> = lanes
            .iter()
            .enumerate()
            .filter(|&(i, l)| i == 0 || lanes[i - 1].group != l.group)
            .filter_map(|(_, l)| Some(l.branch?.pc))
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
        let offsets: Vec<i64> = spec.stages[0]
            .lanes
            .iter()
            .step_by(2)
            .map(|l| l.offset)
            .collect();
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
        let lane = |gi: usize, off: i64, way: bool| {
            let branch = if way {
                (way_pcs[gi], Predicate::EqualsTag)
            } else {
                (map_pcs[gi], Predicate::NonZero)
            };
            let (base, scale, size) = if way {
                (0x10_0000, 8, 4)
            } else {
                (0x20_0000, 1, 1)
            };
            lane(off, base, scale, size, Some(branch), gi as u32)
        };
        assert_eq!(
            spec,
            TemplateSpec {
                tag_pc: Some(tag_pc),
                wl_base_pc,
                wl_len_pc,
                induction_pc,
                wl_elem_size: 4,
                wl_loads_per_cycle: 1,
                stages: vec![StageSpec {
                    source: Source::Each,
                    lanes: vec![
                        lane(0, 1, true),
                        lane(0, 1, false),
                        lane(1, -1, true),
                        lane(1, -1, false),
                    ],
                    groups_per_cycle: 2,
                }],
                scope: 8,
                infer: Some(Infer::AllNotTaken),
                emit_after_issue: true,
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

    /// A tiny in-memory graph the harness answers bfs loads from,
    /// decoding each load by its address; `frontier[i]` sits at
    /// `0x500_0000 + 4i`.
    struct MiniGraph {
        offsets: Vec<u64>,
        neighbors: Vec<u32>,
        props: Vec<i64>,
    }

    impl MiniGraph {
        /// Answers every load issued since the last call.
        fn answer(&self, h: &mut Harness, answered: &mut usize, frontier: &[u32]) {
            for l in &h.loads[*answered..] {
                let value = match l.addr {
                    a if a >= 0x500_0000 => frontier[((a - 0x500_0000) / 4) as usize] as u64,
                    a if a >= 0x300_0000 => self.props[((a - 0x300_0000) / 8) as usize] as u64,
                    a if a >= 0x200_0000 => self.neighbors[((a - 0x200_0000) / 4) as usize] as u64,
                    a => self.offsets[((a - 0x100_0000) / 8) as usize],
                };
                h.resp.push_back(LoadResponse { id: l.id, value });
            }
            *answered = h.loads.len();
        }
    }

    /// Starts a bfs level over `frontier` and ticks `ticks` times at
    /// width 8, answering every load from `g`.
    fn run_level(
        c: &mut TemplateComponent,
        g: &MiniGraph,
        frontier: &[u32],
        ticks: usize,
    ) -> Harness {
        let mut h = Harness::new();
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 0x500_0000,
        });
        h.obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: frontier.len() as u64,
        });
        let mut answered = 0;
        for _ in 0..ticks {
            h.tick(c, 8);
            g.answer(&mut h, &mut answered, frontier);
        }
        h
    }

    /// Two frontier nodes that both point at neighbor 7, unvisited in
    /// memory.
    fn shared_neighbor() -> MiniGraph {
        MiniGraph {
            offsets: vec![0, 1, 2],
            neighbors: vec![7, 7],
            props: vec![-1; 10],
        }
    }

    #[test]
    fn emits_trip_count_and_visited_predictions_in_program_order() {
        // Frontier = [node 0]; node 0 has neighbors [5, 6]; 5 is
        // visited (prop >= 0), 6 is not.
        let g = MiniGraph {
            offsets: vec![0, 2],
            neighbors: vec![5, 6],
            props: (0..10).map(|i| if i == 5 { 0 } else { -1 }).collect(),
        };
        let mut c = TemplateComponent::new(bfs_spec(64, true));
        let h = run_level(&mut c, &g, &[0], 30);
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
        // One node processed: one loop exit.
        let exits = h.preds.iter().filter(|p| p.pc == 0x400 && p.taken);
        assert_eq!(exits.count(), 1);
    }

    #[test]
    fn duplicate_neighbor_inferred_visited() {
        // The second visit to neighbor 7 must be predicted taken via
        // the window search.
        let mut c = TemplateComponent::new(bfs_spec(64, true));
        let h = run_level(&mut c, &shared_neighbor(), &[0, 1], 40);
        let visited: Vec<_> = h.preds.iter().filter(|p| p.pc == 0x410).collect();
        assert_eq!(visited.len(), 2);
        assert!(!visited[0].taken, "first visit enters");
        assert!(visited[1].taken, "second visit inferred visited");
        // Every property reads unvisited: the one taken prediction is
        // the one duplicate override.
        assert_eq!(visited.iter().filter(|p| p.taken).count(), 1);
    }

    #[test]
    fn no_dup_inference_repeats_the_mistake() {
        let mut c = TemplateComponent::new(bfs_spec(64, false));
        let h = run_level(&mut c, &shared_neighbor(), &[0, 1], 40);
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
        let mut c = TemplateComponent::new(bfs_spec(64, true));
        let h = run_level(&mut c, &g, &[0], 20);
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
        let mut c = TemplateComponent::new(bfs_spec(64, true));
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
        let mut c = TemplateComponent::new(bfs_spec(64, true));
        let mut h = run_level(&mut c, &shared_neighbor(), &[0, 1], 40);
        assert!(c.entered.contains_key(&7));
        // The set persists for `scope` extra retirements (sticky
        // visited-ness), so retire scope+2 nodes.
        for i in 0..(c.spec.scope as u64 + 2) {
            h.obs.push_back(ObsPacket::DestValue {
                pc: 0x108,
                value: i,
            });
        }
        for _ in 0..20 {
            h.tick(&mut c, 8);
        }
        assert!(
            !c.entered.contains_key(&7),
            "old entries leave the search window"
        );
        assert!(c.base_iter >= 2);
    }
}
