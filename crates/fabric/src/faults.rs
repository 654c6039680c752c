//! Deterministic fault injection for custom components.
//!
//! PFM's load-bearing guarantee (§3 of the paper) is that a custom
//! component can only intervene *microarchitecturally*: a buggy or
//! adversarial component may cost performance but must never corrupt
//! architectural state or hang the core. This module provides the
//! chaos side of that proof: [`FaultyComponent`] wraps any
//! [`CustomComponent`] and perturbs its packet streams with one of the
//! adversarial [`FaultScenario`]s, gated by a seed-keyed, counter-based
//! splitmix RNG ([`FaultRng`]) so every injected-fault trace is a pure
//! function of the [`FaultPlan`] and the observed packet stream — no
//! entropy, no wall clock, bit-identical across runs and hosts.
//!
//! The contract under test: for every scenario, the committed
//! architectural checksum of a faulty run must be bit-identical to the
//! fault-free run (the `chaos` experiment family in `pfm-sim` asserts
//! this), while performance statistics are allowed to degrade.

use crate::component::{CustomComponent, FabricIo};
use crate::packets::{FabricLoad, LoadResponse, ObsPacket, PredPacket};
use std::collections::VecDeque;

/// RF ticks a [`FaultScenario::StuckBusy`] episode keeps the component
/// frozen (consuming nothing, producing nothing).
pub const STUCK_TICKS: u64 = 48;

/// RF ticks a [`FaultScenario::LatencySpike`] window lasts.
pub const SPIKE_TICKS: u64 = 24;

/// Extra output delay (RF ticks) applied inside a latency-spike window.
pub const SPIKE_EXTRA_DELAY: u64 = 12;

/// Ingress skid-buffer depth in multiples of the width W. The wrapper
/// pops at most this much ahead of the inner component so fabric
/// back-pressure (full ObsQ stalling retirement) is preserved.
const SKID_WIDTHS: usize = 2;

/// One adversarial behavior class injected by [`FaultyComponent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultScenario {
    /// Flip the direction of outgoing branch predictions.
    InvertPred,
    /// Replace outgoing predictions with garbage (wrong PC and a
    /// random direction), exercising the Fetch Agent's mismatch
    /// detection.
    GarbagePred,
    /// Rewrite outgoing load/prefetch addresses to wild locations:
    /// unmapped, misaligned, or kernel-range.
    WildPrefetch,
    /// Drop packets in both directions (observations and responses on
    /// ingress, predictions and loads on egress).
    DropPackets,
    /// Delay packets in both directions by a random 1–8 RF ticks,
    /// which also reorders them relative to unaffected packets.
    DelayPackets,
    /// Duplicate packets in both directions (duplicated loads reuse
    /// the component-chosen id, so responses collide too).
    DuplicatePackets,
    /// Freeze the component for [`STUCK_TICKS`]-tick episodes: it pops
    /// nothing and pushes nothing, backing pressure up into the fabric
    /// queues and the Retire Agent.
    StuckBusy,
    /// Enter [`SPIKE_TICKS`]-tick windows during which every output is
    /// delayed by an extra [`SPIKE_EXTRA_DELAY`] ticks.
    LatencySpike,
    /// Abort an in-progress component swap at a seed-keyed point of the
    /// partial-reconfiguration load window; the load restarts from
    /// scratch (injected by the fabric's residency machine, not by
    /// [`FaultyComponent`]).
    SwapAbort,
    /// Inflate the partial-reconfiguration load latency of a swap by a
    /// seed-keyed multiple of the load window (injected by the fabric's
    /// residency machine).
    SwapLoadSpike,
    /// During the Draining phase of a swap, stale in-flight predictions
    /// from the outgoing component keep answering the Fetch Agent
    /// instead of being quiesced (injected by the fabric's residency
    /// machine).
    StaleDrain,
    /// Corrupt the phase-detection scheduler's retired-stream signature
    /// so it swaps the wrong component in (injected by the scheduling
    /// layer; a no-op at the fabric).
    CorruptSignature,
}

impl FaultScenario {
    /// Every scenario, in a fixed order (the `chaos` experiment family
    /// iterates this).
    pub const ALL: [FaultScenario; 8] = [
        FaultScenario::InvertPred,
        FaultScenario::GarbagePred,
        FaultScenario::WildPrefetch,
        FaultScenario::DropPackets,
        FaultScenario::DelayPackets,
        FaultScenario::DuplicatePackets,
        FaultScenario::StuckBusy,
        FaultScenario::LatencySpike,
    ];

    /// The mid-swap scenarios, in a fixed order (the `context-switch`
    /// experiment family iterates this). Kept separate from [`ALL`]:
    /// these perturb the residency machine / scheduler and are inert
    /// inside [`FaultyComponent`], so the single-component chaos family
    /// does not run them.
    ///
    /// [`ALL`]: FaultScenario::ALL
    pub const MID_SWAP: [FaultScenario; 4] = [
        FaultScenario::SwapAbort,
        FaultScenario::SwapLoadSpike,
        FaultScenario::StaleDrain,
        FaultScenario::CorruptSignature,
    ];

    /// Stable kebab-case name, used in run keys and report rows.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::InvertPred => "invert-pred",
            FaultScenario::GarbagePred => "garbage-pred",
            FaultScenario::WildPrefetch => "wild-prefetch",
            FaultScenario::DropPackets => "drop-packets",
            FaultScenario::DelayPackets => "delay-packets",
            FaultScenario::DuplicatePackets => "dup-packets",
            FaultScenario::StuckBusy => "stuck-busy",
            FaultScenario::LatencySpike => "latency-spike",
            FaultScenario::SwapAbort => "swap-abort",
            FaultScenario::SwapLoadSpike => "swap-load-spike",
            FaultScenario::StaleDrain => "stale-drain",
            FaultScenario::CorruptSignature => "corrupt-signature",
        }
    }

    /// Whether this scenario is injected by the fabric's residency
    /// machine / the scheduling layer rather than by
    /// [`FaultyComponent`].
    pub fn is_mid_swap(self) -> bool {
        FaultScenario::MID_SWAP.contains(&self)
    }
}

/// A complete, deterministic description of the faults to inject into
/// one run: which scenario, the RNG seed, and the per-opportunity
/// injection probability. Two runs with equal plans (and equal
/// workloads) produce bit-identical fault traces, so a plan is safe to
/// fold into a `RunSpec` key for dedup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The adversarial behavior class to inject.
    pub scenario: FaultScenario,
    /// Seed for the counter-based fault RNG.
    pub seed: u64,
    /// Injection probability per opportunity, in per-mille (0–1000).
    pub rate: u16,
}

/// Default per-mille injection rate: aggressive enough to fire
/// constantly at experiment scale, low enough that runs still make
/// forward progress.
pub const DEFAULT_FAULT_RATE: u16 = 200;

impl FaultPlan {
    /// A plan for `scenario` at the default rate.
    pub fn new(scenario: FaultScenario, seed: u64) -> FaultPlan {
        FaultPlan {
            scenario,
            seed,
            rate: DEFAULT_FAULT_RATE,
        }
    }

    /// Overrides the per-mille injection rate.
    pub fn with_rate(mut self, rate: u16) -> FaultPlan {
        self.rate = rate;
        self
    }

    /// Canonical content key (folds into `RunSpec` keys so faulty runs
    /// never dedup against fault-free ones).
    pub fn key(&self) -> String {
        format!(
            "chaos({},s{},r{})",
            self.scenario.name(),
            self.seed,
            self.rate
        )
    }
}

/// Counter-based splitmix64: output `i` is a pure function of
/// `(seed, i)`. No internal entropy, no wall clock — deterministic by
/// construction, which keeps pfm-lint's determinism rules trivially
/// satisfied and makes fault traces replayable.
#[derive(Clone, Debug)]
pub struct FaultRng {
    seed: u64,
    counter: u64,
}

impl FaultRng {
    /// An RNG whose whole output stream is determined by `seed`.
    pub fn new(seed: u64) -> FaultRng {
        FaultRng { seed, counter: 0 }
    }

    /// Next 64-bit draw (splitmix64 of the incremented counter).
    pub fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        let mut z = self
            .seed
            .wrapping_add(self.counter.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `per_mille`/1000.
    pub fn chance(&mut self, per_mille: u16) -> bool {
        self.next_u64() % 1000 < u64::from(per_mille)
    }

    /// A random packet delay of 1–8 RF ticks.
    pub fn jitter(&mut self) -> u64 {
        1 + self.next_u64() % 8
    }

    /// How many draws have been made (part of the deterministic fault
    /// trace asserted by tests).
    pub fn draws(&self) -> u64 {
        self.counter
    }
}

pfm_isa::counters! {
    /// Counters describing exactly what a [`FaultyComponent`] injected.
    /// Part of the deterministic fault trace: same [`FaultPlan`] and
    /// workload ⇒ bit-identical `FaultStats`.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct FaultStats {
        /// Predictions whose direction was flipped.
        pub inverted: u64,
        /// Predictions replaced with garbage PC/direction.
        pub garbled: u64,
        /// Loads/prefetches redirected to wild addresses.
        pub wild: u64,
        /// Packets dropped (both directions).
        pub dropped: u64,
        /// Packets delayed (both directions).
        pub delayed: u64,
        /// Packets duplicated (both directions).
        pub duplicated: u64,
        /// RF ticks spent frozen in stuck-busy episodes.
        pub stuck_ticks: u64,
        /// RF ticks spent inside latency-spike windows.
        pub spike_ticks: u64,
        /// Total RNG draws made (fingerprint of the decision sequence).
        pub rng_draws: u64,
    }
}

impl FaultStats {
    /// Total discrete fault injections (episodic scenarios count ticks).
    pub fn injected(&self) -> u64 {
        self.inverted
            + self.garbled
            + self.wild
            + self.dropped
            + self.delayed
            + self.duplicated
            + self.stuck_ticks
            + self.spike_ticks
    }
}

/// A wild address for [`FaultScenario::WildPrefetch`]: unmapped,
/// misaligned, or kernel-range, derived from one RNG draw. Sizes are
/// never perturbed, so memory-model size invariants hold; addresses
/// are allowed to be arbitrary (the memory model wraps).
fn wild_addr(r: u64) -> u64 {
    match r % 3 {
        0 => 0xdead_beef_0000 | (r & 0xfff8),           // unmapped hole
        1 => ((r >> 8) & 0xffff) | 1,                   // misaligned low
        _ => 0xffff_8000_0000_0000 | (r & 0x00ff_fff8), // kernel half
    }
}

/// Wraps any [`CustomComponent`] and adversarially perturbs its packet
/// streams according to a [`FaultPlan`].
///
/// The wrapper sits between the fabric's real [`FabricIo`] window and
/// the inner component: each tick it pops ingress packets (applying
/// drop/delay/duplicate faults), ticks the inner component against a
/// private width-W window over the perturbed queues, then perturbs and
/// forwards the inner component's outputs (respecting the outer
/// window's width budget and queue space, with undelivered outputs
/// carried to later ticks). Everything it does is driven by
/// [`FaultRng`], so the full injected-fault trace is deterministic.
pub struct FaultyComponent {
    inner: Box<dyn CustomComponent>,
    plan: FaultPlan,
    rng: FaultRng,
    stats: FaultStats,
    /// Perturbed ingress queues the inner component reads.
    in_obs: VecDeque<ObsPacket>,
    in_resp: VecDeque<LoadResponse>,
    /// Ingress packets held back by an injected delay: `(due, packet)`.
    held_obs: VecDeque<(u64, ObsPacket)>,
    held_resp: VecDeque<(u64, LoadResponse)>,
    /// Outputs awaiting delivery to the outer window: `(due, packet)`.
    out_preds: VecDeque<(u64, PredPacket)>,
    out_loads: VecDeque<(u64, FabricLoad)>,
    /// Scratch buffers for the inner window (reused across ticks).
    inner_preds: Vec<PredPacket>,
    inner_loads: Vec<FabricLoad>,
    stuck_until: u64,
    spike_until: u64,
}

impl FaultyComponent {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: Box<dyn CustomComponent>, plan: FaultPlan) -> FaultyComponent {
        FaultyComponent {
            inner,
            plan,
            rng: FaultRng::new(plan.seed),
            stats: FaultStats::default(),
            in_obs: VecDeque::new(),
            in_resp: VecDeque::new(),
            held_obs: VecDeque::new(),
            held_resp: VecDeque::new(),
            out_preds: VecDeque::new(),
            out_loads: VecDeque::new(),
            inner_preds: Vec::new(),
            inner_loads: Vec::new(),
            stuck_until: 0,
            spike_until: 0,
        }
    }

    /// The plan this wrapper injects.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Releases delay-held ingress packets whose due tick has arrived.
    /// Delays differ per packet, so the held queues are scanned rather
    /// than treated as sorted (reordering is part of the fault model).
    fn release_held(&mut self, rf: u64) {
        let mut i = 0;
        while i < self.held_obs.len() {
            if self.held_obs[i].0 <= rf {
                if let Some((_, p)) = self.held_obs.remove(i) {
                    self.in_obs.push_back(p);
                }
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.held_resp.len() {
            if self.held_resp[i].0 <= rf {
                if let Some((_, p)) = self.held_resp.remove(i) {
                    self.in_resp.push_back(p);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Pops ingress packets from the outer window into the perturbed
    /// inner queues, applying drop/delay/duplicate faults. Pops stop at
    /// a small skid depth so fabric back-pressure is preserved.
    fn ingest(&mut self, io: &mut FabricIo<'_>, rf: u64, w: usize) {
        let rate = self.plan.rate;
        while self.in_obs.len() < SKID_WIDTHS * w {
            let Some(p) = io.pop_obs() else { break };
            match self.plan.scenario {
                FaultScenario::DropPackets if self.rng.chance(rate) => {
                    self.stats.dropped += 1;
                }
                FaultScenario::DelayPackets if self.rng.chance(rate) => {
                    let due = rf + self.rng.jitter();
                    self.stats.delayed += 1;
                    self.held_obs.push_back((due, p));
                }
                FaultScenario::DuplicatePackets if self.rng.chance(rate) => {
                    self.stats.duplicated += 1;
                    self.in_obs.push_back(p);
                    self.in_obs.push_back(p);
                }
                _ => self.in_obs.push_back(p),
            }
        }
        while self.in_resp.len() < SKID_WIDTHS * w {
            let Some(p) = io.pop_load_resp() else { break };
            match self.plan.scenario {
                FaultScenario::DropPackets if self.rng.chance(rate) => {
                    self.stats.dropped += 1;
                }
                FaultScenario::DelayPackets if self.rng.chance(rate) => {
                    let due = rf + self.rng.jitter();
                    self.stats.delayed += 1;
                    self.held_resp.push_back((due, p));
                }
                FaultScenario::DuplicatePackets if self.rng.chance(rate) => {
                    self.stats.duplicated += 1;
                    self.in_resp.push_back(p);
                    self.in_resp.push_back(p);
                }
                _ => self.in_resp.push_back(p),
            }
        }
    }

    /// Perturbs the inner component's outputs and queues them for
    /// delivery at their due tick.
    fn perturb_outputs(&mut self, rf: u64, extra_delay: u64) {
        let rate = self.plan.rate;
        for mut p in self.inner_preds.drain(..) {
            let mut delay = extra_delay;
            match self.plan.scenario {
                FaultScenario::InvertPred if self.rng.chance(rate) => {
                    p.taken = !p.taken;
                    self.stats.inverted += 1;
                }
                FaultScenario::GarbagePred if self.rng.chance(rate) => {
                    let r = self.rng.next_u64();
                    p = PredPacket {
                        pc: 0x6a11_0000_0000 | (r & 0xffff),
                        taken: r & 1 == 0,
                    };
                    self.stats.garbled += 1;
                }
                FaultScenario::DropPackets if self.rng.chance(rate) => {
                    self.stats.dropped += 1;
                    continue;
                }
                FaultScenario::DelayPackets if self.rng.chance(rate) => {
                    delay += self.rng.jitter();
                    self.stats.delayed += 1;
                }
                FaultScenario::DuplicatePackets if self.rng.chance(rate) => {
                    self.stats.duplicated += 1;
                    self.out_preds.push_back((rf + delay, p));
                }
                _ => {}
            }
            self.out_preds.push_back((rf + delay, p));
        }
        for mut l in self.inner_loads.drain(..) {
            let mut delay = extra_delay;
            match self.plan.scenario {
                FaultScenario::WildPrefetch if self.rng.chance(rate) => {
                    let r = self.rng.next_u64();
                    l.addr = wild_addr(r);
                    self.stats.wild += 1;
                }
                FaultScenario::DropPackets if self.rng.chance(rate) => {
                    self.stats.dropped += 1;
                    continue;
                }
                FaultScenario::DelayPackets if self.rng.chance(rate) => {
                    delay += self.rng.jitter();
                    self.stats.delayed += 1;
                }
                FaultScenario::DuplicatePackets if self.rng.chance(rate) => {
                    self.stats.duplicated += 1;
                    self.out_loads.push_back((rf + delay, l));
                }
                _ => {}
            }
            self.out_loads.push_back((rf + delay, l));
        }
    }

    /// Delivers due outputs into the outer window, within its budget.
    fn drain_outputs(&mut self, io: &mut FabricIo<'_>, rf: u64) {
        let mut i = 0;
        while i < self.out_preds.len() {
            let (due, p) = self.out_preds[i];
            if due <= rf && io.can_push_pred() {
                io.push_pred(p);
                self.out_preds.remove(i);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.out_loads.len() {
            let (due, l) = self.out_loads[i];
            if due <= rf && io.can_push_load() {
                io.push_load(l);
                self.out_loads.remove(i);
            } else {
                i += 1;
            }
        }
    }
}

impl CustomComponent for FaultyComponent {
    fn tick(&mut self, io: &mut FabricIo<'_>) {
        let rf = io.rf_cycle();
        let w = io.width();

        if self.plan.scenario == FaultScenario::StuckBusy {
            if rf < self.stuck_until {
                self.stats.stuck_ticks += 1;
                return;
            }
            if self.rng.chance(self.plan.rate) {
                self.stuck_until = rf + STUCK_TICKS;
                self.stats.stuck_ticks += 1;
                return;
            }
        }

        let mut extra_delay = 0;
        if self.plan.scenario == FaultScenario::LatencySpike {
            if rf >= self.spike_until && self.rng.chance(self.plan.rate) {
                self.spike_until = rf + SPIKE_TICKS;
            }
            if rf < self.spike_until {
                self.stats.spike_ticks += 1;
                extra_delay = SPIKE_EXTRA_DELAY;
            }
        }

        self.release_held(rf);
        self.ingest(io, rf, w);

        self.inner_preds.clear();
        self.inner_loads.clear();
        {
            let mut inner_io = FabricIo::new(
                w,
                rf,
                &mut self.in_obs,
                &mut self.in_resp,
                &mut self.inner_preds,
                &mut self.inner_loads,
                w,
                w,
            );
            self.inner.tick(&mut inner_io);
        }

        self.perturb_outputs(rf, extra_delay);
        self.drain_outputs(io, rf);
    }

    fn on_squash(&mut self) {
        // Held observations describe *retired* (architecturally final)
        // instructions, and stale predictions are repaired by the Fetch
        // Agent's PC-mismatch scan, so queues are deliberately kept:
        // only the inner component realigns.
        self.inner.on_squash();
    }

    fn on_drain(&mut self) {
        // The eviction drops every in-flight packet deterministically;
        // held and pending queues would otherwise leak into whatever is
        // loaded next.
        self.in_obs.clear();
        self.in_resp.clear();
        self.held_obs.clear();
        self.held_resp.clear();
        self.out_preds.clear();
        self.out_loads.clear();
        self.inner.on_drain();
    }

    fn on_swap_abort(&mut self) {
        self.inner.on_swap_abort();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn debug_state(&self) -> String {
        format!(
            "faulty({},s{},r{}) injected={} held_obs={} out_preds={} out_loads={} | {}",
            self.plan.scenario.name(),
            self.plan.seed,
            self.plan.rate,
            self.stats.injected(),
            self.held_obs.len(),
            self.out_preds.len(),
            self.out_loads.len(),
            self.inner.debug_state()
        )
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        let mut s = self.stats;
        s.rng_draws = self.rng.draws();
        Some(s)
    }

    fn watchlist(&self) -> Vec<(u64, crate::component::WatchKind)> {
        // Fault injection perturbs timing, never the PC contract.
        self.inner.watchlist()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted inner component: pushes one taken prediction for a
    /// fixed PC and one load per tick, and counts what it observes.
    struct Scripted {
        pc: u64,
        seen_obs: u64,
        seen_resp: u64,
        ticks: u64,
    }

    impl Scripted {
        fn boxed(pc: u64) -> Box<Scripted> {
            Box::new(Scripted {
                pc,
                seen_obs: 0,
                seen_resp: 0,
                ticks: 0,
            })
        }
    }

    impl CustomComponent for Scripted {
        fn tick(&mut self, io: &mut FabricIo<'_>) {
            self.ticks += 1;
            while io.pop_obs().is_some() {
                self.seen_obs += 1;
            }
            while io.pop_load_resp().is_some() {
                self.seen_resp += 1;
            }
            io.push_pred(PredPacket {
                pc: self.pc,
                taken: true,
            });
            io.push_load(FabricLoad {
                id: self.ticks,
                addr: 0x1000,
                size: 8,
                is_prefetch: true,
            });
        }
        fn name(&self) -> &'static str {
            "scripted"
        }
    }

    /// Drives `fc` for `ticks` RF cycles with one obs packet offered
    /// per tick; returns the delivered predictions and loads.
    fn drive(fc: &mut FaultyComponent, ticks: u64) -> (Vec<PredPacket>, Vec<FabricLoad>) {
        let mut preds = Vec::new();
        let mut loads = Vec::new();
        let mut obs: VecDeque<ObsPacket> = VecDeque::new();
        let mut resp: VecDeque<LoadResponse> = VecDeque::new();
        for rf in 0..ticks {
            obs.push_back(ObsPacket::BranchOutcome {
                pc: 0x2000,
                taken: rf % 2 == 0,
            });
            let mut io = FabricIo::new(4, rf, &mut obs, &mut resp, &mut preds, &mut loads, 64, 64);
            fc.tick(&mut io);
        }
        (preds, loads)
    }

    #[test]
    fn rng_is_deterministic_and_counter_keyed() {
        let mut a = FaultRng::new(7);
        let mut b = FaultRng::new(7);
        let draws_a: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let draws_b: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(draws_a, draws_b);
        let mut c = FaultRng::new(8);
        assert_ne!(draws_a, (0..64).map(|_| c.next_u64()).collect::<Vec<_>>());
        // Rough distribution sanity for `chance`.
        let mut r = FaultRng::new(1);
        let hits = (0..10_000).filter(|_| r.chance(250)).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn mid_swap_scenarios_are_disjoint_from_all() {
        for sc in FaultScenario::MID_SWAP {
            assert!(sc.is_mid_swap());
            assert!(
                !FaultScenario::ALL.contains(&sc),
                "{} must not run in the single-component chaos family",
                sc.name()
            );
        }
        for sc in FaultScenario::ALL {
            assert!(!sc.is_mid_swap());
        }
        let mut names: Vec<&str> = FaultScenario::ALL
            .iter()
            .chain(FaultScenario::MID_SWAP.iter())
            .map(|s| s.name())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            FaultScenario::ALL.len() + FaultScenario::MID_SWAP.len()
        );
    }

    #[test]
    fn plan_keys_are_unique() {
        let mut keys: Vec<String> = Vec::new();
        for sc in FaultScenario::ALL {
            for seed in [1, 2] {
                for rate in [100, 200] {
                    keys.push(FaultPlan::new(sc, seed).with_rate(rate).key());
                }
            }
        }
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "duplicate FaultPlan keys");
    }

    #[test]
    fn invert_always_flips_every_prediction() {
        let plan = FaultPlan::new(FaultScenario::InvertPred, 3).with_rate(1000);
        let mut fc = FaultyComponent::new(Scripted::boxed(0x2000), plan);
        let (preds, _) = drive(&mut fc, 32);
        assert_eq!(preds.len(), 32);
        assert!(preds.iter().all(|p| !p.taken), "all flipped from taken");
        let stats = fc.fault_stats().unwrap_or_default();
        assert_eq!(stats.inverted, 32);
    }

    #[test]
    fn wild_prefetch_rewrites_addresses_only() {
        let plan = FaultPlan::new(FaultScenario::WildPrefetch, 5).with_rate(1000);
        let mut fc = FaultyComponent::new(Scripted::boxed(0x2000), plan);
        let (_, loads) = drive(&mut fc, 32);
        assert_eq!(loads.len(), 32);
        assert!(loads.iter().all(|l| l.addr != 0x1000), "all redirected");
        assert!(loads.iter().all(|l| l.size == 8), "sizes stay legal");
        let stats = fc.fault_stats().unwrap_or_default();
        assert_eq!(stats.wild, 32);
    }

    #[test]
    fn drop_all_starves_the_inner_component() {
        let plan = FaultPlan::new(FaultScenario::DropPackets, 9).with_rate(1000);
        let mut fc = FaultyComponent::new(Scripted::boxed(0x2000), plan);
        let (preds, loads) = drive(&mut fc, 16);
        // Ingress all dropped; egress all dropped too.
        assert!(preds.is_empty());
        assert!(loads.is_empty());
        let stats = fc.fault_stats().unwrap_or_default();
        // 16 obs in + 16 preds out + 16 loads out.
        assert_eq!(stats.dropped, 48);
    }

    #[test]
    fn stuck_busy_freezes_ingress_and_egress() {
        let plan = FaultPlan::new(FaultScenario::StuckBusy, 11).with_rate(1000);
        let mut fc = FaultyComponent::new(Scripted::boxed(0x2000), plan);
        let (preds, loads) = drive(&mut fc, 16);
        assert!(preds.is_empty());
        assert!(loads.is_empty());
        let stats = fc.fault_stats().unwrap_or_default();
        assert_eq!(stats.stuck_ticks, 16);
    }

    #[test]
    fn delay_reorders_but_preserves_packets() {
        let plan = FaultPlan::new(FaultScenario::DelayPackets, 13).with_rate(500);
        let mut fc = FaultyComponent::new(Scripted::boxed(0x2000), plan);
        // Drive long enough that held packets drain.
        let (preds, _) = drive(&mut fc, 64);
        let stats = fc.fault_stats().unwrap_or_default();
        assert!(stats.delayed > 0, "rate 500 over 64 ticks must fire");
        assert!(preds.len() >= 48, "delayed, not dropped: most arrive");
    }

    #[test]
    fn fault_trace_is_a_pure_function_of_the_plan() {
        for sc in FaultScenario::ALL {
            let plan = FaultPlan::new(sc, 21);
            let mut a = FaultyComponent::new(Scripted::boxed(0x2000), plan);
            let mut b = FaultyComponent::new(Scripted::boxed(0x2000), plan);
            let out_a = drive(&mut a, 64);
            let out_b = drive(&mut b, 64);
            assert_eq!(out_a, out_b, "{}: outputs differ", sc.name());
            assert_eq!(
                a.fault_stats(),
                b.fault_stats(),
                "{}: fault trace differs",
                sc.name()
            );
        }
    }
}
