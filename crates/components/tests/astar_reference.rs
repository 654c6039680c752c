//! Pinned per-tick reference for the astar run-ahead engine.
//!
//! A seeded generator drives the component through a standalone
//! [`FabricIo`] loop with the irregularities the fabric produces: a
//! width of 1–8 per tick, IntQ-F and IntQ-IS space of 0 to W+2, load
//! responses that fall due 1–25 ticks after issue (so they return
//! reordered), a core that now and then retires an iteration before
//! the component has predicted it, and four `makebound2` calls per
//! scenario, so stale responses cross a call reset. Every tick's
//! output folds into one FNV-1a digest per configuration: the tick,
//! each prediction's PC and direction, and each load's address, size
//! and prefetch flag. Load ids stay out; they are the engine's own
//! numbering.
//!
//! The digests were captured from the hand-built Figure 7 predictor
//! the template replaced. They pin its rates and orderings: one
//! worklist load per RF cycle, two lane groups per RF cycle, emission
//! only once T1 has issued a group, and retirement that skips the
//! iterations the core retired first.

mod common;

use common::{astar_spec, waymap_pc, INDUCTION_PC, MAPARP_BASE, TAG_PC, WL_BASE_PC, WL_LEN_PC};
use pfm_components::slipstream::slipstream_template;
use pfm_components::TemplateComponent;
use pfm_fabric::{CustomComponent, FabricIo, LoadResponse, ObsPacket};
use std::collections::VecDeque;

/// Scenarios per configuration.
const SEEDS: u64 = 64;
/// `makebound2` calls per scenario.
const CALLS: usize = 4;
/// Call `c` reads its worklist at `WORKLIST + c * WL_STRIDE`.
const WORKLIST: u64 = 0x50_0000;
const WL_STRIDE: u64 = 0x1000;

/// (configuration, scope, store inference, slipstream, pinned digest).
const CONFIGS: [(&str, usize, bool, bool, u64); 5] = [
    ("default", 8, true, false, 0x1ca0_99af_827f_3255),
    ("scope 2", 2, true, false, 0x9ac3_988e_652c_c6fa),
    ("scope 16", 16, true, false, 0x66f3_c8d7_564a_24be),
    (
        "store inference off",
        8,
        false,
        false,
        0x11bd_fcdb_b207_78f6,
    ),
    ("slipstream", 8, false, true, 0xe249_0c53_5857_407d),
];

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// A fixed pseudo-random word per (scenario, address): the grid the
/// component's table loads read.
fn cell(seed: u64, addr: u64) -> u64 {
    let mut z = ((seed << 32) ^ addr).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

/// Runs one scenario, folding every tick's output into `h`.
fn scenario(c: &mut dyn CustomComponent, seed: u64, h: &mut Fnv) {
    let mut rng = Lcg(seed);
    let mut obs = VecDeque::new();
    let mut resp = VecDeque::new();
    let mut inflight: Vec<(u64, LoadResponse)> = Vec::new();
    let mut worklists: Vec<Vec<u64>> = Vec::new();
    let (mut retired, mut leaders, mut early) = (0u64, 0u64, 0u64);
    let mut next_call_at = 0;
    for tick in 0..20_000u64 {
        let done = worklists.last().is_none_or(|wl| retired == wl.len() as u64);
        if done && worklists.len() == CALLS && inflight.is_empty() && resp.is_empty() {
            return;
        }
        if done && worklists.len() < CALLS && tick >= next_call_at {
            // fill() bumps fillnum, then makebound2 snoops its worklist.
            let call = worklists.len() as u64;
            let len = 4 + rng.below(28);
            let wl: Vec<u64> = (0..len).map(|_| 1000 + rng.below(48)).collect();
            obs.push_back(ObsPacket::DestValue {
                pc: TAG_PC,
                value: call + 1,
            });
            obs.push_back(ObsPacket::DestValue {
                pc: WL_BASE_PC,
                value: WORKLIST + call * WL_STRIDE,
            });
            obs.push_back(ObsPacket::DestValue {
                pc: WL_LEN_PC,
                value: len,
            });
            worklists.push(wl);
            (retired, leaders, early) = (0, 0, 0);
        }
        inflight.retain(|&(due, r)| {
            if due <= tick {
                resp.push_back(r);
            }
            due > tick
        });

        let w = 1 + rng.below(8);
        let pred_space = rng.below(w + 3) as usize;
        let load_space = rng.below(w + 3) as usize;
        let (mut preds, mut loads) = (Vec::new(), Vec::new());
        c.tick(&mut FabricIo::new(
            w as usize, tick, &mut obs, &mut resp, &mut preds, &mut loads, pred_space, load_space,
        ));

        if !preds.is_empty() || !loads.is_empty() {
            h.word(tick);
            h.word(preds.len() as u64);
            for p in &preds {
                h.word(p.pc);
                h.word(p.taken as u64);
            }
            h.word(loads.len() as u64);
            for l in &loads {
                h.word(l.addr);
                h.word(l.size);
                h.word(l.is_prefetch as u64);
            }
        }
        let tag = worklists.len() as u64;
        for l in loads {
            // A third of the cells are visited, a quarter blocked.
            let value = if l.addr >= WORKLIST {
                let off = l.addr - WORKLIST;
                worklists[(off / WL_STRIDE) as usize][(off % WL_STRIDE / 4) as usize]
            } else if l.addr >= MAPARP_BASE {
                cell(seed, l.addr).is_multiple_of(4) as u64
            } else if cell(seed, l.addr).is_multiple_of(3) {
                tag
            } else {
                0
            };
            inflight.push((tick + 1 + rng.below(25), LoadResponse { id: l.id, value }));
        }

        // The core retires in order: normally once the component has
        // predicted all eight groups of the iteration, but 1 tick in
        // 40 ahead of it (the iteration ran on fallback predictions).
        leaders += preds
            .iter()
            .filter(|p| (0..8).any(|k| waymap_pc(k) == p.pc))
            .count() as u64;
        let len = worklists.last().map_or(0, |wl| wl.len() as u64);
        if retired < len {
            let predicted = leaders + 8 * early >= 8 * (retired + 1);
            if predicted || rng.below(40) == 0 {
                early += u64::from(!predicted);
                retired += 1;
                obs.push_back(ObsPacket::DestValue {
                    pc: INDUCTION_PC,
                    value: retired,
                });
                if retired == len {
                    next_call_at = tick + 1 + rng.below(4);
                }
            }
        }
    }
    panic!("scenario {seed} did not finish");
}

fn digest(make: impl Fn() -> Box<dyn CustomComponent>) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for seed in 0..SEEDS {
        h.word(seed);
        scenario(make().as_mut(), seed, &mut h);
    }
    h.0
}

#[test]
fn template_reproduces_the_pinned_figure7_streams() {
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (name, scope, store_inference, slipstream, pinned) in CONFIGS {
        let mut spec = astar_spec(scope, store_inference);
        if slipstream {
            spec = slipstream_template(spec);
        }
        let d = digest(|| Box::new(TemplateComponent::new(spec.clone())));
        got.push(format!("{name}: {d:#018x}"));
        want.push(format!("{name}: {pinned:#018x}"));
    }
    assert_eq!(got, want);
}
