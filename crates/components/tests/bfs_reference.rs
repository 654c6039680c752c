//! Pinned per-tick reference for the bfs run-ahead engine.
//!
//! A seeded generator drives the component through a standalone
//! [`FabricIo`] loop, as `astar_reference.rs` does for astar: a width
//! of 1–8 per tick, IntQ-F and IntQ-IS space of 0 to W+2, load
//! responses that fall due 1–25 ticks after issue, and a core that
//! retires frontier nodes in order once their predictions are out, or
//! now and then before. Each scenario walks four frontier levels of
//! 4–159 nodes over a 96-node CSR graph whose degrees run 0–6 and
//! whose neighbors repeat across the level, so every window size binds
//! and duplicate-neighbor inference fires. Every tick's output folds
//! into one FNV-1a digest per configuration: the tick, each
//! prediction's PC and direction, and each load's address, size and
//! prefetch flag. Load ids stay out; they are the engine's own
//! numbering.
//!
//! The digests were captured from the hand-built Figure 11 component
//! the template replaced. They pin its rates and orderings: frontier,
//! offsets, neighbor and property loads limited only by the width,
//! trip-count predictions that need only the offsets pair, visited
//! predictions that wait for the value rather than for issue, and an
//! entered set that records every visited outcome.

mod common;

use common::{bfs_spec, BFS_FRONTIER_BASE_PC, BFS_FRONTIER_LEN_PC, BFS_INDUCTION_PC};
use common::{NEIGHBORS_BASE, OFFSETS_BASE, PROPS_BASE};
use pfm_components::slipstream::slipstream_template;
use pfm_components::TemplateComponent;
use pfm_fabric::{CustomComponent, FabricIo, LoadResponse, ObsPacket};
use std::collections::VecDeque;

/// Scenarios per configuration.
const SEEDS: u64 = 64;
/// Frontier levels per scenario.
const LEVELS: usize = 4;
/// Nodes in each scenario's graph.
const NODES: u64 = 96;
/// Level `l` reads its frontier at `FRONTIER + l * FR_STRIDE`.
const FRONTIER: u64 = 0x500_0000;
const FR_STRIDE: u64 = 0x1000;

/// (configuration, window, dup inference, slipstream, pinned digest).
const CONFIGS: [(&str, usize, bool, bool, u64); 5] = [
    ("default", 64, true, false, 0x7727_ace4_1505_62ac),
    ("window 16", 16, true, false, 0xc7a5_b84f_91dc_5a69),
    ("window 128", 128, true, false, 0x4a1a_32dc_3ed2_d0ca),
    ("dup inference off", 64, false, false, 0x0020_f9f1_0d22_09e3),
    ("slipstream", 64, true, true, 0x75b2_f1bf_0413_e874),
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

/// One scenario's graph: CSR offsets and neighbors, and the property
/// array (non-negative = visited).
struct Graph {
    offsets: Vec<u64>,
    neighbors: Vec<u64>,
    props: Vec<i64>,
}

impl Graph {
    fn new(rng: &mut Lcg) -> Graph {
        let mut offsets = vec![0];
        let mut neighbors = Vec::new();
        for _ in 0..NODES {
            for _ in 0..rng.below(7) {
                neighbors.push(rng.below(NODES));
            }
            offsets.push(neighbors.len() as u64);
        }
        let props = (0..NODES as i64)
            .map(|v| if rng.below(3) == 0 { v } else { -1 })
            .collect();
        Graph {
            offsets,
            neighbors,
            props,
        }
    }

    fn degree(&self, u: u64) -> u64 {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// The value a load at `addr` returns.
    fn load(&self, frontiers: &[Vec<u64>], addr: u64) -> u64 {
        if addr >= FRONTIER {
            let off = addr - FRONTIER;
            frontiers[(off / FR_STRIDE) as usize][(off % FR_STRIDE / 4) as usize]
        } else if addr >= PROPS_BASE {
            self.props[((addr - PROPS_BASE) / 8) as usize] as u64
        } else if addr >= NEIGHBORS_BASE {
            self.neighbors[((addr - NEIGHBORS_BASE) / 4) as usize]
        } else {
            self.offsets[((addr - OFFSETS_BASE) / 8) as usize]
        }
    }
}

/// Runs one scenario, folding every tick's output into `h`.
/// `loop_preds`: the component predicts the neighbor-loop branch, so a
/// node of degree `d` is predicted by `2d + 1` packets, not `d`.
fn scenario(c: &mut dyn CustomComponent, seed: u64, loop_preds: bool, h: &mut Fnv) {
    let mut rng = Lcg(seed);
    let g = Graph::new(&mut rng);
    let per_node = |u: u64| {
        let d = g.degree(u);
        if loop_preds {
            2 * d + 1
        } else {
            d
        }
    };
    let mut obs = VecDeque::new();
    let mut resp = VecDeque::new();
    let mut inflight: Vec<(u64, LoadResponse)> = Vec::new();
    let mut frontiers: Vec<Vec<u64>> = Vec::new();
    // Predictions this level, the retired nodes, and the predictions
    // credited to nodes retired before theirs were out.
    let (mut emitted, mut retired, mut credit) = (0u64, 0usize, 0u64);
    let mut need = 0u64;
    let mut next_level_at = 0;
    for tick in 0..50_000u64 {
        let done = frontiers.last().is_none_or(|f| retired == f.len());
        if done && frontiers.len() == LEVELS && inflight.is_empty() && resp.is_empty() {
            return;
        }
        if done && frontiers.len() < LEVELS && tick >= next_level_at {
            let level = frontiers.len() as u64;
            let len = 4 + rng.below(156);
            obs.push_back(ObsPacket::DestValue {
                pc: BFS_FRONTIER_BASE_PC,
                value: FRONTIER + level * FR_STRIDE,
            });
            obs.push_back(ObsPacket::DestValue {
                pc: BFS_FRONTIER_LEN_PC,
                value: len,
            });
            frontiers.push((0..len).map(|_| rng.below(NODES)).collect());
            (emitted, retired, credit) = (0, 0, 0);
            need = per_node(frontiers[level as usize][0]);
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
        for l in loads {
            let value = g.load(&frontiers, l.addr);
            inflight.push((tick + 1 + rng.below(25), LoadResponse { id: l.id, value }));
        }

        // The core retires frontier nodes in order: normally once the
        // component has predicted all of the node's branches, but 1
        // tick in 40 ahead of it (the node ran on fallback
        // predictions).
        emitted += preds.len() as u64;
        let Some(frontier) = frontiers.last() else {
            continue;
        };
        if retired < frontier.len() {
            let predicted = emitted + credit >= need;
            if predicted || rng.below(40) == 0 {
                if !predicted {
                    credit += per_node(frontier[retired]);
                }
                retired += 1;
                obs.push_back(ObsPacket::DestValue {
                    pc: BFS_INDUCTION_PC,
                    value: retired as u64,
                });
                match frontier.get(retired) {
                    Some(&u) => need += per_node(u),
                    None => next_level_at = tick + 1 + rng.below(4),
                }
            }
        }
    }
    panic!("scenario {seed} did not finish");
}

fn digest(make: impl Fn() -> Box<dyn CustomComponent>, loop_preds: bool) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for seed in 0..SEEDS {
        h.word(seed);
        scenario(make().as_mut(), seed, loop_preds, &mut h);
    }
    h.0
}

#[test]
fn template_reproduces_the_pinned_figure11_streams() {
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (name, window, dup_inference, slipstream, pinned) in CONFIGS {
        let mut spec = bfs_spec(window, dup_inference);
        if slipstream {
            spec = slipstream_template(spec);
        }
        let d = digest(
            || Box::new(TemplateComponent::new(spec.clone())),
            !slipstream,
        );
        got.push(format!("{name}: {d:#018x}"));
        want.push(format!("{name}: {pinned:#018x}"));
    }
    assert_eq!(got, want);
}
