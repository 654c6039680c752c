//! Property-based tests for the custom components: the template's
//! output must match a software oracle over arbitrary astar
//! grids/worklists and a reference walk over arbitrary bfs graphs, and
//! the prefetch engine's affine walk must enumerate exactly the
//! program's addresses.

mod common;

use common::{
    astar_spec, bfs_spec, maparp_pc, waymap_pc, BFS_FRONTIER_BASE_PC, BFS_FRONTIER_LEN_PC,
    BFS_LOOP_PC, BFS_VISITED_PC, INDUCTION_PC, MAPARP_BASE, NEIGHBORS_BASE, OFFSETS, OFFSETS_BASE,
    PROPS_BASE, TAG_PC, WAYMAP_BASE, WL_BASE_PC, WL_LEN_PC,
};
use pfm_components::{CustomPrefetcher, EngineConfig, TemplateComponent};
use pfm_fabric::{CustomComponent, FabricIo, LoadResponse, ObsPacket, PredPacket};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

// ---------------------------------------------------------------------
// astar
// ---------------------------------------------------------------------

/// Drives the astar template against an in-memory grid, answering its
/// loads from `waymap`/`maparp`, and collects its predictions.
fn drive_astar(
    worklist: &[u64],
    waymap: &HashMap<u64, u32>,
    maparp: &HashMap<u64, u8>,
    fillnum: u64,
) -> Vec<PredPacket> {
    // Stores performed by each iteration (the oracle's semantics):
    // applied to the component-visible (committed) waymap when the
    // iteration retires, exactly as the core commits them.
    let mut stores_per_iter: Vec<Vec<u64>> = Vec::new();
    {
        let mut visited: HashMap<u64, u32> = waymap.clone();
        for &index in worklist {
            let mut stores = Vec::new();
            for &off in OFFSETS.iter() {
                let idx1 = (index as i64 + off) as u64;
                let wtaken = *visited.get(&idx1).unwrap_or(&0) as u64 == fillnum;
                if !wtaken && *maparp.get(&idx1).unwrap_or(&0) == 0 {
                    visited.insert(idx1, fillnum as u32);
                    stores.push(idx1);
                }
            }
            stores_per_iter.push(stores);
        }
    }
    let mut committed_waymap = waymap.clone();
    let mut c = TemplateComponent::new(astar_spec(8, true));
    let mut obs: VecDeque<ObsPacket> = VecDeque::new();
    obs.push_back(ObsPacket::DestValue {
        pc: TAG_PC,
        value: fillnum,
    });
    obs.push_back(ObsPacket::DestValue {
        pc: WL_BASE_PC,
        value: 0x50_0000,
    });
    obs.push_back(ObsPacket::DestValue {
        pc: WL_LEN_PC,
        value: worklist.len() as u64,
    });
    let mut resp: VecDeque<LoadResponse> = VecDeque::new();
    let mut preds: Vec<PredPacket> = Vec::new();
    let mut pending: Vec<pfm_fabric::FabricLoad> = Vec::new();
    let mut retired = 0u64;
    for tick in 0..4000 {
        let mut out_p = Vec::new();
        let mut out_l = Vec::new();
        {
            let mut io = FabricIo::new(
                8, tick, &mut obs, &mut resp, &mut out_p, &mut out_l, 1024, 1024,
            );
            c.tick(&mut io);
        }
        preds.extend(out_p);
        pending.extend(out_l);
        // Answer all loads from the modeled data structures.
        for l in pending.drain(..) {
            let value = if l.addr >= 0x50_0000 && l.addr < 0x60_0000 {
                worklist[((l.addr - 0x50_0000) / 4) as usize]
            } else if l.addr >= MAPARP_BASE {
                *maparp.get(&(l.addr - MAPARP_BASE)).unwrap_or(&0) as u64
            } else {
                *committed_waymap
                    .get(&((l.addr - WAYMAP_BASE) / 8))
                    .unwrap_or(&0) as u64
            };
            resp.push_back(LoadResponse { id: l.id, value });
        }
        // Retire an iteration only once all of its waymap predictions
        // were emitted (the core cannot retire what it has not fetched).
        let waymap_pcs: Vec<u64> = (0..8).map(waymap_pc).collect();
        let emitted_w = preds.iter().filter(|p| waymap_pcs.contains(&p.pc)).count() as u64;
        if emitted_w >= (retired + 1) * 8 && (retired as usize) < worklist.len() {
            for &idx1 in &stores_per_iter[retired as usize] {
                committed_waymap.insert(idx1, fillnum as u32);
            }
            retired += 1;
            obs.push_back(ObsPacket::DestValue {
                pc: INDUCTION_PC,
                value: retired,
            });
        }
        if preds.len() > worklist.len() * 16 {
            break;
        }
    }
    preds
}

/// Software oracle for the astar ROI given a full memory image.
fn astar_oracle(
    worklist: &[u64],
    waymap: &HashMap<u64, u32>,
    maparp: &HashMap<u64, u8>,
    fillnum: u64,
) -> Vec<PredPacket> {
    let mut visited: HashMap<u64, u32> = waymap.clone();
    let mut preds = Vec::new();
    for &index in worklist {
        for (k, &off) in OFFSETS.iter().enumerate() {
            let idx1 = (index as i64 + off) as u64;
            let vtag = *visited.get(&idx1).unwrap_or(&0);
            let wtaken = vtag as u64 == fillnum;
            preds.push(PredPacket {
                pc: waymap_pc(k),
                taken: wtaken,
            });
            if wtaken {
                continue;
            }
            let blocked = *maparp.get(&idx1).unwrap_or(&0) != 0;
            preds.push(PredPacket {
                pc: maparp_pc(k),
                taken: blocked,
            });
            if !blocked {
                visited.insert(idx1, fillnum as u32);
            }
        }
    }
    preds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With a sufficiently generous window, the component's full
    /// prediction stream is *exactly* the oracle's: the index1_CAM
    /// store inference perfectly stands in for the unretired stores.
    #[test]
    fn astar_predictions_match_software_oracle(
        worklist in prop::collection::vec(100u64..160, 1..12),
        blocked in prop::collection::vec(80u64..180, 0..20),
        visited in prop::collection::vec(80u64..180, 0..10),
        fillnum in 1u64..5,
    ) {
        let maparp: HashMap<u64, u8> = blocked.iter().map(|&i| (i, 1u8)).collect();
        let waymap: HashMap<u64, u32> = visited.iter().map(|&i| (i, fillnum as u32)).collect();
        let got = drive_astar(&worklist, &waymap, &maparp, fillnum);
        let want = astar_oracle(&worklist, &waymap, &maparp, fillnum);
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------
// bfs
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The bfs template's interleaved (loop, visited) stream matches a
    /// reference walk of the CSR level, including visited-store
    /// inference for duplicate neighbors within the level.
    #[test]
    fn bfs_predictions_match_reference_walk(
        adjacency in prop::collection::vec(prop::collection::vec(0u32..24, 0..5), 1..8),
        pre_visited in prop::collection::vec(0u32..24, 0..6),
    ) {
        // Build CSR over nodes 0..frontier_len with the given adjacency.
        let mut offsets = vec![0u64];
        let mut neighbors: Vec<u32> = Vec::new();
        for l in &adjacency {
            neighbors.extend(l);
            offsets.push(neighbors.len() as u64);
        }
        let props: HashMap<u32, i64> = pre_visited.iter().map(|&v| (v, 7i64)).collect();

        // Reference walk.
        let mut want = Vec::new();
        let mut seen: HashMap<u32, bool> = HashMap::new();
        for l in &adjacency {
            for &v in l {
                want.push(PredPacket { pc: BFS_LOOP_PC, taken: false });
                let visited = seen.contains_key(&v) || props.contains_key(&v);
                want.push(PredPacket { pc: BFS_VISITED_PC, taken: visited });
                seen.insert(v, true);
            }
            want.push(PredPacket { pc: BFS_LOOP_PC, taken: true });
        }

        // Drive the template.
        let mut c = TemplateComponent::new(bfs_spec(64, true));
        let mut obs: VecDeque<ObsPacket> = VecDeque::new();
        obs.push_back(ObsPacket::DestValue { pc: BFS_FRONTIER_BASE_PC, value: 0x500_0000 });
        obs.push_back(ObsPacket::DestValue { pc: BFS_FRONTIER_LEN_PC, value: adjacency.len() as u64 });
        let mut resp: VecDeque<LoadResponse> = VecDeque::new();
        let mut got = Vec::new();
        let mut pending: Vec<pfm_fabric::FabricLoad> = Vec::new();
        for tick in 0..4000 {
            let mut out_p = Vec::new();
            let mut out_l = Vec::new();
            {
                let mut io =
                    FabricIo::new(8, tick, &mut obs, &mut resp, &mut out_p, &mut out_l, 4096, 4096);
                c.tick(&mut io);
            }
            got.extend(out_p);
            pending.extend(out_l);
            for l in pending.drain(..) {
                let value = if l.addr >= 0x500_0000 {
                    (l.addr - 0x500_0000) / 4 // frontier[i] = node i
                } else if l.addr >= PROPS_BASE {
                    let v = ((l.addr - PROPS_BASE) / 8) as u32;
                    (*props.get(&v).unwrap_or(&-1)) as u64
                } else if l.addr >= NEIGHBORS_BASE {
                    neighbors[((l.addr - NEIGHBORS_BASE) / 4) as usize] as u64
                } else {
                    offsets[((l.addr - OFFSETS_BASE) / 8) as usize]
                };
                resp.push_back(LoadResponse { id: l.id, value });
            }
            if got.len() >= want.len() {
                break;
            }
        }
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------
// prefetch engine
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The affine walk enumerates exactly the program's address
    /// sequence (base + sum of level strides), in order, for arbitrary
    /// extents and strides.
    #[test]
    fn affine_walk_matches_nested_loops(
        extents in prop::collection::vec(1u64..5, 1..4),
        strides in prop::collection::vec(8i64..2048, 3),
        base in 0x1000u64..0x10_0000,
    ) {
        let strides = strides[..extents.len()].to_vec();
        let total: u64 = extents.iter().product();
        let cfg = EngineConfig {
            base_pcs: vec![0x100],
            count_pc: 0x104,
            load_pc: 0x108,
            extents: extents.clone(),
            strides: strides.clone(),
            stream_offsets: vec![0],
            as_set: false,
            adaptive: false,
            init_distance: total + 4,
        };
        let mut c = CustomPrefetcher::new("t", vec![cfg]);
        let mut obs: VecDeque<ObsPacket> = VecDeque::new();
        obs.push_back(ObsPacket::DestValue { pc: 0x100, value: base });
        obs.push_back(ObsPacket::DestValue { pc: 0x104, value: total });
        let mut resp = VecDeque::new();
        let mut got: Vec<u64> = Vec::new();
        for tick in 0..(total as usize * 2 + 8) {
            let mut out_p = Vec::new();
            let mut out_l = Vec::new();
            {
                let mut io = FabricIo::new(
                    8,
                    tick as u64,
                    &mut obs,
                    &mut resp,
                    &mut out_p,
                    &mut out_l,
                    1 << 20,
                    1 << 20,
                );
                c.tick(&mut io);
            }
            got.extend(out_l.iter().map(|l| l.addr));
        }
        // Reference: explicit nested loops.
        let mut want = Vec::new();
        let mut idx = vec![0u64; extents.len()];
        'outer: loop {
            let off: i64 = idx.iter().zip(&strides).map(|(&i, &s)| i as i64 * s).sum();
            want.push((base as i64 + off) as u64);
            // increment odometer, innermost last.
            for lvl in (0..extents.len()).rev() {
                idx[lvl] += 1;
                if idx[lvl] < extents[lvl] {
                    continue 'outer;
                }
                idx[lvl] = 0;
                if lvl == 0 {
                    break 'outer;
                }
            }
        }
        prop_assert_eq!(got, want);
    }
}
