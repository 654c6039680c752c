//! *astar-alt* (§5, Table 4): an alternative astar microarchitecture
//! inspired by the EXACT branch predictor. Instead of issuing loads to
//! the program's data structures, it **mimics** them: two large
//! prediction tables shadow `waymap` and `maparp`, and it maintains its
//! own copy of the worklists, populated from retire-stream store
//! observations, swapping roles at each `makebound2` call.
//!
//! Active updates (the EXACT idea): when the component predicts
//! [NT, NT] it immediately writes `fillnum` into its waymap mirror, so
//! the loop-carried store dependency is handled without a CAM. The
//! maparp mirror is *learned* from observed branch outcomes, so first
//! touches mispredict — one reason this design trails the load-based
//! one (125% vs 154% IPC improvement in the paper).

use pfm_fabric::{CustomComponent, FabricIo, ObsPacket, PredPacket, WatchKind};
use std::collections::VecDeque;

/// Neighbors per worklist index (the 2D grid's 8-neighborhood).
pub const NEIGHBORS: usize = 8;

const MIRROR_LOG2: usize = 16; // 64K entries per table (§5 scale: two 32KB-class tables)

/// Static configuration for astar-alt.
#[derive(Clone, Debug)]
pub struct AstarAltConfig {
    /// PC whose destination value is the current fillnum.
    pub fillnum_pc: u64,
    /// PC marking a `makebound2` call (worklists swap roles here).
    pub call_marker_pc: u64,
    /// PCs of stores that append to the output worklist (seed store in
    /// `fill()` plus the `bound2p` store in `makebound2`).
    pub worklist_store_pcs: Vec<u64>,
    /// The eight neighbor offsets.
    pub offsets: [i64; NEIGHBORS],
    /// waymap branch PCs.
    pub waymap_branch_pcs: [u64; NEIGHBORS],
    /// maparp branch PCs.
    pub maparp_branch_pcs: [u64; NEIGHBORS],
    /// Predictions emitted per RF cycle beyond the width budget is
    /// still capped by W; this caps the run-ahead in iterations.
    pub runahead_iters: u64,
    /// PC of the loop-induction increment (retirement tracking).
    pub induction_pc: u64,
}

/// Per-component statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct AstarAltStats {
    /// Calls observed.
    pub calls: u64,
    /// Predictions emitted.
    pub predictions: u64,
    /// maparp predictions made before the mirror had learned the cell.
    pub cold_maparp: u64,
}

/// The table-mimicking astar predictor.
pub struct AstarAltPredictor {
    cfg: AstarAltConfig,
    fillnum: u64,
    /// waymap mirror: fillnum low bits per cell (no tags; aliasing is a
    /// modeled error source, as in a real 32KB table).
    waymap_mirror: Vec<u8>,
    /// maparp mirror: 0 = unknown, 1 = learned passable, 2 = learned
    /// blocked.
    maparp_mirror: Vec<u8>,
    /// Worklist being collected from observed stores (next call's
    /// input).
    cur_wl: Vec<u64>,
    /// Worklist being walked for predictions (this call's input).
    prev_wl: Vec<u64>,
    emit_iter: u64,
    emit_k: usize,
    emit_w_done: bool,
    commit_iter: u64,
    /// Emitted maparp (idx1, pc) awaiting retire outcomes, for mirror
    /// training.
    outcome_fifo: VecDeque<(u64, u64)>,
    /// Emitted waymap idx1s awaiting retire outcomes, for mirror
    /// repair (EXACT-style active update with retirement ground truth).
    w_outcome_fifo: VecDeque<u64>,
    stats: AstarAltStats,
}

impl std::fmt::Debug for AstarAltPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AstarAltPredictor")
            .field("stats", &self.stats)
            .finish()
    }
}

impl AstarAltPredictor {
    /// Creates the component.
    pub fn new(cfg: AstarAltConfig) -> AstarAltPredictor {
        AstarAltPredictor {
            cfg,
            fillnum: 0,
            waymap_mirror: vec![0xFF; 1 << MIRROR_LOG2],
            maparp_mirror: vec![0; 1 << MIRROR_LOG2],
            cur_wl: Vec::new(),
            prev_wl: Vec::new(),
            emit_iter: 0,
            emit_k: 0,
            emit_w_done: false,
            commit_iter: 0,
            outcome_fifo: VecDeque::new(),
            w_outcome_fifo: VecDeque::new(),
            stats: AstarAltStats::default(),
        }
    }

    /// Component statistics.
    pub fn stats(&self) -> &AstarAltStats {
        &self.stats
    }

    #[inline]
    fn slot(idx1: u64) -> usize {
        (idx1 as usize) & ((1 << MIRROR_LOG2) - 1)
    }

    fn consume_observations(&mut self, io: &mut FabricIo<'_>) {
        while let Some(obs) = io.pop_obs() {
            match obs {
                ObsPacket::DestValue { pc, value } => {
                    if pc == self.cfg.fillnum_pc {
                        self.fillnum = value;
                    } else if pc == self.cfg.call_marker_pc {
                        // Swap worklists: the collected output becomes
                        // the new input.
                        self.prev_wl = std::mem::take(&mut self.cur_wl);
                        self.emit_iter = 0;
                        self.emit_k = 0;
                        self.emit_w_done = false;
                        self.commit_iter = 0;
                        self.outcome_fifo.clear();
                        self.w_outcome_fifo.clear();
                        self.stats.calls += 1;
                    } else if pc == self.cfg.induction_pc {
                        self.commit_iter += 1;
                    }
                }
                ObsPacket::StoreValue { pc, value, .. }
                    if self.cfg.worklist_store_pcs.contains(&pc) =>
                {
                    self.cur_wl.push(value);
                }
                ObsPacket::BranchOutcome { pc, taken } => {
                    // Repair the mirrors with retirement ground truth.
                    if self.cfg.waymap_branch_pcs.contains(&pc) {
                        if let Some(idx1) = self.w_outcome_fifo.pop_front() {
                            let f = (self.fillnum & 0xFF) as u8;
                            self.waymap_mirror[Self::slot(idx1)] =
                                if taken { f } else { f.wrapping_sub(1) };
                        }
                    } else if self.cfg.maparp_branch_pcs.contains(&pc) {
                        if let Some((idx1, _)) = self.outcome_fifo.pop_front() {
                            self.maparp_mirror[Self::slot(idx1)] = if taken { 2 } else { 1 };
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn emit(&mut self, io: &mut FabricIo<'_>) {
        loop {
            if self.emit_iter as usize >= self.prev_wl.len() {
                return;
            }
            if self.emit_iter >= self.commit_iter + self.cfg.runahead_iters {
                return;
            }
            let index = self.prev_wl[self.emit_iter as usize];
            let k = self.emit_k;
            let idx1 = (index as i64 + self.cfg.offsets[k]) as u64;
            let wslot = Self::slot(idx1);

            if !self.emit_w_done {
                let visited = self.waymap_mirror[wslot] == (self.fillnum & 0xFF) as u8;
                if !io.push_pred(PredPacket {
                    pc: self.cfg.waymap_branch_pcs[k],
                    taken: visited,
                }) {
                    return;
                }
                self.stats.predictions += 1;
                self.w_outcome_fifo.push_back(idx1);
                if visited {
                    self.advance();
                    continue;
                }
                self.emit_w_done = true;
            }

            let state = self.maparp_mirror[wslot];
            let blocked = state == 2;
            if state == 0 {
                self.stats.cold_maparp += 1;
            }
            if !io.push_pred(PredPacket {
                pc: self.cfg.maparp_branch_pcs[k],
                taken: blocked,
            }) {
                return;
            }
            self.stats.predictions += 1;
            self.outcome_fifo
                .push_back((idx1, self.cfg.maparp_branch_pcs[k]));
            if !blocked {
                // Active update: the program will store fillnum here.
                self.waymap_mirror[wslot] = (self.fillnum & 0xFF) as u8;
            }
            self.advance();
        }
    }

    fn advance(&mut self) {
        self.emit_w_done = false;
        self.emit_k += 1;
        if self.emit_k == NEIGHBORS {
            self.emit_k = 0;
            self.emit_iter += 1;
        }
    }
}

impl CustomComponent for AstarAltPredictor {
    fn tick(&mut self, io: &mut FabricIo<'_>) {
        self.consume_observations(io);
        self.emit(io);
    }

    fn name(&self) -> &'static str {
        "astar-alt"
    }

    fn watchlist(&self) -> Vec<(u64, WatchKind)> {
        let mut w = vec![
            (self.cfg.fillnum_pc, WatchKind::DestValue),
            (self.cfg.call_marker_pc, WatchKind::DestValue),
            (self.cfg.induction_pc, WatchKind::DestValue),
        ];
        for &pc in &self.cfg.worklist_store_pcs {
            w.push((pc, WatchKind::Store));
        }
        for &pc in &self.cfg.waymap_branch_pcs {
            w.push((pc, WatchKind::CondBranch));
        }
        for &pc in &self.cfg.maparp_branch_pcs {
            w.push((pc, WatchKind::CondBranch));
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn cfg() -> AstarAltConfig {
        AstarAltConfig {
            fillnum_pc: 0x100,
            call_marker_pc: 0x104,
            worklist_store_pcs: vec![0x108, 0x10c],
            offsets: [-65, -64, -63, -1, 1, 63, 64, 65],
            waymap_branch_pcs: [0x200, 0x210, 0x220, 0x230, 0x240, 0x250, 0x260, 0x270],
            maparp_branch_pcs: [0x204, 0x214, 0x224, 0x234, 0x244, 0x254, 0x264, 0x274],
            runahead_iters: 8,
            induction_pc: 0x110,
        }
    }

    fn tick(
        c: &mut AstarAltPredictor,
        obs: &mut VecDeque<ObsPacket>,
        width: usize,
    ) -> Vec<PredPacket> {
        let mut resp = VecDeque::new();
        let mut preds = Vec::new();
        let mut loads = Vec::new();
        {
            let mut io = FabricIo::new(width, 0, obs, &mut resp, &mut preds, &mut loads, 256, 256);
            c.tick(&mut io);
        }
        preds
    }

    #[test]
    fn mimics_worklist_from_observed_stores() {
        let mut c = AstarAltPredictor::new(cfg());
        let mut obs = VecDeque::new();
        obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 1,
        });
        obs.push_back(ObsPacket::StoreValue {
            pc: 0x108,
            addr: 0,
            value: 1000,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 0,
        }); // call: swap
        let preds = tick(&mut c, &mut obs, 16);
        // One worklist index -> 8 waymap preds (everything unvisited in
        // the mirror) each followed by a cold maparp pred (not blocked).
        assert_eq!(preds.len(), 16);
        assert_eq!(
            preds[0],
            PredPacket {
                pc: 0x200,
                taken: false
            }
        );
        assert_eq!(
            preds[1],
            PredPacket {
                pc: 0x204,
                taken: false
            }
        );
        assert!(c.stats().cold_maparp > 0);
    }

    #[test]
    fn active_update_handles_loop_carried_store() {
        // Worklist [1000, 1002]: both reach cell 1001 (offsets +1/-1).
        let mut c = AstarAltPredictor::new(cfg());
        let mut obs = VecDeque::new();
        obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 1,
        });
        obs.push_back(ObsPacket::StoreValue {
            pc: 0x108,
            addr: 0,
            value: 1000,
        });
        obs.push_back(ObsPacket::StoreValue {
            pc: 0x108,
            addr: 0,
            value: 1002,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 0,
        });
        let preds = tick(&mut c, &mut obs, 64);
        // Find the two predictions for the k=3 (-1) and k=4 (+1)
        // waymap branches; iteration 0's +1 marks 1001 visited, so
        // iteration 1's -1 must predict taken.
        let k3: Vec<_> = preds.iter().filter(|p| p.pc == 0x230).collect();
        let k4: Vec<_> = preds.iter().filter(|p| p.pc == 0x240).collect();
        assert!(!k4[0].taken, "first visit to 1001 (from 1000, +1) enters");
        assert!(
            k3[1].taken,
            "second visit to 1001 (from 1002, -1) sees the active update"
        );
    }

    #[test]
    fn maparp_mirror_learns_from_outcomes() {
        let mut c = AstarAltPredictor::new(cfg());
        let mut obs = VecDeque::new();
        obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 1,
        });
        obs.push_back(ObsPacket::StoreValue {
            pc: 0x108,
            addr: 0,
            value: 1000,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 0,
        });
        let preds = tick(&mut c, &mut obs, 64);
        assert!(
            preds.iter().any(|p| p.pc == 0x204 && !p.taken),
            "cold maparp predicts passable"
        );
        // Outcome arrives: cell 935 (1000-65) is actually blocked.
        obs.push_back(ObsPacket::BranchOutcome {
            pc: 0x204,
            taken: true,
        });
        tick(&mut c, &mut obs, 64);
        // Next fill pass over the same cell must predict blocked.
        obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 2,
        });
        obs.push_back(ObsPacket::StoreValue {
            pc: 0x108,
            addr: 0,
            value: 1000,
        });
        obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 0,
        });
        let preds = tick(&mut c, &mut obs, 64);
        let m: Vec<_> = preds.iter().filter(|p| p.pc == 0x204).collect();
        assert!(m[0].taken, "learned blocked cell predicts taken");
    }

    #[test]
    fn runahead_is_bounded_by_retirement() {
        let mut c = AstarAltPredictor::new(cfg());
        let mut obs = VecDeque::new();
        obs.push_back(ObsPacket::DestValue {
            pc: 0x100,
            value: 1,
        });
        for i in 0..100 {
            obs.push_back(ObsPacket::StoreValue {
                pc: 0x108,
                addr: 0,
                value: 1000 + i * 3,
            });
        }
        obs.push_back(ObsPacket::DestValue {
            pc: 0x104,
            value: 0,
        });
        for _ in 0..100 {
            tick(&mut c, &mut obs, 64);
        }
        // No retirement observed: at most runahead_iters iterations
        // worth of predictions.
        assert!(c.emit_iter <= 8, "emit ran ahead to {}", c.emit_iter);
        obs.push_back(ObsPacket::DestValue {
            pc: 0x110,
            value: 1,
        });
        for _ in 0..10 {
            tick(&mut c, &mut obs, 64);
        }
        assert!(c.emit_iter <= 9);
    }
}
