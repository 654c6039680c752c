//! Property-based tests for the fabric and Agents: width budgets,
//! queue capacities, squash-replay order preservation, and MLB
//! behaviour under arbitrary event sequences.

use pfm_core::hooks::{FabricLoadResult, FetchOverride, PfmHooks, RetireInfo, SquashKind};
use pfm_core::NUM_LANES;
use pfm_fabric::{
    CustomComponent, Fabric, FabricIo, FabricLoad, FabricParams, PredPacket, RstEntry,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A component that emits a scripted, numbered prediction stream.
struct Numbered {
    next: u64,
    limit: u64,
    pc: u64,
}

impl CustomComponent for Numbered {
    fn tick(&mut self, io: &mut FabricIo<'_>) {
        while io.pop_obs().is_some() {}
        while self.next < self.limit && io.can_push_pred() {
            // Encode the sequence number in the direction stream:
            // prediction k is taken iff k is even.
            io.push_pred(PredPacket {
                pc: self.pc,
                taken: self.next.is_multiple_of(2),
            });
            self.next += 1;
        }
    }
    fn name(&self) -> &'static str {
        "numbered"
    }
}

fn retire_info(pc: u64, seq: u64) -> RetireInfo<'static> {
    static NOP: pfm_isa::Inst = pfm_isa::Inst::Nop;
    RetireInfo {
        seq,
        pc,
        inst: &NOP,
        taken: false,
        dest_value: Some(1),
        store: None,
        lane_busy: [false; NUM_LANES],
    }
}

fn enabled_fabric(params: FabricParams, pc: u64, limit: u64) -> Fabric {
    let mut rst = BTreeMap::new();
    rst.insert(0x10, RstEntry::dest().begin());
    let mut fst = BTreeSet::new();
    fst.insert(pc);
    let mut f = Fabric::new(params, fst, rst, Box::new(Numbered { next: 0, limit, pc }));
    f.on_retire(&retire_info(0x10, 1));
    f.on_squash(SquashKind::RoiBegin, 2, 1);
    // Drain the squash protocol.
    for c in 2..200 {
        f.begin_cycle(c, [false; NUM_LANES]);
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Predictions always arrive in emission order, whatever the C, W,
    /// D, Q parameters: the consumed direction stream must be the
    /// alternating sequence.
    #[test]
    fn prediction_order_is_preserved(
        c in 1u64..9,
        w in 1usize..5,
        d in 0u64..6,
        q in 8usize..40,
    ) {
        let params = FabricParams::paper_default().clk_w(c, w).delay(d).queue(q);
        let mut f = enabled_fabric(params, 0x100, 64);
        let mut got = Vec::new();
        let mut seq = 100u64;
        for cycle in 200..40_000 {
            f.begin_cycle(cycle, [false; NUM_LANES]);
            if got.len() >= 64 {
                break;
            }
            match f.fetch_inst(seq, 0x100, true) {
                FetchOverride::Use(t) => {
                    got.push(t);
                    seq += 1;
                }
                FetchOverride::Stall => {}
                FetchOverride::Pass => {}
            }
        }
        prop_assert_eq!(got.len(), 64, "all predictions must be delivered");
        for (k, &t) in got.iter().enumerate() {
            prop_assert_eq!(t, k % 2 == 0, "out of order at {}", k);
        }
    }

    /// Squash replay: after consuming some predictions and squashing an
    /// arbitrary suffix of unretired branches, re-consumption yields
    /// exactly the squashed directions again, in order.
    #[test]
    fn squash_replay_reproduces_suffix(consume in 2usize..30, squash_from in 0usize..30) {
        let squash_from = squash_from.min(consume.saturating_sub(1));
        let params = FabricParams::paper_default().clk_w(2, 4).delay(0).queue(64);
        let mut f = enabled_fabric(params, 0x200, 256);
        let mut first = Vec::new();
        let mut seq = 100u64;
        for cycle in 200..40_000 {
            f.begin_cycle(cycle, [false; NUM_LANES]);
            if first.len() >= consume {
                break;
            }
            if let FetchOverride::Use(t) = f.fetch_inst(seq, 0x200, true) {
                first.push(t);
                seq += 1;
            }
        }
        prop_assert_eq!(first.len(), consume);
        // Squash all branches with seq >= boundary (none retired yet).
        let boundary = 100 + squash_from as u64;
        f.on_squash(SquashKind::Disambiguation, boundary, 50_000);
        let mut replayed = Vec::new();
        let want = consume - squash_from;
        let mut seq2 = boundary;
        for cycle in 40_000..90_000 {
            f.begin_cycle(cycle, [false; NUM_LANES]);
            if replayed.len() >= want {
                break;
            }
            if let FetchOverride::Use(t) = f.fetch_inst(seq2, 0x200, true) {
                replayed.push(t);
                seq2 += 1;
            }
        }
        prop_assert_eq!(&replayed[..], &first[squash_from..], "replayed suffix must match");
    }

    /// The MLB replays every missed load eventually, never loses one,
    /// and never exceeds its capacity.
    #[test]
    fn mlb_replays_all_misses(misses in 1usize..40) {
        struct Loader {
            to_push: Vec<FabricLoad>,
        }
        impl CustomComponent for Loader {
            fn tick(&mut self, io: &mut FabricIo<'_>) {
                while io.pop_obs().is_some() {}
                while let Some(l) = self.to_push.last().copied() {
                    if !io.push_load(l) {
                        break;
                    }
                    self.to_push.pop();
                }
                while io.pop_load_resp().is_some() {}
            }
            fn name(&self) -> &'static str {
                "loader"
            }
        }
        let loads: Vec<FabricLoad> = (0..misses)
            .map(|i| FabricLoad { id: i as u64, addr: 0x1000 + i as u64 * 64, size: 8, is_prefetch: false })
            .rev()
            .collect();
        let mut rst = BTreeMap::new();
        rst.insert(0x10, RstEntry::dest().begin());
        let mut f = Fabric::new(
            FabricParams::paper_default().clk_w(1, 4).delay(0).queue(64),
            BTreeSet::new(),
            rst,
            Box::new(Loader { to_push: loads }),
        );
        f.on_retire(&retire_info(0x10, 1));
        f.on_squash(SquashKind::RoiBegin, 2, 1);
        // Every load misses once, then hits on its first replay.
        let mut missed_once: BTreeSet<u64> = BTreeSet::new();
        let mut completed: BTreeSet<u64> = BTreeSet::new();
        for cycle in 2..200_000 {
            f.begin_cycle(cycle, [false; NUM_LANES]);
            for _ in 0..2 {
                if let Some(l) = f.pop_load() {
                    if missed_once.insert(l.id) {
                        f.load_result(l.id, FabricLoadResult::Miss { load: l }, cycle);
                    } else {
                        f.load_result(l.id, FabricLoadResult::Hit { value: l.id }, cycle);
                        completed.insert(l.id);
                    }
                }
            }
            if completed.len() == misses {
                break;
            }
        }
        prop_assert_eq!(completed.len(), misses, "every missed load must complete via replay");
        prop_assert_eq!(f.stats().mlb_replays, misses as u64);
    }

    /// FabricIo budget accounting: a component can never exceed W per
    /// queue per tick, whatever it tries.
    #[test]
    fn width_budget_is_inviolable(w in 1usize..6, tries in 1usize..24) {
        let mut obs: VecDeque<pfm_fabric::ObsPacket> =
            (0..tries as u64).map(|i| pfm_fabric::ObsPacket::DestValue { pc: i, value: i }).collect();
        let mut resp = VecDeque::new();
        let mut preds = Vec::new();
        let mut loads = Vec::new();
        let mut io = FabricIo::new(w, 0, &mut obs, &mut resp, &mut preds, &mut loads, 100, 100);
        let mut popped = 0;
        while io.pop_obs().is_some() {
            popped += 1;
        }
        let mut pushed_p = 0;
        while io.push_pred(PredPacket { pc: 1, taken: true }) {
            pushed_p += 1;
        }
        let mut pushed_l = 0;
        while io.push_load(FabricLoad { id: 0, addr: 0, size: 8, is_prefetch: true }) {
            pushed_l += 1;
        }
        prop_assert!(popped <= w);
        prop_assert_eq!(pushed_p, w);
        prop_assert_eq!(pushed_l, w);
    }
}
