//! A single-core model of **Slipstream 2.0** (Srinivasan et al., ISCA
//! 2020) pre-execution, used as the comparison point in Figure 2.
//!
//! Slipstream's automated branch pre-execution prunes a hard branch's
//! control-dependent region from a leading thread. As §1.1 of the PFM
//! paper explains, for astar this means: (1) the *maparp* branch cannot
//! also be pre-executed because it is skipped over, and (2) the
//! loop-carried memory dependency through the `waymap` store is
//! omitted, so a fraction of pre-executed outcomes are wrong.
//!
//! Both limitations are exactly what you get by running the PFM astar
//! engine with its entered-set (index1_CAM) store inference cleared and
//! only each lane group's first branch predicted, leaving the maparp
//! branches to the core predictor — so this module models slipstream
//! as that restricted [`TemplateSpec`] (with the paper's two tailored
//! optimizations: a hardwired pruning decision and local squashes
//! instead of leading-thread restarts). The bfs analogue disables the
//! duplicate-neighbor inference and the trip-count stream.

use crate::bfs::BfsConfig;
use crate::template::TemplateSpec;

/// Restricts a template spec to what slipstream-style automated
/// pre-execution can deliver: no store inference, and predictions for
/// each lane group's first branch only. The other lanes keep their
/// loads; only their predictions are withheld.
pub fn slipstream_template(mut spec: TemplateSpec) -> TemplateSpec {
    let mut prev = None;
    for lane in &mut spec.lanes {
        lane.infer_store_on_all_not_taken = false;
        lane.predict = prev != Some(lane.group);
        prev = Some(lane.group);
    }
    spec
}

/// Restricts a bfs component configuration to slipstream-style
/// pre-execution of the visited branch only.
pub fn slipstream_bfs(mut cfg: BfsConfig) -> BfsConfig {
    cfg.dup_inference = false;
    cfg.predict_loop = false;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{LaneSpec, Predicate};

    #[test]
    fn slipstream_astar_strips_inference_and_maparp() {
        // Two astar neighbor groups, each a waymap lane then a maparp
        // lane whose all-not-taken outcome infers the visited store.
        let lane = |group, branch_pc, predicate, infer| LaneSpec {
            offset: 0,
            table_base: 0,
            elem_scale: 1,
            elem_offset: 0,
            size: 1,
            branch_pc,
            predicate,
            taken_skips_group: true,
            group,
            infer_store_on_all_not_taken: infer,
            predict: true,
        };
        let base = TemplateSpec {
            tag_pc: 0,
            wl_base_pc: 0,
            wl_len_pc: 0,
            induction_pc: 0,
            wl_elem_size: 4,
            lanes: vec![
                lane(0, 0x200, Predicate::EqualsTag, false),
                lane(0, 0x204, Predicate::NonZero, true),
                lane(1, 0x210, Predicate::EqualsTag, false),
                lane(1, 0x214, Predicate::NonZero, true),
            ],
            scope: 8,
        };
        let ss = slipstream_template(base);
        assert!(ss.lanes.iter().all(|l| !l.infer_store_on_all_not_taken));
        // Only the waymap branches, each group's first lane, predict.
        let predicted: Vec<u64> = ss
            .lanes
            .iter()
            .filter(|l| l.predict)
            .map(|l| l.branch_pc)
            .collect();
        assert_eq!(predicted, vec![0x200, 0x210]);
    }

    #[test]
    fn slipstream_bfs_strips_inference_and_loop_preds() {
        let base = BfsConfig {
            frontier_base_pc: 0,
            frontier_len_pc: 0,
            induction_pc: 0,
            offsets_base: 0,
            neighbors_base: 0,
            properties_base: 0,
            loop_branch_pc: 0,
            visited_branch_pc: 0,
            window_size: 64,
            dup_inference: true,
            predict_loop: true,
        };
        let ss = slipstream_bfs(base);
        assert!(!ss.dup_inference);
        assert!(!ss.predict_loop);
    }
}
