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
//! Both limitations are exactly what you get by running the PFM
//! run-ahead engine with its entered-set store inference cleared and
//! only each lane group's first branch predicted, leaving the maparp
//! branches to the core predictor — so this module models slipstream
//! as that restricted [`TemplateSpec`] (with the paper's two tailored
//! optimizations: a hardwired pruning decision and local squashes
//! instead of leading-thread restarts). For bfs the same transform
//! drops the duplicate-neighbor inference and the loop branch's
//! trip-count predictions, leaving the visited branch, alone in its
//! group, pre-executed.

use crate::template::{Source, TemplateSpec};

/// Restricts a template spec to what slipstream-style automated
/// pre-execution can deliver: no store inference, no loop-branch
/// predictions from a range's trip count, and predictions for each
/// lane group's first branch only. The other lanes keep their loads;
/// only their predictions are withheld.
pub fn slipstream_template(mut spec: TemplateSpec) -> TemplateSpec {
    spec.infer = None;
    for stage in &mut spec.stages {
        if let Source::Range { predict, .. } = &mut stage.source {
            *predict = false;
        }
        let mut prev = None;
        for lane in &mut stage.lanes {
            if let Some(branch) = &mut lane.branch {
                branch.predict = prev != Some(lane.group);
            }
            prev = Some(lane.group);
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{BranchSpec, Infer, LaneSpec, Predicate, StageSpec};

    #[test]
    fn slipstream_astar_strips_inference_and_maparp() {
        // Two astar neighbor groups, each a waymap lane then a maparp
        // lane whose all-not-taken outcome infers the visited store.
        let lane = |group, pc, predicate| LaneSpec {
            offset: 0,
            table_base: 0,
            elem_scale: 1,
            size: 1,
            branch: Some(BranchSpec {
                pc,
                predicate,
                predict: true,
            }),
            group,
        };
        let base = TemplateSpec {
            tag_pc: Some(0),
            wl_base_pc: 0,
            wl_len_pc: 0,
            induction_pc: 0,
            wl_elem_size: 4,
            wl_loads_per_cycle: 1,
            stages: vec![StageSpec {
                source: Source::Each,
                lanes: vec![
                    lane(0, 0x200, Predicate::EqualsTag),
                    lane(0, 0x204, Predicate::NonZero),
                    lane(1, 0x210, Predicate::EqualsTag),
                    lane(1, 0x214, Predicate::NonZero),
                ],
                groups_per_cycle: 2,
            }],
            scope: 8,
            infer: Some(Infer::AllNotTaken),
            emit_after_issue: true,
        };
        let ss = slipstream_template(base);
        assert_eq!(ss.infer, None);
        // Only the waymap branches, each group's first lane, predict.
        let predicted: Vec<u64> = ss.stages[0]
            .lanes
            .iter()
            .filter_map(|l| l.branch.filter(|b| b.predict))
            .map(|b| b.pc)
            .collect();
        assert_eq!(predicted, vec![0x200, 0x210]);
    }

    #[test]
    fn slipstream_bfs_strips_inference_and_loop_preds() {
        // bfs's chain: the offsets pair, the neighbor range with its
        // loop branch, then the property lane, alone in its group,
        // predicting the visited branch; every outcome infers.
        let lane = |branch| LaneSpec {
            offset: 0,
            table_base: 0,
            elem_scale: 8,
            size: 8,
            branch,
            group: 0,
        };
        let stage = |source, lanes| StageSpec {
            source,
            lanes,
            groups_per_cycle: usize::MAX,
        };
        let visited = BranchSpec {
            pc: 0x410,
            predicate: Predicate::NonNegative,
            predict: true,
        };
        let range = |predict| Source::Range {
            loop_pc: 0x400,
            predict,
        };
        let base = TemplateSpec {
            tag_pc: None,
            wl_base_pc: 0,
            wl_len_pc: 0,
            induction_pc: 0,
            wl_elem_size: 4,
            wl_loads_per_cycle: usize::MAX,
            stages: vec![
                stage(Source::Each, vec![lane(None), lane(None)]),
                stage(range(true), vec![lane(None)]),
                stage(Source::Each, vec![lane(Some(visited))]),
            ],
            scope: 64,
            infer: Some(Infer::EveryOutcome),
            emit_after_issue: false,
        };
        let ss = slipstream_template(base.clone());
        assert_eq!(ss.infer, None);
        assert_eq!(ss.stages[1].source, range(false));
        // The visited branch is still predicted, and nothing but the
        // inference and the loop predictions changed.
        let mut restored = ss;
        restored.infer = base.infer;
        restored.stages[1].source = range(true);
        assert_eq!(restored, base);
    }
}
