//! Structural descriptions of the paper's synthesized custom
//! components (Table 4), expressed as primitive netlists for the
//! resource estimator.

use crate::resource::{estimate_design, frequency_mhz, Primitive, ResourceEstimate};

/// A named synthesized design.
#[derive(Clone, Debug)]
pub struct Design {
    /// Design name (Table 4 row).
    pub name: &'static str,
    /// Its primitive netlist.
    pub primitives: Vec<Primitive>,
    /// Activity factor (fraction of FFs toggling per cycle), for the
    /// power model.
    pub activity: f64,
    /// I/O pin-group count (standalone-FPGA I/O power; reported
    /// separately as in the paper).
    pub io_groups: u32,
}

impl Design {
    /// Resource estimate for this design.
    pub fn resources(&self) -> ResourceEstimate {
        estimate_design(&self.primitives)
    }

    /// Post-place-and-route frequency estimate (MHz).
    pub fn frequency_mhz(&self) -> f64 {
        frequency_mhz(&self.primitives, &self.resources())
    }
}

/// The 4-wide astar custom branch predictor (§4.1 / Figure 7, W=4,
/// 8-entry index_queue): three concurrent engines, the 64-entry
/// index1_CAM, and the wide T1/T2 datapaths make it the LUT-heaviest
/// design in Table 4.
pub fn astar_4wide() -> Design {
    let mut p = vec![
        // index_queue: 8 x (32-bit index + valid).
        Primitive::Queue {
            entries: 8,
            width: 33,
        },
        // pred_queue: 128 x (pred + valid); replay queue of final preds.
        Primitive::Queue {
            entries: 128,
            width: 2,
        },
        Primitive::Queue {
            entries: 128,
            width: 2,
        },
        // index1_queue: 64 x 32-bit.
        Primitive::Queue {
            entries: 64,
            width: 32,
        },
    ];
    // index1_CAM: 64 x 18-bit tags, searched 4-wide => 4 copies of the
    // match network (modeled as 4 CAM banks of 16).
    for _ in 0..4 {
        p.push(Primitive::Cam {
            entries: 16,
            width: 18,
        });
    }
    // T0: worklist walker (address adder + id tagging).
    p.push(Primitive::Adder { width: 40 });
    p.push(Primitive::Fsm {
        states: 4,
        signals: 12,
    });
    // T1: 2 index1 generators x 8 neighbor offsets, 4 load-address
    // adders, steering muxes.
    for _ in 0..2 {
        p.push(Primitive::Adder { width: 32 });
    }
    for _ in 0..4 {
        p.push(Primitive::Adder { width: 40 });
        p.push(Primitive::Mux { ways: 8, width: 32 });
    }
    p.push(Primitive::Fsm {
        states: 6,
        signals: 16,
    });
    // T2: 4 predicate units (compare fillnum / maparp) + final-pred
    // mux + CAM write port logic.
    for _ in 0..4 {
        p.push(Primitive::Comparator { width: 32 });
        p.push(Primitive::Comparator { width: 8 });
        p.push(Primitive::Mux { ways: 4, width: 4 });
    }
    p.push(Primitive::Fsm {
        states: 8,
        signals: 24,
    });
    // Pipeline registers for the 4-deep pipelined engines, 4-wide
    // datapaths (the dominant FF cost).
    p.push(Primitive::Registers { bits: 2200 });
    // Wide width-4 interconnect/alignment crossbars between engines.
    for _ in 0..4 {
        p.push(Primitive::Mux {
            ways: 16,
            width: 96,
        });
    }
    p.push(Primitive::Cam {
        entries: 64,
        width: 18,
    }); // replicated search across the full window
    Design {
        name: "astar (4wide)",
        primitives: p,
        activity: 0.18,
        io_groups: 6,
    }
}

/// astar-alt (§5): two 32KB BRAM prediction tables mimicking waymap and
/// maparp, two 512-entry worklists, and narrow 1-wide logic.
pub fn astar_alt() -> Design {
    let p = vec![
        Primitive::BramTable {
            bits: 32 * 8 * 1024,
        }, // waymap mirror
        Primitive::BramTable {
            bits: 32 * 8 * 1024,
        }, // maparp mirror
        Primitive::Queue {
            entries: 512,
            width: 32,
        }, // worklist A
        Primitive::Queue {
            entries: 512,
            width: 32,
        }, // worklist B
        Primitive::Adder { width: 32 },
        Primitive::Adder { width: 32 },
        Primitive::Comparator { width: 8 },
        Primitive::Comparator { width: 8 },
        Primitive::Mux { ways: 8, width: 32 },
        Primitive::Fsm {
            states: 10,
            signals: 24,
        },
        Primitive::Registers { bits: 420 },
    ];
    Design {
        name: "astar-alt",
        primitives: p,
        activity: 0.22,
        io_groups: 3,
    }
}

/// libquantum custom prefetcher: a stride FSM with adaptive distance.
pub fn libquantum() -> Design {
    let p = vec![
        Primitive::Registers { bits: 140 }, // base/count/distance/epoch state
        Primitive::Adder { width: 40 },     // prefetch address
        Primitive::Adder { width: 16 },     // distance/epoch counters
        Primitive::Comparator { width: 32 },
        Primitive::Fsm {
            states: 5,
            signals: 10,
        },
    ];
    Design {
        name: "libq",
        primitives: p,
        activity: 0.3,
        io_groups: 1,
    }
}

/// lbm custom prefetcher: cluster-of-planes set pusher (no adaptive
/// distance, simplest FSM).
pub fn lbm() -> Design {
    let p = vec![
        Primitive::Registers { bits: 130 },
        Primitive::Adder { width: 40 },
        Primitive::Mux { ways: 9, width: 8 }, // plane-offset select
        Primitive::Fsm {
            states: 4,
            signals: 8,
        },
    ];
    Design {
        name: "lbm",
        primitives: p,
        activity: 0.28,
        io_groups: 1,
    }
}

/// bwaves custom prefetcher: multi-level nested-loop walker (more
/// induction registers, no multipliers — strides are pre-scaled).
pub fn bwaves() -> Design {
    let p = vec![
        Primitive::Registers { bits: 260 }, // 3-5 induction vars + strides
        Primitive::Adder { width: 40 },
        Primitive::Adder { width: 24 },
        Primitive::Comparator { width: 24 },
        Primitive::Comparator { width: 24 },
        Primitive::Fsm {
            states: 8,
            signals: 12,
        },
    ];
    Design {
        name: "bwaves",
        primitives: p,
        activity: 0.26,
        io_groups: 1,
    }
}

/// milc custom prefetcher: several adaptive streams; the per-stream
/// distance scaling uses narrow multipliers (the DSPs in Table 4).
pub fn milc() -> Design {
    let p = vec![
        Primitive::Registers { bits: 480 }, // 4 streams x state
        Primitive::Adder { width: 40 },
        Primitive::Adder { width: 40 },
        Primitive::Multiplier { width: 17 },
        Primitive::Multiplier { width: 17 },
        Primitive::Multiplier { width: 17 },
        Primitive::Multiplier { width: 17 },
        Primitive::Comparator { width: 32 },
        Primitive::Fsm {
            states: 6,
            signals: 14,
        },
    ];
    Design {
        name: "milc",
        primitives: p,
        activity: 0.3,
        io_groups: 2,
    }
}

/// bfs frontier-walker branch predictor (the roads/youtube component):
/// frontier and neighbor queues, a visited-bitmap CAM slice, and the
/// row-offset adders of the CSR walk. Not a Table 4 row — used by the
/// runtime-reconfiguration scheduler for its swap-latency estimate.
pub fn bfs() -> Design {
    let p = vec![
        Primitive::Queue {
            entries: 64,
            width: 32,
        }, // frontier queue
        Primitive::Queue {
            entries: 128,
            width: 33,
        }, // neighbor/pred replay queue
        Primitive::Cam {
            entries: 32,
            width: 18,
        }, // recently-visited filter
        Primitive::Adder { width: 40 }, // row-pointer address
        Primitive::Adder { width: 32 }, // edge-offset walk
        Primitive::Comparator { width: 32 },
        Primitive::Fsm {
            states: 6,
            signals: 14,
        },
        Primitive::Registers { bits: 360 },
    ];
    Design {
        name: "bfs",
        primitives: p,
        activity: 0.24,
        io_groups: 2,
    }
}

/// The design of the component a use case runs, by use-case name: a
/// variant (`bfs-roads`, `astar-slipstream`) takes its family's design,
/// and `astar-alt` its own. `None` for a use case with no modeled
/// design (leslie).
pub fn for_usecase(name: &str) -> Option<Design> {
    let design = match name {
        n if n.starts_with("astar-alt") => astar_alt(),
        n if n.starts_with("astar") => astar_4wide(),
        n if n.starts_with("bfs") => bfs(),
        n if n.starts_with("libquantum") => libquantum(),
        n if n.starts_with("lbm") => lbm(),
        n if n.starts_with("bwaves") => bwaves(),
        n if n.starts_with("milc") => milc(),
        _ => return None,
    };
    Some(design)
}

/// All Table 4 designs, in row order.
pub fn table4_designs() -> Vec<Design> {
    vec![
        astar_4wide(),
        astar_alt(),
        libquantum(),
        lbm(),
        bwaves(),
        milc(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn astar_is_the_lut_heaviest() {
        let designs = table4_designs();
        let astar = designs[0].resources();
        for d in &designs[1..] {
            assert!(
                astar.lut > d.resources().lut,
                "astar(4wide) should dominate LUTs vs {}",
                d.name
            );
        }
    }

    #[test]
    fn astar_alt_trades_logic_for_bram() {
        let alt = astar_alt();
        let r = alt.resources();
        assert!(r.bram > 10.0, "two 32KB tables need BRAM, got {}", r.bram);
        assert!(r.lut < astar_4wide().resources().lut / 3);
    }

    #[test]
    fn prefetchers_are_tiny() {
        for d in [libquantum(), lbm(), bwaves(), milc()] {
            let r = d.resources();
            assert!(r.lut < 800, "{} LUTs = {}", d.name, r.lut);
            assert!(r.ff < 800, "{} FFs = {}", d.name, r.ff);
        }
    }

    #[test]
    fn only_milc_uses_dsps() {
        for d in table4_designs() {
            let dsp = d.resources().dsp;
            if d.name == "milc" {
                assert!(dsp >= 4);
            } else {
                assert_eq!(dsp, 0, "{} should use no DSPs", d.name);
            }
        }
    }

    #[test]
    fn bfs_design_is_mid_sized_and_off_table4() {
        let d = bfs();
        let r = d.resources();
        assert!(r.lut > libquantum().resources().lut);
        assert!(r.lut < astar_4wide().resources().lut);
        assert!(table4_designs().iter().all(|t| t.name != d.name));
    }

    #[test]
    fn frequencies_match_table4_ordering() {
        // Prefetch FSMs close fastest; the CAM-heavy astar design and
        // the BRAM design land near 500 MHz.
        let astar = astar_4wide().frequency_mhz();
        let libq = libquantum().frequency_mhz();
        assert!(libq > 600.0, "libq frequency {libq}");
        assert!(astar < 560.0 && astar > 380.0, "astar frequency {astar}");
    }
}
