//! Packet formats and snoop-table configuration for the three Agents.

pub use pfm_core::hooks::FabricLoad;
use pfm_isa::inst::INST_BYTES;
use std::collections::{BTreeMap, BTreeSet};

/// What a Retire Snoop Table hit observes (§2.1's three observation
/// packet types).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObserveKind {
    /// Destination value packet (needs a PRF read port).
    DestValue,
    /// Store value packet (from the SQ head).
    StoreValue,
    /// Branch outcome packet (from the branch queue head).
    BranchOutcome,
}

/// One Retire Snoop Table entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RstEntry {
    /// This PC marks the beginning of the region of interest.
    pub begin_roi: bool,
    /// This PC marks the end of the region of interest.
    pub end_roi: bool,
    /// Observation to construct when this PC retires (while enabled).
    pub observe: Option<ObserveKind>,
}

impl RstEntry {
    /// An entry that observes the destination value.
    pub fn dest() -> RstEntry {
        RstEntry {
            observe: Some(ObserveKind::DestValue),
            ..RstEntry::default()
        }
    }

    /// An entry that observes the store value.
    pub fn store() -> RstEntry {
        RstEntry {
            observe: Some(ObserveKind::StoreValue),
            ..RstEntry::default()
        }
    }

    /// An entry that observes the branch outcome.
    pub fn branch() -> RstEntry {
        RstEntry {
            observe: Some(ObserveKind::BranchOutcome),
            ..RstEntry::default()
        }
    }

    /// Marks this entry as the beginning of the ROI.
    pub fn begin(mut self) -> RstEntry {
        self.begin_roi = true;
        self
    }

    /// Marks this entry as the end of the ROI.
    pub fn end(mut self) -> RstEntry {
        self.end_roi = true;
        self
    }
}

/// The Fetch and Retire Snoop Tables as one table indexed by PC, which
/// the Agents probe for every fetched conditional branch and every
/// retired instruction.
///
/// Slot `i` holds PC `lo + i * INST_BYTES`, over the span from the
/// lowest to the highest configured PC; a PC outside that span, or off
/// its instruction grid, is in neither table. A configuration whose
/// PCs do not all lie on `lo`'s grid gets one slot per byte instead, so
/// the table always answers what the `BTreeSet` and `BTreeMap` it is
/// built from answer.
#[derive(Clone, Debug, Default)]
pub(crate) struct SnoopTable {
    lo: u64,
    /// log2 of the bytes a slot covers.
    shift: u32,
    slots: Vec<Snoop>,
}

/// One PC's entries in the two tables.
#[derive(Clone, Copy, Debug, Default)]
struct Snoop {
    fst: bool,
    rst: Option<RstEntry>,
}

impl SnoopTable {
    /// Builds the table from the FST's PCs and the RST's entries.
    pub(crate) fn new(fst: &BTreeSet<u64>, rst: &BTreeMap<u64, RstEntry>) -> SnoopTable {
        let pcs = || fst.iter().chain(rst.keys()).copied();
        let (Some(lo), Some(hi)) = (pcs().min(), pcs().max()) else {
            return SnoopTable::default();
        };
        let shift = if pcs().all(|pc| (pc - lo).is_multiple_of(INST_BYTES)) {
            INST_BYTES.trailing_zeros()
        } else {
            0
        };
        let slot = |pc: u64| ((pc - lo) >> shift) as usize;
        let mut slots = vec![Snoop::default(); slot(hi) + 1];
        for &pc in fst {
            slots[slot(pc)].fst = true;
        }
        for (&pc, &entry) in rst {
            slots[slot(pc)].rst = Some(entry);
        }
        SnoopTable { lo, shift, slots }
    }

    fn get(&self, pc: u64) -> Option<&Snoop> {
        let off = pc.wrapping_sub(self.lo);
        if off & ((1 << self.shift) - 1) != 0 {
            return None;
        }
        self.slots.get(usize::try_from(off >> self.shift).ok()?)
    }

    /// Whether `pc` is in the FST.
    #[inline]
    pub(crate) fn fst(&self, pc: u64) -> bool {
        self.get(pc).is_some_and(|s| s.fst)
    }

    /// `pc`'s RST entry, if any.
    #[inline]
    pub(crate) fn rst(&self, pc: u64) -> Option<RstEntry> {
        self.get(pc).and_then(|s| s.rst)
    }
}

/// An observation packet flowing from the Retire Agent to the custom
/// component via ObsQ-R.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsPacket {
    /// Beginning of the region of interest.
    BeginRoi,
    /// Destination value of a retired instruction.
    DestValue {
        /// Retired instruction's PC.
        pc: u64,
        /// Destination register value.
        value: u64,
    },
    /// A retired store's address and value.
    StoreValue {
        /// Retired store's PC.
        pc: u64,
        /// Effective address.
        addr: u64,
        /// Stored value.
        value: u64,
    },
    /// A retired conditional branch's outcome.
    BranchOutcome {
        /// Retired branch's PC.
        pc: u64,
        /// Actual direction.
        taken: bool,
    },
    /// The pipeline squashed; the component must realign (answered
    /// with squash-done).
    Squash,
}

/// A custom conditional-branch prediction flowing from the component to
/// the Fetch Agent via IntQ-F. Predictions are tagged with the branch
/// PC they belong to so the Fetch Agent can detect and repair residual
/// stream misalignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredPacket {
    /// Static PC of the branch this prediction is for.
    pub pc: u64,
    /// Predicted direction.
    pub taken: bool,
}

/// A load value returning from the Load Agent to the component via
/// ObsQ-EX. May arrive out of order; `id` is the component-assigned
/// identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadResponse {
    /// The identifier the component attached to the load.
    pub id: u64,
    /// Loaded value (from committed architectural memory).
    pub value: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// An RST entry from the low four bits of `code`.
    fn rst_entry(code: u8) -> RstEntry {
        let observe = [
            None,
            Some(ObserveKind::DestValue),
            Some(ObserveKind::StoreValue),
            Some(ObserveKind::BranchOutcome),
        ];
        RstEntry {
            begin_roi: code & 1 != 0,
            end_roi: code & 2 != 0,
            observe: observe[usize::from(code >> 2 & 3)],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The snoop table answers what the `BTreeSet` and `BTreeMap`
        /// it is built from answer: for every configured PC and its
        /// byte neighbours, and for PCs inside the span, outside it and
        /// off the instruction grid. One case in four adds a configured
        /// PC off the grid of the others.
        #[test]
        fn snoop_table_answers_like_the_maps(
            base in 16u64..0x4_0000,
            fst_slots in vec(0u64..300, 0..24),
            rst_slots in vec((0u64..300, 0u8..16), 0..24),
            odd in 0u64..16,
            probes in vec(0u64..1_400, 64),
        ) {
            let base = base * INST_BYTES;
            let mut fst: BTreeSet<u64> = fst_slots.iter().map(|&i| base + i * INST_BYTES).collect();
            if odd < INST_BYTES {
                fst.insert(base + 100 * INST_BYTES + odd);
            }
            let rst: BTreeMap<u64, RstEntry> = rst_slots
                .iter()
                .map(|&(i, code)| (base + i * INST_BYTES, rst_entry(code)))
                .collect();
            let table = SnoopTable::new(&fst, &rst);
            let configured = fst.iter().chain(rst.keys()).copied();
            let near = configured.flat_map(|pc| pc - 2..pc + 3);
            let spread = probes.iter().map(|&p| base - 64 + p);
            for pc in near.chain(spread).chain([0, u64::MAX]) {
                prop_assert_eq!(table.fst(pc), fst.contains(&pc), "FST at {:#x}", pc);
                prop_assert_eq!(table.rst(pc), rst.get(&pc).copied(), "RST at {:#x}", pc);
            }
        }
    }

    #[test]
    fn rst_entry_builders() {
        let e = RstEntry::dest().begin();
        assert!(e.begin_roi);
        assert!(!e.end_roi);
        assert_eq!(e.observe, Some(ObserveKind::DestValue));
        let e = RstEntry::branch().end();
        assert!(e.end_roi);
        assert_eq!(e.observe, Some(ObserveKind::BranchOutcome));
        assert_eq!(RstEntry::store().observe, Some(ObserveKind::StoreValue));
    }
}
