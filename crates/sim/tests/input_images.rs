//! Image pins: every use case's initial data memory, as built, folded
//! into its write generation and the content key of its snapshot
//! encoding, and pinned against values captured before the input
//! builders were rewritten to work in bulk.
//!
//! `golden_stats.rs` runs each use case for 30,000 instructions, so it
//! cannot see a change in memory the run never reaches (most of a
//! million-node graph). This test sees every byte: the snapshot encodes
//! each resident page and the generation, so a builder that writes a
//! different byte, touches a different page or writes a different
//! number of bytes moves a pin.
//!
//! Regenerating (only after an *intentional* input change): the failure
//! message prints the whole table to paste over `IMAGES`.

use pfm_isa::snap::{content_key, Enc};
use pfm_sim::usecases;

/// `(name, generation, content key)` per factory of
/// `throughput_suite_factories()`, in its order.
const IMAGES: &[(&str, u64, u64)] = &[
    ("astar", 20406, 0x079dd4fbce34b5b1),
    ("astar-slipstream", 20406, 0x079dd4fbce34b5b1),
    ("astar-alt", 20406, 0x079dd4fbce34b5b1),
    ("bfs-roads", 29256084, 0x1e96cc822a601f25),
    ("bfs-roads-slipstream", 29256084, 0x1e96cc822a601f25),
    ("bfs-youtube", 12285100, 0x9285570a63dce664),
    ("libquantum", 750000, 0xcf314d3be628e3a1),
    ("bwaves", 0, 0x4dfa5cffd1f7b2cf),
    ("lbm", 0, 0x4dfa5cffd1f7b2cf),
    ("milc", 0, 0x4dfa5cffd1f7b2cf),
    ("leslie", 0, 0x4dfa5cffd1f7b2cf),
];

#[test]
fn built_images_are_byte_identical() {
    let actual: Vec<(String, u64, u64)> = usecases::throughput_suite_factories()
        .iter()
        .map(|f| {
            let uc = f.build();
            let image = uc.memory.committed();
            let mut e = Enc::new();
            image.snapshot_encode(&mut e);
            (
                f.name().to_string(),
                image.generation(),
                content_key(&e.finish()),
            )
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, generation, key)| format!("    (\"{name}\", {generation}, {key:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64, u64)> = IMAGES
        .iter()
        .map(|&(name, generation, key)| (name.to_string(), generation, key))
        .collect();
    assert!(
        actual == pinned,
        "built memory images drifted from the pins; if the input change \
         was intentional, paste this table over IMAGES:\n{table}"
    );
}
