//! Property-based tests for the ISA substrate: memory semantics, ALU
//! semantics against a Rust reference, the speculative-overlay
//! invariants, and assembler label resolution.

use pfm_isa::asm::Asm;
use pfm_isa::inst::{AluOp, Inst};
use pfm_isa::machine::Machine;
use pfm_isa::mem::{SparseMem, SpecMemory};
use pfm_isa::reg::names::*;
use pfm_isa::Enc;
use proptest::prelude::*;

fn access_size() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(2), Just(4), Just(8)]
}

/// Bytes of address space the copy-on-write property writes into:
/// eight pages, so an image and the writes of both its clones overlap.
const COW_SPAN: u64 = 8 * SparseMem::PAGE_BYTES as u64;

/// One write to a [`SparseMem`], through each of its write paths.
#[derive(Clone, Debug)]
enum MemWrite {
    Byte(u64, u8),
    Sized(u64, u64, u64),
    /// A run of up to two pages, so most runs cross a page boundary.
    Run(u64, Vec<u8>),
}

fn mem_write() -> impl Strategy<Value = MemWrite> {
    prop_oneof![
        (0..COW_SPAN, any::<u8>()).prop_map(|(a, v)| MemWrite::Byte(a, v)),
        (0..COW_SPAN, access_size(), any::<u64>()).prop_map(|(a, s, v)| MemWrite::Sized(a, s, v)),
        (0..COW_SPAN, 0..=2 * SparseMem::PAGE_BYTES, any::<u8>()).prop_map(|(a, len, fill)| {
            MemWrite::Run(
                a,
                (0..len)
                    .map(|i| (i as u8).wrapping_mul(31) ^ fill)
                    .collect(),
            )
        }),
    ]
}

fn apply(m: &mut SparseMem, w: &MemWrite) {
    match w {
        MemWrite::Byte(a, v) => m.write_u8(*a, *v),
        MemWrite::Sized(a, size, v) => m.write(*a, *size, *v),
        MemWrite::Run(a, bytes) => m.write_bytes(*a, bytes),
    }
}

fn snapshot_bytes(m: &SparseMem) -> Vec<u8> {
    let mut e = Enc::new();
    m.snapshot_encode(&mut e);
    e.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Writes then reads back through SparseMem are exact (modulo size
    /// truncation), at arbitrary (possibly page-crossing) addresses.
    #[test]
    fn sparse_mem_roundtrip(addr in 0u64..0x10_0000, size in access_size(), value: u64) {
        let mut m = SparseMem::new();
        m.write(addr, size, value);
        let mask = if size == 8 { u64::MAX } else { (1u64 << (8 * size)) - 1 };
        prop_assert_eq!(m.read(addr, size), value & mask);
    }

    /// A `write_bytes` run of zero to three pages, at any offset (up to
    /// wrapping past the top of the address space), leaves the same
    /// bytes, resident pages and write generation as writing it one
    /// byte at a time.
    #[test]
    fn write_bytes_equals_byte_loop(
        addr in prop_oneof![0u64..0x10_0000, (u64::MAX - 0x4000)..=u64::MAX],
        // One case in four is an empty run.
        len in prop_oneof![
            Just(0),
            0..=3 * SparseMem::PAGE_BYTES,
            0..=3 * SparseMem::PAGE_BYTES,
            0..=3 * SparseMem::PAGE_BYTES,
        ],
        fill: u8,
        touched in 0u64..0x10_0000,
    ) {
        let bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ fill).collect();
        // Both memories start with one resident page, so the last-page
        // cache holds a page the run may or may not touch.
        let mut run = SparseMem::new();
        let mut looped = SparseMem::new();
        run.write_u8(touched, 0xA5);
        looped.write_u8(touched, 0xA5);
        run.write_bytes(addr, &bytes);
        for (i, &b) in bytes.iter().enumerate() {
            looped.write_u8(addr.wrapping_add(i as u64), b);
        }
        prop_assert_eq!(run.generation(), looped.generation());
        // At every length, 0 included: an empty run makes no page
        // resident.
        prop_assert_eq!(run.resident_page_addrs(), looped.resident_page_addrs());
        for i in 0..len as u64 + 16 {
            let a = addr.wrapping_sub(8).wrapping_add(i);
            prop_assert_eq!(run.read_u8(a), looped.read_u8(a), "byte at {:#x}", a);
        }
    }

    /// A clone shares its pages with the original until either side
    /// writes: after any interleaving of writes to the two, each side
    /// reads, counts, lists and serializes exactly like a deep
    /// reference that replayed that side's writes on a fresh memory.
    #[test]
    fn clones_equal_deep_replays(
        image in prop::collection::vec(mem_write(), 0..12),
        writes in prop::collection::vec((any::<bool>(), mem_write()), 0..24),
    ) {
        let mut sides = [SparseMem::new(), SparseMem::new()];
        for w in &image {
            apply(&mut sides[0], w);
        }
        sides[1] = sides[0].clone();
        let mut deep = [SparseMem::new(), SparseMem::new()];
        for d in &mut deep {
            for w in &image {
                apply(d, w);
            }
        }
        for (to_clone, w) in &writes {
            apply(&mut sides[*to_clone as usize], w);
            apply(&mut deep[*to_clone as usize], w);
        }
        for (side, deep) in sides.iter().zip(&deep) {
            prop_assert_eq!(side.generation(), deep.generation());
            prop_assert_eq!(side.resident_page_addrs(), deep.resident_page_addrs());
            for a in 0..COW_SPAN + 16 {
                prop_assert_eq!(side.read_u8(a), deep.read_u8(a), "byte at {:#x}", a);
            }
            prop_assert!(snapshot_bytes(side) == snapshot_bytes(deep), "snapshot bytes differ");
        }
    }

    /// Disjoint writes never interfere.
    #[test]
    fn sparse_mem_disjoint_writes(a in 0u64..0x1000, v1: u64, v2: u64) {
        let b = a + 8;
        let mut m = SparseMem::new();
        m.write(a, 8, v1);
        m.write(b, 8, v2);
        prop_assert_eq!(m.read(a, 8), v1);
        prop_assert_eq!(m.read(b, 8), v2);
    }

    /// The speculative overlay equals a naive shadow model under any
    /// program-order sequence of stores and commits (oldest-first).
    #[test]
    fn spec_memory_matches_shadow_model(
        stores in prop::collection::vec((0u64..256, access_size(), any::<u64>()), 1..20),
        commit_count in 0usize..20,
        probe in 0u64..256,
    ) {
        let mut spec = SpecMemory::new();
        let mut shadow_committed = vec![0u8; 512];
        let mut shadow_spec = vec![0u8; 512];

        let mut seqs = Vec::new();
        for (i, &(addr, size, value)) in stores.iter().enumerate() {
            let seq = (i + 1) as u64;
            spec.write_spec(seq, addr, size, value);
            seqs.push((seq, addr, size, value));
            for b in 0..size {
                shadow_spec[(addr + b) as usize] = (value >> (8 * b)) as u8;
            }
        }
        let commits = commit_count.min(seqs.len());
        for &(seq, addr, size, value) in seqs.iter().take(commits) {
            spec.commit_store(seq);
            for b in 0..size {
                shadow_committed[(addr + b) as usize] = (value >> (8 * b)) as u8;
            }
        }
        // Spec view sees every store; committed view only the commits.
        prop_assert_eq!(spec.read_spec(probe, 1), shadow_spec[probe as usize] as u64);
        prop_assert_eq!(spec.read_committed(probe, 1), shadow_committed[probe as usize] as u64);
    }

    /// Machine ALU results equal a direct Rust evaluation.
    #[test]
    fn alu_matches_reference(a: i64, b: i64) {
        let cases: Vec<(AluOp, u64)> = vec![
            (AluOp::Add, (a as u64).wrapping_add(b as u64)),
            (AluOp::Sub, (a as u64).wrapping_sub(b as u64)),
            (AluOp::Xor, (a ^ b) as u64),
            (AluOp::And, (a & b) as u64),
            (AluOp::Or, (a | b) as u64),
            (AluOp::Slt, ((a < b) as u64)),
            (AluOp::Sltu, (((a as u64) < (b as u64)) as u64)),
            (AluOp::Mul, (a as u64).wrapping_mul(b as u64)),
        ];
        for (op, expect) in cases {
            let mut asm = Asm::new(0x1000);
            asm.li(A0, a);
            asm.li(A1, b);
            asm.push(Inst::Alu { op, rd: A2, rs1: A0, rs2: A1 });
            asm.halt();
            let mut m = Machine::new(asm.finish().unwrap(), SpecMemory::new());
            m.run(10).unwrap();
            prop_assert_eq!(m.reg(A2), expect, "op {:?}", op);
        }
    }

    /// Shift semantics use the low 6 bits of the shift amount.
    #[test]
    fn shift_amount_is_mod_64(v: u64, sh in 0i64..256) {
        let mut asm = Asm::new(0x1000);
        asm.li(A0, v as i64);
        asm.li(A1, sh);
        asm.sll(A2, A0, A1);
        asm.srl(A3, A0, A1);
        asm.halt();
        let mut m = Machine::new(asm.finish().unwrap(), SpecMemory::new());
        m.run(10).unwrap();
        prop_assert_eq!(m.reg(A2), v.wrapping_shl((sh & 63) as u32));
        prop_assert_eq!(m.reg(A3), v.wrapping_shr((sh & 63) as u32));
    }

    /// Loads after stores through memory reproduce register contents
    /// for every access size, with correct sign extension.
    #[test]
    fn store_load_roundtrip_with_sign_extension(v: i64, size_idx in 0usize..4) {
        let mut asm = Asm::new(0x1000);
        asm.li(A0, 0x8000);
        asm.li(A1, v);
        match size_idx {
            0 => { asm.sb(A1, A0, 0); asm.lb(A2, A0, 0); }
            1 => { asm.sh(A1, A0, 0); asm.lh(A2, A0, 0); }
            2 => { asm.sw(A1, A0, 0); asm.lw(A2, A0, 0); }
            _ => { asm.sd(A1, A0, 0); asm.ld(A2, A0, 0); }
        }
        asm.halt();
        let mut m = Machine::new(asm.finish().unwrap(), SpecMemory::new());
        m.run(10).unwrap();
        let expect = match size_idx {
            0 => v as i8 as i64 as u64,
            1 => v as i16 as i64 as u64,
            2 => v as i32 as i64 as u64,
            _ => v as u64,
        };
        prop_assert_eq!(m.reg(A2), expect);
    }

    /// A chain of forward and backward jumps always resolves to the
    /// right instruction: a program that increments A0 exactly `n`
    /// times via a loop computes n.
    #[test]
    fn label_resolution_loops(n in 1i64..200) {
        let mut asm = Asm::new(0x4000);
        let top = asm.label();
        asm.li(A0, 0);
        asm.li(A1, n);
        asm.bind(top).unwrap();
        asm.addi(A0, A0, 1);
        asm.blt(A0, A1, top);
        asm.halt();
        let mut m = Machine::new(asm.finish().unwrap(), SpecMemory::new());
        m.run(10_000).unwrap();
        prop_assert_eq!(m.reg(A0) as i64, n);
    }

    /// Functional execution is deterministic: two machines over the
    /// same program and memory retire identical state.
    #[test]
    fn machine_determinism(vals in prop::collection::vec(any::<i64>(), 1..8)) {
        let build = || {
            let mut asm = Asm::new(0x1000);
            asm.li(A0, 0x9000);
            for (i, &v) in vals.iter().enumerate() {
                asm.li(A1, v);
                asm.sd(A1, A0, (i * 8) as i64);
                asm.ld(A2, A0, (i * 8) as i64);
                asm.add(A3, A3, A2);
            }
            asm.halt();
            let mut m = Machine::new(asm.finish().unwrap(), SpecMemory::new());
            m.run(100_000).unwrap();
            m
        };
        let m1 = build();
        let m2 = build();
        prop_assert_eq!(m1.reg(A3), m2.reg(A3));
    }
}
