//! Property-based tests for the out-of-order core: the timing model
//! must never change architectural results, must be deterministic, and
//! must respect its structural limits across randomly generated
//! programs.

use pfm_core::{Core, CoreConfig, NoPfm};
use pfm_isa::asm::Asm;
use pfm_isa::machine::Machine;
use pfm_isa::mem::SpecMemory;
use pfm_isa::reg::names::*;
use pfm_isa::FastExec;
use pfm_mem::{Hierarchy, HierarchyConfig};
use proptest::prelude::*;

/// A structured random program: a loop over a mix of ALU ops,
/// loads/stores to a small arena, FP load-op-store chains, calls to
/// leaf functions, and data-dependent branches.
#[derive(Clone, Debug)]
enum Op {
    Add(u8, u8, u8),
    Mul(u8, u8, u8),
    Xor(u8, u8, u8),
    Load(u8, u16),
    Store(u8, u16),
    /// `lb`/`lbu`/`lh`/`lw`/`lwu` (by kind) at arena slot + byte
    /// offset, so some accesses straddle two words.
    LoadSub(u8, u8, u16, u8),
    /// `sb`/`sh`/`sw` (by kind) at arena slot + byte offset.
    StoreSub(u8, u8, u16, u8),
    /// Two `fld`s, `fadd`/`fsub`/`fmul`/`fdiv` (by kind), one `fsd`,
    /// over three arena slots.
    Fp(u8, u16, u16, u16),
    /// `call` to a leaf that bumps a register and returns.
    Call(u8),
    CondSkip(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Registers restricted to s2..s9 (indices 18..=25) so loop control
    // and the arena base stay intact.
    let r = 0u8..8;
    prop_oneof![
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Op::Add(a, b, c)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Op::Mul(a, b, c)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Op::Xor(a, b, c)),
        (r.clone(), 0u16..64).prop_map(|(a, o)| Op::Load(a, o)),
        (r.clone(), 0u16..64).prop_map(|(a, o)| Op::Store(a, o)),
        (0u8..5, r.clone(), 0u16..64, 0u8..8).prop_map(|(k, d, o, b)| Op::LoadSub(k, d, o, b)),
        (0u8..3, r.clone(), 0u16..64, 0u8..8).prop_map(|(k, s, o, b)| Op::StoreSub(k, s, o, b)),
        (0u8..4, 0u16..64, 0u16..64, 0u16..64).prop_map(|(k, x, y, d)| Op::Fp(k, x, y, d)),
        r.clone().prop_map(Op::Call),
        r.prop_map(Op::CondSkip),
    ]
}

fn reg(i: u8) -> pfm_isa::Reg {
    // s2..s9
    [S2, S3, S4, S5, S6, S7, S8, S9][i as usize % 8]
}

fn build_program(ops: &[Op], iters: i64) -> pfm_isa::Program {
    let mut a = Asm::new(0x1000);
    let top = a.label();
    let mut leaves = Vec::new();
    a.li(A0, 0x10_0000); // arena base
    a.li(T0, iters);
    // Seed the working registers.
    for i in 0..8u8 {
        a.li(reg(i), (i as i64 + 3) * 0x1234_5677);
    }
    a.bind(top).unwrap();
    for op in ops {
        match *op {
            Op::Add(d, s1, s2) => {
                a.add(reg(d), reg(s1), reg(s2));
            }
            Op::Mul(d, s1, s2) => {
                a.mul(reg(d), reg(s1), reg(s2));
            }
            Op::Xor(d, s1, s2) => {
                a.xor(reg(d), reg(s1), reg(s2));
            }
            Op::Load(d, off) => {
                a.ld(reg(d), A0, (off as i64) * 8);
            }
            Op::Store(s, off) => {
                a.sd(reg(s), A0, (off as i64) * 8);
            }
            Op::LoadSub(kind, d, off, byte) => {
                let (rd, off) = (reg(d), off as i64 * 8 + byte as i64);
                match kind {
                    0 => a.lb(rd, A0, off),
                    1 => a.lbu(rd, A0, off),
                    2 => a.lh(rd, A0, off),
                    3 => a.lw(rd, A0, off),
                    _ => a.lwu(rd, A0, off),
                };
            }
            Op::StoreSub(kind, s, off, byte) => {
                let (src, off) = (reg(s), off as i64 * 8 + byte as i64);
                match kind {
                    0 => a.sb(src, A0, off),
                    1 => a.sh(src, A0, off),
                    _ => a.sw(src, A0, off),
                };
            }
            Op::Fp(kind, x, y, d) => {
                a.fld(FT0, A0, x as i64 * 8);
                a.fld(FT1, A0, y as i64 * 8);
                match kind {
                    0 => a.fadd(FT2, FT0, FT1),
                    1 => a.fsub(FT2, FT0, FT1),
                    2 => a.fmul(FT2, FT0, FT1),
                    _ => a.fdiv(FT2, FT0, FT1),
                };
                a.fsd(FT2, A0, d as i64 * 8);
            }
            Op::Call(r) => {
                let leaf = a.label();
                a.call(leaf);
                leaves.push((leaf, reg(r)));
            }
            Op::CondSkip(s) => {
                let skip = a.label();
                a.andi(T1, reg(s), 1);
                a.beq(T1, X0, skip);
                a.addi(reg(s), reg(s), 3);
                a.bind(skip).unwrap();
            }
        }
    }
    a.addi(T0, T0, -1);
    a.bne(T0, X0, top);
    a.halt();
    for (leaf, r) in leaves {
        a.bind(leaf).unwrap();
        a.addi(r, r, 1);
        a.ret();
    }
    a.finish().unwrap()
}

fn final_state(core: &Core) -> Vec<u64> {
    let mut v: Vec<u64> = (0..8u8).map(|i| core.machine().reg(reg(i))).collect();
    for off in 0..64u64 {
        v.push(core.machine().mem().read_committed(0x10_0000 + off * 8, 8));
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The timing model never changes architectural results: the core's
    /// final registers and memory equal a pure functional run, and it
    /// retires the functional executor's commit stream. The core's
    /// machine executes over the speculative overlay, the functional
    /// runs over the committed image.
    #[test]
    fn core_is_architecturally_transparent(
        ops in prop::collection::vec(op_strategy(), 1..20),
        iters in 1i64..60,
    ) {
        let program = build_program(&ops, iters);

        let mut pure = Machine::new(program.clone(), SpecMemory::new());
        pure.run(10_000_000).unwrap();
        prop_assert!(pure.halted());

        let mut fx = FastExec::new(program.clone(), SpecMemory::new());
        fx.run(10_000_000).unwrap();
        prop_assert!(fx.halted());

        let machine = Machine::new(program, SpecMemory::new());
        let mut core = Core::new(
            CoreConfig::micro21(),
            machine,
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        core.run(&mut NoPfm, u64::MAX, 50_000_000).unwrap();
        prop_assert!(core.finished());
        prop_assert_eq!(core.commit_checksum(), fx.commit_checksum());
        prop_assert_eq!(core.stats().retired, fx.retired());
        prop_assert_eq!(core.stats().loads, fx.loads());
        prop_assert_eq!(core.stats().stores, fx.stores());

        for i in 0..8u8 {
            prop_assert_eq!(core.machine().reg(reg(i)), pure.reg(reg(i)), "reg {}", i);
        }
        for off in 0..64u64 {
            let addr = 0x10_0000 + off * 8;
            prop_assert_eq!(
                core.machine().mem().read_committed(addr, 8),
                pure.mem().read_committed(addr, 8),
                "arena slot {}", off
            );
        }
    }

    /// Cycle counts are deterministic for identical inputs.
    #[test]
    fn core_timing_is_deterministic(
        ops in prop::collection::vec(op_strategy(), 1..15),
        iters in 1i64..40,
    ) {
        let run = || {
            let program = build_program(&ops, iters);
            let machine = Machine::new(program, SpecMemory::new());
            let mut core = Core::new(
                CoreConfig::micro21(),
                machine,
                Hierarchy::new(HierarchyConfig::micro21()),
            );
            core.run(&mut NoPfm, u64::MAX, 50_000_000).unwrap();
            (core.stats().cycles, core.stats().mispredicts, final_state(&core))
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b);
    }

    /// Shrinking any structure (ROB, IQ, LQ, SQ) never changes results
    /// and never produces more IPC than the full-size machine.
    #[test]
    fn structural_limits_only_slow_things_down(
        ops in prop::collection::vec(op_strategy(), 4..16),
        which in 0usize..4,
    ) {
        let program = build_program(&ops, 40);
        let mut small_cfg = CoreConfig::micro21();
        match which {
            0 => small_cfg.rob_size = 12,
            1 => small_cfg.iq_size = 6,
            2 => small_cfg.ldq_size = 3,
            _ => small_cfg.stq_size = 3,
        }
        let mut big = Core::new(
            CoreConfig::micro21(),
            Machine::new(program.clone(), SpecMemory::new()),
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        big.run(&mut NoPfm, u64::MAX, 50_000_000).unwrap();
        let mut small = Core::new(
            small_cfg,
            Machine::new(program, SpecMemory::new()),
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        small.run(&mut NoPfm, u64::MAX, 50_000_000).unwrap();
        prop_assert_eq!(final_state(&big), final_state(&small));
        // Allow a tiny tolerance: replacement/prefetch state can
        // interact, but a smaller window must not be meaningfully
        // faster.
        prop_assert!(
            small.stats().cycles as f64 >= big.stats().cycles as f64 * 0.98,
            "small {} vs big {}",
            small.stats().cycles,
            big.stats().cycles
        );
    }

    /// Fast-forwarding on `FastExec` to a random position, then
    /// restoring its `Machine` snapshot into a fresh core (cold caches,
    /// predictor and window) is invisible to the architecture: the
    /// restored core runs to halt, retires exactly the rest of the
    /// program and ends with the straight detailed run's registers and
    /// arena, for window sizes that are and are not powers of two. This
    /// is the split every sampled interval makes.
    #[test]
    fn split_run_equals_straight_run(
        ops in prop::collection::vec(op_strategy(), 1..16),
        iters in 1i64..40,
        rob in 0usize..3,
        cut_permille in 0u64..1000,
    ) {
        let program = build_program(&ops, iters);
        let mut cfg = CoreConfig::micro21();
        cfg.rob_size = [12, 37, 224][rob];
        let detailed = |machine: Machine| {
            let mut core = Core::new(cfg.clone(), machine, Hierarchy::new(HierarchyConfig::micro21()));
            core.run(&mut NoPfm, u64::MAX, 50_000_000).unwrap();
            core
        };
        let straight = detailed(Machine::new(program.clone(), SpecMemory::new()));
        prop_assert!(straight.finished());
        let total = straight.stats().retired;

        let mut fx = FastExec::new(program.clone(), SpecMemory::new());
        let cut = total * cut_permille / 1000;
        prop_assert_eq!(fx.run(cut).unwrap(), cut);
        let restored = detailed(Machine::restore(program, &fx.snapshot()).unwrap());
        prop_assert!(restored.finished());
        prop_assert_eq!(restored.stats().retired, total - cut);
        prop_assert_eq!(final_state(&restored), final_state(&straight));
    }

    /// Perfect branch prediction never mispredicts and never loses to
    /// the real predictor.
    #[test]
    fn perfect_bp_dominates(ops in prop::collection::vec(op_strategy(), 4..16)) {
        let program = build_program(&ops, 60);
        let mut real = Core::new(
            CoreConfig::micro21(),
            Machine::new(program.clone(), SpecMemory::new()),
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        real.run(&mut NoPfm, u64::MAX, 50_000_000).unwrap();
        let mut cfg = CoreConfig::micro21();
        cfg.predictor = pfm_bpred::PredictorKind::Perfect;
        let mut perfect = Core::new(
            cfg,
            Machine::new(program, SpecMemory::new()),
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        perfect.run(&mut NoPfm, u64::MAX, 50_000_000).unwrap();
        prop_assert_eq!(perfect.stats().mispredicts, 0);
        prop_assert!(perfect.stats().cycles <= real.stats().cycles);
    }
}
