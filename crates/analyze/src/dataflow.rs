//! Register dataflow over the CFG: forward definite-initialization
//! (the reaching-definitions variant behind the uninitialized-read
//! check).
//!
//! State is a 64-bit mask over the flat architectural register space
//! ([`RegRef::index`]: integer registers 0–31, FP registers 32–63).
//! `x0` is always initialized (it reads zero by construction). Every
//! other register starts *uninitialized* at the program entry: the
//! machine zero-fills the register file, so reading a never-written
//! register is not undefined behaviour, but it means the kernel is
//! silently relying on an implicit zero — exactly the kind of
//! assumption a kernel edit breaks without anyone noticing, so the
//! check surfaces it.
//!
//! Joins use intersection (a register is definitely initialized only
//! if it is on *every* path), which over the conservative CFG (returns
//! edge to every call site) can only under-claim initialization —
//! the safe direction for a checker that reports uninitialized reads.

use crate::cfg::Cfg;
use pfm_isa::reg::NUM_ARCH_REGS;
use pfm_isa::{Program, RegRef};

/// Bitmask over the flat 64-register space.
pub type RegSet = u64;

/// Mask with only `x0` set (always initialized).
fn entry_state() -> RegSet {
    1 // RegRef::Int(x0).index() == 0
}

/// A read of a register that is not definitely initialized on every
/// path reaching it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UninitRead {
    /// PC of the reading instruction.
    pub pc: u64,
    /// The register read (flat index; see [`RegRef::index`]).
    pub reg: RegRef,
}

/// Per-block solution of the definite-initialization analysis.
#[derive(Clone, Debug)]
pub struct InitAnalysis {
    /// Registers definitely initialized at block entry.
    pub inb: Vec<RegSet>,
    /// Registers definitely initialized at block exit.
    pub outb: Vec<RegSet>,
    /// Every may-uninitialized read, in ascending PC order.
    pub uninit_reads: Vec<UninitRead>,
}

/// Bit for a register reference.
fn bit(r: RegRef) -> RegSet {
    1u64 << r.index()
}

/// Registers one block defines.
fn block_defs(prog: &Program, cfg: &Cfg, b: usize) -> RegSet {
    cfg.blocks[b]
        .pcs()
        .filter_map(|pc| prog.fetch(pc).ok()?.info().dst)
        .fold(0, |defs, d| defs | bit(d))
}

impl InitAnalysis {
    /// Solves the forward problem to fixpoint and collects every
    /// may-uninitialized read. Unreachable blocks are skipped (the
    /// unreachable-block check owns those).
    pub fn solve(prog: &Program, cfg: &Cfg) -> InitAnalysis {
        let n = cfg.blocks.len();
        let reachable = cfg.reachable();
        let defs: Vec<RegSet> = (0..n).map(|b| block_defs(prog, cfg, b)).collect();
        // Top = all-initialized; the entry starts at just {x0}.
        let mut inb = vec![RegSet::MAX; n];
        let mut outb = vec![RegSet::MAX; n];
        if n == 0 {
            return InitAnalysis {
                inb,
                outb,
                uninit_reads: Vec::new(),
            };
        }
        inb[0] = entry_state();
        outb[0] = inb[0] | defs[0];
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                if !reachable[b] {
                    continue;
                }
                let mut input = if b == 0 { entry_state() } else { RegSet::MAX };
                if b != 0 {
                    for &p in &cfg.preds[b] {
                        if reachable[p] {
                            input &= outb[p];
                        }
                    }
                    input |= entry_state();
                }
                let output = input | defs[b];
                if input != inb[b] || output != outb[b] {
                    inb[b] = input;
                    outb[b] = output;
                    changed = true;
                }
            }
        }
        // Instruction-level walk to name the offending PC and register.
        let mut uninit_reads = Vec::new();
        for b in 0..n {
            if !reachable[b] {
                continue;
            }
            let mut state = inb[b];
            for pc in cfg.blocks[b].pcs() {
                let Ok(inst) = prog.fetch(pc) else { continue };
                let info = inst.info();
                for src in info.srcs.iter().flatten() {
                    if state & bit(*src) == 0 {
                        uninit_reads.push(UninitRead { pc, reg: *src });
                    }
                }
                if let Some(d) = info.dst {
                    state |= bit(d);
                }
            }
        }
        uninit_reads.sort_by_key(|u| (u.pc, u.reg.index()));
        uninit_reads.dedup();
        InitAnalysis {
            inb,
            outb,
            uninit_reads,
        }
    }
}

/// Number of registers the masks cover; kept as a compile-time guard
/// that the flat space still fits a `u64`.
const _: () = assert!(NUM_ARCH_REGS <= 64);

#[cfg(test)]
mod tests {
    use super::*;
    use pfm_isa::reg::names::*;
    use pfm_isa::Asm;

    #[test]
    fn clean_kernel_has_no_uninit_reads() {
        let mut a = Asm::new(0);
        let top = a.label();
        a.li(A0, 10);
        a.li(A1, 0);
        a.place(top);
        a.add(A1, A1, A0);
        a.addi(A0, A0, -1);
        a.bne(A0, X0, top);
        a.halt();
        let prog = a.finish().expect("assembles");
        let cfg = Cfg::build(&prog);
        let init = InitAnalysis::solve(&prog, &cfg);
        assert!(init.uninit_reads.is_empty(), "{:?}", init.uninit_reads);
    }

    #[test]
    fn read_before_write_is_flagged_at_the_pc() {
        let mut a = Asm::new(0x100);
        a.add(A0, A1, A2); // A1, A2 never written
        a.halt();
        let prog = a.finish().expect("assembles");
        let cfg = Cfg::build(&prog);
        let init = InitAnalysis::solve(&prog, &cfg);
        let regs: Vec<RegRef> = init.uninit_reads.iter().map(|u| u.reg).collect();
        assert_eq!(init.uninit_reads.len(), 2);
        assert!(init.uninit_reads.iter().all(|u| u.pc == 0x100));
        assert!(regs.contains(&RegRef::Int(A1)));
        assert!(regs.contains(&RegRef::Int(A2)));
    }

    #[test]
    fn fp_reads_are_tracked_in_the_same_space() {
        let mut a = Asm::new(0);
        a.li(A0, 0x1000);
        a.fld(FT0, A0, 0);
        a.fadd(FT1, FT1, FT0); // FT1 read before any write
        a.halt();
        let prog = a.finish().expect("assembles");
        let cfg = Cfg::build(&prog);
        let init = InitAnalysis::solve(&prog, &cfg);
        assert_eq!(init.uninit_reads.len(), 1);
        assert_eq!(init.uninit_reads[0].reg, RegRef::Fp(FT1));
    }

    #[test]
    fn init_must_hold_on_every_path() {
        // A1 is set only on the taken arm; the join's read may see it
        // uninitialized via the fall-through arm.
        let mut a = Asm::new(0);
        let arm = a.label();
        let join = a.label();
        a.li(A0, 1);
        a.bne(A0, X0, arm);
        a.j(join); // fall arm: A1 untouched
        a.place(arm);
        a.li(A1, 5);
        a.place(join);
        a.add(A2, A1, A0);
        a.halt();
        let prog = a.finish().expect("assembles");
        let cfg = Cfg::build(&prog);
        let init = InitAnalysis::solve(&prog, &cfg);
        assert_eq!(init.uninit_reads.len(), 1);
        assert_eq!(init.uninit_reads[0].reg, RegRef::Int(A1));
    }

    #[test]
    fn defs_flow_through_calls_and_returns() {
        // The callee initializes A1; the read after the return site
        // must see it as initialized (the CFG links ret → return site).
        let mut a = Asm::new(0);
        let f = a.label();
        a.call(f);
        a.add(A2, A1, X0); // after return: A1 set by callee
        a.halt();
        a.place(f);
        a.li(A1, 9);
        a.ret();
        let prog = a.finish().expect("assembles");
        let cfg = Cfg::build(&prog);
        let init = InitAnalysis::solve(&prog, &cfg);
        assert!(init.uninit_reads.is_empty(), "{:?}", init.uninit_reads);
    }
}
