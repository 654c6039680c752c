//! Functional-only execution — the fast speed of the two-speed
//! simulator.
//!
//! [`FastExec`] is a [`Machine`] running its functional loop
//! ([`Machine::run`]): the instruction semantics the detailed core
//! steps through, executed against the committed image with no
//! per-cycle structures, no speculation and no timing model, plus the
//! counts a functional run reports.
//!
//! Two invariants tie the fast path to the detailed model:
//!
//! * **The committed stream is bit-identical.** Every retired record
//!   is folded by [`fold_commit`](crate::machine::StepOut::fold_commit),
//!   the fold the cycle core applies at retirement. The
//!   functional/detailed equivalence gate pins this for every use case.
//! * **Snapshots are interchangeable.** [`FastExec::snapshot`] is
//!   [`Machine::snapshot`], so a fast-forward position can seed a
//!   detailed interval via [`Machine::restore`] (the sampled-run mode
//!   in `pfm-sim`).

use crate::machine::{ExecError, Machine};
use crate::mem::SpecMemory;
use crate::program::Program;
use crate::snap::FNV_OFFSET;

/// The functional executor.
///
/// ```
/// use pfm_isa::{Asm, FastExec, SpecMemory};
/// use pfm_isa::reg::names::*;
/// let mut a = Asm::new(0x1000);
/// a.li(A0, 2);
/// a.add(A0, A0, A0);
/// a.halt();
/// let mut fx = FastExec::new(a.finish().unwrap(), SpecMemory::new());
/// fx.run(100).unwrap();
/// assert!(fx.halted());
/// assert_eq!(fx.retired(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct FastExec {
    machine: Machine,
    checksum: u64,
    retired: u64,
    loads: u64,
    stores: u64,
}

impl FastExec {
    /// Positions the executor at `program`'s base address over the
    /// given data memory.
    ///
    /// # Panics
    /// Panics if `mem` has unretired speculative stores (fresh
    /// use-case memories never do; the functional path commits every
    /// store immediately, so none ever accumulate).
    pub fn new(program: Program, mem: SpecMemory) -> FastExec {
        assert_eq!(
            mem.pending_stores(),
            0,
            "functional execution starts from committed state"
        );
        FastExec {
            machine: Machine::new(program, mem),
            checksum: FNV_OFFSET,
            retired: 0,
            loads: 0,
            stores: 0,
        }
    }

    /// Executes up to `max_steps` instructions (or until `Halt`),
    /// returning the number retired by this call.
    ///
    /// # Errors
    /// [`ExecError::Program`] if the PC leaves the program; state up
    /// to the faulting instruction is retained.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, ExecError> {
        let (mut h, mut loads, mut stores) = (self.checksum, 0, 0);
        let first = self.machine.next_seq();
        let result = self.machine.run_with(max_steps, |s| {
            h = s.fold_commit(h);
            match s.mem {
                Some(m) if m.is_store => stores += 1,
                Some(_) => loads += 1,
                None => {}
            }
        });
        self.checksum = h;
        self.retired += self.machine.next_seq() - first;
        self.loads += loads;
        self.stores += stores;
        result
    }

    /// Instructions retired since construction.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether `Halt` has executed.
    pub fn halted(&self) -> bool {
        self.machine.halted()
    }

    /// Committed-stream checksum over every retired instruction —
    /// bit-identical to the detailed core's `commit_checksum` after
    /// retiring the same stream.
    pub fn commit_checksum(&self) -> u64 {
        self.checksum
    }

    /// Loads retired since construction.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Stores retired since construction.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// The architectural machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// [`Machine::arch_checksum`] of the current state.
    pub fn arch_checksum(&self) -> u64 {
        self.machine.arch_checksum()
    }

    /// [`Machine::snapshot`] of the current state — restorable via
    /// [`Machine::restore`] to seed a detailed interval from this
    /// fast-forward position.
    pub fn snapshot(&self) -> Vec<u8> {
        self.machine.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::program::ProgramError;
    use crate::reg::names::*;
    use crate::reg::{FReg, Reg};

    fn program(f: impl FnOnce(&mut Asm)) -> Program {
        let mut a = Asm::new(0x1000);
        f(&mut a);
        a.finish().unwrap()
    }

    /// A representative kernel: integer loop, loads/stores of every
    /// width, FP pipeline, calls, divisions, unaligned access.
    fn mixed_kernel(a: &mut Asm) {
        let top = a.label();
        let func = a.label();
        let done = a.label();
        a.li(A0, 0x8000);
        a.li(A1, 16);
        a.li(A2, 0);
        a.bind(top).unwrap();
        a.sd(A1, A0, 0);
        a.lw(A3, A0, 0);
        a.sb(A3, A0, 9);
        a.lbu(A4, A0, 9);
        a.add(A2, A2, A4);
        a.call(func);
        a.addi(A1, A1, -1);
        a.bne(A1, X0, top);
        a.j(done);
        a.bind(func).unwrap();
        a.li(T0, 2.5f64.to_bits() as i64);
        a.sd(T0, A0, 16);
        a.fld(FT0, A0, 16);
        a.fadd(FT1, FT0, FT0);
        a.fsd(FT1, A0, 24);
        a.div(T1, A2, A1);
        a.rem(T2, A2, A1);
        a.ret();
        a.bind(done).unwrap();
        a.halt();
    }

    #[test]
    fn matches_machine_stream_and_state() {
        // The machine steps over the speculative overlay and commits
        // its stores only after halting, so every load reads through
        // pending stores; the executor runs over the committed image.
        let p = program(mixed_kernel);
        let mut m = Machine::new(p.clone(), SpecMemory::new());
        let mut fx = FastExec::new(p, SpecMemory::new());
        let (mut steps, mut checksum, mut pending) = (0, FNV_OFFSET, Vec::new());
        while !m.halted() {
            let s = m.step().unwrap();
            if s.mem.is_some_and(|a| a.is_store) {
                pending.push(s.seq);
            }
            checksum = s.fold_commit(checksum);
            steps += 1;
        }
        for seq in pending {
            m.mem_mut().commit_store(seq);
        }
        let fast_steps = fx.run(10_000).unwrap();
        assert_eq!(steps, fast_steps);
        assert!(m.halted() && fx.halted());
        assert_eq!(checksum, fx.commit_checksum());
        assert_eq!(m.arch_checksum(), fx.arch_checksum());
        for i in 0..32 {
            let f = fx.machine();
            assert_eq!(m.reg(Reg::new(i)), f.reg(Reg::new(i)), "x{i}");
            assert_eq!(m.freg_bits(FReg::new(i)), f.freg_bits(FReg::new(i)), "f{i}");
        }
    }

    #[test]
    fn budget_slicing_is_invisible() {
        let p = program(mixed_kernel);
        let mut whole = FastExec::new(p.clone(), SpecMemory::new());
        whole.run(10_000).unwrap();
        let mut sliced = FastExec::new(p, SpecMemory::new());
        while !sliced.halted() {
            sliced.run(7).unwrap();
        }
        assert_eq!(whole.retired(), sliced.retired());
        assert_eq!(whole.commit_checksum(), sliced.commit_checksum());
        assert_eq!(whole.arch_checksum(), sliced.arch_checksum());
        assert_eq!(whole.loads(), sliced.loads());
        assert_eq!(whole.stores(), sliced.stores());
    }

    #[test]
    fn snapshot_restores_into_machine_midstream() {
        let p = program(mixed_kernel);
        let mut fx = FastExec::new(p.clone(), SpecMemory::new());
        fx.run(50).unwrap();
        assert!(!fx.halted());
        let m = Machine::restore(p, &fx.snapshot()).unwrap();
        assert_eq!(m.pc(), fx.machine().pc());
        assert_eq!(m.arch_checksum(), fx.arch_checksum());

        // Continue both to completion: identical final state.
        let mut m = m;
        m.run(10_000).unwrap();
        fx.run(10_000).unwrap();
        assert_eq!(m.arch_checksum(), fx.arch_checksum());
    }

    #[test]
    fn bad_pc_is_reported_with_state_retained() {
        let p = program(|a| {
            a.li(A0, 7);
            a.nop();
        });
        let mut fx = FastExec::new(p, SpecMemory::new());
        let err = fx.run(10).unwrap_err();
        assert!(matches!(err, ExecError::Program(ProgramError::BadPc(_))));
        assert_eq!(fx.retired(), 2);
        assert_eq!(fx.machine().reg(A0), 7);
    }

    #[test]
    fn halted_run_retires_nothing() {
        let p = program(|a| {
            a.halt();
        });
        let mut fx = FastExec::new(p, SpecMemory::new());
        assert_eq!(fx.run(10).unwrap(), 1);
        assert_eq!(fx.run(10).unwrap(), 0);
        assert_eq!(fx.retired(), 1);
    }

    #[test]
    fn x0_writes_are_discarded() {
        let p = program(|a| {
            a.li(X0, 42);
            a.addi(A0, X0, 1);
            a.halt();
        });
        let mut fx = FastExec::new(p, SpecMemory::new());
        fx.run(10).unwrap();
        assert_eq!(fx.machine().reg(X0), 0);
        assert_eq!(fx.machine().reg(A0), 1);
    }
}
