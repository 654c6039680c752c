//! Functional (architectural) execution: the one instruction semantics.
//!
//! `execute` is the only place an [`Inst`] is executed. It runs over
//! one of two views of data memory:
//!
//! * **The speculative overlay** of [`SpecMemory`], driven by
//!   [`Machine::step`]. The cycle-level core consumes the produced
//!   [`StepOut`] records ("functional-first" simulation): values are
//!   architecturally exact, while the timing model separately accounts
//!   for speculation, squashes and replay. Stores stay in the overlay
//!   until the timing model commits them at retirement (see
//!   [`SpecMemory::commit_store`]).
//! * **The committed image** ([`SparseMem`]), driven by the functional
//!   loop [`Machine::run`], which [`FastExec`](crate::fast::FastExec)
//!   also runs. Stores take effect at once.
//!
//! Both speeds fold every retired record into their commit-stream
//! checksum with [`StepOut::fold_commit`].

use crate::inst::{FAluOp, Inst, MemWidth, INST_BYTES};
use crate::mem::{SparseMem, SpecMemory};
use crate::program::{Program, ProgramError};
use crate::reg::{FReg, Reg, RegRef, NUM_FP_REGS, NUM_INT_REGS};
use crate::snap::{Dec, Enc, SnapError, FNV_OFFSET, FNV_PRIME};

/// A functional memory access performed by one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemOp {
    /// True for stores, false for loads.
    pub is_store: bool,
    /// Effective byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// Value loaded or stored (zero-extended raw bits).
    pub value: u64,
}

/// The architectural effects of one executed instruction.
#[derive(Clone, Copy, Debug)]
pub struct StepOut {
    /// Global program-order sequence number (starts at 1).
    pub seq: u64,
    /// Address of the executed instruction.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// Architecturally correct next PC.
    pub next_pc: u64,
    /// For control instructions: whether the transfer was taken.
    pub taken: bool,
    /// Memory access, if any.
    pub mem: Option<MemOp>,
    /// Destination register write, if any (raw 64-bit value).
    pub wrote: Option<(RegRef, u64)>,
    /// Whether this instruction halts the machine.
    pub halted: bool,
}

/// Errors raised during functional execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the program.
    Program(ProgramError),
    /// Step was called after `Halt` executed.
    Halted,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Program(e) => write!(f, "functional execution error: {e}"),
            ExecError::Halted => write!(f, "machine is halted"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ProgramError> for ExecError {
    fn from(e: ProgramError) -> ExecError {
        ExecError::Program(e)
    }
}

/// A view of data memory that instructions execute against.
trait DataMem {
    /// Reads `size` bytes at `addr`, zero-extended.
    fn load(&mut self, addr: u64, size: u64) -> u64;
    /// Writes the low `size` bytes of `value` at `addr` for the store
    /// with sequence number `seq`.
    fn store(&mut self, seq: u64, addr: u64, size: u64, value: u64);
}

/// Loads see unretired stores; stores stay pending until committed.
impl DataMem for SpecMemory {
    #[inline(always)]
    fn load(&mut self, addr: u64, size: u64) -> u64 {
        self.read_spec(addr, size)
    }

    #[inline(always)]
    fn store(&mut self, seq: u64, addr: u64, size: u64, value: u64) {
        self.write_spec(seq, addr, size, value);
    }
}

/// Stores take effect immediately.
impl DataMem for SparseMem {
    #[inline(always)]
    fn load(&mut self, addr: u64, size: u64) -> u64 {
        self.read_cached(addr, size)
    }

    #[inline(always)]
    fn store(&mut self, _seq: u64, addr: u64, size: u64, value: u64) {
        self.write(addr, size, value);
    }
}

/// Reads an integer register. Slot 0 is never written, so `x0` reads
/// as zero without a test.
#[inline(always)]
fn x(regs: &[u64; NUM_INT_REGS], r: Reg) -> u64 {
    regs[r.num() as usize]
}

/// Writes `rd` (dropping writes to `x0`) and returns the record's
/// destination write.
#[inline(always)]
fn set_x(regs: &mut [u64; NUM_INT_REGS], rd: Reg, v: u64) -> Option<(RegRef, u64)> {
    if rd.is_zero() {
        return None;
    }
    regs[rd.num() as usize] = v;
    Some((rd.into(), v))
}

/// Writes `fd` and returns the record's destination write.
#[inline(always)]
fn set_f(fregs: &mut [u64; NUM_FP_REGS], fd: FReg, bits: u64) -> Option<(RegRef, u64)> {
    fregs[fd.num() as usize] = bits;
    Some((fd.into(), bits))
}

/// Executes `inst`, the instruction at `pc` with sequence number `seq`,
/// against the register files and `mem`, and returns its effects.
///
/// `retire` sees the record at the end of each arm rather than once
/// after the `match`: inlined into each arm, the commit fold's tags and
/// absent fields are constants, so the functional loop folds with code
/// specialised per instruction kind. A shared tail after the `match`
/// compiles to one generic fold and slows that loop down.
#[inline(always)]
fn execute<M: DataMem>(
    regs: &mut [u64; NUM_INT_REGS],
    fregs: &mut [u64; NUM_FP_REGS],
    mem: &mut M,
    seq: u64,
    pc: u64,
    inst: Inst,
    retire: impl FnOnce(&StepOut),
) -> StepOut {
    let fall = pc + INST_BYTES;
    let mut out = StepOut {
        seq,
        pc,
        inst,
        next_pc: fall,
        taken: false,
        mem: None,
        wrote: None,
        halted: false,
    };
    match inst {
        Inst::Alu { op, rd, rs1, rs2 } => {
            out.wrote = set_x(regs, rd, op.eval(x(regs, rs1), x(regs, rs2)));
            retire(&out);
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            out.wrote = set_x(regs, rd, op.eval(x(regs, rs1), imm as u64));
            retire(&out);
        }
        Inst::Li { rd, imm } => {
            out.wrote = set_x(regs, rd, imm as u64);
            retire(&out);
        }
        Inst::Load {
            width,
            signed,
            rd,
            base,
            offset,
        } => {
            let addr = x(regs, base).wrapping_add(offset as u64);
            let size = width.bytes();
            let value = extend(mem.load(addr, size), width, signed);
            out.mem = Some(MemOp {
                is_store: false,
                addr,
                size,
                value,
            });
            out.wrote = set_x(regs, rd, value);
            retire(&out);
        }
        Inst::Store {
            width,
            src,
            base,
            offset,
        } => {
            let addr = x(regs, base).wrapping_add(offset as u64);
            let size = width.bytes();
            let value = x(regs, src);
            mem.store(seq, addr, size, value);
            out.mem = Some(MemOp {
                is_store: true,
                addr,
                size,
                value,
            });
            retire(&out);
        }
        Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            out.taken = cond.eval(x(regs, rs1), x(regs, rs2));
            if out.taken {
                out.next_pc = target;
            }
            retire(&out);
        }
        Inst::Jal { rd, target } => {
            out.wrote = set_x(regs, rd, fall);
            out.taken = true;
            out.next_pc = target;
            retire(&out);
        }
        Inst::Jalr { rd, base, offset } => {
            // The target reads `base` before `rd` is written.
            out.next_pc = x(regs, base).wrapping_add(offset as u64) & !1u64;
            out.wrote = set_x(regs, rd, fall);
            out.taken = true;
            retire(&out);
        }
        Inst::FLoad { fd, base, offset } => {
            let addr = x(regs, base).wrapping_add(offset as u64);
            let bits = mem.load(addr, 8);
            out.mem = Some(MemOp {
                is_store: false,
                addr,
                size: 8,
                value: bits,
            });
            out.wrote = set_f(fregs, fd, bits);
            retire(&out);
        }
        Inst::FStore { fs, base, offset } => {
            let addr = x(regs, base).wrapping_add(offset as u64);
            let bits = fregs[fs.num() as usize];
            mem.store(seq, addr, 8, bits);
            out.mem = Some(MemOp {
                is_store: true,
                addr,
                size: 8,
                value: bits,
            });
            retire(&out);
        }
        Inst::FAlu { op, fd, fs1, fs2 } => {
            let a = f64::from_bits(fregs[fs1.num() as usize]);
            let b = f64::from_bits(fregs[fs2.num() as usize]);
            let r = match op {
                FAluOp::Fadd => a + b,
                FAluOp::Fsub => a - b,
                FAluOp::Fmul => a * b,
                FAluOp::Fdiv => a / b,
                FAluOp::Fmin => a.min(b),
                FAluOp::Fmax => a.max(b),
            };
            out.wrote = set_f(fregs, fd, r.to_bits());
            retire(&out);
        }
        Inst::FMvToF { fd, rs1 } => {
            out.wrote = set_f(fregs, fd, x(regs, rs1));
            retire(&out);
        }
        Inst::FMvToX { rd, fs1 } => {
            out.wrote = set_x(regs, rd, fregs[fs1.num() as usize]);
            retire(&out);
        }
        Inst::Nop => retire(&out),
        Inst::Halt => {
            out.halted = true;
            retire(&out);
        }
    }
    out
}

/// Architectural machine state: registers, PC, and data memory.
#[derive(Clone, Debug)]
pub struct Machine {
    regs: [u64; NUM_INT_REGS],
    fregs: [u64; NUM_FP_REGS],
    pc: u64,
    mem: SpecMemory,
    program: Program,
    next_seq: u64,
    halted: bool,
}

impl Machine {
    /// Creates a machine at the program's base address with zeroed
    /// registers and the given data memory.
    pub fn new(program: Program, mem: SpecMemory) -> Machine {
        let pc = program.base();
        Machine {
            regs: [0; NUM_INT_REGS],
            fregs: [0; NUM_FP_REGS],
            pc,
            mem,
            program,
            next_seq: 1,
            halted: false,
        }
    }

    /// Current PC (address of the next instruction to execute).
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Overrides the PC (e.g., to start at an exported symbol).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Whether `Halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Sequence number the next [`Machine::step`] will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Reads an integer register.
    pub fn reg(&self, r: Reg) -> u64 {
        x(&self.regs, r)
    }

    /// Writes an integer register (writes to `x0` are ignored).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        set_x(&mut self.regs, r, v);
    }

    /// Reads a floating-point register as raw bits.
    pub fn freg_bits(&self, r: FReg) -> u64 {
        self.fregs[r.num() as usize]
    }

    /// Writes a floating-point register from raw bits.
    pub fn set_freg_bits(&mut self, r: FReg, bits: u64) {
        self.fregs[r.num() as usize] = bits;
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The data memory.
    pub fn mem(&self) -> &SpecMemory {
        &self.mem
    }

    /// Mutable access to the data memory (commit/squash bookkeeping is
    /// driven by the timing model).
    pub fn mem_mut(&mut self) -> &mut SpecMemory {
        &mut self.mem
    }

    /// A cheap fingerprint of architectural state: every register file
    /// entry, the PC, and the committed memory's write-generation
    /// counter, folded FNV-style.
    ///
    /// Two equal checksums bracketing a fabric Agent hook invocation
    /// certify the hook did not change architectural state — the PFM
    /// non-interference contract (observe retired stream, intervene
    /// microarchitecturally only). The timing core cross-checks this in
    /// debug builds around every hook call.
    pub fn arch_checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        };
        for &r in &self.regs {
            fold(r);
        }
        for &f in &self.fregs {
            fold(f);
        }
        fold(self.pc);
        fold(self.mem.committed().generation());
        h
    }

    /// Executes one instruction at the current PC against the
    /// speculative overlay: a store stays pending until the timing
    /// model commits it.
    ///
    /// # Errors
    /// Returns [`ExecError::Halted`] if the machine already halted, or
    /// [`ExecError::Program`] if the PC is outside the program.
    pub fn step(&mut self) -> Result<StepOut, ExecError> {
        if self.halted {
            return Err(ExecError::Halted);
        }
        let inst = self.program.fetch(self.pc)?;
        let out = execute(
            &mut self.regs,
            &mut self.fregs,
            &mut self.mem,
            self.next_seq,
            self.pc,
            inst,
            |_| {},
        );
        self.next_seq += 1;
        self.pc = out.next_pc;
        self.halted = out.halted;
        Ok(out)
    }

    /// Runs until `Halt` or `max_steps`, returning the number of
    /// instructions executed: the functional loop, with no timing model
    /// attached. It executes against the committed image, so every
    /// store takes effect at once.
    ///
    /// # Errors
    /// [`ExecError::Program`] if the PC leaves the program; state up
    /// to the faulting instruction is retained.
    ///
    /// # Panics
    /// Panics if the memory has unretired speculative stores.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, ExecError> {
        self.run_with(max_steps, |_| {})
    }

    /// [`Machine::run`], handing every retired record to `retire`.
    ///
    /// Always inlined, so the state `retire` updates stays in
    /// registers instead of behind the closure's captured pointers.
    #[inline(always)]
    pub(crate) fn run_with(
        &mut self,
        max_steps: u64,
        mut retire: impl FnMut(&StepOut),
    ) -> Result<u64, ExecError> {
        assert_eq!(
            self.mem.pending_stores(),
            0,
            "functional execution starts from committed state"
        );
        let mem = self.mem.committed_mut();
        let mut pc = self.pc;
        let mut halted = self.halted;
        let mut n = 0;
        let mut fault = None;
        while n < max_steps && !halted {
            // Read in place rather than copied out by `fetch`, so each
            // arm loads only the fields it uses.
            let Some(inst) = self.program.get(pc) else {
                fault = Some(ProgramError::BadPc(pc));
                break;
            };
            let out = execute(
                &mut self.regs,
                &mut self.fregs,
                mem,
                self.next_seq + n,
                pc,
                *inst,
                &mut retire,
            );
            pc = out.next_pc;
            halted = out.halted;
            n += 1;
        }
        self.pc = pc;
        self.next_seq += n;
        self.halted = halted;
        match fault {
            Some(e) => Err(e.into()),
            None => Ok(n),
        }
    }

    /// Serializes the architectural state — registers, PC, sequence
    /// counter, halt flag, data memory — as snapshot fields (no
    /// version header; [`Machine::snapshot`] adds it).
    ///
    /// The program itself is not serialized: it is immutable and
    /// identified by the run spec, so the decoder takes it as input.
    pub fn snapshot_encode(&self, e: &mut Enc) {
        for &r in &self.regs {
            e.u64(r);
        }
        for &f in &self.fregs {
            e.u64(f);
        }
        e.u64(self.pc);
        e.u64(self.next_seq);
        e.bool(self.halted);
        self.mem.snapshot_encode(e);
    }

    /// Reconstructs a machine serialized by
    /// [`Machine::snapshot_encode`] over `program`.
    ///
    /// # Errors
    /// Typed [`SnapError`] on truncated or invalid input.
    pub fn snapshot_decode(program: Program, d: &mut Dec<'_>) -> Result<Machine, SnapError> {
        let mut regs = [0u64; NUM_INT_REGS];
        for r in &mut regs {
            *r = d.u64()?;
        }
        if regs[0] != 0 {
            return Err(SnapError::Corrupt("x0 not zero"));
        }
        let mut fregs = [0u64; NUM_FP_REGS];
        for f in &mut fregs {
            *f = d.u64()?;
        }
        let pc = d.u64()?;
        let next_seq = d.u64()?;
        if next_seq == 0 {
            return Err(SnapError::Corrupt("sequence counter"));
        }
        let halted = d.bool()?;
        let mem = SpecMemory::snapshot_decode(d)?;
        Ok(Machine {
            regs,
            fregs,
            pc,
            mem,
            program,
            next_seq,
            halted,
        })
    }

    /// A standalone architectural snapshot: version header plus
    /// [`Machine::snapshot_encode`] fields.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut e = Enc::new();
        crate::snap::write_version(&mut e);
        self.snapshot_encode(&mut e);
        e.finish()
    }

    /// Restores a machine from [`Machine::snapshot`] bytes.
    ///
    /// # Errors
    /// Typed [`SnapError`] on version mismatch or invalid input.
    pub fn restore(program: Program, bytes: &[u8]) -> Result<Machine, SnapError> {
        let mut d = Dec::new(bytes);
        crate::snap::read_version(&mut d)?;
        let m = Machine::snapshot_decode(program, &mut d)?;
        d.finish()?;
        Ok(m)
    }
}

impl StepOut {
    /// Folds this retired instruction's architectural effects into the
    /// commit-stream checksum `h` (FNV-1a, seeded with
    /// [`FNV_OFFSET`]): PC, next PC, taken flag, destination write,
    /// store — in that order. Tags keep absent/present fields from
    /// aliasing (e.g. a store of 0 vs. no store). The detailed core and
    /// the functional loop both fold through here, so their checksums
    /// are equal exactly when they retired the same stream.
    #[inline(always)]
    pub fn fold_commit(&self, h: u64) -> u64 {
        let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(FNV_PRIME);
        let mut h = fold(h, self.pc);
        h = fold(h, self.next_pc);
        h = fold(h, u64::from(self.taken));
        h = match self.wrote {
            Some((reg, value)) => fold(fold(h, 1 + reg.index() as u64), value),
            None => fold(h, 0),
        };
        match self.mem {
            Some(m) if m.is_store => {
                let h = fold(fold(h, 1), m.addr);
                fold(fold(h, m.size), m.value)
            }
            _ => fold(h, 0),
        }
    }
}

fn extend(raw: u64, width: MemWidth, signed: bool) -> u64 {
    if !signed {
        return raw;
    }
    match width {
        MemWidth::B1 => raw as u8 as i8 as i64 as u64,
        MemWidth::B2 => raw as u16 as i16 as i64 as u64,
        MemWidth::B4 => raw as u32 as i32 as i64 as u64,
        MemWidth::B8 => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::inst::AluOp;
    use crate::reg::names::*;

    fn machine(f: impl FnOnce(&mut Asm)) -> Machine {
        let mut a = Asm::new(0x1000);
        f(&mut a);
        Machine::new(a.finish().unwrap(), SpecMemory::new())
    }

    #[test]
    fn arithmetic_loop_computes_sum() {
        // sum 1..=10
        let mut m = machine(|a| {
            let top = a.label();
            a.li(A0, 0);
            a.li(A1, 10);
            a.bind(top).unwrap();
            a.add(A0, A0, A1);
            a.addi(A1, A1, -1);
            a.bne(A1, X0, top);
            a.halt();
        });
        m.run(1000).unwrap();
        assert_eq!(m.reg(A0), 55);
        assert!(m.halted());
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut m = machine(|a| {
            a.li(A0, 0x8000);
            a.li(A1, -42);
            a.sd(A1, A0, 0);
            a.ld(A2, A0, 0);
            a.sw(A1, A0, 8);
            a.lw(A3, A0, 8); // sign-extended
            a.lwu(A4, A0, 8); // zero-extended
            a.halt();
        });
        m.run(1000).unwrap();
        assert_eq!(m.reg(A2) as i64, -42);
        assert_eq!(m.reg(A3) as i64, -42);
        assert_eq!(m.reg(A4), 0xFFFF_FFD6);
    }

    #[test]
    fn branch_taken_and_not_taken_reported() {
        let mut m = machine(|a| {
            let skip = a.label();
            a.li(A0, 1);
            a.beq(A0, X0, skip); // not taken
            a.bne(A0, X0, skip); // taken
            a.nop(); // skipped
            a.bind(skip).unwrap();
            a.halt();
        });
        let _li = m.step().unwrap();
        let beq = m.step().unwrap();
        assert!(!beq.taken);
        assert_eq!(beq.next_pc, beq.pc + 4);
        let bne = m.step().unwrap();
        assert!(bne.taken);
        assert_eq!(bne.next_pc, 0x1010);
    }

    #[test]
    fn call_and_return() {
        let mut m = machine(|a| {
            let func = a.label();
            a.call(func);
            a.halt();
            a.bind(func).unwrap();
            a.li(A0, 99);
            a.ret();
        });
        m.run(100).unwrap();
        assert_eq!(m.reg(A0), 99);
        assert!(m.halted());
    }

    #[test]
    fn step_records_seq_and_dest_values() {
        let mut m = machine(|a| {
            a.li(A0, 7);
            a.addi(A1, A0, 3);
            a.halt();
        });
        let s1 = m.step().unwrap();
        assert_eq!(s1.seq, 1);
        assert_eq!(s1.wrote, Some((A0.into(), 7)));
        let s2 = m.step().unwrap();
        assert_eq!(s2.seq, 2);
        assert_eq!(s2.wrote, Some((A1.into(), 10)));
    }

    #[test]
    fn stores_stay_speculative_until_committed() {
        let mut m = machine(|a| {
            a.li(A0, 0x9000);
            a.li(A1, 5);
            a.sd(A1, A0, 0);
            a.ld(A2, A0, 0);
            a.halt();
        });
        m.step().unwrap();
        m.step().unwrap();
        let st = m.step().unwrap();
        assert!(st.mem.unwrap().is_store);
        // Committed view does not see it yet; spec view does.
        assert_eq!(m.mem().read_committed(0x9000, 8), 0);
        let ld = m.step().unwrap();
        assert_eq!(ld.mem.unwrap().value, 5);
        m.mem_mut().commit_store(st.seq);
        assert_eq!(m.mem().read_committed(0x9000, 8), 5);
    }

    #[test]
    fn riscv_division_semantics() {
        assert_eq!(AluOp::Div.eval(7, 0), u64::MAX);
        assert_eq!(AluOp::Rem.eval(7, 0), 7);
        assert_eq!(
            AluOp::Div.eval(i64::MIN as u64, (-1i64) as u64),
            i64::MIN as u64
        );
        assert_eq!(AluOp::Rem.eval(i64::MIN as u64, (-1i64) as u64), 0);
        assert_eq!(AluOp::Divu.eval(7, 0), u64::MAX);
        assert_eq!(AluOp::Remu.eval(7, 0), 7);
    }

    #[test]
    fn fp_pipeline() {
        let mut m = machine(|a| {
            a.li(A0, 0x8000);
            a.li(A1, 2.5f64.to_bits() as i64);
            a.sd(A1, A0, 0);
            a.fld(FT0, A0, 0);
            a.fadd(FT1, FT0, FT0);
            a.fmul(FT2, FT1, FT0);
            a.fsd(FT2, A0, 8);
            a.halt();
        });
        m.run(100).unwrap();
        let bits = m.mem().read_committed(0x8008, 8);
        assert_eq!(f64::from_bits(bits), 12.5);
    }

    #[test]
    fn halt_stops_stepping() {
        let mut m = machine(|a| {
            a.halt();
        });
        let out = m.step().unwrap();
        assert!(out.halted);
        assert_eq!(m.step().unwrap_err(), ExecError::Halted);
    }

    #[test]
    fn x0_is_immutable() {
        let mut m = machine(|a| {
            a.li(X0, 42);
            a.addi(A0, X0, 1);
            a.halt();
        });
        m.run(10).unwrap();
        assert_eq!(m.reg(X0), 0);
        assert_eq!(m.reg(A0), 1);
    }

    #[test]
    fn bad_pc_is_reported() {
        let mut m = machine(|a| {
            a.nop();
        });
        m.step().unwrap();
        assert!(matches!(m.step().unwrap_err(), ExecError::Program(_)));
    }
}
