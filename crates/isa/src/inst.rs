//! Instruction definitions and static decode information.
//!
//! The ISA is a compact RV64-flavoured instruction set: 64-bit integer
//! ALU operations, loads/stores of 1/2/4/8 bytes, conditional branches,
//! jumps, and double-precision floating-point arithmetic. Every
//! instruction occupies 4 bytes of the instruction address space so the
//! program counter advances by [`INST_BYTES`] per instruction.

use crate::reg::{FReg, Reg, RegRef};
use core::fmt;

/// Size in bytes of one instruction slot in the PC address space.
pub const INST_BYTES: u64 = 4;

/// Integer ALU operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Logical shift left.
    Sll,
    /// Set-less-than (signed).
    Slt,
    /// Set-less-than (unsigned).
    Sltu,
    /// Bitwise exclusive-or.
    Xor,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
    /// Multiplication (low 64 bits).
    Mul,
    /// Division (signed, RISC-V semantics: x/0 == -1).
    Div,
    /// Division (unsigned, RISC-V semantics: x/0 == u64::MAX).
    Divu,
    /// Remainder (signed, RISC-V semantics: x%0 == x).
    Rem,
    /// Remainder (unsigned, RISC-V semantics: x%0 == x).
    Remu,
}

impl AluOp {
    /// Whether this operation executes on the FP/complex lanes
    /// (multi-cycle multiply/divide) rather than the simple ALU lanes.
    pub fn is_complex(self) -> bool {
        matches!(
            self,
            AluOp::Mul | AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu
        )
    }

    /// Evaluates the operation over two 64-bit operand values with the
    /// machine's exact semantics (wrapping arithmetic, shift amounts
    /// masked to 6 bits, RISC-V divide-by-zero/overflow results). Both
    /// executors and the static constant-propagation analysis fold
    /// through this single definition, so they cannot drift apart.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl((b & 63) as u32),
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sltu => (a < b) as u64,
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr((b & 63) as u32),
            AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            AluOp::Or => a | b,
            AluOp::And => a & b,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else if (a as i64) == i64::MIN && (b as i64) == -1 {
                    a
                } else {
                    ((a as i64) / (b as i64)) as u64
                }
            }
            AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::Rem => {
                if b == 0 {
                    a
                } else if (a as i64) == i64::MIN && (b as i64) == -1 {
                    0
                } else {
                    ((a as i64) % (b as i64)) as u64
                }
            }
            AluOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }
}

/// Double-precision floating-point ALU operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FAluOp {
    /// Addition.
    Fadd,
    /// Subtraction.
    Fsub,
    /// Multiplication.
    Fmul,
    /// Division.
    Fdiv,
    /// Minimum.
    Fmin,
    /// Maximum.
    Fmax,
}

/// Conditional branch condition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less-than (signed).
    Lt,
    /// Greater-or-equal (signed).
    Ge,
    /// Less-than (unsigned).
    Ltu,
    /// Greater-or-equal (unsigned).
    Geu,
}

impl BranchCond {
    /// Evaluates the condition over two source register values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// Memory access width in bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemWidth {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl MemWidth {
    /// Width in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

/// A single instruction.
///
/// Branch and jump targets are absolute byte addresses in the PC space
/// (the assembler resolves labels to these).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Inst {
    /// Register-register integer ALU operation: `rd = rs1 op rs2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Register-immediate integer ALU operation: `rd = rs1 op imm`.
    AluImm {
        /// Operation (shift amounts use the low 6 bits of `imm`).
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// Load a full 64-bit immediate: `rd = imm`.
    Li {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Integer load: `rd = mem[rs1 + offset]`.
    Load {
        /// Access width.
        width: MemWidth,
        /// Sign-extend the loaded value.
        signed: bool,
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed displacement.
        offset: i64,
    },
    /// Integer store: `mem[rs1 + offset] = src`.
    Store {
        /// Access width.
        width: MemWidth,
        /// Value register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed displacement.
        offset: i64,
    },
    /// Conditional branch: `if cond(rs1, rs2) pc = target`.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
        /// Absolute target address.
        target: u64,
    },
    /// Unconditional jump with link: `rd = pc+4; pc = target`.
    Jal {
        /// Link destination (use `x0` for a plain jump).
        rd: Reg,
        /// Absolute target address.
        target: u64,
    },
    /// Indirect jump with link: `rd = pc+4; pc = (base + offset) & !1`.
    Jalr {
        /// Link destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed displacement.
        offset: i64,
    },
    /// Floating-point load (8 bytes): `fd = mem[base + offset]`.
    FLoad {
        /// Destination.
        fd: FReg,
        /// Base address register.
        base: Reg,
        /// Signed displacement.
        offset: i64,
    },
    /// Floating-point store (8 bytes): `mem[base + offset] = fs`.
    FStore {
        /// Value register.
        fs: FReg,
        /// Base address register.
        base: Reg,
        /// Signed displacement.
        offset: i64,
    },
    /// Floating-point ALU operation: `fd = fs1 op fs2`.
    FAlu {
        /// Operation.
        op: FAluOp,
        /// Destination.
        fd: FReg,
        /// First source.
        fs1: FReg,
        /// Second source.
        fs2: FReg,
    },
    /// Move integer register bits into an FP register.
    FMvToF {
        /// Destination.
        fd: FReg,
        /// Source.
        rs1: Reg,
    },
    /// Move FP register bits into an integer register.
    FMvToX {
        /// Destination.
        rd: Reg,
        /// Source.
        fs1: FReg,
    },
    /// No operation.
    Nop,
    /// Stop the simulation; the machine reports `halted`.
    Halt,
}

/// Execution class of an instruction, used for lane steering and latency.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExecClass {
    /// Simple single-cycle integer ALU operation.
    SimpleAlu,
    /// Multi-cycle integer (mul/div) or floating-point operation.
    Complex,
    /// Memory load (integer or FP).
    Load,
    /// Memory store (integer or FP).
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional direct or indirect jump.
    Jump,
    /// No-op / halt (uses a simple ALU slot).
    Other,
}

/// Statically-decoded control-transfer target of an instruction.
///
/// Distinguishes "no control transfer at all" from "a transfer whose
/// target is not statically known" — a distinction [`Inst::direct_target`]
/// cannot express (it returns `None` for both), which matters to CFG
/// construction: an indirect jump must become an explicit unknown edge,
/// not silently disappear.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ControlTarget {
    /// Not a control-transfer instruction; execution falls through.
    None,
    /// Direct transfer to a statically-known absolute address
    /// (the taken path of a conditional branch, or a `jal`).
    Direct(u64),
    /// Indirect transfer (`jalr`): the target is a register value and
    /// cannot be resolved statically.
    Indirect,
}

/// Statically-decoded shape of a memory access: the `base + offset`
/// address expression plus width and direction, uniform across the
/// integer and FP load/store forms. Static analyses walk address
/// expressions through this instead of matching four `Inst` variants.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemAccess {
    /// Base address register.
    pub base: Reg,
    /// Signed displacement added to the base.
    pub offset: i64,
    /// Access width (FP accesses are always 8 bytes).
    pub width: MemWidth,
    /// Whether the access writes memory.
    pub is_store: bool,
    /// The register whose value a store writes (`None` for loads; the
    /// loaded destination is in [`InstInfo::dst`]).
    pub value: Option<RegRef>,
}

/// Static decode information for an instruction.
#[derive(Clone, Copy, Debug)]
pub struct InstInfo {
    /// Up to two register sources.
    pub srcs: [Option<RegRef>; 2],
    /// Destination register, if any.
    pub dst: Option<RegRef>,
    /// Execution class.
    pub class: ExecClass,
    /// Whether this is a conditional branch.
    pub is_cond_branch: bool,
    /// Whether this is a control-transfer instruction of any kind.
    pub is_control: bool,
    /// Whether this instruction accesses memory.
    pub is_mem: bool,
    /// Execution latency in cycles once issued (address generation and
    /// cache access are additional for memory operations).
    pub latency: u32,
}

impl Inst {
    /// Computes the static decode information for this instruction.
    #[inline]
    pub fn info(&self) -> InstInfo {
        use Inst::*;
        let none = [None, None];
        let mk =
            |srcs: [Option<RegRef>; 2], dst: Option<RegRef>, class: ExecClass, lat: u32| InstInfo {
                srcs,
                dst,
                class,
                is_cond_branch: matches!(class, ExecClass::Branch),
                is_control: matches!(class, ExecClass::Branch | ExecClass::Jump),
                is_mem: matches!(class, ExecClass::Load | ExecClass::Store),
                latency: lat,
            };
        match *self {
            Alu { op, rd, rs1, rs2 } => {
                let class = if op.is_complex() {
                    ExecClass::Complex
                } else {
                    ExecClass::SimpleAlu
                };
                let lat = match op {
                    AluOp::Mul => 3,
                    AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => 12,
                    _ => 1,
                };
                mk(
                    [Some(rs1.into()), Some(rs2.into())],
                    dst_int(rd),
                    class,
                    lat,
                )
            }
            AluImm { op, rd, rs1, .. } => {
                let class = if op.is_complex() {
                    ExecClass::Complex
                } else {
                    ExecClass::SimpleAlu
                };
                let lat = match op {
                    AluOp::Mul => 3,
                    AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => 12,
                    _ => 1,
                };
                mk([Some(rs1.into()), None], dst_int(rd), class, lat)
            }
            Li { rd, .. } => mk(none, dst_int(rd), ExecClass::SimpleAlu, 1),
            Load { rd, base, .. } => mk([Some(base.into()), None], dst_int(rd), ExecClass::Load, 1),
            Store { src, base, .. } => mk(
                [Some(base.into()), Some(src.into())],
                None,
                ExecClass::Store,
                1,
            ),
            Branch { rs1, rs2, .. } => mk(
                [Some(rs1.into()), Some(rs2.into())],
                None,
                ExecClass::Branch,
                1,
            ),
            Jal { rd, .. } => mk(none, dst_int(rd), ExecClass::Jump, 1),
            Jalr { rd, base, .. } => mk([Some(base.into()), None], dst_int(rd), ExecClass::Jump, 1),
            FLoad { fd, base, .. } => mk(
                [Some(base.into()), None],
                Some(fd.into()),
                ExecClass::Load,
                1,
            ),
            FStore { fs, base, .. } => mk(
                [Some(base.into()), Some(fs.into())],
                None,
                ExecClass::Store,
                1,
            ),
            FAlu { op, fd, fs1, fs2 } => {
                let lat = match op {
                    FAluOp::Fadd | FAluOp::Fsub => 3,
                    FAluOp::Fmul => 4,
                    FAluOp::Fdiv => 12,
                    FAluOp::Fmin | FAluOp::Fmax => 2,
                };
                mk(
                    [Some(fs1.into()), Some(fs2.into())],
                    Some(fd.into()),
                    ExecClass::Complex,
                    lat,
                )
            }
            FMvToF { fd, rs1 } => mk(
                [Some(rs1.into()), None],
                Some(fd.into()),
                ExecClass::Complex,
                1,
            ),
            FMvToX { rd, fs1 } => mk([Some(fs1.into()), None], dst_int(rd), ExecClass::Complex, 1),
            Nop | Halt => mk(none, None, ExecClass::Other, 1),
        }
    }

    /// Whether the instruction is a conditional branch.
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// Whether the instruction is a store (integer or FP).
    #[inline]
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::FStore { .. })
    }

    /// Whether the instruction is a load (integer or FP).
    #[inline]
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::FLoad { .. })
    }

    /// Statically-known direct target for branches and `jal`, if any.
    ///
    /// Returns `None` for both non-control instructions *and* indirect
    /// jumps; callers that must tell those apart (CFG construction)
    /// should use [`Inst::control_target`] instead.
    #[inline]
    pub fn direct_target(&self) -> Option<u64> {
        match self.control_target() {
            ControlTarget::Direct(t) => Some(t),
            _ => None,
        }
    }

    /// The control-transfer target of this instruction, with `jalr`
    /// reported as an explicit [`ControlTarget::Indirect`] case rather
    /// than folded into "no target".
    #[inline]
    pub fn control_target(&self) -> ControlTarget {
        match *self {
            Inst::Branch { target, .. } | Inst::Jal { target, .. } => ControlTarget::Direct(target),
            Inst::Jalr { .. } => ControlTarget::Indirect,
            _ => ControlTarget::None,
        }
    }

    /// The memory access this instruction performs, if any, in the
    /// uniform [`MemAccess`] shape.
    #[inline]
    pub fn mem_access(&self) -> Option<MemAccess> {
        match *self {
            Inst::Load {
                width,
                base,
                offset,
                ..
            } => Some(MemAccess {
                base,
                offset,
                width,
                is_store: false,
                value: None,
            }),
            Inst::Store {
                width,
                src,
                base,
                offset,
            } => Some(MemAccess {
                base,
                offset,
                width,
                is_store: true,
                value: Some(src.into()),
            }),
            Inst::FLoad { base, offset, .. } => Some(MemAccess {
                base,
                offset,
                width: MemWidth::B8,
                is_store: false,
                value: None,
            }),
            Inst::FStore { fs, base, offset } => Some(MemAccess {
                base,
                offset,
                width: MemWidth::B8,
                is_store: true,
                value: Some(fs.into()),
            }),
            _ => None,
        }
    }

    /// Condition, operand registers and taken target of a conditional
    /// branch, or `None` for anything else.
    #[inline]
    pub fn cond_branch_parts(&self) -> Option<(BranchCond, Reg, Reg, u64)> {
        match *self {
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => Some((cond, rs1, rs2, target)),
            _ => None,
        }
    }

    /// Whether this instruction is a function return in the assembler's
    /// calling convention: `jalr x0, 0(ra)` (see `Asm::ret`). CFG
    /// construction treats returns differently from arbitrary indirect
    /// jumps (edges to every call's return site instead of unknown).
    #[inline]
    pub fn is_ret(&self) -> bool {
        matches!(
            self,
            Inst::Jalr { rd, base, offset: 0 } if rd.is_zero() && *base == Reg::RA
        )
    }
}

fn dst_int(rd: Reg) -> Option<RegRef> {
    if rd.is_zero() {
        None
    } else {
        Some(rd.into())
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Inst::*;
        match *self {
            Alu { op, rd, rs1, rs2 } => write!(f, "{op:?} {rd}, {rs1}, {rs2}"),
            AluImm { op, rd, rs1, imm } => write!(f, "{op:?}i {rd}, {rs1}, {imm}"),
            Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Load {
                width,
                signed,
                rd,
                base,
                offset,
            } => {
                write!(
                    f,
                    "l{}{} {rd}, {offset}({base})",
                    width.bytes(),
                    if signed { "" } else { "u" }
                )
            }
            Store {
                width,
                src,
                base,
                offset,
            } => {
                write!(f, "s{} {src}, {offset}({base})", width.bytes())
            }
            Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                write!(f, "b{cond:?} {rs1}, {rs2}, {target:#x}")
            }
            Jal { rd, target } => write!(f, "jal {rd}, {target:#x}"),
            Jalr { rd, base, offset } => write!(f, "jalr {rd}, {offset}({base})"),
            FLoad { fd, base, offset } => write!(f, "fld {fd}, {offset}({base})"),
            FStore { fs, base, offset } => write!(f, "fsd {fs}, {offset}({base})"),
            FAlu { op, fd, fs1, fs2 } => write!(f, "{op:?} {fd}, {fs1}, {fs2}"),
            FMvToF { fd, rs1 } => write!(f, "fmv.d.x {fd}, {rs1}"),
            FMvToX { rd, fs1 } => write!(f, "fmv.x.d {rd}, {fs1}"),
            Nop => write!(f, "nop"),
            Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;

    #[test]
    fn alu_info_simple_vs_complex() {
        let add = Inst::Alu {
            op: AluOp::Add,
            rd: A0,
            rs1: A1,
            rs2: A2,
        };
        assert_eq!(add.info().class, ExecClass::SimpleAlu);
        assert_eq!(add.info().latency, 1);
        let mul = Inst::Alu {
            op: AluOp::Mul,
            rd: A0,
            rs1: A1,
            rs2: A2,
        };
        assert_eq!(mul.info().class, ExecClass::Complex);
        assert_eq!(mul.info().latency, 3);
        let div = Inst::Alu {
            op: AluOp::Div,
            rd: A0,
            rs1: A1,
            rs2: A2,
        };
        assert_eq!(div.info().latency, 12);
    }

    #[test]
    fn x0_destination_is_discarded() {
        let i = Inst::AluImm {
            op: AluOp::Add,
            rd: X0,
            rs1: A0,
            imm: 1,
        };
        assert!(i.info().dst.is_none());
        let j = Inst::Jal {
            rd: X0,
            target: 0x1000,
        };
        assert!(j.info().dst.is_none());
    }

    #[test]
    fn branch_info() {
        let b = Inst::Branch {
            cond: BranchCond::Eq,
            rs1: A0,
            rs2: X0,
            target: 0x1000,
        };
        let info = b.info();
        assert!(info.is_cond_branch);
        assert!(info.is_control);
        assert!(!info.is_mem);
        assert_eq!(info.class, ExecClass::Branch);
        assert_eq!(b.direct_target(), Some(0x1000));
    }

    #[test]
    fn load_store_info() {
        let ld = Inst::Load {
            width: MemWidth::B8,
            signed: true,
            rd: A0,
            base: A1,
            offset: 8,
        };
        assert!(ld.info().is_mem);
        assert!(ld.is_load());
        assert!(!ld.is_store());
        let st = Inst::Store {
            width: MemWidth::B4,
            src: A0,
            base: A1,
            offset: -4,
        };
        assert!(st.info().is_mem);
        assert!(st.is_store());
        assert!(st.info().dst.is_none());
        // Store sources: base and data.
        assert_eq!(st.info().srcs.iter().flatten().count(), 2);
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Eq.eval(3, 3));
        assert!(BranchCond::Ne.eval(3, 4));
        assert!(BranchCond::Lt.eval((-1i64) as u64, 0));
        assert!(!BranchCond::Ltu.eval((-1i64) as u64, 0));
        assert!(BranchCond::Ge.eval(0, (-5i64) as u64));
        assert!(BranchCond::Geu.eval(u64::MAX, 5));
    }

    #[test]
    fn fp_ops_are_complex() {
        let fa = Inst::FAlu {
            op: FAluOp::Fadd,
            fd: FT0,
            fs1: FT1,
            fs2: FT2,
        };
        assert_eq!(fa.info().class, ExecClass::Complex);
        assert_eq!(fa.info().latency, 3);
        let fd = Inst::FAlu {
            op: FAluOp::Fdiv,
            fd: FT0,
            fs1: FT1,
            fs2: FT2,
        };
        assert_eq!(fd.info().latency, 12);
    }

    #[test]
    fn control_target_separates_indirect_from_none() {
        let b = Inst::Branch {
            cond: BranchCond::Ne,
            rs1: A0,
            rs2: X0,
            target: 0x40,
        };
        assert_eq!(b.control_target(), ControlTarget::Direct(0x40));
        let j = Inst::Jal {
            rd: X0,
            target: 0x80,
        };
        assert_eq!(j.control_target(), ControlTarget::Direct(0x80));
        let jr = Inst::Jalr {
            rd: X0,
            base: A0,
            offset: 0,
        };
        // The load-bearing distinction: an indirect jump is *not* the
        // same as "no control transfer", even though both have no
        // statically-known direct target.
        assert_eq!(jr.control_target(), ControlTarget::Indirect);
        assert_eq!(jr.direct_target(), None);
        assert_eq!(Inst::Nop.control_target(), ControlTarget::None);
        assert_eq!(Inst::Nop.direct_target(), None);
    }

    #[test]
    fn ret_is_recognised_by_shape() {
        let ret = Inst::Jalr {
            rd: X0,
            base: RA,
            offset: 0,
        };
        assert!(ret.is_ret());
        // Computed jumps and offset returns are plain indirect jumps.
        let tail = Inst::Jalr {
            rd: X0,
            base: A0,
            offset: 0,
        };
        assert!(!tail.is_ret());
        let link = Inst::Jalr {
            rd: RA,
            base: RA,
            offset: 0,
        };
        assert!(!link.is_ret());
        let off = Inst::Jalr {
            rd: X0,
            base: RA,
            offset: 8,
        };
        assert!(!off.is_ret());
    }

    #[test]
    fn mem_access_uniform_shape() {
        let ld = Inst::Load {
            width: MemWidth::B4,
            signed: false,
            rd: A0,
            base: A1,
            offset: 8,
        };
        let m = ld.mem_access().unwrap();
        assert_eq!(
            (m.base, m.offset, m.width, m.is_store),
            (A1, 8, MemWidth::B4, false)
        );
        assert!(m.value.is_none());
        let st = Inst::Store {
            width: MemWidth::B8,
            src: A2,
            base: SP,
            offset: -16,
        };
        let m = st.mem_access().unwrap();
        assert!(m.is_store);
        assert_eq!(m.value, Some(A2.into()));
        let fs = Inst::FStore {
            fs: FT0,
            base: A1,
            offset: 0,
        };
        let m = fs.mem_access().unwrap();
        assert_eq!(m.width, MemWidth::B8, "FP accesses are 8 bytes");
        assert_eq!(m.value, Some(FT0.into()));
        assert!(Inst::Nop.mem_access().is_none());
        assert!(Inst::Halt.mem_access().is_none());
    }

    #[test]
    fn cond_branch_parts_roundtrip() {
        let b = Inst::Branch {
            cond: BranchCond::Geu,
            rs1: A3,
            rs2: A2,
            target: 0x2000,
        };
        assert_eq!(
            b.cond_branch_parts(),
            Some((BranchCond::Geu, A3, A2, 0x2000))
        );
        assert!(Inst::Nop.cond_branch_parts().is_none());
        assert!(Inst::Jal { rd: X0, target: 0 }
            .cond_branch_parts()
            .is_none());
    }

    #[test]
    fn alu_eval_machine_semantics() {
        assert_eq!(AluOp::Add.eval(u64::MAX, 1), 0, "wrapping add");
        assert_eq!(AluOp::Sll.eval(1, 64), 1, "shift amount masked to 6 bits");
        assert_eq!(AluOp::Sra.eval((-8i64) as u64, 2), (-2i64) as u64);
        assert_eq!(AluOp::Div.eval(7, 0), u64::MAX);
        assert_eq!(
            AluOp::Div.eval(i64::MIN as u64, (-1i64) as u64),
            i64::MIN as u64
        );
        assert_eq!(AluOp::Rem.eval(7, 0), 7);
        assert_eq!(AluOp::Remu.eval(7, 0), 7);
        assert_eq!(AluOp::Mul.eval(1 << 63, 2), 0, "wrapping mul");
    }

    #[test]
    fn memwidth_bytes() {
        assert_eq!(MemWidth::B1.bytes(), 1);
        assert_eq!(MemWidth::B2.bytes(), 2);
        assert_eq!(MemWidth::B4.bytes(), 4);
        assert_eq!(MemWidth::B8.bytes(), 8);
    }

    #[test]
    fn display_is_never_empty() {
        let insts = [
            Inst::Nop,
            Inst::Halt,
            Inst::Li { rd: A0, imm: -3 },
            Inst::Jalr {
                rd: RA,
                base: A0,
                offset: 0,
            },
        ];
        for i in insts {
            assert!(!format!("{i}").is_empty());
        }
    }
}
