//! Program representation: a contiguous block of instructions in the PC
//! address space plus symbolic metadata.

use crate::inst::{Inst, INST_BYTES};
use std::collections::BTreeMap;

/// Errors produced while building or querying a [`Program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// The program counter does not map to an instruction slot.
    BadPc(u64),
    /// A named symbol was not defined.
    UnknownSymbol(String),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::BadPc(pc) => write!(f, "pc {pc:#x} is outside the program"),
            ProgramError::UnknownSymbol(s) => write!(f, "unknown symbol `{s}`"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// An assembled program.
///
/// Instructions live at consecutive addresses starting at
/// [`Program::base`], each occupying [`INST_BYTES`] bytes.
#[derive(Clone, Debug, Default)]
pub struct Program {
    base: u64,
    insts: Vec<Inst>,
    symbols: BTreeMap<String, u64>,
}

impl Program {
    /// Creates a program from raw parts.
    pub fn new(base: u64, insts: Vec<Inst>, symbols: BTreeMap<String, u64>) -> Program {
        Program {
            base,
            insts,
            symbols,
        }
    }

    /// First instruction address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.insts.len() as u64 * INST_BYTES
    }

    /// Fetches the instruction at `pc`.
    ///
    /// # Errors
    /// Returns [`ProgramError::BadPc`] if `pc` is unaligned or outside
    /// the program.
    #[inline]
    pub fn fetch(&self, pc: u64) -> Result<Inst, ProgramError> {
        match self.slot(pc) {
            Some(i) => Ok(self.insts[i]),
            None => Err(ProgramError::BadPc(pc)),
        }
    }

    /// The instruction at `pc` in place, or `None` where
    /// [`Program::fetch`] fails.
    #[inline]
    pub(crate) fn get(&self, pc: u64) -> Option<&Inst> {
        self.slot(pc).map(|i| &self.insts[i])
    }

    /// Index of `pc`'s instruction, if `pc` is aligned and inside the
    /// program. A `pc` below `base` wraps to an offset past the end.
    #[inline]
    fn slot(&self, pc: u64) -> Option<usize> {
        let off = pc.wrapping_sub(self.base);
        let idx = off / INST_BYTES;
        (off.is_multiple_of(INST_BYTES) && idx < self.insts.len() as u64).then_some(idx as usize)
    }

    /// All instructions, in address order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Looks up a named symbol (label address recorded by the
    /// assembler).
    ///
    /// # Errors
    /// Returns [`ProgramError::UnknownSymbol`] if the name was never
    /// exported.
    pub fn symbol(&self, name: &str) -> Result<u64, ProgramError> {
        self.symbols
            .get(name)
            .copied()
            .ok_or_else(|| ProgramError::UnknownSymbol(name.to_string()))
    }

    /// Like [`Program::symbol`], panicking when the symbol is missing.
    ///
    /// Kernel builders resolving symbols they just exported use this;
    /// absence there is a builder bug, not a runtime condition.
    ///
    /// # Panics
    /// Panics if `name` was never exported.
    pub fn require_symbol(&self, name: &str) -> u64 {
        match self.symbol(name) {
            Ok(v) => v,
            Err(e) => panic!("Program::require_symbol: {e}"),
        }
    }

    /// All exported symbols, in name order.
    pub fn symbols(&self) -> &BTreeMap<String, u64> {
        &self.symbols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    fn prog() -> Program {
        let mut syms = BTreeMap::new();
        syms.insert("start".to_string(), 0x1000);
        Program::new(0x1000, vec![Inst::Nop, Inst::Halt], syms)
    }

    #[test]
    fn fetch_in_range() {
        let p = prog();
        assert_eq!(p.fetch(0x1000).unwrap(), Inst::Nop);
        assert_eq!(p.fetch(0x1004).unwrap(), Inst::Halt);
        assert_eq!(p.len(), 2);
        assert_eq!(p.end(), 0x1008);
    }

    #[test]
    fn fetch_out_of_range_or_unaligned_errors() {
        let p = prog();
        assert_eq!(p.fetch(0xFFC), Err(ProgramError::BadPc(0xFFC)));
        assert_eq!(p.fetch(0x1008), Err(ProgramError::BadPc(0x1008)));
        assert_eq!(p.fetch(0x1002), Err(ProgramError::BadPc(0x1002)));
    }

    #[test]
    fn symbols_lookup() {
        let p = prog();
        assert_eq!(p.symbol("start").unwrap(), 0x1000);
        assert!(p.symbol("missing").is_err());
        assert!(!format!("{}", p.symbol("missing").unwrap_err()).is_empty());
    }
}
