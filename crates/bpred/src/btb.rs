//! Branch target buffer and return address stack.
//!
//! The functional-first core knows decoded targets at fetch, so the BTB
//! primarily models target-capacity effects for indirect jumps; the RAS
//! predicts return targets.

/// Kind of control-transfer instruction recorded in the BTB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BranchKind {
    /// Conditional branch.
    Conditional,
    /// Direct unconditional jump (`jal`).
    DirectJump,
    /// Call (`jal` linking `ra`).
    Call,
    /// Return (`jalr` via `ra`).
    Return,
    /// Other indirect jump.
    IndirectJump,
}

/// Direct-mapped branch target buffer.
#[derive(Clone, Debug)]
pub struct Btb {
    entries: Vec<Option<(u64, u64, BranchKind)>>, // (pc, target, kind)
    mask: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
}

impl Btb {
    /// Creates a BTB with `1 << log_entries` entries.
    pub fn new(log_entries: u32) -> Btb {
        Btb {
            entries: vec![None; 1 << log_entries],
            mask: (1 << log_entries) - 1,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn idx(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Looks up the predicted target and kind for `pc`.
    #[inline]
    pub fn lookup(&mut self, pc: u64) -> Option<(u64, BranchKind)> {
        let i = self.idx(pc);
        match self.entries[i] {
            Some((tag, target, kind)) if tag == pc => {
                self.hits += 1;
                Some((target, kind))
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Installs or updates the entry for `pc`.
    #[inline]
    pub fn update(&mut self, pc: u64, target: u64, kind: BranchKind) {
        let i = self.idx(pc);
        self.entries[i] = Some((pc, target, kind));
    }
}

impl Default for Btb {
    fn default() -> Btb {
        Btb::new(12)
    }
}

/// Return address stack with a fixed depth (overflow wraps, as in real
/// hardware).
#[derive(Clone, Debug)]
pub struct Ras {
    stack: Vec<u64>,
    top: usize,
    depth: usize,
    used: usize,
}

impl Ras {
    /// Creates a RAS with `depth` entries.
    ///
    /// # Panics
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Ras {
        assert!(depth > 0, "RAS needs at least one entry");
        Ras {
            stack: vec![0; depth],
            top: 0,
            depth,
            used: 0,
        }
    }

    /// Pushes a return address (on call).
    #[inline]
    pub fn push(&mut self, addr: u64) {
        self.top = (self.top + 1) % self.depth;
        self.stack[self.top] = addr;
        self.used = (self.used + 1).min(self.depth);
    }

    /// Pops the predicted return target (on return). Returns `None`
    /// when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        if self.used == 0 {
            return None;
        }
        let v = self.stack[self.top];
        self.top = (self.top + self.depth - 1) % self.depth;
        self.used -= 1;
        Some(v)
    }

    /// Snapshot for squash recovery.
    #[inline]
    pub fn snapshot(&self) -> (usize, usize) {
        (self.top, self.used)
    }

    /// Restores a snapshot (approximate recovery: contents may have
    /// been overwritten on deep wrong-path call chains, as in
    /// hardware).
    #[inline]
    pub fn restore(&mut self, snap: (usize, usize)) {
        self.top = snap.0;
        self.used = snap.1;
    }
}

impl Default for Ras {
    fn default() -> Ras {
        Ras::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btb_miss_then_hit() {
        let mut b = Btb::new(6);
        assert!(b.lookup(0x1000).is_none());
        b.update(0x1000, 0x2000, BranchKind::DirectJump);
        assert_eq!(b.lookup(0x1000), Some((0x2000, BranchKind::DirectJump)));
        assert_eq!(b.hits, 1);
        assert_eq!(b.misses, 1);
    }

    #[test]
    fn btb_aliasing_replaces() {
        let mut b = Btb::new(2); // 4 entries; pcs 16 bytes apart alias
        b.update(0x1000, 0xA, BranchKind::Call);
        b.update(0x1010, 0xB, BranchKind::Call); // same index, different tag
        assert!(b.lookup(0x1000).is_none());
        assert_eq!(b.lookup(0x1010), Some((0xB, BranchKind::Call)));
    }

    #[test]
    fn ras_lifo_order() {
        let mut r = Ras::new(8);
        r.push(0x100);
        r.push(0x200);
        assert_eq!(r.pop(), Some(0x200));
        assert_eq!(r.pop(), Some(0x100));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_snapshot_restore() {
        let mut r = Ras::new(8);
        r.push(0x100);
        let snap = r.snapshot();
        r.push(0x200);
        r.pop();
        r.pop();
        r.restore(snap);
        assert_eq!(r.pop(), Some(0x100));
    }

    #[test]
    fn ras_overflow_wraps() {
        let mut r = Ras::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }
}
