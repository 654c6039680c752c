//! Miss Status Holding Registers: the mechanism that bounds memory-level
//! parallelism (MLP) and gives in-flight misses their residual latency.

use crate::cache::line_of;

/// One outstanding miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mshr {
    /// Line-aligned address of the miss.
    pub line: u64,
    /// Cycle at which the fill data arrives.
    pub ready: u64,
}

/// A file of MSHRs with lazy expiry.
///
/// ```
/// use pfm_mem::mshr::MshrFile;
/// let mut m = MshrFile::new(2);
/// m.expire(0);
/// assert!(m.alloc(0x1000, 100).is_ok());
/// assert_eq!(m.lookup(0x1000), Some(100));
/// assert_eq!(m.lookup(0x1040), None);
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile {
    entries: Vec<Mshr>,
    capacity: usize,
    /// The smallest `ready` of `entries` (`u64::MAX` when empty): the
    /// first cycle [`MshrFile::expire`] has anything to drop.
    earliest: u64,
    /// Total allocations that found the file full.
    pub full_stalls: u64,
    /// Accesses that merged into an existing entry.
    pub merges: u64,
}

impl MshrFile {
    /// Creates an empty file with `capacity` registers.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            earliest: u64::MAX,
            full_stalls: 0,
            merges: 0,
        }
    }

    /// Drops entries whose data has arrived by `cycle`.
    pub fn expire(&mut self, cycle: u64) {
        if cycle < self.earliest {
            return;
        }
        self.entries.retain(|e| e.ready > cycle);
        self.earliest = self.min_ready();
    }

    /// The smallest `ready` by a scan (`u64::MAX` when empty).
    fn min_ready(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.ready)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Ready cycle of the in-flight miss covering `addr`'s line, if any.
    /// Records a merge when found.
    pub fn lookup(&mut self, addr: u64) -> Option<u64> {
        let line = line_of(addr);
        let hit = self
            .entries
            .iter()
            .find(|e| e.line == line)
            .map(|e| e.ready);
        if hit.is_some() {
            self.merges += 1;
        }
        hit
    }

    /// Non-mutating variant of [`MshrFile::lookup`] (no merge counted).
    pub fn peek(&self, addr: u64) -> Option<u64> {
        let line = line_of(addr);
        self.entries
            .iter()
            .find(|e| e.line == line)
            .map(|e| e.ready)
    }

    /// Allocates an entry for `addr`'s line.
    ///
    /// # Errors
    /// Returns the earliest cycle at which an entry frees when full; the
    /// caller should retry (or charge the wait).
    pub fn alloc(&mut self, addr: u64, ready: u64) -> Result<(), u64> {
        if self.entries.len() >= self.capacity {
            self.full_stalls += 1;
            return Err(self.earliest);
        }
        self.entries.push(Mshr {
            line: line_of(addr),
            ready,
        });
        self.earliest = self.earliest.min(ready);
        debug_assert_eq!(
            self.earliest,
            self.min_ready(),
            "cached earliest ready diverged"
        );
        Ok(())
    }

    /// Number of misses currently in flight.
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// Whether a new miss can be accepted.
    pub fn has_free(&self) -> bool {
        self.entries.len() < self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_lookup_by_line() {
        let mut m = MshrFile::new(4);
        m.alloc(0x1008, 50).unwrap();
        assert_eq!(m.lookup(0x1000), Some(50)); // same line
        assert_eq!(m.lookup(0x1039), Some(50)); // same line
        assert_eq!(m.lookup(0x1040), None); // next line
        assert_eq!(m.merges, 2);
    }

    #[test]
    fn expiry_frees_entries() {
        let mut m = MshrFile::new(1);
        m.alloc(0x0, 10).unwrap();
        assert!(!m.has_free());
        m.expire(9);
        assert!(!m.has_free());
        m.expire(10);
        assert!(m.has_free());
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn full_file_reports_earliest_ready() {
        let mut m = MshrFile::new(2);
        m.alloc(0x000, 30).unwrap();
        m.alloc(0x040, 20).unwrap();
        assert_eq!(m.alloc(0x080, 40), Err(20));
        assert_eq!(m.full_stalls, 1);
    }

    #[test]
    fn cached_earliest_tracks_allocs_and_expiry() {
        let mut m = MshrFile::new(3);
        m.alloc(0x000, 30).unwrap();
        m.alloc(0x040, 20).unwrap();
        m.alloc(0x080, 25).unwrap();
        assert_eq!(m.alloc(0x0c0, 99), Err(20));
        // Nothing is due before cycle 20.
        m.expire(19);
        assert_eq!(m.in_flight(), 3);
        m.expire(20);
        assert_eq!(m.in_flight(), 2);
        assert_eq!(m.alloc(0x0c0, 99), Ok(()));
        assert_eq!(m.alloc(0x100, 99), Err(25));
        m.expire(99);
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.alloc(0x100, 120), Ok(()));
        assert_eq!(m.peek(0x100), Some(120));
    }

    #[test]
    fn peek_does_not_count_merge() {
        let mut m = MshrFile::new(2);
        m.alloc(0x000, 30).unwrap();
        assert_eq!(m.peek(0x000), Some(30));
        assert_eq!(m.merges, 0);
    }
}
