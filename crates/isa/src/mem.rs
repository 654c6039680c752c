//! Data memory: a sparse paged byte store plus a speculative store
//! overlay.
//!
//! The simulator executes correct-path instructions functionally at
//! fetch ("functional-first"), but stores must not become
//! architecturally visible until they retire: the PFM Load Agent issues
//! loads on behalf of the reconfigurable fabric that, per the paper,
//! *do not search the store queue* and therefore see only committed
//! state. [`SpecMemory`] models this split:
//!
//! * speculative writes go into a per-word overlay tagged with the
//!   store's program-order sequence number,
//! * core loads read overlay-then-committed (correct, because the
//!   functional stream is executed in program order),
//! * fabric loads read only the committed image,
//! * at store retirement the overlay entry is folded into the committed
//!   image; on a pipeline squash younger overlay entries are dropped.
//!
//! ## Fast-path invariants
//!
//! Both structures sit on the simulator's hottest path (one or more
//! accesses per simulated load/store), so they avoid hashing wherever
//! possible:
//!
//! * [`SparseMem`] stores pages in an arena (`Vec<Box<page>>`) with a
//!   hash index from page number to arena slot, plus a one-entry
//!   *last-page cache* of the most recent slot. The cache holds arena
//!   indices, not pointers, so it stays valid across `Clone` and map
//!   growth; pages are never deallocated, so a cached slot can go stale
//!   only by pointing at the wrong page number, which the tag compare
//!   catches.
//! * Aligned-in-page accesses (any access that does not cross a 4 KiB
//!   boundary — all 1/2/4/8-byte accesses with natural alignment, and
//!   most without) take a single page lookup instead of one per byte.
//! * `generation` counts *bytes written*, exactly as if every write
//!   were byte-at-a-time; the multi-byte fast paths bump it by the
//!   access size so the core's `checked_hook!` non-interference
//!   bracketing observes identical values on either path.
//! * The overlay is keyed by aligned 8-byte word with per-entry lane
//!   masks. Entries in a word's stack are in program (seq) order:
//!   reads apply oldest→youngest so the youngest byte wins, commits
//!   take the stack front (commit is oldest-first), squashes pop the
//!   stack back (squash is youngest-first) — the same order contract
//!   the old per-byte stacks had, at one lookup per word instead of
//!   one per byte.

use crate::fxhash::FxHashMap;
use crate::snap::{Dec, Enc, SnapError};
use std::collections::VecDeque;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Sentinel page number for an empty last-page cache: real page
/// numbers are `addr >> 12` and can never reach `u64::MAX`.
const NO_PAGE: u64 = u64::MAX;

/// A sparse, paged, byte-addressable memory. Unwritten bytes read zero.
///
/// ```
/// use pfm_isa::mem::SparseMem;
/// let mut m = SparseMem::new();
/// m.write(0x8000, 8, 0xdead_beef_1234_5678);
/// assert_eq!(m.read(0x8000, 8), 0xdead_beef_1234_5678);
/// assert_eq!(m.read(0x8004, 4), 0xdead_beef);
/// assert_eq!(m.read(0x9000, 8), 0); // untouched page
/// ```
#[derive(Clone, Debug)]
pub struct SparseMem {
    /// Page number → arena slot. Point lookups only (never iterated).
    index: FxHashMap<u64, u32>,
    /// Page storage; slots are stable for the life of the memory.
    arena: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Last-page cache tag ([`NO_PAGE`] when empty) and arena slot.
    /// Updated by `&mut self` paths; `&self` reads may still *hit* it.
    last_page: u64,
    last_slot: u32,
    /// Monotonic write-generation counter: bumped once per byte
    /// written. Lets observers (the core's non-interference
    /// cross-check) detect *any* committed-state mutation without
    /// hashing the whole image.
    generation: u64,
}

impl Default for SparseMem {
    /// Equivalent to [`SparseMem::new`]; hand-written because the
    /// last-page cache's empty tag is `NO_PAGE`, not zero.
    fn default() -> SparseMem {
        SparseMem::new()
    }
}

impl SparseMem {
    /// Creates an empty memory.
    pub fn new() -> SparseMem {
        SparseMem {
            index: FxHashMap::default(),
            arena: Vec::new(),
            last_page: NO_PAGE,
            last_slot: 0,
            generation: 0,
        }
    }

    /// Number of resident 4 KiB pages.
    pub fn resident_pages(&self) -> usize {
        self.arena.len()
    }

    /// Base addresses of every resident 4 KiB page, sorted ascending.
    ///
    /// A page is resident once any byte in it has been written, so this
    /// is a conservative page-granular map of the initialized data
    /// image — what `pfm-analyze` checks the code region against for
    /// overlap. Off the hot path (one call per analysis, not per
    /// access).
    pub fn resident_page_addrs(&self) -> Vec<u64> {
        // Sorted before return, so the result is independent of
        // hash-iteration order.
        // pfm-lint: allow(hash-iter)
        let mut pages: Vec<u64> = self.index.keys().map(|p| p << PAGE_SHIFT).collect();
        pages.sort_unstable();
        pages
    }

    /// Monotonic write-generation counter; increments on every byte
    /// written. Two equal generations bracket a window with no
    /// committed-memory mutation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Arena slot for `page`, if resident. Read-only: hits the
    /// last-page cache but cannot refresh it.
    #[inline]
    fn slot_of(&self, page: u64) -> Option<u32> {
        if page == self.last_page {
            return Some(self.last_slot);
        }
        self.index.get(&page).copied()
    }

    /// Arena slot for `page`, refreshing the last-page cache on a hit.
    #[inline]
    fn slot_of_mut(&mut self, page: u64) -> Option<u32> {
        if page == self.last_page {
            return Some(self.last_slot);
        }
        let slot = *self.index.get(&page)?;
        self.last_page = page;
        self.last_slot = slot;
        Some(slot)
    }

    /// Arena slot for `page`, allocating a zero page on first touch.
    #[inline]
    fn slot_of_alloc(&mut self, page: u64) -> u32 {
        if page == self.last_page {
            return self.last_slot;
        }
        let slot = match self.index.get(&page) {
            Some(&s) => s,
            None => {
                let s = self.arena.len() as u32;
                self.arena.push(Box::new([0u8; PAGE_SIZE]));
                self.index.insert(page, s);
                s
            }
        };
        self.last_page = page;
        self.last_slot = slot;
        slot
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.slot_of(addr >> PAGE_SHIFT) {
            Some(s) => self.arena[s as usize][(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, allocating the page on demand.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let slot = self.slot_of_alloc(addr >> PAGE_SHIFT);
        self.arena[slot as usize][(addr & PAGE_MASK) as usize] = value;
        self.generation += 1;
    }

    /// Reads `size` bytes (1, 2, 4, or 8) little-endian, zero-extended.
    ///
    /// # Panics
    /// Panics if `size` is not one of 1, 2, 4, 8.
    pub fn read(&self, addr: u64, size: u64) -> u64 {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        let off = (addr & PAGE_MASK) as usize;
        if off + size as usize <= PAGE_SIZE {
            // Fast path: the access stays inside one page — one lookup.
            return match self.slot_of(addr >> PAGE_SHIFT) {
                Some(s) => le_load(&self.arena[s as usize][off..off + size as usize]),
                None => 0,
            };
        }
        self.read_slow(addr, size)
    }

    /// Same as [`SparseMem::read`], but refreshes the last-page cache —
    /// use from call sites that hold `&mut` (the hot execute loop).
    #[inline]
    pub fn read_cached(&mut self, addr: u64, size: u64) -> u64 {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        let off = (addr & PAGE_MASK) as usize;
        if off + size as usize <= PAGE_SIZE {
            return match self.slot_of_mut(addr >> PAGE_SHIFT) {
                Some(s) => le_load(&self.arena[s as usize][off..off + size as usize]),
                None => 0,
            };
        }
        self.read_slow(addr, size)
    }

    /// Page-crossing fallback: byte loop (at most two pages).
    #[cold]
    fn read_slow(&self, addr: u64, size: u64) -> u64 {
        let mut v = 0u64;
        for i in 0..size {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `size` bytes (1, 2, 4, or 8) of `value`
    /// little-endian.
    ///
    /// # Panics
    /// Panics if `size` is not one of 1, 2, 4, 8.
    pub fn write(&mut self, addr: u64, size: u64, value: u64) {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        self.write_bytes(addr, &value.to_le_bytes()[..size as usize]);
    }

    /// Writes a little-endian byte run of any length, allocating pages
    /// on demand. `generation` advances by `bytes.len()`, exactly as if
    /// each byte were written individually.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let off = (addr & PAGE_MASK) as usize;
        if off + bytes.len() <= PAGE_SIZE {
            // Fast path: one lookup for the whole run.
            let slot = self.slot_of_alloc(addr >> PAGE_SHIFT);
            self.arena[slot as usize][off..off + bytes.len()].copy_from_slice(bytes);
            self.generation += bytes.len() as u64;
            return;
        }
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Serializes the image: the write-generation counter plus every
    /// resident page (in ascending page-number order) as raw bytes.
    ///
    /// The encoding is canonical — equal images always produce equal
    /// bytes — so snapshot content keys are stable regardless of the
    /// order pages were first touched in.
    pub fn snapshot_encode(&self, e: &mut Enc) {
        e.u64(self.generation);
        // Sorted before encoding, so the byte stream is independent of
        // hash-iteration order.
        // pfm-lint: allow(snapshot-hash-iter)
        let mut pages: Vec<u64> = self.index.keys().copied().collect();
        pages.sort_unstable();
        e.usize(pages.len());
        for p in pages {
            e.u64(p);
            e.bytes(&self.arena[self.index[&p] as usize][..]);
        }
    }

    /// Reconstructs an image serialized by [`SparseMem::snapshot_encode`].
    ///
    /// The restored image is behaviourally identical to the original:
    /// same bytes at every address, same generation counter. (Arena
    /// slot order — a pure implementation detail — is normalized to
    /// page order.)
    ///
    /// # Errors
    /// Typed [`SnapError`] on truncated or non-canonical input.
    pub fn snapshot_decode(d: &mut Dec<'_>) -> Result<SparseMem, SnapError> {
        let generation = d.u64()?;
        let n = d.seq_len()?;
        let mut mem = SparseMem::new();
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let page = d.u64()?;
            if prev.is_some_and(|p| page <= p) {
                return Err(SnapError::Corrupt("page order"));
            }
            prev = Some(page);
            let bytes = d.bytes(PAGE_SIZE)?;
            let mut data = Box::new([0u8; PAGE_SIZE]);
            data.copy_from_slice(bytes);
            let slot = mem.arena.len() as u32;
            mem.arena.push(data);
            mem.index.insert(page, slot);
        }
        mem.generation = generation;
        Ok(mem)
    }
}

/// Little-endian zero-extended load of a 1–8 byte slice.
#[inline]
fn le_load(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

/// A pending speculative store registered with [`SpecMemory`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingStore {
    /// Program-order sequence number of the store instruction.
    pub seq: u64,
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// Store value (low `size` bytes significant).
    pub value: u64,
}

/// One store's contribution to an aligned 8-byte overlay word:
/// `mask` has `0xFF` in every lane the store wrote, and `data` holds
/// the store bytes in those lanes (zero elsewhere).
#[derive(Clone, Copy, Debug)]
struct OverlayEntry {
    seq: u64,
    data: u64,
    mask: u64,
}

/// Committed memory plus a speculative store overlay.
///
/// Sequence numbers must be registered in strictly increasing order
/// (program order), committed in the same order, and squashed from the
/// youngest end — which is exactly how an out-of-order core's store
/// queue behaves.
#[derive(Clone, Debug, Default)]
pub struct SpecMemory {
    committed: SparseMem,
    /// Aligned word (`addr >> 3`) → stack of store contributions in
    /// seq order. Point lookups only (never iterated).
    overlay: FxHashMap<u64, Vec<OverlayEntry>>,
    /// All unretired stores by seq, for commit/squash bookkeeping.
    pending: VecDeque<PendingStore>,
}

/// The two aligned words an access touches, with the low word's bit
/// offset: `(word0, bit_off, spills_into_word1)`.
#[inline]
fn word_span(addr: u64, size: u64) -> (u64, u32, bool) {
    let word = addr >> 3;
    let bit_off = ((addr & 7) * 8) as u32;
    (word, bit_off, bit_off as u64 + size * 8 > 64)
}

/// `0xFF` in each of the low `size` lanes.
#[inline]
fn size_mask(size: u64) -> u64 {
    if size == 8 {
        u64::MAX
    } else {
        (1u64 << (size * 8)) - 1
    }
}

impl SpecMemory {
    /// Creates an empty speculative memory.
    pub fn new() -> SpecMemory {
        SpecMemory::default()
    }

    /// Immutable view of the committed image (what the PFM Load Agent
    /// sees).
    pub fn committed(&self) -> &SparseMem {
        &self.committed
    }

    /// Mutable access to the committed image, for program/data
    /// initialization before simulation starts.
    ///
    /// # Panics
    /// Panics if there are unretired speculative stores, to prevent
    /// initialization racing with execution.
    pub fn committed_mut(&mut self) -> &mut SparseMem {
        assert!(
            self.pending.is_empty(),
            "cannot mutate committed image with stores in flight"
        );
        &mut self.committed
    }

    /// Number of in-flight speculative stores.
    pub fn pending_stores(&self) -> usize {
        self.pending.len()
    }

    /// The committed value of aligned word `word` with all pending
    /// overlay entries applied oldest→youngest (youngest byte wins).
    #[inline]
    fn word_spec(&mut self, word: u64) -> u64 {
        let mut v = self.committed.read_cached(word << 3, 8);
        if let Some(stack) = self.overlay.get(&word) {
            for e in stack {
                v = (v & !e.mask) | e.data;
            }
        }
        v
    }

    /// Speculative read: youngest overlay byte wins, falling back to the
    /// committed image. This is the view core instructions see.
    ///
    /// Takes `&mut self` to keep the committed image's last-page cache
    /// warm; the architectural state is not modified.
    pub fn read_spec(&mut self, addr: u64, size: u64) -> u64 {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        if self.overlay.is_empty() {
            // Fast path: no stores in flight — a plain committed read.
            return self.committed.read_cached(addr, size);
        }
        let (word, bit_off, spills) = word_span(addr, size);
        let lo = self.word_spec(word);
        let mut v = lo >> bit_off;
        if spills {
            let hi = self.word_spec(word + 1);
            v |= hi << (64 - bit_off);
        }
        v & size_mask(size)
    }

    /// Committed read: ignores all unretired stores. This is the view
    /// fabric (Load Agent) loads see.
    pub fn read_committed(&self, addr: u64, size: u64) -> u64 {
        self.committed.read(addr, size)
    }

    /// Registers a speculative store.
    ///
    /// # Panics
    /// Panics if `seq` is not greater than every pending store's seq
    /// (stores must arrive in program order).
    pub fn write_spec(&mut self, seq: u64, addr: u64, size: u64, value: u64) {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        if let Some(last) = self.pending.back() {
            assert!(seq > last.seq, "stores must be registered in program order");
        }
        let value = value & size_mask(size);
        let (word, bit_off, spills) = word_span(addr, size);
        self.overlay.entry(word).or_default().push(OverlayEntry {
            seq,
            data: value << bit_off,
            mask: size_mask(size) << bit_off,
        });
        if spills {
            self.overlay
                .entry(word + 1)
                .or_default()
                .push(OverlayEntry {
                    seq,
                    data: value >> (64 - bit_off),
                    mask: size_mask(size) >> (64 - bit_off),
                });
        }
        self.pending.push_back(PendingStore {
            seq,
            addr,
            size,
            value,
        });
    }

    /// Removes `seq`'s entry for `word` from the stack `end` it is
    /// required to sit at (front for commit, back for squash), and
    /// returns it.
    #[inline]
    fn take_entry(&mut self, word: u64, seq: u64, front: bool) -> OverlayEntry {
        // write_spec registered this word for `seq`, and only
        // commit/squash (which take it exactly once) remove entries,
        // so the stack must be present.
        // pfm-lint: allow(hygiene): see the invariant above
        let stack = self.overlay.get_mut(&word).expect("overlay word present");
        let e = if front {
            debug_assert_eq!(stack.first().map(|e| e.seq), Some(seq));
            stack.remove(0)
        } else {
            debug_assert_eq!(stack.last().map(|e| e.seq), Some(seq));
            // pfm-lint: allow(hygiene): non-empty per the same argument
            stack.pop().expect("overlay stack non-empty")
        };
        if stack.is_empty() {
            self.overlay.remove(&word);
        }
        e
    }

    /// Folds one overlay entry's lanes into the committed image.
    /// The lanes a single store wrote within a word are contiguous.
    fn fold_entry(&mut self, word: u64, e: OverlayEntry) {
        let lane0 = e.mask.trailing_zeros() / 8;
        let lanes = e.mask.count_ones() / 8;
        let bytes = e.data.to_le_bytes();
        self.committed.write_bytes(
            (word << 3) + lane0 as u64,
            &bytes[lane0 as usize..(lane0 + lanes) as usize],
        );
    }

    /// Commits the oldest pending store, which must have sequence number
    /// `seq`; its bytes become visible in the committed image.
    ///
    /// # Panics
    /// Panics if `seq` is not the oldest pending store.
    pub fn commit_store(&mut self, seq: u64) {
        let st = self
            .pending
            .front()
            .copied()
            // pfm-lint: allow(hygiene): caller contract; the panic is documented
            .expect("no pending store to commit");
        assert_eq!(st.seq, seq, "stores must commit in program order");
        self.pending.pop_front();
        // The committing store's entries sit at the front of each word
        // stack: commits are oldest-first, so every older store that
        // touched these words has already removed its entries.
        let (word, _, spills) = word_span(st.addr, st.size);
        let e = self.take_entry(word, seq, true);
        self.fold_entry(word, e);
        if spills {
            let e = self.take_entry(word + 1, seq, true);
            self.fold_entry(word + 1, e);
        }
    }

    /// Squashes all speculative stores with sequence number strictly
    /// greater than `seq` (youngest-first rollback after a pipeline
    /// squash).
    pub fn squash_after(&mut self, seq: u64) {
        while let Some(last) = self.pending.back().copied() {
            if last.seq <= seq {
                break;
            }
            self.pending.pop_back();
            // The squashed store is the youngest, so its entries sit at
            // the back of each word stack.
            let (word, _, spills) = word_span(last.addr, last.size);
            self.take_entry(word, last.seq, false);
            if spills {
                self.take_entry(word + 1, last.seq, false);
            }
        }
    }

    /// Serializes the committed image, the speculative overlay
    /// (in ascending word order) and the pending-store queue.
    pub fn snapshot_encode(&self, e: &mut Enc) {
        self.committed.snapshot_encode(e);
        // Sorted before encoding, so the byte stream is independent of
        // hash-iteration order.
        // pfm-lint: allow(snapshot-hash-iter)
        let mut words: Vec<u64> = self.overlay.keys().copied().collect();
        words.sort_unstable();
        e.usize(words.len());
        for w in words {
            e.u64(w);
            let stack = &self.overlay[&w];
            e.usize(stack.len());
            for entry in stack {
                e.u64(entry.seq);
                e.u64(entry.data);
                e.u64(entry.mask);
            }
        }
        e.usize(self.pending.len());
        for st in &self.pending {
            e.u64(st.seq);
            e.u64(st.addr);
            e.u64(st.size);
            e.u64(st.value);
        }
    }

    /// Reconstructs a memory serialized by
    /// [`SpecMemory::snapshot_encode`], including any in-flight
    /// speculative stores.
    ///
    /// # Errors
    /// Typed [`SnapError`] on truncated or structurally invalid input.
    pub fn snapshot_decode(d: &mut Dec<'_>) -> Result<SpecMemory, SnapError> {
        let committed = SparseMem::snapshot_decode(d)?;
        let mut overlay = FxHashMap::default();
        let words = d.seq_len()?;
        let mut prev: Option<u64> = None;
        for _ in 0..words {
            let w = d.u64()?;
            if prev.is_some_and(|p| w <= p) {
                return Err(SnapError::Corrupt("overlay word order"));
            }
            prev = Some(w);
            let depth = d.seq_len()?;
            if depth == 0 {
                return Err(SnapError::Corrupt("empty overlay stack"));
            }
            let mut stack = Vec::with_capacity(depth);
            for _ in 0..depth {
                stack.push(OverlayEntry {
                    seq: d.u64()?,
                    data: d.u64()?,
                    mask: d.u64()?,
                });
            }
            overlay.insert(w, stack);
        }
        let mut pending = VecDeque::new();
        let n = d.seq_len()?;
        for _ in 0..n {
            let st = PendingStore {
                seq: d.u64()?,
                addr: d.u64()?,
                size: d.u64()?,
                value: d.u64()?,
            };
            if !matches!(st.size, 1 | 2 | 4 | 8) {
                return Err(SnapError::Corrupt("pending store size"));
            }
            if pending
                .back()
                .is_some_and(|p: &PendingStore| st.seq <= p.seq)
            {
                return Err(SnapError::Corrupt("pending store order"));
            }
            pending.push_back(st);
        }
        Ok(SpecMemory {
            committed,
            overlay,
            pending,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_mem_zero_fill() {
        let m = SparseMem::new();
        assert_eq!(m.read(0x1234, 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn sparse_mem_rw_roundtrip_sizes() {
        let mut m = SparseMem::new();
        for &(size, val) in &[
            (1u64, 0xabu64),
            (2, 0xbeef),
            (4, 0xdeadbeef),
            (8, 0x0123456789abcdef),
        ] {
            m.write(0x4000, size, val);
            assert_eq!(m.read(0x4000, size), val);
        }
    }

    #[test]
    fn sparse_mem_cross_page_access() {
        let mut m = SparseMem::new();
        let addr = 0x1FFC; // spans 0x1000-page boundary at 0x2000
        m.write(addr, 8, 0x1122334455667788);
        assert_eq!(m.read(addr, 8), 0x1122334455667788);
        assert_eq!(m.read_cached(addr, 8), 0x1122334455667788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn resident_page_addrs_sorted_and_page_granular() {
        let mut m = SparseMem::new();
        m.write_u8(0x9005, 1);
        m.write_u8(0x1000, 1);
        m.write(0x1FFC, 8, 0); // crosses into the 0x2000 page
        assert_eq!(m.resident_page_addrs(), vec![0x1000, 0x2000, 0x9000]);
    }

    #[test]
    fn sparse_mem_little_endian() {
        let mut m = SparseMem::new();
        m.write(0x100, 4, 0x0A0B0C0D);
        assert_eq!(m.read_u8(0x100), 0x0D);
        assert_eq!(m.read_u8(0x103), 0x0A);
    }

    #[test]
    fn generation_counts_bytes_on_every_path() {
        let mut m = SparseMem::new();
        m.write(0x100, 8, 1); // intra-page fast path
        assert_eq!(m.generation(), 8);
        m.write(0x1FFC, 8, 2); // page-crossing byte loop
        assert_eq!(m.generation(), 16);
        m.write_u8(0x0, 3);
        assert_eq!(m.generation(), 17);
        m.write_bytes(0x200, &[1, 2, 3]);
        assert_eq!(m.generation(), 20);
    }

    #[test]
    fn last_page_cache_survives_clone() {
        let mut m = SparseMem::new();
        m.write(0x8000, 8, 0xabcd);
        let mut c = m.clone();
        // Writes to the clone must not alias the original's pages.
        c.write(0x8000, 8, 0x1234);
        assert_eq!(m.read(0x8000, 8), 0xabcd);
        assert_eq!(c.read(0x8000, 8), 0x1234);
    }

    #[test]
    fn spec_read_sees_overlay_committed_does_not() {
        let mut m = SpecMemory::new();
        m.committed_mut().write(0x100, 8, 111);
        m.write_spec(1, 0x100, 8, 222);
        assert_eq!(m.read_spec(0x100, 8), 222);
        assert_eq!(m.read_committed(0x100, 8), 111);
    }

    #[test]
    fn commit_makes_store_visible() {
        let mut m = SpecMemory::new();
        m.write_spec(5, 0x200, 4, 77);
        assert_eq!(m.read_committed(0x200, 4), 0);
        m.commit_store(5);
        assert_eq!(m.read_committed(0x200, 4), 77);
        assert_eq!(m.pending_stores(), 0);
    }

    #[test]
    fn squash_discards_young_stores_only() {
        let mut m = SpecMemory::new();
        m.write_spec(1, 0x300, 8, 10);
        m.write_spec(2, 0x300, 8, 20);
        m.write_spec(3, 0x308, 8, 30);
        m.squash_after(1);
        assert_eq!(m.read_spec(0x300, 8), 10);
        assert_eq!(m.read_spec(0x308, 8), 0);
        assert_eq!(m.pending_stores(), 1);
        m.commit_store(1);
        assert_eq!(m.read_committed(0x300, 8), 10);
    }

    #[test]
    fn youngest_overlay_byte_wins() {
        let mut m = SpecMemory::new();
        m.write_spec(1, 0x400, 8, 0xAAAA_AAAA_AAAA_AAAA);
        m.write_spec(2, 0x404, 4, 0xBBBB_BBBB);
        // Low half from store 1, high half from store 2.
        assert_eq!(m.read_spec(0x400, 8), 0xBBBB_BBBB_AAAA_AAAA);
    }

    #[test]
    fn unaligned_store_spans_two_words() {
        let mut m = SpecMemory::new();
        m.committed_mut().write(0x500, 8, 0x1111_1111_1111_1111);
        m.committed_mut().write(0x508, 8, 0x2222_2222_2222_2222);
        // 8-byte store at 0x505 covers bytes 5..13.
        m.write_spec(1, 0x505, 8, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.read_spec(0x505, 8), 0xAABB_CCDD_EEFF_0011);
        // Unwritten neighbours still read committed.
        assert_eq!(m.read_spec(0x500, 4), 0x1111_1111);
        assert_eq!(m.read_spec(0x508, 8) >> 40, 0x22_2222);
        m.commit_store(1);
        assert_eq!(m.read_committed(0x505, 8), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.read_committed(0x500, 4), 0x1111_1111);
    }

    #[test]
    fn unaligned_squash_unwinds_both_words() {
        let mut m = SpecMemory::new();
        m.write_spec(1, 0x605, 8, u64::MAX);
        m.squash_after(0);
        assert_eq!(m.read_spec(0x600, 8), 0);
        assert_eq!(m.read_spec(0x608, 8), 0);
        assert_eq!(m.pending_stores(), 0);
    }

    #[test]
    fn overlapping_commit_in_order() {
        let mut m = SpecMemory::new();
        m.write_spec(1, 0x500, 8, 1);
        m.write_spec(2, 0x500, 8, 2);
        m.commit_store(1);
        // Spec view still sees store 2; committed sees store 1.
        assert_eq!(m.read_spec(0x500, 8), 2);
        assert_eq!(m.read_committed(0x500, 8), 1);
        m.commit_store(2);
        assert_eq!(m.read_committed(0x500, 8), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_order_registration_panics() {
        let mut m = SpecMemory::new();
        m.write_spec(5, 0x0, 8, 0);
        m.write_spec(4, 0x8, 8, 0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_commit_panics() {
        let mut m = SpecMemory::new();
        m.write_spec(1, 0x0, 8, 0);
        m.write_spec(2, 0x8, 8, 0);
        m.commit_store(2);
    }
}
