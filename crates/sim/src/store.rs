//! Content-addressed on-disk result store: the cache tier in front of
//! the executor's compute tier.
//!
//! Every [`crate::plan::RunSpec`] has a canonical content key covering
//! *all* of its inputs (use-case parameters, core and hierarchy
//! configuration, fabric parameters, fault plan, instruction budget).
//! Two specs with equal keys simulate the exact same thing — which is
//! precisely the property a persistent cache needs: results are stored
//! under `(spec key, code fingerprint)` and invalidation is **by
//! construction**, never by guesswork. Change a sweep parameter and
//! the key changes; change the simulator and the fingerprint changes;
//! nothing stale can ever be served.
//!
//! The [`CodeFingerprint`] half of the address salts every entry with
//! * [`STATS_SCHEMA_VERSION`] — bumped by hand whenever the serialized
//!   [`crate::runner::RunResult`] layout changes shape or meaning, and
//! * a workspace **source digest** — an FNV-1a fold over every `.rs`
//!   file under `src/`, `crates/` and `vendor/` (sorted by path, so
//!   the digest is a pure function of the tree), **baked in at build
//!   time** by this crate's build script ([`BAKED_SOURCE_DIGEST`]).
//!   Baking matters: the digest must describe the sources the running
//!   binary was *built from*, not whatever the tree contains at run
//!   time — a stale binary walking an edited tree would label old-code
//!   results with the new tree's digest, the exact stale hit this
//!   scheme exists to rule out. Any edit that could affect simulation
//!   semantics re-bakes the digest on the next build, so results
//!   computed by older code become unreachable, not wrong.
//!
//! On-disk layout (all little-endian, dependency-free, built on the
//! [`pfm_isa::snap`] codec):
//!
//! * `store.log` — append-only record log. A fixed header (magic and
//!   [`STORE_FORMAT_VERSION`]), then one checksummed frame per
//!   completed run (see [`frame_bytes`]): `magic, payload_len,
//!   checksum, payload`, where the checksum is the word-wise
//!   [`frame_checksum`] of the payload. The payload is `fingerprint,
//!   spec key, serialized RunOutcome`. Records are appended with a
//!   single `write` on an `O_APPEND` handle, so concurrent executors
//!   sharing a store directory interleave at record granularity, never
//!   mid-record.
//!
//! `open` opens the log once and reads and appends through that one
//! handle. It verifies every frame's checksum and keeps the outcome
//! bytes of the records matching its fingerprint in one buffer (the
//! read buffer, compacted in place), indexed by spec key; `put` appends
//! to that buffer, and `get` decodes an outcome from it under the lock
//! without copying it out. There is no side index on disk (a
//! `store.idx` left by an older build is ignored).
//!
//! Durability policy: *ignore and skip*. A truncated tail record
//! (crash mid-append) or a corrupted checksum never panics and never
//! serves bad bytes — the damaged region is skipped (resynchronizing
//! on the record magic) and everything that survives is served.

use crate::plan::RunOutcome;
use pfm_isa::fxhash::FxHashMap;
use pfm_isa::snap::{Dec, Enc, SnapError, FNV_OFFSET, FNV_PRIME};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Version of the serialized [`crate::runner::RunResult`] /
/// [`RunOutcome`] layout. Part of every [`CodeFingerprint`]; bump on
/// any change to the layout or meaning of a record (a counter set, the
/// context-switch stats, or what an interval's counters cover) so old
/// records stop matching instead of decoding wrongly.
pub const STATS_SCHEMA_VERSION: u32 = 3;

/// Version of the store's on-disk container format (log header, frame
/// layout and frame checksum). Records from other container versions
/// are never read: `open` rotates a log with another version's header
/// aside. Version 2 replaced the byte-wise FNV-1a frame checksum of
/// version 1 with the word-wise [`frame_checksum`].
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Source digest of the workspace tree this crate was compiled from,
/// computed by the build script (`build.rs`, mirroring
/// [`source_digest`]) and baked in as a constant. It travels with the
/// binary: however stale the binary and however edited the tree, the
/// fingerprint always names the code that actually produced the
/// results.
pub const BAKED_SOURCE_DIGEST: u64 = include!(concat!(env!("OUT_DIR"), "/source_digest.rs"));

/// Log file header magic (`PFMSTORE` as little-endian u64).
const LOG_MAGIC: u64 = u64::from_le_bytes(*b"PFMSTORE");
/// Per-frame magic (`PFRM` as little-endian u32); the resync anchor
/// when scanning past a damaged region.
const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"PFRM");

/// Log header: magic + container version.
const LOG_HEADER_LEN: u64 = 12;
/// Frame header: magic (u32) + payload length (u32) + checksum (u64).
const FRAME_HEADER_LEN: usize = 16;

/// Sanity cap on a single frame payload. A valid record is a few
/// hundred bytes; anything claiming more than this is treated as
/// corruption (and bounds allocation on garbage input).
const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Builds one checksummed frame (`magic, len, checksum, payload`).
/// The whole frame is assembled in memory so it can be appended with a
/// single `write` (atomic record-granularity interleaving on the
/// `O_APPEND` log).
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A frame's checksum: four FNV-1a lanes over the payload's
/// little-endian 8-byte words (word `i` goes into lane `i % 4`), folded
/// lane by lane, then the tail bytes, then the payload length.
///
/// Every step is `h = (h ^ x) * FNV_PRIME`, a bijection of both `h` and
/// `x` (the prime is odd), so a change confined to one word or one tail
/// byte always changes the checksum. The four lanes' multiplies are
/// independent, so they overlap: a word costs about what one byte of
/// the byte-wise [`pfm_isa::snap::content_key`] does, and a log of
/// tens of kilobytes is checked in microseconds.
pub fn frame_checksum(payload: &[u8]) -> u64 {
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(FNV_PRIME);
    let word = |b: &[u8]| {
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        u64::from_le_bytes(w)
    };
    let mut lanes = [FNV_OFFSET; 4];
    let mut blocks = payload.chunks_exact(32);
    for block in blocks.by_ref() {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, w) in lanes.iter_mut().zip(words.by_ref()) {
        *lane = step(*lane, word(w));
    }
    let h = lanes.into_iter().fold(FNV_OFFSET, step);
    let h = (words.remainder().iter()).fold(h, |h, &b| step(h, b as u64));
    step(h, payload.len() as u64)
}

// ---------------------------------------------------------------------
// Code fingerprint
// ---------------------------------------------------------------------

/// The code half of a store address: which simulator produced a
/// result. Two builds with equal fingerprints decode each other's
/// records; any semantics-affecting source change produces a new
/// fingerprint and orphans (never corrupts) old entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodeFingerprint {
    /// [`STATS_SCHEMA_VERSION`] at write time.
    pub stats_schema: u32,
    /// Workspace source digest ([`source_digest`]).
    pub source_digest: u64,
}

impl CodeFingerprint {
    /// The fingerprint of the sources this binary was built from: the
    /// current stats-schema version plus the build-script-baked
    /// [`BAKED_SOURCE_DIGEST`]. This is the fingerprint every CLI role
    /// uses — deliberately *not* a run-time walk of the tree, which
    /// would let a stale binary cache old-code results under an edited
    /// tree's digest.
    pub fn of_build() -> CodeFingerprint {
        CodeFingerprint {
            stats_schema: STATS_SCHEMA_VERSION,
            source_digest: BAKED_SOURCE_DIGEST,
        }
    }

    /// A fixed fingerprint for tests (current schema, caller-chosen
    /// digest).
    pub fn fixed(source_digest: u64) -> CodeFingerprint {
        CodeFingerprint {
            stats_schema: STATS_SCHEMA_VERSION,
            source_digest,
        }
    }

    fn encode(&self, e: &mut Enc) {
        e.u32(self.stats_schema);
        e.u64(self.source_digest);
    }

    fn decode(d: &mut Dec<'_>) -> Result<CodeFingerprint, SnapError> {
        Ok(CodeFingerprint {
            stats_schema: d.u32()?,
            source_digest: d.u64()?,
        })
    }
}

/// Locates the enclosing cargo workspace: walks up from the running
/// executable's directory, then from the current directory, looking
/// for a `Cargo.toml` that declares `[workspace]`. Returns `None` when
/// neither ancestry contains one (e.g. an installed binary run far
/// from any checkout) — callers should then run storeless rather than
/// guess.
pub fn find_workspace_root() -> Option<PathBuf> {
    let mut starts: Vec<PathBuf> = Vec::new();
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            starts.push(dir.to_path_buf());
        }
    }
    if let Ok(cwd) = std::env::current_dir() {
        starts.push(cwd);
    }
    for start in starts {
        let mut dir: Option<&Path> = Some(&start);
        while let Some(d) = dir {
            if let Ok(text) = std::fs::read_to_string(d.join("Cargo.toml")) {
                if text.contains("[workspace]") {
                    return Some(d.to_path_buf());
                }
            }
            dir = d.parent();
        }
    }
    None
}

/// FNV-1a digest of every `.rs` source under the workspace's `src/`,
/// `crates/` and `vendor/` trees, folded in sorted-path order so the
/// digest is a pure function of file contents — never of directory
/// enumeration order, environment, or time. This is deliberately
/// conservative: editing *any* source (even a test) re-keys the store;
/// a wasted cold run is cheap, a stale hit is not.
///
/// The build script (`build.rs`) mirrors this fold to produce
/// [`BAKED_SOURCE_DIGEST`]; the `baked_digest_matches_tree_digest`
/// test pins the two implementations together.
///
/// # Errors
/// Propagates IO errors from the directory walk.
pub fn source_digest(root: &Path) -> std::io::Result<u64> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["src", "crates", "vendor"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    // Sort by the path string relative to the root so the digest is
    // identical regardless of where the checkout lives.
    let mut keyed: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .map(|r| r.to_string_lossy().into_owned())
                .unwrap_or_else(|_| p.to_string_lossy().into_owned());
            (rel, p)
        })
        .collect();
    keyed.sort();
    let mut h = FNV_OFFSET;
    let fold_bytes = |h: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(FNV_PRIME);
        }
        *h ^= bytes.len() as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    };
    for (rel, path) in keyed {
        let contents = std::fs::read(&path)?;
        fold_bytes(&mut h, rel.as_bytes());
        fold_bytes(&mut h, &contents);
    }
    Ok(h)
}

/// Recursively collects `.rs` files, skipping `target` build
/// directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if entry.file_name() == "target" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if ty.is_file() && path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// What `open` found on disk (for logging/`--store-stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Records readable in the log (any fingerprint).
    pub records: usize,
    /// Records matching the current fingerprint (servable).
    pub matching: usize,
    /// Bytes in the log, including the header.
    pub log_bytes: u64,
    /// Damaged regions skipped while scanning (each one truncated or
    /// checksum-corrupt).
    pub skipped: usize,
    /// The log's header was damaged or from another container version;
    /// the old file was rotated aside to `store.log.damaged` and a
    /// fresh log started (appending after a bad header would make
    /// every new record permanently unreadable).
    pub log_rotated: bool,
}

struct Inner {
    /// `store.log`, opened once: read at `open`, appended to
    /// (`O_APPEND`) by every `put`.
    log: File,
    /// The serialized [`RunOutcome`]s of the servable records, back to
    /// back.
    outcomes: Vec<u8>,
    /// Spec key → its outcome's bytes in `outcomes` (the last record
    /// written under that key). Point lookups only; listings sort.
    index: FxHashMap<String, Range<usize>>,
}

/// A content-addressed result store rooted at one directory. Safe to
/// share across executor threads (`&self` API, internal locking) and
/// across *processes* (append-only log; each process sees records
/// written before its `open`, plus everything it wrote itself).
pub struct ResultStore {
    dir: PathBuf,
    fingerprint: CodeFingerprint,
    open_report: OpenReport,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("dir", &self.dir)
            .field("fingerprint", &self.fingerprint)
            .field("open_report", &self.open_report)
            .finish()
    }
}

impl ResultStore {
    /// Opens (creating if necessary) the store at `dir` for the given
    /// code fingerprint: loads every servable record into memory,
    /// skipping damaged regions.
    ///
    /// # Errors
    /// Propagates real IO failures (permissions, disk). Corruption is
    /// not an error — damaged records are ignored and reported in
    /// [`ResultStore::open_report`].
    pub fn open(dir: &Path, fingerprint: CodeFingerprint) -> std::io::Result<ResultStore> {
        let log_path = dir.join("store.log");
        let (mut log, mut bytes) = read_log(dir, &log_path)?;
        let mut report = OpenReport {
            log_bytes: bytes.len() as u64,
            ..OpenReport::default()
        };

        // A log whose header is damaged (or from another container
        // version) cannot safely take appends: every record written
        // after the bad header would be unreadable on all future
        // opens. Rotate the damaged file aside (preserving its bytes
        // for post-mortem) and start a fresh log.
        if !bytes.starts_with(&log_header()) {
            std::fs::rename(&log_path, dir.join("store.log.damaged"))?;
            (log, bytes) = read_log(dir, &log_path)?;
            report.log_rotated = true;
            report.log_bytes = bytes.len() as u64;
        }

        // Full scan: parse frames from the header on, resyncing on the
        // frame magic after any damage.
        let mut index = FxHashMap::default();
        scan_log(&mut bytes, &fingerprint, &mut index, &mut report);

        Ok(ResultStore {
            dir: dir.to_path_buf(),
            fingerprint,
            open_report: report,
            inner: Mutex::new(Inner {
                log,
                outcomes: bytes,
                index,
            }),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fingerprint this store serves.
    pub fn fingerprint(&self) -> CodeFingerprint {
        self.fingerprint
    }

    /// What `open` found (record counts, damage, log rotation).
    pub fn open_report(&self) -> OpenReport {
        self.open_report
    }

    /// Whether a servable result exists for `spec_key` (used by the
    /// store-aware `repro --list`).
    pub fn contains(&self, spec_key: &str) -> bool {
        self.lock().index.contains_key(spec_key)
    }

    /// Number of servable results.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// Whether no servable results exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached outcome for `spec_key`, if present and decodable.
    /// A record that fails to decode (impossible under an honest
    /// fingerprint, since the schema version is part of it) is treated
    /// as a miss, never served.
    pub fn get(&self, spec_key: &str) -> Option<RunOutcome> {
        let inner = self.lock();
        let at = inner.index.get(spec_key)?.clone();
        let mut d = Dec::new(inner.outcomes.get(at)?);
        let outcome = RunOutcome::snapshot_decode(&mut d).ok()?;
        d.finish().ok()?;
        Some(outcome)
    }

    /// Appends `outcome` under `spec_key` (single `O_APPEND` write, so
    /// concurrent executors never interleave mid-record) and makes it
    /// immediately servable from this handle.
    ///
    /// # Errors
    /// Propagates the underlying IO error; the in-memory buffer and
    /// index are only updated after a successful append.
    pub fn put(&self, spec_key: &str, outcome: &RunOutcome) -> std::io::Result<()> {
        let mut e = Enc::new();
        self.fingerprint.encode(&mut e);
        e.str(spec_key);
        let mut out_enc = Enc::new();
        outcome.snapshot_encode(&mut out_enc);
        let outcome_bytes = out_enc.finish();
        e.bytes(&outcome_bytes);
        let frame = frame_bytes(&e.finish());
        let mut inner = self.lock();
        inner.log.write_all(&frame)?;
        let start = inner.outcomes.len();
        inner.outcomes.extend_from_slice(&outcome_bytes);
        let end = inner.outcomes.len();
        inner.index.insert(spec_key.to_string(), start..end);
        Ok(())
    }

    /// Servable spec keys, sorted (deterministic listing for
    /// `--store-stats`).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.lock().index.keys().cloned().collect();
        keys.sort_unstable();
        keys
    }

    /// Human-readable store summary for `repro --store-stats`.
    pub fn render_stats(&self) -> String {
        let r = self.open_report;
        let mut out = String::new();
        out.push_str(&format!("store: {}\n", self.dir.display()));
        out.push_str(&format!(
            "  fingerprint: schema v{}, source digest {:016x}\n",
            self.fingerprint.stats_schema, self.fingerprint.source_digest
        ));
        out.push_str(&format!(
            "  log: {} bytes, {} record(s), {} damaged region(s) skipped\n",
            r.log_bytes, r.records, r.skipped
        ));
        if r.log_rotated {
            out.push_str("  note: damaged/foreign log rotated to store.log.damaged\n");
        }
        out.push_str(&format!(
            "  servable under this fingerprint: {} result(s)\n",
            self.len()
        ));
        for key in self.keys() {
            let line = match self.get(&key) {
                Some(outcome) => format!("  {:9} {key}\n", outcome_tag(&outcome)),
                None => format!("  {:9} {key}\n", "undecodable"),
            };
            out.push_str(&line);
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned mutex only means another thread panicked mid-put;
        // the buffer is a cache and the log append was a single write,
        // so continuing is safe.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Short status word for a stored outcome (`--store-stats` listing).
fn outcome_tag(outcome: &RunOutcome) -> &'static str {
    match outcome {
        RunOutcome::Ok(_) => "ok",
        RunOutcome::Failed(_) => "failed",
        RunOutcome::Panicked(_) => "panicked",
        RunOutcome::TimedOut { .. } => "timed-out",
    }
}

/// One verified log record, borrowed from the log bytes.
struct Record<'a> {
    fingerprint: CodeFingerprint,
    key: &'a str,
    /// Where the serialized [`RunOutcome`] lies in the log bytes.
    outcome: Range<usize>,
}

/// Parses and verifies the frame at `start`; returns its length and
/// the record on success.
fn verify_record(bytes: &[u8], start: usize) -> Option<(usize, Record<'_>)> {
    let header = bytes.get(start..start + FRAME_HEADER_LEN)?;
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&header[8..16]);
    if magic != FRAME_MAGIC || len > MAX_FRAME_LEN {
        return None;
    }
    let end = start + FRAME_HEADER_LEN + len as usize;
    let payload = bytes.get(start + FRAME_HEADER_LEN..end)?;
    if frame_checksum(payload) != u64::from_le_bytes(sum) {
        return None;
    }
    let mut d = Dec::new(payload);
    let fingerprint = CodeFingerprint::decode(&mut d).ok()?;
    let key = d.str().ok()?;
    let outcome = end - d.remaining()..end;
    Some((
        end - start,
        Record {
            fingerprint,
            key,
            outcome,
        },
    ))
}

/// Scans log frames after the header, resyncing on the frame magic
/// after damage. The outcome bytes of each record matching
/// `fingerprint` move down to the front of `bytes` (every record lies
/// past the bytes kept before it), `index` maps the record's key to
/// them (last write wins), and `bytes` ends truncated to what was kept.
fn scan_log(
    bytes: &mut Vec<u8>,
    fingerprint: &CodeFingerprint,
    index: &mut FxHashMap<String, Range<usize>>,
    report: &mut OpenReport,
) {
    let mut pos = LOG_HEADER_LEN as usize;
    let mut kept = 0;
    let mut in_damage = false;
    while pos + FRAME_HEADER_LEN <= bytes.len() {
        match verify_record(bytes, pos) {
            Some((frame_len, record)) => {
                in_damage = false;
                report.records += 1;
                if record.fingerprint == *fingerprint {
                    report.matching += 1;
                    let Record { key, outcome, .. } = record;
                    let key = key.to_string();
                    let len = outcome.len();
                    bytes.copy_within(outcome, kept);
                    index.insert(key, kept..kept + len);
                    kept += len;
                }
                pos += frame_len;
            }
            None => {
                // Damaged or foreign bytes: advance to the next magic
                // occurrence (count each contiguous damaged region
                // once).
                if !in_damage {
                    report.skipped += 1;
                    in_damage = true;
                }
                pos += 1;
                while pos + 4 <= bytes.len() && bytes[pos..pos + 4] != FRAME_MAGIC.to_le_bytes() {
                    pos += 1;
                }
                if pos + 4 > bytes.len() {
                    break;
                }
            }
        }
    }
    // A trailing partial frame header (crash mid-append) is damage too.
    if pos < bytes.len() && !in_damage {
        report.skipped += 1;
    }
    bytes.truncate(kept);
}

/// Opens the log at `path` for reading and appending, creating it (and
/// `dir`) if absent, and reads it whole. A fresh log gets its header
/// exactly once: the first opener to take the file lock writes it, and
/// any other opener of the empty file reads it again under the lock.
fn read_log(dir: &Path, path: &Path) -> std::io::Result<(File, Vec<u8>)> {
    let open = || {
        OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
    };
    let mut log = match open() {
        Err(e) if e.kind() == ErrorKind::NotFound => {
            std::fs::create_dir_all(dir)?;
            open()?
        }
        log => log?,
    };
    let mut bytes = Vec::new();
    log.read_to_end(&mut bytes)?;
    if bytes.is_empty() {
        log.lock()?;
        log.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            bytes = log_header().to_vec();
            log.write_all(&bytes)?;
        }
        log.unlock()?;
    }
    Ok((log, bytes))
}

/// The log header: magic, then the container version.
fn log_header() -> [u8; LOG_HEADER_LEN as usize] {
    let mut header = [0; LOG_HEADER_LEN as usize];
    header[..8].copy_from_slice(&LOG_MAGIC.to_le_bytes());
    header[8..].copy_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    header
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RunOutcome;
    use crate::runner::{CtxStats, PhaseStats, RunError, RunResult, TenantStats};
    use pfm_core::SimStats;
    use pfm_fabric::{FabricStats, FaultStats};
    use pfm_isa::snap::content_key;
    use pfm_mem::HierarchyStats;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique-per-test temp dir without wall clocks or RNG.
    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pfm-store-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_result(name: &str, retired: u64) -> RunResult {
        RunResult {
            name: name.to_string(),
            stats: SimStats {
                cycles: retired * 2,
                retired,
                loads: retired / 3,
                stores: retired / 7,
                ..SimStats::default()
            },
            hier: HierarchyStats {
                l1d_hits: 11,
                dram_accesses: 3,
                ..HierarchyStats::default()
            },
            fabric: None,
            faults: None,
            arch_checksum: 0xdead_beef_cafe_f00d ^ retired,
            completed: retired.is_multiple_of(2),
            ctx: None,
        }
    }

    /// Each counter set with `i + 1` in its field `i` and the flag set.
    fn numbered_sets() -> (SimStats, HierarchyStats, FabricStats, FaultStats) {
        let sim = SimStats {
            cycles: 1,
            retired: 2,
            cond_branches: 3,
            mispredicts: 4,
            target_mispredicts: 5,
            squash_mispredict: 6,
            squash_disambiguation: 7,
            squash_roi: 8,
            fetch_icache_stall_cycles: 9,
            fetch_fabric_stall_cycles: 10,
            fetch_redirect_stall_cycles: 11,
            retire_agent_stall_cycles: 12,
            fabric_predictions_used: 13,
            fabric_mispredicts: 14,
            fabric_loads: 15,
            fabric_prefetches: 16,
            loads: 17,
            stores: 18,
        };
        let hier = HierarchyStats {
            l1d_hits: 1,
            l1d_misses: 2,
            inflight_merges: 3,
            l2_hits: 4,
            l3_hits: 5,
            dram_accesses: 6,
            l1i_misses: 7,
            prefetches_issued: 8,
            mshr_wait_cycles: 9,
        };
        let fabric = FabricStats {
            fetched_in_roi: 1,
            fst_hits: 2,
            retired_in_roi: 3,
            rst_hits: 4,
            obs_packets: 5,
            preds_delivered: 6,
            preds_dropped: 7,
            pred_mismatch_passes: 8,
            loads_injected: 9,
            prefetches_injected: 10,
            mlb_replays: 11,
            mlb_full_drops: 12,
            squash_packets: 13,
            port_conflict_delays: 14,
            watchdog_fired: true,
            swaps: 16,
            swap_abort_restarts: 17,
            swap_spike_cycles: 18,
            stale_drain_leaks: 19,
            reconfig_cycles: 20,
        };
        let faults = FaultStats {
            inverted: 1,
            garbled: 2,
            wild: 3,
            dropped: 4,
            delayed: 5,
            duplicated: 6,
            stuck_ticks: 7,
            spike_ticks: 8,
            rng_draws: 9,
        };
        (sim, hier, fabric, faults)
    }

    /// A context-switch result with every optional layer present.
    fn full_result() -> RunResult {
        let (stats, hier, fabric, faults) = numbered_sets();
        let tenant = |name: &str, k: u64| TenantStats {
            name: name.to_string(),
            retired: k,
            cycles: k + 1,
            checksum: k + 2,
            completed: !k.is_multiple_of(2),
        };
        let phase = |tenant: &str, k: u64| PhaseStats {
            tenant: tenant.to_string(),
            retired: k,
            cycles: k + 1,
        };
        RunResult {
            name: "ctx(astar+bfs)".to_string(),
            stats,
            hier,
            fabric: Some(fabric),
            faults: Some(faults),
            arch_checksum: 0x0123_4567_89ab_cdef,
            completed: true,
            ctx: Some(CtxStats {
                tenants: vec![tenant("astar", 30), tenant("bfs", 41)],
                phases: vec![phase("astar", 50), phase("bfs", 60), phase("astar", 70)],
                decisions: 80,
                corrupted_decisions: 81,
            }),
        }
    }

    fn assert_same_ok(a: &RunOutcome, b: &RunOutcome) {
        let (a, b) = (a.as_ok().unwrap(), b.as_ok().unwrap());
        assert_eq!(a.name, b.name);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.hier, b.hier);
        assert_eq!(a.fabric, b.fabric);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.arch_checksum, b.arch_checksum);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.ctx, b.ctx);
    }

    #[test]
    fn counter_set_encodings_are_pinned() {
        // Stored records and the benchmark's stats digest are built
        // from these bytes: one `u64` (or, for the flag, one byte) per
        // field in declaration order. Reordering a field, or changing
        // its type, must fail here.
        let (sim, hier, fabric, faults) = numbered_sets();
        let key = |encode: &dyn Fn(&mut Enc)| {
            let mut e = Enc::new();
            encode(&mut e);
            content_key(&e.finish())
        };
        assert_eq!(key(&|e| sim.snapshot_encode(e)), 0x27fe_9eba_d618_c6d2);
        assert_eq!(key(&|e| hier.snapshot_encode(e)), 0xedb5_e8d8_1d29_f504);
        assert_eq!(key(&|e| fabric.snapshot_encode(e)), 0x6d46_9bd5_9a40_4f34);
        assert_eq!(key(&|e| faults.snapshot_encode(e)), 0xedb5_e8d8_1d29_f504);
    }

    #[test]
    fn outcome_codec_roundtrips_every_variant() {
        let outcomes = vec![
            RunOutcome::Ok(sample_result("astar", 1_000)),
            RunOutcome::Ok(full_result()),
            RunOutcome::Failed(RunError::Exec("bad pc".to_string())),
            RunOutcome::Panicked("boom".to_string()),
            RunOutcome::TimedOut {
                error: RunError::Watchdog {
                    last_commit_cycle: 10,
                    stalled_cycles: 99,
                    retired: 5,
                },
                retries: 1,
            },
            RunOutcome::Failed(RunError::CycleLimit {
                max_cycles: 7,
                retired: 3,
            }),
        ];
        for outcome in &outcomes {
            let mut e = Enc::new();
            outcome.snapshot_encode(&mut e);
            let bytes = e.finish();
            let mut d = Dec::new(&bytes);
            let back = RunOutcome::snapshot_decode(&mut d).unwrap();
            d.finish().unwrap();
            match (outcome, &back) {
                (RunOutcome::Ok(_), RunOutcome::Ok(_)) => assert_same_ok(outcome, &back),
                _ => assert_eq!(outcome.describe(), back.describe()),
            }
        }
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let dir = temp_dir("roundtrip");
        let fp = CodeFingerprint::fixed(42);
        let store = ResultStore::open(&dir, fp).unwrap();
        assert!(store.is_empty());
        assert!(store.get("k1").is_none());

        let ok = RunOutcome::Ok(sample_result("astar", 1_000));
        store.put("k1", &ok).unwrap();
        let fail = RunOutcome::Panicked("kaput".to_string());
        store.put("k2", &fail).unwrap();
        assert_eq!(store.len(), 2);
        assert_same_ok(&store.get("k1").unwrap(), &ok);
        assert!(matches!(
            store.get("k2").unwrap(),
            RunOutcome::Panicked(ref m) if m == "kaput"
        ));

        drop(store);
        let store = ResultStore::open(&dir, fp).unwrap();
        assert_eq!(store.len(), 2);
        assert_same_ok(&store.get("k1").unwrap(), &ok);
        let report = store.open_report();
        assert_eq!(report.records, 2);
        assert_eq!(report.matching, 2);
        assert_eq!(report.skipped, 0);
    }

    #[test]
    fn different_fingerprint_never_serves_and_last_write_wins() {
        let dir = temp_dir("fp");
        let old = ResultStore::open(&dir, CodeFingerprint::fixed(1)).unwrap();
        old.put("k", &RunOutcome::Ok(sample_result("astar", 10)))
            .unwrap();
        drop(old);

        // A new fingerprint sees the record in the log but cannot be
        // served from it.
        let new = ResultStore::open(&dir, CodeFingerprint::fixed(2)).unwrap();
        assert_eq!(new.open_report().records, 1);
        assert_eq!(new.open_report().matching, 0);
        assert!(new.get("k").is_none());
        new.put("k", &RunOutcome::Ok(sample_result("astar", 20)))
            .unwrap();
        drop(new);

        // Each fingerprint still resolves to its own record.
        let old = ResultStore::open(&dir, CodeFingerprint::fixed(1)).unwrap();
        assert_eq!(old.get("k").unwrap().as_ok().unwrap().stats.retired, 10);
        let new = ResultStore::open(&dir, CodeFingerprint::fixed(2)).unwrap();
        assert_eq!(new.get("k").unwrap().as_ok().unwrap().stats.retired, 20);

        // Same fingerprint, same key, appended twice: last write wins.
        new.put("k", &RunOutcome::Ok(sample_result("astar", 30)))
            .unwrap();
        drop(new);
        let new = ResultStore::open(&dir, CodeFingerprint::fixed(2)).unwrap();
        assert_eq!(new.get("k").unwrap().as_ok().unwrap().stats.retired, 30);
    }

    #[test]
    fn source_digest_is_deterministic_and_content_sensitive() {
        let root = temp_dir("digest");
        std::fs::create_dir_all(root.join("src")).unwrap();
        std::fs::create_dir_all(root.join("crates/x/src")).unwrap();
        std::fs::write(root.join("src/lib.rs"), "pub fn a() {}\n").unwrap();
        std::fs::write(root.join("crates/x/src/lib.rs"), "pub fn b() {}\n").unwrap();
        let d1 = source_digest(&root).unwrap();
        let d2 = source_digest(&root).unwrap();
        assert_eq!(d1, d2, "digest must be a pure function of the tree");

        std::fs::write(root.join("crates/x/src/lib.rs"), "pub fn b() { }\n").unwrap();
        let d3 = source_digest(&root).unwrap();
        assert_ne!(d1, d3, "an edited source must re-key the store");

        // Non-.rs files do not contribute.
        std::fs::write(root.join("src/notes.md"), "hello").unwrap();
        assert_eq!(d3, source_digest(&root).unwrap());
    }

    /// Fills a store with three records and returns (dir, fp, the
    /// outcomes by key) for the durability tests.
    fn seeded_store(tag: &str) -> (PathBuf, CodeFingerprint) {
        let dir = temp_dir(tag);
        let fp = CodeFingerprint::fixed(77);
        let store = ResultStore::open(&dir, fp).unwrap();
        store
            .put("k1", &RunOutcome::Ok(sample_result("astar", 100)))
            .unwrap();
        store
            .put("k2", &RunOutcome::Ok(sample_result("lbm", 200)))
            .unwrap();
        store
            .put("k3", &RunOutcome::Ok(sample_result("milc", 300)))
            .unwrap();
        (dir, fp)
    }

    #[test]
    fn truncated_tail_record_degrades_to_ignore_and_rebuild() {
        let (dir, fp) = seeded_store("trunc");
        // Chop the last record mid-payload: a crash mid-append.
        let log = dir.join("store.log");
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() - 7]).unwrap();
        let store = ResultStore::open(&dir, fp).unwrap();
        let report = store.open_report();
        assert_eq!(report.records, 2, "intact prefix survives");
        assert_eq!(report.skipped, 1, "the torn tail is one damaged region");
        assert_eq!(store.get("k1").unwrap().as_ok().unwrap().stats.retired, 100);
        assert_eq!(store.get("k2").unwrap().as_ok().unwrap().stats.retired, 200);
        assert!(store.get("k3").is_none(), "the torn record is never served");

        // The store still accepts appends and heals on the next open.
        store
            .put("k3", &RunOutcome::Ok(sample_result("milc", 301)))
            .unwrap();
        drop(store);
        let store = ResultStore::open(&dir, fp).unwrap();
        assert_eq!(store.get("k3").unwrap().as_ok().unwrap().stats.retired, 301);
    }

    #[test]
    fn corrupted_checksum_skips_only_the_damaged_record() {
        let (dir, fp) = seeded_store("corrupt");
        let log = dir.join("store.log");
        let mut bytes = std::fs::read(&log).unwrap();
        // Flip a byte inside the second record's payload (first record
        // starts right after the header; find the second frame magic).
        let magic = FRAME_MAGIC.to_le_bytes();
        let first = (LOG_HEADER_LEN as usize..bytes.len())
            .find(|&i| bytes[i..].starts_with(&magic))
            .unwrap();
        let second = (first + 1..bytes.len())
            .find(|&i| bytes[i..].starts_with(&magic))
            .unwrap();
        bytes[second + FRAME_HEADER_LEN + 4] ^= 0xff;
        std::fs::write(&log, &bytes).unwrap();

        let store = ResultStore::open(&dir, fp).unwrap();
        let report = store.open_report();
        assert_eq!(report.skipped, 1);
        assert!(store.get("k1").is_some());
        assert!(store.get("k2").is_none(), "bad bytes are never served");
        assert!(
            store.get("k3").is_some(),
            "resync recovers the record after the damage"
        );
    }

    #[test]
    fn damaged_header_rotates_the_log_and_starts_fresh() {
        let (dir, fp) = seeded_store("header");
        let log = dir.join("store.log");
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[0] ^= 0xff; // corrupt the log magic
        std::fs::write(&log, &bytes).unwrap();

        // The damaged file is rotated aside, not appended after: an
        // append landing behind a bad header would be silently
        // unreadable on every future open.
        let store = ResultStore::open(&dir, fp).unwrap();
        let report = store.open_report();
        assert!(report.log_rotated, "bad header must be surfaced");
        assert_eq!(report.records, 0);
        assert!(store.is_empty());
        assert!(
            dir.join("store.log.damaged").exists(),
            "damaged bytes are preserved for post-mortem"
        );
        assert!(store.render_stats().contains("rotated"));

        // Appends now land after a fresh, valid header and survive
        // reopen.
        store
            .put("k1", &RunOutcome::Ok(sample_result("astar", 100)))
            .unwrap();
        drop(store);
        let store = ResultStore::open(&dir, fp).unwrap();
        assert!(!store.open_report().log_rotated);
        assert_eq!(store.get("k1").unwrap().as_ok().unwrap().stats.retired, 100);
    }

    #[test]
    fn baked_digest_matches_tree_digest() {
        // The build script's fold (build.rs) must mirror
        // `source_digest` exactly; silent divergence would decouple
        // the baked fingerprint from the sources it claims to name.
        let root = find_workspace_root().expect("tests run inside the workspace");
        assert_eq!(BAKED_SOURCE_DIGEST, source_digest(&root).unwrap());
    }

    #[test]
    fn tampered_record_is_never_served() {
        // A record modified in place (same length, flipped byte) fails
        // its checksum on the next open and is skipped.
        let (dir, fp) = seeded_store("tamper");
        let log = dir.join("store.log");
        let mut bytes = std::fs::read(&log).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xff; // inside the last record's payload
        std::fs::write(&log, &bytes).unwrap();

        let store = ResultStore::open(&dir, fp).unwrap();
        let report = store.open_report();
        assert_eq!(report.records, 2);
        assert_eq!(report.skipped, 1);
        assert!(store.get("k3").is_none());
        assert!(store.get("k1").is_some());
    }

    /// One real record's frame, exactly as `put` appended it to the log.
    fn real_frame() -> Vec<u8> {
        let dir = temp_dir("frame");
        let store = ResultStore::open(&dir, CodeFingerprint::fixed(5)).unwrap();
        store
            .put("astar|pfm|frame-check", &RunOutcome::Ok(full_result()))
            .unwrap();
        let log = std::fs::read(dir.join("store.log")).unwrap();
        log[LOG_HEADER_LEN as usize..].to_vec()
    }

    #[test]
    fn every_single_byte_payload_change_fails_the_frame_check() {
        let frame = real_frame();
        let payload_len = frame.len() - FRAME_HEADER_LEN;
        assert!(
            payload_len >= 64 && !payload_len.is_multiple_of(8),
            "the payload ({payload_len} bytes) must fill every lane and leave tail bytes"
        );
        assert!(verify_record(&frame, 0).is_some());
        let mut bad = frame.clone();
        for at in FRAME_HEADER_LEN..frame.len() {
            for mask in [0x01, 0x80, 0xff] {
                bad[at] ^= mask;
                assert!(
                    verify_record(&bad, 0).is_none(),
                    "payload byte {} ^ {mask:#04x} passed the frame check",
                    at - FRAME_HEADER_LEN
                );
                bad[at] ^= mask;
            }
        }
    }

    #[test]
    fn every_truncation_of_a_frame_fails_the_frame_check() {
        let frame = real_frame();
        assert!(verify_record(&frame, 0).is_some());
        for len in 0..frame.len() {
            assert!(
                verify_record(&frame[..len], 0).is_none(),
                "a frame cut to {len} of {} bytes passed",
                frame.len()
            );
        }
    }

    #[test]
    fn version_1_log_is_rotated_aside_and_never_served() {
        // A version-1 log: container version 1 in the header, and one
        // frame checksummed with the byte-wise FNV-1a of its payload.
        let dir = temp_dir("v1");
        let fp = CodeFingerprint::fixed(9);
        let ok = RunOutcome::Ok(sample_result("astar", 100));
        let mut e = Enc::new();
        fp.encode(&mut e);
        e.str("k1");
        ok.snapshot_encode(&mut e);
        let payload = e.finish();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&LOG_MAGIC.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&content_key(&payload).to_le_bytes());
        v1.extend_from_slice(&payload);
        std::fs::write(dir.join("store.log"), &v1).unwrap();

        let store = ResultStore::open(&dir, fp).unwrap();
        let report = store.open_report();
        assert!(report.log_rotated, "a version-1 header must be rotated");
        assert_eq!(report.records, 0);
        assert!(
            store.get("k1").is_none(),
            "a version-1 record is never served"
        );
        assert_eq!(std::fs::read(dir.join("store.log.damaged")).unwrap(), v1);

        store.put("k1", &ok).unwrap();
        assert_same_ok(&store.get("k1").unwrap(), &ok);
        drop(store);
        let store = ResultStore::open(&dir, fp).unwrap();
        assert!(!store.open_report().log_rotated);
        assert_same_ok(&store.get("k1").unwrap(), &ok);
    }
}
