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
//! * `store.log` — append-only record log. A fixed header, then one
//!   checksummed frame per completed run (see [`frame_bytes`]):
//!   `magic, payload_len, fnv64(payload), payload`. The payload is
//!   `fingerprint, spec key, serialized RunOutcome`. Records are
//!   appended with a single `write` on an `O_APPEND` handle, so
//!   concurrent executors sharing a store directory interleave at
//!   record granularity, never mid-record.
//! * `store.idx` — side index mapping record hash → log offset, with a
//!   whole-file checksum and the log length it covers. The index is a
//!   pure accelerator: it is rebuilt (atomically, temp + rename) at
//!   open whenever it is missing, corrupt, or stale, and every record
//!   it points at is still checksum-verified before use. Deleting it
//!   costs one log scan, nothing more.
//!
//! Durability policy: *ignore and rebuild*. A truncated tail record
//! (crash mid-append), a corrupted checksum, or a missing/garbled
//! index never panic and never serve bad bytes — the damaged region is
//! skipped (resynchronizing on the record magic) and the index is
//! rebuilt from what survives.

use crate::plan::RunOutcome;
use pfm_isa::snap::{content_key, Dec, Enc, SnapError, FNV_OFFSET, FNV_PRIME};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Version of the serialized [`crate::runner::RunResult`] /
/// [`RunOutcome`] layout. Part of every [`CodeFingerprint`]; bump on
/// any change to the stats codecs so old records stop matching instead
/// of decoding wrongly.
pub const STATS_SCHEMA_VERSION: u32 = 2;

/// Version of the store's on-disk container format (log header,
/// frame layout, index layout). Records from other container versions
/// are never read.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Source digest of the workspace tree this crate was compiled from,
/// computed by the build script (`build.rs`, mirroring
/// [`source_digest`]) and baked in as a constant. It travels with the
/// binary: however stale the binary and however edited the tree, the
/// fingerprint always names the code that actually produced the
/// results.
pub const BAKED_SOURCE_DIGEST: u64 = include!(concat!(env!("OUT_DIR"), "/source_digest.rs"));

/// Log file header magic (`PFMSTORE` as little-endian u64).
const LOG_MAGIC: u64 = u64::from_le_bytes(*b"PFMSTORE");
/// Index file header magic (`PFMSTIDX` as little-endian u64).
const IDX_MAGIC: u64 = u64::from_le_bytes(*b"PFMSTIDX");
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

/// Builds one checksummed frame (`magic, len, fnv64, payload`). The
/// whole frame is assembled in memory so it can be appended with a
/// single `write` (atomic record-granularity interleaving on the
/// `O_APPEND` log).
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&content_key(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
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

/// The 64-bit address a record is indexed under: an FNV-1a fold of the
/// spec key salted with the code fingerprint. Pure function of its two
/// arguments — no clocks, no environment, no iteration order.
pub fn store_key_hash(spec_key: &str, fp: &CodeFingerprint) -> u64 {
    let mut h = FNV_OFFSET;
    let fold = |h: &mut u64, v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(FNV_PRIME);
    };
    fold(&mut h, fp.stats_schema as u64);
    fold(&mut h, fp.source_digest);
    fold(&mut h, content_key(spec_key.as_bytes()));
    h
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// One parsed record location (index entry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct IdxEntry {
    /// [`store_key_hash`] of the record's (spec key, fingerprint).
    key_hash: u64,
    /// Byte offset of the frame in `store.log`.
    offset: u64,
    /// Frame payload length.
    payload_len: u32,
}

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
    /// The side index was usable as-is (no rebuild needed).
    pub index_valid: bool,
    /// The side index was rebuilt (missing, corrupt, or stale).
    pub index_rebuilt: bool,
    /// The log's header was damaged or from another container version;
    /// the old file was rotated aside to `store.log.damaged` and a
    /// fresh log started (appending after a bad header would make
    /// every new record permanently unreadable).
    pub log_rotated: bool,
}

struct Inner {
    /// Append handle to `store.log` (`O_APPEND`).
    log: File,
    /// Servable results: spec key → serialized [`RunOutcome`] payload
    /// suffix. BTreeMap so every listing is deterministically ordered.
    map: BTreeMap<String, Vec<u8>>,
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
    /// skipping damaged regions, and rebuilds the side index
    /// atomically when it is missing, corrupt, or stale.
    ///
    /// # Errors
    /// Propagates real IO failures (permissions, disk). Corruption is
    /// not an error — damaged records are ignored and reported in
    /// [`ResultStore::open_report`].
    pub fn open(dir: &Path, fingerprint: CodeFingerprint) -> std::io::Result<ResultStore> {
        std::fs::create_dir_all(dir)?;
        let log_path = dir.join("store.log");
        let idx_path = dir.join("store.idx");

        // Create the log with its header on first touch.
        if !log_path.exists() {
            write_log_header(&log_path)?;
        }
        let mut bytes = std::fs::read(&log_path)?;
        let mut report = OpenReport {
            log_bytes: bytes.len() as u64,
            ..OpenReport::default()
        };

        // A log whose header is damaged (or from another container
        // version) cannot safely take appends: every record written
        // after the bad header would be unreadable on all future
        // opens. Rotate the damaged file aside (preserving its bytes
        // for post-mortem) and start a fresh log.
        let header_ok = bytes.len() >= LOG_HEADER_LEN as usize
            && bytes[0..8] == LOG_MAGIC.to_le_bytes()
            && bytes[8..12] == STORE_FORMAT_VERSION.to_le_bytes();
        if !header_ok {
            std::fs::rename(&log_path, dir.join("store.log.damaged"))?;
            write_log_header(&log_path)?;
            bytes = std::fs::read(&log_path)?;
            report.log_rotated = true;
            report.log_bytes = bytes.len() as u64;
        }

        let mut entries: Vec<IdxEntry> = Vec::new();
        let mut map: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        {
            // Try the side index first: if it verifies and covers the
            // whole log, records can be located without a scan. Every
            // record it points at is still individually verified.
            let mut index_used = false;
            if let Some(idx) = load_index(&idx_path, bytes.len() as u64) {
                let mut all_verified = true;
                let mut loaded: Vec<(IdxEntry, Option<ParsedRecord>)> =
                    Vec::with_capacity(idx.len());
                for en in &idx {
                    match verify_record(&bytes, en.offset, en.payload_len) {
                        Some(parsed) => loaded.push((*en, Some(parsed))),
                        None => {
                            all_verified = false;
                            break;
                        }
                    }
                }
                if all_verified {
                    index_used = true;
                    report.index_valid = true;
                    for (en, parsed) in loaded {
                        entries.push(en);
                        report.records += 1;
                        if let Some((key, fp, outcome)) = parsed {
                            if fp == fingerprint {
                                report.matching += 1;
                                map.insert(key, outcome);
                            }
                        }
                    }
                }
            }
            if !index_used {
                // Full scan: parse frames from the header on, resyncing
                // on the frame magic after any damage.
                scan_log(
                    &bytes,
                    LOG_HEADER_LEN,
                    &fingerprint,
                    &mut entries,
                    &mut map,
                    &mut report,
                );
                // Rebuild the index to cover everything we could read.
                if write_index(&idx_path, bytes.len() as u64, &entries).is_ok() {
                    report.index_rebuilt = true;
                }
            }
        }

        let log = OpenOptions::new().append(true).open(&log_path)?;
        Ok(ResultStore {
            dir: dir.to_path_buf(),
            fingerprint,
            open_report: report,
            inner: Mutex::new(Inner { log, map }),
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

    /// What `open` found (record counts, damage, index state).
    pub fn open_report(&self) -> OpenReport {
        self.open_report
    }

    /// Whether a servable result exists for `spec_key` (used by the
    /// store-aware `repro --list`).
    pub fn contains(&self, spec_key: &str) -> bool {
        self.lock().map.contains_key(spec_key)
    }

    /// Number of servable results.
    pub fn len(&self) -> usize {
        self.lock().map.len()
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
        let payload = self.lock().map.get(spec_key).cloned()?;
        let mut d = Dec::new(&payload);
        let outcome = RunOutcome::snapshot_decode(&mut d).ok()?;
        d.finish().ok()?;
        Some(outcome)
    }

    /// Appends `outcome` under `spec_key` (single `O_APPEND` write, so
    /// concurrent executors never interleave mid-record) and makes it
    /// immediately servable from this handle.
    ///
    /// # Errors
    /// Propagates the underlying IO error; the in-memory map is only
    /// updated after a successful append.
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
        inner.map.insert(spec_key.to_string(), outcome_bytes);
        Ok(())
    }

    /// Servable spec keys, sorted (deterministic listing for
    /// `--store-stats`).
    pub fn keys(&self) -> Vec<String> {
        self.lock().map.keys().cloned().collect()
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
            "  index: {}\n",
            if r.index_valid {
                "valid"
            } else if r.index_rebuilt {
                "rebuilt"
            } else {
                "unavailable"
            }
        ));
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
        // the map is a cache and the log append was a single write, so
        // continuing is safe.
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

/// A decoded log record: `(spec key, fingerprint, outcome payload)`.
type ParsedRecord = (String, CodeFingerprint, Vec<u8>);

/// Parses and verifies the frame at `offset`; returns the decoded
/// record on success.
fn verify_record(bytes: &[u8], offset: u64, expect_len: u32) -> Option<ParsedRecord> {
    let start = usize::try_from(offset).ok()?;
    let header = bytes.get(start..start + FRAME_HEADER_LEN)?;
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&header[8..16]);
    let checksum = u64::from_le_bytes(sum);
    if magic != FRAME_MAGIC || len != expect_len || len > MAX_FRAME_LEN {
        return None;
    }
    let payload = bytes.get(start + FRAME_HEADER_LEN..start + FRAME_HEADER_LEN + len as usize)?;
    if content_key(payload) != checksum {
        return None;
    }
    let mut d = Dec::new(payload);
    let fp = CodeFingerprint::decode(&mut d).ok()?;
    let key = d.str().ok()?.to_string();
    let outcome = payload[payload.len() - d.remaining()..].to_vec();
    Some((key, fp, outcome))
}

/// Scans log frames from `from`, resyncing on the frame magic after
/// damage; fills `entries` (all readable records) and `map` (records
/// matching `fingerprint`, last write wins).
fn scan_log(
    bytes: &[u8],
    from: u64,
    fingerprint: &CodeFingerprint,
    entries: &mut Vec<IdxEntry>,
    map: &mut BTreeMap<String, Vec<u8>>,
    report: &mut OpenReport,
) {
    let mut pos = from as usize;
    let mut in_damage = false;
    while pos + FRAME_HEADER_LEN <= bytes.len() {
        let magic =
            u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let len = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let parsed = if magic == FRAME_MAGIC {
            verify_record(bytes, pos as u64, len)
        } else {
            None
        };
        match parsed {
            Some((key, fp, outcome)) => {
                if in_damage {
                    in_damage = false;
                }
                entries.push(IdxEntry {
                    key_hash: store_key_hash(&key, &fp),
                    offset: pos as u64,
                    payload_len: len,
                });
                report.records += 1;
                if fp == *fingerprint {
                    report.matching += 1;
                    map.insert(key, outcome);
                }
                pos += FRAME_HEADER_LEN + len as usize;
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
}

/// Writes a fresh log file containing only the header.
fn write_log_header(path: &Path) -> std::io::Result<()> {
    let mut header = Vec::with_capacity(LOG_HEADER_LEN as usize);
    header.extend_from_slice(&LOG_MAGIC.to_le_bytes());
    header.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    std::fs::write(path, header)
}

/// Loads and fully verifies the side index; `None` means missing,
/// corrupt, from another format version, or covering more log than
/// exists (each of which demands a rescan).
fn load_index(path: &Path, log_len: u64) -> Option<Vec<IdxEntry>> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() < 36 {
        return None;
    }
    let body = &bytes[..bytes.len() - 8];
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[bytes.len() - 8..]);
    if content_key(body) != u64::from_le_bytes(sum) {
        return None;
    }
    let mut d = Dec::new(body);
    if d.u64().ok()? != IDX_MAGIC || d.u32().ok()? != STORE_FORMAT_VERSION {
        return None;
    }
    let covered = d.u64().ok()?;
    if covered != log_len {
        // Stale (appends since the rebuild) or impossible (log was
        // truncated); both demand a rescan.
        return None;
    }
    let count = d.seq_len().ok()?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(IdxEntry {
            key_hash: d.u64().ok()?,
            offset: d.u64().ok()?,
            payload_len: d.u32().ok()?,
        });
    }
    d.finish().ok()?;
    Some(entries)
}

/// Atomically (temp + rename) writes the side index covering
/// `covered_len` bytes of log.
fn write_index(path: &Path, covered_len: u64, entries: &[IdxEntry]) -> std::io::Result<()> {
    let mut e = Enc::new();
    e.u64(IDX_MAGIC);
    e.u32(STORE_FORMAT_VERSION);
    e.u64(covered_len);
    e.usize(entries.len());
    for en in entries {
        e.u64(en.key_hash);
        e.u64(en.offset);
        e.u32(en.payload_len);
    }
    let mut body = e.finish();
    let sum = content_key(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    let tmp = path.with_extension(format!("idx.tmp.{}", std::process::id()));
    std::fs::write(&tmp, &body)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RunOutcome;
    use crate::runner::{RunError, RunResult};
    use pfm_core::SimStats;
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

    fn assert_same_ok(a: &RunOutcome, b: &RunOutcome) {
        let (a, b) = (a.as_ok().unwrap(), b.as_ok().unwrap());
        assert_eq!(a.name, b.name);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.hier, b.hier);
        assert_eq!(a.fabric, b.fabric);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.arch_checksum, b.arch_checksum);
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn outcome_codec_roundtrips_every_variant() {
        let outcomes = vec![
            RunOutcome::Ok(sample_result("astar", 1_000)),
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
        assert!(report.index_rebuilt, "first reopen rebuilds the index");

        // Third open: the index now covers the whole log and is used
        // as-is.
        drop(store);
        let store = ResultStore::open(&dir, fp).unwrap();
        assert!(store.open_report().index_valid);
        assert_eq!(store.len(), 2);
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
    fn store_key_hash_separates_keys_and_fingerprints() {
        let fp1 = CodeFingerprint::fixed(1);
        let fp2 = CodeFingerprint::fixed(2);
        assert_eq!(store_key_hash("a", &fp1), store_key_hash("a", &fp1));
        assert_ne!(store_key_hash("a", &fp1), store_key_hash("b", &fp1));
        assert_ne!(store_key_hash("a", &fp1), store_key_hash("a", &fp2));
        let schema_skew = CodeFingerprint {
            stats_schema: STATS_SCHEMA_VERSION + 1,
            source_digest: 1,
        };
        assert_ne!(store_key_hash("a", &fp1), store_key_hash("a", &schema_skew));
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
        // Stale index now covers more log than exists — must also be
        // ignored and rebuilt.
        let store = ResultStore::open(&dir, fp).unwrap();
        let report = store.open_report();
        assert_eq!(report.records, 2, "intact prefix survives");
        assert_eq!(report.skipped, 1, "the torn tail is one damaged region");
        assert!(report.index_rebuilt);
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
        // Invalidate the index so the scan path is exercised.
        std::fs::remove_file(dir.join("store.idx")).unwrap();

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
    fn missing_or_garbled_index_is_rebuilt_from_the_log() {
        let (dir, fp) = seeded_store("noidx");
        let idx = dir.join("store.idx");

        // Missing index.
        std::fs::remove_file(&idx).unwrap();
        let store = ResultStore::open(&dir, fp).unwrap();
        assert_eq!(store.len(), 3);
        assert!(store.open_report().index_rebuilt);
        drop(store);

        // Garbled index (checksum cannot match).
        let mut bytes = std::fs::read(&idx).unwrap();
        bytes[10] ^= 0xff;
        std::fs::write(&idx, &bytes).unwrap();
        let store = ResultStore::open(&dir, fp).unwrap();
        assert_eq!(store.len(), 3, "a bad index costs a rescan, nothing else");
        assert!(store.open_report().index_rebuilt);
        drop(store);

        // And the rebuilt index verifies again.
        let store = ResultStore::open(&dir, fp).unwrap();
        assert!(store.open_report().index_valid);
        assert_eq!(store.len(), 3);
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
    fn index_pointing_at_tampered_log_falls_back_to_scan() {
        // The index verifies, but a record it points at was modified
        // after the rebuild (same length, flipped byte): per-record
        // verification must catch it and fall back to a full scan.
        let (dir, fp) = seeded_store("tamper");
        // Ensure a valid index covering the log exists.
        drop(ResultStore::open(&dir, fp).unwrap());
        let log = dir.join("store.log");
        let mut bytes = std::fs::read(&log).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xff; // inside the last record's payload
        std::fs::write(&log, &bytes).unwrap();

        let store = ResultStore::open(&dir, fp).unwrap();
        let report = store.open_report();
        assert!(
            !report.index_valid,
            "tampered record invalidates the index path"
        );
        assert_eq!(report.records, 2);
        assert_eq!(report.skipped, 1);
        assert!(store.get("k3").is_none());
        assert!(store.get("k1").is_some());
    }
}
