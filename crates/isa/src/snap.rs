//! Deterministic, dependency-free snapshot serialization.
//!
//! The one snapshot is architectural: a [`Machine`](crate::Machine)'s
//! registers, PC, sequence counter and sparse memory pages, taken on the
//! functional fast-forward and restored into a detailed core whose
//! caches, predictor and fabric start cold. The result store encodes
//! its statistics and run records with the same [`Enc`]/[`Dec`] pair.
//! Either way the state is a flat little-endian byte stream, and the
//! format is deliberately minimal:
//!
//! * integers are fixed-width little-endian,
//! * sequences are a `u64` element count followed by the elements,
//! * optionals are a `u8` tag (0 = absent) followed by the payload,
//! * there is no self-description; encoder and decoder must agree on
//!   the layout (the [`SNAP_VERSION`] header at the top of every
//!   top-level snapshot guards against skew).
//!
//! Determinism is a hard requirement: the same state must always
//! produce the same bytes, because [`content_key`] over those bytes is
//! used as a run-dedup key by the sampled-run planner. Snapshot
//! encoders therefore must not iterate hash-ordered containers without
//! sorting, and must not capture wall-clock time (`pfm-lint` enforces
//! both via the `snapshot-hash-iter` / `snapshot-wall-clock` rules).

/// Version tag written at the head of every top-level snapshot. Bump
/// on any layout change; decoders reject mismatches instead of
/// misinterpreting bytes. The header is part of every sampled
/// interval's snapshot bytes, and so of its run key: changing the value
/// moves every interval key.
pub const SNAP_VERSION: u32 = 2;

/// FNV-1a offset basis shared by every checksum in the workspace
/// (content keys, commit-stream folds, architectural fingerprints).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime shared by every checksum in the workspace.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Stable content key of a snapshot byte stream: FNV-1a over the bytes
/// (plus the length, so prefixes never collide with their extension).
///
/// Equal keys are treated as equal snapshots by the run-plan dedup
/// layer, exactly like the configuration content keys elsewhere in the
/// stack.
pub fn content_key(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(FNV_PRIME)
}

/// A failed snapshot decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the expected field.
    Truncated,
    /// A decoded value is structurally impossible (bad tag, register
    /// out of range, trailing bytes, ...). The message names the field.
    Corrupt(&'static str),
    /// The snapshot was produced by an incompatible format version.
    Version {
        /// Version found in the byte stream.
        found: u32,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::Version { found } => write!(
                f,
                "snapshot version {found} incompatible with {SNAP_VERSION}"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// Snapshot encoder: appends fixed-layout little-endian fields to a
/// byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends raw bytes with no length prefix (fixed-size payloads).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed UTF-8 string (`u64` byte count +
    /// bytes).
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// Consumes the encoder and returns the byte stream.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Snapshot decoder: reads fields in the same order [`Enc`] wrote
/// them, with bounds and validity checks (a corrupt stream produces a
/// typed [`SnapError`], never a panic).
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    /// [`SnapError::Truncated`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`SnapError::Truncated`] at end of stream.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`SnapError::Truncated`] at end of stream.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`SnapError::Truncated`] at end of stream.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.bytes(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    /// Reads a `usize` encoded as `u64`.
    ///
    /// # Errors
    /// [`SnapError::Truncated`] at end of stream, or
    /// [`SnapError::Corrupt`] if the value does not fit `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Reads a sequence length and sanity-checks it against the bytes
    /// remaining (every element occupies at least one byte, so a valid
    /// length can never exceed `remaining`). This bounds allocations on
    /// corrupt input.
    ///
    /// # Errors
    /// [`SnapError::Truncated`] at end of stream, or
    /// [`SnapError::Corrupt`] if the length is impossible.
    pub fn seq_len(&mut self) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::Corrupt("sequence length exceeds stream"));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string written by [`Enc::str`].
    ///
    /// # Errors
    /// [`SnapError::Truncated`] at end of stream, or
    /// [`SnapError::Corrupt`] on an impossible length or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        let n = self.seq_len()?;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| SnapError::Corrupt("string utf-8"))
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    ///
    /// # Errors
    /// [`SnapError::Truncated`] at end of stream, or
    /// [`SnapError::Corrupt`] on a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool tag")),
        }
    }

    /// Asserts the stream is fully consumed (top-level decode only).
    ///
    /// # Errors
    /// [`SnapError::Corrupt`] if bytes remain.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::Corrupt("trailing bytes"));
        }
        Ok(())
    }
}

/// The type of a field in a [`counters!`](crate::counters) set: its codec
/// step and its window diff.
pub trait Counter: Copy {
    /// Appends the value.
    fn encode(self, e: &mut Enc);
    /// Reads a value written by [`Counter::encode`].
    ///
    /// # Errors
    /// [`SnapError`] on a truncated or corrupt stream.
    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapError>;
    /// The value over the window from `start` to `self`.
    fn delta_since(self, start: Self) -> Self;
}

/// A monotonic count: the window's share is the difference.
impl Counter for u64 {
    #[inline]
    fn encode(self, e: &mut Enc) {
        e.u64(self);
    }
    #[inline]
    fn decode(d: &mut Dec<'_>) -> Result<u64, SnapError> {
        d.u64()
    }
    #[inline]
    fn delta_since(self, start: u64) -> u64 {
        self.saturating_sub(start)
    }
}

/// A latched flag: the window reports its end value.
impl Counter for bool {
    #[inline]
    fn encode(self, e: &mut Enc) {
        e.bool(self);
    }
    #[inline]
    fn decode(d: &mut Dec<'_>) -> Result<bool, SnapError> {
        d.bool()
    }
    #[inline]
    fn delta_since(self, _start: bool) -> bool {
        self
    }
}

/// Declares a counter set: a struct whose every field is a [`Counter`]
/// (`u64` or `bool`). The declaration passes through unchanged, docs
/// and derives included. It gains `snapshot_encode` and
/// `snapshot_decode`, one [`Enc`]/[`Dec`] call per field in
/// declaration order (so reordering fields changes the bytes), and
/// `delta_since(&start)`, the set over the window from `start` to
/// `self` ([`Counter::delta_since`] per field).
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident : $ty:ty
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$field_meta])*
                $field_vis $field: $ty,
            )*
        }

        impl $name {
            /// Serializes every counter, in declaration order.
            pub fn snapshot_encode(&self, e: &mut $crate::snap::Enc) {
                $($crate::snap::Counter::encode(self.$field, e);)*
            }

            /// Decodes counters serialized by `snapshot_encode`.
            ///
            /// # Errors
            /// A snapshot error if the stream ends early or a flag byte
            /// is not 0 or 1.
            pub fn snapshot_decode(
                d: &mut $crate::snap::Dec<'_>,
            ) -> Result<$name, $crate::snap::SnapError> {
                Ok($name {
                    $($field: $crate::snap::Counter::decode(d)?,)*
                })
            }

            /// The counters over the window from `start` to `self`:
            /// counts are differences, latched flags their end value.
            pub fn delta_since(&self, start: &$name) -> $name {
                $name {
                    $($field: $crate::snap::Counter::delta_since(self.$field, start.$field),)*
                }
            }
        }
    };
}

/// Writes the [`SNAP_VERSION`] header.
pub fn write_version(e: &mut Enc) {
    e.u32(SNAP_VERSION);
}

/// Reads and validates the [`SNAP_VERSION`] header.
///
/// # Errors
/// [`SnapError::Version`] on mismatch, [`SnapError::Truncated`] at end
/// of stream.
pub fn read_version(d: &mut Dec<'_>) -> Result<(), SnapError> {
    let found = d.u32()?;
    if found != SNAP_VERSION {
        return Err(SnapError::Version { found });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Enc::new();
        e.u8(0xAB);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.bool(true);
        e.bool(false);
        e.usize(7);
        e.bytes(&[1, 2, 3]);
        let bytes = e.finish();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.usize().unwrap(), 7);
        assert_eq!(d.bytes(3).unwrap(), &[1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn string_roundtrip() {
        let mut e = Enc::new();
        e.str("astar|baseline|n1500000");
        e.str("");
        let bytes = e.finish();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.str().unwrap(), "astar|baseline|n1500000");
        assert_eq!(d.str().unwrap(), "");
        d.finish().unwrap();
    }

    #[test]
    fn invalid_utf8_string_is_typed() {
        let mut e = Enc::new();
        e.usize(2);
        e.bytes(&[0xFF, 0xFE]);
        let bytes = e.finish();
        assert_eq!(
            Dec::new(&bytes).str().unwrap_err(),
            SnapError::Corrupt("string utf-8")
        );
    }

    #[test]
    fn truncation_is_typed() {
        let mut e = Enc::new();
        e.u32(1);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u64().unwrap_err(), SnapError::Truncated);
        let mut d = Dec::new(&bytes);
        d.u32().unwrap();
        assert_eq!(d.u8().unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn corrupt_bool_and_trailing_bytes_are_typed() {
        let bytes = [2u8, 0];
        let mut d = Dec::new(&bytes);
        assert_eq!(d.bool().unwrap_err(), SnapError::Corrupt("bool tag"));
        assert_eq!(
            d.finish().unwrap_err(),
            SnapError::Corrupt("trailing bytes")
        );
    }

    #[test]
    fn seq_len_bounds_corrupt_counts() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // impossible element count
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.seq_len().unwrap_err(), SnapError::Corrupt(_)));
    }

    #[test]
    fn version_header_roundtrip_and_mismatch() {
        let mut e = Enc::new();
        write_version(&mut e);
        let bytes = e.finish();
        read_version(&mut Dec::new(&bytes)).unwrap();

        let mut e = Enc::new();
        e.u32(SNAP_VERSION + 9);
        let bytes = e.finish();
        assert_eq!(
            read_version(&mut Dec::new(&bytes)).unwrap_err(),
            SnapError::Version {
                found: SNAP_VERSION + 9
            }
        );
    }

    #[test]
    fn content_key_is_stable_and_length_sensitive() {
        assert_eq!(content_key(b"abc"), content_key(b"abc"));
        assert_ne!(content_key(b"abc"), content_key(b"abd"));
        assert_ne!(content_key(b""), content_key(b"\0"));
        assert_ne!(content_key(b"a"), content_key(b"a\0"));
    }

    crate::counters! {
        /// Two counts and a latched flag.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        struct Demo {
            /// Hits.
            hits: u64,
            /// Set once, never cleared.
            tripped: bool,
            /// Misses.
            misses: u64,
        }
    }

    #[test]
    fn counters_encode_in_declaration_order_and_diff_per_field() {
        let end = Demo {
            hits: 7,
            tripped: true,
            misses: 9,
        };
        let mut e = Enc::new();
        end.snapshot_encode(&mut e);
        let bytes = e.finish();
        let mut want = Enc::new();
        want.u64(7);
        want.bool(true);
        want.u64(9);
        assert_eq!(bytes, want.finish());
        let mut d = Dec::new(&bytes);
        assert_eq!(Demo::snapshot_decode(&mut d).unwrap(), end);
        d.finish().unwrap();
        assert_eq!(
            Demo::snapshot_decode(&mut Dec::new(&bytes[..8])).unwrap_err(),
            SnapError::Truncated
        );

        // Counts subtract (saturating); a latched flag keeps its end
        // value, whatever it was at the start.
        let start = Demo {
            hits: 2,
            tripped: false,
            misses: 10,
        };
        let window = Demo {
            hits: 5,
            tripped: true,
            misses: 0,
        };
        assert_eq!(end.delta_since(&start), window);
        let backwards = Demo {
            hits: 0,
            tripped: false,
            misses: 1,
        };
        assert_eq!(start.delta_since(&end), backwards);
    }

    #[test]
    fn errors_render() {
        for e in [
            SnapError::Truncated,
            SnapError::Corrupt("x"),
            SnapError::Version { found: 3 },
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
