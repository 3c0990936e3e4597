//! Versioned, length-prefixed binary snapshots of simulator state.
//!
//! Every stateful type in the workspace exposes a
//! `save(&self, &mut SnapshotWriter)` / `restore(&mut self, &mut
//! SnapshotReader)` pair built on this module (the [`Snapshot`] trait).
//! The format is deliberately primitive — plain little-endian field dumps,
//! no self-description, no serde — because both sides of the pipe are the
//! same binary: a snapshot is only ever restored by the code revision that
//! wrote it, into a component constructed from the same configuration.
//! What the format *does* guarantee is loud failure:
//!
//! * an 8-byte magic plus a format version up front, so a foreign or stale
//!   file is rejected before any field is interpreted;
//! * every component wraps its fields in a named **section** — a tag, a
//!   64-bit payload length and a trailing FNV-1a checksum — so a truncated
//!   or bit-flipped file fails with the section name, never with a
//!   misaligned read silently corrupting downstream state;
//! * section nesting is enforced: a `restore` that consumes fewer or more
//!   bytes than the matching `save` wrote trips
//!   [`SnapshotError::SectionUnderrun`] / [`SnapshotError::Truncated`] at the
//!   section boundary, pinpointing the component whose field list drifted.
//!
//! Only *authoritative* state belongs in a snapshot. Anything derivable —
//! wake caches, ring-head caches, occupancy counters, scratch buffers — is
//! rebuilt on restore (see DESIGN.md's serialized-vs-rebuilt table), which
//! keeps the format small and makes "what is actually state?" an audited,
//! executable question.

use std::fmt;

/// File magic: identifies a G-Cache snapshot.
pub const MAGIC: [u8; 8] = *b"GCSNAPSH";
/// Format version; bump on any layout change.
pub const VERSION: u32 = 2;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended (or the innermost section boundary was hit) before
    /// the requested read.
    Truncated {
        /// Byte offset of the failed read.
        at: usize,
        /// Bytes requested.
        wanted: usize,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`VERSION`].
    BadVersion {
        /// Version found in the file.
        found: u32,
    },
    /// A section tag did not match the one the reader expected.
    BadSection {
        /// Tag the restore code expected.
        expected: String,
        /// Tag found in the file.
        found: String,
    },
    /// A section's payload failed its checksum (truncation or corruption).
    BadChecksum {
        /// Tag of the failing section.
        section: String,
    },
    /// A section's `restore` consumed fewer bytes than its `save` wrote.
    SectionUnderrun {
        /// Tag of the failing section.
        section: String,
        /// Unconsumed payload bytes.
        leftover: usize,
    },
    /// A value read from the file is outside its legal range (enum tag,
    /// flag byte, count).
    BadValue {
        /// What was being decoded.
        what: String,
        /// The offending raw value.
        value: u64,
    },
    /// The snapshot was taken under a different configuration or kernel
    /// than the one it is being restored into.
    Mismatch {
        /// What differed.
        what: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { at, wanted } => {
                write!(
                    f,
                    "snapshot truncated: {wanted} bytes wanted at offset {at}"
                )
            }
            SnapshotError::BadMagic => f.write_str("not a G-Cache snapshot (bad magic)"),
            SnapshotError::BadVersion { found } => {
                write!(
                    f,
                    "snapshot format version {found}, this build reads {VERSION}"
                )
            }
            SnapshotError::BadSection { expected, found } => {
                write!(f, "expected section '{expected}', found '{found}'")
            }
            SnapshotError::BadChecksum { section } => {
                write!(
                    f,
                    "checksum mismatch in section '{section}' (file truncated or corrupt)"
                )
            }
            SnapshotError::SectionUnderrun { section, leftover } => {
                write!(
                    f,
                    "section '{section}' restored with {leftover} bytes unconsumed"
                )
            }
            SnapshotError::BadValue { what, value } => {
                write!(f, "illegal value {value} decoding {what}")
            }
            SnapshotError::Mismatch { what } => {
                write!(f, "snapshot does not match this run: {what} differs")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// 64-bit FNV-1a over a byte slice — the per-section checksum, also
/// exported for cheap content fingerprints (e.g. the configuration hash a
/// checkpoint header carries so resume can reject a mismatched machine).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes state into the snapshot byte format.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    /// Stack of open sections: offset of the 8-byte length placeholder.
    open: Vec<usize>,
}

impl SnapshotWriter {
    /// Starts a snapshot: writes magic and version.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(64 * 1024);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        SnapshotWriter {
            buf,
            open: Vec::new(),
        }
    }

    /// Opens a named section; every byte written until the matching
    /// [`SnapshotWriter::end_section`] belongs to its checksummed payload.
    pub fn begin_section(&mut self, tag: &str) {
        let t = tag.as_bytes();
        assert!(t.len() <= u16::MAX as usize, "section tag too long");
        self.buf.extend_from_slice(&(t.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(t);
        self.open.push(self.buf.len());
        self.buf.extend_from_slice(&0u64.to_le_bytes());
    }

    /// Closes the innermost section: backfills its length and appends the
    /// payload checksum.
    ///
    /// # Panics
    ///
    /// Panics if no section is open (a save/restore pairing bug).
    pub fn end_section(&mut self) {
        let len_pos = self.open.pop().expect("end_section without begin_section");
        let payload_start = len_pos + 8;
        let len = (self.buf.len() - payload_start) as u64;
        self.buf[len_pos..payload_start].copy_from_slice(&len.to_le_bytes());
        let sum = fnv1a(&self.buf[payload_start..]);
        self.buf.extend_from_slice(&sum.to_le_bytes());
    }

    /// Runs `f` inside a section — the common save idiom.
    pub fn section(&mut self, tag: &str, f: impl FnOnce(&mut Self)) {
        self.begin_section(tag);
        f(self);
        self.end_section();
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (snapshots are word-size independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `i32` (two's complement, little-endian).
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes an `f64` via its IEEE-754 bit pattern — bit-exact round
    /// trips, no formatting involved.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Finishes the snapshot and returns its bytes.
    ///
    /// # Panics
    ///
    /// Panics if any section is still open.
    pub fn finish(self) -> Vec<u8> {
        assert!(self.open.is_empty(), "snapshot finished with open sections");
        self.buf
    }
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// One open section on the reader's stack.
#[derive(Debug)]
struct OpenSection {
    /// First byte past the payload (the checksum starts here).
    end: usize,
    tag: String,
}

/// Decodes the snapshot byte format, enforcing sections and checksums.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    open: Vec<OpenSection>,
}

impl<'a> SnapshotReader<'a> {
    /// Opens a snapshot: verifies magic and version.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`] / [`SnapshotError::BadVersion`] when the
    /// buffer is not a snapshot this build can read.
    pub fn new(buf: &'a [u8]) -> Result<Self, SnapshotError> {
        if buf.len() < MAGIC.len() + 4 || buf[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let found = u32::from_le_bytes(buf[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
        if found != VERSION {
            return Err(SnapshotError::BadVersion { found });
        }
        Ok(SnapshotReader {
            buf,
            pos: MAGIC.len() + 4,
            open: Vec::new(),
        })
    }

    /// The innermost read bound: the current section's payload end, or the
    /// buffer end at top level.
    fn bound(&self) -> usize {
        self.open.last().map_or(self.buf.len(), |s| s.end)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.bound() {
            return Err(SnapshotError::Truncated {
                at: self.pos,
                wanted: n,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Opens the next section, which must carry `tag`, and verifies its
    /// checksum over the whole payload before any field is interpreted.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadSection`] on a tag mismatch,
    /// [`SnapshotError::BadChecksum`] / [`SnapshotError::Truncated`] on a
    /// damaged or cut-short file.
    pub fn begin_section(&mut self, tag: &str) -> Result<(), SnapshotError> {
        let tlen = u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as usize;
        let found = String::from_utf8_lossy(self.take(tlen)?).into_owned();
        if found != tag {
            return Err(SnapshotError::BadSection {
                expected: tag.to_string(),
                found,
            });
        }
        let len = u64::from_le_bytes(self.take(8)?.try_into().unwrap()) as usize;
        if self.pos + len + 8 > self.bound() {
            return Err(SnapshotError::Truncated {
                at: self.pos,
                wanted: len + 8,
            });
        }
        let payload = &self.buf[self.pos..self.pos + len];
        let stored = u64::from_le_bytes(
            self.buf[self.pos + len..self.pos + len + 8]
                .try_into()
                .unwrap(),
        );
        if fnv1a(payload) != stored {
            return Err(SnapshotError::BadChecksum {
                section: found.clone(),
            });
        }
        self.open.push(OpenSection {
            end: self.pos + len,
            tag: found,
        });
        Ok(())
    }

    /// Closes the innermost section, requiring its payload to be exactly
    /// consumed, and skips past its checksum.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::SectionUnderrun`] when bytes are left over — the
    /// restore code read fewer fields than the save wrote.
    ///
    /// # Panics
    ///
    /// Panics if no section is open (a save/restore pairing bug).
    pub fn end_section(&mut self) -> Result<(), SnapshotError> {
        let s = self.open.pop().expect("end_section without begin_section");
        if self.pos != s.end {
            return Err(SnapshotError::SectionUnderrun {
                section: s.tag,
                leftover: s.end - self.pos,
            });
        }
        self.pos += 8;
        Ok(())
    }

    /// Runs `f` inside a section — the common restore idiom.
    pub fn section<T>(
        &mut self,
        tag: &str,
        f: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        self.begin_section(tag)?;
        let v = f(self)?;
        self.end_section()?;
        Ok(v)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` stored as `u64`.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::BadValue {
            what: "usize".to_string(),
            value: v,
        })
    }

    /// Reads an `i32`.
    pub fn i32(&mut self) -> Result<i32, SnapshotError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapshotError::BadValue {
                what: "bool".to_string(),
                value: v as u64,
            }),
        }
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        Ok(String::from_utf8_lossy(self.bytes()?).into_owned())
    }
}

/// The save/restore capability every stateful component implements.
///
/// `restore` runs against an *already constructed* value — configuration
/// and geometry are rebuilt by the constructor, only mutable runtime state
/// travels through the snapshot.
pub trait Snapshot {
    /// Serializes this component's authoritative state.
    fn save(&self, w: &mut SnapshotWriter);

    /// Restores state saved by [`Snapshot::save`] into `self`, rebuilding
    /// any derivable caches.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] when the bytes do not decode as this
    /// component's state.
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// Encode/decode hooks for payload types carried by generic containers
/// (mesh packets, MSHR targets, DRAM tokens).
pub trait SnapshotPayload: Sized {
    /// Serializes one payload value.
    fn save_payload(&self, w: &mut SnapshotWriter);

    /// Decodes one payload value.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] when the bytes do not decode as this type.
    fn restore_payload(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

impl SnapshotPayload for usize {
    fn save_payload(&self, w: &mut SnapshotWriter) {
        w.usize(*self);
    }

    fn restore_payload(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.usize()
    }
}

impl SnapshotPayload for u64 {
    fn save_payload(&self, w: &mut SnapshotWriter) {
        w.u64(*self);
    }

    fn restore_payload(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapshotWriter::new();
        w.section("prims", |w| {
            w.u8(0xab);
            w.u16(0xbeef);
            w.u32(0xdead_beef);
            w.u64(u64::MAX - 7);
            w.usize(12345);
            w.i32(-42);
            w.bool(true);
            w.bool(false);
            w.f64(std::f64::consts::PI);
            w.bytes(b"hello");
            w.str("world");
        });
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.section("prims", |r| {
            assert_eq!(r.u8()?, 0xab);
            assert_eq!(r.u16()?, 0xbeef);
            assert_eq!(r.u32()?, 0xdead_beef);
            assert_eq!(r.u64()?, u64::MAX - 7);
            assert_eq!(r.usize()?, 12345);
            assert_eq!(r.i32()?, -42);
            assert!(r.bool()?);
            assert!(!r.bool()?);
            assert_eq!(r.f64()?, std::f64::consts::PI);
            assert_eq!(r.bytes()?, b"hello");
            assert_eq!(r.str()?, "world");
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn nested_sections_round_trip() {
        let mut w = SnapshotWriter::new();
        w.section("outer", |w| {
            w.u64(1);
            w.section("inner", |w| w.u64(2));
            w.u64(3);
        });
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.section("outer", |r| {
            assert_eq!(r.u64()?, 1);
            r.section("inner", |r| {
                assert_eq!(r.u64()?, 2);
                Ok(())
            })?;
            assert_eq!(r.u64()?, 3);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            SnapshotReader::new(b"NOTASNAP\x01\x00\x00\x00").unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SnapshotReader::new(b"GC").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            SnapshotReader::new(&buf).unwrap_err(),
            SnapshotError::BadVersion { found: 99 }
        );
    }

    #[test]
    fn truncation_fails_loudly() {
        let mut w = SnapshotWriter::new();
        w.section("s", |w| w.u64(7));
        let bytes = w.finish();
        // Cut the file anywhere inside the section: the open fails.
        for cut in MAGIC.len() + 4..bytes.len() {
            let mut r = SnapshotReader::new(&bytes[..cut]).unwrap();
            assert!(r.begin_section("s").is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corruption_fails_checksum() {
        let mut w = SnapshotWriter::new();
        w.section("s", |w| w.u64(7));
        let mut bytes = w.finish();
        let last_payload = bytes.len() - 9; // inside the u64, before checksum
        bytes[last_payload] ^= 0x40;
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(
            r.begin_section("s").unwrap_err(),
            SnapshotError::BadChecksum {
                section: "s".to_string()
            }
        );
    }

    #[test]
    fn wrong_tag_rejected() {
        let mut w = SnapshotWriter::new();
        w.section("alpha", |w| w.u64(7));
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(
            r.begin_section("beta").unwrap_err(),
            SnapshotError::BadSection {
                expected: "beta".to_string(),
                found: "alpha".to_string()
            }
        );
    }

    #[test]
    fn underrun_detected() {
        let mut w = SnapshotWriter::new();
        w.section("s", |w| {
            w.u64(1);
            w.u64(2);
        });
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section("s").unwrap();
        r.u64().unwrap();
        assert_eq!(
            r.end_section().unwrap_err(),
            SnapshotError::SectionUnderrun {
                section: "s".to_string(),
                leftover: 8
            }
        );
    }

    #[test]
    fn overrun_bounded_by_section() {
        let mut w = SnapshotWriter::new();
        w.section("s", |w| w.u32(1));
        w.section("t", |w| w.u64(2));
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section("s").unwrap();
        // Reading a u64 from a 4-byte payload must not leak into 't'.
        assert!(matches!(r.u64(), Err(SnapshotError::Truncated { .. })));
    }
}
