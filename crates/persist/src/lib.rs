//! Versioned binary snapshot format for index persistence.
//!
//! The paper's whole design is external-memory style: an index is built once
//! and then *served* from block storage.  This crate provides the on-disk
//! format that makes a build survive a restart — a deliberately boring,
//! hand-rolled, little-endian container (no serde; the build environment is
//! offline and the vendor policy keeps dependencies at zero):
//!
//! ```text
//! [8]  magic      b"RSMISNP\x01"
//! [4]  version    u32 LE (currently 1)
//! [2+] kind tag   u16 length + UTF-8 display name of the index family
//! ...  sections   repeated: [4] tag | [8] payload length | payload | [4] CRC32
//! ```
//!
//! Every section's payload is protected by a CRC32 (IEEE) checksum, so
//! truncation and bit rot are detected at load time and reported as a typed
//! [`PersistError`] — loading never panics on malformed input.
//!
//! Index families serialise themselves through [`SnapshotWriter`] /
//! [`SnapshotReader`]; the dispatch by kind tag lives in the `registry`
//! crate, which owns the mapping from tag to concrete type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use geom::{Point, Rect};

/// File magic: identifies an RSMI snapshot (final byte doubles as a format
/// generation marker so future incompatible rewrites fail fast on magic).
pub const MAGIC: [u8; 8] = *b"RSMISNP\x01";

/// Current format version, bumped on any layout change.
pub const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Everything that can go wrong while saving or loading a snapshot.
///
/// Malformed input is *always* reported through this type; the reader never
/// panics on untrusted bytes.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's format version is not one this build can read.
    UnsupportedVersion(u32),
    /// The file ends before the announced data does.
    Truncated,
    /// A section's payload does not match its stored CRC32.
    ChecksumMismatch {
        /// Tag of the failing section.
        tag: u32,
    },
    /// The bytes decode but describe an impossible structure.
    Corrupt(String),
    /// The kind tag names no registered index family.
    UnknownKind(String),
    /// The index family has no snapshot support (third-party trait impls).
    Unsupported(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            PersistError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            PersistError::Truncated => write!(f, "snapshot file is truncated"),
            PersistError::ChecksumMismatch { tag } => {
                write!(f, "checksum mismatch in section 0x{tag:04x}")
            }
            PersistError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            PersistError::UnknownKind(kind) => {
                write!(f, "snapshot holds unknown index kind '{kind}'")
            }
            PersistError::Unsupported(name) => {
                write!(f, "index family '{name}' does not support snapshots")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3), slice-by-8; the tables are built at compile time.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// `CRC_TABLES[k][b]` is the CRC register contribution of byte `b`
/// followed by `k` zero bytes, so eight table lookups advance the register
/// over eight bytes at once.  `CRC_TABLES[0]` is the bytewise table.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = crc32_table();
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of a byte slice, the per-section checksum of the format and
/// of every wire frame.  Eight bytes per step, then the tail bytewise.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Serialises one snapshot: header first, then any number of checksummed
/// sections.  All integers are little-endian; floats are stored as their
/// IEEE-754 bit patterns, so values (including infinities in empty MBRs)
/// round-trip exactly.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    /// `(tag, payload start offset)` of the currently open section.
    open: Option<(u32, usize)>,
}

impl SnapshotWriter {
    /// Starts a snapshot for the index family with the given display name
    /// (the kind tag the loader dispatches on).
    pub fn new(kind: &str) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        let name = kind.as_bytes();
        assert!(name.len() <= u16::MAX as usize, "kind tag too long");
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name);
        Self { buf, open: None }
    }

    /// Opens a section.  Sections do not nest: composite formats (the
    /// sharded container) embed inner snapshots as opaque byte strings.
    pub fn begin_section(&mut self, tag: u32) {
        assert!(self.open.is_none(), "sections do not nest");
        self.buf.extend_from_slice(&tag.to_le_bytes());
        self.buf.extend_from_slice(&0u64.to_le_bytes()); // patched in end_section
        self.open = Some((tag, self.buf.len()));
    }

    /// Closes the open section, patching its length and appending the CRC32
    /// of its payload.
    pub fn end_section(&mut self) {
        let (_, start) = self.open.take().expect("no open section");
        let len = (self.buf.len() - start) as u64;
        let len_at = start - 8;
        self.buf[len_at..start].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.buf[start..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
    }

    /// Finishes the snapshot and returns the serialised bytes.
    pub fn finish(self) -> Vec<u8> {
        assert!(self.open.is_none(), "unclosed section");
        self.buf
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `Option<usize>` as a presence byte plus a `u64`.
    pub fn put_opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(v) => {
                self.put_bool(true);
                self.put_usize(v);
            }
            None => {
                self.put_bool(false);
            }
        }
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed slice of `f64`s.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Appends a length-prefixed slice of `u64`s.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed raw byte string (used for embedded inner
    /// snapshots).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a [`Point`] (`x`, `y`, `id`).
    pub fn put_point(&mut self, p: &Point) {
        self.put_f64(p.x);
        self.put_f64(p.y);
        self.put_u64(p.id);
    }

    /// Appends a [`Rect`] (`min_x`, `min_y`, `max_x`, `max_y`).
    pub fn put_rect(&mut self, r: &Rect) {
        self.put_f64(r.min_x);
        self.put_f64(r.min_y);
        self.put_f64(r.max_x);
        self.put_f64(r.max_y);
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Deserialises one snapshot.  [`SnapshotReader::open`] validates magic and
/// version and returns the kind tag; sections are then read in the order they
/// were written, each verified against its checksum before any field is
/// decoded.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// End of the open section's payload (`data.len()` outside sections).
    limit: usize,
    in_section: bool,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the header and returns the kind tag plus a reader
    /// positioned at the first section.
    pub fn open(data: &'a [u8]) -> Result<(String, Self), PersistError> {
        if data.len() < MAGIC.len() + 4 + 2 {
            // Too short to even hold a header: distinguish "not our file"
            // from "our file, cut short" by whatever magic prefix exists.
            if data.len() >= MAGIC.len() && data[..MAGIC.len()] == MAGIC {
                return Err(PersistError::Truncated);
            }
            return Err(PersistError::BadMagic);
        }
        if data[..MAGIC.len()] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let mut r = Self {
            data,
            pos: MAGIC.len(),
            limit: data.len(),
            in_section: false,
        };
        let version = r.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let name_len = r.get_u16()? as usize;
        let name_bytes = r.take(name_len)?;
        let kind = std::str::from_utf8(name_bytes)
            .map_err(|_| PersistError::Corrupt("kind tag is not UTF-8".into()))?
            .to_string();
        Ok((kind, r))
    }

    /// Opens the next section, verifying its tag and checksum.  Returns
    /// [`PersistError::Corrupt`] when the tag differs from `expected`,
    /// [`PersistError::Truncated`] when the announced payload overruns the
    /// file, and [`PersistError::ChecksumMismatch`] when the payload fails
    /// verification.
    pub fn begin_section(&mut self, expected: u32) -> Result<(), PersistError> {
        assert!(!self.in_section, "sections do not nest");
        let tag = self.get_u32()?;
        if tag != expected {
            return Err(PersistError::Corrupt(format!(
                "expected section 0x{expected:04x}, found 0x{tag:04x}"
            )));
        }
        let len = self.get_u64()? as usize;
        if self
            .pos
            .checked_add(len)
            .and_then(|end| end.checked_add(4))
            .is_none_or(|end| end > self.data.len())
        {
            return Err(PersistError::Truncated);
        }
        let payload = &self.data[self.pos..self.pos + len];
        let stored = u32::from_le_bytes(
            self.data[self.pos + len..self.pos + len + 4]
                .try_into()
                .expect("4 bytes"),
        );
        if crc32(payload) != stored {
            return Err(PersistError::ChecksumMismatch { tag });
        }
        self.limit = self.pos + len;
        self.in_section = true;
        Ok(())
    }

    /// Returns the tag of the next section without consuming it, so callers
    /// can dispatch on versioned section layouts (e.g. the block store's
    /// v1/v2 formats) before committing to [`SnapshotReader::begin_section`].
    ///
    /// # Panics
    /// Panics if called while a section is open (sections do not nest).
    pub fn peek_section_tag(&self) -> Result<u32, PersistError> {
        assert!(!self.in_section, "peek_section_tag inside a section");
        if self.pos.checked_add(4).is_none_or(|end| end > self.limit) {
            return Err(PersistError::Truncated);
        }
        Ok(u32::from_le_bytes(
            self.data[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes"),
        ))
    }

    /// Closes the open section, skipping any unread payload and the CRC.
    pub fn end_section(&mut self) -> Result<(), PersistError> {
        assert!(self.in_section, "no open section");
        self.pos = self.limit + 4; // checksum already verified in begin_section
        self.limit = self.data.len();
        self.in_section = false;
        Ok(())
    }

    /// Bytes left in the current section (or file).
    pub fn remaining(&self) -> usize {
        self.limit - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.pos.checked_add(n).is_none_or(|end| end > self.limit) {
            return Err(PersistError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `usize` stored as `u64`.
    pub fn get_usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| PersistError::Corrupt("count exceeds address space".into()))
    }

    /// Reads an element count and validates it against the bytes actually
    /// remaining (each element occupying at least `min_elem_bytes`), so a
    /// corrupt length cannot trigger a huge allocation.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, PersistError> {
        let n = self.get_usize()?;
        if n.checked_mul(min_elem_bytes.max(1))
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(PersistError::Corrupt(format!(
                "element count {n} overruns its section"
            )));
        }
        Ok(n)
    }

    /// Reads an `Option<usize>`.
    pub fn get_opt_usize(&mut self) -> Result<Option<usize>, PersistError> {
        if self.get_bool()? {
            Ok(Some(self.get_usize()?))
        } else {
            Ok(None)
        }
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.get_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, PersistError> {
        let n = self.get_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let n = self.get_len(1)?;
        let bytes = self.take(n)?;
        Ok(std::str::from_utf8(bytes)
            .map_err(|_| PersistError::Corrupt("string is not UTF-8".into()))?
            .to_string())
    }

    /// Reads a length-prefixed raw byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.get_len(1)?;
        self.take(n)
    }

    /// Reads a [`Point`].
    pub fn get_point(&mut self) -> Result<Point, PersistError> {
        let x = self.get_f64()?;
        let y = self.get_f64()?;
        let id = self.get_u64()?;
        Ok(Point::with_id(x, y, id))
    }

    /// Reads a [`Rect`] (exact bit patterns; corners are not re-ordered so
    /// the "impossible" empty rectangle round-trips unchanged).
    pub fn get_rect(&mut self) -> Result<Rect, PersistError> {
        let mut r = Rect::empty();
        r.min_x = self.get_f64()?;
        r.min_y = self.get_f64()?;
        r.max_x = self.get_f64()?;
        r.max_y = self.get_f64()?;
        Ok(r)
    }
}

// ---------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------

/// Writes snapshot bytes to a file.
pub fn write_file(path: &std::path::Path, bytes: &[u8]) -> Result<(), PersistError> {
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Reads snapshot bytes from a file.
pub fn read_file(path: &std::path::Path) -> Result<Vec<u8>, PersistError> {
    Ok(std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG: u32 = 0x0042;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new("Demo");
        w.begin_section(TAG);
        w.put_u64(7);
        w.put_f64(0.25);
        w.put_bool(true);
        w.put_opt_usize(Some(9));
        w.put_opt_usize(None);
        w.put_point(&Point::with_id(0.1, 0.9, 3));
        w.put_rect(&Rect::new(0.0, 0.0, 1.0, 1.0));
        w.put_str("hello");
        w.put_f64s(&[1.0, f64::INFINITY, f64::NEG_INFINITY]);
        w.end_section();
        w.begin_section(TAG + 1);
        w.put_bytes(b"nested blob");
        w.end_section();
        w.finish()
    }

    #[test]
    fn roundtrip_all_primitives() {
        let bytes = sample();
        let (kind, mut r) = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(kind, "Demo");
        r.begin_section(TAG).unwrap();
        assert_eq!(r.get_u64().unwrap(), 7);
        assert_eq!(r.get_f64().unwrap(), 0.25);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_opt_usize().unwrap(), Some(9));
        assert_eq!(r.get_opt_usize().unwrap(), None);
        let p = r.get_point().unwrap();
        assert_eq!((p.x, p.y, p.id), (0.1, 0.9, 3));
        assert_eq!(r.get_rect().unwrap(), Rect::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(r.get_str().unwrap(), "hello");
        let v = r.get_f64s().unwrap();
        assert_eq!(v[0], 1.0);
        assert!(v[1].is_infinite() && v[1] > 0.0);
        assert!(v[2].is_infinite() && v[2] < 0.0);
        r.end_section().unwrap();
        r.begin_section(TAG + 1).unwrap();
        assert_eq!(r.get_bytes().unwrap(), b"nested blob");
        r.end_section().unwrap();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn empty_rect_roundtrips_exactly() {
        let mut w = SnapshotWriter::new("Demo");
        w.begin_section(TAG);
        w.put_rect(&Rect::empty());
        w.end_section();
        let bytes = w.finish();
        let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
        r.begin_section(TAG).unwrap();
        let e = r.get_rect().unwrap();
        assert!(e.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapshotReader::open(&bytes),
            Err(PersistError::BadMagic)
        ));
        assert!(matches!(
            SnapshotReader::open(b"short"),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            SnapshotReader::open(&bytes),
            Err(PersistError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample();
        // Cut into the final section's checksum.
        let cut = &bytes[..bytes.len() - 2];
        let (_, mut r) = SnapshotReader::open(cut).unwrap();
        r.begin_section(TAG).unwrap();
        r.end_section().unwrap();
        assert!(matches!(
            r.begin_section(TAG + 1),
            Err(PersistError::Truncated)
        ));
        // Cut mid-header.
        let cut = &bytes[..MAGIC.len() + 2];
        assert!(matches!(
            SnapshotReader::open(cut),
            Err(PersistError::Truncated)
        ));
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let mut bytes = sample();
        // Flip one payload byte of the first section (header is
        // 8 + 4 + 2 + 4 bytes, then 4 tag + 8 len).
        let payload_at = 8 + 4 + 2 + "Demo".len() + 4 + 8;
        bytes[payload_at] ^= 0x01;
        let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            r.begin_section(TAG),
            Err(PersistError::ChecksumMismatch { tag: TAG })
        ));
    }

    #[test]
    fn wrong_section_tag_is_corrupt() {
        let bytes = sample();
        let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            r.begin_section(TAG + 5),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_corrupt_not_oom() {
        let mut w = SnapshotWriter::new("Demo");
        w.begin_section(TAG);
        w.put_usize(usize::MAX / 2); // claims an absurd element count
        w.end_section();
        let bytes = w.finish();
        let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
        r.begin_section(TAG).unwrap();
        assert!(matches!(r.get_f64s(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop slice-by-8 replaced: the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table = crc32_table();
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_byte = || {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 56) as u8
        };
        // Every length through 300 at every start offset within a word.
        let buf: Vec<u8> = (0..308).map(|_| next_byte()).collect();
        for start in 0..8 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {start}, length {len}");
            }
        }
        // Seeded buffers of up to 16 KiB.
        for round in 0..40 {
            let len = (next_byte() as usize) << 6 | next_byte() as usize;
            let buf: Vec<u8> = (0..len).map(|_| next_byte()).collect();
            assert_eq!(
                crc32(&buf),
                crc32_bytewise(&buf),
                "round {round}, length {len}"
            );
        }
    }

    #[test]
    fn errors_display_and_convert() {
        let e = PersistError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "x"));
        assert!(e.to_string().contains("I/O"));
        assert!(PersistError::BadMagic.to_string().contains("magic"));
        assert!(PersistError::UnknownKind("Zq".into())
            .to_string()
            .contains("Zq"));
    }
}
