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
//! crate, which owns the mapping from tag to concrete type.  A loader reads
//! every section and then [`SnapshotReader::finish`]es, so a cut file and a
//! padded one are both refused.
//!
//! The field primitives underneath are the one little-endian codec of the
//! workspace: [`ByteWriter`] and [`ByteReader`], whose failures are a
//! [`DecodeError`].  The snapshot framing adds only the header, the
//! sections and their CRCs on top; the `net` wire protocol encodes its
//! frames, and the telemetry payloads inside them, with the same pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use geom::{Point, Rect};
use std::io::Write;

/// File magic: identifies an RSMI snapshot (final byte doubles as a format
/// generation marker so future incompatible rewrites fail fast on magic).
const MAGIC: [u8; 8] = *b"RSMISNP\x01";

/// Current format version, bumped on any layout change.
const FORMAT_VERSION: u32 = 1;

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
// The byte codec: every format's little-endian primitives
// ---------------------------------------------------------------------

/// Width of the element counts and string lengths a format writes:
/// snapshots use `u64`, wire frames and their telemetry payloads `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LenWidth {
    /// Four-byte counts.
    U32,
    /// Eight-byte counts.
    U64,
}

/// A decode failure of [`ByteReader`]; [`PersistError`] and the wire's
/// error type convert from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes end before the announced data does.
    Truncated,
    /// The bytes decode but describe an impossible value.
    Corrupt(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated"),
            DecodeError::Corrupt(msg) => write!(f, "corrupt: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for PersistError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => PersistError::Truncated,
            DecodeError::Corrupt(msg) => PersistError::Corrupt(msg),
        }
    }
}

/// Little-endian byte writer shared by snapshots, wire frames and
/// telemetry payloads.  Floats are stored as their IEEE-754 bit patterns,
/// so values (including infinities in empty MBRs) round-trip exactly.
#[derive(Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
    width: LenWidth,
}

impl ByteWriter {
    /// An empty writer whose counts and lengths are `width` wide.
    pub fn new(width: LenWidth) -> Self {
        Self::with_capacity(width, 0)
    }

    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(width: LenWidth, capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            width,
        }
    }

    /// Returns the written bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends bytes as they are, with no length prefix.
    #[inline]
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u8`.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u16`, little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an element count or byte length at the writer's width.
    ///
    /// # Panics
    /// Panics if `n` does not fit a `u32` under [`LenWidth::U32`].
    #[inline]
    pub fn put_len(&mut self, n: usize) {
        match self.width {
            LenWidth::U32 => self.put_u32(u32::try_from(n).expect("count fits a u32")),
            LenWidth::U64 => self.put_usize(n),
        }
    }

    /// Appends an `Option<usize>` as a presence byte plus a `u64`.
    pub fn put_opt_usize(&mut self, v: Option<usize>) {
        self.put_bool(v.is_some());
        if let Some(v) = v {
            self.put_usize(v);
        }
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed slice of `f64`s.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_len(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Appends a length-prefixed slice of `u64`s.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_len(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends a length-prefixed raw byte string (embedded inner snapshots,
    /// telemetry payloads).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_len(bytes.len());
        self.put_raw(bytes);
    }

    /// Appends a [`Point`] (`x`, `y`, `id`).
    #[inline]
    pub fn put_point(&mut self, p: &Point) {
        self.put_f64(p.x);
        self.put_f64(p.y);
        self.put_u64(p.id);
    }

    /// Appends a [`Rect`] (`min_x`, `min_y`, `max_x`, `max_y`).
    #[inline]
    pub fn put_rect(&mut self, r: &Rect) {
        self.put_f64(r.min_x);
        self.put_f64(r.min_y);
        self.put_f64(r.max_x);
        self.put_f64(r.max_y);
    }
}

/// Bounds-checked little-endian reader, the inverse of [`ByteWriter`].
/// Every read is checked against the bytes present, and every element
/// count against the bytes remaining before the caller allocates, so
/// malformed input is a [`DecodeError`], never a panic or a huge reserve.
#[derive(Debug)]
pub struct ByteReader<'a> {
    /// The bytes not yet read.
    rest: &'a [u8],
    width: LenWidth,
}

impl<'a> ByteReader<'a> {
    /// A reader over `data` whose counts and lengths are `width` wide.
    pub fn new(data: &'a [u8], width: LenWidth) -> Self {
        Self { rest: data, width }
    }

    /// Bytes left to read.
    #[inline]
    fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Rejects trailing bytes: a well-formed message is consumed exactly.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::Corrupt(format!("{n} trailing bytes"))),
        }
    }

    /// Reads the next `n` bytes as they are.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, tail) = self
            .rest
            .split_at_checked(n)
            .ok_or(DecodeError::Truncated)?;
        self.rest = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, tail) = self
            .rest
            .split_first_chunk()
            .ok_or(DecodeError::Truncated)?;
        self.rest = tail;
        Ok(*head)
    }

    /// Reads a `u8`.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `i64`.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads a `usize` stored as `u64`.
    #[inline]
    pub fn get_usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| DecodeError::Corrupt("count exceeds address space".into()))
    }

    /// Reads an element count at the reader's width and validates it
    /// against the bytes actually remaining (each element occupying at
    /// least `min_elem_bytes`), so a corrupt length cannot trigger a huge
    /// allocation.
    #[inline]
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = match self.width {
            LenWidth::U32 => self.get_u32()? as usize,
            LenWidth::U64 => self.get_usize()?,
        };
        if n.checked_mul(min_elem_bytes.max(1))
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(self.overrun(n));
        }
        Ok(n)
    }

    /// The error of a count the remaining bytes cannot hold; kept out of
    /// line so [`ByteReader::get_len`] inlines into every decoder.
    #[cold]
    fn overrun(&self, n: usize) -> DecodeError {
        DecodeError::Corrupt(format!(
            "element count {n} overruns the {} bytes left",
            self.remaining()
        ))
    }

    /// Reads an `Option<usize>`.
    pub fn get_opt_usize(&mut self) -> Result<Option<usize>, DecodeError> {
        if self.get_bool()? {
            Ok(Some(self.get_usize()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a reference into a table of `bound` entries (a node, block or
    /// child index), refusing one at or past the bound.
    #[inline]
    pub fn get_index(&mut self, bound: usize) -> Result<usize, DecodeError> {
        check_index(self.get_usize()?, bound)
    }

    /// Reads an optional [`ByteReader::get_index`] reference.
    pub fn get_opt_index(&mut self, bound: usize) -> Result<Option<usize>, DecodeError> {
        self.get_opt_usize()?
            .map(|i| check_index(i, bound))
            .transpose()
    }

    /// Reads a length-prefixed list of [`ByteReader::get_index`]
    /// references; the count is checked before anything is allocated.
    pub fn get_indices(&mut self, bound: usize) -> Result<Vec<usize>, DecodeError> {
        let n = self.get_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_index(bound)?);
        }
        Ok(out)
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.get_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, DecodeError> {
        let n = self.get_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Reads the next `n` bytes as a UTF-8 string.
    pub fn get_utf8(&mut self, n: usize) -> Result<String, DecodeError> {
        std::str::from_utf8(self.take(n)?)
            .map(str::to_string)
            .map_err(|_| DecodeError::Corrupt("string is not UTF-8".into()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let n = self.get_len(1)?;
        self.get_utf8(n)
    }

    /// Reads a length-prefixed raw byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.get_len(1)?;
        self.take(n)
    }

    /// Reads a [`Point`].
    #[inline]
    pub fn get_point(&mut self) -> Result<Point, DecodeError> {
        let x = self.get_f64()?;
        let y = self.get_f64()?;
        let id = self.get_u64()?;
        Ok(Point::with_id(x, y, id))
    }

    /// Reads a [`Rect`] (exact bit patterns; corners are not re-ordered so
    /// the "impossible" empty rectangle round-trips unchanged).
    #[inline]
    pub fn get_rect(&mut self) -> Result<Rect, DecodeError> {
        Ok(Rect {
            min_x: self.get_f64()?,
            min_y: self.get_f64()?,
            max_x: self.get_f64()?,
            max_y: self.get_f64()?,
        })
    }
}

/// Checks a decoded reference into a table of `bound` entries: the one
/// range check behind [`ByteReader::get_index`], for a reference read
/// before its table's size is known (a root stored ahead of its nodes).
#[inline]
pub fn check_index(index: usize, bound: usize) -> Result<usize, DecodeError> {
    if index >= bound {
        return Err(out_of_range(index, bound));
    }
    Ok(index)
}

#[cold]
fn out_of_range(index: usize, bound: usize) -> DecodeError {
    DecodeError::Corrupt(format!(
        "reference {index} out of range: the table holds {bound} entries"
    ))
}

// ---------------------------------------------------------------------
// Snapshot framing
// ---------------------------------------------------------------------

/// Serialises one snapshot: header first, then any number of checksummed
/// sections.  The field primitives are [`ByteWriter`]'s (through `Deref`),
/// with `u64` counts and lengths.
#[derive(Debug)]
pub struct SnapshotWriter {
    out: ByteWriter,
    /// `(tag, payload start offset)` of the currently open section.
    open: Option<(u32, usize)>,
}

impl std::ops::Deref for SnapshotWriter {
    type Target = ByteWriter;

    #[inline]
    fn deref(&self) -> &ByteWriter {
        &self.out
    }
}

impl std::ops::DerefMut for SnapshotWriter {
    #[inline]
    fn deref_mut(&mut self) -> &mut ByteWriter {
        &mut self.out
    }
}

impl SnapshotWriter {
    /// Starts a snapshot for the index family with the given display name
    /// (the kind tag the loader dispatches on).
    pub fn new(kind: &str) -> Self {
        let mut out = ByteWriter::with_capacity(LenWidth::U64, 4096);
        out.put_raw(&MAGIC);
        out.put_u32(FORMAT_VERSION);
        let name = kind.as_bytes();
        out.put_u16(u16::try_from(name.len()).expect("kind tag too long"));
        out.put_raw(name);
        Self { out, open: None }
    }

    /// Opens a section.  Sections do not nest: composite formats (the
    /// sharded container) embed inner snapshots as opaque byte strings.
    pub fn begin_section(&mut self, tag: u32) {
        assert!(self.open.is_none(), "sections do not nest");
        self.out.put_u32(tag);
        self.out.put_u64(0); // patched in end_section
        self.open = Some((tag, self.out.buf.len()));
    }

    /// Closes the open section, patching its length and appending the CRC32
    /// of its payload.
    pub fn end_section(&mut self) {
        let (_, start) = self.open.take().expect("no open section");
        let buf = &mut self.out.buf;
        let len = (buf.len() - start) as u64;
        buf[start - 8..start].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&buf[start..]);
        self.out.put_u32(crc);
    }

    /// Finishes the snapshot and returns the serialised bytes.
    pub fn finish(self) -> Vec<u8> {
        assert!(self.open.is_none(), "unclosed section");
        self.out.into_bytes()
    }
}

/// Deserialises one snapshot.  [`SnapshotReader::open`] validates magic and
/// version and returns the kind tag; sections are then read in the order they
/// were written, each verified against its checksum before any field is
/// decoded.  Inside a section the field primitives are [`ByteReader`]'s
/// (through `Deref`), bounded by the section's payload.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    /// The file, positioned at the next section header.
    file: ByteReader<'a>,
    /// The open section's payload (empty outside sections).
    section: ByteReader<'a>,
    in_section: bool,
}

impl<'a> std::ops::Deref for SnapshotReader<'a> {
    type Target = ByteReader<'a>;

    #[inline]
    fn deref(&self) -> &ByteReader<'a> {
        &self.section
    }
}

impl<'a> std::ops::DerefMut for SnapshotReader<'a> {
    #[inline]
    fn deref_mut(&mut self) -> &mut ByteReader<'a> {
        &mut self.section
    }
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
        let mut file = ByteReader::new(&data[MAGIC.len()..], LenWidth::U64);
        let version = file.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let name_len = usize::from(file.get_u16()?);
        let kind = file.get_utf8(name_len)?;
        let section = ByteReader::new(&[], LenWidth::U64);
        Ok((
            kind,
            Self {
                file,
                section,
                in_section: false,
            },
        ))
    }

    /// Opens the next section, verifying its tag and checksum.  Returns
    /// [`PersistError::Corrupt`] when the tag differs from `expected`,
    /// [`PersistError::Truncated`] when the announced payload overruns the
    /// file, and [`PersistError::ChecksumMismatch`] when the payload fails
    /// verification.
    pub fn begin_section(&mut self, expected: u32) -> Result<(), PersistError> {
        assert!(!self.in_section, "sections do not nest");
        let tag = self.file.get_u32()?;
        if tag != expected {
            return Err(PersistError::Corrupt(format!(
                "expected section 0x{expected:04x}, found 0x{tag:04x}"
            )));
        }
        let len = usize::try_from(self.file.get_u64()?).map_err(|_| PersistError::Truncated)?;
        if len.checked_add(4).is_none_or(|n| n > self.file.remaining()) {
            return Err(PersistError::Truncated);
        }
        let payload = self.file.take(len)?;
        if crc32(payload) != self.file.get_u32()? {
            return Err(PersistError::ChecksumMismatch { tag });
        }
        self.section = ByteReader::new(payload, LenWidth::U64);
        self.in_section = true;
        Ok(())
    }

    /// Closes the open section, skipping any unread payload.
    pub fn end_section(&mut self) -> Result<(), PersistError> {
        assert!(self.in_section, "no open section");
        self.section = ByteReader::new(&[], LenWidth::U64);
        self.in_section = false;
        Ok(())
    }

    /// Checks that the snapshot ends after the last section read: a file
    /// with bytes appended is refused, not loaded with them ignored.
    pub fn finish(self) -> Result<(), PersistError> {
        assert!(!self.in_section, "unclosed section");
        Ok(self.file.finish()?)
    }
}

// ---------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------

/// Writes snapshot bytes to a file (see [`write_file_with`]).
pub fn write_file(path: &std::path::Path, bytes: &[u8]) -> Result<(), PersistError> {
    write_file_with(path, |file| file.write_all(bytes))
}

/// Replaces the file at `path` with what `write` writes, so that a crash
/// or a failure mid-save never cuts the file already there: `write` fills
/// a sibling temporary file (`path` plus `.tmp`), which is synced, renamed
/// over `path`, and the directory synced.  On failure the temporary file
/// is removed and `path` is left as it was.
pub fn write_file_with(
    path: &std::path::Path,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> Result<(), PersistError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let saved = (|| -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        write(&mut file)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        if cfg!(unix) {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")))?.sync_all()?;
        }
        Ok(())
    })();
    if saved.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    saved.map_err(PersistError::Io)
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
        assert!(matches!(r.get_f64s(), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_after_the_last_section_are_refused() {
        let mut bytes = sample();
        let read_all = |bytes: &[u8]| -> Result<(), PersistError> {
            let (_, mut r) = SnapshotReader::open(bytes)?;
            for tag in [TAG, TAG + 1] {
                r.begin_section(tag)?;
                r.end_section()?;
            }
            r.finish()
        };
        read_all(&bytes).unwrap();
        bytes.push(0);
        assert!(
            matches!(read_all(&bytes), Err(PersistError::Corrupt(m)) if m.contains("trailing"))
        );
    }

    #[test]
    fn counts_and_lengths_take_the_codec_width() {
        for (width, count_bytes) in [(LenWidth::U32, 4), (LenWidth::U64, 8)] {
            let mut w = ByteWriter::new(width);
            w.put_str("ab");
            w.put_u64s(&[7]);
            w.put_i64(-3);
            w.put_u16(0xBEEF);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), 2 * count_bytes + 2 + 8 + 8 + 2);
            let mut r = ByteReader::new(&bytes, width);
            assert_eq!(r.get_str().unwrap(), "ab");
            assert_eq!(r.get_u64s().unwrap(), [7]);
            assert_eq!(r.get_i64().unwrap(), -3);
            assert_eq!(r.get_u16().unwrap(), 0xBEEF);
            r.finish().unwrap();
        }
        let mut r = ByteReader::new(&[2], LenWidth::U32);
        assert!(matches!(r.get_bool(), Err(DecodeError::Corrupt(_))));
        let r = ByteReader::new(&[0], LenWidth::U32);
        assert!(matches!(r.finish(), Err(DecodeError::Corrupt(m)) if m.contains("trailing")));
        let mut r = ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF], LenWidth::U32);
        assert!(matches!(r.get_len(1), Err(DecodeError::Corrupt(_))));
        assert!(matches!(r.get_u8(), Err(DecodeError::Truncated)));
    }

    #[test]
    fn references_must_lie_below_their_bound() {
        let mut w = ByteWriter::new(LenWidth::U64);
        for i in [2, 3, 4] {
            w.put_usize(i);
        }
        for i in [Some(2), Some(3), None] {
            w.put_opt_usize(i);
        }
        w.put_u64s(&[0, 2]);
        w.put_u64s(&[1, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, LenWidth::U64);
        fn corrupt<T>(got: Result<T, DecodeError>) -> bool {
            matches!(got, Err(DecodeError::Corrupt(_)))
        }
        // In range, at the bound, past the bound.
        assert_eq!(r.get_index(3), Ok(2));
        assert!(corrupt(r.get_index(3)));
        assert!(corrupt(r.get_index(3)));
        // The optional form: in range, at the bound, absent.
        assert_eq!(r.get_opt_index(3), Ok(Some(2)));
        assert!(corrupt(r.get_opt_index(3)));
        assert_eq!(r.get_opt_index(0), Ok(None));
        // The list form: every entry in range, then one at the bound.
        assert_eq!(r.get_indices(3), Ok(vec![0, 2]));
        assert!(corrupt(r.get_indices(3)));
        assert_eq!(check_index(0, 1), Ok(0));
        assert!(matches!(check_index(1, 1), Err(DecodeError::Corrupt(m)) if m.contains('1')));
        // An absurd list count is refused before anything is allocated.
        let mut r = ByteReader::new(&[0xFF; 8], LenWidth::U64);
        assert!(corrupt(r.get_indices(usize::MAX)));
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
