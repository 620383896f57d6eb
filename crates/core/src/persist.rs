//! Index persistence.
//!
//! **Format `NNCELL03`** (current): an 8-byte magic, the payload — the
//! dimensionality, the point tree's block size (always 4096; validated on
//! load, then ignored), and every point slot with its liveness flag — and
//! a CRC32 (IEEE) trailer over everything before it. [`NnCellIndex::load`] verifies the checksum before parsing, so a
//! bit flip anywhere in the file is a typed [`PersistError::Corrupt`] —
//! never a panic, and never a silently wrong index. Loading STR-bulk-loads
//! the point tree over the live points, exactly as a build does.
//!
//! **Formats `NNCELL02`** (checksummed) **and `NNCELL01`** (legacy, no
//! checksum) carried each point's NN-cell pieces and the cell
//! construction settings as well. Both still load: the checksum, the
//! settings and the cell section are validated as before, then the cells
//! are dropped (the serving index holds none; the `nncell-cells` crate
//! recomputes them on demand).
//!
//! Every size field read from disk is validated against the actual number
//! of bytes present *before* any allocation, so a corrupted count cannot
//! trigger an out-of-memory abort either.
//!
//! Only the Euclidean index is persistable: the metric is not serialized.

use crate::config::BuildConfig;
use crate::index::{NnCellIndex, PAGE_BYTES};
use crate::vfs::{write_atomic, StdVfs, Vfs};
use nncell_geom::{Euclidean, Point};
use std::io;
use std::path::Path;

const MAGIC_V3: &[u8; 8] = b"NNCELL03";
const MAGIC_V2: &[u8; 8] = b"NNCELL02";
const MAGIC_V1: &[u8; 8] = b"NNCELL01";

/// The largest per-cell piece count the legacy formats could hold.
const LEGACY_MAX_PIECES: usize = 1 << 10;
/// The largest strategy and LP-solver tags the legacy formats wrote.
const LEGACY_MAX_TAG: u8 = 4;
/// Failures of [`NnCellIndex::save`] / [`NnCellIndex::load`].
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a (compatible) NN-cell index dump.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt index file: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

// ----------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ----------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 of `bytes` (IEEE; matches zlib's `crc32(0, ...)`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ----------------------------------------------------------------------
// bounded slice reader
// ----------------------------------------------------------------------

/// Cursor over the in-memory payload; every read is bounds-checked and a
/// short read is a typed corruption error, never a panic.
struct SliceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(corrupt("truncated file"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

impl NnCellIndex<Euclidean> {
    /// Writes the index (points, liveness, block size) to `path` in the
    /// checksummed `NNCELL03` format.
    ///
    /// The write is **crash-safe**: the bytes go to a fsynced sibling
    /// `.tmp` file that is renamed over `path` (then the directory is
    /// synced). A crash at any instant leaves either the previous file or
    /// the complete new one — a plain `save` can no longer destroy the
    /// last good snapshot.
    ///
    /// # Errors
    /// I/O failures only; the format always fits the data.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        self.save_with_vfs(&StdVfs, path.as_ref())
    }

    /// [`Self::save`] through an explicit [`Vfs`] (fault injection, tests).
    ///
    /// # Errors
    /// I/O failures only.
    pub fn save_with_vfs(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), PersistError> {
        let mut bytes = Vec::with_capacity(32 + self.points().len() * (self.dim() * 8 + 1));
        bytes.extend_from_slice(MAGIC_V3);
        put_u32(&mut bytes, self.dim() as u32);
        put_u32(&mut bytes, PAGE_BYTES as u32);
        put_u64(&mut bytes, self.points().len() as u64);
        for (id, p) in self.points().iter().enumerate() {
            bytes.push(self.is_live(id) as u8);
            for &c in p.as_slice() {
                put_f64(&mut bytes, c);
            }
        }
        let crc = crc32(&bytes[..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        write_atomic(vfs, path, &bytes)?;
        Ok(())
    }

    /// Reads an index written by [`Self::save`] (`NNCELL03`) or by older
    /// releases (`NNCELL02` checksummed, `NNCELL01` structural validation
    /// only; their cells are validated and dropped).
    ///
    /// # Errors
    /// I/O failures, a bad magic/version, a checksum mismatch, or
    /// structural corruption. Never panics on hostile input.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::load_with_vfs(&StdVfs, path.as_ref())
    }

    /// [`Self::load`] through an explicit [`Vfs`] (fault injection, tests).
    ///
    /// # Errors
    /// See [`Self::load`].
    pub fn load_with_vfs(vfs: &dyn Vfs, path: &Path) -> Result<Self, PersistError> {
        let bytes = vfs.read(path)?;
        if bytes.len() < 8 {
            return Err(corrupt("file too short for header"));
        }
        let magic = &bytes[..8];
        let (payload, legacy) = if magic == MAGIC_V3 || magic == MAGIC_V2 {
            (checksummed_payload(&bytes)?, magic == MAGIC_V2)
        } else if magic == MAGIC_V1 {
            (&bytes[8..], true)
        } else {
            return Err(corrupt(format!(
                "bad magic {magic:?} (expected {MAGIC_V3:?}, {MAGIC_V2:?} or {MAGIC_V1:?})"
            )));
        };
        let mut r = SliceReader::new(payload);
        let idx = if legacy {
            parse_legacy(&mut r)?
        } else {
            let dim = read_dim(&mut r)?;
            read_block_size(&mut r)?;
            let (points, alive) = read_points(&mut r, dim)?;
            index_from(dim, points, alive)
        };
        if r.remaining() != 0 {
            return Err(corrupt("trailing bytes after index payload"));
        }
        Ok(idx)
    }
}

/// The bytes between the magic and a verified CRC32 trailer.
fn checksummed_payload(bytes: &[u8]) -> Result<&[u8], PersistError> {
    if bytes.len() < 12 {
        return Err(corrupt("file too short for checksum trailer"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let actual = crc32(body);
    if stored != actual {
        return Err(corrupt(format!(
            "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(&body[8..])
}

fn index_from(dim: usize, points: Vec<Point>, alive: Vec<bool>) -> NnCellIndex<Euclidean> {
    NnCellIndex::from_parts(dim, BuildConfig::default(), Euclidean, points, alive)
}

fn read_dim(r: &mut SliceReader<'_>) -> Result<usize, PersistError> {
    let dim = r.u32()? as usize;
    if dim == 0 || dim > 1 << 16 {
        return Err(corrupt(format!("implausible dimensionality {dim}")));
    }
    Ok(dim)
}

/// Validates the recorded block size. The point tree always uses
/// [`PAGE_BYTES`], so the value is checked, then ignored.
fn read_block_size(r: &mut SliceReader<'_>) -> Result<(), PersistError> {
    let block_size = r.u32()? as usize;
    if !(128..=1 << 26).contains(&block_size) {
        return Err(corrupt(format!("implausible block size {block_size}")));
    }
    Ok(())
}

/// The point slots: a count, then per slot a liveness byte and `dim`
/// finite coordinates. The count is checked against the bytes actually
/// present before any allocation.
fn read_points(
    r: &mut SliceReader<'_>,
    dim: usize,
) -> Result<(Vec<Point>, Vec<bool>), PersistError> {
    let n = r.u64()? as usize;
    let point_bytes = 1 + 8 * dim;
    if n > r.remaining() / point_bytes {
        return Err(corrupt(format!("point count {n} exceeds the bytes present")));
    }
    let mut alive = Vec::with_capacity(n);
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        alive.push(r.u8()? != 0);
        let mut coords = Vec::with_capacity(dim);
        for _ in 0..dim {
            let c = r.f64()?;
            if !c.is_finite() {
                return Err(corrupt("non-finite coordinate"));
            }
            coords.push(c);
        }
        points.push(Point::new(coords));
    }
    Ok((points, alive))
}

/// Parses an `NNCELL02`/`NNCELL01` payload: the cell construction
/// settings and the cell section are validated exactly as when they were
/// loaded into cells, then dropped.
fn parse_legacy(r: &mut SliceReader<'_>) -> Result<NnCellIndex<Euclidean>, PersistError> {
    let dim = read_dim(r)?;
    let strategy = r.u8()?;
    if strategy > LEGACY_MAX_TAG {
        return Err(corrupt(format!("unknown strategy tag {strategy}")));
    }
    let solver = r.u8()?;
    if solver > LEGACY_MAX_TAG {
        return Err(corrupt(format!("unknown solver tag {solver}")));
    }
    let _refine_on_insert = r.u8()?;
    let _reserved = r.u8()?;
    let pieces_budget = r.u32()? as usize;
    if pieces_budget > LEGACY_MAX_PIECES {
        return Err(corrupt(format!(
            "decomposition budget {pieces_budget} exceeds the format limit {LEGACY_MAX_PIECES}"
        )));
    }
    let radius = r.f64()?;
    if radius.is_finite() && radius <= 0.0 {
        return Err(corrupt(format!("non-positive sphere radius {radius}")));
    }
    let _seed = r.u64()?;
    read_block_size(r)?;
    let (points, alive) = read_points(r, dim)?;
    for (id, &live) in alive.iter().enumerate() {
        let k = r.u32()? as usize;
        if k > LEGACY_MAX_PIECES {
            return Err(corrupt(format!("implausible piece count {k}")));
        }
        if live && k == 0 {
            return Err(corrupt(format!("live point {id} without cell pieces")));
        }
        if k > r.remaining() / (16 * dim) {
            return Err(corrupt(format!("piece count {k} exceeds the bytes present")));
        }
        for _ in 0..k {
            let lo = (0..dim).map(|_| r.f64()).collect::<Result<Vec<_>, _>>()?;
            let hi = (0..dim).map(|_| r.f64()).collect::<Result<Vec<_>, _>>()?;
            // Saved boxes were always normalized (`hi ≥ lo`), so anything
            // inverted at all is corruption.
            if lo
                .iter()
                .zip(&hi)
                .any(|(l, h)| !(l.is_finite() && h.is_finite()) || h < l)
            {
                return Err(corrupt(format!("invalid piece bounds for point {id}")));
            }
        }
    }
    Ok(index_from(dim, points, alive))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The file an earlier release saved for `index`, in the cell-bearing
/// `NNCELL02` (`checksummed`) or `NNCELL01` format, NN-Direction settings
/// and one piece per live cell: the data-space box, the widest valid
/// approximation (Lemma 1). Tests use it to check old files still open.
#[cfg(test)]
pub(crate) fn legacy_file_bytes(index: &NnCellIndex<Euclidean>, checksummed: bool) -> Vec<u8> {
    let d = index.dim();
    let mut out = Vec::new();
    out.extend_from_slice(if checksummed { MAGIC_V2 } else { MAGIC_V1 });
    put_u32(&mut out, d as u32);
    out.extend_from_slice(&[4, 2, 1, 0]); // NN-Direction, Auto, refine on, reserved
    put_u32(&mut out, 0); // no decomposition
    put_f64(&mut out, f64::NAN); // default sphere radius
    put_u64(&mut out, 0); // seed
    put_u32(&mut out, PAGE_BYTES as u32);
    put_u64(&mut out, index.points().len() as u64);
    for (id, p) in index.points().iter().enumerate() {
        out.push(index.is_live(id) as u8);
        for &c in p.as_slice() {
            put_f64(&mut out, c);
        }
    }
    for id in 0..index.points().len() {
        let live = index.is_live(id);
        put_u32(&mut out, live as u32);
        if live {
            for bound in [0.0, 1.0] {
                for _ in 0..d {
                    put_f64(&mut out, bound);
                }
            }
        }
    }
    if checksummed {
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::query::Query;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn uniform(n: usize, d: usize, seed: u64) -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect::<Vec<_>>()))
            .collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nncell_persist_{name}_{}", std::process::id()));
        p
    }

    /// An index over `n` uniform points with a few dead slots.
    fn index_with_dead_slots(n: usize, d: usize, seed: u64) -> NnCellIndex<Euclidean> {
        let mut idx = NnCellIndex::build(uniform(n, d, seed), BuildConfig::default()).unwrap();
        for id in [1, n / 2, n - 1] {
            assert!(idx.remove(id));
        }
        idx
    }

    /// `b` holds the same slots as `a` and answers every query of a
    /// random batch bit-identically (k-NN ids and distance bits).
    fn assert_same_index(a: &NnCellIndex<Euclidean>, b: &NnCellIndex<Euclidean>, seed: u64) {
        assert_eq!(a.dim(), b.dim());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.points().len(), b.points().len());
        for (id, p) in a.points().iter().enumerate() {
            assert_eq!(a.is_live(id), b.is_live(id), "liveness of {id}");
            assert_eq!(p.as_slice(), b.points()[id].as_slice(), "point {id}");
        }
        // An empty radius ball is a typed error on both sides alike.
        let bits = |idx: &NnCellIndex<Euclidean>, q: &Query| -> Vec<(usize, u64)> {
            QueryEngine::sequential(idx)
                .execute(q)
                .map(|r| r.iter().map(|r| (r.id, r.dist.to_bits())).collect())
                .unwrap_or_default()
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..40 {
            let q: Vec<f64> = (0..a.dim()).map(|_| rng.gen_range(0.0..1.0)).collect();
            for query in [Query::nn(q.clone()), Query::knn(q.clone(), 5), Query::radius(q, 0.3)] {
                assert_eq!(bits(a, &query), bits(b, &query));
            }
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_answers_bit_identically_with_dead_slots() {
        let idx = index_with_dead_slots(60, 3, 1);
        let path = tmp("roundtrip");
        idx.save(&path).unwrap();
        let loaded = NnCellIndex::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_same_index(&idx, &loaded, 9);
        assert!(!loaded.is_live(1) && !loaded.is_live(30) && !loaded.is_live(59));
    }

    #[test]
    fn legacy_nncell01_files_still_load() {
        // Both cell-bearing formats of earlier releases: checksummed
        // NNCELL02 and unchecksummed NNCELL01. The cells are validated and
        // dropped; the points, liveness and block size survive.
        let idx = index_with_dead_slots(30, 2, 11);
        let path = tmp("legacy");
        for checksummed in [true, false] {
            std::fs::write(&path, legacy_file_bytes(&idx, checksummed)).unwrap();
            let loaded = NnCellIndex::load(&path).unwrap();
            assert_same_index(&idx, &loaded, 12);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flips_anywhere_are_detected() {
        // Every checksummed format — the current one and the cell-bearing
        // NNCELL02 — turns a flip anywhere (header, points, cell section,
        // trailer) into a typed corruption error.
        let idx = index_with_dead_slots(20, 2, 12);
        let path = tmp("bitflip");
        idx.save(&path).unwrap();
        let current = std::fs::read(&path).unwrap();
        for original in [current, legacy_file_bytes(&idx, true)] {
            for pos in (0..original.len()).step_by(7) {
                let mut mutated = original.clone();
                mutated[pos] ^= 0x10;
                std::fs::write(&path, &mutated).unwrap();
                match NnCellIndex::load(&path) {
                    Err(PersistError::Corrupt(_)) => {}
                    Err(PersistError::Io(e)) => panic!("unexpected I/O error: {e}"),
                    Ok(_) => panic!("bit flip at byte {pos} went undetected"),
                }
            }
        }
        // NNCELL01 has no checksum: structural damage to its cell section
        // is still a typed error, never a panic or a silent load.
        let v1 = legacy_file_bytes(&idx, false);
        let cells_at = 8 + 32 + 8 + idx.points().len() * (1 + 8 * 2);
        // Cell 0 is live: a piece count, then its piece's lo and hi.
        for (at, bytes) in [
            (cells_at, 0u32.to_le_bytes().to_vec()), // live cell without pieces
            (cells_at + 4, f64::NAN.to_le_bytes().to_vec()), // NaN bound
            (cells_at + 4, 2.0f64.to_le_bytes().to_vec()), // lo > hi
            (cells_at, u32::MAX.to_le_bytes().to_vec()), // absurd piece count
        ] {
            let mut mutated = v1.clone();
            mutated[at..at + bytes.len()].copy_from_slice(&bytes);
            std::fs::write(&path, &mutated).unwrap();
            assert!(
                matches!(NnCellIndex::load(&path), Err(PersistError::Corrupt(_))),
                "damage at byte {at} went undetected"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loaded_index_supports_updates() {
        let pts = uniform(30, 2, 4);
        let idx = NnCellIndex::build(pts.clone(), BuildConfig::default()).unwrap();
        let path = tmp("updates");
        idx.save(&path).unwrap();
        let mut loaded = NnCellIndex::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let new_id = loaded.insert(Point::new(vec![0.123, 0.456])).unwrap();
        assert_eq!(new_id, 30);
        let got = QueryEngine::sequential(&loaded)
            .execute(&Query::nn([0.123, 0.456]))
            .unwrap();
        assert_eq!(got.best.id, new_id);
        assert!(loaded.remove(3));
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not an index").unwrap();
        assert!(matches!(
            NnCellIndex::load(&path),
            Err(PersistError::Corrupt(_))
        ));

        // Valid prefix, truncated payload.
        let pts = uniform(20, 2, 5);
        let idx = NnCellIndex::build(pts, BuildConfig::default()).unwrap();
        idx.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            NnCellIndex::load(&path),
            Err(PersistError::Corrupt(_))
        ));

        // Trailing garbage.
        let mut extended = full.clone();
        extended.extend_from_slice(b"xx");
        std::fs::write(&path, &extended).unwrap();
        assert!(matches!(
            NnCellIndex::load(&path),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            NnCellIndex::load("/nonexistent/nncell.idx"),
            Err(PersistError::Io(_))
        ));
    }
}
