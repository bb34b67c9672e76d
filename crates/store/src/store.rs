//! [`ScanSetStore`]: one compressed scan set per `(protocol, trial,
//! origin)`, persisted in the versioned format of [`crate::format`], and
//! [`StoreReader`], the lazy chunk-granular loader over such a file.
//!
//! The writer keeps entries in a `BTreeMap`, so the TOC, the entry
//! order, and therefore the whole file are a pure function of the stored
//! sets — same-seed experiments serialize byte-identically. The reader
//! verifies the header and TOC checksum up front, each entry's chunk
//! directory when the entry is opened, and each chunk payload only when
//! a query actually touches it.

use crate::format::{
    decode_chunk, decode_directory, decode_set, decode_set_header, encode_set, encoded_set_len,
    ChunkDirEntry, StoreError, DIR_RECORD_LEN, HEADER_LEN, MAGIC, SET_HEADER_LEN, VERSION,
};
use crate::frame::{crc32, put_u16, put_u32, put_u64, Cursor, FrameError};
use crate::scanset::ScanSet;
use crate::Container;
use originscan_telemetry::metrics::names;
use originscan_telemetry::{MetricBatch, Scope, Telemetry};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identity of one stored scan set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct StoreKey {
    /// Protocol label (e.g. `"HTTP"`), ≤ 255 bytes.
    pub protocol: String,
    /// Trial index.
    pub trial: u8,
    /// Origin index in the experiment roster.
    pub origin: u16,
}

impl StoreKey {
    /// Build a key.
    pub fn new(protocol: &str, trial: u8, origin: u16) -> StoreKey {
        StoreKey {
            protocol: protocol.to_string(),
            trial,
            origin,
        }
    }
}

impl std::fmt::Display for StoreKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/trial{}/origin{}",
            self.protocol, self.trial, self.origin
        )
    }
}

/// Deterministic build-side statistics of a store (what would be
/// written), for telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreBuildStats {
    /// Number of `(protocol, trial, origin)` entries.
    pub entries: u64,
    /// Total containers across all entries.
    pub containers: u64,
    /// Array containers.
    pub array_containers: u64,
    /// Bitmap containers.
    pub bitmap_containers: u64,
    /// Run containers.
    pub run_containers: u64,
    /// Total container payload bytes (excluding headers/directories).
    pub payload_bytes: u64,
}

/// An in-memory store of scan sets, writable to the on-disk format.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanSetStore {
    entries: BTreeMap<StoreKey, ScanSet>,
}

impl ScanSetStore {
    /// An empty store.
    pub fn new() -> ScanSetStore {
        ScanSetStore {
            entries: BTreeMap::new(),
        }
    }

    /// Insert (or replace) one scan set.
    pub fn insert(&mut self, key: StoreKey, set: ScanSet) -> Option<ScanSet> {
        self.entries.insert(key, set)
    }

    /// Look up one scan set.
    pub fn get(&self, key: &StoreKey) -> Option<&ScanSet> {
        self.entries.get(key)
    }

    /// Iterate keys in canonical `(protocol, trial, origin)` order.
    pub fn keys(&self) -> impl Iterator<Item = &StoreKey> {
        self.entries.keys()
    }

    /// Iterate `(key, set)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&StoreKey, &ScanSet)> {
        self.entries.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Deterministic build statistics.
    pub fn stats(&self) -> StoreBuildStats {
        let mut s = StoreBuildStats {
            entries: self.entries.len() as u64,
            ..StoreBuildStats::default()
        };
        for set in self.entries.values() {
            for (_, c) in set.chunks() {
                s.containers += 1;
                match c {
                    Container::Array(_) => s.array_containers += 1,
                    Container::Bitmap(_) => s.bitmap_containers += 1,
                    Container::Run(_) => s.run_containers += 1,
                }
                s.payload_bytes += c.payload_bytes() as u64;
            }
        }
        s
    }

    /// Flush build statistics into the telemetry hub as `store.*`
    /// counters under `scope` (deterministic values only — wall-clock
    /// timings go through the progress sink instead).
    pub fn flush_telemetry(&self, hub: &Telemetry, scope: Scope, bytes_written: u64) {
        let s = self.stats();
        let mut batch = MetricBatch::new();
        batch.add(names::STORE_ENTRIES_WRITTEN, s.entries);
        batch.add(names::STORE_CONTAINERS_WRITTEN, s.containers);
        batch.add(names::STORE_BYTES_WRITTEN, bytes_written);
        hub.flush(scope, batch);
    }

    /// Serialize the whole store (header + TOC + entries).
    pub fn to_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let entry_count = u32::try_from(self.entries.len()).map_err(|_| FrameError::TooLarge {
            section: "entry_count",
        })?;
        // Lengths first: an entry's size is known before it is encoded,
        // so the TOC and the image's exact size are too, and every byte
        // is written once, in place.
        let mut toc_len = 0usize;
        for key in self.entries.keys() {
            if key.protocol.len() > usize::from(u8::MAX) {
                return Err(FrameError::TooLarge {
                    section: "protocol label",
                }
                .into());
            }
            toc_len += TOC_RECORD_MIN_LEN + key.protocol.len();
        }
        let toc_len_u32 =
            u32::try_from(toc_len).map_err(|_| FrameError::TooLarge { section: "toc_len" })?;
        let mut toc = Vec::with_capacity(toc_len);
        let mut offset = HEADER_LEN + toc_len;
        for (key, set) in &self.entries {
            let len = encoded_set_len(set);
            // Protocol length fits u8: checked above against u8::MAX.
            toc.push(u8::try_from(key.protocol.len()).unwrap_or(u8::MAX));
            toc.extend_from_slice(key.protocol.as_bytes());
            toc.push(key.trial);
            put_u16(&mut toc, key.origin);
            put_u64(&mut toc, offset as u64);
            put_u64(&mut toc, len as u64);
            offset += len;
        }
        let mut out = Vec::with_capacity(offset);
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, VERSION);
        put_u16(&mut out, 0); // flags
        put_u32(&mut out, entry_count);
        put_u32(&mut out, toc_len_u32);
        put_u32(&mut out, crc32(&toc));
        out.extend_from_slice(&toc);
        for set in self.entries.values() {
            encode_set(set, &mut out)?;
        }
        Ok(out)
    }

    /// Write to a file, returning the byte count written.
    pub fn write_to(&self, path: &Path) -> Result<u64, StoreError> {
        let bytes = self.to_bytes()?;
        std::fs::write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Eagerly decode a serialized store, verifying every checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<ScanSetStore, StoreError> {
        let mut cur = Cursor::new(bytes, "file header");
        let header = parse_header(&mut cur)?;
        let mut entries = BTreeMap::new();
        let mut end = (HEADER_LEN + header.toc_len) as u64;
        for rec in parse_toc(&header, cur.rest())? {
            let blob = slice_entry(bytes, &rec)?;
            end = end.max(rec.offset.saturating_add(rec.len));
            entries.insert(rec.key, decode_set(blob)?);
        }
        if end != bytes.len() as u64 {
            return Err(FrameError::Corrupt {
                section: "entry",
                detail: "trailing bytes after the last entry",
            }
            .into());
        }
        Ok(ScanSetStore { entries })
    }
}

/// The fields of the fixed file header that follow the magic, version
/// and flags.
#[derive(Debug)]
struct Header {
    entry_count: u32,
    toc_len: usize,
    toc_crc: u32,
}

/// One parsed TOC record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TocRecord {
    key: StoreKey,
    offset: u64,
    len: u64,
}

/// Byte length of a TOC record with an empty protocol label.
const TOC_RECORD_MIN_LEN: usize = 1 + 1 + 2 + 8 + 8;

/// Check and read the [`HEADER_LEN`]-byte file header.
fn parse_header(cur: &mut Cursor<'_>) -> Result<Header, FrameError> {
    cur.header(MAGIC, VERSION)?;
    Ok(Header {
        entry_count: cur.u32()?,
        toc_len: cur.u32()? as usize,
        toc_crc: cur.u32()?,
    })
}

/// Verify and parse the TOC, which starts `after_header` (anything past
/// its `toc_len` bytes is left alone).
fn parse_toc(header: &Header, after_header: &[u8]) -> Result<Vec<TocRecord>, FrameError> {
    let section = "toc";
    let mut rec = Cursor::new(after_header, section).checked(header.toc_len, header.toc_crc)?;
    // `entry_count` sits outside every checksum: size nothing from it
    // beyond what the verified TOC bytes could hold. A count above the
    // records present runs the cursor dry (`Truncated`); one below
    // leaves bytes over (`Corrupt`).
    let entry_count = header.entry_count as usize;
    let mut toc = Vec::with_capacity(entry_count.min(header.toc_len / TOC_RECORD_MIN_LEN));
    for _ in 0..entry_count {
        let proto_len = usize::from(rec.u8()?);
        let protocol = std::str::from_utf8(rec.take(proto_len)?)
            .map_err(|_| FrameError::Corrupt {
                section,
                detail: "protocol label is not UTF-8",
            })?
            .to_string();
        let key = StoreKey {
            protocol,
            trial: rec.u8()?,
            origin: rec.u16()?,
        };
        toc.push(TocRecord {
            key,
            offset: rec.u64()?,
            len: rec.u64()?,
        });
    }
    rec.finish()?;
    if toc
        .windows(2)
        .any(|w| matches!(w, [a, b] if a.key >= b.key))
    {
        return Err(FrameError::Corrupt {
            section,
            detail: "keys unsorted or duplicated",
        });
    }
    Ok(toc)
}

fn slice_entry<'a>(bytes: &'a [u8], rec: &TocRecord) -> Result<&'a [u8], FrameError> {
    let too_large = || FrameError::TooLarge {
        section: "toc offset",
    };
    let start = usize::try_from(rec.offset).map_err(|_| too_large())?;
    let len = usize::try_from(rec.len).map_err(|_| too_large())?;
    let end = start.checked_add(len).ok_or_else(too_large)?;
    bytes.get(start..end).ok_or(FrameError::Truncated {
        section: "entry",
        needed: rec.offset.saturating_add(rec.len),
        available: bytes.len() as u64,
    })
}

/// Cumulative read-side counters (interior-mutable: reads take `&self`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Entries whose directory was opened.
    pub(crate) entries_opened: u64,
    /// Chunk payloads actually loaded and verified.
    pub chunks_loaded: u64,
    /// Bytes read from the file.
    pub bytes_read: u64,
}

/// A lazy, checksum-verifying reader over a store file. `Sync`: every
/// read is positional (no shared file cursor) and the counters are
/// relaxed atomics (statistics only), so threads share one reader
/// without a lock.
#[derive(Debug)]
pub struct StoreReader {
    file: std::fs::File,
    /// Length at open: no read is sized beyond it.
    file_len: u64,
    toc: Vec<TocRecord>,
    entries_opened: AtomicU64,
    chunks_loaded: AtomicU64,
    bytes_read: AtomicU64,
}

impl StoreReader {
    /// Open a store file: reads and verifies the header and TOC only.
    pub fn open(path: &Path) -> Result<StoreReader, StoreError> {
        let file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let head = read_section(&file, file_len, 0, HEADER_LEN, "file header")?;
        let header = parse_header(&mut Cursor::new(&head, "file header"))?;
        let toc_bytes = read_section(&file, file_len, HEADER_LEN as u64, header.toc_len, "toc")?;
        let toc = parse_toc(&header, &toc_bytes)?;
        Ok(StoreReader {
            file,
            file_len,
            toc,
            entries_opened: AtomicU64::new(0),
            chunks_loaded: AtomicU64::new(0),
            bytes_read: AtomicU64::new((HEADER_LEN + header.toc_len) as u64),
        })
    }

    /// Keys present in the store, canonical order.
    pub fn keys(&self) -> impl Iterator<Item = &StoreKey> {
        self.toc.iter().map(|r| &r.key)
    }

    /// Cumulative read statistics.
    pub fn stats(&self) -> ReadStats {
        ReadStats {
            entries_opened: self.entries_opened.load(Ordering::Relaxed),
            chunks_loaded: self.chunks_loaded.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }

    /// Flush read statistics into the telemetry hub as `store.*`
    /// counters under `scope`.
    pub fn flush_telemetry(&self, hub: &Telemetry, scope: Scope) {
        let s = self.stats();
        let mut batch = MetricBatch::new();
        batch.add(names::STORE_ENTRIES_LOADED, s.entries_opened);
        batch.add(names::STORE_CHUNKS_LOADED, s.chunks_loaded);
        batch.add(names::STORE_BYTES_READ, s.bytes_read);
        hub.flush(scope, batch);
    }

    fn record(&self, key: &StoreKey) -> Result<&TocRecord, StoreError> {
        self.toc
            .binary_search_by(|r| r.key.cmp(key))
            .ok()
            .and_then(|i| self.toc.get(i))
            .ok_or_else(|| StoreError::KeyNotFound {
                key: key.to_string(),
            })
    }

    fn read_at(
        &self,
        offset: u64,
        len: usize,
        section: &'static str,
    ) -> Result<Vec<u8>, StoreError> {
        let buf = read_section(&self.file, self.file_len, offset, len, section)?;
        self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(buf)
    }

    /// Eagerly load one scan set, verifying its directory and every
    /// chunk payload.
    pub fn load(&self, key: &StoreKey) -> Result<ScanSet, StoreError> {
        let rec = self.record(key)?;
        let len =
            usize::try_from(rec.len).map_err(|_| FrameError::TooLarge { section: "entry" })?;
        let blob = self.read_at(rec.offset, len, "entry")?;
        self.entries_opened.fetch_add(1, Ordering::Relaxed);
        let set = decode_set(&blob)?;
        self.chunks_loaded
            .fetch_add(set.chunk_count() as u64, Ordering::Relaxed);
        Ok(set)
    }

    /// Cardinality of one entry from its chunk directory alone — no
    /// payload is read or verified. This is the cache-friendly accessor
    /// the query engine uses for `coverage` denominators and `best-k`
    /// pruning: answering "how many hosts did origin X see?" costs one
    /// directory read, not a full entry load.
    pub fn cardinality(&self, key: &StoreKey) -> Result<u64, StoreError> {
        Ok(self.lazy(key)?.cardinality())
    }

    /// Open one entry lazily: reads and verifies only the chunk
    /// directory. Payloads load (and verify) on first touch, per chunk.
    pub fn lazy(&self, key: &StoreKey) -> Result<LazyScanSet<'_>, StoreError> {
        let rec = self.record(key)?;
        // The set header says how long the directory is; `read_at`
        // refuses a length the file cannot hold before sizing a buffer.
        let header = decode_set_header(&self.read_at(rec.offset, SET_HEADER_LEN, "set header")?)?;
        let dir_at = rec.offset + SET_HEADER_LEN as u64;
        let dir_bytes = self.read_at(dir_at, header.dir_len, "chunk directory")?;
        let dir = decode_directory(&header, &dir_bytes)?;
        self.entries_opened.fetch_add(1, Ordering::Relaxed);
        Ok(LazyScanSet {
            reader: self,
            payload_base: dir_at + header.dir_len as u64,
            entry_len: rec.len,
            dir,
            cache: RefCell::new(BTreeMap::new()),
        })
    }
}

/// Positional read of exactly `len` bytes at `offset` (no shared cursor,
/// so it needs only `&File`). A range the `file_len`-byte file cannot
/// hold is `Truncated` before any buffer is sized from it — `len` may
/// come straight from a damaged length field.
fn read_section(
    file: &std::fs::File,
    file_len: u64,
    offset: u64,
    len: usize,
    section: &'static str,
) -> Result<Vec<u8>, StoreError> {
    let end = offset.saturating_add(len as u64);
    if end > file_len {
        return Err(FrameError::Truncated {
            section,
            needed: end,
            available: file_len,
        }
        .into());
    }
    let mut buf = vec![0u8; len];
    // Short only if the file shrank after open: `Io(UnexpectedEof)`.
    file.read_exact_at(&mut buf, offset)?;
    Ok(buf)
}

/// One lazily loaded scan set: the verified chunk directory plus a cache
/// of the containers actually touched.
#[derive(Debug)]
pub struct LazyScanSet<'r> {
    reader: &'r StoreReader,
    payload_base: u64,
    entry_len: u64,
    dir: Vec<ChunkDirEntry>,
    cache: RefCell<BTreeMap<u16, Container>>,
}

impl LazyScanSet<'_> {
    /// Total cardinality — answered from the directory alone, without
    /// loading any payload.
    pub fn cardinality(&self) -> u64 {
        self.dir.iter().map(|d| u64::from(d.cardinality)).sum()
    }

    /// The directory record of chunk `key`, if the entry has one.
    fn dir_entry(&self, key: u16) -> Option<&ChunkDirEntry> {
        let idx = self.dir.binary_search_by_key(&key, |d| d.key).ok()?;
        self.dir.get(idx)
    }

    fn load_chunk(&self, d: &ChunkDirEntry) -> Result<(), StoreError> {
        if self.cache.borrow().contains_key(&d.key) {
            return Ok(());
        }
        let end = d
            .payload_offset
            .checked_add(u64::from(d.payload_len))
            .ok_or(FrameError::TooLarge {
                section: "chunk payload",
            })?;
        // Guard against directories pointing past the entry.
        let payload_room = self
            .entry_len
            .saturating_sub((SET_HEADER_LEN + self.dir.len() * DIR_RECORD_LEN) as u64);
        if end > payload_room {
            return Err(FrameError::Truncated {
                section: "chunk payload",
                needed: end,
                available: payload_room,
            }
            .into());
        }
        let bytes = self.reader.read_at(
            self.payload_base + d.payload_offset,
            d.payload_len as usize,
            "chunk payload",
        )?;
        let container = decode_chunk(d, &bytes)?;
        self.reader.chunks_loaded.fetch_add(1, Ordering::Relaxed);
        self.cache.borrow_mut().insert(d.key, container);
        Ok(())
    }

    /// Membership test, loading at most one chunk.
    pub fn contains(&self, addr: u32) -> Result<bool, StoreError> {
        let key = (addr >> 16) as u16;
        let Some(d) = self.dir_entry(key) else {
            return Ok(false);
        };
        self.load_chunk(d)?;
        Ok(self
            .cache
            .borrow()
            .get(&key)
            .is_some_and(|c| c.contains((addr & 0xFFFF) as u16)))
    }

    /// Number of members ≤ `addr`, loading at most one chunk: chunks
    /// before the address's own contribute their directory cardinality,
    /// and only the holding chunk's payload is decoded for the in-chunk
    /// rank.
    pub fn rank(&self, addr: u32) -> Result<u64, StoreError> {
        let key = (addr >> 16) as u16;
        let mut count = 0u64;
        for d in &self.dir {
            if d.key < key {
                count += u64::from(d.cardinality);
            } else if d.key == key {
                self.load_chunk(d)?;
                count += self
                    .cache
                    .borrow()
                    .get(&key)
                    .map_or(0, |c| u64::from(c.rank((addr & 0xFFFF) as u16)));
            } else {
                break;
            }
        }
        Ok(count)
    }

    /// The `k`-th smallest member (0-based), loading at most one chunk:
    /// the directory's per-chunk cardinalities locate the holding chunk,
    /// and only its payload is decoded for the in-chunk select.
    pub fn select(&self, k: u64) -> Result<Option<u32>, StoreError> {
        let mut remaining = k;
        for d in &self.dir {
            let card = u64::from(d.cardinality);
            if remaining < card {
                self.load_chunk(d)?;
                let low = self
                    .cache
                    .borrow()
                    .get(&d.key)
                    .and_then(|c| c.select(u32::try_from(remaining).ok()?));
                return Ok(low.map(|low| u32::from(d.key) << 16 | u32::from(low)));
            }
            remaining -= card;
        }
        Ok(None)
    }

    /// Load every remaining chunk and assemble the full [`ScanSet`].
    pub fn materialize(&self) -> Result<ScanSet, StoreError> {
        for d in &self.dir {
            self.load_chunk(d)?;
        }
        let cache = self.cache.borrow();
        let chunks: Vec<(u16, Container)> = self
            .dir
            .iter()
            .filter_map(|d| cache.get(&d.key).map(|c| (d.key, c.clone())))
            .collect();
        ScanSet::from_chunks(chunks)
            .ok_or(FrameError::Corrupt {
                section: "chunk directory",
                detail: "chunk keys unsorted or duplicated",
            })
            .map_err(StoreError::from)
    }
}

#[cfg(test)]
impl StoreReader {
    /// Number of stored entries.
    fn len(&self) -> usize {
        self.toc.len()
    }

    /// True when `key` is present.
    fn contains_key(&self, key: &StoreKey) -> bool {
        self.toc.binary_search_by(|r| r.key.cmp(key)).is_ok()
    }
}

#[cfg(test)]
impl LazyScanSet<'_> {
    /// Number of chunks in the entry.
    fn chunk_count(&self) -> usize {
        self.dir.len()
    }

    /// Number of chunk payloads loaded so far.
    fn loaded_chunks(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Cardinality of one chunk, from the directory (no payload I/O).
    fn chunk_cardinality(&self, key: u16) -> u64 {
        self.dir_entry(key).map_or(0, |d| u64::from(d.cardinality))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> ScanSetStore {
        let mut store = ScanSetStore::new();
        for (trial, origin) in [(0u8, 0u16), (0, 1), (1, 0)] {
            let addrs: Vec<u32> = (0..5000u32)
                .map(|v| v * 97 + u32::from(trial) * 13 + u32::from(origin))
                .collect();
            store.insert(
                StoreKey::new("HTTP", trial, origin),
                ScanSet::from_unsorted(addrs),
            );
        }
        store.insert(
            StoreKey::new("SSH", 0, 0),
            ScanSet::from_sorted(&[0x0100_0000, 0x0100_0001]),
        );
        store
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "originscan_store_test_{}_{name}.oscs",
            std::process::id()
        ));
        p
    }

    #[test]
    fn bytes_roundtrip_and_are_deterministic() {
        let store = sample_store();
        let a = store.to_bytes().unwrap();
        let b = store.to_bytes().unwrap();
        assert_eq!(a, b, "serialization is deterministic");
        let back = ScanSetStore::from_bytes(&a).unwrap();
        assert_eq!(back, store);
        assert_eq!(back.to_bytes().unwrap(), a, "re-serialization is identity");
    }

    /// The file image put together the long way round: each set encoded
    /// into a `Vec` of its own, concatenated behind a hand-built TOC.
    fn image_from_blobs(store: &ScanSetStore) -> Vec<u8> {
        let blobs: Vec<Vec<u8>> = store
            .iter()
            .map(|(_, set)| {
                let mut blob = Vec::new();
                encode_set(set, &mut blob).unwrap();
                blob
            })
            .collect();
        let toc_len: usize = store.keys().map(|k| 1 + k.protocol.len() + 19).sum();
        let mut toc = Vec::new();
        let mut offset = (HEADER_LEN + toc_len) as u64;
        for (key, blob) in store.keys().zip(&blobs) {
            toc.push(key.protocol.len() as u8);
            toc.extend_from_slice(key.protocol.as_bytes());
            toc.push(key.trial);
            toc.extend_from_slice(&key.origin.to_le_bytes());
            toc.extend_from_slice(&offset.to_le_bytes());
            toc.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            offset += blob.len() as u64;
        }
        assert_eq!(toc.len(), toc_len);
        let mut image = b"OSCS\x01\0\0\0".to_vec();
        image.extend_from_slice(&(blobs.len() as u32).to_le_bytes());
        image.extend_from_slice(&(toc_len as u32).to_le_bytes());
        image.extend_from_slice(&crc32(&toc).to_le_bytes());
        image.extend(toc);
        image.extend(blobs.concat());
        image
    }

    #[test]
    fn one_buffer_image_equals_the_entry_by_entry_one() {
        // TOC records of different size (`HTTP`, `SSH`, a long label),
        // and an empty set: an entry that is a set header and nothing else.
        let mut with_empty = sample_store();
        with_empty.insert(StoreKey::new("ICMP-ECHO", 2, 6), ScanSet::from_sorted(&[]));
        for store in [sample_store(), with_empty, ScanSetStore::new()] {
            let bytes = store.to_bytes().unwrap();
            assert_eq!(bytes, image_from_blobs(&store));
            assert_eq!(bytes.capacity(), bytes.len(), "sized once, exactly");
        }
    }

    #[test]
    fn reader_loads_and_counts() {
        let store = sample_store();
        let path = temp_path("reader");
        store.write_to(&path).unwrap();
        let reader = StoreReader::open(&path).unwrap();
        assert_eq!(reader.len(), 4);
        assert!(reader.contains_key(&StoreKey::new("SSH", 0, 0)));
        assert!(!reader.contains_key(&StoreKey::new("TLS", 0, 0)));
        let keys: Vec<StoreKey> = reader.keys().cloned().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys sorted");
        for key in &keys {
            let set = reader.load(key).unwrap();
            assert_eq!(&set, store.get(key).unwrap());
        }
        let err = reader.load(&StoreKey::new("TLS", 0, 0));
        assert!(matches!(err, Err(StoreError::KeyNotFound { .. })));
        let stats = reader.stats();
        assert_eq!(stats.entries_opened, 4);
        assert!(stats.chunks_loaded > 0 && stats.bytes_read > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn one_reader_serves_threads_without_a_lock() {
        let store = sample_store();
        let path = temp_path("shared");
        store.write_to(&path).unwrap();
        let reader = StoreReader::open(&path).unwrap();
        let solo = {
            let fresh = StoreReader::open(&path).unwrap();
            for key in store.keys() {
                fresh.load(key).unwrap();
            }
            fresh.stats()
        };
        let opened = reader.stats();
        const THREADS: u64 = 4;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for (key, set) in store.iter() {
                        assert_eq!(&reader.load(key).unwrap(), set);
                    }
                });
            }
        });
        // Positional reads never see another thread's offset, and the
        // counters lose no update: the totals are THREADS solo passes.
        let after = reader.stats();
        assert_eq!(
            after.bytes_read - opened.bytes_read,
            THREADS * (solo.bytes_read - opened.bytes_read)
        );
        assert_eq!(after.entries_opened, THREADS * solo.entries_opened);
        assert_eq!(after.chunks_loaded, THREADS * solo.chunks_loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lazy_loads_only_touched_chunks() {
        let store = sample_store();
        let path = temp_path("lazy");
        store.write_to(&path).unwrap();
        let reader = StoreReader::open(&path).unwrap();
        let key = StoreKey::new("HTTP", 0, 0);
        let opened = reader.stats().bytes_read;
        let lazy = reader.lazy(&key).unwrap();
        let eager = store.get(&key).unwrap();
        assert_eq!(lazy.cardinality(), eager.cardinality());
        assert_eq!(lazy.chunk_count(), eager.chunk_count());
        assert_eq!(lazy.loaded_chunks(), 0, "directory reads load no payload");
        assert_eq!(
            reader.stats().bytes_read - opened,
            (SET_HEADER_LEN + eager.chunk_count() * DIR_RECORD_LEN) as u64,
            "the set header and the directory, each read once"
        );
        // Touch one address: exactly one chunk loads.
        assert!(lazy.contains(0).unwrap());
        assert!(!lazy.contains(1).unwrap());
        assert_eq!(lazy.loaded_chunks(), 1);
        // Absent chunk: no load at all.
        assert!(!lazy.contains(0xFFFF_0000).unwrap());
        assert_eq!(lazy.loaded_chunks(), 1);
        assert_eq!(
            lazy.chunk_cardinality(0),
            u64::from(eager.chunks().next().unwrap().1.cardinality())
        );
        let materialized = lazy.materialize().unwrap();
        assert_eq!(&materialized, eager);
        assert_eq!(lazy.loaded_chunks(), lazy.chunk_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn directory_cardinality_reads_no_payload() {
        let store = sample_store();
        let path = temp_path("dircard");
        store.write_to(&path).unwrap();
        let reader = StoreReader::open(&path).unwrap();
        for key in store.keys() {
            assert_eq!(
                reader.cardinality(key).unwrap(),
                store.get(key).unwrap().cardinality()
            );
        }
        assert_eq!(
            reader.stats().chunks_loaded,
            0,
            "cardinality answers from directories alone"
        );
        assert!(matches!(
            reader.cardinality(&StoreKey::new("TLS", 0, 0)),
            Err(StoreError::KeyNotFound { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lazy_rank_select_load_one_chunk() {
        let store = sample_store();
        let path = temp_path("lazyrank");
        store.write_to(&path).unwrap();
        let reader = StoreReader::open(&path).unwrap();
        let key = StoreKey::new("HTTP", 0, 0);
        let eager = store.get(&key).unwrap();
        let members = eager.to_vec();

        // rank of an address mid-set: matches the eager set, touches at
        // most one chunk.
        let lazy = reader.lazy(&key).unwrap();
        let probe = members[members.len() / 2];
        assert_eq!(lazy.rank(probe).unwrap(), eager.rank(probe));
        assert!(lazy.loaded_chunks() <= 1, "rank loads one chunk at most");
        // Address beyond every chunk: pure directory sum, no new loads.
        let loaded = lazy.loaded_chunks();
        assert_eq!(lazy.rank(u32::MAX).unwrap(), eager.cardinality());
        assert_eq!(lazy.loaded_chunks(), loaded);

        // select round-trips against the eager oracle.
        let lazy = reader.lazy(&key).unwrap();
        let k = members.len() as u64 - 1;
        assert_eq!(lazy.select(k).unwrap(), Some(members[members.len() - 1]));
        assert!(lazy.loaded_chunks() <= 1, "select loads one chunk at most");
        assert_eq!(lazy.select(members.len() as u64).unwrap(), None);
        assert_eq!(lazy.select(0).unwrap(), Some(members[0]));

        // rank/select duality on the lazy path.
        let lazy = reader.lazy(&key).unwrap();
        for k in [0u64, 7, members.len() as u64 / 2] {
            let addr = lazy.select(k).unwrap().unwrap();
            assert_eq!(lazy.rank(addr).unwrap(), k + 1);
        }
        std::fs::remove_file(&path).ok();
    }

    /// `from_bytes` reduced to its frame error, for the match sites below.
    fn frame_err(bytes: &[u8]) -> FrameError {
        match ScanSetStore::from_bytes(bytes) {
            Err(StoreError::Frame(e)) => e,
            other => panic!("expected a frame error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_files_surface_typed_errors() {
        let store = sample_store();
        let bytes = store.to_bytes().unwrap();
        // Bad magic.
        let mut b = bytes.clone();
        b[0] = b'X';
        assert!(matches!(frame_err(&b), FrameError::BadMagic { .. }));
        // Future version.
        let mut b = bytes.clone();
        b[4] = 9;
        assert!(matches!(
            frame_err(&b),
            FrameError::UnsupportedVersion {
                found: 9,
                supported: VERSION
            }
        ));
        // Flipped TOC byte.
        let mut b = bytes.clone();
        b[HEADER_LEN] ^= 0x40;
        assert!(matches!(
            frame_err(&b),
            FrameError::ChecksumMismatch { section: "toc", .. }
        ));
        // Flipped TOC checksum itself.
        let mut b = bytes.clone();
        b[16] ^= 0x01;
        assert!(matches!(
            frame_err(&b),
            FrameError::ChecksumMismatch { section: "toc", .. }
        ));
        // Truncations at every section boundary.
        for cut in [
            2,
            HEADER_LEN - 1,
            HEADER_LEN + 3,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            assert!(
                matches!(
                    frame_err(&bytes[..cut]),
                    FrameError::Truncated { .. } | FrameError::ChecksumMismatch { .. }
                ),
                "cut at {cut}"
            );
        }
        // Flipped payload byte in the last entry.
        let mut b = bytes.clone();
        let last = b.len() - 1;
        b[last] ^= 0xFF;
        assert!(matches!(
            frame_err(&b),
            FrameError::ChecksumMismatch {
                section: "chunk payload",
                ..
            }
        ));
    }

    /// Both readers' frame error for the same damaged bytes.
    fn eager_and_open_errs(name: &str, bytes: &[u8]) -> [FrameError; 2] {
        let path = temp_path(name);
        std::fs::write(&path, bytes).unwrap();
        let opened = StoreReader::open(&path);
        std::fs::remove_file(&path).ok();
        match opened {
            Err(StoreError::Frame(e)) => [frame_err(bytes), e],
            other => panic!("expected open to fail with a frame error, got {other:?}"),
        }
    }

    #[test]
    fn flipped_entry_count_is_typed_not_an_allocation() {
        // `entry_count` is outside every checksum. Its top bit used to
        // reach `Vec::with_capacity(2³¹)` and abort the process.
        let mut b = sample_store().to_bytes().unwrap();
        b[11] ^= 0x80;
        for e in eager_and_open_errs("count_high", &b) {
            assert!(
                matches!(e, FrameError::Truncated { section: "toc", .. }),
                "{e}"
            );
        }
        // One record fewer than the TOC holds: the rest is left over.
        b[11] ^= 0x80;
        b[8] -= 1;
        for e in eager_and_open_errs("count_low", &b) {
            assert!(
                matches!(e, FrameError::Corrupt { section: "toc", .. }),
                "{e}"
            );
        }
    }

    #[test]
    fn nonzero_flags_are_rejected() {
        // Version 1 defines no flag; these used to decode to a store
        // equal to the original.
        let bytes = sample_store().to_bytes().unwrap();
        for (at, bit) in [(6, 0x01), (7, 0x80)] {
            let mut b = bytes.clone();
            b[at] ^= bit;
            for e in eager_and_open_errs("flags", &b) {
                assert!(
                    matches!(
                        e,
                        FrameError::Corrupt {
                            section: "file header",
                            ..
                        }
                    ),
                    "{e}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_after_the_last_entry_are_rejected() {
        let mut b = sample_store().to_bytes().unwrap();
        b.push(0);
        assert!(matches!(
            frame_err(&b),
            FrameError::Corrupt {
                section: "entry",
                ..
            }
        ));
        // An empty store ends where its (empty) TOC does.
        let mut b = ScanSetStore::new().to_bytes().unwrap();
        assert_eq!(ScanSetStore::from_bytes(&b).unwrap(), ScanSetStore::new());
        b.push(0);
        assert!(matches!(frame_err(&b), FrameError::Corrupt { .. }));
    }

    #[test]
    fn lengths_beyond_the_file_are_refused_before_any_read() {
        let store = sample_store();
        let bytes = store.to_bytes().unwrap();
        // A flipped `toc_len` used to size a buffer of up to 4 GiB.
        let mut b = bytes.clone();
        b[15] ^= 0x80;
        for e in eager_and_open_errs("toc_len", &b) {
            assert!(
                matches!(e, FrameError::Truncated { section: "toc", .. }),
                "{e}"
            );
        }
        // Same for an entry's `chunk_count` on the lazy path: 2³¹
        // directory records cannot fit the file, so nothing is read.
        let path = temp_path("chunk_count");
        let reader_over = |b: &[u8]| {
            std::fs::write(&path, b).unwrap();
            StoreReader::open(&path).unwrap()
        };
        let first_key = store.keys().next().unwrap();
        let first_entry = reader_over(&bytes).record(first_key).unwrap().offset as usize;
        let mut b = bytes.clone();
        b[first_entry + 3] ^= 0x80;
        let reader = reader_over(&b);
        let before = reader.stats().bytes_read;
        assert!(matches!(
            reader.lazy(first_key),
            Err(StoreError::Frame(FrameError::Truncated {
                section: "chunk directory",
                ..
            }))
        ));
        assert_eq!(
            reader.stats().bytes_read - before,
            SET_HEADER_LEN as u64,
            "only the set header was read"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_file_on_disk_via_reader() {
        let store = sample_store();
        let path = temp_path("corrupt");
        let bytes = store.to_bytes().unwrap();
        // Flip one byte in the middle of the entries region.
        let mut b = bytes.clone();
        let mid = HEADER_LEN + (b.len() - HEADER_LEN) * 3 / 4;
        b[mid] ^= 0x10;
        std::fs::write(&path, &b).unwrap();
        let reader = StoreReader::open(&path).unwrap();
        let any_fails = reader.keys().cloned().collect::<Vec<_>>().iter().any(|k| {
            matches!(
                reader.load(k),
                Err(StoreError::Frame(
                    FrameError::ChecksumMismatch { .. } | FrameError::Corrupt { .. }
                ))
            )
        });
        assert!(any_fails, "a flipped entry byte must fail verification");
        // Truncated file: lazy access to the last entry fails with a
        // typed Truncated error — at directory read or at payload read,
        // depending on where the cut lands.
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        let reader = StoreReader::open(&path).unwrap();
        let last_key = reader.keys().last().cloned().unwrap();
        let outcome = reader.lazy(&last_key).and_then(|lazy| lazy.materialize());
        assert!(matches!(
            outcome,
            Err(StoreError::Frame(FrameError::Truncated { .. }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_and_telemetry_flush() {
        let store = sample_store();
        let s = store.stats();
        assert_eq!(s.entries, 4);
        assert_eq!(
            s.containers,
            s.array_containers + s.bitmap_containers + s.run_containers
        );
        assert!(s.payload_bytes > 0);
        let hub = Telemetry::new();
        let scope = Scope::new("HTTP", 0, 0);
        store.flush_telemetry(&hub, scope, 1234);
        let snap = hub.snapshot();
        assert_eq!(snap.counter(scope, names::STORE_ENTRIES_WRITTEN), 4);
        assert_eq!(snap.counter(scope, names::STORE_BYTES_WRITTEN), 1234);
    }
}
