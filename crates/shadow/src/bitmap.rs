//! Per-thread same-epoch access bitmaps (§IV.A).
//!
//! DJIT+-family detectors only need to process the *first* read and the
//! first write of each location in an epoch. Answering "have I already
//! accessed this location in my current epoch?" from the global shadow
//! structure would require synchronized lookups, so the paper gives every
//! thread a private bitmap: the first access sets a bit, and the bitmap is
//! reset at every lock release (the start of the thread's next epoch).

use dgrace_trace::{Addr, SnapshotReader, SnapshotWriter, TraceError};

use crate::hash::FastMap;

use crate::accounting::bitmap_chunk_bytes;

/// Addresses covered by one chunk.
const CHUNK_SPAN: u64 = 2048;
/// Two bits (read, write) per address → payload bytes per chunk.
const CHUNK_PAYLOAD: usize = (CHUNK_SPAN as usize * 2) / 8;

/// A per-thread bitmap recording which locations this thread has already
/// read / written during its current epoch.
///
/// Two bits are kept per byte address (one for reads, one for writes);
/// chunks are allocated lazily as 2048-address spans.
#[derive(Clone, Debug, Default)]
pub struct EpochBitmap {
    chunks: FastMap<u64, Box<[u8; CHUNK_PAYLOAD]>>,
    /// High-water mark of simultaneously allocated chunks, for accounting.
    peak_chunks: usize,
}

impl EpochBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if `(addr, is_write)` is already marked.
    pub fn test(&self, addr: Addr, is_write: bool) -> bool {
        let (key, byte, mask) = locate(addr, is_write);
        self.chunks.get(&key).is_some_and(|c| c[byte] & mask != 0)
    }

    /// The same-epoch filter in one probe: returns `false` if this access
    /// repeats one already made in the current epoch, otherwise marks it
    /// and returns `true`. A *write* in the current epoch also covers
    /// later reads (a read after a write by the same thread in the same
    /// epoch cannot be the first of a new race), so a read is a repeat if
    /// either plane is marked; a write only if the write plane is.
    #[inline]
    pub fn first_access(&mut self, addr: Addr, is_write: bool) -> bool {
        let (key, byte, mask) = locate(addr, is_write);
        let chunk = self
            .chunks
            .entry(key)
            .or_insert_with(|| Box::new([0u8; CHUNK_PAYLOAD]));
        let seen = if is_write { mask } else { mask | (mask << 1) };
        if chunk[byte] & seen != 0 {
            return false;
        }
        chunk[byte] |= mask;
        self.peak_chunks = self.peak_chunks.max(self.chunks.len());
        true
    }

    /// Resets the bitmap — called at every lock release, when the thread's
    /// next epoch begins.
    pub fn reset(&mut self) {
        self.chunks.clear();
    }

    /// Current modeled bytes.
    pub fn bytes(&self) -> usize {
        self.chunks.len() * bitmap_chunk_bytes(CHUNK_PAYLOAD)
    }

    /// Peak modeled bytes over the bitmap's lifetime.
    pub fn peak_bytes(&self) -> usize {
        self.peak_chunks * bitmap_chunk_bytes(CHUNK_PAYLOAD)
    }

    /// Number of chunk allocations currently live.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Serializes the bitmap: chunks sorted by key (so two bitmaps with
    /// the same contents encode to the same bytes), then the peak.
    pub fn encode(&self, w: &mut SnapshotWriter) {
        let mut keys: Vec<u64> = self.chunks.keys().copied().collect();
        keys.sort_unstable();
        w.count(keys.len());
        for key in keys {
            w.u64(key);
            w.raw(&self.chunks[&key][..]);
        }
        w.u64(self.peak_chunks as u64);
    }

    /// Rebuilds a bitmap from [`EpochBitmap::encode`]d bytes. Chunk keys
    /// must be strictly increasing, as `encode` writes them: a duplicate
    /// would otherwise silently merge two chunks. The peak must cover
    /// the decoded chunks.
    pub fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, TraceError> {
        let n = r.count("bitmap chunks")?;
        let mut chunks = FastMap::default();
        let mut prev = None;
        for _ in 0..n {
            let offset = r.offset();
            let key = r.u64()?;
            if prev.is_some_and(|p| key <= p) {
                return Err(TraceError::Malformed {
                    offset,
                    what: "bitmap chunk keys (duplicate or unsorted)",
                });
            }
            prev = Some(key);
            let mut payload = Box::new([0u8; CHUNK_PAYLOAD]);
            r.raw(&mut payload[..])?;
            chunks.insert(key, payload);
        }
        let offset = r.offset();
        let peak_chunks = r.u64()? as usize;
        if peak_chunks < chunks.len() {
            return Err(TraceError::Malformed {
                offset,
                what: "bitmap peak below its live chunks",
            });
        }
        Ok(EpochBitmap {
            chunks,
            peak_chunks,
        })
    }
}

/// Maps `(addr, plane)` to `(chunk key, byte index, bit mask)`. The
/// write bit of an address sits just above its read bit.
#[inline]
fn locate(addr: Addr, is_write: bool) -> (u64, usize, u8) {
    let key = addr.0 / CHUNK_SPAN;
    let byte = (addr.0 % CHUNK_SPAN) as usize / 4;
    let mask = (1 + is_write as u8) << ((addr.0 % 4) * 2);
    (key, byte, mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_then_write_then_read() {
        let mut b = EpochBitmap::new();
        let a = Addr(0x1234);
        assert!(b.first_access(a, false));
        assert!(b.test(a, false));
        assert!(!b.first_access(a, false));
        // The write plane is independent of earlier reads...
        assert!(!b.test(a, true));
        assert!(b.first_access(a, true));
        assert!(!b.first_access(a, true));
        // ...but a write covers later reads.
        let w = Addr(0x40);
        assert!(b.first_access(w, true));
        assert!(!b.first_access(w, false), "read after write is a repeat");
        assert!(!b.test(w, false), "and marks nothing");
    }

    #[test]
    fn neighbors_do_not_alias() {
        let mut b = EpochBitmap::new();
        for off in 0..8u64 {
            assert!(b.first_access(Addr(0x100 + off), false));
        }
        for off in 0..8u64 {
            assert!(b.test(Addr(0x100 + off), false));
            assert!(!b.test(Addr(0x100 + off), true));
        }
        assert!(!b.test(Addr(0xff), false));
        assert!(!b.test(Addr(0x108), false));
    }

    #[test]
    fn reset_clears_everything() {
        let mut b = EpochBitmap::new();
        b.first_access(Addr(7), true);
        b.first_access(Addr(70_000), false);
        assert_eq!(b.chunk_count(), 2);
        b.reset();
        assert!(!b.test(Addr(7), true));
        assert_eq!(b.chunk_count(), 0);
        assert_eq!(b.bytes(), 0);
        // Peak survives the reset.
        assert_eq!(b.peak_bytes(), 2 * bitmap_chunk_bytes(CHUNK_PAYLOAD));
        // A chunk touched again after the reset starts out empty.
        assert!(b.first_access(Addr(70_000), true));
        assert!(!b.test(Addr(70_000), false));
        assert_eq!(b.bytes(), bitmap_chunk_bytes(CHUNK_PAYLOAD));
    }

    #[test]
    fn chunk_boundaries() {
        let mut b = EpochBitmap::new();
        b.first_access(Addr(CHUNK_SPAN - 1), false);
        b.first_access(Addr(CHUNK_SPAN), false);
        assert_eq!(b.chunk_count(), 2);
        assert!(b.test(Addr(CHUNK_SPAN - 1), false));
        assert!(b.test(Addr(CHUNK_SPAN), false));
    }

    /// A snapshot with chunk keys `keys`, each chunk marking one read.
    fn hand_built(keys: &[u64], peak: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new(*b"TEST", 1);
        w.count(keys.len());
        for &k in keys {
            w.u64(k);
            let mut payload = [0u8; CHUNK_PAYLOAD];
            payload[0] = 1;
            w.raw(&payload);
        }
        w.u64(peak);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<EpochBitmap, TraceError> {
        let mut r = SnapshotReader::new(bytes, *b"TEST", 1, Default::default())?;
        EpochBitmap::decode(&mut r)
    }

    #[test]
    fn decode_rejects_duplicate_unsorted_keys_and_short_peak() {
        let ok = decode(&hand_built(&[1, 5], 2)).unwrap();
        assert!(ok.test(Addr(5 * CHUNK_SPAN), false));
        assert_eq!(ok.chunk_count(), 2);
        for (keys, peak, what) in [
            (&[3, 3][..], 2, "duplicate"),
            (&[5, 1][..], 2, "unsorted"),
            (&[1, 5][..], 1, "peak"),
        ] {
            match decode(&hand_built(keys, peak)) {
                Err(TraceError::Malformed { what: w, .. }) => assert!(w.contains(what), "{w}"),
                other => panic!("{keys:?}/{peak}: expected Malformed, got {other:?}"),
            }
        }
    }
}
