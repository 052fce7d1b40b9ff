//! Per-trace summary statistics.
//!
//! These mirror the workload-characterization columns of Table 1: total
//! shared accesses, thread count, synchronization volume, access-size mix,
//! and allocation churn (the property that makes `dedup` special in §V.A).

use std::collections::HashSet;

use crate::{Event, Trace};

/// Summary statistics of a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total memory access events (reads + writes).
    pub accesses: u64,
    /// Read events.
    pub reads: u64,
    /// Write events.
    pub writes: u64,
    /// Accesses by size: `[1, 2, 4, 8]` bytes.
    pub by_size: [u64; 4],
    /// Lock acquire events.
    pub acquires: u64,
    /// Lock release events.
    pub releases: u64,
    /// Fork events.
    pub forks: u64,
    /// Join events.
    pub joins: u64,
    /// Alloc events.
    pub allocs: u64,
    /// Free events.
    pub frees: u64,
    /// Total bytes allocated over the run (alloc/free churn; ~14 GB for
    /// dedup in the paper vs ~1.7 GB average).
    pub alloc_bytes: u64,
    /// Number of distinct byte addresses touched.
    pub distinct_bytes: u64,
    /// Number of threads.
    pub threads: usize,
    /// Number of distinct locks.
    pub locks: usize,
}

impl TraceStats {
    /// Fraction of accesses that are unaligned to a word boundary or
    /// narrower than a word — the accesses for which word granularity
    /// differs from byte granularity.
    pub fn sub_word_fraction(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        (self.by_size[0] + self.by_size[1]) as f64 / self.accesses as f64
    }
}

/// Computes summary statistics for a trace.
///
/// `distinct_bytes` is the length of the union of every access's byte
/// range, found by sorting the ranges: O(accesses · log accesses),
/// independent of access widths.
pub fn stats(trace: &Trace) -> TraceStats {
    let mut s = TraceStats::default();
    let mut spans: Vec<(u64, u64)> = Vec::new();
    let mut locks: HashSet<u32> = HashSet::new();

    for ev in trace.iter() {
        match *ev {
            Event::Read { addr, size, .. } => {
                s.accesses += 1;
                s.reads += 1;
                s.by_size[size_slot(size.bytes())] += 1;
                spans.push((addr.0, addr.0.saturating_add(size.bytes())));
            }
            Event::Write { addr, size, .. } => {
                s.accesses += 1;
                s.writes += 1;
                s.by_size[size_slot(size.bytes())] += 1;
                spans.push((addr.0, addr.0.saturating_add(size.bytes())));
            }
            Event::Acquire { lock, .. } => {
                s.acquires += 1;
                locks.insert(lock.0);
            }
            Event::Release { lock, .. } => {
                s.releases += 1;
                locks.insert(lock.0);
            }
            Event::Fork { .. } => s.forks += 1,
            Event::Join { .. } => s.joins += 1,
            Event::AcquireRead { lock, .. } => {
                s.acquires += 1;
                locks.insert(lock.0);
            }
            Event::ReleaseRead { lock, .. } => {
                s.releases += 1;
                locks.insert(lock.0);
            }
            Event::CvSignal { .. }
            | Event::CvWait { .. }
            | Event::BarrierArrive { .. }
            | Event::BarrierDepart { .. } => {}
            Event::Alloc { size, .. } => {
                s.allocs += 1;
                s.alloc_bytes += size;
            }
            Event::Free { .. } => s.frees += 1,
        }
    }
    s.distinct_bytes = union_len(&mut spans);
    s.threads = trace.thread_count();
    s.locks = locks.len();
    s
}

/// Total length of the union of half-open `[start, end)` ranges.
fn union_len(spans: &mut [(u64, u64)]) -> u64 {
    spans.sort_unstable();
    let mut covered = 0;
    // Exclusive end of everything counted so far.
    let mut reach = 0;
    for &(start, end) in spans.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

fn size_slot(bytes: u64) -> usize {
    match bytes {
        1 => 0,
        2 => 1,
        4 => 2,
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessSize, TraceBuilder};
    use proptest::prelude::*;

    #[test]
    fn counts_every_event_kind() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .alloc(0u32, 0x100u64, 32)
            .acquire(1u32, 9u32)
            .write(1u32, 0x100u64, AccessSize::U32)
            .read(1u32, 0x104u64, AccessSize::U8)
            .release(1u32, 9u32)
            .free(0u32, 0x100u64, 32)
            .join(0u32, 1u32);
        let s = stats(&b.build());
        assert_eq!(s.accesses, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.by_size, [1, 0, 1, 0]);
        assert_eq!(s.acquires, 1);
        assert_eq!(s.releases, 1);
        assert_eq!(s.forks, 1);
        assert_eq!(s.joins, 1);
        assert_eq!(s.allocs, 1);
        assert_eq!(s.frees, 1);
        assert_eq!(s.alloc_bytes, 32);
        assert_eq!(s.distinct_bytes, 5);
        assert_eq!(s.threads, 2);
        assert_eq!(s.locks, 1);
    }

    #[test]
    fn sub_word_fraction() {
        let mut b = TraceBuilder::new();
        b.read(0u32, 0u64, AccessSize::U8)
            .read(0u32, 1u64, AccessSize::U16)
            .read(0u32, 4u64, AccessSize::U32)
            .read(0u32, 8u64, AccessSize::U64);
        let s = stats(&b.build());
        assert!((s.sub_word_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(TraceStats::default().sub_word_fraction(), 0.0);
    }

    #[test]
    fn overlapping_accesses_count_bytes_once() {
        let mut b = TraceBuilder::new();
        b.write(0u32, 0u64, AccessSize::U32)
            .write(0u32, 2u64, AccessSize::U32);
        let s = stats(&b.build());
        assert_eq!(s.distinct_bytes, 6);
    }

    proptest! {
        /// The interval union counts exactly the bytes a per-byte set
        /// would, on dense, overlapping, mixed-width access streams.
        #[test]
        fn distinct_bytes_equals_per_byte_count(
            accesses in proptest::collection::vec((0u64..256, 0u8..4, any::<bool>()), 0..200),
        ) {
            let mut b = TraceBuilder::new();
            let mut bytes = HashSet::new();
            for &(addr, sz, write) in &accesses {
                let size = [AccessSize::U8, AccessSize::U16, AccessSize::U32, AccessSize::U64]
                    [sz as usize];
                if write {
                    b.write(0u32, addr, size);
                } else {
                    b.read(0u32, addr, size);
                }
                bytes.extend(addr..addr + size.bytes());
            }
            prop_assert_eq!(stats(&b.build()).distinct_bytes, bytes.len() as u64);
        }
    }
}
