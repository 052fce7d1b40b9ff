//! Shared happens-before machinery: thread clocks, lock clocks, epochs,
//! fork/join edges, and per-thread same-epoch bitmaps.

use std::collections::HashMap;

use dgrace_shadow::EpochBitmap;
use dgrace_trace::{Addr, Event, LockId, SnapshotReader, SnapshotWriter, TraceError};
use dgrace_vc::{Epoch, Tid, VectorClock};

use crate::snap::{decode_vc, encode_vc};

#[derive(Clone, Debug)]
struct ThreadState {
    vc: VectorClock,
    bitmap: EpochBitmap,
}

/// Clocks of one synchronization object (mutex or reader-writer lock —
/// they share the id space, as pthreads addresses do).
#[derive(Clone, Debug, Default)]
struct LockClocks {
    /// Everything published by any release (read or write): what a
    /// *write* acquire must synchronize with.
    all: VectorClock,
    /// Everything published by write releases only: what a *read*
    /// acquire synchronizes with (readers do not order other readers).
    writer: VectorClock,
}

impl ThreadState {
    fn new(tid: Tid) -> Self {
        let mut vc = VectorClock::new();
        vc.set(tid, 1); // epochs start at 1; clock 0 means "never".
        ThreadState {
            vc,
            bitmap: EpochBitmap::new(),
        }
    }
}

/// Thread `t`'s state, materialized on first use. A free function over
/// the thread table, so that [`HbState::first_access`] can update the
/// bitmap byte counters while it holds the returned clock.
#[inline]
fn thread_slot(threads: &mut Vec<Option<ThreadState>>, t: Tid) -> &mut ThreadState {
    let i = t.index();
    if i >= threads.len() {
        threads.resize_with(i + 1, || None);
    }
    threads[i].get_or_insert_with(|| ThreadState::new(t))
}

/// The synchronization state of an execution, updated by sync events and
/// queried by detectors on every access.
///
/// Epoch semantics follow DJIT+ (§II.B): a thread's own clock is
/// incremented at every lock **release** (and at fork/join edges, which
/// also publish its clock), so a thread's execution is a sequence of
/// epochs delimited by release-like operations. The per-thread same-epoch
/// bitmap is reset whenever the thread's own clock ticks.
#[derive(Clone, Debug, Default)]
pub struct HbState {
    threads: Vec<Option<ThreadState>>,
    locks: HashMap<LockId, LockClocks>,
    /// Condition-variable clocks: signals publish, waits join.
    cvs: HashMap<LockId, VectorClock>,
    /// Barrier clocks: arrivals accumulate, departures join.
    ///
    /// A single accumulating clock per barrier conservatively orders a
    /// departure after *every* earlier arrival in observed order — exact
    /// within a generation, and at worst an extra edge across adjacent
    /// generations (which can hide a cross-generation race but never
    /// fabricates one).
    bars: HashMap<LockId, VectorClock>,
    bitmap_bytes: usize,
    peak_bitmap_bytes: usize,
}

impl HbState {
    /// Creates an empty state (threads materialize on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current vector clock of thread `t`.
    pub fn clock(&mut self, t: Tid) -> &VectorClock {
        &thread_slot(&mut self.threads, t).vc
    }

    /// The current epoch `c@t` of thread `t`.
    pub fn epoch(&mut self, t: Tid) -> Epoch {
        let vc = &thread_slot(&mut self.threads, t).vc;
        Epoch::new(vc.get(t), t)
    }

    /// Ticks `t`'s own clock (starting a new epoch) and resets its bitmap.
    fn new_epoch(&mut self, t: Tid) {
        let ts = thread_slot(&mut self.threads, t);
        ts.vc.tick(t);
        let before = ts.bitmap.bytes();
        ts.bitmap.reset();
        self.bitmap_bytes -= before;
    }

    /// Handles a synchronization event; access events are ignored (they
    /// are the detectors' business). Returns `true` if the event was a
    /// sync event.
    pub fn on_sync(&mut self, ev: &Event) -> bool {
        match *ev {
            Event::Acquire { tid, lock } => {
                // T_i := T_i ⊔ L_s (everything any release published).
                if let Some(lc) = self.locks.get(&lock) {
                    let all = lc.all.clone();
                    thread_slot(&mut self.threads, tid).vc.join(&all);
                } else {
                    thread_slot(&mut self.threads, tid); // materialize
                }
                true
            }
            Event::Release { tid, lock } => {
                // L_s := L_s ⊔ T_i, then a new epoch for T_i. A write
                // release publishes to readers and writers alike.
                let tvc = thread_slot(&mut self.threads, tid).vc.clone();
                let lc = self.locks.entry(lock).or_default();
                lc.all.join(&tvc);
                lc.writer.join(&tvc);
                self.new_epoch(tid);
                true
            }
            Event::AcquireRead { tid, lock } => {
                // Readers synchronize with prior write releases only.
                if let Some(lc) = self.locks.get(&lock) {
                    let w = lc.writer.clone();
                    thread_slot(&mut self.threads, tid).vc.join(&w);
                } else {
                    thread_slot(&mut self.threads, tid);
                }
                true
            }
            Event::ReleaseRead { tid, lock } => {
                // A read release publishes to the *next writer* (via
                // `all`) but not to other readers.
                let tvc = thread_slot(&mut self.threads, tid).vc.clone();
                self.locks.entry(lock).or_default().all.join(&tvc);
                self.new_epoch(tid);
                true
            }
            Event::CvSignal { tid, cv } => {
                // C := C ⊔ T, then a new epoch (the signal publishes).
                let tvc = thread_slot(&mut self.threads, tid).vc.clone();
                self.cvs
                    .entry(cv)
                    .and_modify(|c| c.join(&tvc))
                    .or_insert(tvc);
                self.new_epoch(tid);
                true
            }
            Event::CvWait { tid, cv } => {
                // T := T ⊔ C (join every signaler seen so far).
                if let Some(c) = self.cvs.get(&cv) {
                    let c = c.clone();
                    thread_slot(&mut self.threads, tid).vc.join(&c);
                } else {
                    thread_slot(&mut self.threads, tid);
                }
                true
            }
            Event::BarrierArrive { tid, bar } => {
                // G := G ⊔ T, then a new epoch (the arrival publishes).
                let tvc = thread_slot(&mut self.threads, tid).vc.clone();
                self.bars
                    .entry(bar)
                    .and_modify(|g| g.join(&tvc))
                    .or_insert(tvc);
                self.new_epoch(tid);
                true
            }
            Event::BarrierDepart { tid, bar } => {
                // T := T ⊔ G (adopt every participant's arrival clock).
                if let Some(g) = self.bars.get(&bar) {
                    let g = g.clone();
                    thread_slot(&mut self.threads, tid).vc.join(&g);
                } else {
                    thread_slot(&mut self.threads, tid);
                }
                true
            }
            Event::Fork { parent, child } => {
                // C_child := C_child ⊔ C_parent ; new epoch for parent.
                let pvc = thread_slot(&mut self.threads, parent).vc.clone();
                thread_slot(&mut self.threads, child).vc.join(&pvc);
                self.new_epoch(parent);
                true
            }
            Event::Join { parent, child } => {
                // C_parent := C_parent ⊔ C_child ; new epoch for child.
                let cvc = thread_slot(&mut self.threads, child).vc.clone();
                thread_slot(&mut self.threads, parent).vc.join(&cvc);
                self.new_epoch(child);
                true
            }
            _ => false,
        }
    }

    /// The per-access front end. Resolves thread `t` once and runs the
    /// same-epoch filter with one bitmap probe: returns `None` if `t`
    /// already made this access in its current epoch (for a read, a read
    /// *or* a write of `addr` counts), otherwise marks the access and
    /// returns `t`'s epoch and its vector clock, borrowed — detectors
    /// check and record against it in place instead of copying it.
    // Inlined across crates (no LTO): a call costs about as much as the
    // probe itself.
    #[inline]
    pub fn first_access(
        &mut self,
        t: Tid,
        addr: Addr,
        is_write: bool,
    ) -> Option<(Epoch, &VectorClock)> {
        let ts = thread_slot(&mut self.threads, t);
        let before = ts.bitmap.bytes();
        if !ts.bitmap.first_access(addr, is_write) {
            return None;
        }
        self.bitmap_bytes += ts.bitmap.bytes() - before;
        self.peak_bitmap_bytes = self.peak_bitmap_bytes.max(self.bitmap_bytes);
        Some((Epoch::new(ts.vc.get(t), t), &ts.vc))
    }

    /// Current modeled bytes of all per-thread bitmaps.
    pub fn bitmap_bytes(&self) -> usize {
        self.bitmap_bytes
    }

    /// Peak modeled bitmap bytes over the run.
    pub fn peak_bitmap_bytes(&self) -> usize {
        self.peak_bitmap_bytes
    }

    /// Number of threads materialized so far.
    pub fn thread_count(&self) -> usize {
        self.threads.iter().filter(|t| t.is_some()).count()
    }

    /// Serializes the complete synchronization state. Lock/cv/barrier
    /// tables are written sorted by id so equal states encode to equal
    /// bytes regardless of hash-map iteration order.
    pub fn encode(&self, w: &mut SnapshotWriter) {
        w.count(self.threads.len());
        for slot in &self.threads {
            match slot {
                Some(ts) => {
                    w.bool(true);
                    encode_vc(w, &ts.vc);
                    ts.bitmap.encode(w);
                }
                None => w.bool(false),
            }
        }
        let mut locks: Vec<_> = self.locks.iter().collect();
        locks.sort_unstable_by_key(|(id, _)| id.0);
        w.count(locks.len());
        for (id, lc) in locks {
            w.u32(id.0);
            encode_vc(w, &lc.all);
            encode_vc(w, &lc.writer);
        }
        for map in [&self.cvs, &self.bars] {
            let mut entries: Vec<_> = map.iter().collect();
            entries.sort_unstable_by_key(|(id, _)| id.0);
            w.count(entries.len());
            for (id, vc) in entries {
                w.u32(id.0);
                encode_vc(w, vc);
            }
        }
        w.u64(self.bitmap_bytes as u64);
        w.u64(self.peak_bitmap_bytes as u64);
    }

    /// Rebuilds a state from [`HbState::encode`]d bytes.
    pub fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, TraceError> {
        let n = r.count("thread slots")?;
        let mut threads = Vec::new();
        for _ in 0..n {
            threads.push(if r.bool()? {
                Some(ThreadState {
                    vc: decode_vc(r)?,
                    bitmap: EpochBitmap::decode(r)?,
                })
            } else {
                None
            });
        }
        let n = r.count("lock clocks")?;
        let mut locks = HashMap::new();
        for _ in 0..n {
            let id = LockId(r.u32()?);
            let all = decode_vc(r)?;
            let writer = decode_vc(r)?;
            locks.insert(id, LockClocks { all, writer });
        }
        let mut cvs = HashMap::new();
        let mut bars = HashMap::new();
        for map in [&mut cvs, &mut bars] {
            let n = r.count("sync clocks")?;
            for _ in 0..n {
                let id = LockId(r.u32()?);
                map.insert(id, decode_vc(r)?);
            }
        }
        let bitmap_bytes = r.u64()? as usize;
        let peak_bitmap_bytes = r.u64()? as usize;
        Ok(HbState {
            threads,
            locks,
            cvs,
            bars,
            bitmap_bytes,
            peak_bitmap_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_epoch_is_one() {
        let mut hb = HbState::new();
        assert_eq!(hb.epoch(Tid(0)), Epoch::new(1, Tid(0)));
        assert_eq!(hb.clock(Tid(0)).get(Tid(0)), 1);
    }

    #[test]
    fn release_starts_new_epoch_and_transfers_clock() {
        let mut hb = HbState::new();
        let l = LockId(1);
        // T0 releases: lock learns T0's clock, T0 enters epoch 2.
        hb.on_sync(&Event::Release {
            tid: Tid(0),
            lock: l,
        });
        assert_eq!(hb.epoch(Tid(0)), Epoch::new(2, Tid(0)));
        // T1 acquires: learns T0's epoch-1 clock.
        hb.on_sync(&Event::Acquire {
            tid: Tid(1),
            lock: l,
        });
        assert_eq!(hb.clock(Tid(1)).get(Tid(0)), 1);
        assert_eq!(hb.clock(Tid(1)).get(Tid(1)), 1);
    }

    #[test]
    fn fork_publishes_parent_clock() {
        let mut hb = HbState::new();
        hb.on_sync(&Event::Fork {
            parent: Tid(0),
            child: Tid(1),
        });
        assert_eq!(hb.clock(Tid(1)).get(Tid(0)), 1);
        // Parent has moved to a new epoch, so later parent work is not
        // ordered before the child's knowledge.
        assert_eq!(hb.epoch(Tid(0)), Epoch::new(2, Tid(0)));
    }

    #[test]
    fn join_publishes_child_clock() {
        let mut hb = HbState::new();
        hb.on_sync(&Event::Fork {
            parent: Tid(0),
            child: Tid(1),
        });
        hb.on_sync(&Event::Release {
            tid: Tid(1),
            lock: LockId(9),
        });
        hb.on_sync(&Event::Join {
            parent: Tid(0),
            child: Tid(1),
        });
        assert_eq!(hb.clock(Tid(0)).get(Tid(1)), 2);
    }

    #[test]
    fn same_epoch_bitmap_filters_and_resets() {
        let mut hb = HbState::new();
        let a = Addr(0x40);
        assert!(hb.first_access(Tid(0), a, false).is_some());
        assert!(hb.first_access(Tid(0), a, false).is_none());
        assert!(hb.first_access(Tid(0), a, true).is_some());
        assert!(hb.first_access(Tid(0), a, true).is_none());
        // A read after a write in the same epoch is also filtered.
        assert!(hb.first_access(Tid(0), Addr(0x40), false).is_none());
        assert!(hb.bitmap_bytes() > 0);
        // New epoch at release → bitmap reset.
        hb.on_sync(&Event::Release {
            tid: Tid(0),
            lock: LockId(0),
        });
        assert_eq!(hb.bitmap_bytes(), 0);
        assert!(hb.peak_bitmap_bytes() > 0);
        assert!(hb.first_access(Tid(0), a, false).is_some());
    }

    #[test]
    fn bitmaps_are_per_thread() {
        let mut hb = HbState::new();
        let a = Addr(0x40);
        assert!(hb.first_access(Tid(0), a, true).is_some());
        assert!(hb.first_access(Tid(1), a, true).is_some());
    }

    #[test]
    fn access_events_are_not_sync() {
        let mut hb = HbState::new();
        assert!(!hb.on_sync(&Event::Read {
            tid: Tid(0),
            addr: Addr(0),
            size: dgrace_trace::AccessSize::U8,
        }));
        assert!(!hb.on_sync(&Event::Alloc {
            tid: Tid(0),
            addr: Addr(0),
            size: 8,
        }));
    }

    #[test]
    fn rwlock_reader_sees_writer_only() {
        let mut hb = HbState::new();
        // T0 write-releases L (publishes epoch 1), T1 read-releases L
        // (publishes into `all` only).
        hb.on_sync(&Event::Release {
            tid: Tid(0),
            lock: LockId(5),
        });
        hb.on_sync(&Event::AcquireRead {
            tid: Tid(1),
            lock: LockId(5),
        });
        assert_eq!(
            hb.clock(Tid(1)).get(Tid(0)),
            1,
            "reader sees writer release"
        );
        hb.on_sync(&Event::ReleaseRead {
            tid: Tid(1),
            lock: LockId(5),
        });
        // Another reader: must NOT see T1's read-release...
        hb.on_sync(&Event::AcquireRead {
            tid: Tid(2),
            lock: LockId(5),
        });
        assert_eq!(hb.clock(Tid(2)).get(Tid(1)), 0, "readers unordered");
        // ...but a writer sees both the write and the read release.
        hb.on_sync(&Event::Acquire {
            tid: Tid(3),
            lock: LockId(5),
        });
        assert_eq!(hb.clock(Tid(3)).get(Tid(0)), 1);
        assert_eq!(hb.clock(Tid(3)).get(Tid(1)), 1);
    }

    #[test]
    fn condvar_signal_then_wait_orders() {
        let mut hb = HbState::new();
        hb.on_sync(&Event::CvSignal {
            tid: Tid(0),
            cv: LockId(9),
        });
        assert_eq!(hb.epoch(Tid(0)), Epoch::new(2, Tid(0)), "signal ticks");
        hb.on_sync(&Event::CvWait {
            tid: Tid(1),
            cv: LockId(9),
        });
        assert_eq!(hb.clock(Tid(1)).get(Tid(0)), 1, "waiter joined signaler");
        // Waiting on a never-signaled cv is a no-op.
        hb.on_sync(&Event::CvWait {
            tid: Tid(2),
            cv: LockId(8),
        });
        assert_eq!(hb.clock(Tid(2)).get(Tid(0)), 0);
    }

    #[test]
    fn barrier_departure_joins_all_arrivals() {
        let mut hb = HbState::new();
        for t in 0..3 {
            hb.on_sync(&Event::BarrierArrive {
                tid: Tid(t),
                bar: LockId(7),
            });
        }
        for t in 0..3 {
            hb.on_sync(&Event::BarrierDepart {
                tid: Tid(t),
                bar: LockId(7),
            });
        }
        // Every departing thread knows every arrival epoch (1 each).
        for t in 0..3 {
            for u in 0..3 {
                assert_eq!(
                    hb.clock(Tid(t)).get(Tid(u)),
                    if t == u { 2 } else { 1 },
                    "T{t} view of T{u}"
                );
            }
        }
    }

    #[test]
    fn barrier_arrive_resets_bitmap() {
        let mut hb = HbState::new();
        let a = Addr(0x20);
        assert!(hb.first_access(Tid(0), a, true).is_some());
        hb.on_sync(&Event::BarrierArrive {
            tid: Tid(0),
            bar: LockId(7),
        });
        assert!(
            hb.first_access(Tid(0), a, true).is_some(),
            "new epoch after arrive"
        );
    }

    #[test]
    fn snapshot_round_trip_preserves_behavior() {
        let mut hb = HbState::new();
        hb.on_sync(&Event::Fork {
            parent: Tid(0),
            child: Tid(1),
        });
        hb.on_sync(&Event::Release {
            tid: Tid(1),
            lock: LockId(3),
        });
        hb.on_sync(&Event::CvSignal {
            tid: Tid(0),
            cv: LockId(9),
        });
        hb.on_sync(&Event::BarrierArrive {
            tid: Tid(1),
            bar: LockId(7),
        });
        hb.first_access(Tid(0), Addr(0x40), false);

        let mut w = dgrace_trace::SnapshotWriter::new(*b"TEST", 1);
        hb.encode(&mut w);
        let bytes = w.finish();
        let mut r =
            dgrace_trace::SnapshotReader::new(&bytes, *b"TEST", 1, Default::default()).unwrap();
        let mut back = HbState::decode(&mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(back.thread_count(), hb.thread_count());
        assert_eq!(back.bitmap_bytes(), hb.bitmap_bytes());
        assert_eq!(back.peak_bitmap_bytes(), hb.peak_bitmap_bytes());
        // Both copies behave identically on a shared event suffix.
        for st in [&mut hb, &mut back] {
            st.on_sync(&Event::Acquire {
                tid: Tid(2),
                lock: LockId(3),
            });
            st.on_sync(&Event::BarrierDepart {
                tid: Tid(2),
                bar: LockId(7),
            });
        }
        assert_eq!(back.clock(Tid(2)), hb.clock(Tid(2)));
        assert_eq!(
            back.first_access(Tid(0), Addr(0x40), false).is_some(),
            hb.first_access(Tid(0), Addr(0x40), false).is_some(),
            "same-epoch bitmap survived the round trip"
        );
    }

    /// `first_access` against the three calls it replaced: the
    /// same-epoch filter (modeled as a per-thread set of
    /// `(addr, is_write)` cleared whenever the thread's epoch moves),
    /// then `epoch` and `clock`, over a random mix of accesses and every
    /// kind of sync event.
    #[test]
    fn first_access_matches_filter_epoch_and_clock() {
        let mut hb = HbState::new();
        let mut model: HashMap<Tid, (Epoch, std::collections::HashSet<(Addr, bool)>)> =
            HashMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut filtered = 0;
        for _ in 0..50_000 {
            let r = next();
            let tid = Tid((r % 4) as u32);
            let other = Tid(((r >> 8) % 4) as u32);
            let id = LockId(((r >> 16) % 3) as u32);
            let sync = match (r >> 24) % 64 {
                0 => Some(Event::Release { tid, lock: id }),
                1 => Some(Event::Acquire { tid, lock: id }),
                2 => Some(Event::ReleaseRead { tid, lock: id }),
                3 => Some(Event::AcquireRead { tid, lock: id }),
                4 => Some(Event::CvSignal { tid, cv: id }),
                5 => Some(Event::CvWait { tid, cv: id }),
                6 => Some(Event::BarrierArrive { tid, bar: id }),
                7 => Some(Event::BarrierDepart { tid, bar: id }),
                8 if tid != other => Some(Event::Fork {
                    parent: tid,
                    child: other,
                }),
                9 if tid != other => Some(Event::Join {
                    parent: tid,
                    child: other,
                }),
                _ => None,
            };
            if let Some(ev) = sync {
                assert!(hb.on_sync(&ev));
                continue;
            }
            // 64 locations spread over four bitmap chunks.
            let addr = Addr((r >> 32) % 64 * 97);
            let is_write = (r >> 40) & 1 == 1;
            let epoch = hb.epoch(tid);
            let clock = hb.clock(tid).clone();
            let (at, seen) = model.entry(tid).or_insert((epoch, Default::default()));
            if *at != epoch {
                *at = epoch;
                seen.clear();
            }
            let repeat =
                seen.contains(&(addr, true)) || (!is_write && seen.contains(&(addr, false)));
            if repeat {
                filtered += 1;
            } else {
                seen.insert((addr, is_write));
            }
            let got = hb
                .first_access(tid, addr, is_write)
                .map(|(e, vc)| (e, vc.clone()));
            assert_eq!(got, (!repeat).then_some((epoch, clock)));
        }
        assert!(filtered > 1000, "the mix must exercise the filter");
    }

    #[test]
    fn transitive_hb_via_two_locks() {
        let mut hb = HbState::new();
        // T0 rel L1; T1 acq L1, rel L2; T2 acq L2 → T2 knows T0's epoch 1.
        hb.on_sync(&Event::Release {
            tid: Tid(0),
            lock: LockId(1),
        });
        hb.on_sync(&Event::Acquire {
            tid: Tid(1),
            lock: LockId(1),
        });
        hb.on_sync(&Event::Release {
            tid: Tid(1),
            lock: LockId(2),
        });
        hb.on_sync(&Event::Acquire {
            tid: Tid(2),
            lock: LockId(2),
        });
        assert_eq!(hb.clock(Tid(2)).get(Tid(0)), 1);
        assert_eq!(hb.clock(Tid(2)).get(Tid(1)), 1);
    }
}
