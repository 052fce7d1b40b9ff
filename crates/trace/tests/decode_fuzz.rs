//! Decoder fuzzing: the hardened trace/summary decoders must survive
//! arbitrary bytes, single-byte mutations of valid encodings, and
//! truncations — never panicking and never allocating past what the
//! input length can justify ([`DecodeLimits`] exists precisely so a
//! 16-byte file declaring 2^60 events cannot reserve memory for them).
//!
//! Each property runs 10 000 deterministic cases (seeded from the test
//! name, so failures reproduce exactly); the one-pass load agreement
//! properties at the end run 2 000 each.
//!
//! Over-allocation is checked through a length proxy: the smallest event
//! record is 9 bytes (events start at byte 16), so a decoder that holds
//! more events than `(input - 16) / 9` must have trusted a declared
//! count over the actual bytes. The same reasoning bounds summary
//! ranges, whose records are at least 17 bytes.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use dgrace_trace::io::{from_bytes, read_trace_with, summary_from_bytes, to_bytes, EventReader};
use dgrace_trace::{
    decode_event_at, decode_events, encode_events, read_frame, validate, write_frame, AccessSize,
    Addr, DecodeLimits, DecodeStats, Event, LockId, ReadOptions, Tid, Trace, TraceBuilder,
    TraceError, ValidationError, MAX_FRAME_LEN,
};

/// Upper bound on events any honest decode of `n` input bytes can yield.
fn max_events(n: usize) -> usize {
    n.saturating_sub(16) / 9
}

/// Builds a structurally valid trace from generated op tuples.
fn trace_from_ops(ops: &[(u8, u32, u64, u8, u64)]) -> Trace {
    let mut b = TraceBuilder::new();
    for &(kind, tid, addr, sz, len) in ops {
        let tid = tid % 64;
        let size = match sz % 4 {
            0 => AccessSize::U8,
            1 => AccessSize::U16,
            2 => AccessSize::U32,
            _ => AccessSize::U64,
        };
        match kind % 8 {
            0 => {
                b.read(tid, addr, size);
            }
            1 => {
                b.write(tid, addr, size);
            }
            2 => {
                b.acquire(tid, (addr % 16) as u32);
            }
            3 => {
                b.release(tid, (addr % 16) as u32);
            }
            4 => {
                b.fork(tid, tid.wrapping_add(1) % 64);
            }
            5 => {
                b.join(tid, tid.wrapping_add(1) % 64);
            }
            6 => {
                b.alloc(tid, addr, 1 + len % 4096);
            }
            _ => {
                b.free(tid, addr, 1 + len % 4096);
            }
        }
    }
    b.build()
}

/// Strict decode of arbitrary bytes: an `Err` or a bounded `Ok`, never a
/// panic, never more events than the byte count can encode.
fn check_strict(bytes: &[u8]) {
    if let Ok(trace) = from_bytes(bytes) {
        assert!(
            trace.len() <= max_events(bytes.len()),
            "decoded {} events from {} bytes",
            trace.len(),
            bytes.len()
        );
    }
}

/// Resync decode of the same bytes: also panic-free, also bounded, and
/// its stats stay coherent with what was returned.
fn check_resync(bytes: &[u8]) {
    let opts = ReadOptions {
        limits: DecodeLimits::default(),
        resync: true,
    };
    if let Ok((trace, stats)) = read_trace_with(&mut &bytes[..], opts) {
        assert!(trace.len() <= max_events(bytes.len()));
        assert_eq!(stats.decoded, trace.len() as u64);
        assert!(stats.dropped_bytes <= bytes.len() as u64);
    }
}

/// Streaming decode: the iterator must terminate (bounded by the input
/// length) and stop permanently after its first error.
fn check_streaming(bytes: &[u8]) {
    let Ok(reader) = EventReader::new(bytes) else {
        return;
    };
    let mut decoded = 0usize;
    let mut steps = 0usize;
    for item in reader {
        steps += 1;
        assert!(
            steps <= bytes.len() + 1,
            "EventReader did not terminate within the input length"
        );
        match item {
            Ok(_) => decoded += 1,
            Err(_) => break, // the iterator fuses after an error
        }
    }
    assert!(decoded <= max_events(bytes.len()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Pure garbage bytes, sometimes wearing a valid-looking header.
    #[test]
    fn arbitrary_bytes_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..192),
        with_header in any::<bool>(),
    ) {
        let bytes = if with_header {
            let mut b = b"DGRT\x01\x00\x00\x00".to_vec();
            b.extend_from_slice(&body);
            b
        } else {
            body
        };
        check_strict(&bytes);
        check_resync(&bytes);
        check_streaming(&bytes);
        // The summary decoder sees the same bytes; it must be as robust.
        let _ = summary_from_bytes(&bytes);
    }

    /// A valid encoding with one byte flipped: strict decode either
    /// succeeds (the flip hit a payload field) or fails typed; resync
    /// decode recovers a subset no larger than the original.
    #[test]
    fn single_byte_mutations_never_panic(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u64..0x4000, any::<u8>(), any::<u64>()),
            1..24,
        ),
        offset in any::<usize>(),
        value in any::<u8>(),
    ) {
        let trace = trace_from_ops(&ops);
        let mut bytes = to_bytes(&trace);
        let n = bytes.len();
        bytes[offset % n] ^= value | 1; // guarantee the byte changes
        match from_bytes(&bytes) {
            Ok(decoded) => prop_assert!(decoded.len() <= max_events(n)),
            Err(e) => {
                if let Some(off) = e.offset() {
                    prop_assert!(off <= n as u64, "error offset {off} beyond input {n}");
                }
            }
        }
        let opts = ReadOptions { limits: DecodeLimits::default(), resync: true };
        if let Ok((recovered, stats)) = read_trace_with(&mut &bytes[..], opts) {
            prop_assert!(recovered.len() <= trace.len());
            prop_assert_eq!(stats.decoded, recovered.len() as u64);
        }
        check_streaming(&bytes);
    }

    /// A valid encoding cut off at an arbitrary point: strict decode of a
    /// proper prefix reports `Truncated` (or a header error for cuts
    /// inside the header); resync decode ends the stream cleanly.
    #[test]
    fn truncations_never_panic(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u64..0x4000, any::<u8>(), any::<u64>()),
            1..24,
        ),
        cut in any::<usize>(),
    ) {
        let trace = trace_from_ops(&ops);
        let bytes = to_bytes(&trace);
        let cut = cut % bytes.len(); // always a proper prefix
        let prefix = &bytes[..cut];
        match from_bytes(prefix) {
            Ok(_) => prop_assert!(false, "a proper prefix cannot satisfy the declared count"),
            Err(TraceError::Truncated { offset, .. }) => {
                prop_assert!(offset <= cut as u64);
            }
            Err(TraceError::BadMagic(_)) | Err(TraceError::Io(_)) => {
                prop_assert!(cut < 16, "header errors only for cuts inside the header");
            }
            Err(_) => {}
        }
        check_resync(prefix);
        check_streaming(prefix);
    }

    /// Tight decode limits are enforced, not just advisory: a trace whose
    /// thread ids exceed the configured bound fails typed under those
    /// limits while decoding fine under the defaults.
    #[test]
    fn limits_are_enforced(tid in 9u32..1024, addr in 0u64..0x4000) {
        let mut b = TraceBuilder::new();
        b.write(tid, addr, AccessSize::U8);
        let bytes = to_bytes(&b.build());
        prop_assert!(from_bytes(&bytes).is_ok());
        let tight = ReadOptions {
            limits: DecodeLimits { max_tid: 8, ..DecodeLimits::default() },
            resync: false,
        };
        match read_trace_with(&mut &bytes[..], tight) {
            Err(TraceError::LimitExceeded { what, value, limit, .. }) => {
                prop_assert_eq!(what, "thread id");
                prop_assert_eq!(value, tid as u64);
                prop_assert_eq!(limit, 8);
            }
            other => prop_assert!(false, "expected LimitExceeded, got {:?}", other.map(|(t, _)| t.len())),
        }
    }
}

/// Encodes a live-protocol stream: each op chunk becomes one framed
/// event batch, exactly as `dgrace serve` clients send them.
fn framed_stream(ops: &[(u8, u32, u64, u8, u64)], per_frame: usize) -> Vec<u8> {
    let trace = trace_from_ops(ops);
    let mut bytes = Vec::new();
    for chunk in trace.events.chunks(per_frame.max(1)) {
        write_frame(&mut bytes, 0x02, &encode_events(chunk)).expect("frame fits");
    }
    bytes
}

/// Reads frames until EOF or the first error, asserting the loop is
/// bounded by the input and every recovered event batch accounts its
/// losses exactly (`decoded + lost == declared`).
fn check_framed(bytes: &[u8]) {
    let limits = DecodeLimits::default();
    let mut r = bytes;
    let mut offset = 0u64;
    let mut frames = 0usize;
    loop {
        frames += 1;
        assert!(
            frames <= bytes.len() + 1,
            "frame reader did not terminate within the input length"
        );
        match read_frame(&mut r, &mut offset, MAX_FRAME_LEN) {
            Ok(Some(frame)) => {
                assert!(offset <= bytes.len() as u64, "offset ran past the input");
                let batch =
                    decode_events(&frame.payload, offset - frame.payload.len() as u64, &limits);
                assert_eq!(
                    batch.events.len() as u64 + batch.lost(),
                    batch.declared as u64,
                    "loss accounting must cover every declared event"
                );
                assert!(batch.error.is_some() || batch.lost() == 0);
            }
            Ok(None) => break,
            Err(e) => {
                // Typed, positioned failure — the server quarantines on
                // this; it must never be a panic or a runaway offset.
                if let Some(off) = e.offset() {
                    assert!(off <= bytes.len() as u64, "error offset {off} beyond input");
                }
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// A valid framed event stream cut off mid-frame: the reader yields
    /// every whole frame, then one typed error or clean EOF — the
    /// disconnect-mid-segment path of the live server.
    #[test]
    fn framed_stream_truncations_never_panic(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u64..0x4000, any::<u8>(), any::<u64>()),
            1..24,
        ),
        per_frame in 1usize..32,
        cut in any::<usize>(),
    ) {
        let bytes = framed_stream(&ops, per_frame);
        check_framed(&bytes[..cut % (bytes.len() + 1)]);
    }

    /// A hostile length prefix: zero and oversized lengths fail typed
    /// before any payload allocation; anything under the cap either
    /// truncates or decodes bounded.
    #[test]
    fn oversized_length_prefixes_fail_typed(
        len in any::<u32>(),
        kind in any::<u8>(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.push(kind);
        bytes.extend_from_slice(&body);
        let mut r = &bytes[..];
        let mut offset = 0u64;
        match read_frame(&mut r, &mut offset, MAX_FRAME_LEN) {
            Err(TraceError::LimitExceeded { value, limit, .. }) => {
                prop_assert_eq!(value, len as u64);
                prop_assert_eq!(limit, MAX_FRAME_LEN as u64);
                prop_assert!(len > MAX_FRAME_LEN);
            }
            Err(TraceError::Malformed { offset, .. }) => {
                prop_assert_eq!(len, 0);
                prop_assert_eq!(offset, 0);
            }
            Err(TraceError::Truncated { .. }) => prop_assert!(len as usize > 1 + body.len()),
            Ok(Some(frame)) => prop_assert_eq!(frame.payload.len() + 1, len as usize),
            other => prop_assert!(false, "unexpected read_frame result: {other:?}"),
        }
    }

    /// Garbage spliced into a valid framed stream (the interleaved-
    /// session corruption case): whole frames before the splice still
    /// decode, and the stream fails typed at or after it.
    #[test]
    fn interleaved_garbage_never_panics(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u64..0x4000, any::<u8>(), any::<u64>()),
            1..24,
        ),
        per_frame in 1usize..32,
        splice_at in any::<usize>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        let mut bytes = framed_stream(&ops, per_frame);
        let at = splice_at % (bytes.len() + 1);
        bytes.splice(at..at, garbage);
        check_framed(&bytes);
    }

    /// A single flipped byte inside one framed batch: the prefix before
    /// the corrupt record survives and `lost()` is exactly the declared
    /// remainder — the quarantine arithmetic the server reports.
    #[test]
    fn event_batch_mutations_account_losses(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u64..0x4000, any::<u8>(), any::<u64>()),
            1..24,
        ),
        offset in any::<usize>(),
        value in any::<u8>(),
    ) {
        let trace = trace_from_ops(&ops);
        let declared = trace.events.len() as u32;
        let mut payload = encode_events(&trace.events);
        let n = payload.len();
        payload[offset % n] ^= value | 1;
        let batch = decode_events(&payload, 0, &DecodeLimits::default());
        prop_assert!(batch.events.len() <= trace.events.len());
        if batch.error.is_none() {
            // The flip hit a value field (address, size, length): same
            // shape, different content.
            prop_assert_eq!(batch.declared, declared);
            prop_assert_eq!(batch.lost(), 0);
        } else {
            prop_assert_eq!(
                batch.events.len() as u64 + batch.lost(),
                batch.declared as u64
            );
        }
    }
}

// ---------------------------------------------------------------------
// One-pass load agreement: the block reader validates every event it
// decodes. Its events, `DecodeStats` and first `ValidationError` must
// match a plain slice decode (`decode_event_at` in a loop) followed by a
// separate validation pass, on valid traces, traces with one injected
// defect, and arbitrary byte mutations, in strict and resync mode.
// ---------------------------------------------------------------------

/// A `Read` that hands out at most one byte per call, so every record
/// straddles a refill of the reader's block.
struct Trickle<'a>(&'a [u8]);

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), out.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// A reference model of the schedule rules, written apart from the
/// decoder's `Validator`: hash sets of forked and joined threads probed
/// on every event. A join of a thread holding several locks names the
/// lowest.
fn reference_validate(events: &[Event]) -> Option<ValidationError> {
    let mut forked: HashSet<Tid> = HashSet::from([Tid::MAIN]);
    let mut joined: HashSet<Tid> = HashSet::new();
    let mut held: HashMap<LockId, Tid> = HashMap::new();
    let mut read_held: HashMap<LockId, Vec<Tid>> = HashMap::new();
    let mut arrived: HashMap<LockId, Vec<Tid>> = HashMap::new();
    for (at, ev) in events.iter().enumerate() {
        let actor = ev.tid();
        if !forked.contains(&actor) {
            return Some(ValidationError::UnforkedThread { tid: actor, at });
        }
        if joined.contains(&actor) {
            return Some(ValidationError::ActedAfterJoin { tid: actor, at });
        }
        match *ev {
            Event::Fork { child, .. } if !forked.insert(child) => {
                return Some(ValidationError::DoubleFork { tid: child, at });
            }
            Event::Join { child, .. } => {
                if !forked.contains(&child) {
                    return Some(ValidationError::JoinOfUnforked { tid: child, at });
                }
                let exclusive = held.iter().filter(|(_, &t)| t == child).map(|(&l, _)| l);
                let shared = read_held
                    .iter()
                    .filter(|(_, h)| h.contains(&child))
                    .map(|(&l, _)| l);
                if let Some(lock) = exclusive.min().or_else(|| shared.min()) {
                    return Some(ValidationError::ThreadJoinedHoldingLock {
                        tid: child,
                        lock,
                        at,
                    });
                }
                joined.insert(child);
            }
            Event::Acquire { tid, lock } => {
                if held.contains_key(&lock) {
                    return Some(ValidationError::AcquireOfHeldLock { tid, lock, at });
                }
                if read_held.get(&lock).is_some_and(|r| !r.is_empty()) {
                    return Some(ValidationError::RwLockConflict { tid, lock, at });
                }
                held.insert(lock, tid);
            }
            Event::Release { tid, lock } if held.remove(&lock) != Some(tid) => {
                return Some(ValidationError::ReleaseWithoutAcquire { tid, lock, at });
            }
            Event::AcquireRead { tid, lock } => {
                if held.contains_key(&lock) {
                    return Some(ValidationError::RwLockConflict { tid, lock, at });
                }
                read_held.entry(lock).or_default().push(tid);
            }
            Event::ReleaseRead { tid, lock } => {
                let h = read_held.entry(lock).or_default();
                match h.iter().position(|&t| t == tid) {
                    Some(i) => drop(h.swap_remove(i)),
                    None => {
                        return Some(ValidationError::ReadReleaseWithoutAcquire { tid, lock, at })
                    }
                }
            }
            Event::BarrierArrive { tid, bar } => arrived.entry(bar).or_default().push(tid),
            Event::BarrierDepart { tid, bar } => {
                let w = arrived.entry(bar).or_default();
                match w.iter().position(|&t| t == tid) {
                    Some(i) => drop(w.swap_remove(i)),
                    None => {
                        return Some(ValidationError::BarrierDepartWithoutArrive { tid, bar, at })
                    }
                }
            }
            Event::Alloc { size: 0, .. } | Event::Free { size: 0, .. } => {
                return Some(ValidationError::EmptyAccess { at });
            }
            _ => {}
        }
    }
    None
}

/// A well-formed schedule from generated op tuples: threads act only
/// while live, locks are released by their holders, every barrier
/// departure follows an arrival, and joined threads hold nothing. The
/// main thread is never joined.
fn valid_trace(ops: &[(u8, u32, u64)]) -> Trace {
    let mut events = Vec::new();
    let mut live = vec![0u32];
    let mut next_tid = 1u32;
    let mut held: Vec<(u32, u32)> = Vec::new(); // (lock, holder), locks 0..8
    let mut read_held: Vec<(u32, u32)> = Vec::new(); // rwlocks 8..12
    let mut arrived: Vec<(u32, u32)> = Vec::new(); // barriers 12..14
    for &(kind, x, addr) in ops {
        let t = live[x as usize % live.len()];
        let tid = Tid(t);
        match kind % 11 {
            0 | 1 => {
                let size = [
                    AccessSize::U8,
                    AccessSize::U16,
                    AccessSize::U32,
                    AccessSize::U64,
                ][(x >> 8) as usize % 4];
                let addr = Addr(addr);
                events.push(if kind % 11 == 0 {
                    Event::Read { tid, addr, size }
                } else {
                    Event::Write { tid, addr, size }
                });
            }
            2 if next_tid < 48 => {
                events.push(Event::Fork {
                    parent: tid,
                    child: Tid(next_tid),
                });
                live.push(next_tid);
                next_tid += 1;
            }
            3 => {
                let holds = |c: u32| {
                    held.iter()
                        .chain(&read_held)
                        .chain(&arrived)
                        .any(|&(_, h)| h == c)
                };
                if let Some(i) = (1..live.len()).find(|&i| !holds(live[i]) && live[i] != t) {
                    events.push(Event::Join {
                        parent: tid,
                        child: Tid(live[i]),
                    });
                    live.remove(i);
                }
            }
            4 => {
                let lock = x % 8;
                match held.iter().position(|&(l, _)| l == lock) {
                    Some(i) => {
                        let (l, h) = held.swap_remove(i);
                        events.push(Event::Release {
                            tid: Tid(h),
                            lock: LockId(l),
                        });
                    }
                    None => {
                        events.push(Event::Acquire {
                            tid,
                            lock: LockId(lock),
                        });
                        held.push((lock, t));
                    }
                }
            }
            5 => {
                let lock = 8 + x % 4;
                events.push(Event::AcquireRead {
                    tid,
                    lock: LockId(lock),
                });
                read_held.push((lock, t));
            }
            6 if !read_held.is_empty() => {
                let (l, h) = read_held.swap_remove(x as usize % read_held.len());
                events.push(Event::ReleaseRead {
                    tid: Tid(h),
                    lock: LockId(l),
                });
            }
            7 => {
                let bar = 12 + x % 2;
                events.push(Event::BarrierArrive {
                    tid,
                    bar: LockId(bar),
                });
                arrived.push((bar, t));
            }
            8 if !arrived.is_empty() => {
                let (b, h) = arrived.swap_remove(x as usize % arrived.len());
                events.push(Event::BarrierDepart {
                    tid: Tid(h),
                    bar: LockId(b),
                });
            }
            9 => {
                let size = 1 + addr % 4096;
                let addr = Addr(addr);
                events.push(if x % 2 == 0 {
                    Event::Alloc { tid, addr, size }
                } else {
                    Event::Free { tid, addr, size }
                });
            }
            _ => {
                let cv = LockId(x % 4);
                events.push(if x % 2 == 0 {
                    Event::CvSignal { tid, cv }
                } else {
                    Event::CvWait { tid, cv }
                });
            }
        }
    }
    Trace::from_events(events)
}

/// The defects a one-pass load must report, each as the events that
/// plant it when spliced into a valid schedule (the main thread is live
/// everywhere in one). Lock ids 1000+ are never used by `valid_trace`.
fn defect(kind: u8) -> Vec<Event> {
    let main = Tid::MAIN;
    let ghost = Tid(900);
    match kind % 8 {
        0 => vec![Event::Write {
            tid: ghost,
            addr: Addr(0x10),
            size: AccessSize::U32,
        }],
        1 => vec![Event::Fork {
            parent: main,
            child: main,
        }],
        2 => vec![Event::Join {
            parent: main,
            child: ghost,
        }],
        3 => vec![
            Event::Fork {
                parent: main,
                child: Tid(901),
            },
            Event::Acquire {
                tid: Tid(901),
                lock: LockId(1000),
            },
            Event::Join {
                parent: main,
                child: Tid(901),
            },
        ],
        4 => vec![Event::Release {
            tid: main,
            lock: LockId(1001),
        }],
        5 => vec![
            Event::Acquire {
                tid: main,
                lock: LockId(1002),
            },
            Event::AcquireRead {
                tid: main,
                lock: LockId(1002),
            },
        ],
        6 => vec![Event::BarrierDepart {
            tid: main,
            bar: LockId(1003),
        }],
        _ => vec![Event::Alloc {
            tid: main,
            addr: Addr(0x100),
            size: 0,
        }],
    }
}

/// Decoding by hand from the slice, record by record, with the frame
/// path's decoder; then validating as a separate pass. Resync mode skips
/// a byte per corrupt record and drops a short tail.
fn slice_decode_then_validate(
    bytes: &[u8],
    resync: bool,
) -> Result<(Vec<Event>, DecodeStats), String> {
    let limits = DecodeLimits::default();
    let header = EventReader::new(&bytes[..bytes.len().min(16)]).map_err(|e| e.to_string())?;
    let declared = header.remaining();
    let mut events = Vec::new();
    let mut pos = 16;
    let mut dropped_bytes = 0u64;
    while (events.len() as u64) < declared {
        match decode_event_at(bytes, pos, pos as u64, &limits) {
            Ok((ev, n)) => {
                events.push(ev);
                pos += n;
            }
            Err(TraceError::Truncated { .. }) if resync => {
                dropped_bytes += (bytes.len() - pos) as u64;
                break;
            }
            Err(e) if resync && e.is_corruption() => {
                pos += 1;
                dropped_bytes += 1;
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    let decoded = events.len() as u64;
    let stats = DecodeStats {
        declared,
        decoded,
        dropped_events: declared - decoded,
        dropped_bytes,
        invalid: validate(&Trace::from_events(events.clone())).err(),
    };
    Ok((events, stats))
}

/// The one-pass load agrees with the two-pass reference in both modes,
/// whether the source hands out whole blocks or single bytes, and its
/// inline validation agrees with the pre-decoder rules.
fn check_one_pass(bytes: &[u8]) {
    for resync in [false, true] {
        let opts = ReadOptions {
            limits: DecodeLimits::default(),
            resync,
        };
        let whole = read_trace_with(&mut &bytes[..], opts)
            .map(|(t, s)| (t.events, s))
            .map_err(|e| e.to_string());
        let trickled = read_trace_with(&mut Trickle(bytes), opts)
            .map(|(t, s)| (t.events, s))
            .map_err(|e| e.to_string());
        assert_eq!(whole, trickled, "block boundaries changed the load");
        assert_eq!(whole, slice_decode_then_validate(bytes, resync));
        if let Ok((events, stats)) = &whole {
            assert_eq!(stats.invalid, reference_validate(events));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Valid schedules load with every event and no defect.
    #[test]
    fn one_pass_load_accepts_valid_traces(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), 0u64..0x4000), 0..96),
    ) {
        let trace = valid_trace(&ops);
        prop_assert_eq!(reference_validate(&trace.events), None);
        let bytes = to_bytes(&trace);
        let (back, stats) = read_trace_with(&mut &bytes[..], ReadOptions::default()).unwrap();
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(stats.invalid, None);
        check_one_pass(&bytes);
    }

    /// One injected defect is reported at the same index, with the same
    /// thread and lock, as validating the decoded trace separately.
    #[test]
    fn one_pass_load_reports_injected_defects(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), 0u64..0x4000), 0..96),
        kind in any::<u8>(),
        at in any::<usize>(),
    ) {
        let mut events = valid_trace(&ops).events;
        let at = at % (events.len() + 1);
        let planted = defect(kind);
        let last = at + planted.len() - 1;
        events.splice(at..at, planted);
        let trace = Trace::from_events(events);
        let expected = reference_validate(&trace.events);
        let found = match expected {
            Some(
                ValidationError::UnforkedThread { at, .. }
                | ValidationError::DoubleFork { at, .. }
                | ValidationError::JoinOfUnforked { at, .. }
                | ValidationError::ThreadJoinedHoldingLock { at, .. }
                | ValidationError::ReleaseWithoutAcquire { at, .. }
                | ValidationError::RwLockConflict { at, .. }
                | ValidationError::BarrierDepartWithoutArrive { at, .. }
                | ValidationError::EmptyAccess { at },
            ) => at,
            other => panic!("defect {} not reported as planted: {other:?}", kind % 8),
        };
        prop_assert_eq!(found, last, "the planted defect is the first one");
        let bytes = to_bytes(&trace);
        let (_, stats) = read_trace_with(&mut &bytes[..], ReadOptions::default()).unwrap();
        prop_assert_eq!(stats.invalid, expected);
        prop_assert_eq!(validate(&trace).err(), expected);
        check_one_pass(&bytes);
    }

    /// Random byte mutations of valid and invalid encodings: whatever
    /// decodes, and however it fails, the one-pass load matches the
    /// two-pass reference.
    #[test]
    fn one_pass_load_agrees_under_mutation(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), 0u64..0x4000), 1..64),
        kind in any::<u8>(),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        cut in any::<usize>(),
        truncate in any::<bool>(),
    ) {
        let mut trace = valid_trace(&ops);
        if kind.is_multiple_of(2) {
            trace.events.extend(defect(kind / 2));
        }
        let mut bytes = to_bytes(&trace);
        let n = bytes.len();
        for (offset, value) in flips {
            // Flips stay out of the magic so most cases reach the body.
            bytes[4 + offset % (n - 4)] ^= value | 1;
        }
        if truncate {
            bytes.truncate(cut % (n + 1));
        }
        check_one_pass(&bytes);
    }
}

/// A decode failure wins over a validation defect earlier in the stream,
/// so the CLI keeps exiting 4 (decode), not 5 (invalid), for such files.
#[test]
fn decode_error_beats_earlier_validation_error() {
    let mut b = TraceBuilder::new();
    b.release(0u32, 5u32) // invalid at event 0
        .write(0u32, 0x10u64, AccessSize::U32)
        .write(0u32, 0x14u64, AccessSize::U32);
    let bytes = to_bytes(&b.build());
    let (_, stats) = read_trace_with(&mut &bytes[..], ReadOptions::default()).unwrap();
    assert!(matches!(
        stats.invalid,
        Some(ValidationError::ReleaseWithoutAcquire { at: 0, .. })
    ));

    let truncated = &bytes[..bytes.len() - 3];
    assert!(matches!(
        read_trace_with(&mut &truncated[..], ReadOptions::default()),
        Err(TraceError::Truncated { .. })
    ));

    let mut corrupt = bytes.clone();
    corrupt[16 + 9] = 0xEE; // the tag of the first write
    assert!(matches!(
        read_trace_with(&mut &corrupt[..], ReadOptions::default()),
        Err(TraceError::BadTag { offset: 25, .. })
    ));
}
