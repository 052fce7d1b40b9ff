//! Frame-boundary independence of live ingestion.
//!
//! A server session receives its stream in frames of whatever size the
//! client chose. `IngestSession` walks each frame with the offline
//! funnel's ordering rules and dispatches its access runs straight from
//! the frame, so where the frames end must not change the result: every
//! framing of a generated trace finalizes to exactly the report of
//! `replay_sharded` over the whole trace, and the races streamed by
//! `drain_new_races` along the way add up to the final race count.

use dgrace_core::DynamicGranularity;
use dgrace_detectors::{FastTrack, Report, ShardableDetector};
use dgrace_runtime::{replay_sharded, IngestSession};
use dgrace_trace::{AccessSize, Event, Trace, TraceBuilder};
use dgrace_workloads::{Workload, WorkloadKind};

type Proto = Box<dyn ShardableDetector + Send>;

/// Small generated traces: alloc/free churn (dedup), heap objects passed
/// through locked queues (ferret), unaligned byte accesses with many
/// races (x264), and scattered swaps (canneal).
fn traces() -> Vec<(&'static str, Trace)> {
    [
        (WorkloadKind::Dedup, 0.01),
        (WorkloadKind::Ferret, 0.01),
        (WorkloadKind::X264, 0.01),
        (WorkloadKind::Canneal, 0.05),
    ]
    .into_iter()
    .map(|(kind, scale)| {
        (
            kind.name(),
            Workload::new(kind).with_scale(scale).generate().0,
        )
    })
    .collect()
}

fn prototypes() -> Vec<(&'static str, Proto)> {
    vec![
        ("fasttrack", Box::new(FastTrack::new())),
        ("dynamic", Box::new(DynamicGranularity::new())),
    ]
}

/// xorshift64: deterministic frame sizes without a dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n) as usize
    }
}

/// Frame lengths covering `len` events: random sizes in `0..=64`,
/// empty frames included.
fn random_frames(len: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng(seed | 1);
    let mut out = Vec::new();
    let mut left = len;
    while left > 0 {
        let n = rng.below(65).min(left);
        out.push(n);
        left -= n;
    }
    out
}

/// Frame lengths that end a frame right after every event `cut` picks.
fn frames_after(events: &[Event], cut: impl Fn(&Event) -> bool) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, ev) in events.iter().enumerate() {
        if cut(ev) {
            out.push(i + 1 - start);
            start = i + 1;
        }
    }
    out.push(events.len() - start);
    out
}

/// Feeds `events` in frames of the given lengths, draining after each
/// frame; returns the final report and the number of races streamed.
fn serve(proto: &Proto, shards: usize, events: &[Event], frames: &[usize]) -> (Report, usize) {
    let mut s = IngestSession::new(&**proto, shards, None);
    let mut streamed = 0;
    let mut at = 0;
    for &n in frames {
        s.feed_all(&events[at..at + n]);
        at += n;
        streamed += s.drain_new_races().len();
    }
    assert_eq!(at, events.len(), "frames cover the trace");
    assert_eq!(s.events(), events.len() as u64);
    (s.finalize(), streamed)
}

#[test]
fn every_framing_matches_the_funnel_replay() {
    for (wl, trace) in traces() {
        let events = &trace.events;
        let framings: Vec<(&str, Vec<usize>)> = vec![
            ("one frame", vec![events.len()]),
            ("1-event frames", vec![1; events.len()]),
            (
                "random frames",
                random_frames(events.len(), 0x5eed ^ events.len() as u64),
            ),
            (
                "cut after each alloc",
                frames_after(events, |ev| matches!(ev, Event::Alloc { .. })),
            ),
            ("cut after each sync", frames_after(events, Event::is_sync)),
        ];
        for (det, proto) in prototypes() {
            for shards in [1usize, 2, 4] {
                let want = replay_sharded(&*proto, &trace, shards);
                for (framing, frames) in &framings {
                    let ctx = format!("{wl} {det} shards={shards} {framing}");
                    let (got, streamed) = serve(&proto, shards, events, frames);
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(streamed, got.races.len(), "{ctx}: streamed races");
                }
            }
        }
    }
}

#[test]
fn per_event_feed_equals_feed_all() {
    for (wl, trace) in traces() {
        for shards in [1usize, 2, 4] {
            let mut one = IngestSession::new(&FastTrack::new(), shards, None);
            for ev in trace.iter() {
                one.feed(ev);
            }
            let mut all = IngestSession::new(&FastTrack::new(), shards, None);
            all.feed_all(&trace.events);
            assert_eq!(one.events(), all.events());
            assert_eq!(one.finalize(), all.finalize(), "{wl} shards={shards}");
        }
    }
}

/// An access that precedes its own `Alloc` in one sync-free run of one
/// frame is routed after the run's allocations are registered, as the
/// funnel routes it, however long the run. Here thread 1 writes the
/// object 300 accesses before thread 0 allocates and writes it: both
/// writes must land on the object's shard (0, the first registration)
/// rather than the shard its 4 KiB region hashes to (1), or the race
/// between them is lost.
#[test]
fn access_before_its_alloc_routes_with_the_funnel() {
    const OBJ: u64 = 0x1000; // region 1: hashes to shard 1 of 2
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32).write(1u32, OBJ, AccessSize::U64);
    for i in 0..300u64 {
        b.read(1u32, 0x10_0000 + i * 8, AccessSize::U64);
    }
    b.alloc(0u32, OBJ, 64u64).write(0u32, OBJ, AccessSize::U64);
    let trace = b.build();

    let want = replay_sharded(&FastTrack::new(), &trace, 2);
    assert_eq!(want.races.len(), 1, "the funnel sees the race");
    let mut s = IngestSession::new(&FastTrack::new(), 2, None);
    s.feed_all(&trace.events);
    assert_eq!(s.finalize(), want);
}
