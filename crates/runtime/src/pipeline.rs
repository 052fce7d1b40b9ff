//! Parallel offline replay: ring-buffered per-shard ingestion lanes.
//!
//! [`crate::replay`]'s funnel path drives every shard from one thread
//! and broadcasts each sync event while holding *all* shard locks — on
//! multi-core hosts the shards serialize behind the dispatcher instead
//! of scaling. This module is the parallel rework:
//!
//! * **One SPSC ring per shard.** A producer thread walks the trace,
//!   routes accesses by address (the same [`Router`] the funnel uses),
//!   and appends `(stamp, event)` pairs to per-shard staging segments,
//!   pushed into bounded [`Spsc`] lanes in batches. Each shard worker
//!   owns its lane's consumer side and its shard's detector: the only
//!   cross-thread traffic on the hot path is the ring cursors.
//! * **Epoch-batched sync broadcast.** A sync event is *not* applied
//!   under all shard locks; it is stamped once and appended inline to
//!   every lane's segment. Each worker applies it to its own detector
//!   when its lane reaches that point — one flush per segment boundary,
//!   zero cross-shard locking, and every shard still observes the exact
//!   same happens-before sequence: its routed accesses interleaved with
//!   all sync events in trace order. That per-shard sequence is
//!   identical to what funnel dispatch feeds, so race sets are too.
//! * **Exactness preserved.** Checkpoint, resume, self-heal and
//!   quarantine reuse the engine machinery unchanged. A checkpoint
//!   barriers every lane (the producer waits until all workers drain to
//!   the boundary), captures the same [`EngineState`] the funnel path
//!   writes, and the two paths can resume each other's manifests. A
//!   healing shard delta-replays its own journal suffix, which on this
//!   path carries its sync copies inline — stamp order reconstructs the
//!   exact per-shard sequence.
//!
//! One deliberate divergence from the funnel path: accesses are routed
//! *immediately* as the producer walks the trace, not deferred to the
//! next sync boundary. An access that precedes its object's `Alloc`
//! within one inter-sync window may therefore land on a different shard
//! than funnel replay would choose. This can shift per-shard partition
//! statistics (peak bytes, per-shard counts) but never the race set —
//! the partitioned analysis is race-set-exact for *any* whole-range
//! routing, which is what the scaling-equivalence suite locks in.
//!
//! [`Router`]: crate::engine — see the engine module docs.
//! [`EngineState`]: crate::engine — see the engine module docs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dgrace_detectors::{Report, ShardableDetector};
use dgrace_trace::{Event, PruneSet, Trace};

use dgrace_shadow::{process_gauge, MemComponent};

use crate::checkpoint::{CheckpointManifest, CHECKPOINT_FILE};
use crate::engine::{DetectorFactory, Engine, RuntimeOptions, SupervisorPolicy};
use crate::replay::{
    validate_resume, CheckpointInterval, CheckpointOptions, CkptHealth, ReplayError,
};
use crate::ring::Spsc;

/// Target events per ring segment. Large enough that ring and notify
/// overhead amortize to noise; small enough that lanes stay busy on
/// sync-light traces.
const SEGMENT_EVENTS: usize = 1024;

/// Ring capacity in segments per lane: bounds producer run-ahead (and
/// queued-segment memory) without stalling workers on short hiccups.
const RING_SEGMENTS: usize = 64;

/// One unit of work on a shard lane.
enum Job {
    /// A stamped segment of the shard's event stream.
    Run(Vec<(u64, Event)>),
    /// Checkpoint barrier: acknowledge once everything before this
    /// point has been fed to the detector.
    Barrier(mpsc::Sender<()>),
}

/// [`crate::replay_sharded`] on the parallel ring pipeline: replays
/// `trace` through `shards` instances of the prototype and returns the
/// merged report. Race sets are byte-identical to the funnel path.
pub fn replay_pipelined<D: ShardableDetector + ?Sized>(
    prototype: &D,
    trace: &Trace,
    shards: usize,
) -> Report {
    replay_pipelined_pruned(prototype, trace, shards, PruneSet::empty())
}

/// [`replay_pipelined`] with a warm-start prune predicate (the parallel
/// analog of [`crate::replay_sharded_pruned`]): the producer drops
/// pruned accesses before routing, surfacing them as `stats.pruned`.
pub fn replay_pipelined_pruned<D: ShardableDetector + ?Sized>(
    prototype: &D,
    trace: &Trace,
    shards: usize,
    prune: PruneSet,
) -> Report {
    replay_pipelined_planned(prototype, trace, shards, prune, &[])
}

/// [`replay_pipelined_pruned`] with an ahead-of-time shard routing plan
/// (the parallel analog of [`crate::replay_sharded_planned`]): plan
/// buckets are preloaded into the router before the producer starts, so
/// the hottest address ranges are balanced across lanes up front.
pub fn replay_pipelined_planned<D: ShardableDetector + ?Sized>(
    prototype: &D,
    trace: &Trace,
    shards: usize,
    prune: PruneSet,
    routes: &[(u64, u64, usize)],
) -> Report {
    let shards = shards.max(1);
    let opts = RuntimeOptions {
        shards,
        buffer_capacity: 1,
        record: false,
    };
    let detectors = (0..shards).map(|_| prototype.new_shard()).collect();
    let engine = Engine::with_prune(detectors, opts, prune);
    engine.preload_routes(routes);
    run_pipeline(&engine, trace, 0, "", None, None, &mut CkptHealth::new())
        .expect("unsupervised pipeline performs no checkpoint I/O");
    engine.finish()
}

/// [`replay_pipelined`] with a self-healing supervisor (the parallel
/// analog of [`crate::replay_supervised`]): a panicking shard detector
/// is respawned and rolled forward from its lane's journal.
pub fn replay_pipelined_supervised(
    prototype: Box<dyn ShardableDetector + Send>,
    trace: &Trace,
    shards: usize,
    prune: PruneSet,
    policy: SupervisorPolicy,
) -> Report {
    replay_pipelined_checkpointed(prototype, trace, shards, prune, Some(policy), None, None)
        .expect("supervised pipeline performs no checkpoint I/O")
}

/// The crash-resumable parallel replay (the ring-pipeline analog of
/// [`crate::replay_checkpointed`], behind `dgrace detect --pipeline`):
/// optionally supervised, optionally persisting a [`CheckpointManifest`]
/// at the configured cadence, optionally resuming one — including
/// manifests written by the *funnel* path, and vice versa: both paths
/// capture the same engine state at the same trace offsets.
pub fn replay_pipelined_checkpointed(
    prototype: Box<dyn ShardableDetector + Send>,
    trace: &Trace,
    shards: usize,
    prune: PruneSet,
    policy: Option<SupervisorPolicy>,
    ckpt: Option<&CheckpointOptions>,
    resume: Option<&CheckpointManifest>,
) -> Result<Report, ReplayError> {
    replay_pipelined_checkpointed_planned(
        prototype,
        trace,
        shards,
        prune,
        policy,
        ckpt,
        resume,
        &[],
        None,
    )
}

/// [`replay_pipelined_checkpointed`] with an ahead-of-time routing plan
/// (see [`crate::replay_checkpointed_planned`] for the resume
/// semantics: a restored checkpoint's captured ranges win) and a
/// cooperative `stop` flag (same contract as the funnel path: flush,
/// final checkpoint, partial report).
#[allow(clippy::too_many_arguments)]
pub fn replay_pipelined_checkpointed_planned(
    prototype: Box<dyn ShardableDetector + Send>,
    trace: &Trace,
    shards: usize,
    prune: PruneSet,
    policy: Option<SupervisorPolicy>,
    ckpt: Option<&CheckpointOptions>,
    resume: Option<&CheckpointManifest>,
    routes: &[(u64, u64, usize)],
    stop: Option<&AtomicBool>,
) -> Result<Report, ReplayError> {
    let shards = shards.max(1);
    let opts = RuntimeOptions {
        shards,
        buffer_capacity: 1,
        record: false,
    };
    let det_name = prototype.name();
    let detectors = (0..shards).map(|_| prototype.new_shard()).collect();
    let engine = match policy {
        Some(p) => {
            // The factory may be invoked concurrently from several shard
            // workers healing at once; the mutex serializes `new_shard`.
            let proto = parking_lot::Mutex::new(prototype);
            let factory: DetectorFactory = Arc::new(move |_| proto.lock().new_shard());
            Engine::with_supervisor(detectors, opts, prune, factory, p)
        }
        None => Engine::with_prune(detectors, opts, prune),
    };
    engine.preload_routes(routes);
    let trace_len = trace.len() as u64;
    let mut start = 0usize;
    if let Some(m) = resume {
        validate_resume(m, &det_name, shards, trace_len)?;
        engine.restore(&m.state).map_err(ReplayError::Corrupt)?;
        start = m.trace_offset as usize;
    }
    if let Some(c) = ckpt {
        std::fs::create_dir_all(&c.dir)
            .map_err(|e| ReplayError::Io(format!("{}: {e}", c.dir.display())))?;
    }
    let mut health = CkptHealth::new();
    run_pipeline(&engine, trace, start, &det_name, ckpt, stop, &mut health)?;
    let mut rep = engine.finish();
    rep.checkpointing_degraded |= health.degraded();
    Ok(rep)
}

/// Spawns one worker per shard lane, runs the producer on the calling
/// thread, and joins everything before returning. The rings are closed
/// on *every* exit path (including checkpoint I/O errors) so workers
/// always drain and terminate.
fn run_pipeline(
    engine: &Engine,
    trace: &Trace,
    start: usize,
    det_name: &str,
    ckpt: Option<&CheckpointOptions>,
    stop: Option<&AtomicBool>,
    health: &mut CkptHealth,
) -> Result<(), ReplayError> {
    let shards = engine.shard_count();
    let rings: Vec<Spsc<Job>> = (0..shards).map(|_| Spsc::new(RING_SEGMENTS)).collect();
    let mut result = Ok(());
    thread::scope(|scope| {
        for (i, ring) in rings.iter().enumerate() {
            scope.spawn(move || {
                while let Some(job) = ring.pop() {
                    match job {
                        Job::Run(seg) => {
                            engine.feed_segment(i, &seg);
                            // Retire this segment's bytes from the
                            // process gauge (the producer booked them
                            // at flush).
                            process_gauge().sub(MemComponent::RingLanes, segment_bytes(&seg));
                        }
                        Job::Barrier(ack) => {
                            let _ = ack.send(());
                        }
                    }
                }
            });
        }
        result = produce(engine, trace, start, det_name, ckpt, stop, &rings, health);
        for ring in &rings {
            ring.close();
        }
    });
    result
}

/// Heap bytes held by one in-flight ring segment, as booked against
/// [`MemComponent::RingLanes`] on the process gauge. Reporting only —
/// never an input to the deterministic pressure ladder.
fn segment_bytes(seg: &[(u64, Event)]) -> u64 {
    std::mem::size_of_val(seg) as u64
}

/// The producer loop: stamp, route, stage, flush, checkpoint.
#[allow(clippy::too_many_arguments)]
fn produce(
    engine: &Engine,
    trace: &Trace,
    start: usize,
    det_name: &str,
    ckpt: Option<&CheckpointOptions>,
    stop: Option<&AtomicBool>,
    rings: &[Spsc<Job>],
    health: &mut CkptHealth,
) -> Result<(), ReplayError> {
    let shards = rings.len();
    let trace_len = trace.len() as u64;
    let mut stage: Vec<Vec<(u64, Event)>> = vec![Vec::new(); shards];
    let mut targets: Vec<usize> = Vec::new();
    let mut producer = engine.producer();
    let mut since = 0u64;
    let mut last = Instant::now();
    for (idx, ev) in trace.iter().enumerate().skip(start) {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            // Graceful interruption: quiesce every lane at this trace
            // boundary (the same cut a cadence checkpoint uses), persist
            // a final manifest at offset `idx`, and stop producing. The
            // caller's `finish()` then yields the partial report.
            for (lane, ring) in stage.iter_mut().zip(rings) {
                flush_lane(ring, lane);
            }
            producer.publish();
            quiesce(rings)?;
            if let Some(c) = ckpt {
                let manifest = CheckpointManifest {
                    detector: det_name.to_string(),
                    trace_len,
                    trace_offset: idx as u64,
                    state: engine.capture(),
                };
                let path = c.dir.join(CHECKPOINT_FILE);
                health.note(&path, manifest.save(&path));
            }
            return Ok(());
        }
        if ev.is_sync() {
            // Epoch-batched broadcast: one stamp, appended to every
            // lane's segment; workers apply it without cross-shard
            // coordination when their lane reaches this point.
            let stamp = producer.emit();
            for (lane, ring) in stage.iter_mut().zip(rings) {
                lane.push((stamp, *ev));
                if lane.len() >= SEGMENT_EVENTS {
                    flush_lane(ring, lane);
                }
            }
        } else if engine.prunes_event(ev) {
            engine.note_pruned(1);
        } else {
            if let Event::Alloc { addr, size, .. } = *ev {
                producer.register_range(addr.0, size);
            }
            let stamp = producer.emit();
            producer.route(ev, &mut targets);
            for &s in &targets {
                stage[s].push((stamp, *ev));
                if stage[s].len() >= SEGMENT_EVENTS {
                    flush_lane(&rings[s], &mut stage[s]);
                }
            }
        }
        since += 1;
        if let Some(c) = ckpt {
            let due = match c.every {
                CheckpointInterval::Events(n) => since >= n.max(1),
                CheckpointInterval::Secs(s) => last.elapsed() >= Duration::from_secs(s),
            };
            if due {
                // Quiesce: every lane drains to this trace boundary, so
                // the capture covers exactly the events up to `idx` —
                // the same cut the funnel path checkpoints.
                for (lane, ring) in stage.iter_mut().zip(rings) {
                    flush_lane(ring, lane);
                }
                producer.publish();
                quiesce(rings)?;
                let manifest = CheckpointManifest {
                    detector: det_name.to_string(),
                    trace_len,
                    trace_offset: (idx + 1) as u64,
                    state: engine.capture(),
                };
                let path = c.dir.join(CHECKPOINT_FILE);
                health.note(&path, manifest.save(&path));
                since = 0;
                last = Instant::now();
            }
        }
    }
    for (lane, ring) in stage.iter_mut().zip(rings) {
        flush_lane(ring, lane);
    }
    producer.publish();
    Ok(())
}

/// Pushes a lane's staged segment into its ring (blocking while the
/// ring is full — backpressure against a slow shard).
fn flush_lane(ring: &Spsc<Job>, lane: &mut Vec<(u64, Event)>) {
    if lane.is_empty() {
        return;
    }
    let seg = std::mem::replace(lane, Vec::with_capacity(SEGMENT_EVENTS));
    // Book the in-flight segment against the process gauge; the worker
    // retires it after feeding the detector.
    process_gauge().add(MemComponent::RingLanes, segment_bytes(&seg));
    // The rings are only closed after the producer returns, so the push
    // cannot be rejected mid-run.
    if ring.push(Job::Run(seg)).is_err() {
        unreachable!("shard lane closed while the producer was running");
    }
}

/// Blocks until every lane has drained everything pushed before this
/// call: one barrier job per lane, one acknowledgement awaited per lane.
fn quiesce(rings: &[Spsc<Job>]) -> Result<(), ReplayError> {
    let (tx, rx) = mpsc::channel();
    for ring in rings {
        if ring.push(Job::Barrier(tx.clone())).is_err() {
            return Err(ReplayError::Io("shard lane closed mid-run".into()));
        }
    }
    drop(tx);
    for _ in rings {
        rx.recv()
            .map_err(|_| ReplayError::Io("shard worker exited mid-run".into()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay_sharded, replay_sharded_planned, replay_sharded_pruned};
    use dgrace_core::DynamicGranularity;
    use dgrace_detectors::{race_signature, FastTrack};
    use dgrace_trace::{AccessSize, TraceBuilder};

    fn racy_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, 0x100u64, AccessSize::U64)
            .write(1u32, 0x100u64, AccessSize::U64)
            .locked(0u32, 0u32, |b| {
                b.write(0u32, 0x5000u64, AccessSize::U64);
            })
            .locked(1u32, 0u32, |b| {
                b.write(1u32, 0x5000u64, AccessSize::U64);
            })
            .join(0u32, 1u32);
        b.build()
    }

    #[test]
    fn pipelined_matches_funnel_fasttrack() {
        let trace = racy_trace();
        for shards in [1usize, 2, 4, 8] {
            let funnel = replay_sharded(&FastTrack::new(), &trace, shards);
            let piped = replay_pipelined(&FastTrack::new(), &trace, shards);
            assert_eq!(
                race_signature(&piped),
                race_signature(&funnel),
                "shards={shards}"
            );
            assert_eq!(piped.stats.events, funnel.stats.events, "shards={shards}");
            assert_eq!(
                piped.stats.accesses, funnel.stats.accesses,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn pipelined_matches_funnel_dynamic() {
        let trace = racy_trace();
        for shards in [1usize, 3, 4] {
            let funnel = replay_sharded(&DynamicGranularity::new(), &trace, shards);
            let piped = replay_pipelined(&DynamicGranularity::new(), &trace, shards);
            assert_eq!(
                race_signature(&piped),
                race_signature(&funnel),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn pipelined_prunes_like_funnel() {
        use dgrace_trace::{Addr, AnalysisSummary, ClassifiedRange, LocationClass};
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, 0x100u64, AccessSize::U64)
            .write(1u32, 0x100u64, AccessSize::U64);
        for i in 0..8u64 {
            b.write(0u32, 0x9000 + i * 8, AccessSize::U64);
        }
        b.join(0u32, 1u32);
        let trace = b.build();
        let summary = AnalysisSummary {
            ranges: vec![ClassifiedRange {
                start: Addr(0x9000),
                len: 64,
                class: LocationClass::ThreadLocal,
            }],
            ..Default::default()
        };
        let prune = summary.prune_set(1, 0);
        for shards in [1usize, 2, 4] {
            let funnel = replay_sharded_pruned(&FastTrack::new(), &trace, shards, prune.clone());
            let piped = replay_pipelined_pruned(&FastTrack::new(), &trace, shards, prune.clone());
            assert_eq!(piped.stats.pruned, funnel.stats.pruned, "shards={shards}");
            assert_eq!(piped.stats.events, funnel.stats.events, "shards={shards}");
            assert_eq!(
                race_signature(&piped),
                race_signature(&funnel),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn planned_routing_preserves_fasttrack_races_on_both_paths() {
        use dgrace_trace::{HeatBucket, RoutingPlan};
        let trace = racy_trace();
        // Heat buckets covering both hot addresses; compiling balances
        // them across shards, overriding the region-hash fallback.
        let plan = RoutingPlan {
            buckets: vec![
                HeatBucket {
                    start: dgrace_trace::Addr(0x0),
                    len: 0x1000,
                    weight: 10,
                },
                HeatBucket {
                    start: dgrace_trace::Addr(0x5000),
                    len: 0x1000,
                    weight: 9,
                },
            ],
        };
        let bare = replay_sharded(&FastTrack::new(), &trace, 1);
        for shards in [2usize, 4] {
            let routes = plan.compile(shards);
            assert!(!routes.is_empty(), "plan compiles for shards={shards}");
            let funnel = replay_sharded_planned(
                &FastTrack::new(),
                &trace,
                shards,
                PruneSet::empty(),
                &routes,
            );
            let piped = replay_pipelined_planned(
                &FastTrack::new(),
                &trace,
                shards,
                PruneSet::empty(),
                &routes,
            );
            assert_eq!(
                race_signature(&funnel),
                race_signature(&bare),
                "shards={shards}"
            );
            assert_eq!(
                race_signature(&piped),
                race_signature(&bare),
                "shards={shards}"
            );
            assert_eq!(funnel.stats.events, trace.len() as u64);
        }
    }
}
