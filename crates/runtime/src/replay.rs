//! Offline sharded replay: run a recorded [`Trace`] through N detector
//! shards, exactly as the online engine would route a live run.
//!
//! Access events are routed by address (allocation events register their
//! range with the router, so whole objects stay in one shard; addresses
//! outside any allocation fall back to 4 KiB region hashing). Sync
//! events are broadcast to every shard. Each run of accesses between
//! sync events is dispatched as one batch borrowed from the trace.
//!
//! This is what backs the CLI's `--shards N` flag: the replay is
//! sequential (sharding offline is about validating the partitioned
//! analysis and its merged report, not about speed), and for traces
//! without allocation events a 4 KiB region boundary may split
//! sharing-adjacent addresses across shards — the online runtime never
//! does, because every tracked object is registered wholly with one
//! shard.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dgrace_detectors::{Report, ShardableDetector};
use dgrace_trace::{Event, PruneSet, Trace};

use crate::checkpoint::{CheckpointManifest, CHECKPOINT_FILE};
use crate::engine::{DetectorFactory, Engine, RuntimeOptions, SupervisorPolicy};

/// Replays `trace` through `shards` instances of the prototype detector
/// and returns the merged report. `shards == 1` reproduces a plain
/// serialized replay.
pub fn replay_sharded<D: ShardableDetector + ?Sized>(
    prototype: &D,
    trace: &Trace,
    shards: usize,
) -> Report {
    replay_sharded_pruned(prototype, trace, shards, PruneSet::empty())
}

/// [`replay_sharded`] with a warm-start prune predicate: accesses the
/// ahead-of-time analysis proved race-free are dropped before routing,
/// and surface in the merged report as `stats.pruned`. The prune set
/// must have been compiled for the prototype detector's granularity
/// (see `AnalysisSummary::prune_set`).
pub fn replay_sharded_pruned<D: ShardableDetector + ?Sized>(
    prototype: &D,
    trace: &Trace,
    shards: usize,
    prune: PruneSet,
) -> Report {
    replay_sharded_planned(prototype, trace, shards, prune, &[])
}

/// [`replay_sharded_pruned`] with an ahead-of-time shard routing plan:
/// `routes` are sorted, disjoint `(base, end, shard)` buckets (see
/// `RoutingPlan::compile`) preloaded into the router before the first
/// event, so the hottest address ranges are balanced across shards
/// instead of placed round-robin by allocation order. Allocations
/// overlapping a plan bucket keep the planned shard. An empty plan is
/// exactly [`replay_sharded_pruned`].
pub fn replay_sharded_planned<D: ShardableDetector + ?Sized>(
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

    engine.funnel(&trace.events);
    engine.finish()
}

/// How often a checkpointed replay persists a manifest.
#[derive(Clone, Copy, Debug)]
pub enum CheckpointInterval {
    /// Checkpoint after every `n` processed trace events.
    Events(u64),
    /// Checkpoint when `secs` seconds have elapsed since the last one.
    Secs(u64),
}

/// Where and how often a checkpointed replay persists its state.
#[derive(Clone, Debug)]
pub struct CheckpointOptions {
    /// Directory holding the manifest (created if absent); the file
    /// inside it is [`CHECKPOINT_FILE`].
    pub dir: PathBuf,
    /// Checkpoint cadence.
    pub every: CheckpointInterval,
}

/// A failure of checkpointed replay, split by what the caller should do
/// about it: retry I/O, discard the checkpoint, or fix the invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// Filesystem trouble reading or writing checkpoint state.
    Io(String),
    /// The checkpoint decoded but cannot be restored (corrupt or
    /// incomplete snapshot data).
    Corrupt(String),
    /// The checkpoint disagrees with the requested run (different
    /// detector, shard count, or trace).
    Mismatch(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            ReplayError::Corrupt(e) => write!(f, "checkpoint corrupt: {e}"),
            ReplayError::Mismatch(e) => write!(f, "checkpoint mismatch: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Tracks checkpoint-write health across a run. A failed manifest write
/// (disk full, I/O error, permissions yanked mid-run) must not abort
/// detection: [`dgrace_trace::write_file_atomic`] guarantees the last
/// good manifest is still intact on disk, so the run continues, warns
/// once, and flags its report as
/// [`dgrace_detectors::Report::checkpointing_degraded`] — the analysis
/// is complete, only crash-resumability regressed to the last
/// checkpoint that did land.
pub(crate) struct CkptHealth {
    degraded: bool,
}

impl CkptHealth {
    pub(crate) fn new() -> Self {
        CkptHealth { degraded: false }
    }

    /// Records the outcome of one manifest write; the first failure is
    /// reported to stderr.
    pub(crate) fn note(&mut self, path: &Path, res: std::io::Result<()>) {
        if let Err(e) = res {
            if !self.degraded {
                eprintln!(
                    "warning: failed to write checkpoint {}: {e}; detection continues \
                     (the last complete checkpoint is retained)",
                    path.display()
                );
            }
            self.degraded = true;
        }
    }

    pub(crate) fn degraded(&self) -> bool {
        self.degraded
    }
}

/// Checks that a manifest matches the requested run (same detector,
/// shard count, and trace) and that its offset is sane. Shared by the
/// funnel path and the ring pipeline so both reject the same mismatches
/// — and therefore accept each other's checkpoints.
pub(crate) fn validate_resume(
    m: &CheckpointManifest,
    det_name: &str,
    shards: usize,
    trace_len: u64,
) -> Result<(), ReplayError> {
    if m.detector != det_name {
        return Err(ReplayError::Mismatch(format!(
            "checkpoint was taken with detector '{}', this run uses '{det_name}'",
            m.detector
        )));
    }
    if m.shard_count() != shards {
        return Err(ReplayError::Mismatch(format!(
            "checkpoint has {} shards, this run uses {shards}",
            m.shard_count()
        )));
    }
    if m.trace_len != trace_len {
        return Err(ReplayError::Mismatch(format!(
            "checkpoint covers a trace of {} events, this trace has {trace_len}",
            m.trace_len
        )));
    }
    if m.trace_offset > trace_len {
        return Err(ReplayError::Corrupt(format!(
            "trace offset {} past the end of the trace ({trace_len})",
            m.trace_offset
        )));
    }
    Ok(())
}

/// [`replay_sharded`] with a self-healing supervisor: a shard whose
/// detector panics is respawned from the prototype, rolled forward
/// through the engine's journals, and re-fed the offending batch, within
/// `policy`'s respawn budget. With a fault-free detector this is
/// behaviorally identical to [`replay_sharded_pruned`] (the journals are
/// recorded but never consulted).
pub fn replay_supervised(
    prototype: Box<dyn ShardableDetector + Send>,
    trace: &Trace,
    shards: usize,
    prune: PruneSet,
    policy: SupervisorPolicy,
) -> Report {
    replay_checkpointed(prototype, trace, shards, prune, Some(policy), None, None)
        .expect("supervised replay performs no checkpoint I/O")
}

/// The crash-resumable replay behind `dgrace detect --checkpoint-dir` /
/// `--resume`: optionally supervised ([`SupervisorPolicy`]), optionally
/// persisting a [`CheckpointManifest`] every `ckpt.every` events or
/// seconds, optionally starting from a previously loaded manifest.
///
/// Because detector snapshots are canonical and delta replay is exact, a
/// run interrupted at any point and resumed from its last checkpoint
/// produces a byte-identical race set to an uninterrupted run over the
/// same trace.
pub fn replay_checkpointed(
    prototype: Box<dyn ShardableDetector + Send>,
    trace: &Trace,
    shards: usize,
    prune: PruneSet,
    policy: Option<SupervisorPolicy>,
    ckpt: Option<&CheckpointOptions>,
    resume: Option<&CheckpointManifest>,
) -> Result<Report, ReplayError> {
    replay_checkpointed_planned(
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

/// [`replay_checkpointed`] with an ahead-of-time routing plan (see
/// [`replay_sharded_planned`]). The plan is preloaded before any resume
/// state is restored; a restored checkpoint overwrites the router
/// wholesale with its captured ranges, which already reflect whatever
/// plan was active when the checkpoint was taken — so an interrupted
/// planned run resumes with the same routing it started with.
///
/// `stop` is a cooperative interruption flag (a SIGINT/SIGTERM handler
/// sets it): when it reads `true`, the replay flushes what it has,
/// writes a final checkpoint (if configured) covering exactly the
/// events processed so far, and returns the *partial* report instead of
/// running to the end. The caller distinguishes a partial report by
/// re-reading the flag.
#[allow(clippy::too_many_arguments)]
pub fn replay_checkpointed_planned(
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
            // The prototype itself need not be `Sync` (the paged shadow
            // store carries a `Cell` hot-entry cache); a mutex makes the
            // factory shareable across the engine's threads.
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

    // Start of the access run not yet dispatched. A run is cut at each
    // sync event, at each checkpoint and at the stop point.
    let events = &trace.events;
    let mut run = start;
    let mut since = 0u64;
    let mut last = Instant::now();
    let mut health = CkptHealth::new();
    for (idx, ev) in events.iter().enumerate().skip(start) {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            // Graceful interruption: event `idx` has not been processed,
            // so a final checkpoint at offset `idx` lets a resumed run
            // continue exactly here; the partial report covers the
            // prefix.
            engine.dispatch(&events[run..idx]);
            if let Some(c) = ckpt {
                let manifest = CheckpointManifest {
                    detector: det_name.clone(),
                    trace_len,
                    trace_offset: idx as u64,
                    state: engine.capture(),
                };
                let path = c.dir.join(CHECKPOINT_FILE);
                health.note(&path, manifest.save(&path));
            }
            let mut rep = engine.finish();
            rep.checkpointing_degraded |= health.degraded();
            return Ok(rep);
        }
        if ev.is_sync() {
            engine.dispatch(&events[run..idx]);
            engine.emit_sync(ev.tid(), *ev);
            run = idx + 1;
        } else if let Event::Alloc { addr, size, .. } = *ev {
            engine.register_range(addr.0, size);
        }
        since += 1;
        if let Some(c) = ckpt {
            let due = match c.every {
                CheckpointInterval::Events(n) => since >= n.max(1),
                CheckpointInterval::Secs(s) => last.elapsed() >= Duration::from_secs(s),
            };
            if due {
                // Dispatch before capturing so the snapshot covers every
                // event up to and including `idx`; resuming then starts
                // cleanly at `idx + 1`. (Splitting a run at a checkpoint
                // boundary does not change any shard's feed order, so
                // the final report is unaffected.)
                engine.dispatch(&events[run..=idx]);
                run = idx + 1;
                let manifest = CheckpointManifest {
                    detector: det_name.clone(),
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
    engine.dispatch(&events[run..]);
    let mut rep = engine.finish();
    rep.checkpointing_degraded |= health.degraded();
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_core::DynamicGranularity;
    use dgrace_detectors::{race_signature, DetectorExt, FastTrack};
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
    fn sharded_replay_matches_serialized() {
        let trace = racy_trace();
        let serial = FastTrack::new().run(&trace);
        for shards in [1usize, 2, 4, 8] {
            let rep = replay_sharded(&FastTrack::new(), &trace, shards);
            assert_eq!(
                race_signature(&rep),
                race_signature(&serial),
                "shards={shards}"
            );
            assert_eq!(rep.stats.events, trace.len() as u64, "shards={shards}");
        }
    }

    #[test]
    fn sharded_replay_dynamic_detector() {
        let trace = racy_trace();
        let serial = DynamicGranularity::new().run(&trace);
        for shards in [1usize, 3] {
            let rep = replay_sharded(&DynamicGranularity::new(), &trace, shards);
            assert_eq!(
                race_signature(&rep),
                race_signature(&serial),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn pruned_replay_drops_accesses_and_keeps_races() {
        use dgrace_trace::{Addr, AnalysisSummary, ClassifiedRange, LocationClass};
        // Thread-local traffic at 0x9000 plus the racy pair at 0x100.
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
        let bare = replay_sharded(&FastTrack::new(), &trace, 2);
        for shards in [1usize, 2, 4] {
            let rep = replay_sharded_pruned(&FastTrack::new(), &trace, shards, prune.clone());
            assert_eq!(rep.stats.pruned, 8, "shards={shards}");
            assert_eq!(
                rep.stats.events,
                trace.len() as u64,
                "events still count pruned accesses (shards={shards})"
            );
            assert_eq!(
                race_signature(&rep),
                race_signature(&bare),
                "shards={shards}"
            );
        }
    }
}
