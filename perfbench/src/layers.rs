//! The traced run's per-layer ledger: the benchmark calls each layer's
//! public functions on the workload's own traces, one span per call, and
//! reduces the spans to per-layer medians and counts.

use dgrace_core::DynamicGranularityOn;
use dgrace_detectors::{
    DetectorExt, FastTrackOn, Governed, GovernorSpec, Granularity, NopDetector, Report,
    ShardableDetector,
};
use dgrace_runtime::{replay_pipelined, replay_sharded, IngestSession};
use dgrace_shadow::{HashSelect, PagedSelect};
use dgrace_trace::io::read_trace_with;
use dgrace_trace::{
    decode_events, encode_events, validate, DecodeLimits, Event, ReadOptions, Trace,
};

use crate::serve::{ServerEnd, BATCH};
use crate::spans::{Recorder, Span};
use crate::{metric, stats, Input, Metric, Wl};

/// The prototype `dgrace serve` builds for the workload's detector name
/// (the server runs the hash store).
fn server_prototype(wl: Wl) -> Box<dyn ShardableDetector + Send> {
    match wl {
        Wl::ServeDedup => Box::new(FastTrackOn::<HashSelect>::with_granularity(
            Granularity::Byte,
        )),
        _ => Box::new(DynamicGranularityOn::<HashSelect>::new()),
    }
}

/// What a solo in-process session reports for `events`: the reference a
/// served session's REPORT must equal.
pub fn solo_report(wl: Wl, events: &[Event]) -> Report {
    let mut s = IngestSession::new(&*server_prototype(wl), 1, None);
    s.feed_all(events);
    s.finalize()
}

/// The server's side of one session, in process: batches fed as they
/// arrive, new races drained after each, then finalized.
fn ingest(wl: Wl, events: &[Event]) -> Report {
    let mut s = IngestSession::new(&*server_prototype(wl), 1, None);
    for chunk in events.chunks(BATCH) {
        s.feed_all(chunk);
        std::hint::black_box(s.drain_new_races());
    }
    s.finalize()
}

/// The replay `dgrace` itself runs for the workload.
fn replay_workload(wl: Wl, trace: &Trace, limit: u64) -> Report {
    match wl {
        Wl::Pbzip2Dynamic => DynamicGranularityOn::<PagedSelect>::new().run(trace),
        Wl::X264Capped => {
            let proto: Box<dyn ShardableDetector + Send> =
                Box::new(DynamicGranularityOn::<PagedSelect>::new());
            replay_pipelined(
                &Governed::new(proto, GovernorSpec::for_limit(limit, 1)),
                trace,
                1,
            )
        }
        Wl::ServeDedup => FastTrackOn::<HashSelect>::with_granularity(Granularity::Byte).run(trace),
    }
}

/// The span name of [`replay_workload`]: the layer metric it stands for.
fn workload_span(wl: Wl) -> &'static str {
    match wl {
        Wl::Pbzip2Dynamic => "core.dynamic",
        Wl::X264Capped => "detectors.governed",
        Wl::ServeDedup => "detectors.byte",
    }
}

/// The detector runs of the ledger other than the workload's own,
/// built lazily so each can be timed on its own: byte FastTrack, the
/// dynamic detector, and (where the workload is not already governed) a
/// governed run of the workload's detector at `limit`.
fn other_runs(wl: Wl, trace: &Trace, limit: u64) -> Vec<(&'static str, Run<'_>)> {
    let spec = GovernorSpec::for_limit(limit, 1);
    let byte = || FastTrackOn::<HashSelect>::with_granularity(Granularity::Byte);
    let dynamic = || DynamicGranularityOn::<PagedSelect>::new();
    let mut runs: Vec<(&'static str, Run<'_>)> = vec![
        ("detectors.byte", Box::new(move || byte().run(trace))),
        ("core.dynamic", Box::new(move || dynamic().run(trace))),
    ];
    match wl {
        Wl::Pbzip2Dynamic => runs.push((
            "detectors.governed",
            Box::new(move || Governed::new(dynamic(), spec).run(trace)),
        )),
        Wl::ServeDedup => runs.push((
            "detectors.governed",
            Box::new(move || Governed::new(byte(), spec).run(trace)),
        )),
        Wl::X264Capped => {}
    }
    runs.retain(|(name, _)| *name != workload_span(wl));
    runs
}

type Run<'a> = Box<dyn FnOnce() -> Report + 'a>;

/// The reports of one input's last ledger pass that the counts read.
struct Reports {
    workload: Report,
    governed: Report,
    dynamic: Report,
}

/// Everything the ledger needs per input, prepared once outside timing.
pub struct LayerCtx<'a> {
    pub wl: Wl,
    pub inputs: &'a [Input],
    /// Governor limit per input: half the uncapped modeled peak, the
    /// rule x264-capped's `--memory-limit` uses.
    limits: Vec<u64>,
    /// The client's `encode_events` payloads, one per [`BATCH`].
    payloads: Vec<Vec<Vec<u8>>>,
    /// Each input with only its synchronization events.
    sync_only: Vec<Trace>,
    last: Vec<Option<Reports>>,
}

impl<'a> LayerCtx<'a> {
    pub fn new(wl: Wl, inputs: &'a [Input], limits: Vec<u64>) -> Self {
        let payloads = inputs
            .iter()
            .map(|i| i.trace.events.chunks(BATCH).map(encode_events).collect())
            .collect();
        let sync_only = inputs
            .iter()
            .map(|i| Trace {
                events: i
                    .trace
                    .events
                    .iter()
                    .filter(|e| e.is_sync())
                    .copied()
                    .collect(),
            })
            .collect();
        LayerCtx {
            wl,
            inputs,
            limits,
            payloads,
            sync_only,
            last: inputs.iter().map(|_| None).collect(),
        }
    }

    /// One ledger pass over every input.
    pub fn pass(&mut self, rec: &mut Recorder) -> Result<(), String> {
        for (i, inp) in self.inputs.iter().enumerate() {
            let (wl, limit) = (self.wl, self.limits[i]);
            let root_id = rec.open("layers", i, None);
            let root = Some(root_id);
            rec.time("workloads.gen", i, root, || inp.workload.generate());

            // decode -> validate -> replay, as `dgrace detect` runs them,
            // once with a span per step and once bare: the difference is
            // the recorder's own cost.
            let chain_id = rec.open("chain", i, root);
            let chain = Some(chain_id);
            let decoded = rec.time("trace.decode", i, chain, || decode(&inp.bytes))?;
            rec.time("trace.validate", i, chain, || validate(&decoded))
                .map_err(|e| format!("generated trace is invalid: {e}"))?;
            let workload = rec.time(workload_span(wl), i, chain, || {
                replay_workload(wl, &decoded, limit)
            });
            rec.close(chain_id);
            rec.time("chain.bare", i, root, || -> Result<Report, String> {
                let t = decode(&inp.bytes)?;
                validate(&t).map_err(|e| e.to_string())?;
                Ok(replay_workload(wl, &t, limit))
            })?;
            drop(decoded);

            let trace = &inp.trace;
            let limits = DecodeLimits::default();
            rec.time("trace.frame_decode", i, root, || {
                self.payloads[i]
                    .iter()
                    .map(|p| decode_events(p, 0, &limits).events.len())
                    .sum::<usize>()
            });
            rec.time("runtime.funnel_nop", i, root, || {
                replay_sharded(&NopDetector::default(), trace, 1)
            });
            rec.time("runtime.pipeline_nop", i, root, || {
                replay_pipelined(&NopDetector::default(), trace, 1)
            });
            rec.time("runtime.ingest", i, root, || ingest(wl, &trace.events));
            rec.time("detectors.sync_path", i, root, || {
                replay_workload(wl, &self.sync_only[i], limit)
            });
            let mut governed = None;
            let mut dynamic = None;
            for (name, run) in other_runs(wl, trace, limit) {
                match (name, rec.time(name, i, root, run)) {
                    ("detectors.governed", report) => governed = Some(report),
                    ("core.dynamic", report) => dynamic = Some(report),
                    _ => {}
                }
            }
            rec.close(root_id);
            self.last[i] = Some(Reports {
                governed: governed.unwrap_or_else(|| workload.clone()),
                dynamic: dynamic.unwrap_or_else(|| workload.clone()),
                workload,
            });
        }
        Ok(())
    }

    /// Reduces the recorded spans and the last pass's reports to the
    /// per-layer metrics. `residual_ms` is `cli.residual_ms`, which each
    /// workload derives from its own end-to-end samples.
    pub fn metrics(
        &self,
        rec: &Recorder,
        server: &ServerEnd,
        residual_ms: Option<f64>,
    ) -> Result<Vec<Metric>, String> {
        let spans = rec.spans();
        let ms = |name: &str| median_ms(spans, name, None);
        let mut m = Vec::new();
        for (span, name) in [
            ("trace.decode", "trace.decode_ms"),
            ("trace.validate", "trace.validate_ms"),
            ("trace.frame_decode", "trace.frame_decode_ms"),
            ("runtime.funnel_nop", "runtime.funnel_nop_ms"),
            ("runtime.pipeline_nop", "runtime.pipeline_nop_ms"),
            ("runtime.ingest", "runtime.ingest_ms"),
            ("detectors.byte", "detectors.byte_ms"),
            ("detectors.sync_path", "detectors.sync_path_ms"),
            ("detectors.governed", "detectors.governed_ms"),
            ("core.dynamic", "core.dynamic_ms"),
            ("server.connect", "server.connect_ms"),
            ("server.send", "server.send_ms"),
            ("server.credit_wait", "server.credit_wait_ms"),
            ("server.finish", "server.finish_ms"),
            ("workloads.gen", "workloads.gen_ms"),
        ] {
            metric(&mut m, name, ms(span), "ms")?;
        }
        let handoff = ms("runtime.pipeline_nop").zip(ms("runtime.funnel_nop"));
        metric(
            &mut m,
            "runtime.ring_handoff_ms",
            handoff.map(|(p, f)| p - f),
            "ms",
        )?;
        metric(&mut m, "cli.residual_ms", residual_ms, "ms")?;
        let overhead = ms("chain").zip(ms("chain.bare"));
        metric(
            &mut m,
            "tracing.overhead_pct",
            overhead.map(|(t, b)| (t - b) / b * 100.0),
            "%",
        )?;
        metric(&mut m, "tracing.spans", Some(spans.len() as f64), "count")?;

        let last: Vec<&Reports> = self.last.iter().flatten().collect();
        if last.len() != self.inputs.len() {
            return Err("the traced run completed no ledger pass".into());
        }
        let sum = |f: &dyn Fn(&Reports) -> f64| last.iter().map(|r| f(r)).sum::<f64>();
        let bytes: usize = self.inputs.iter().map(|i| i.bytes.len()).sum();
        let events: usize = self.inputs.iter().map(|i| i.trace.len()).sum();
        let counts: Vec<(&'static str, f64, &'static str)> = vec![
            (
                "trace.bytes_per_event",
                bytes as f64 / events as f64,
                "B/event",
            ),
            (
                "detectors.evicted",
                sum(&|r| r.governed.stats.evicted as f64),
                "count",
            ),
            (
                "detectors.governor_transitions",
                sum(&|r| {
                    r.governed
                        .governor
                        .as_ref()
                        .map_or(0, |g| g.transitions.len()) as f64
                }),
                "count",
            ),
            (
                "detectors.peak_rung",
                last.iter()
                    .map(|r| r.governed.governor.as_ref().map_or(0, |g| g.peak_rung))
                    .max()
                    .unwrap_or(0) as f64,
                "count",
            ),
            (
                "detectors.same_epoch_ratio",
                sum(&|r| r.workload.stats.same_epoch as f64)
                    / sum(&|r| r.workload.stats.accesses as f64),
                "ratio",
            ),
            (
                "detectors.races",
                sum(&|r| r.workload.races.len() as f64),
                "count",
            ),
            (
                "detectors.races_tainted",
                sum(&|r| r.workload.races.iter().filter(|x| x.tainted).count() as f64),
                "count",
            ),
            (
                "core.vc_allocs",
                sum(&|r| r.dynamic.stats.vc_allocs as f64),
                "count",
            ),
            (
                "core.shares",
                sum(&|r| r.dynamic.stats.sharing.as_ref().map_or(0, |s| s.shares) as f64),
                "count",
            ),
            (
                "core.splits",
                sum(&|r| r.dynamic.stats.sharing.as_ref().map_or(0, |s| s.splits) as f64),
                "count",
            ),
            (
                "core.avg_share_count",
                sum(&|r| {
                    r.dynamic
                        .stats
                        .sharing
                        .as_ref()
                        .map_or(0.0, |s| s.avg_share_count)
                }) / last.len() as f64,
                "ratio",
            ),
            (
                "shadow.peak_total_bytes",
                sum(&|r| r.workload.stats.peak_total_bytes as f64),
                "B",
            ),
            (
                "shadow.peak_hash_bytes",
                sum(&|r| r.workload.stats.peak_hash_bytes as f64),
                "B",
            ),
            (
                "shadow.peak_vc_bytes",
                sum(&|r| r.workload.stats.peak_vc_bytes as f64),
                "B",
            ),
            (
                "shadow.peak_vc_count",
                sum(&|r| r.workload.stats.peak_vc_count as f64),
                "count",
            ),
            ("server.events_lost", server.events_lost as f64, "count"),
            ("server.quarantined", server.quarantined as f64, "count"),
            ("server.shed", server.shed as f64, "count"),
        ];
        for (name, value, unit) in counts {
            metric(&mut m, name, Some(value), unit)?;
        }
        Ok(m)
    }

    /// `cli.residual_ms` for a detect workload: the median `dgrace
    /// detect` wall time minus the traced decode, validate and replay.
    pub fn detect_residual(&self, rec: &Recorder, detect_ms: &[f64]) -> Option<f64> {
        let spans = rec.spans();
        let inside = median_ms(spans, "trace.decode", None)?
            + median_ms(spans, "trace.validate", None)?
            + median_ms(spans, workload_span(self.wl), None)?;
        Some(stats::median(detect_ms)? - inside)
    }

    /// `cli.residual_ms` for serve-dedup: per input, the median session
    /// wall time (connect to REPORT) minus the traced frame decode and
    /// ingest of the same events; the mean over inputs.
    pub fn serve_residual(&self, rec: &Recorder, sessions_ms: &[(usize, f64)]) -> Option<f64> {
        let spans = rec.spans();
        let mut total = 0.0;
        for i in 0..self.inputs.len() {
            let walls: Vec<f64> = sessions_ms
                .iter()
                .filter(|(k, _)| *k == i)
                .map(|(_, w)| *w)
                .collect();
            total += stats::median(&walls)?
                - median_ms(spans, "trace.frame_decode", Some(i))?
                - median_ms(spans, "runtime.ingest", Some(i))?;
        }
        Some(total / self.inputs.len() as f64)
    }
}

fn decode(bytes: &[u8]) -> Result<Trace, String> {
    read_trace_with(&mut &bytes[..], ReadOptions::default())
        .map(|(t, _)| t)
        .map_err(|e| e.to_string())
}

/// Median duration in ms of the spans called `name` (of one input, or of
/// all).
fn median_ms(spans: &[Span], name: &str, input: Option<usize>) -> Option<f64> {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && input.is_none_or(|i| s.input == i))
        .map(Span::ms)
        .collect();
    stats::median(&v)
}
