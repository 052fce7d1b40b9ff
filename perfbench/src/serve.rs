//! The `dgrace serve` process and the closed-loop client passes that
//! drive it: the whole of the serve-dedup workload, and the server layer
//! of the traced run on the detect workloads.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dgrace_server::{Client, ClientError};
use dgrace_trace::Event;

use dgrace_detectors::Report;
use dgrace_server::proto::report_json;

use crate::layers::{self, LayerCtx};
use crate::proc::{self, Spawner};
use crate::spans::Recorder;
use crate::{check, metric, stats, Args, Input, Outcome, Setup, Wl};

/// Events per closed-loop round trip: the client sends this many, then
/// waits until the server has credited all of them back.
pub const BATCH: usize = 1024;

/// Fewest closed-loop passes in a run, so medians have a middle.
const MIN_PASSES: usize = 5;

/// A running `dgrace serve` with default settings, launched through the
/// spawner (which stops it if the benchmark exits without doing so).
pub struct ServeProc {
    pid: u32,
    out: PathBuf,
    err: PathBuf,
    pub socket: PathBuf,
}

/// A stopped server's exit and counters.
pub struct ServerEnd {
    pub exit: proc::Exit,
    pub shed: u64,
    pub quarantined: u64,
    pub events_lost: u64,
}

impl ServerEnd {
    /// Failures the server saw that the clients may not have: a bad
    /// exit, sheds, quarantines and lost events.
    pub fn faults(&self) -> u64 {
        self.shed + self.quarantined + (self.events_lost > 0) as u64 + !self.exit.success() as u64
    }
}

impl ServeProc {
    /// Starts `dgrace serve <dir>/serve.sock` and returns once it reports
    /// that its socket is listening.
    pub fn start(sp: &mut Spawner, dgrace: &Path, dir: &Path) -> Result<ServeProc, String> {
        let socket = dir.join("serve.sock");
        let args = ["serve".to_string(), socket.display().to_string()];
        let (out, err) = (dir.join("serve.out"), dir.join("serve.err"));
        let pid = sp.launch(dgrace, &args, &out, &err)?;
        let server = ServeProc {
            pid,
            out,
            err,
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let said = std::fs::read_to_string(&server.err).unwrap_or_default();
            if said.contains("listening on") {
                return Ok(server);
            }
            if Instant::now() > deadline {
                let _ = sp.stop(pid);
                return Err(format!("dgrace serve did not start listening: {said}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stops the server gracefully and collects its exit and counters.
    pub fn stop(self, sp: &mut Spawner) -> Result<ServerEnd, String> {
        let exit = sp.stop(self.pid)?;
        let read =
            |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()));
        let (out, err) = (read(&self.out)?, read(&self.err)?);
        for line in err.lines().filter(|l| !l.contains("listening on")) {
            eprintln!("{line}");
        }
        Ok(ServerEnd {
            exit,
            shed: counter(&out, "degradation", 1),
            quarantined: counter(&out, "faults", 0),
            events_lost: counter(&out, "faults", 1),
        })
    }
}

/// The `nth` integer on the line of the server's exit summary that
/// starts with `key`. A missing line reads as one fault, so a summary
/// that changes shape fails the run instead of passing it.
fn counter(summary: &str, key: &str, nth: usize) -> u64 {
    summary
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .filter(|t| !t.is_empty())
                .nth(nth)
                .and_then(|t| t.parse().ok())
        })
        .unwrap_or(1)
}

/// One client of a pass: streams one input's events.
pub struct Session<'a> {
    pub detector: &'static str,
    pub events: &'a [Event],
    /// What a solo in-process `IngestSession` reports for the same
    /// events.
    pub solo: Report,
    pub input: usize,
}

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    /// First connect to last REPORT.
    pub wall_s: f64,
    /// Every batch round trip, in ms.
    pub rtts_ms: Vec<f64>,
    /// Per session: input index and connect-to-REPORT wall, in ms.
    pub sessions_ms: Vec<(usize, f64)>,
    /// Per finished session: share of the solo run's races it reported.
    pub recall: Vec<f64>,
    pub failed: u64,
}

/// Streams every session concurrently, one client thread each, as a
/// closed loop of [`BATCH`]-event round trips, and checks each REPORT
/// against its solo run. Every session of every pass has its own name:
/// a name is the server's resume key, and these are fresh sessions.
/// With `rec`, each client call is a span.
pub fn pass(
    socket: &Path,
    sessions: &[Session],
    pass_no: usize,
    rec: Option<&mut Recorder>,
) -> Pass {
    let origin = rec.as_ref().map(|r| r.origin());
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|sess| {
                let name = format!("s{}-{pass_no}", sess.input);
                s.spawn(move || (client(socket, sess, &name, origin.map(Recorder::new)), name))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Pass {
        wall_s: start.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    let mut rec = rec;
    for (sess, ((result, rtts, wall_ms, local), name)) in sessions.iter().zip(results) {
        out.rtts_ms.extend(rtts);
        if let (Some(r), Some(l)) = (rec.as_deref_mut(), local) {
            r.absorb(l);
        }
        match result {
            Ok(report) => {
                out.sessions_ms.push((sess.input, wall_ms));
                let solo = report_json(&name, &sess.solo, 0, false);
                out.recall.push(check::recall(&report, &solo));
                if report != solo {
                    eprintln!("perfbench: FAIL: session {name} REPORT differs from its solo run");
                    out.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("perfbench: FAIL: session {name}: {e}");
                out.failed += 1;
            }
        }
    }
    out
}

type ClientResult = (Result<String, ClientError>, Vec<f64>, f64, Option<Recorder>);

fn client(socket: &Path, sess: &Session, name: &str, mut rec: Option<Recorder>) -> ClientResult {
    let start = Instant::now();
    let mut rtts = Vec::with_capacity(sess.events.len() / BATCH + 1);
    let root = rec
        .as_mut()
        .map(|r| r.open("server.session", sess.input, None));
    let result = (|| {
        let mut c = span(&mut rec, "server.connect", sess.input, root, || {
            Client::connect(socket, name, sess.detector)
        })?;
        for chunk in sess.events.chunks(BATCH) {
            let t0 = Instant::now();
            span(&mut rec, "server.send", sess.input, root, || {
                c.send_events(chunk)
            })?;
            span(&mut rec, "server.credit_wait", sess.input, root, || {
                c.await_credits()
            })?;
            rtts.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let end = span(&mut rec, "server.finish", sess.input, root, || c.finish())?;
        Ok(end.report_json)
    })();
    if let (Some(r), Some(id)) = (rec.as_mut(), root) {
        r.close(id);
    }
    (result, rtts, start.elapsed().as_secs_f64() * 1e3, rec)
}

fn span<R>(
    rec: &mut Option<Recorder>,
    name: &'static str,
    input: usize,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => r.time(name, input, parent, f),
        None => f(),
    }
}

/// The sessions a pass streams, one per input, with the solo reference
/// report of each.
pub fn sessions(wl: Wl, inputs: &[Input]) -> Vec<Session<'_>> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, inp)| Session {
            detector: wl.serve_detector(),
            events: &inp.trace.events,
            solo: layers::solo_report(wl, &inp.trace.events),
            input: i,
        })
        .collect()
}

/// The serve-dedup workload: closed-loop passes of two concurrent
/// sessions for the run's length.
pub fn run(
    sp: &mut Spawner,
    args: &Args,
    dir: &Path,
    setup: &mut Setup,
) -> Result<Outcome, String> {
    let server = setup.server.take().ok_or("serve-dedup: no server")?;
    let sessions = sessions(args.wl, &setup.inputs);
    let peaks: Vec<u64> = sessions
        .iter()
        .map(|s| s.solo.stats.peak_total_bytes as u64)
        .collect();
    let mut traced = args.trace.then(|| {
        let limits = peaks.iter().map(|p| (p / 2).max(1)).collect();
        (
            LayerCtx::new(args.wl, &setup.inputs, limits),
            Recorder::new(Instant::now()),
        )
    });
    let events: usize = sessions.iter().map(|s| s.events.len()).sum();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut pass_rate = Vec::new();
    let mut rtts = Vec::new();
    let mut recall = Vec::new();
    let mut sessions_ms = Vec::new();
    let start = Instant::now();
    while crate::keep_going(start, args.seconds, pass_rate.len(), MIN_PASSES) {
        let p = pass(
            &server.socket,
            &sessions,
            pass_rate.len(),
            traced.as_mut().map(|(_, r)| r),
        );
        attempted += sessions.len() as u64;
        failed += p.failed;
        pass_rate.push(events as f64 / p.wall_s);
        rtts.extend(p.rtts_ms);
        recall.extend(p.recall);
        sessions_ms.extend(p.sessions_ms);
        if let Some((ctx, rec)) = traced.as_mut() {
            ctx.pass(rec)?;
        }
    }
    let end = server.stop(sp)?;
    let faults = end.faults();
    if faults > 0 {
        eprintln!(
            "perfbench: FAIL: server exit {:?}, {} shed, {} quarantined, {} events lost",
            end.exit.code, end.shed, end.quarantined, end.events_lost
        );
    }
    let failed = failed.max(faults).min(attempted);
    let mut metrics = Vec::new();
    let mut notes = vec![
        format!(
            "{} passes of {} sessions, {events} events per pass",
            pass_rate.len(),
            sessions.len()
        ),
        spread_note("events_per_s", &pass_rate),
        spread_note("batch round trip", &rtts),
    ];
    match traced {
        None => {
            metric(
                &mut metrics,
                "events_per_s",
                stats::median(&pass_rate),
                "1/s",
            )?;
            metric(&mut metrics, "latency_p50_ms", stats::median(&rtts), "ms")?;
            notes.push(tail_note("batch round trip", &rtts));
            let rss = end.exit.maxrss_kib as f64 / 1024.0;
            metric(&mut metrics, "peak_rss_mb", Some(rss), "MB")?;
            let peak: u64 = peaks.iter().sum();
            metric(
                &mut metrics,
                "shadow_peak_kib",
                Some(peak as f64 / 1024.0),
                "KiB",
            )?;
            metric(&mut metrics, "race_recall", stats::median(&recall), "ratio")?;
        }
        Some((ctx, rec)) => {
            let residual = ctx.serve_residual(&rec, &sessions_ms);
            metrics = ctx.metrics(&rec, &end, residual)?;
            notes.push(rec.save(&dir.join(format!("spans-seed{}.jsonl", args.seed)))?);
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// A one-line report of the highest of p99 and p90 that has at least
/// ten samples beyond it, in ms.
pub fn tail_note(what: &str, v: &[f64]) -> String {
    for (q, name) in [(0.99, "p99"), (0.9, "p90")] {
        if let Some(t) = stats::tail(v, q) {
            return format!("{what}: {name} {t:.4} ms over {} samples", v.len());
        }
    }
    format!("{what}: no tail percentile ({} samples)", v.len())
}

/// A one-line summary of a sample set: median, size and within-run
/// spread. Printed in both modes, so a traced run's figures can be set
/// against an untraced run's.
pub fn spread_note(what: &str, v: &[f64]) -> String {
    format!(
        "{what}: median {:.4} over {} samples, within-run IQR/median {:.3}",
        stats::median(v).unwrap_or(f64::NAN),
        v.len(),
        stats::spread(v).unwrap_or(f64::NAN)
    )
}

#[cfg(test)]
mod tests {
    use super::counter;

    #[test]
    fn reads_the_servers_exit_summary() {
        let summary = "served        : 4 session(s) finished, 0 suspended, 0 resumed\n\
                       degradation   : 0 degraded to sampling, 2 shed at admission\n\
                       faults        : 1 session(s) quarantined, 37 event(s) lost (exact)\n";
        assert_eq!(counter(summary, "degradation", 1), 2);
        assert_eq!(counter(summary, "faults", 0), 1);
        assert_eq!(counter(summary, "faults", 1), 37);
        // A summary without the line reads as a fault, not as zero.
        assert_eq!(counter("", "faults", 0), 1);
    }
}
