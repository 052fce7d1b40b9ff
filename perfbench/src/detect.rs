//! The detect workloads: repeated `dgrace detect` processes on one
//! generated trace, each timed from spawn to exit and checked against an
//! uncapped reference run computed once in setup.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::layers::LayerCtx;
use crate::proc::Spawner;
use crate::serve::{self, ServeProc};
use crate::spans::Recorder;
use crate::{check, metric, stats, Args, Outcome, Setup, Wl};

/// Fewest `detect` runs in a run, should the host be too slow to fit
/// them in `--seconds`.
const MIN_RUNS: usize = 30;

/// Fewest traced iterations.
const MIN_TRACED: usize = 5;

/// The `dgrace detect` arguments of the workload, without the memory
/// limit.
fn detect_args(wl: Wl, trace: &Path) -> Vec<String> {
    let mut a: Vec<String> = vec!["detect".into(), "dynamic".into()];
    a.push(trace.display().to_string());
    a.extend(["--shadow", "paged"].map(String::from));
    if wl == Wl::X264Capped {
        a.extend(["--pipeline", "--shards", "1"].map(String::from));
    }
    a.push("--json".into());
    a
}

/// One checked `detect` run.
struct Sample {
    wall_ms: f64,
    rss_kib: u64,
    ok: bool,
    recall: f64,
    peak: Option<u64>,
}

struct Detect<'a> {
    dgrace: &'a Path,
    wl: Wl,
    args: Vec<String>,
    /// Where each run's stdout goes.
    out: PathBuf,
    reference: String,
}

impl Detect<'_> {
    fn once(&self, sp: &mut Spawner) -> Result<Sample, String> {
        let exit = sp.run(self.dgrace, &self.args, &self.out)?;
        let json = read(&self.out)?;
        let ok = exit.success()
            && match self.wl {
                // Uncapped: the output must be the reference, byte for byte.
                Wl::Pbzip2Dynamic => json == self.reference,
                // Capped: lost precision is allowed, invented races are not.
                _ => {
                    check::field(&json, "events_lost") == Some(0)
                        && check::unexplained(&json, &self.reference) == 0
                }
            };
        if !ok {
            eprintln!(
                "perfbench: FAIL: dgrace detect exit {:?}, output does not match the reference",
                exit.code
            );
        }
        Ok(Sample {
            wall_ms: exit.wall.as_secs_f64() * 1e3,
            rss_kib: exit.maxrss_kib,
            ok,
            recall: check::recall(&json, &self.reference),
            peak: check::field(&json, "peak_total_bytes"),
        })
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

pub fn run(sp: &mut Spawner, args: &Args, dir: &Path, setup: &Setup) -> Result<Outcome, String> {
    let wl = args.wl;
    let input = &setup.inputs[0];
    let base = detect_args(wl, &input.path);
    let out = dir.join("detect.json");
    let exit = sp.run(&args.dgrace, &base, &out)?;
    if !exit.success() {
        return Err(format!("reference detect run exited with {:?}", exit.code));
    }
    let reference = read(&out)?;
    let uncapped_peak = check::field(&reference, "peak_total_bytes")
        .ok_or("reference output has no peak_total_bytes")?;
    let limit = (uncapped_peak / 2).max(1);
    let mut cmd_args = base;
    if wl == Wl::X264Capped {
        let at = cmd_args.len() - 1;
        cmd_args.splice(at..at, ["--memory-limit".to_string(), limit.to_string()]);
    }
    let det = Detect {
        dgrace: &args.dgrace,
        wl,
        args: cmd_args,
        out,
        reference,
    };
    // Warm-up: page cache and binary loaded before the first timed run.
    det.once(sp)?;

    let mut traced = if args.trace {
        let server = ServeProc::start(sp, &args.dgrace, dir)?;
        let ctx = LayerCtx::new(wl, &setup.inputs, vec![limit]);
        Some((server, ctx, Recorder::new(Instant::now())))
    } else {
        None
    };
    let sessions = match &traced {
        Some(_) => serve::sessions(wl, &setup.inputs),
        None => Vec::new(),
    };

    let mut samples = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let start = Instant::now();
    let min = if traced.is_some() {
        MIN_TRACED
    } else {
        MIN_RUNS
    };
    while crate::keep_going(start, args.seconds, samples.len(), min) {
        let s = det.once(sp)?;
        attempted += 1;
        failed += !s.ok as u64;
        samples.push(s);
        if let Some((server, ctx, rec)) = traced.as_mut() {
            ctx.pass(rec)?;
            let p = serve::pass(&server.socket, &sessions, samples.len(), Some(rec));
            attempted += sessions.len() as u64;
            failed += p.failed;
        }
    }

    let wall: Vec<f64> = samples.iter().map(|s| s.wall_ms).collect();
    let mut notes = vec![serve::spread_note("detect wall time", &wall)];
    let mut metrics = Vec::new();
    match traced {
        None => {
            let events = input.trace.len() as f64;
            let rate = stats::median(&wall).map(|ms| events / (ms / 1e3));
            metric(&mut metrics, "events_per_s", rate, "1/s")?;
            metric(&mut metrics, "latency_p50_ms", stats::median(&wall), "ms")?;
            notes.push(serve::tail_note("detect wall time", &wall));
            // The largest over the run, not the median: the worst case is
            // what a user has to provision for.
            let rss = samples.iter().map(|s| s.rss_kib).max().unwrap_or(0);
            metric(&mut metrics, "peak_rss_mb", Some(rss as f64 / 1024.0), "MB")?;
            let peaks: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.peak)
                .map(|p| p as f64 / 1024.0)
                .collect();
            metric(
                &mut metrics,
                "shadow_peak_kib",
                stats::median(&peaks),
                "KiB",
            )?;
            let recall: Vec<f64> = samples.iter().map(|s| s.recall).collect();
            metric(&mut metrics, "race_recall", stats::median(&recall), "ratio")?;
            if wl == Wl::X264Capped {
                notes.push(format!("memory limit {limit} B (half the uncapped peak)"));
            }
        }
        Some((server, ctx, rec)) => {
            let end = server.stop(sp)?;
            failed += end.faults();
            let residual = ctx.detect_residual(&rec, &wall);
            metrics = ctx.metrics(&rec, &end, residual)?;
            notes.push(rec.save(&dir.join(format!("spans-seed{}.jsonl", args.seed)))?);
        }
    }
    Ok(Outcome {
        attempted,
        failed: failed.min(attempted),
        metrics,
        notes,
    })
}
