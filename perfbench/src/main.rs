//! The dgrace benchmark: times the user-visible `dgrace detect` and
//! `dgrace serve` commands on generated traces (end-to-end metrics) and,
//! in a separate traced run, calls each layer's public functions on the
//! same traces to attribute the time (per-layer metrics).
//!
//! ```text
//! perfbench --workload <pbzip2-dynamic|x264-capped|serve-dedup> --seed N
//!           --seconds S --trace <0|1> --dgrace <path to dgrace> [--out DIR]
//! ```
//!
//! The last line of stdout is the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `perfbench/run.py`
//! builds everything and calls this binary; see `perfbench/README.md`.

mod check;
mod detect;
mod layers;
mod proc;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dgrace_trace::io::read_trace_with;
use dgrace_trace::{trace_fingerprint, ReadOptions, Trace};
use dgrace_workloads::{Workload, WorkloadKind};

use crate::proc::Spawner;

/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The three workloads. Why each exists is in `README.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wl {
    /// `detect dynamic --shadow paged`, one shard, no pipeline.
    Pbzip2Dynamic,
    /// `detect dynamic --shadow paged --pipeline --shards 1` under a
    /// memory limit of half the uncapped modeled peak.
    X264Capped,
    /// Two closed-loop `byte` sessions against `dgrace serve`.
    ServeDedup,
}

impl Wl {
    fn parse(name: &str) -> Option<Wl> {
        Some(match name {
            "pbzip2-dynamic" => Wl::Pbzip2Dynamic,
            "x264-capped" => Wl::X264Capped,
            "serve-dedup" => Wl::ServeDedup,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Wl::Pbzip2Dynamic => "pbzip2-dynamic",
            Wl::X264Capped => "x264-capped",
            Wl::ServeDedup => "serve-dedup",
        }
    }

    fn kind(self) -> WorkloadKind {
        match self {
            Wl::Pbzip2Dynamic => WorkloadKind::Pbzip2,
            Wl::X264Capped => WorkloadKind::X264,
            Wl::ServeDedup => WorkloadKind::Dedup,
        }
    }

    /// Trace scale: large enough that one `detect` run is dominated by
    /// analysis rather than process start, small enough that a run
    /// gathers over a hundred of them.
    fn scale(self) -> f64 {
        match self {
            Wl::Pbzip2Dynamic => 2.0,
            Wl::X264Capped => 5.0,
            Wl::ServeDedup => 1.0,
        }
    }

    /// Generated traces per run (serve-dedup streams one per client).
    fn inputs(self) -> usize {
        match self {
            Wl::ServeDedup => 2,
            _ => 1,
        }
    }

    /// The detector name a `dgrace serve` session of this workload asks
    /// for.
    fn serve_detector(self) -> &'static str {
        match self {
            Wl::ServeDedup => "byte",
            _ => "dynamic",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub wl: Wl,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dgrace: PathBuf,
    pub out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<Option<String>, String> {
        match argv.iter().position(|a| a == flag) {
            Some(i) => argv
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or(format!("{flag} needs a value")),
            None => Ok(None),
        }
    };
    let need = |v: Option<String>, flag: &str| v.ok_or(format!("missing {flag}"));
    let wl_name = need(get("--workload")?, "--workload")?;
    let wl = Wl::parse(&wl_name).ok_or(format!(
        "unknown workload `{wl_name}` (pbzip2-dynamic, x264-capped, serve-dedup)"
    ))?;
    let seed = need(get("--seed")?, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need(get("--seconds")?, "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match need(get("--trace")?, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let dgrace = PathBuf::from(need(get("--dgrace")?, "--dgrace")?);
    let out = PathBuf::from(get("--out")?.unwrap_or_else(|| ".bench_run".into()));
    Ok(Args {
        wl,
        seed,
        seconds,
        trace,
        dgrace,
        out,
    })
}

/// One generated trace, as `dgrace` sees it on disk and as the layers
/// see it in memory.
pub struct Input {
    pub path: PathBuf,
    pub bytes: Vec<u8>,
    pub trace: Trace,
    pub workload: Workload,
}

/// The generator seed of input `i`: distinct per input, never 0 (which
/// `dgrace gen` reads as "default seed").
fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(16).wrapping_add(1 + i as u64)
}

/// What setup produced: the inputs, the `setup_s` samples, and whether
/// the generator checks held.
pub struct Setup {
    pub inputs: Vec<Input>,
    pub setup_s: Vec<f64>,
    pub checks_ok: bool,
    pub server: Option<serve::ServeProc>,
}

/// Generates the workload's traces with `dgrace gen` [`SETUP_REPS`]
/// times (timed; for serve-dedup each repetition also starts a server
/// and waits for its socket), checks that regeneration is exact and
/// that another seed plants the same races, and decodes the traces.
fn setup(sp: &mut Spawner, args: &Args, dir: &Path) -> Result<Setup, String> {
    let wl = args.wl;
    let paths: Vec<PathBuf> = (0..wl.inputs())
        .map(|i| dir.join(format!("input{i}.dgrt")))
        .collect();
    let mut setup_s = Vec::new();
    let mut fingerprints: Option<Vec<u64>> = None;
    let mut checks_ok = true;
    let mut server: Option<serve::ServeProc> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            s.stop(sp)?;
        }
        let t0 = Instant::now();
        for (i, path) in paths.iter().enumerate() {
            let gen = [
                "gen".to_string(),
                wl.kind().name().to_string(),
                "--scale".to_string(),
                wl.scale().to_string(),
                "--seed".to_string(),
                input_seed(args.seed, i).to_string(),
                "-o".to_string(),
                path.display().to_string(),
            ];
            let exit = sp.run(&args.dgrace, &gen, &dir.join("gen.out"))?;
            if !exit.success() {
                return Err(format!("dgrace gen exited with {:?}", exit.code));
            }
        }
        if wl == Wl::ServeDedup {
            server = Some(serve::ServeProc::start(sp, &args.dgrace, dir)?);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        let fps = paths
            .iter()
            .map(|p| decode_file(p).map(|(t, _)| trace_fingerprint(&t)))
            .collect::<Result<Vec<_>, _>>()?;
        match &fingerprints {
            None => fingerprints = Some(fps),
            Some(first) if *first != fps => {
                eprintln!("perfbench: FAIL: regenerating with the same seed changed a trace");
                checks_ok = false;
            }
            Some(_) => {}
        }
    }

    let mut inputs = Vec::new();
    for (i, path) in paths.into_iter().enumerate() {
        let (trace, bytes) = decode_file(&path)?;
        let workload = Workload::new(wl.kind())
            .with_scale(wl.scale())
            .with_seed(input_seed(args.seed, i));
        let (mem_trace, truth) = workload.generate();
        if trace_fingerprint(&mem_trace) != trace_fingerprint(&trace) {
            eprintln!("perfbench: FAIL: `dgrace gen` and Workload::generate disagree");
            checks_ok = false;
        }
        let (_, other_truth) = workload
            .with_seed(input_seed(args.seed, i) ^ 0x9e37)
            .generate();
        if truth != other_truth {
            eprintln!("perfbench: FAIL: another seed planted different races");
            checks_ok = false;
        }
        inputs.push(Input {
            path,
            bytes,
            trace,
            workload,
        });
    }
    Ok(Setup {
        inputs,
        setup_s,
        checks_ok,
        server,
    })
}

fn decode_file(path: &Path) -> Result<(Trace, Vec<u8>), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let (trace, _) = read_trace_with(&mut &bytes[..], ReadOptions::default())
        .map_err(|e| format!("decode {}: {e}", path.display()))?;
    Ok((trace, bytes))
}

/// A reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed above the result line.
    pub notes: Vec<String>,
}

/// Pushes a metric, failing the run when it cannot be computed: every
/// metric the benchmark declares must be present in every result.
pub fn metric(
    out: &mut Vec<Metric>,
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
) -> Result<(), String> {
    let value = value.ok_or(format!("{name}: not enough samples"))?;
    if !value.is_finite() {
        return Err(format!("{name}: not a finite number ({value})"));
    }
    out.push(Metric { name, value, unit });
    Ok(())
}

/// Runs until `seconds` have passed and at least `min` iterations ran.
pub fn keep_going(start: Instant, seconds: f64, done: usize, min: usize) -> bool {
    // A hard stop well inside the harness's 180 s limit.
    let hard = Duration::from_secs_f64(seconds * 3.0).min(Duration::from_secs(150));
    let el = start.elapsed();
    el < hard && (el.as_secs_f64() < seconds || done < min)
}

fn run(sp: &mut Spawner, args: &Args) -> Result<(bool, Outcome), String> {
    let dir = args.out.join(args.wl.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut setup = setup(sp, args, &dir)?;
    let checks_ok = setup.checks_ok;
    let mut outcome = match args.wl {
        Wl::ServeDedup => serve::run(sp, args, &dir, &mut setup)?,
        _ => detect::run(sp, args, &dir, &setup)?,
    };
    if !args.trace {
        let setup_s = stats::median(&setup.setup_s);
        metric(&mut outcome.metrics, "setup_s", setup_s, "s")?;
    }
    Ok((checks_ok && outcome.failed == 0, outcome))
}

fn result_line(correct: bool, o: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &o.metrics {
        if !stats::valid_name(m.name) {
            return Err(format!("illegal metric name `{}`", m.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(proc::SPAWNER_FLAG) {
        return proc::spawner_main();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Started first, while this process is still small: see `proc`.
    let mut spawner = match Spawner::start() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let line = run(&mut spawner, &args).and_then(|(correct, o)| {
        let line = result_line(correct, &o)?;
        Ok((correct, o, line))
    });
    match line {
        Ok((correct, o, line)) => {
            println!(
                "workload {} seed {} trace {}: {} attempted, {} failed (failed_frac {}), correct {correct}",
                args.wl.name(),
                args.seed,
                args.trace as u8,
                o.attempted,
                o.failed,
                o.failed as f64 / o.attempted.max(1) as f64
            );
            for n in &o.notes {
                println!("  {n}");
            }
            for m in &o.metrics {
                println!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
