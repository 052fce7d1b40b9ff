//! Child processes, spawned through a small helper process.
//!
//! The kernel reports a child's peak resident set (`ru_maxrss` from
//! `wait4`) as at least the peak of the process that spawned it: a
//! vfork-style spawn folds the parent's high-water mark into the child's
//! at exec. The benchmark holds whole traces in memory, so it never
//! spawns `dgrace` itself. A helper, this binary run with
//! [`SPAWNER_FLAG`] before the benchmark allocates anything, spawns, times
//! and reaps every `dgrace` process and reports its exit, its wall time
//! and its own peak resident set.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The argument that makes this binary the spawner.
pub const SPAWNER_FLAG: &str = "--spawner";

const SIGTERM: c_int = 15;

/// `struct rusage` on Linux: two `timeval`s, then fourteen `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

/// How a child ended.
#[derive(Debug)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set of the child, in KiB.
    pub maxrss_kib: u64,
    /// Spawn to reaped exit.
    pub wall: Duration,
}

impl Exit {
    /// Whether the process exited normally with status 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }

    fn encode(&self) -> String {
        let code = self.code.map_or(-1, i64::from);
        format!("{code}\t{}\t{}", self.wall.as_nanos(), self.maxrss_kib)
    }

    fn decode(line: &str) -> Option<Exit> {
        let mut f = line.split('\t');
        let code: i64 = f.next()?.parse().ok()?;
        let wall: u64 = f.next()?.parse().ok()?;
        let maxrss_kib = f.next()?.parse().ok()?;
        Some(Exit {
            code: i32::try_from(code).ok().filter(|c| *c >= 0),
            maxrss_kib,
            wall: Duration::from_nanos(wall),
        })
    }
}

/// The benchmark's handle on the spawner process.
pub struct Spawner {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
}

impl Spawner {
    /// Starts the spawner: this executable with [`SPAWNER_FLAG`].
    pub fn start() -> Result<Spawner, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate perfbench: {e}"))?;
        let mut child = Command::new(exe)
            .arg(SPAWNER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start the spawner: {e}"))?;
        Ok(Spawner {
            to: child.stdin.take(),
            from: BufReader::new(child.stdout.take().expect("stdout is piped")),
            child,
        })
    }

    fn ask(&mut self, fields: &[&str]) -> Result<String, String> {
        if fields.iter().any(|f| f.contains(['\t', '\n'])) {
            return Err(format!("argument with a tab or newline: {fields:?}"));
        }
        let to = self.to.as_mut().expect("open until drop");
        writeln!(to, "{}", fields.join("\t"))
            .and_then(|()| to.flush())
            .map_err(|e| format!("spawner: {e}"))?;
        let mut line = String::new();
        match self.from.read_line(&mut line) {
            Ok(0) => Err("spawner exited".into()),
            Ok(_) => match line.trim_end().strip_prefix("error\t") {
                Some(e) => Err(e.to_string()),
                None => Ok(line.trim_end().to_string()),
            },
            Err(e) => Err(format!("spawner: {e}")),
        }
    }

    /// Runs `prog args` to completion with its stdout written to `out`.
    pub fn run(&mut self, prog: &Path, args: &[String], out: &Path) -> Result<Exit, String> {
        let mut f = vec!["run", path_str(out)?, path_str(prog)?];
        f.extend(args.iter().map(String::as_str));
        let reply = self.ask(&f)?;
        Exit::decode(&reply).ok_or(format!("spawner: bad reply `{reply}`"))
    }

    /// Starts `prog args` in the background with stdout and stderr
    /// written to `out` and `err`; returns its pid.
    pub fn launch(
        &mut self,
        prog: &Path,
        args: &[String],
        out: &Path,
        err: &Path,
    ) -> Result<u32, String> {
        let mut f = vec!["launch", path_str(out)?, path_str(err)?, path_str(prog)?];
        f.extend(args.iter().map(String::as_str));
        let reply = self.ask(&f)?;
        reply
            .parse()
            .map_err(|_| format!("spawner: bad reply `{reply}`"))
    }

    /// Sends SIGTERM to a launched process and reaps it.
    pub fn stop(&mut self, pid: u32) -> Result<Exit, String> {
        let reply = self.ask(&["stop", &pid.to_string()])?;
        Exit::decode(&reply).ok_or(format!("spawner: bad reply `{reply}`"))
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // End of input tells the spawner to stop whatever it still runs.
        drop(self.to.take());
        let _ = self.child.wait();
    }
}

fn path_str(p: &Path) -> Result<&str, String> {
    p.to_str()
        .ok_or(format!("path is not UTF-8: {}", p.display()))
}

/// The spawner's main loop: one request per stdin line, one reply per
/// stdout line. On end of input it stops and reaps every process it
/// launched and is still running.
pub fn spawner_main() -> ExitCode {
    let mut live: HashMap<u32, (Child, Instant)> = HashMap::new();
    let mut out = io::stdout().lock();
    for line in io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let reply = serve_request(&line, &mut live).unwrap_or_else(|e| format!("error\t{e}"));
        if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }
    for (child, started) in live.into_values() {
        let _ = terminate(&child);
        let _ = reap(&child, started);
    }
    ExitCode::SUCCESS
}

fn serve_request(line: &str, live: &mut HashMap<u32, (Child, Instant)>) -> Result<String, String> {
    let f: Vec<&str> = line.split('\t').collect();
    let create = |p: &str| File::create(p).map_err(|e| format!("create {p}: {e}"));
    match f.as_slice() {
        ["run", out, prog, args @ ..] => {
            let started = Instant::now();
            let child = Command::new(prog)
                .args(args)
                .stdin(Stdio::null())
                .stdout(create(out)?)
                .spawn()
                .map_err(|e| format!("spawn {prog}: {e}"))?;
            Ok(reap(&child, started)
                .map_err(|e| format!("reap {prog}: {e}"))?
                .encode())
        }
        ["launch", out, err, prog, args @ ..] => {
            let started = Instant::now();
            let child = Command::new(prog)
                .args(args)
                .stdin(Stdio::null())
                .stdout(create(out)?)
                .stderr(create(err)?)
                .spawn()
                .map_err(|e| format!("spawn {prog}: {e}"))?;
            let pid = child.id();
            live.insert(pid, (child, started));
            Ok(pid.to_string())
        }
        ["stop", pid] => {
            let pid: u32 = pid.parse().map_err(|_| format!("bad pid `{pid}`"))?;
            let (child, started) = live.remove(&pid).ok_or(format!("no process {pid}"))?;
            terminate(&child).map_err(|e| format!("signal {pid}: {e}"))?;
            Ok(reap(&child, started)
                .map_err(|e| format!("reap {pid}: {e}"))?
                .encode())
        }
        _ => Err(format!("bad request `{line}`")),
    }
}

/// Reaps `child` and collects its exit status and resource usage. The
/// caller must not also `wait` on the `Child`.
fn reap(child: &Child, started: Instant) -> io::Result<Exit> {
    let pid = c_int::try_from(child.id()).map_err(io::Error::other)?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, correctly
        // laid-out locals for the duration of the call, and `pid` is a
        // child of this process that nothing else reaps.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = started.elapsed();
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        maxrss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
        wall,
    })
}

/// Asks `child` to stop gracefully (SIGTERM).
fn terminate(child: &Child) -> io::Result<()> {
    let pid = c_int::try_from(child.id()).map_err(io::Error::other)?;
    // SAFETY: `kill` takes plain integers; `pid` is our unreaped child,
    // so the signal cannot reach a recycled process id.
    if unsafe { kill(pid, SIGTERM) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_round_trips_through_a_reply_line() {
        let e = Exit {
            code: Some(3),
            maxrss_kib: 4096,
            wall: Duration::from_nanos(123_456_789),
        };
        let d = Exit::decode(&e.encode()).expect("decodes");
        assert_eq!(
            (d.code, d.maxrss_kib, d.wall),
            (e.code, e.maxrss_kib, e.wall)
        );
        let signalled = Exit::decode("-1\t5\t6").expect("decodes");
        assert_eq!(signalled.code, None);
        assert!(Exit::decode("0\tx\t1").is_none());
    }
}
