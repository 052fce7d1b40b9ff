//! Exit codes of `dgrace detect` on damaged traces: a trace that decodes
//! but breaks the schedule rules exits 5, and one that also fails to
//! decode exits 4, because a decode error wins over a validation error.

use std::path::PathBuf;
use std::process::Command;

use dgrace_trace::io::to_bytes;
use dgrace_trace::{AccessSize, TraceBuilder};

/// Writes `bytes` to a per-test file under the system temp directory.
fn trace_file(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("dgrace-exit-{tag}-{}.dgrt", std::process::id()));
    std::fs::write(&path, bytes).expect("write trace");
    path
}

/// Runs `dgrace detect byte <path>`, returning the exit code and stderr.
fn detect(path: &PathBuf) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dgrace"))
        .args(["detect", "byte"])
        .arg(path)
        .output()
        .expect("run dgrace");
    let _ = std::fs::remove_file(path);
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Thread 2 writes before anyone forks it: invalid from event 1 on.
fn invalid_trace() -> Vec<u8> {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32)
        .write(2u32, 0x10u64, AccessSize::U32)
        .write(1u32, 0x10u64, AccessSize::U32)
        .join(0u32, 1u32);
    to_bytes(&b.build())
}

#[test]
fn invalid_trace_exits_5() {
    let (code, stderr) = detect(&trace_file("invalid", &invalid_trace()));
    assert_eq!(code, 5, "{stderr}");
    assert!(
        stderr.contains("event 1: thread T2 acts before being forked"),
        "{stderr}"
    );
}

#[test]
fn invalid_and_truncated_trace_exits_4() {
    let bytes = invalid_trace();
    let (code, stderr) = detect(&trace_file("truncated", &bytes[..bytes.len() - 3]));
    assert_eq!(code, 4, "{stderr}");
    assert!(stderr.contains("truncated stream"), "{stderr}");
}
