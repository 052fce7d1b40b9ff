//! `dgrace detect --checkpoint-dir` then `--resume` reproduces an
//! uninterrupted run byte for byte. The checkpoint cadence is a prime
//! number of events, so the last manifest cuts the trace mid-epoch: the
//! threads' same-epoch bitmaps hold live chunks, and the resumed run
//! filters exactly as the uninterrupted one does only if they survive
//! the round trip.

use std::path::{Path, PathBuf};
use std::process::Command;

use dgrace_runtime::{CheckpointManifest, CHECKPOINT_FILE};

/// A fresh per-test directory under the system temp directory.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgrace-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `dgrace` with `args`, asserting success; returns stdout.
fn dgrace(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dgrace"))
        .args(args)
        .output()
        .expect("run dgrace");
    assert!(
        out.status.success(),
        "dgrace {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

#[test]
fn resumed_detect_is_byte_identical_to_uninterrupted() {
    let dir = temp_dir("detect");
    let trace = dir.join("pbzip2.dgrt");
    dgrace(&["gen", "pbzip2", "--scale", "0.25", "-o", path(&trace)]);
    let ckpt = dir.join("ckpt");
    let cases: [(&str, &[&str]); 5] = [
        ("dynamic", &["--shadow", "paged"]),
        ("dynamic", &["--shadow", "hash", "--shards", "2"]),
        (
            "dynamic",
            &["--shadow", "paged", "--pipeline", "--shards", "2"],
        ),
        ("byte", &["--shadow", "paged"]),
        ("djit", &["--shadow", "hash"]),
    ];
    for (det, extra) in cases {
        let run = |more: &[&str]| {
            let mut args = vec!["detect", det, path(&trace), "--json"];
            args.extend_from_slice(extra);
            args.extend_from_slice(more);
            dgrace(&args)
        };
        let baseline = run(&[]);
        let _ = std::fs::remove_dir_all(&ckpt);
        let checkpointed = run(&[
            "--checkpoint-dir",
            path(&ckpt),
            "--checkpoint-every",
            "7919",
        ]);
        assert_eq!(checkpointed, baseline, "{det} {extra:?}: checkpointing");

        let manifest = CheckpointManifest::load(&ckpt.join(CHECKPOINT_FILE))
            .expect("readable manifest")
            .expect("a manifest was written");
        assert!(
            manifest.trace_offset > 0 && manifest.trace_offset < manifest.trace_len,
            "{det} {extra:?}: the last checkpoint must cut the trace"
        );
        let resumed = run(&["--resume", path(&ckpt)]);
        assert_eq!(resumed, baseline, "{det} {extra:?}: resume");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
