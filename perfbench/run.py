#!/usr/bin/env python3
"""Build dgrace and the benchmark from source, then run one benchmark run.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace <0|1>

Run it from the root of a dgrace checkout. Builds go to $CARGO_TARGET_DIR
(default .bench_build); run files go to .bench_run. Before the run it prints
the host fingerprint (CPU count and model, rustc version, commit); the last
line of stdout is the benchmark's result object. See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/src", "perfbench/Cargo.toml"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """A digest of the sources the run builds, for checkouts without git."""
    h = hashlib.sha256()
    paths = []
    for top in SOURCES:
        if os.path.isfile(top):
            paths.append(top)
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths.extend(os.path.join(d, f) for f in files)
    for p in sorted(paths):
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return f"unknown (no git; source digest {source_digest()})"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isfile("crates/cli/Cargo.toml")):
        fail("run from the root of a dgrace checkout (no Cargo.toml / crates/cli here)")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for build in (
        ["cargo", "build", "--release", "--offline", "-p", "dgrace-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(build, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(build)}")

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    cpus = os.cpu_count() or 0
    print(f"host: cpus={cpus} model={cpu_model()!r} rustc={rustc!r} commit={commit()}")
    if cpus < 4:
        print(f"host: WARNING: {cpus} CPUs; these numbers show overhead only and say nothing "
              "about scaling")
    sys.stdout.flush()

    harness = os.path.join(target, "release", "perfbench")
    dgrace = os.path.join(target, "release", "dgrace")
    run = subprocess.run([harness, *sys.argv[1:], "--dgrace", dgrace, "--out", ".bench_run"])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
