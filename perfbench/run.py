#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Arguments pass through to the `perfbench` binary (see src/main.rs). The
build goes to $CARGO_TARGET_DIR when set, else perfbench/target. The git
revision and a hash of the sources are handed to the binary, which prints
them in its provenance line. The binary's last stdout line is the result.
"""

import hashlib
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# A run must end within 180 s; stop the binary well before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def source_hash():
    """SHA-256 over every source file the binary is built from."""
    h = hashlib.sha256()
    roots = ["crates", "src", "vendor", os.path.join("perfbench", "src")]
    files = ["Cargo.toml", "Cargo.lock", os.path.join("perfbench", "Cargo.toml")]
    for top in roots:
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.relpath(os.path.join(d, n), ROOT) for n in names]
    for rel in sorted(files):
        try:
            with open(os.path.join(ROOT, rel), "rb") as f:
                data = f.read()
        except OSError:
            continue
        h.update(rel.encode() + b"\0" + data)
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    manifest = os.path.join(BENCH, "Cargo.toml")
    try:
        built = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH, "target")
    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary] + sys.argv[1:] + [
        "--out", os.path.join(BENCH, "out"),
        "--rev", git_rev(),
        "--source-hash", source_hash(),
    ]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
