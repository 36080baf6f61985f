#!/usr/bin/env bash
# Local CI: exactly what .github/workflows/ci.yml runs.
#
# Offline-friendly by construction: all external dependencies are vendored
# path crates (vendor/README.md), so no step needs registry or network
# access. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --workspace --release

echo "== test (debug) =="
cargo test --workspace -q

echo "== test (release, includes the slow double-build determinism tests) =="
cargo test --workspace -q --release

echo "== geometry bench smoke (compile only) =="
# The criterion hot-path benches (point distance batch, aabb ray-slab,
# triangle intersect) must keep building; timing runs stay local.
cargo bench -p hsu-geometry --no-run

echo "== sim-mode matrix (stepped oracle vs event) =="
# Fast equivalence leg: the scaled-down suite must produce byte-identical
# reports in the stepped and event simulation modes. Catches scheduling
# nondeterminism that the unit proptests' small machines might miss.
cargo test --release -q --test sim_equivalence full_suite_matrix_is_mode_equivalent

echo "== RT-organization golden matrix (baseline vs treelet cores, smoke scale) =="
# Cross-organization differential leg: the five golden workloads must
# produce identical report payloads (instruction issue, warp retirement,
# RT instruction counts) under the baseline and treelet-scheduled RT cores
# in both simulation modes, and the baseline core must still hit its
# pinned golden cycle counts. Fails if the two organizations ever diverge
# in anything but timing/stat columns.
cargo test --release -q --test rt_organization -- \
    golden_workloads_agree_across_organizations \
    baseline_organization_still_matches_the_golden_cycles

echo "== sim modes (differential bench: stepped oracle vs event) =="
# Runs the suite matrix under both simulation modes and asserts the
# reports are identical. The entry it writes goes to a throwaway file: the
# tracked BENCH_sim.json trajectory only gains entries recorded on purpose
# (`simbench --pr <label>`). Quarter scale on the default 32-SM machine
# keeps this a few minutes; drop --quick for the full-scale numbers quoted
# in EXPERIMENTS.md.
SIMBENCH_OUT="$(mktemp)"
cargo run --release -p hsu-bench --bin simbench -- --quick --jobs 0 --pr ci --out "$SIMBENCH_OUT"
rm -f "$SIMBENCH_OUT"

echo "== fault-injection smoke (typed errors + partial report, no aborts) =="
# Generates one healthy and three corrupted trace files, replays them through
# the fault-tolerant pool, and asserts that repro exits nonzero while still
# producing a well-formed partial report (the healthy job must succeed, the
# corrupted ones must fail with typed errors rather than a process abort).
FAULT_DIR="$(mktemp -d)"
trap 'rm -rf "$FAULT_DIR"' EXIT
cargo run --release -q -p hsu-bench --bin repro -- --out "$FAULT_DIR" gen-fault-traces
if cargo run --release -q -p hsu-bench --bin repro -- --keep-going \
    --trace "$FAULT_DIR/healthy.hsut" --trace "$FAULT_DIR/truncated.hsut" \
    --trace "$FAULT_DIR/bitflip.hsut" --trace "$FAULT_DIR/bogus.hsut" \
    traces > "$FAULT_DIR/report.txt" 2>&1; then
  echo "FAIL: repro exited 0 despite corrupted traces"
  cat "$FAULT_DIR/report.txt"
  exit 1
fi
grep -q "job outcomes (4 jobs, 1 ok, 3 failed)" "$FAULT_DIR/report.txt"
grep -q "healthy.hsut .*ok" "$FAULT_DIR/report.txt"
grep -q "trace decode failed" "$FAULT_DIR/report.txt"
echo "fault-injection smoke OK"

echo "== archive round-trip + warm-cache smoke (cold vs warm byte-identical) =="
# Populates an .hsar cache dir on the first quick run, then re-runs warm:
# stdout must be byte-identical, the warm build phase must be all cache hits,
# and --no-cache must ignore the populated dir yet still match. This is the
# shell-level counterpart of tests/archive_cache.rs.
CACHE_DIR="$FAULT_DIR/hsar-cache"
cargo run --release -q -p hsu-bench --bin repro -- --quick --jobs 0 \
    --archive-dir "$CACHE_DIR" fig9 > "$FAULT_DIR/cold.txt" 2> "$FAULT_DIR/cold-err.txt"
cargo run --release -q -p hsu-bench --bin repro -- --quick --jobs 0 \
    --archive-dir "$CACHE_DIR" fig9 > "$FAULT_DIR/warm.txt" 2> "$FAULT_DIR/warm-err.txt"
diff "$FAULT_DIR/cold.txt" "$FAULT_DIR/warm.txt" \
  || { echo "FAIL: warm-cache run differs from cold run"; exit 1; }
grep -q ", 0 misses" "$FAULT_DIR/warm-err.txt" \
  || { echo "FAIL: warm run rebuilt instead of hitting the cache"; \
       cat "$FAULT_DIR/warm-err.txt"; exit 1; }
cargo run --release -q -p hsu-bench --bin repro -- --quick --jobs 0 \
    --archive-dir "$CACHE_DIR" --no-cache fig9 > "$FAULT_DIR/nocache.txt"
diff "$FAULT_DIR/cold.txt" "$FAULT_DIR/nocache.txt" \
  || { echo "FAIL: --no-cache run differs from cached runs"; exit 1; }
echo "warm-cache smoke OK"

echo "== servebench smoke (serving engine determinism cross-check) =="
# Opens all four index families, replays a small seeded stream across the
# shards x batch x workers grid, and exits nonzero if any per-family replay
# hash diverges. --smoke keeps the query count small and skips the
# BENCH_sim.json append; the full open-loop numbers live under the pr8
# entry (see EXPERIMENTS.md "Serving").
cargo run --release -q -p hsu-serve --bin servebench -- --smoke

echo "== servebench chaos smoke (supervised restart + typed failure counts) =="
# Injects one worker panic and one persistently slow shard into a smoke-scale
# btree run. servebench itself exits nonzero if any query fails with an
# unexpected error class or the supervisor never restarts the dead worker;
# on top of that, assert the report shows the injected panic was counted and
# the crashed queries surfaced as typed worker-crashed failures.
cargo run --release -q -p hsu-serve --bin servebench -- --smoke --chaos --family btree \
    > "$FAULT_DIR/chaos.txt"
grep -q "panics 1 restarts" "$FAULT_DIR/chaos.txt" \
  || { echo "FAIL: chaos report missing the injected worker panic"; \
       cat "$FAULT_DIR/chaos.txt"; exit 1; }
grep -qE "worker-crashed [1-9]" "$FAULT_DIR/chaos.txt" \
  || { echo "FAIL: no query surfaced as typed worker-crashed"; \
       cat "$FAULT_DIR/chaos.txt"; exit 1; }
grep -q "unexpected 0" "$FAULT_DIR/chaos.txt" \
  || { echo "FAIL: chaos run produced unexpected failure classes"; \
       cat "$FAULT_DIR/chaos.txt"; exit 1; }
echo "servebench chaos smoke OK"

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
