#!/usr/bin/env bash
# The full pre-merge gate, in increasing order of cost:
#
#   1. warning-free build (-Werror) + complete ctest suite
#   2. the benchmark's self-test and a check of its 297 answers
#   3. the full_benchmark drills
#   4. AddressSanitizer pass over the engine/driver/governance tests
#   5. ThreadSanitizer pass over the same set
#
#   scripts/ci.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== build + ctest"
# -Werror: a new warning in src/, tests/, bench/ or examples/ fails here.
cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure

echo "== benchmark self-test"
# Builds the SF 0.1 benchmark (tpcbench/) against src/ and runs its helper
# tests, so an engine API change that breaks the benchmark fails here.
# Performance itself is measured by `tpcbench/run.py --workload ...`
# (tpcbench/README.md), not gated in CI.
python3 tpcbench/run.py --self-test

echo "== answer digests"
# One short throughput run. Its untimed warm-up checks the answers of all
# 297 statements (SF 0.1) against tpcbench/digests/seed-19620718.tsv, and
# its last line is the run's JSON record: the stage fails unless it
# reports "correct": true and "failed": 0.
DIGEST_RECORD="$(python3 tpcbench/run.py --workload throughput --seconds 1 |
  tail -n 1)"
echo "$DIGEST_RECORD"
python3 -c '
import json, sys
record = json.loads(sys.argv[1])
sys.exit(0 if record.get("correct") is True and record.get("failed") == 0
         else "answer digests: the run is not correct or has failures")
' "$DIGEST_RECORD"

echo "== service overload smoke"
# Saturating closed loop through the admission-controlled query service:
# 12 client streams split over 3 priority classes contend for 1 worker
# slot and a 4-deep queue, plus an injected admission fault — shedding,
# backpressure and retries all fire, and full_benchmark exits 1 if any
# query is lost (admission counters unbalanced) or the global memory
# pool fails to drain.
"$BUILD_DIR/examples/full_benchmark" -scale 0.002 -queries 4 -streams 12 \
  -service-slots 1 -service-queue 4 -service-deadline 30000 \
  -service-spread 3 -faults "admit=nth:9"

echo "== durability crash sweep"
# End-to-end recovery drill: checkpoint after load, crash the DM run at
# an injected fault, then recover from checkpoint + WAL and verify the
# rebuilt database is byte-identical to the live one (exit 1 otherwise).
DURABILITY_DIR="$(mktemp -d)"
trap 'rm -rf "$DURABILITY_DIR"' EXIT
"$BUILD_DIR/examples/full_benchmark" -scale 0.002 -queries 3 \
  -checkpoint-dir "$DURABILITY_DIR/ckpt" -wal "$DURABILITY_DIR/dm.wal" \
  -recover -faults "maintenance=nth:7"

echo "== chaos drill"
# Standing profile x schedule drill: Zipf-skewed binds with 2-step
# session chains across 8 concurrent streams, a 20 ms read/refresh duty
# cycle publishing generations underneath them, and a time-phased fault
# schedule that crashes the DM mid-generation, drops a WAL append, and
# stresses admission/shedding. full_benchmark exits 1 unless every
# standing invariant holds: balanced counters, drained pool, no lost
# queries, bounded retries, byte-identical recovery, clean audit.
CHAOS_DIR="$(mktemp -d)"
trap 'rm -rf "$DURABILITY_DIR" "$CHAOS_DIR"' EXIT
"$BUILD_DIR/examples/full_benchmark" -scale 0.002 -queries 4 -streams 8 \
  -profile "hot-skew,chain=2,refresh_ms=20,refresh_cycles=3" \
  -chaos "maintenance@0+60000=nth:2,wal-append@10+60000=nth:25,shed@0+60000=every:5,admit@0+60000=nth:7" \
  -service-slots 2 -service-queue 6 -service-spread 2 \
  -checkpoint-dir "$CHAOS_DIR/ckpt" -wal "$CHAOS_DIR/drill.wal"

echo "== cold-start attach smoke"
# Save a checkpoint during the benchmark, then cold-start it both ways —
# deep heap load and O(1) mmap attach — run a query sample on each and
# compare content hashes + answers (full_benchmark exits 1 on any
# divergence). Also exercises the overlapped DM/QR2 generation path.
ATTACH_DIR="$(mktemp -d)"
trap 'rm -rf "$DURABILITY_DIR" "$CHAOS_DIR" "$ATTACH_DIR"' EXIT
"$BUILD_DIR/examples/full_benchmark" -scale 0.002 -queries 5 -overlap \
  -checkpoint-dir "$ATTACH_DIR/ckpt" -wal "$ATTACH_DIR/dm.wal" \
  -recover -attach

echo "== asan"
scripts/check_asan.sh build-asan

echo "== tsan"
scripts/check_tsan.sh build-tsan

echo "== ci clean"
