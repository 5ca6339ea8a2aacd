#!/usr/bin/env sh
# Run bench_micro_kernels and append a labelled entry to BENCH_kernels.json,
# the kernel-layer performance trajectory (docs/BENCHMARKS.md).
#
#   bench/run_kernels.sh [label] [binary] [min_time] [repetitions] \
#                        [parent_label parent_binary]
#
# Defaults: label = current git revision, binary = build/bench/bench_micro_kernels,
# min_time = 0.2 (seconds per run of a benchmark; pass 0.01 for a smoke
# run), repetitions = 5.
#
# The binary runs `repetitions` rounds, one process each, and the entry
# records, under each benchmark's own name, the median over the rounds
# (real_time_ns, items_per_second, bytes_per_second) and the coefficient
# of variation of its real time (real_time_cv, a fraction): on a shared
# host a single run moves rows whose code did not change by a quarter.
#
# With a parent label and binary, every round runs both binaries, in an
# order that alternates round by round, and the script appends the
# parent's entry and then the change's, both from the same rounds: two
# binaries timed one after the other drift apart with the host (rows
# neither side changed read 0.66-1.15x in such a pair).
#
# Every entry records the host it ran on: the "host" block of
# bench/host_block.py (CPU count and model, the binary's CMake build type
# and source commit). tools/check_docs.py requires the block on the
# newest entry.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
label=${1:-$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unlabelled)}
bin=${2:-"$repo_root/build/bench/bench_micro_kernels"}
min_time=${3:-0.2}
repetitions=${4:-5}
parent_label=${5:-}
parent_bin=${6:-}
out="$repo_root/BENCH_kernels.json"

if [ "$repetitions" -lt 2 ]; then
  echo "error: repetitions must be at least 2 (each row records a median and a cv)" >&2
  exit 1
fi
if [ -n "$parent_label" ] && [ -z "$parent_bin" ]; then
  echo "error: a parent label needs a parent binary" >&2
  exit 1
fi
for b in "$bin" ${parent_bin:+"$parent_bin"}; do
  if [ ! -x "$b" ]; then
    echo "error: $b not found or not executable." >&2
    echo "Configure with -DDISTTGL_BUILD_BENCH=ON and build bench_micro_kernels" >&2
    echo "(requires Google Benchmark)." >&2
    exit 1
  fi
done

raw=$(mktemp -d)
trap 'rm -rf "$raw"' EXIT
# One process run of one binary: raw/<side>.<round>.json.
run_once() {
  "$2" --benchmark_format=json --benchmark_min_time="$min_time" \
    > "$raw/$1.$3.json"
}
round=0
while [ "$round" -lt "$repetitions" ]; do
  if [ -z "$parent_bin" ]; then
    run_once change "$bin" "$round"
  elif [ $((round % 2)) -eq 0 ]; then
    run_once parent "$parent_bin" "$round"
    run_once change "$bin" "$round"
  else
    run_once change "$bin" "$round"
    run_once parent "$parent_bin" "$round"
  fi
  round=$((round + 1))
done

LABEL="$label" BIN="$bin" PARENT_LABEL="$parent_label" PARENT_BIN="$parent_bin" \
  RAW="$raw" OUT="$out" BENCH_DIR="$repo_root/bench" \
  REPETITIONS="$repetitions" python3 - <<'EOF'
import datetime
import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.environ["BENCH_DIR"])
from host_block import host_block  # noqa: E402

# google-benchmark reports real_time in each entry's time_unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
REPS = int(os.environ["REPETITIONS"])


def real_time_ns(b):
    unit = b.get("time_unit")
    if unit not in NS_PER_UNIT:
        sys.exit(f"error: {b['name']}: unknown time_unit {unit!r}; "
                 "nothing appended")
    return b["real_time"] * NS_PER_UNIT[unit]


def rounds(side):
    """Each benchmark's runs over the rounds of one binary."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(os.environ["RAW"],
                                              f"{side}.*.json"))):
        for b in json.load(open(path))["benchmarks"]:
            if b.get("run_type") != "iteration":
                sys.exit(f"error: {b['name']}: not an iteration row; "
                         "nothing appended")
            runs.setdefault(b["name"], []).append(b)
    return runs


def row(name, runs):
    if len(runs) != REPS:
        sys.exit(f"error: {name}: {len(runs)} runs for {REPS} rounds; "
                 "nothing appended")
    times = [real_time_ns(b) for b in runs]
    mean = statistics.mean(times)
    out = {
        "real_time_ns": round(statistics.median(times), 1),
        # The sample standard deviation over the mean, as
        # google-benchmark's cv aggregate.
        "real_time_cv": round(statistics.stdev(times) / mean, 4),
    }
    for key in ("items_per_second", "bytes_per_second"):
        if key in runs[0]:
            out[key] = round(statistics.median(b[key] for b in runs), 1)
    return out


def entry(label, binary, side, other):
    runs = rounds(side)
    if not runs:
        sys.exit("error: no benchmark rows; nothing appended")
    e = {
        "label": label,
        "date": datetime.date.today().isoformat(),
        "host": host_block(binary),
        "repetitions": REPS,
        "benchmarks": {name: row(name, r) for name, r in runs.items()},
    }
    if other:
        e["interleaved_with"] = other
    return e


label, parent_label = os.environ["LABEL"], os.environ["PARENT_LABEL"]
entries = []
if parent_label:
    entries.append(entry(parent_label, os.environ["PARENT_BIN"], "parent",
                         label))
entries.append(entry(label, os.environ["BIN"], "change", parent_label))

out = os.environ["OUT"]
trajectory = json.load(open(out)) if os.path.exists(out) else []
trajectory.extend(entries)
with open(out, "w") as f:
    json.dump(trajectory, f, indent=2)
    f.write("\n")
for e in entries:
    print(f"appended entry '{e['label']}' ({len(e['benchmarks'])} "
          f"benchmarks) to {out}")
EOF
