#!/usr/bin/env sh
# Run bench_micro_kernels and append a labelled entry to BENCH_kernels.json,
# the kernel-layer performance trajectory (docs/BENCHMARKS.md).
#
#   bench/run_kernels.sh [label] [path/to/bench_micro_kernels] [min_time] [repetitions]
#
# Defaults: label = current git revision, binary = build/bench/bench_micro_kernels,
# min_time = 0.2 (seconds per repetition of a benchmark; pass 0.01 for a
# smoke run), repetitions = 5.
#
# Each benchmark runs `repetitions` times and the entry records, under
# the benchmark's own name, the median of its repetitions (real_time_ns,
# items_per_second, bytes_per_second) and the coefficient of variation
# of its real time (real_time_cv, a fraction): on a shared host a single
# run moves rows whose code did not change by a quarter.
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
out="$repo_root/BENCH_kernels.json"

if [ "$repetitions" -lt 2 ]; then
  echo "error: repetitions must be at least 2 (each row records a median and a cv)" >&2
  exit 1
fi
if [ ! -x "$bin" ]; then
  echo "error: $bin not found or not executable." >&2
  echo "Configure with -DDISTTGL_BUILD_BENCH=ON and build bench_micro_kernels" >&2
  echo "(requires Google Benchmark)." >&2
  exit 1
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
"$bin" --benchmark_format=json --benchmark_min_time="$min_time" \
  --benchmark_repetitions="$repetitions" \
  --benchmark_report_aggregates_only=true > "$raw"

LABEL="$label" RAW="$raw" OUT="$out" BIN="$bin" BENCH_DIR="$repo_root/bench" \
  REPETITIONS="$repetitions" python3 - <<'EOF'
import datetime
import json
import os
import sys

sys.path.insert(0, os.environ["BENCH_DIR"])
from host_block import host_block  # noqa: E402

# google-benchmark reports real_time in each entry's time_unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def real_time_ns(b):
    unit = b.get("time_unit")
    if unit not in NS_PER_UNIT:
        sys.exit(f"error: {b['name']}: unknown time_unit {unit!r}; "
                 "nothing appended")
    return round(b["real_time"] * NS_PER_UNIT[unit], 1)


# With repetitions, google-benchmark reports aggregates only: one row
# per (benchmark, statistic), named by run_name and aggregate_name.
aggregates = {}
for b in json.load(open(os.environ["RAW"]))["benchmarks"]:
    if b.get("run_type") != "aggregate":
        sys.exit(f"error: {b['name']}: not an aggregate row; nothing appended")
    aggregates.setdefault(b["run_name"], {})[b["aggregate_name"]] = b


def row(name, stats):
    if "median" not in stats or "cv" not in stats:
        sys.exit(f"error: {name}: no median or cv aggregate; nothing appended")
    med = stats["median"]
    return {
        "real_time_ns": real_time_ns(med),
        # cv is reported as a fraction, whatever the time unit.
        "real_time_cv": round(stats["cv"]["real_time"], 4),
        **({"items_per_second": round(med["items_per_second"], 1)}
           if "items_per_second" in med else {}),
        **({"bytes_per_second": round(med["bytes_per_second"], 1)}
           if "bytes_per_second" in med else {}),
    }


if not aggregates:
    sys.exit("error: no benchmark rows; nothing appended")
entry = {
    "label": os.environ["LABEL"],
    "date": datetime.date.today().isoformat(),
    "host": host_block(os.environ["BIN"]),
    "repetitions": int(os.environ["REPETITIONS"]),
    "benchmarks": {name: row(name, stats) for name, stats in aggregates.items()},
}

out = os.environ["OUT"]
trajectory = json.load(open(out)) if os.path.exists(out) else []
trajectory.append(entry)
with open(out, "w") as f:
    json.dump(trajectory, f, indent=2)
    f.write("\n")
print(f"appended entry '{entry['label']}' ({len(entry['benchmarks'])} benchmarks) to {out}")
EOF
