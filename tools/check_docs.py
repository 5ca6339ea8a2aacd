#!/usr/bin/env python3
"""Docs-consistency check (CI).

1. Every BENCH_*.json at the repo root parses as JSON and is a non-empty
   list of labelled entries ({label, date, ...}); an entry that carries
   'results' carries at least one.
2. Every repo-relative path referenced from README.md and docs/*.md
   (src/..., tests/..., bench/..., docs/..., examples/..., tools/...,
   BENCH_*.json, *.sh) exists. Paths under build/ are generated and
   skipped; tokens containing glob/placeholder characters are skipped.
3. Every test cited in README.md and docs/*.md resolves. A citation is
   a backticked `test_<suite>.<Name>[.<Name>...]`, where `/` separates
   an instantiation prefix and `*` is a wildcard: tests/test_<suite>.cpp
   must exist, and every part without a `*` must appear in it as an
   identifier.

Run from anywhere: the repo root is located relative to this file.
"""
import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Repo-relative path tokens: known top-level dirs or BENCH json files,
# with an extension or shell suffix. `fig07` style bare names, URLs, and
# build/ artifacts are not matched.
PATH_RE = re.compile(
    r"\b((?:src|tests|bench|docs|examples|tools)/[A-Za-z0-9_./-]+"
    r"\.(?:cpp|hpp|h|md|sh|py|txt|json)|BENCH_[A-Za-z0-9_]+\.json"
    r"|(?:README|ROADMAP|CHANGES|PAPERS?|SNIPPETS)\.md|CMakePresets\.json)\b")

SKIP_CHARS = ("*", "<", ">", "{", "}")

# `test_comm.ChunkSizeDoesNotChangeBits`, `test_model.PooledInference.*`,
# `test_nn_layers.Shapes/FactoredAttentionTest`: a suite file, then parts
# that start upper-case or are wildcards (so `test_comm.cpp` is a file
# name, not a citation).
CITE_RE = re.compile(
    r"`(test_[a-z0-9_]+)\.([A-Z*][A-Za-z0-9_*]*(?:[./][A-Za-z0-9_*]+)*)`")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

def fail(msg: str) -> None:
    print(f"check_docs: FAIL: {msg}")
    sys.exit(1)

def check_bench_json() -> int:
    files = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    if not files:
        fail("no BENCH_*.json files found at the repo root")
    for path in files:
        name = os.path.basename(path)
        try:
            with open(path) as f:
                data = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{name} does not parse: {e}")
        if not isinstance(data, list) or not data:
            fail(f"{name} must be a non-empty list of entries")
        for i, entry in enumerate(data):
            for key in ("label", "date"):
                if key not in entry:
                    fail(f"{name} entry {i} is missing '{key}'")
            if "results" in entry and not entry["results"]:
                fail(f"{name} entry {i} has empty 'results' (the runner's "
                     "regexes matched no bench output line)")
        print(f"check_docs: {name}: {len(data)} entr{'y' if len(data) == 1 else 'ies'} ok")
    return len(files)

def check_newest_host(name: str, data: list) -> None:
    """The newest entry of `name` must carry the host block that
    bench/host_block.py writes: CPU count, CPU model, build type and
    source commit."""
    host = data[-1].get("host") if data else None
    if not isinstance(host, dict):
        fail(f"{name} newest entry is missing its 'host' block")
    if not (isinstance(host.get("nproc"), int) and host["nproc"] > 0):
        fail(f"{name} newest entry host 'nproc' must be a positive integer")
    for key in ("cpu", "build_type", "commit"):
        if not (isinstance(host.get(key), str) and host[key]):
            fail(f"{name} newest entry host '{key}' must be a non-empty "
                 "string")

def check_newest_hosts() -> None:
    """BENCH_kernels.json, BENCH_comm.json, BENCH_memory.json,
    BENCH_recovery.json, BENCH_serving.json and BENCH_training.json
    entries come from
    bench/run_{kernels,comm,memory,recovery,serving,training}.sh; the
    newest of each must record its host (timings say little without the
    core count and build type they ran on)."""
    for name in ("BENCH_kernels.json", "BENCH_comm.json", "BENCH_memory.json",
                 "BENCH_recovery.json", "BENCH_serving.json",
                 "BENCH_training.json"):
        path = os.path.join(ROOT, name)
        if not os.path.exists(path):
            fail(f"{name} is missing at the repo root")
        with open(path) as f:
            data = json.load(f)
        check_newest_host(name, data)
        print(f"check_docs: {name}: newest of {len(data)} "
              f"entr{'y' if len(data) == 1 else 'ies'} records its host")

def check_bench_kernels() -> None:
    """BENCH_kernels.json's newest entry comes from bench/run_kernels.sh,
    which runs every benchmark `repetitions` (>= 2) times and records,
    per benchmark, the median real time and its coefficient of variation
    (docs/BENCHMARKS.md). CI appends a smoke entry and runs this, so the
    script's parser cannot drift from the convention unnoticed."""
    with open(os.path.join(ROOT, "BENCH_kernels.json")) as f:
        entry = json.load(f)[-1]
    reps = entry.get("repetitions")
    if not (isinstance(reps, int) and reps >= 2):
        fail("BENCH_kernels.json newest entry must record 'repetitions' "
             ">= 2 (repetition medians)")
    rows = entry.get("benchmarks")
    if not isinstance(rows, dict) or not rows:
        fail("BENCH_kernels.json newest entry has no benchmarks")
    for name, row in rows.items():
        t, cv = row.get("real_time_ns"), row.get("real_time_cv")
        if not (isinstance(t, (int, float)) and t > 0):
            fail(f"BENCH_kernels.json newest entry {name}: real_time_ns "
                 "must be a positive number")
        if not (isinstance(cv, (int, float)) and cv >= 0):
            fail(f"BENCH_kernels.json newest entry {name}: real_time_cv "
                 "must be a non-negative number")
    print(f"check_docs: BENCH_kernels.json: newest entry holds {len(rows)} "
          f"repetition medians ({reps} repetitions)")

def check_bench_fabric() -> None:
    """BENCH_fabric.json carries the measured-vs-model contract: every
    entry must cover ranks {2,4,8} for both fabric ops, each config
    pairing a positive measured_us with a positive model_us. An entry
    with "fabric": "tcp" follows the tcp-entry convention
    (docs/BENCHMARKS.md): its allreduce configs measured HierComm over
    the TCP ring, so each must also carry hosts >= 2 (the throughput
    model's `machines` argument).  The newest entry must record its host
    (bench/run_fabric.sh writes the block): CPU count, CPU model, build
    type and source commit."""
    path = os.path.join(ROOT, "BENCH_fabric.json")
    if not os.path.exists(path):
        fail("BENCH_fabric.json is missing at the repo root")
    with open(path) as f:
        data = json.load(f)
    tcp_entries = 0
    for i, entry in enumerate(data):
        is_tcp = entry.get("fabric") == "tcp"
        tcp_entries += is_tcp
        for op in ("allreduce", "daemon_round"):
            configs = entry.get(op)
            if not isinstance(configs, dict):
                fail(f"BENCH_fabric.json entry {i} is missing '{op}'")
            for ranks in (2, 4, 8):
                cfg = configs.get(f"ranks_{ranks}")
                if not isinstance(cfg, dict):
                    fail(f"BENCH_fabric.json entry {i} {op} lacks ranks_{ranks}")
                for key in ("measured_us", "model_us"):
                    if not (isinstance(cfg.get(key), (int, float))
                            and cfg[key] > 0):
                        fail(f"BENCH_fabric.json entry {i} {op} ranks_{ranks} "
                             f"'{key}' must be a positive number")
                if is_tcp and op == "allreduce":
                    if not (isinstance(cfg.get("hosts"), int)
                            and cfg["hosts"] >= 2):
                        fail(f"BENCH_fabric.json entry {i} (fabric=tcp) "
                             f"allreduce ranks_{ranks} must record "
                             "hosts >= 2")
    check_newest_host("BENCH_fabric.json", data)
    print(f"check_docs: BENCH_fabric.json: {len(data)} "
          f"entr{'y' if len(data) == 1 else 'ies'} cover ranks 2/4/8 "
          f"with measured+model latencies ({tcp_entries} tcp)")

def check_bench_recovery() -> None:
    """BENCH_recovery.json records the recovery-path costs: every entry
    must carry snapshot save+load measurements (positive latency and
    nonzero payload) and a restart block whose supervised run actually
    restarted.  Entries may additionally carry a 'reconnect' block (the
    ring-reconnect tier, docs/BENCHMARKS.md): it must show at least one
    heal, positive latencies on both sides of the comparison, and the
    ladder's ordering claim — reconnect at least 5x cheaper than
    restart.  At least one entry in the file must carry it, so the
    reconnect-vs-restart trajectory can never silently disappear."""
    path = os.path.join(ROOT, "BENCH_recovery.json")
    if not os.path.exists(path):
        fail("BENCH_recovery.json is missing at the repo root")
    with open(path) as f:
        data = json.load(f)
    reconnect_entries = 0
    for i, entry in enumerate(data):
        snapshot = entry.get("snapshot")
        if not isinstance(snapshot, dict):
            fail(f"BENCH_recovery.json entry {i} is missing 'snapshot'")
        for op in ("snapshot_save", "snapshot_load"):
            cfg = snapshot.get(op)
            if not isinstance(cfg, dict):
                fail(f"BENCH_recovery.json entry {i} lacks '{op}'")
            for key in ("measured_us", "mb"):
                if not (isinstance(cfg.get(key), (int, float)) and cfg[key] > 0):
                    fail(f"BENCH_recovery.json entry {i} {op} '{key}' "
                         "must be a positive number")
        restart = entry.get("restart")
        if not isinstance(restart, dict):
            fail(f"BENCH_recovery.json entry {i} is missing 'restart'")
        if not restart.get("restarts"):
            fail(f"BENCH_recovery.json entry {i} restart block shows no "
                 "restart happened")
        if not (isinstance(restart.get("recover_ms"), (int, float))
                and restart["recover_ms"] > 0):
            fail(f"BENCH_recovery.json entry {i} 'recover_ms' must be a "
                 "positive number")
        reconnect = entry.get("reconnect")
        if reconnect is None:
            continue
        reconnect_entries += 1
        if not isinstance(reconnect, dict):
            fail(f"BENCH_recovery.json entry {i} 'reconnect' must be an "
                 "object")
        if not (isinstance(reconnect.get("reconnects"), int)
                and reconnect["reconnects"] >= 1):
            fail(f"BENCH_recovery.json entry {i} reconnect block shows no "
                 "heal happened (reconnects must be >= 1)")
        for key in ("reconnect_ms", "restart_ms"):
            if not (isinstance(reconnect.get(key), (int, float))
                    and reconnect[key] > 0):
                fail(f"BENCH_recovery.json entry {i} reconnect '{key}' "
                     "must be a positive number")
        speedup = reconnect.get("speedup_vs_restart")
        if not (isinstance(speedup, (int, float)) and speedup >= 5):
            fail(f"BENCH_recovery.json entry {i} reconnect "
                 "'speedup_vs_restart' must be >= 5 (the recovery "
                 "ladder's ordering claim)")
    if reconnect_entries == 0:
        fail("BENCH_recovery.json has no entry with a 'reconnect' block "
             "(reconnect-vs-restart trajectory lost)")
    print(f"check_docs: BENCH_recovery.json: {len(data)} "
          f"entr{'y' if len(data) == 1 else 'ies'} cover snapshot save/load "
          f"+ supervised restart ({reconnect_entries} with ring reconnect)")

def check_bench_serving() -> None:
    """BENCH_serving.json records the serving-tier load trajectory: every
    entry must cover at least two reader-thread configs (the scaling
    claim needs more than one point), each with p50 <= p99 and a
    positive saturation QPS.  Entries may additionally carry a 'churn'
    block (scoring while snapshots install); it must show at least one
    install actually happened during the measurement."""
    path = os.path.join(ROOT, "BENCH_serving.json")
    if not os.path.exists(path):
        fail("BENCH_serving.json is missing at the repo root")
    with open(path) as f:
        data = json.load(f)
    churn_entries = 0
    for i, entry in enumerate(data):
        configs = entry.get("configs")
        if not isinstance(configs, dict):
            fail(f"BENCH_serving.json entry {i} is missing 'configs'")
        thread_cfgs = [k for k in configs if re.fullmatch(r"threads_\d+", k)]
        if len(thread_cfgs) < 2:
            fail(f"BENCH_serving.json entry {i} must cover at least two "
                 "reader-thread configs (threads_N)")
        for key in thread_cfgs:
            cfg = configs[key]
            for field in ("p50_us", "p99_us", "qps"):
                if not (isinstance(cfg.get(field), (int, float))
                        and cfg[field] > 0):
                    fail(f"BENCH_serving.json entry {i} {key} '{field}' "
                         "must be a positive number")
            if cfg["p50_us"] > cfg["p99_us"]:
                fail(f"BENCH_serving.json entry {i} {key} has p50_us > "
                     "p99_us (percentiles out of order)")
        churn = entry.get("churn")
        if churn is None:
            continue
        churn_entries += 1
        if not (isinstance(churn.get("installs"), int)
                and churn["installs"] >= 1):
            fail(f"BENCH_serving.json entry {i} churn block shows no "
                 "install happened (installs must be >= 1)")
    print(f"check_docs: BENCH_serving.json: {len(data)} "
          f"entr{'y' if len(data) == 1 else 'ies'} cover >= 2 reader "
          f"configs with ordered percentiles ({churn_entries} with churn)")

def doc_files() -> list:
    return [os.path.join(ROOT, "README.md")] + sorted(
        glob.glob(os.path.join(ROOT, "docs", "*.md")))

def check_doc_paths() -> int:
    docs = doc_files()
    checked = 0
    missing = []
    for doc in docs:
        with open(doc) as f:
            text = f.read()
        for token in sorted(set(PATH_RE.findall(text))):
            if any(c in token for c in SKIP_CHARS):
                continue
            checked += 1
            # `.{hpp,cpp}`-style shorthand is expanded by SKIP_CHARS;
            # plain tokens must exist verbatim.
            if not os.path.exists(os.path.join(ROOT, token)):
                missing.append(f"{os.path.relpath(doc, ROOT)} -> {token}")
    if missing:
        fail("referenced files do not exist:\n  " + "\n  ".join(missing))
    print(f"check_docs: {checked} referenced paths across {len(docs)} docs ok")
    return checked

def check_test_citations() -> int:
    checked = 0
    stale = []
    idents = {}  # suite -> identifiers of tests/<suite>.cpp, or None
    for doc in doc_files():
        with open(doc) as f:
            text = f.read()
        for suite, name in CITE_RE.findall(text):
            checked += 1
            where = f"{os.path.relpath(doc, ROOT)} -> `{suite}.{name}`"
            if suite not in idents:
                src = os.path.join(ROOT, "tests", suite + ".cpp")
                if os.path.exists(src):
                    with open(src) as f:
                        idents[suite] = set(IDENT_RE.findall(f.read()))
                else:
                    idents[suite] = None
            if idents[suite] is None:
                stale.append(f"{where}: tests/{suite}.cpp does not exist")
                continue
            missing = [part for part in re.split(r"[./]", name)
                       if "*" not in part and part not in idents[suite]]
            if missing:
                stale.append(f"{where}: no {', '.join(missing)} in "
                             f"tests/{suite}.cpp")
    if stale:
        fail("cited tests do not resolve:\n  " + "\n  ".join(stale))
    print(f"check_docs: {checked} test citations ok")
    return checked

def main() -> None:
    check_bench_json()
    check_bench_kernels()
    check_bench_fabric()
    check_newest_hosts()
    check_bench_recovery()
    check_bench_serving()
    check_doc_paths()
    check_test_citations()
    print("check_docs: OK")

if __name__ == "__main__":
    main()
