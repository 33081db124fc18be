#!/usr/bin/env python3
"""Repository benchmark runner: builds perfbench, prepares seeded inputs,
runs one workload and prints its metrics.

    python3 perfbench/run.py --workload clr2m_batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. Everything built or generated goes under
.bench_build/ there. The last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}; a failed correctness or
exact-count gate exits non-zero without it. See perfbench/README.md.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
# clr2m_paced_lo is runnable but not in BENCHMARK.json; see README.md.
WORKLOADS = ["clr2m_batch", "ont16m_batch", "clr2m_paced_lo"]
FAMILY = {"clr2m_batch": "clr2m", "ont16m_batch": "ont16m", "clr2m_paced_lo": "clr2m"}
DATA_KEEP = 3          # data directories kept per family (oldest removed)
RUN_BUDGET_S = 170     # preparation + one measured run, after the build
GATE_EXIT = 3          # perfbench's exit code for a failed correctness gate


_deadline = 0.0


def start_budget():
    """Preparation and measurement share RUN_BUDGET_S from here on."""
    global _deadline
    _deadline = time.monotonic() + RUN_BUDGET_S


def remaining():
    return max(1.0, _deadline - time.monotonic())


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("manymap sources not found: run from the repository root", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


@functools.lru_cache(maxsize=None)
def sources_key():
    """Hash of the program and harness sources: data and recorded counters
    from other sources are never reused."""
    h = hashlib.sha256(source_fingerprint()[1].encode())
    for p in sorted((BENCH_DIR / "src").iterdir()):
        h.update(p.read_bytes())
    return h.hexdigest()[:12]


def data_dir(workload, seed, tiny):
    """Prepare (once) and return the seed's data directory."""
    family = FAMILY[workload] + ("-tiny" if tiny else "")
    root = BUILD_ROOT / "data" / sources_key()
    d = root / f"{family}-{seed}"
    if not (d / "prep.tsv").is_file():
        for stale in (BUILD_ROOT / "data").glob("*"):
            if stale != root:
                shutil.rmtree(stale, ignore_errors=True)
        root.mkdir(parents=True, exist_ok=True)
        tmp = root / f".{family}-{seed}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        cmd = [str(BINARY), "prep", "--workload", workload, "--seed", str(seed),
               "--dir", str(tmp)] + (["--tiny"] if tiny else [])
        if subprocess.run(cmd, stdout=sys.stderr, timeout=remaining()).returncode != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            fail("data preparation failed")
        shutil.rmtree(d, ignore_errors=True)
        tmp.rename(d)
        os.sync()  # write the new files back now, not during the timed window
        old = sorted((p for p in root.glob(f"{family}-*") if p != d),
                     key=lambda p: p.stat().st_mtime)
        for p in old[:max(0, len(old) - (DATA_KEEP - 1))]:
            shutil.rmtree(p, ignore_errors=True)
    os.utime(d)
    return d


@functools.lru_cache(maxsize=None)
def source_fingerprint():
    """git sha when the tree is a checkout, plus a hash of the sources."""
    sha = "none"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return sha, h.hexdigest()[:16]


def exact_count_gate(workload, seed, tiny, counts):
    """Counters of one seed must repeat exactly across runs of the same
    sources; the first run of a seed records them."""
    if not counts:
        return None
    d = BUILD_ROOT / "counts" / sources_key()
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"{workload}-{seed}{'-tiny' if tiny else ''}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        diff = {k: (before.get(k), v) for k, v in counts.items() if before.get(k) != v}
        diff.update({k: (v, None) for k, v in before.items() if k not in counts})
        if diff:
            return f"counters differ from an earlier run of seed {seed}: {diff}"
        return None
    path.write_text(json.dumps(counts, sort_keys=True))
    return None


def run_once(workload, seed, seconds, trace, tiny=False, corrupt=False):
    """Run perfbench within the current budget; returns (exit code,
    stdout lines, stderr text)."""
    d = data_dir(workload, seed, tiny)
    cmd = [str(BINARY), "run", "--workload", workload, "--seed", str(seed), "--dir", str(d),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd += (["--tiny"] if tiny else []) + (["--corrupt-paf"] if corrupt else [])
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining())
    return r.returncode, r.stdout.splitlines(), r.stderr


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return {}


def measure(args):
    build()
    start_budget()
    code, lines, err = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stderr.write(err)
    if code != 0:
        for line in lines:
            print(line)
        fail(f"perfbench exited with code {code}", code)
    result = lines[-1]
    json.loads(result)
    gate = exact_count_gate(args.workload, args.seed, False, tagged(lines, "#counts"))
    if gate:
        fail(f"exact-count gate failed: {gate}", 4)
    fingerprint = tagged(lines, "#fingerprint")
    fingerprint["git_sha"], fingerprint["source_sha"] = source_fingerprint()
    for line in lines[:-1]:
        if not line.startswith("#fingerprint"):
            print(line)
    print("#fingerprint " + json.dumps(fingerprint))
    print(result)


def self_test():
    """Tiny-size check of the harness itself."""
    build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in WORKLOADS:
        start_budget()
        for trace in (0, 1):
            code, lines, err = run_once(w, 7, 1, trace, tiny=True)
            where = f"{w} trace={trace}"
            if code != 0:
                problems.append(f"{where}: exit {code}: {err.strip()}")
                continue
            res = json.loads(lines[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(res)}")
            if res["attempted"] < 1 or res["failed"] != 0 or res["correct"] is not True:
                problems.append(f"{where}: attempted/failed/correct {res}")
            metrics = res["metrics"]
            if set(metrics) != set(wanted[trace]):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(wanted[trace]))}")
            printed = [l.split()[1] for l in lines if l.startswith("metric ")]
            dup = sorted({n for n in printed if printed.count(n) > 1})
            if dup or sorted(printed) != sorted(metrics):
                problems.append(f"{where}: printed metrics not emitted exactly once: {dup}")
            for name, m in metrics.items():
                if m.get("unit") != wanted[trace].get(name):
                    problems.append(f"{where}: {name} unit {m.get('unit')}")
                if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} value {m.get('value')} is not finite")
            if trace == 1:
                counts = tagged(lines, "#counts")
                gate = exact_count_gate(w, 7, True, counts)
                code, again, _ = run_once(w, 7, 1, trace, tiny=True)
                gate = gate or exact_count_gate(w, 7, True, tagged(again, "#counts"))
                if code != 0 or gate is not None:
                    problems.append(f"{where}: counters changed between runs of one seed: {gate}")
                tampered = dict(counts, **{"align.ext_cells": counts["align.ext_cells"] + 1})
                if exact_count_gate(w, 7, True, tampered) is None:
                    problems.append(f"{where}: exact-count gate missed a changed counter")
        for trace in (0, 1):
            code, lines, _ = run_once(w, 7, 1, trace, tiny=True, corrupt=True)
            if code != GATE_EXIT or any(l.startswith('{"correct"') for l in lines):
                problems.append(f"{w} trace={trace}: corrupted PAF passed the gate (exit {code})")
    for p in problems:
        print("FAIL " + p)
    if problems:
        sys.exit(1)
    print(f"self-test ok: {len(WORKLOADS)} workloads, "
          f"{len(wanted[0])} end-to-end + {len(wanted[1])} per-layer metrics each")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
    elif args.workload:
        measure(args)
    else:
        ap.error("--workload or --self-test is required")


if __name__ == "__main__":
    main()
