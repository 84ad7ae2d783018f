#!/usr/bin/env python3
"""Determinism test of the benchmark's per-request rows.

    python3 perfbench/check_determinism.py

Runs every workload of BENCHMARK.json three times, for one second each:
twice with seed 1 and once with seed 2. Each run writes one row per distinct
request (perfbench/out/rows-*.jsonl) holding the chosen plan, γ(original),
γ(best), the chase's rounds, facts, merges, pruned steps and budget flags,
the materialized cells and the Spark job count. The test passes when those
rows are identical across the three runs and no request hit the chase's
wall-clock deadline. Exits 1 otherwise.
"""
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEEDS = (1, 2)
SECONDS = 1


def rows(workload, seed):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {res.returncode})")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    path = os.path.join(BENCH, "out", f"rows-{workload}-seed{seed}-trace0.jsonl")
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [json.loads(l) for l in lines[1:]]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    s1, s2 = SEEDS
    ok = True
    for w in workloads:
        runs = {f"seed {s1}, run 1": rows(w, s1),
                f"seed {s1}, run 2": rows(w, s1),
                f"seed {s2}": rows(w, s2)}
        (ref_name, ref), *others = runs.items()
        for name, got in others:
            if got != ref:
                ok = False
                diff = [(x, y) for x, y in zip(ref, got) if x != y][:3]
                print(f"FAIL {w}: {name} differs from {ref_name}: {diff or 'row count'}")
        late = [r["key"] for r in ref if r["deadline_hit"]]
        if late:
            ok = False
            print(f"FAIL {w}: the chase deadline decided {late}")
        if ok:
            print(f"ok   {w}: {len(ref)} requests identical across {len(runs)} runs, no deadline hits")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
