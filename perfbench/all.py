#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json, untraced then traced, and print
each metric with its unit.

    python3 perfbench/all.py

Uses seed 1 and the run length of BENCHMARK.json. Checks that every run's
outputs are correct and that each run reports exactly the metrics
BENCHMARK.json declares, with their units. Exits 1 if not.
"""
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for w in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", w["name"],
                   "--seed", "1", "--seconds", str(spec["run_seconds"]), "--trace", trace]
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True)
            if res.returncode != 0:
                print(f"FAIL {w['name']} trace {trace}: exit {res.returncode}")
                ok = False
                continue
            out = json.loads(res.stdout.strip().splitlines()[-1])
            print(f"== {w['name']} (trace {trace}): correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']}")
            for name, m in out["metrics"].items():
                print(f"   {name:28s} {m['value']:14.4f} {m['unit']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {n: m["unit"] for n, m in out["metrics"].items()}
            if got != want:
                print(f"FAIL {w['name']} trace {trace}: metrics differ from BENCHMARK.json")
                ok = False
            ok = ok and out["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
