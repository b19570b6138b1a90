#!/usr/bin/env python3
"""Self-check of the stack benchmark against BENCHMARK.json.

    python3 perfbench/selfcheck.py

Runs every declared workload for one second, untraced and traced, and fails
when a run does not verify, or when a printed metric is missing from
BENCHMARK.json, declared there but not printed, or printed with another unit.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 1


def run_once(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return ["exit %d: %s" % (out.returncode, out.stderr.strip()[-500:])]
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append("outputs did not verify")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    for name in sorted(set(printed) - set(declared)):
        problems.append("printed but not declared: " + name)
    for name in sorted(set(declared) - set(printed)):
        problems.append("declared but not printed: " + name)
    for name in sorted(set(declared) & set(printed)):
        if declared[name] != printed[name]:
            problems.append("unit of %s: printed %s, declared %s"
                            % (name, printed[name], declared[name]))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = run_once(spec, w["name"], trace)
            status = "ok" if not problems else "FAIL"
            print("%-16s trace=%d %s" % (w["name"], trace, status))
            for p in problems:
                print("    " + p)
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
