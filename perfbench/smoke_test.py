#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke_test.py

Run it from the root of a checkout. For every workload in
BENCHMARK.json it makes one short untraced and one short traced run and
checks that:
  * the last stdout line is the result object, every query or world
    verified (correct, failed == 0);
  * every end-to-end metric (untraced) or per-layer metric (traced) is
    printed with the unit BENCHMARK.json gives it;
  * the traced run wrote a Chrome trace that loads and holds spans.
It also checks that fleet-sim's simulated outcome metrics repeat exactly
at a fixed seed, and that the benchmark refuses to run, printing no
result, in a directory that holds only BENCHMARK.json and perfbench/.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"
# fleet-sim metrics computed from the simulated outcome worlds alone.
DETERMINISTIC = ["query_ms_p50", "query_ms_p90", "query_ms_mean",
                 "fairness_jain"]


def run(cwd, workload, seed, trace):
    command = ["python3", os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", trace]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def result_of(proc, label):
    check(proc.returncode == 0,
          f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    check(lines, f"{label}: no output")
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{label}: failed_frac is not 0: {result['failed']} of "
          f"{result['attempted']}")
    return result


def check_metrics(result, declared, label):
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    check(sorted(metrics) == sorted(names),
          f"{label}: metrics {sorted(metrics)} != declared {sorted(names)}")
    for m in declared:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"],
              f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
        check(isinstance(got["value"], (int, float)),
              f"{label}: {m['name']} is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        plain = result_of(run(ROOT, workload, 1, "0"), workload + " untraced")
        check_metrics(plain, bench["end_to_end"], workload + " untraced")
        for m in bench["end_to_end"]:
            check(plain["metrics"][m["name"]]["value"] != 0,
                  f"{workload}: end-to-end metric {m['name']} is 0")

        traced = result_of(run(ROOT, workload, 1, "1"), workload + " traced")
        check_metrics(traced, bench["per_layer"], workload + " traced")
        path = os.path.join(ROOT, ".bench_build", "traces", workload + ".json")
        with open(path) as f:
            trace = json.load(f)
        check(len(trace.get("traceEvents", [])) > 0,
              f"{workload}: trace {path} holds no spans")
        print(f"ok: {workload}")

    first = result_of(run(ROOT, "fleet-sim", 1, "0"), "fleet-sim first")
    again = result_of(run(ROOT, "fleet-sim", 1, "0"), "fleet-sim again")
    for name in DETERMINISTIC:
        check(again["metrics"][name]["value"] == first["metrics"][name]["value"],
              f"fleet-sim: {name} differs between runs at one seed")
    print("ok: fleet-sim outcome metrics repeat at a fixed seed")

    bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    proc = run(bare, bench["workloads"][0]["name"], 1, "0")
    shutil.rmtree(bare)
    check(proc.returncode != 0, "bare directory: benchmark did not fail")
    check(not proc.stdout.strip(), "bare directory: benchmark printed output")
    print("ok: refuses to run without the repository sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
