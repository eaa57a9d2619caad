#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark: runs every workload once at the
tiny size, with tracing off and on, and checks that the last stdout line is
a result object carrying exactly the metrics BENCHMARK.json names, each with
its unit, and that the run was correct. Run from the repository root:

    python3 e2ebench/smoke_test.py
"""

import json
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    # ingest_mixed is built and kept runnable but not listed in
    # BENCHMARK.json (see e2ebench/README.md); smoke it too.
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in ("ingest_mixed",) if w not in workloads]
    for workload in workloads:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", "3",
                                      "--seconds", "2", "--trace", str(trace),
                                      "--size", "tiny"]
            run = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
            tag = f"{workload} trace={trace}"
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                failures.append(f"{tag}: exit {run.returncode}\n{run.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{tag}: correct={result['correct']} "
                                f"attempted={result['attempted']} "
                                f"failed={result['failed']}")
            got = {n: m.get("unit") for n, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace]
                               and got[n] != expected[trace][n])
                failures.append(f"{tag}: missing {missing} extra {extra} "
                                f"wrong units {wrong}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric.get("value"), (int, float)):
                    failures.append(f"{tag}: {name} has no numeric value")
            if trace == 0:
                zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
                if zero:
                    failures.append(f"{tag}: end-to-end metrics read 0: {zero}")
            print(f"ok   {tag}" if not failures or not failures[-1].startswith(tag)
                  else f"FAIL {tag}", flush=True)
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
