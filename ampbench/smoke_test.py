#!/usr/bin/env python3
"""Smoke test of the ampsched benchmark.

Run from the repository root:

    python3 ampbench/smoke_test.py

Builds the benchmark through run.py, then:
  * makes each of the binary's four workload phases primary in turn, runs
    it briefly, untraced and traced, and asserts that the result line has
    exactly the keys correct/attempted/failed/metrics, that every metric
    BENCHMARK.json lists for that mode (plus resize_churn's own, when it is
    primary) appears with its unit and no other, and that no operation
    failed -- on two seeds;
  * runs each phase as primary with each kind of deliberately wrong answer
    it has (--inject-fault k) and asserts that the one wrong answer is
    counted as a failed operation;
  * asserts that an unknown flag is rejected without printing a result.
Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"
PHASES = ["solve_mix", "rx_stream", "resize_churn", "replay_sim"]
# Kinds of wrong answer per phase: rx_stream has a reordered frame, an
# undecoded frame and a neighbouring transmitted frame in another's place.
FAULT_KINDS = {"solve_mix": 1, "rx_stream": 3, "resize_churn": 1, "replay_sim": 1}
# resize_churn runs only as the primary phase and is not a row of
# BENCHMARK.json (see README.md, "Known defect"); these are its own metrics.
RESIZE_CHURN_METRICS = {
    "0": [("resize_latency_p50_us", "us"), ("churn_latency_p50_us", "us")],
    "1": [("resize_latency_p90_us", "us"), ("churn_latency_p99_us", "us"),
          ("core.warm_solve_us_p50", "us"), ("svc.cache_hit_ratio", "ratio"),
          ("svc.solve_planned_us_p50", "us"), ("plan.walk_compile_us_p50", "us"),
          ("plan.diff_us_p50", "us"), ("plan.apply_us_p50", "us"),
          ("plan.resize_only_ratio", "ratio"), ("rt.swap_call_us_p50", "us"),
          ("rt.swap_call_us_p90", "us"), ("rt.swap_landed_ratio", "ratio"),
          ("rt.swap_to_frame_us_p50", "us"), ("rt.handoff_us_p50", "us"),
          ("rt.handoff_us_p99", "us"), ("rt.generator_lag_us_p99", "us"),
          ("setup_ms.resize_churn", "ms")],
}


def run(*flags):
    command = [sys.executable, os.path.join(HERE, "run.py"), *flags]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True)


def result_of(proc, label):
    if proc.returncode != 0:
        sys.exit(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {label}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        sys.exit(f"FAIL {label}: attempted {result['attempted']}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    if not set(workloads) <= set(PHASES):
        sys.exit(f"FAIL BENCHMARK.json workloads {workloads} are not phases of the binary")
    listed = {"0": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
              "1": [(m["name"], m["unit"]) for m in spec["per_layer"]]}

    for seed in ("1", "2"):
        for workload in PHASES:
            for trace in ("0", "1"):
                label = f"{workload} seed={seed} trace={trace}"
                result = result_of(run("--workload", workload, "--seed", seed,
                                       "--seconds", SECONDS, "--trace", trace), label)
                metrics = result["metrics"]
                expected = listed[trace]
                if workload == "resize_churn":
                    expected = expected + RESIZE_CHURN_METRICS[trace]
                for name, unit in expected:
                    got = metrics.get(name)
                    if got is None or got.get("unit") != unit:
                        sys.exit(f"FAIL {label}: metric {name} missing or wrong unit: {got}")
                extra = set(metrics) - {name for name, _ in expected}
                if extra:
                    sys.exit(f"FAIL {label}: metrics not in BENCHMARK.json: {sorted(extra)}")
                if not result["correct"] or result["failed"] != 0:
                    sys.exit(f"FAIL {label}: {result['failed']} of {result['attempted']} operations failed")
                print(f"ok   {label}: {result['attempted']} operations, 0 failed")

    for workload in PHASES:
        for kind in range(1, FAULT_KINDS[workload] + 1):
            label = f"{workload} inject-fault {kind}"
            result = result_of(run("--workload", workload, "--seed", "1", "--seconds", SECONDS,
                                   "--trace", "0", "--inject-fault", str(kind)), label)
            if result["correct"] or result["failed"] < 1:
                sys.exit(f"FAIL {label}: the injected wrong answer was not counted")
            print(f"ok   {label}: {result['failed']} of {result['attempted']} counted as failed")

    proc = run("--workload", workloads[0], "--seed", "1", "--seconds", SECONDS, "--trace", "0",
               "--seconds-typo", "3")
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        sys.exit("FAIL unknown flag was accepted")
    print("ok   unknown flag rejected")
    print("smoke test passed")


if __name__ == "__main__":
    main()
