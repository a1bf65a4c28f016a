#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selfcheck.py [--seconds 1] [--seed 1]

Run from the repository root. Runs every workload of BENCHMARK.json once
untraced and once traced, at minimum length, through perfbench/run.py,
and fails unless each run exits 0 and its last output line is a result
that prints every end-to-end (untraced) or per-layer (traced) metric of
BENCHMARK.json, and no other, with the declared unit, reports at least
one attempted operation and none failed (error_rate 0), gives every
end-to-end metric a finite value above 0, and gives every per-layer
metric its workload exercises (NONZERO below) a value other than 0.
"""

import argparse
import fnmatch
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer metrics each workload exercises, as name patterns. A layer
# probe that stops finding its spans, counters or calls reports 0 there.
# Left out on purpose: error_rate (checked to be 0), job_queue.rejected
# (0 on a healthy queue), telemetry.trace_overhead_frac (either sign),
# and stage spans that take under a microsecond per job.
_CAMPAIGN = ["process.peak_rss_mib", "spec.parse_ms", "job_graph.*",
             "executor.run_s", "executor.makespan_*", "executor.busy_frac",
             "result_cache.lookups", "sink.*", "analysis.*"]
NONZERO = {
    "demo-cold": _CAMPAIGN + [
        "executor.ceiling_*", "executor.measure_*",
        "executor.stage.machine_build_s", "executor.stage.simulate_s",
        "executor.stage.encode_s", "result_cache.misses",
        "result_cache.stores", "platform.*", "sim.records*",
        "sim.coalesced_runs"],
    "sweep-delta": _CAMPAIGN + [
        "executor.measure_*", "executor.stage.machine_build_s",
        "executor.stage.simulate_s", "executor.stage.encode_s",
        "result_cache.*", "sim.*"],
    "demo-warm": _CAMPAIGN + [
        "executor.ceiling_wall_s", "executor.measure_wall_s",
        "executor.stage.cache_probe_s", "result_cache.load_ms",
        "result_cache.hits", "result_cache.hit_ratio",
        "result_cache.spill_bytes"],
    "service-loop": [
        "process.peak_rss_mib", "spec.parse_ms", "job_graph.*",
        "executor.run_s",
        "executor.stage.machine_build_s", "executor.stage.simulate_s",
        "executor.stage.encode_s", "executor.makespan_bound_s",
        "result_cache.hits", "result_cache.misses", "result_cache.stores",
        "result_cache.lookups", "result_cache.hit_ratio", "sim.records*",
        "sim.coalesced_runs", "api.*", "job_queue.submit_done_*",
        "job_queue.overhead_ms", "job_queue.dedup_hits"],
}


def exercised(workload, name):
    return any(fnmatch.fnmatchcase(name, p)
               for p in NONZERO.get(workload, []))


def check_run(spec, workload, trace, args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"{where}: last line is not a JSON result ({e})"]

    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return errors
    if result["correct"] is not True:
        errors.append(f"{where}: correct is {result['correct']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result['attempted']}")
    if result["failed"] != 0:
        errors.append(f"{where}: error_rate {result['failed']}/"
                      f"{result['attempted']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        errors.append(f"{where}: missing metric {name}")
    for name in sorted(set(got) - set(want)):
        errors.append(f"{where}: undeclared metric {name}")
    for name in sorted(set(want) & set(got)):
        value, unit = got[name].get("value"), got[name].get("unit")
        if unit != want[name]:
            errors.append(f"{where}: {name} unit {unit!r}, "
                          f"declared {want[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end {name} is {value}")
        elif trace and name == "error_rate" and value != 0:
            errors.append(f"{where}: error_rate is {value}")
        elif trace and value == 0 and exercised(workload, name):
            errors.append(f"{where}: {name} is 0 on a workload that "
                          f"exercises it")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = [f"NONZERO names unknown workload {w}"
              for w in set(NONZERO) - {w["name"] for w in spec["workloads"]}]
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace, args)
            status = "FAIL" if found else "ok"
            print(f"{status:4} {workload['name']} --trace {trace}")
            errors += found
    for e in errors:
        print(f"selfcheck: {e}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
