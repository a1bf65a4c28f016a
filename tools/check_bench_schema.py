#!/usr/bin/env python3
"""Validate the schema of rfl's machine-readable JSON artifacts.

Four document kinds are recognized by content:
  - BENCH_sim_throughput.json perf-trajectory files (schema v4,
    bench == "sim_throughput": batched-mode entries and the
    non-streaming batched-parity gate),
  - BENCH_service_throughput.json service-load files (schema v1,
    bench == "service_throughput") produced by bench/service_throughput
    against the roofline-as-a-service daemon (src/service/),
  - analysis.json roofline-analysis documents (schema v3 or v4,
    kind == "rfl-analysis") produced by the analysis subsystem
    (src/analysis/analysis.hh) via roofline_report — v4 adds per-row
    measurement provenance (backend sim|perf, multiplex quality in
    [0, 1], available flag) and admits the same cell twice, once per
    backend — and
  - metrics.json telemetry snapshots (schema v1, kind == "rfl-metrics")
    written by roofline_campaign --telemetry-dir from the metrics
    registry (src/telemetry/metrics.hh),
  - series exports (schema v1, kind == "rfl-series") served by the
    daemon's GET /seriesz from the time-series sampler
    (src/telemetry/timeseries.hh), and
  - profile.json captures (schema v1, kind == "rfl-profile") written
    by roofline_campaign --profile-out / served by GET /profilez from
    the sampling profiler (src/telemetry/profiler.hh).

CI runs this after bench/sim_throughput and after roofline_report, so
schema regressions (renamed keys, missing workloads, non-numeric rates,
non-strict JSON) fail the build. Absolute speeds are deliberately NOT
checked: CI runners vary too much for a stable threshold. Regression
gating on the *analysis* numbers is a separate, threshold-based step
(roofline_report --diff) because the simulator is deterministic.

Usage: check_bench_schema.py <bench.json | analysis.json>
"""

import json
import math
import sys


def fail(msg: str) -> None:
    print(f"schema error: {msg}", file=sys.stderr)
    sys.exit(1)


def require(obj: dict, key: str, types) -> object:
    if key not in obj:
        fail(f"missing key '{key}'")
    if not isinstance(obj[key], types):
        fail(f"key '{key}' has type {type(obj[key]).__name__}, "
             f"expected {types}")
    return obj[key]


def finite_number(obj: dict, key: str, ctx: str) -> float:
    value = require(obj, key, (int, float))
    if isinstance(value, float) and not math.isfinite(value):
        fail(f"{ctx}: key '{key}' is not finite "
             f"(analysis.json must be strict JSON; inf encodes as null)")
    return value


def check_bench(doc: dict) -> None:
    if require(doc, "bench", str) != "sim_throughput":
        fail("bench name is not 'sim_throughput'")
    if require(doc, "schema_version", int) != 4:
        fail("unknown schema_version (expected 4: batched-mode entries)")
    require(doc, "unit", str)
    rfl_fast = require(doc, "rfl_fast", bool)
    # Non-streaming workloads must not regress under batching: the
    # latency fast path exists precisely so dependent-chain streams
    # stop paying batching overhead. The committed (full-length,
    # best-of-N) artifact is gated at parity; CI's RFL_FAST runs use
    # 0.05 s windows where a few percent of scheduling noise on shared
    # runners is routine, so they get a documented tolerance instead of
    # a flaky gate.
    batched_floor = 0.90 if rfl_fast else 1.0
    for key in ("geomean_speedup", "streaming_speedup",
                "hot_loop_speedup", "batched_geomean_speedup",
                "batched_streaming_speedup", "batched_hot_loop_speedup"):
        require(doc, key, (int, float))

    workloads = require(doc, "workloads", list)
    if not workloads:
        fail("workloads list is empty")
    names = set()
    for w in workloads:
        if not isinstance(w, dict):
            fail("workload entry is not an object")
        name = require(w, "name", str)
        if name in names:
            fail(f"duplicate workload '{name}'")
        names.add(name)
        require(w, "spec", str)
        require(w, "lanes", int)
        require(w, "streaming", bool)
        require(w, "hot_loop", bool)
        for key in ("reference_accesses_per_sec", "fast_accesses_per_sec",
                    "batched_accesses_per_sec", "speedup",
                    "batched_speedup"):
            value = require(w, key, (int, float))
            if value <= 0:
                fail(f"workload '{name}': {key} must be positive")
        if not w["streaming"] and w["batched_speedup"] < batched_floor:
            fail(f"workload '{name}': non-streaming batched_speedup "
                 f"{w['batched_speedup']:.3f} below {batched_floor:.2f} "
                 f"(latency fast path regressed)")

    # The trajectory tooling keys on these workloads existing, and the
    # parity gate above is only meaningful with the dependent chain in.
    for required in ("raw-l1-streak", "daxpy-scalar", "pointer-chase"):
        if required not in names:
            fail(f"required workload '{required}' missing")

    print(f"{sys.argv[1]}: schema OK "
          f"({len(workloads)} workloads, "
          f"hot-loop speedup {doc['hot_loop_speedup']:.2f}x, "
          f"batched {doc['batched_hot_loop_speedup']:.2f}x)")


def check_service(doc: dict) -> None:
    if require(doc, "schema_version", int) != 1:
        fail("unknown schema_version (expected 1)")
    require(doc, "unit", str)
    require(doc, "rfl_fast", bool)

    clients = require(doc, "clients", int)
    if clients < 64:
        fail(f"clients is {clients}; the load bench must drive >= 64 "
             f"concurrent clients")
    require(doc, "requests_per_client", int)
    if require(doc, "total_requests", int) <= 0:
        fail("total_requests must be positive")
    if require(doc, "dropped_connections", int) != 0:
        fail("dropped_connections must be 0 (acceptance: no client "
             "is ever dropped under load)")
    if finite_number(doc, "rps", "service") <= 0:
        fail("rps must be positive")
    for key in ("cold_submit_seconds", "cached_submit_seconds"):
        if finite_number(doc, key, "service") <= 0:
            fail(f"{key} must be positive")
    hit_rate = finite_number(doc, "cache_hit_rate", "service")
    if not 0.0 <= hit_rate <= 1.0:
        fail("cache_hit_rate must be within [0, 1]")
    if require(doc, "dedup_hits", int) <= 0:
        fail("dedup_hits must be positive (the bench resubmits an "
             "identical campaign)")

    latency = require(doc, "latency_us", dict)
    for key in ("p50", "p90", "p99", "max"):
        if finite_number(latency, key, "latency_us") <= 0:
            fail(f"latency_us.{key} must be positive")
    if not (latency["p50"] <= latency["p90"] <= latency["p99"]
            <= latency["max"]):
        fail("latency percentiles must be monotonic")

    endpoints = require(doc, "endpoints", list)
    names = set()
    for e in endpoints:
        if not isinstance(e, dict):
            fail("endpoint entry is not an object")
        name = require(e, "name", str)
        if name in names:
            fail(f"duplicate endpoint '{name}'")
        names.add(name)
        if require(e, "requests", int) <= 0:
            fail(f"endpoint '{name}': requests must be positive")
        for key in ("p50_us", "p90_us", "p99_us"):
            if finite_number(e, key, f"endpoint {name}") <= 0:
                fail(f"endpoint '{name}': {key} must be positive")
    for required in ("status", "analysis", "submit-dedup"):
        if required not in names:
            fail(f"required endpoint '{required}' missing")

    print(f"{sys.argv[1]}: schema OK "
          f"(service v1: {clients} clients, {doc['rps']:.0f} req/s, "
          f"p99 {latency['p99']:.0f} us, "
          f"hit-rate {hit_rate:.2f})")


def check_ceilings(obj: dict, key: str, ctx: str) -> None:
    ceilings = require(obj, key, list)
    if not ceilings:
        fail(f"{ctx}: {key} is empty")
    for c in ceilings:
        if not isinstance(c, dict):
            fail(f"{ctx}: {key} entry is not an object")
        require(c, "name", str)
        if finite_number(c, "value", ctx) <= 0:
            fail(f"{ctx}: {key} value must be positive")


def check_analysis(doc: dict) -> None:
    # v4 adds per-row provenance (backend, quality, available); v3
    # documents predate the fields and remain valid (every committed
    # baseline is v3).
    version = require(doc, "schema_version", (int, float))
    if version not in (3, 4):
        fail("unknown schema_version (expected 3 or 4)")
    require(doc, "campaign", str)

    scenarios = require(doc, "scenarios", list)
    if not scenarios:
        fail("scenarios list is empty")
    scenario_keys = set()
    for s in scenarios:
        if not isinstance(s, dict):
            fail("scenario entry is not an object")
        key = (require(s, "machine", str), require(s, "variant", str))
        if key in scenario_keys:
            fail(f"duplicate scenario {key}")
        scenario_keys.add(key)
        ctx = f"scenario {key}"
        for field in ("peak_flops", "peak_bandwidth", "ridge"):
            if finite_number(s, field, ctx) <= 0:
                fail(f"{ctx}: {field} must be positive")
        check_ceilings(s, "compute_ceilings", ctx)
        check_ceilings(s, "bandwidth_ceilings", ctx)

    kernels = require(doc, "kernels", list)
    kernel_keys = set()
    for k in kernels:
        if not isinstance(k, dict):
            fail("kernel entry is not an object")
        # backend joins the dedup key in v4: the same cell measured by
        # sim AND silicon is two legitimate rows.
        backend = "sim"
        if version >= 4:
            backend = require(k, "backend", str)
            if backend not in ("sim", "perf"):
                fail(f"backend must be sim|perf, got '{backend}'")
            quality = finite_number(k, "quality", "kernel row")
            if not 0.0 <= quality <= 1.0:
                fail(f"quality must be in [0, 1], got {quality}")
            if not isinstance(k.get("available"), bool):
                fail("kernel row: available must be a bool")
        key = tuple(require(k, f, str) for f in
                    ("machine", "variant", "kernel", "size",
                     "protocol")) + (backend,)
        if key in kernel_keys:
            fail(f"duplicate kernel row {key}")
        kernel_keys.add(key)
        ctx = f"kernel row {key}"
        if (key[0], key[1]) not in scenario_keys:
            fail(f"{ctx}: no matching scenario")
        require(k, "cores", (int, float))
        require(k, "lanes", (int, float))
        for field in ("flops", "traffic_bytes", "seconds", "perf",
                      "attainable", "pct_roof", "pct_peak",
                      "achieved_bandwidth", "pct_peak_bw"):
            finite_number(k, field, ctx)
        if "oi" not in k:
            fail(f"{ctx}: missing key 'oi'")
        if k["oi"] is not None:
            finite_number(k, "oi", ctx)
        if require(k, "bound", str) not in ("memory", "compute"):
            fail(f"{ctx}: bound must be memory|compute")
        require(k, "binding_ceiling", str)

    phases = require(doc, "phases", list)
    for p in phases:
        if not isinstance(p, dict):
            fail("phase entry is not an object")
        ctx = (f"phase row ({p.get('machine')}, {p.get('variant')}, "
               f"{p.get('kernel')})")
        for field in ("machine", "variant", "kernel", "size",
                      "protocol"):
            require(p, field, str)
        if (p["machine"], p["variant"]) not in scenario_keys:
            fail(f"{ctx}: no matching scenario")
        if finite_number(p, "period", ctx) <= 0:
            fail(f"{ctx}: period must be positive")
        for field in ("total_flops", "total_traffic_bytes",
                      "total_seconds"):
            finite_number(p, field, ctx)
        points = require(p, "points", list)
        if not points:
            fail(f"{ctx}: points list is empty")
        flops = traffic = 0.0
        for pt in points:
            if not isinstance(pt, dict):
                fail(f"{ctx}: point entry is not an object")
            for field in ("perf", "flops", "traffic_bytes", "seconds"):
                finite_number(pt, field, ctx)
            if "oi" not in pt:
                fail(f"{ctx}: point missing key 'oi'")
            flops += pt["flops"]
            traffic += pt["traffic_bytes"]
        # Interval deltas are additive by construction; allow FP slack.
        if abs(flops - p["total_flops"]) > max(1e-6 * flops, 1e-6):
            fail(f"{ctx}: point flops sum {flops} != total "
                 f"{p['total_flops']}")
        if abs(traffic - p["total_traffic_bytes"]) > \
                max(1e-6 * traffic, 1e-6):
            fail(f"{ctx}: point traffic sum {traffic} != total "
                 f"{p['total_traffic_bytes']}")

    print(f"{sys.argv[1]}: schema OK "
          f"(analysis v{version:g}: {len(scenarios)} scenarios, "
          f"{len(kernels)} kernel rows, {len(phases)} phase rows)")


def check_metrics(doc: dict) -> None:
    if require(doc, "schema_version", int) != 1:
        fail("unknown schema_version (expected 1)")
    require(doc, "campaign", str)

    metrics = require(doc, "metrics", dict)
    if not metrics:
        fail("metrics object is empty (was telemetry enabled?)")
    leaves = 0
    for group, members in metrics.items():
        if not isinstance(members, dict):
            fail(f"metrics group '{group}' is not an object")
        if not members:
            fail(f"metrics group '{group}' is empty")
        for name, value in members.items():
            ctx = f"metric {group}.{name}"
            if isinstance(value, dict):
                # Histogram summary from Registry::renderJsonGrouped.
                for field in ("count", "sum", "p50", "p90", "p99"):
                    finite_number(value, field, ctx)
                if value["count"] < 0:
                    fail(f"{ctx}: count must be non-negative")
            elif isinstance(value, (int, float)):
                if isinstance(value, float) and not math.isfinite(value):
                    fail(f"{ctx}: value is not finite")
            else:
                fail(f"{ctx}: value must be a number or a histogram "
                     f"summary object")
            leaves += 1

    # A campaign run with telemetry enabled always reports at least its
    # own cache-probe counters; an empty campaign group means the
    # executor instrumentation regressed.
    if "campaign" not in metrics:
        fail("metrics group 'campaign' missing (executor counters)")

    # Fault-injection families only appear once a failpoint arms or a
    # transient I/O retry fires; when present they must be well-formed
    # non-negative scalars (chaos runs gate on these moving).
    for group in ("failpoint", "retry"):
        for name, value in metrics.get(group, {}).items():
            if not isinstance(value, (int, float)) or \
                    isinstance(value, bool) or value < 0:
                fail(f"metric {group}.{name}: fault-injection "
                     f"counters must be non-negative numbers, "
                     f"got {value!r}")

    print(f"{sys.argv[1]}: schema OK "
          f"(metrics v1: campaign '{doc['campaign']}', "
          f"{len(metrics)} groups, {leaves} metrics)")


def check_series(doc: dict) -> None:
    if require(doc, "schema_version", int) != 1:
        fail("unknown schema_version (expected 1)")
    if finite_number(doc, "interval_seconds", "series") <= 0:
        fail("interval_seconds must be positive")
    capacity = require(doc, "capacity", int)
    if capacity < 2:
        fail("capacity must be >= 2")
    if require(doc, "samples", int) < 0:
        fail("samples must be non-negative")

    series = require(doc, "series", list)
    names = set()
    points_total = 0
    for s in series:
        if not isinstance(s, dict):
            fail("series entry is not an object")
        name = require(s, "name", str)
        if name in names:
            fail(f"duplicate series '{name}'")
        names.add(name)
        ctx = f"series '{name}'"
        require(s, "unit", str)
        points = require(s, "points", list)
        # The memory bound the sampler promises: a ring never holds
        # more than its fixed capacity, whatever the process uptime.
        if len(points) > capacity:
            fail(f"{ctx}: {len(points)} points exceed ring capacity "
                 f"{capacity}")
        for p in points:
            if p is None:
                continue  # non-finite values encode as null
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                fail(f"{ctx}: point must be a number or null")
            if not math.isfinite(p):
                fail(f"{ctx}: point is not finite")
        points_total += len(points)

    print(f"{sys.argv[1]}: schema OK "
          f"(series v1: {len(series)} series, {points_total} points, "
          f"capacity {capacity})")


def check_profile(doc: dict) -> None:
    if require(doc, "schema_version", int) != 1:
        fail("unknown schema_version (expected 1)")
    require(doc, "label", str)
    hz = require(doc, "hz", int)
    if hz <= 0:
        fail("hz must be positive")
    if finite_number(doc, "seconds", "profile") < 0:
        fail("seconds must be non-negative")
    cpu = finite_number(doc, "cpu_seconds", "profile")
    if cpu < 0:
        fail("cpu_seconds must be non-negative")
    # Samples per process CPU-second: the rate the capture really got,
    # next to the requested hz.
    rate = finite_number(doc, "effective_hz", "profile")
    if rate < 0:
        fail("effective_hz must be non-negative")
    samples = require(doc, "samples", int)
    if samples < 0:
        fail("samples must be non-negative")
    if require(doc, "dropped", int) < 0:
        fail("dropped must be non-negative")

    stacks = require(doc, "stacks", list)
    seen = set()
    total = 0
    for s in stacks:
        if not isinstance(s, dict):
            fail("stack entry is not an object")
        stack = require(s, "stack", str)
        if not stack:
            fail("stack string must be non-empty")
        if stack in seen:
            fail(f"duplicate collapsed stack '{stack}'")
        seen.add(stack)
        count = require(s, "count", int)
        if count <= 0:
            fail(f"stack '{stack}': count must be positive")
        total += count
    # Symbolization may drop frames but never invents samples.
    if total > samples:
        fail(f"stack counts sum to {total} > {samples} samples")

    print(f"{sys.argv[1]}: schema OK "
          f"(profile v1: '{doc['label']}', {samples} samples over "
          f"{cpu:.3f} s cpu, {rate:.1f}/s of {hz} Hz requested, "
          f"{len(stacks)} collapsed stacks)")


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: check_bench_schema.py <bench.json | analysis.json>")
    try:
        with open(sys.argv[1]) as f:
            # parse_constant traps Infinity/NaN/-Infinity tokens that
            # json.load would otherwise accept; analysis.json must be
            # strict JSON (non-finite encodes as null).
            doc = json.load(
                f,
                parse_constant=lambda tok: fail(
                    f"non-strict JSON token '{tok}' "
                    f"(non-finite values must encode as null)"))
    except (OSError, json.JSONDecodeError, ValueError) as e:
        fail(f"cannot parse {sys.argv[1]}: {e}")

    if not isinstance(doc, dict):
        fail("top-level value is not an object")
    if doc.get("bench") == "service_throughput":
        check_service(doc)
    elif "bench" in doc:
        check_bench(doc)
    elif doc.get("kind") == "rfl-analysis":
        check_analysis(doc)
    elif doc.get("kind") == "rfl-metrics":
        check_metrics(doc)
    elif doc.get("kind") == "rfl-series":
        check_series(doc)
    elif doc.get("kind") == "rfl-profile":
        check_profile(doc)
    else:
        fail("unrecognized document: not a BENCH_*.json ('bench' key), "
             "an analysis.json (kind=rfl-analysis), a metrics.json "
             "(kind=rfl-metrics), a series export (kind=rfl-series), "
             "or a profile capture (kind=rfl-profile)")


if __name__ == "__main__":
    main()
