#!/usr/bin/env python3
"""Self-test of the perfbench benchmark (quick mode, about a minute).

Run from the root of a vdep source checkout:

    python3 perfbench/selftest.py

It drives perfbench/run.py with one-second runs and asserts that
  * every named end-to-end metric prints with its unit on every workload,
    and the JSON line carries exactly the end_to_end metrics of
    BENCHMARK.json (per_layer ones with --trace 1);
  * the traced run prints every named per-layer metric, an unattributed
    share and the tracing overhead;
  * a different seed changes the inputs but not the set of metric names;
  * an injected output mismatch raises error_rate and fails the run's
    correctness verdict.
Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
QUICK_SECONDS = "1"

# The end-to-end metrics each workload's report names (with their units).
COMMON_E2E = {"setup_s": "s", "error_rate": "ratio", "peak_rss_mb": "MB"}
E2E = {
    "compile_tiers": {"cold_ms_p50": "ms", "cold_ms_p90": "ms", "disk_warm_ms_p50": "ms",
                      "disk_warm_ms_p90": "ms", "mem_warm_ms_p50": "ms"},
    "large_kernels": {"affine_points_per_s": "points/s", "indirect_points_per_s": "points/s"},
    "serve_batches": {"requests_per_s": "1/s", "batch_ms_p50": "ms", "batch_ms_p90": "ms"},
}
# Every per-layer metric the traced runs must print, over all workloads.
PER_LAYER = {
    "dsl.parse_us", "loopir.validate_us", "api.fingerprint_us", "api.compile_us",
    "api.plan_cache_hit_rate", "api.compile_all_us", "cache.plan_load_us",
    "cache.kernel_load_us", "cache.store_us", "cache.hit_rate", "api.jit_disk_ms",
    "dep.pdm_us", "trans.plan_us", "codegen.rewrite_us", "codegen.emit_us",
    "analysis.partition_us", "analysis.verify_us", "jit.toolchain_probe_us", "jit.cc_ms",
    "jit.cc_invocations", "api.jit_cold_ms", "analysis.partitioned_frac",
    "runtime.executor_build_us", "exec.store_build_ms", "exec.checksum_ms",
    "api.execute_glue_frac", "runtime.run_ms", "runtime.tasks", "runtime.inner_splits",
    "runtime.steals", "runtime.steal_success", "runtime.idle_frac", "runtime.batch_exec_ms",
    "runtime.queue_ms_p50", "inspect.inspect_ms", "inspect.exec_ms", "inspect.classes",
    "inspect.chains",
}

E2E_LINE = re.compile(r"^e2e\s+(\S+)\s+=\s+(\S+)\s+(\S+)\s+\(n=(\d+)\)$")
LAYER_LINE = re.compile(r"^layer\s+(\S+)\s+=\s+(\S+)\s+(\S+)\s+->\s+(.+)$")

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, seed, trace, inject=False):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", QUICK_SECONDS, "--trace", str(trace)]
    if inject:
        argv.append("--inject-mismatch")
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"selftest: {' '.join(argv[1:])} exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    report = {"json": json.loads(lines[-1]), "e2e": {}, "layer": {}, "inputs": None,
              "lines": lines}
    for line in lines[:-1]:
        if m := E2E_LINE.match(line):
            report["e2e"].setdefault(m.group(1), (float(m.group(2)), m.group(3)))
        elif m := LAYER_LINE.match(line):
            report["layer"][m.group(1)] = (float(m.group(2)), m.group(3))
        elif m := re.search(r"\binputs=([0-9a-f]+)", line):
            report["inputs"] = m.group(1)
    return report


def benchmark_metrics(key):
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def main():
    e2e_spec = benchmark_metrics("end_to_end")
    layer_spec = benchmark_metrics("per_layer")
    layers_seen = set()
    for workload, named in E2E.items():
        r = run(workload, 1, 0)
        want = {**COMMON_E2E, **named}
        for name, unit in want.items():
            got = r["e2e"].get(name)
            check(got is not None and got[1] == unit,
                  f"{workload}: e2e {name} printed in {unit} (got {got})")
        check(r["e2e"].get("error_rate", (1,))[0] == 0, f"{workload}: error_rate is 0")
        j = r["json"]
        check(j["correct"] and j["failed"] == 0 and j["attempted"] >= 1,
              f"{workload}: JSON verdict correct with attempted >= 1")
        if e2e_spec is not None:
            got = {k: v["unit"] for k, v in j["metrics"].items()}
            check(got == e2e_spec, f"{workload}: JSON metrics == BENCHMARK.json end_to_end")
            check(all(v["value"] > 0 for v in j["metrics"].values()),
                  f"{workload}: every end-to-end value is positive")

        t = run(workload, 1, 1)
        layers_seen |= set(t["layer"])
        text = "\n".join(t["lines"])
        check("unattributed" in text and "trace overhead" in text,
              f"{workload}: traced run prints unattributed share and tracing overhead")
        if layer_spec is not None:
            got = {k: v["unit"] for k, v in t["json"]["metrics"].items()}
            check(got == layer_spec, f"{workload}: traced JSON metrics == BENCHMARK.json per_layer")
    missing = PER_LAYER - layers_seen
    check(not missing, f"traced runs print every named per-layer metric (missing {sorted(missing)})")

    a, b = run("serve_batches", 1, 0), run("serve_batches", 2, 0)
    check(a["inputs"] is not None and a["inputs"] != b["inputs"],
          f"a different seed changes the inputs ({a['inputs']} vs {b['inputs']})")
    check(set(a["e2e"]) == set(b["e2e"]) and set(a["json"]["metrics"]) == set(b["json"]["metrics"]),
          "a different seed keeps the set of metric names")

    for workload in E2E:
        bad = run(workload, 1, 0, inject=True)
        rate = bad["e2e"].get("error_rate", (0,))[0]
        check(rate > 0 and bad["json"]["failed"] > 0 and not bad["json"]["correct"],
              f"{workload}: injected mismatch raises error_rate (got {rate})")

    print(f"selftest: {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
