"""Self-test of the benchmark on a tiny seed.  From the checkout root:

    python3 bench/selftest.py

Checks that every workload runs with and without tracing and prints exactly
the metrics BENCHMARK.json declares, that planted wrong answers (one flipped
arc; a Mad witness missing a vertex) are counted as failures, and that a hook
whose target is gone reads as absent instead of failing the run.  Exits 1 on
the first problem.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import sys
import tempfile

import run
import tracing
import workloads


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_every_workload(spec):
    for workload in workloads.WORKLOADS:
        for flag in (0, 1):
            where = f"{workload} --trace {flag}"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                                 "--trace", str(flag)])
            expect(code == 0, f"{where} returned {code}")
            lines = stdout.getvalue().splitlines()
            final = json.loads(lines[-1])
            record = json.loads(lines[-2])[run.RECORD_KEY]
            expect(set(final) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(final)}")
            expect(final["correct"] and final["failed"] == 0 and final["attempted"] >= 1,
                   f"{where}: failures {record['failures']}")
            declared = spec["per_layer" if flag else "end_to_end"]
            expect(set(final["metrics"]) == {m["name"] for m in declared},
                   f"{where}: metric names differ from BENCHMARK.json")
            for m in declared:
                got = final["metrics"][m["name"]]
                expect(isinstance(got["value"], (int, float)) and got["unit"] == m["unit"],
                       f"{where}: {m['name']} = {got}")
            expect({"nproc", "python", "commit"} <= set(record["machine"]),
                   f"{where}: machine facts missing")
            if workload == "exact" and flag:
                enumerated = final["metrics"]["t4proof.enumerated"]["value"]
                expect(enumerated == 163840, f"t4proof.enumerated = {enumerated}")
            print(f"ok: {where} ({final['attempted']} jobs)")


def failed_frac_with(workload, module, name, corrupt):
    """failed / attempted over one round with ``module.name`` corrupted."""
    ok = run.import_library()
    original = getattr(importlib.import_module(module), name)

    def wrong(*args, **kwargs):
        return corrupt(original(*args, **kwargs))

    changed = tracing.rebind(original, wrong)
    try:
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench-") as workdir:
            jobs = workloads.build(workload, 1, ok, workdir)
            result = run.run_pass(jobs, 0)
    finally:
        for mod, attr in changed:
            setattr(mod, attr, original)
    return len(result["failures"]) / len(result["times"])


def flip_one_arc(sigma):
    """Reverse one arc out of a vertex of maximum indegree."""
    indeg = sigma.indegrees()
    top = max(indeg)
    i = next(i for i, (tail, _) in enumerate(sigma.arcs()) if indeg[tail] == top)
    direction = list(sigma.direction)
    direction[i] = not direction[i]
    return dataclasses.replace(sigma, direction=tuple(direction))


def drop_witness_vertex(report):
    return dataclasses.replace(report, witness=tuple(report.witness)[1:])


def check_planted_faults():
    for workload, module, name, corrupt in (
        ("construct", "orientkit.orientation", "proper_three_orientation", flip_one_arc),
        ("density", "orientkit.density", "mad_exact", drop_witness_vertex),
    ):
        frac = failed_frac_with(workload, module, name, corrupt)
        expect(frac > 0, f"planted fault in {name} went unnoticed")
        print(f"ok: planted fault in {name} gives failed_frac {frac:.3f}")


def check_absent_hook():
    hidden = tuple(
        (span, "orientkit.flow_removed" if module == "orientkit.flow" else module,
         "dpll_removed" if path == "dpll" else path)
        for span, module, path in tracing.HOOKS)
    args = run.parse_args(["--workload", "density", "--seed", "1", "--seconds", "0",
                           "--trace", "1"])
    final, record = run.measure(args, hooks=hidden)
    metrics = final["metrics"]
    expect(final["correct"], f"hidden hooks broke the run: {record['failures']}")
    for name in ("flow.max_flow.calls", "flow.min_cut_source_side.self_s",
                 "density.flow_calls_per_mad", "cnf.dpll.calls"):
        expect(metrics[name]["value"] is None, f"{name} should be absent")
    expect(metrics["density.mad_exact.calls"]["value"] > 0, "present hooks stopped counting")
    expect(record["absent_hooks"] == ["cnf.dpll", "flow.max_flow", "flow.min_cut_source_side"],
           f"absent hooks {record['absent_hooks']}")
    print("ok: hidden hook targets read as absent")


def check_layer_map(spec):
    names = {m["name"] for m in spec["per_layer"]} | {m["name"] for m in spec["end_to_end"]}
    with open(os.path.join(run.BENCH_DIR, "layers.json")) as fh:
        layers = json.load(fh)
    for layer in layers:
        for name in layer["metrics"] + [layer["moves"]]:
            expect(name in names, f"layers.json names unknown metric {name}")
        for workload in layer["on"] + layer["near_zero_on"]:
            expect(workload in workloads.WORKLOADS, f"layers.json names workload {workload}")
    print("ok: layers.json names declared metrics and workloads")


def main():
    # One round and one setup probe per run are enough to check the answers.
    run.MIN_JOBS = 1
    run.PROBES = 1
    spec = run.load_spec()
    check_layer_map(spec)
    check_planted_faults()
    check_absent_hook()
    check_every_workload(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
