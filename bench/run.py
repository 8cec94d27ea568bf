"""orientkit benchmark: closed-loop workloads with checked answers.

Run from the root of a checkout (nothing needs installing; the library is
imported from ``src/``):

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0

One client runs one job at a time in this process (for ``cli``, one child
process at a time), pinned to one CPU.  The inputs are generated from the
seed before timing.  Jobs run in rounds: every round runs the whole job pool
once, in order, and rounds repeat until ``--seconds`` have passed and at
least ``MIN_JOBS`` jobs ran.  Every answer is checked against
``oracle.py`` or a closed form.

End-to-end metrics: ``jobs_per_s`` is the median over untraced rounds of
correct jobs per second of job time; ``job_p50_ms`` and ``job_p90_ms`` are
taken over every job of the pass; ``setup_s`` is the median over fresh
processes of the time from process start to the first timed job (import,
input generation and serialization, one warm-up job); ``peak_rss_mib`` is the
peak resident memory of the process that ran the jobs.  Times are scaled to
a reference machine speed (gauge.py); the record keeps the raw ones.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints the per-layer ones instead.  A traced run alternates untraced and
traced rounds: the spans of the traced rounds give the per-layer numbers and
the difference in jobs/s between the two kinds gives the tracing overhead.

The last stdout line is the result object; the line before it is a record
(workload, seed, machine facts, failures, all metrics) for ``--compare``:

    python3 bench/run.py --compare before.txt after.txt

prints one row per (workload, metric) over the records in two files made by
appending the stdout of several runs.  ``selftest.py`` checks the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

import gauge  # noqa: E402  (the benchmark's own modules, next to this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

RECORD_KEY = "bench_record"
MIN_JOBS = 100  # least number of jobs in a pass, so ten or more lie beyond p90
PROBES = 5  # fresh processes timed for setup_s


def import_library():
    """orientkit from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import orientkit
    except ImportError as exc:
        raise SystemExit(f"error: cannot import orientkit from {SRC}: {exc}") from None
    where = os.path.dirname(os.path.abspath(orientkit.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"error: orientkit imported from {where}, not from {SRC}")
    return orientkit


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quantile90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def run_job(job):
    """(seconds, reason or None); an exception counts as a wrong answer."""
    start = perf_counter()
    try:
        answer = job.run()
        elapsed = perf_counter() - start
        return elapsed, job.check(answer)
    except Exception as exc:  # a failing job is a measured outcome, not a crash
        return perf_counter() - start, f"{type(exc).__name__}: {exc}"


def run_pass(jobs, seconds, tracer=None):
    """Whole rounds of ``jobs`` until time and job count are both reached.

    With a tracer, odd rounds are traced and at least one round of each kind
    runs.  Job times are scaled to the reference speed (see gauge.py); the
    raw wall times are kept alongside.
    """
    speed = gauge.SpeedGauge()
    raw, good, kinds, scales, failures, layers = [], [], [], [], [], []
    start = perf_counter()
    rounds = 0
    while (rounds < (2 if tracer else 1) or len(raw) < MIN_JOBS
           or perf_counter() - start < seconds):
        traced = tracer is not None and rounds % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        for job in jobs:
            speed.tick()
            elapsed, problem = run_job(job)
            raw.append(elapsed)
            good.append(problem is None)
            kinds.append(job.kind)
            if problem is not None:
                failures.append(f"{job.label}: {problem}")
        if traced:
            tracer.uninstall()
            layers.append(tracing.summarize(tracer.take(), tracer.absent))
        scales.extend([speed.round_scale()] * len(jobs))
        rounds += 1
    times = [t * s for t, s in zip(raw, scales)]
    rates = {False: [], True: []}
    for r in range(rounds):
        span = slice(r * len(jobs), (r + 1) * len(jobs))
        rates[tracer is not None and r % 2 == 1].append(sum(good[span]) / sum(times[span]))
    by_kind = {}
    for kind, t in zip(kinds, times):
        by_kind.setdefault(kind, []).append(t)
    return {"times": times, "raw_times": raw, "scales": scales, "failures": failures,
            "rates": rates, "layers": layers, "by_kind": by_kind, "rounds": rounds}


def peak_rss_mib(workload):
    # cli jobs run in children; everything else runs in this process
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def setup_seconds(args):
    """Median wall time, at the reference speed, of ``PROBES`` fresh
    processes from start to the first timed job: import, input generation
    and one warm-up job."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]

    def probe():
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        return ready - start

    samples = []
    for _ in range(PROBES):
        seconds, scale = gauge.scaled(probe)
        samples.append(seconds * scale)
    return statistics.median(samples)


def cli_startup_seconds(samples=5):
    """Median wall time of ``python -m orientkit.cli --version`` at the reference speed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def once():
        start = perf_counter()
        subprocess.run([sys.executable, "-m", "orientkit.cli", "--version"], env=env,
                       stdout=subprocess.DEVNULL, check=True, timeout=60)
        return perf_counter() - start

    times = []
    for _ in range(samples):
        seconds, scale = gauge.scaled(once)
        times.append(seconds * scale)
    return statistics.median(times)


def machine_facts():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "platform": platform.platform()}


def end_to_end(result, setup_s, rss):
    times = result["times"]
    return {
        "jobs_per_s": statistics.median(result["rates"][False]),
        "job_p50_ms": statistics.median(times) * 1e3,
        "job_p90_ms": quantile90(times) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": rss,
    }


def per_layer(workload, result, setup_layers):
    """Counts and self times cover the setup plus the median traced round;
    ratios are those of the traced rounds.  Counts are the same in every
    round, so their median is taken low to stay a whole number."""
    values = {}
    for name in setup_layers:
        per_round = [summary[name] for summary in result["layers"]]
        if setup_layers[name] is None or None in per_round:
            values[name] = None
        elif name in tracing.RATIOS:
            values[name] = statistics.median_low(per_round)
        elif name.endswith("_s"):
            values[name] = setup_layers[name] + statistics.median(per_round)
        else:
            values[name] = setup_layers[name] + statistics.median_low(per_round)
    untraced = statistics.median(result["rates"][False])
    traced = statistics.median(result["rates"][True])
    values["trace.delta_jobs_per_s"] = traced - untraced
    for kind in ("gen", "proper3", "verify", "mad", "exact", "cnf", "quad", "check-t4"):
        walls = result["by_kind"].get(kind) if workload == "cli" else None
        values[f"cli.{kind}.wall_s"] = statistics.median(walls) if walls else 0.0
    values["cli.startup_s"] = cli_startup_seconds() if workload == "cli" else 0.0
    return values


def measure(args, hooks=tracing.HOOKS):
    """Run one workload as ``args`` say; returns (result object, record)."""
    ok = import_library()
    spec = load_spec()
    tracer = tracing.Tracer(hooks) if args.trace else None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as workdir:
        if tracer:
            tracer.install()
        jobs = workloads.build(args.workload, args.seed, ok, workdir)
        if tracer:
            tracer.uninstall()
            setup_layers = tracing.summarize(tracer.take(), tracer.absent)
        # A user's process does not hold the whole job pool; keep the cyclic
        # GC from rescanning it during every job.
        gc.freeze()
        run_job(jobs[0])  # warm-up
        result = run_pass(jobs, args.seconds, tracer)
        rss = peak_rss_mib(args.workload)
    if tracer:
        values = per_layer(args.workload, result, setup_layers)
        declared = spec["per_layer"]
    else:
        values = end_to_end(result, setup_seconds(args), rss)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in declared}
    attempted, failed = len(result["times"]), len(result["failures"])
    p90 = quantile90(result["times"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": result["rounds"], "pool": len(jobs),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "p90_samples": attempted,
        "p90_beyond": sum(1 for t in result["times"] if t > p90),
        "raw_wall_ms": {"p50": statistics.median(result["raw_times"]) * 1e3,
                        "p90": quantile90(result["raw_times"]) * 1e3},
        "speed_scale": {"min": min(result["scales"]), "median": statistics.median(result["scales"]),
                        "max": max(result["scales"])},
        "failures": result["failures"][:5],
        "absent_hooks": sorted(tracer.absent) if tracer else [],
        "machine": machine_facts(),
        "metrics": metrics,
    }
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    return final, record


def setup_probe(args):
    """Import, generate the inputs, run the first job once, say ready."""
    ok = import_library()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as workdir:
        jobs = workloads.build(args.workload, args.seed, ok, workdir)
        run_job(jobs[0])
        print("ready", flush=True)


# --------------------------------------------------------------- compare


def read_records(path):
    records = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("{" + json.dumps(RECORD_KEY)):
                records.append(json.loads(line)[RECORD_KEY])
    return records


def compare(before_path, after_path):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sides = []
    for path in (before_path, after_path):
        values = {}
        for rec in read_records(path):
            if rec["trace"]:
                continue
            for name, metric in rec["metrics"].items():
                if metric["value"] is not None:
                    values.setdefault((rec["workload"], name), []).append(metric["value"])
        sides.append(values)
    header = (f"{'workload':10} {'metric':14} {'n':>5}  {'before median [q1, q3]':>32}  "
              f"{'after median [q1, q3]':>32}  {'change':>8}  verdict")
    print(header)
    for key in sorted(set(sides[0]) | set(sides[1])):
        workload, name = key
        meta = bounds.get(name)
        cells, spreads, medians = [], [], []
        for side in sides:
            vals = side.get(key, [])
            if len(vals) < 2:
                cells.append(f"{'(fewer than 2 runs)':>32}")
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            medians.append(med)
            spreads.append((q3 - q1) / med if med else float("inf"))
            cells.append(f"{med:12.5g} [{q1:.5g}, {q3:.5g}]".rjust(32))
        if len(medians) < 2 or meta is None:
            verdict, change = "unresolved", ""
        else:
            delta = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
            worse = delta if meta["better"] == "lower" else -delta
            change = f"{delta:+.1%}"
            if max(spreads) > meta["bound"]:
                verdict = "unresolved"
            elif worse > meta["bound"]:
                verdict = "worse"
            elif -worse > meta["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
        n = f"{len(sides[0].get(key, []))}/{len(sides[1].get(key, []))}"
        print(f"{workload:10} {name:14} {n:>5}  {cells[0]}  {cells[1]}  {change:>8}  {verdict}")
    return 0


# ------------------------------------------------------------------ main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if not args.compare and not args.workload:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.setup_probe:
        setup_probe(args)
        return 0
    # Jobs, their child processes and the speed gauge share one core, so the
    # gauge reads the speed the jobs actually get.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    final, record = measure(args)
    for failure in record["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({RECORD_KEY: record}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
