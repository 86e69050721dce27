"""The repository benchmark: time one workload, check its outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign_cold --seed 0 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``campaign_cold`` — a 300-task campaign (60 nests x 5 machine/mesh
  cells), inline executor, every library cache cleared before each run;
* ``campaign_parallel`` — the same grid on the default process-pool
  executor with one worker per core;
* ``nest_large`` — cold single-nest ops (compile, fold, price) that
  each price 0.24-2.1 M element communications.

``--trace 0`` times the shipped defaults (tracing off, no ``REPRO_*``
knob set) and prints the end-to-end metrics, with times scaled to a
reference host's speed by a calibration kernel run between timed
units (``interpreter_work``, ``array_work``).  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics; the
traced passes wrap each layer's entry points from outside the program
(``spans.py``).

Every output is checked against ``expected.json`` (recorded with the
per-element reference executor by ``record_expected.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any output is wrong or any op failed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402
import spans  # noqa: E402

#: how many times set-up (import in a fresh interpreter, and input
#: generation) is repeated for ``setup_s``; the median of each is taken
SETUP_REPEATS = 5
#: The benchmark's host is shared, and its speed drifts by up to 1.8x
#: over minutes as other tenants' load comes and goes; CPU time drifts
#: with wall time, so the drift is the host's, not the program's.  Every
#: time metric is therefore reported at a reference host's speed:
#: before each timed unit the benchmark times a calibration kernel that
#: runs no program code, and measured times are multiplied by the
#: kernel's reference time over its median time in the same run.  The
#: kernel matches the kind of work the workload does, because one mixed
#: kernel followed the drift of the NumPy-bound workload but moved 8%
#: less than the interpreter-bound campaigns.  Each reference time is a
#: round figure close to the kernel's median on the 2-core virtual
#: machine the benchmark was built on, in that machine's fast periods.
INTERPRETER_LOOP = 300_000
INTERPRETER_REFERENCE_S = 0.020
ARRAY_LOOP = 15_000
ARRAY_ROWS = 100_000
ARRAY_REFERENCE_S = 0.025
#: relative tolerance of the trace reconciliation: per process, the
#: self times of all spans must add up to the root spans' wall time
RECONCILE_TOLERANCE = 1e-6


class Tally:
    """Ops attempted and failed (failed records plus wrong outputs)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, attempted: int, failed: int, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)


def cpu_seconds(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def reap_children(timeout: float = 60.0) -> None:
    """Wait until every worker process the executor started has ended
    (the pool shuts down without waiting for its workers)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for proc in multiprocessing.active_children():
                proc.kill()
                proc.join()
            break
        time.sleep(0.002)


def cache_counts(snap: Dict) -> Dict[str, float]:
    """Hit/miss totals of the linalg and route caches in one
    ``repro.obs.snapshot()``."""
    out = {"linalg_hits": 0, "linalg_misses": 0, "route_hits": 0, "route_misses": 0}
    for stats in snap.get("linalg.cache", {}).values():
        out["linalg_hits"] += stats.get("hits", 0)
        out["linalg_misses"] += stats.get("misses", 0)
    for stats in snap.get("machine.routecache", {}).values():
        out["route_hits"] += stats.get("hits", 0)
        out["route_misses"] += stats.get("misses", 0)
    return out


def interpreter_work() -> float:
    """Wall time of a fixed integer loop in the interpreter; the
    calibration of the interpreter-bound workloads (the campaigns and
    set-up)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(INTERPRETER_LOOP):
        total += i * i % 7
    return time.perf_counter() - t0


def array_work() -> float:
    """Wall time of fixed dictionary updates plus NumPy ``unique`` and
    ``bincount`` over 100 k rows; the calibration of ``nest_large``,
    whose ops spend >95% of their time in NumPy."""
    import numpy as np

    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(ARRAY_LOOP):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + (i & 255)
    rows = (np.arange(ARRAY_ROWS, dtype=np.int64) * 2654435761) % 1_000_003
    np.unique(rows)
    np.bincount(rows % 4099, weights=rows.astype(np.float64))
    return time.perf_counter() - t0


#: calibration kernels with their times on the reference host
INTERPRETER = (interpreter_work, INTERPRETER_REFERENCE_S)
ARRAYS = (array_work, ARRAY_REFERENCE_S)


def host_scale(calibration, times: List[float]) -> float:
    """Factor that turns a time measured on this host, while ``times``
    were taken, into a time on the reference host."""
    return calibration[1] / statistics.median(times)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def under_root(tracer, fn, *args):
    """Call ``fn``, inside the benchmark's root span when tracing."""
    return fn(*args) if tracer is None else tracer.span(spans.ROOT, fn, *args)


# ---------------------------------------------------------------------------
# workloads: each runs one timed unit (a campaign run or one nest op)
# ---------------------------------------------------------------------------


class Campaign:
    """One ``run_campaign`` call over the whole grid per unit."""

    calibration = INTERPRETER

    def __init__(self, jobs: int):
        self.jobs = jobs

    def make_inputs(self, iset: int):
        return inputs.campaign_tasks(iset)

    def units(self, tasks) -> list:
        return [tasks]

    def run_unit(self, tasks, expected: Dict, iset: int, tally: Tally, workdir: str,
                 tracer=None) -> Dict:
        from repro.campaign import CampaignConfig, run_campaign

        path = os.path.join(workdir, "campaign.jsonl")
        inputs.clear_library_caches()
        config = CampaignConfig(jobs=self.jobs)
        cpu0, kids0 = cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        out = under_root(tracer, run_campaign, tasks, path, config)
        wall = time.perf_counter() - t0
        reap_children()
        cpu = cpu_seconds(resource.RUSAGE_SELF) - cpu0
        kids = cpu_seconds(resource.RUSAGE_CHILDREN) - kids0

        want = expected["campaign"][str(iset)]
        digest, records = inputs.store_digest(path)
        failed = out.errors + out.timeouts + out.crashed
        problem = ""
        if digest != want["digest"] or len(records) != len(tasks):
            failed = len(tasks)
            problem = f"campaign store digest {digest} != expected {want['digest']}"
        tally.add(len(tasks), failed, problem)
        return {
            "wall": wall,
            "ok": out.ok,
            "events": want["events"],
            "task_seconds": [r.seconds for r in records],
            "worker_cpu": kids,
            "cpu": cpu + kids,
            "compile_hits": out.compile_cache_hits,
            "compile_misses": out.compile_cache_misses,
            "baseline_hits": out.baseline_cache_hits,
            "baseline_misses": out.baseline_cache_misses,
        }

    def summarize(self, results: List[Dict]) -> Dict[str, float]:
        task_seconds = [s for r in results for s in r["task_seconds"]]
        return {
            "tasks_per_s": statistics.median(r["ok"] / r["wall"] for r in results),
            "nest_s_p50": statistics.median(task_seconds),
            "events_per_s": statistics.median(r["events"] / r["wall"] for r in results),
            "samples": len(task_seconds),
        }


class NestLarge:
    """One cold single-nest op per unit; a pass runs every op once."""

    jobs = 1
    calibration = ARRAYS

    def make_inputs(self, iset: int):
        return inputs.nest_ops(iset)

    def units(self, ops) -> list:
        return list(ops)

    def run_unit(self, op, expected: Dict, iset: int, tally: Tally, workdir: str,
                 tracer=None) -> Dict:
        inputs.clear_library_caches()
        cpu0 = cpu_seconds(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            report = under_root(tracer, inputs.run_nest_op, op)
        except Exception as exc:  # a failed op is counted, not fatal
            tally.add(1, 1, f"{op.op_id}: {type(exc).__name__}: {exc}")
            return {"op": op.op_id, "wall": time.perf_counter() - t0, "events": 0,
                    "reference": op.reference, "cpu": 0.0, "worker_cpu": 0.0}
        wall = time.perf_counter() - t0
        cpu = cpu_seconds(resource.RUSAGE_SELF) - cpu0
        got = inputs.report_totals(report)
        want = expected["nest_ops"][op.op_id]
        ok = got == want
        tally.add(1, 0 if ok else 1, "" if ok else f"{op.op_id}: {got} != expected {want}")
        return {"op": op.op_id, "wall": wall, "events": got["events"],
                "reference": op.reference, "cpu": cpu, "worker_cpu": 0.0}

    def summarize(self, results: List[Dict]) -> Dict[str, float]:
        by_op: Dict[str, List[Dict]] = {}
        for r in results:
            if r["reference"]:
                by_op.setdefault(r["op"], []).append(r)
        walls, events, samples = [], 0, []
        for runs in by_op.values():
            walls.append(statistics.median(r["wall"] for r in runs))
            events += runs[0]["events"]
            samples += [r["wall"] for r in runs]
        return {
            "tasks_per_s": len(walls) / sum(walls),
            "nest_s_p50": statistics.median(samples),
            "events_per_s": events / sum(walls),
            "samples": len(samples),
        }


WORKLOADS = {
    "campaign_cold": lambda: Campaign(jobs=1),
    "campaign_parallel": lambda: Campaign(jobs=os.cpu_count() or 1),
    "nest_large": NestLarge,
}


# ---------------------------------------------------------------------------
# timed and traced runs
# ---------------------------------------------------------------------------


def run_pass(workload, data, expected, iset, tally, workdir, tracer=None) -> List[Dict]:
    return [
        workload.run_unit(unit, expected, iset, tally, workdir, tracer)
        for unit in workload.units(data)
    ]


def timed(workload, data, expected, iset, seconds, tally, workdir) -> Dict[str, float]:
    results: List[Dict] = []
    calibrations: List[float] = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        for unit in workload.units(data):
            calibrations.append(workload.calibration[0]())
            results.append(workload.run_unit(unit, expected, iset, tally, workdir))
    raw = workload.summarize(results)
    scale = host_scale(workload.calibration, calibrations)
    print(
        f"perfbench: {len(results)} timed units, {raw.pop('samples')} latency samples; "
        f"as measured on this host: {json.dumps(raw)}; host time x {scale:.4f} "
        f"= reference host time ({len(calibrations)} calibrations)"
    )
    out = {
        "tasks_per_s": raw["tasks_per_s"] / scale,
        "events_per_s": raw["events_per_s"] / scale,
        "nest_s_p50": raw["nest_s_p50"] * scale,
    }
    ru = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out["peak_rss_mb"] = ru / 1024.0
    return out


def traced(workload, data, expected, iset, seconds, tally, workdir) -> Dict[str, float]:
    """Alternate untraced and traced passes; per-layer numbers are
    per-pass means over the traced passes."""
    from repro.obs import snapshot

    tracer = spans.Tracer()
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    cpu = worker_cpu = other = 0.0
    self_s, calls, counts, caches, outcome = (Counter() for _ in range(5))
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        plain = run_pass(workload, data, expected, iset, tally, workdir)
        plain_walls.append(sum(r["wall"] for r in plain))
        cpu += sum(r["cpu"] for r in plain)
        worker_cpu += sum(r["worker_cpu"] for r in plain)

        tracer.reset()
        tracer.install()
        try:
            results = []
            snaps = []
            for unit in workload.units(data):
                results.append(workload.run_unit(unit, expected, iset, tally, workdir, tracer))
                snaps.append(snapshot())
        finally:
            tracer.uninstall()
        traced_walls.append(sum(r["wall"] for r in results))
        for key in ("compile_hits", "compile_misses", "baseline_hits", "baseline_misses"):
            outcome[key] += sum(r.get(key, 0) for r in results)

        trees = [(tracer.spans, tracer.counts, snaps)] + [
            (t["spans"], t["counts"], [t["snapshot"]])
            for _seq, t in tracer.worker_traces.values()
        ]
        for tree_spans, tree_counts, tree_snaps in trees:
            s, c, roots = spans.self_times(tree_spans)
            total = sum(s.values())
            if abs(total - roots) > RECONCILE_TOLERANCE * max(roots, 1e-3):
                tally.add(0, 1, f"trace does not reconcile: self {total} vs wall {roots}")
            other += s.pop(spans.ROOT, 0.0)
            self_s.update(s)
            calls.update(c)
            counts.update(tree_counts)
            for snap in tree_snaps:
                caches.update(cache_counts(snap))

    n = len(traced_walls)
    jobs = workload.jobs
    plain_total = sum(plain_walls)
    out = {f"{name}_s": self_s[name] / n for _o, _a, name in spans.ENTRY_POINTS}
    out.update(
        {
            "driver.compile_calls": calls["driver.compile"] / n,
            "campaign.store_appends": calls["campaign.store_append"] / n,
            "machine.pricing_calls": calls["machine.pricing"] / n,
            "runtime.events": counts["runtime.events"] / n,
            "runtime.messages": counts["runtime.messages"] / n,
            "linalg.cache_hit_ratio": ratio(
                caches["linalg_hits"], caches["linalg_hits"] + caches["linalg_misses"]
            ),
            "machine.route_cache_hit_ratio": ratio(
                caches["route_hits"], caches["route_hits"] + caches["route_misses"]
            ),
            "machine.route_builds": caches["route_misses"] / n,
            "campaign.compile_cache_hit_ratio": ratio(
                outcome["compile_hits"], outcome["compile_hits"] + outcome["compile_misses"]
            ),
            "campaign.baseline_cache_hit_ratio": ratio(
                outcome["baseline_hits"], outcome["baseline_hits"] + outcome["baseline_misses"]
            ),
            "campaign.executors.worker_cpu_s": worker_cpu / len(plain_walls),
            "campaign.executors.idle_share": 1.0 - cpu / (plain_total * jobs),
            "obs.trace_overhead_ratio": statistics.median(traced_walls)
            / statistics.median(plain_walls)
            - 1.0,
            "other_s": other / n,
            "trace_wall_s": sum(traced_walls) / n,
        }
    )
    print(f"perfbench: {len(plain_walls)} untraced and {n} traced passes")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

UNITS = {
    "tasks_per_s": "tasks/s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MiB",
    "driver.compile_calls": "count",
    "campaign.store_appends": "count",
    "machine.pricing_calls": "count",
    "runtime.events": "count",
    "runtime.messages": "count",
    "machine.route_builds": "count",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ratio" if name.endswith(("_ratio", "_share")) else "s"


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the program (NumPy
    included), as a user's first command pays it."""
    code = "import numpy, repro, repro.campaign"
    env = dict(os.environ, PYTHONPATH=inputs.SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        print(
            f"perfbench: refusing to time with {', '.join(knobs)} set; the "
            "benchmark measures the shipped defaults",
            file=sys.stderr,
        )
        return 2
    inputs.use_source_tree()

    import numpy
    import repro.campaign  # noqa: F401

    expected = inputs.load_expected()
    workload = WORKLOADS[args.workload]()
    iset = inputs.input_set(args.seed)
    import_times, gen_times, calibrations = [], [], []
    for _ in range(SETUP_REPEATS):
        calibrations.append(interpreter_work())
        import_times.append(import_seconds())
        inputs.clear_library_caches()
        calibrations.append(interpreter_work())
        t0 = time.perf_counter()
        data = workload.make_inputs(iset)
        gen_times.append(time.perf_counter() - t0)
    setup_s = (statistics.median(import_times) + statistics.median(gen_times)) * host_scale(
        INTERPRETER, calibrations
    )

    print(
        f"perfbench: workload={args.workload} seed={args.seed} input_set={iset} "
        f"jobs={workload.jobs} nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )
    tally = Tally()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=inputs.ROOT)
    try:
        run = traced if args.trace else timed
        metrics = run(workload, data, expected, iset, args.seconds, tally, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        reap_children()
    if not args.trace:
        metrics["setup_s"] = setup_s
    for problem in tally.problems[:10]:
        print(f"perfbench: WRONG {problem}")
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
