#!/usr/bin/env python3
"""Run every ``bench_*.py`` non-interactively and track the results.

CI / per-PR entry point::

    python benchmarks/run_all.py            # fast: shape claims only
    python benchmarks/run_all.py --timed    # full pytest-benchmark timing
    python benchmarks/run_all.py --match fig  # subset by filename substring
    python benchmarks/run_all.py --profile  # cProfile hotspots -> BENCH_profile.json

Each benchmark file runs in its own pytest subprocess (``PYTHONPATH``
is set up automatically, so this works from a clean checkout).  Shape
claims — the asserts inside the bench tests about who wins, orderings
and speedup floors — always run; ``--timed`` additionally lets
pytest-benchmark do its calibrated timing rounds instead of a single
pass.  Benchmarks that call ``record_bench`` refresh their
``BENCH_<name>.json`` artifacts as they go, and a ``BENCH_run_all.json``
summary (per-file status and wall time) is always written.

Exit status is nonzero iff any benchmark fails, so a shape-claim or
speedup regression fails the pipeline.

Registered subsystem gates (beyond the paper artefacts):

* ``bench_perf_core.py`` — vectorized mesh core speedups (PERFORMANCE.md);
* ``bench_campaign_throughput.py`` — the campaign subsystem's default
  grid must complete with every task ok and zero error/timeout records,
  resume must be a no-op on a completed checkpoint, and the measured
  nests-compiled-per-second lands in ``BENCH_campaign.json`` (section
  ``grid_2d``); its ``cold_compile`` family additionally gates the
  cold-start path in strict mode: a cold run against a warm
  ``REPRO_CAMPAIGN_COMPILE_DIR`` disk cache must reach >= 200 tasks/s
  and the integer Fourier-Motzkin kernel must hold a >= 3x speedup
  (bit-identical verdicts) over the ``Fraction`` baseline on the
  systems the reference compiles actually run;
* ``bench_mesh3d_e2e.py`` — the same gate for the m = 3 path: a small
  campaign grid against ``t3d`` on a ``2x2x2`` cube, recorded under
  ``grid_3d`` in the same artifact;
* ``bench_runtime_exec.py`` — vectorized runtime executor vs the
  per-element Python baseline (bit-identity + >= 5x floor), recorded in
  ``BENCH_runtime_exec.json``;
* ``bench_legality.py`` — vectorized schedule-legality checker vs the
  per-element Python baseline (bit-identity on seed + 50 generated
  workloads always; >= 5x floor in strict mode), recorded in
  ``BENCH_legality.json``;
* ``bench_triangular_campaign.py`` — the triangular-domain campaign
  gate (LU/Cholesky/back-substitution corpus + generated triangular
  nests against ``paragon`` 4x4 and ``t3d`` 2x2x2, zero error records),
  recorded under ``grid_triangular`` in ``BENCH_campaign.json``;
* ``bench_chaos.py`` — the robustness gate: a campaign with injected
  worker kills, SIGALRM-proof hangs and transient failures (the
  ``REPRO_FAULT_INJECT`` harness) must complete under the ``resilient``
  executor with every fault as a typed record, then converge
  bit-identically to the unfaulted run on a ``retry_failures`` resume
  (and self-heal in-run with ``retries=2``); measurements in
  ``BENCH_chaos.json``;
* ``bench_trace_overhead.py`` — the observability gate: tracing
  disabled (the default) must cost <= 5% of the recorded ``grid_2d``
  throughput (a disabled ``span()`` is pinned to nanoseconds), and a
  traced run's per-stage totals (compile + price + executor overhead)
  must sum exactly to the summed task wall time with the instrumented
  stages covering >= 50% of it; the stage shares land in
  ``BENCH_trace.json`` (section ``grid_2d``).

``--profile`` runs the reference scenarios (a *cold* inline campaign
grid + the reference pricing workload) under ``cProfile`` and writes
the top cumulative-time hotspots to ``BENCH_profile.json`` — the
per-PR answer to "where do the cycles go now?".  Since the legality
fast path landed it also *asserts* that ``schedule_is_legal`` has left
the top-10 hotspot list, and since the cold-compile fast path landed
(integer FM kernel + dependence memoization) it asserts that pricing,
not the compile stage, owns the cold profile — compile cumulative time
below batched pricing and every Fraction-FM helper out of the top-10
(exit 1 if either compile-side regression ever returns).  Since the
fused segmented pricing kernels it further asserts the per-phase
pricing entry point (``phase_time_arrays``) stays below
``PHASE_CALL_CEILING`` calls and ``phase_times_segmented`` actually
ran — the call-count record lands in the same artifact
(``phase_time_arrays_calls`` / ``segmented_kernel_launches``).
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: hotspot rows kept in BENCH_profile.json
PROFILE_TOP_N = 30

#: ceiling on per-phase pricing calls (`phase_time_arrays`) in the
#: reference profile — ~1,300 before the fused segmented kernels, ~0
#: after (the slack covers exact-magnitude fallbacks, not a path
#: regression)
PHASE_CALL_CEILING = 48


def run_profile(top_n: int = PROFILE_TOP_N) -> int:
    """Profile the reference scenarios and record the hotspots.

    Runs (in-process, ``jobs=1`` so worker time is attributed) a small
    campaign grid — compile + price over the default workload corpus —
    and the reference pricing workload of ``bench_runtime_exec.py``,
    then writes the ``top_n`` functions by cumulative time to
    ``BENCH_profile.json``.
    """
    import cProfile
    import pstats

    sys.path.insert(0, SRC_DIR)
    from repro import compile_nest
    from repro.campaign import CampaignConfig, default_spec, run_campaign
    from repro.ir import motivating_example
    from repro.machine import ParagonModel
    from repro.runtime import execute

    import tempfile

    spec = default_spec(seed=0, nests=4, meshes=((4, 4), (2, 2)))
    tasks = spec.expand()
    compiled = compile_nest(motivating_example(), m=2)
    machine = ParagonModel(4, 4)
    params = {"N": 14, "M": 14}

    prof = cProfile.Profile()
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "profile.jsonl")
        prof.enable()
        run_campaign(tasks, out, CampaignConfig(jobs=1), meta={})
        execute(compiled.program(machine, params), machine)
        prof.disable()
    wall = time.perf_counter() - t0

    stats = pstats.Stats(prof)
    stats.sort_stats("cumulative")
    rows = []
    for func, (cc, nc, tt, ct, _callers) in sorted(
        stats.stats.items(), key=lambda kv: -kv[1][3]
    ):
        fname, line, name = func
        rows.append(
            {
                "function": name,
                "file": os.path.relpath(fname, os.path.dirname(BENCH_DIR))
                if fname.startswith(os.path.dirname(BENCH_DIR))
                else fname,
                "line": line,
                "ncalls": nc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            }
        )
        if len(rows) >= top_n:
            break

    by_name: dict = {}
    for r in rows:
        by_name.setdefault(r["function"], r)
    compile_ct = by_name.get("_compile_for_task", {}).get("cumtime_s", 0.0)
    price_ct = by_name.get("price_group_batched", {}).get("cumtime_s", 0.0)

    # full-stats call counts (not just the top rows) for the fused
    # pricing gate: per-phase pricing calls vs kernel launches
    def _ncalls(fn_name: str) -> int:
        return sum(
            nc
            for (_f, _l, name), (_cc, nc, *_rest) in stats.stats.items()
            if name == fn_name
        )

    phase_array_calls = _ncalls("phase_time_arrays")
    kernel_launches = _ncalls("phase_times_segmented")

    from _harness import record_bench

    record_bench(
        "profile",
        {
            "scenario": (
                "cold campaign default grid (4 nests + corpus, meshes "
                "4x4+2x2, jobs=1, fresh process so every compile/"
                "dependence cache starts empty) + reference pricing "
                "workload (motivating example, N=M=14, 4x4 mesh)"
            ),
            "wall_seconds": round(wall, 3),
            "top_n": top_n,
            "compile_stage_cumtime_s": compile_ct,
            "pricing_stage_cumtime_s": price_ct,
            "phase_time_arrays_calls": phase_array_calls,
            "segmented_kernel_launches": kernel_launches,
            "phase_time_arrays_call_ceiling": PHASE_CALL_CEILING,
            "hotspots": rows,
        },
    )
    top = rows[:5]
    print("top cumulative hotspots:")
    for r in top:
        print(
            f"  {r['cumtime_s']:>8.3f}s  {r['function']} "
            f"({r['file']}:{r['line']})"
        )

    # the PR-5 regression gate: the legality checker's bounded witness
    # enumeration used to dominate compile time; the vectorized domain
    # path must keep it out of the top-10 hotspots
    offenders = [
        r["function"]
        for r in rows[:10]
        if r["function"] in ("schedule_is_legal", "schedule_violations")
    ]
    if offenders:
        print(
            f"FAIL: {', '.join(sorted(set(offenders)))} back in the "
            "top-10 hotspot list — the legality fast path regressed "
            "(see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    print("gate ok: schedule_is_legal is out of the top-10 hotspots")

    # the PR-9 regression gate: the *cold* run used to be compile-bound
    # (~0.7 s of Fraction Fourier-Motzkin to compile 16 nests).  With
    # the integer FM kernel + dependence memoization, pricing — the
    # paper-relevant work — must own the profile: the compile stage
    # stays below the batched pricer in cumulative time, and no
    # Fraction-arithmetic FM helper re-enters the top-10.  If either
    # trips, the cold-compile fast path has regressed and the artifact
    # would drift from the PERFORMANCE.md attribution prose.
    if price_ct and compile_ct >= price_ct:
        print(
            f"FAIL: compile stage ({compile_ct:.3f}s cumulative) has "
            f"overtaken batched pricing ({price_ct:.3f}s) in the cold "
            "profile — the integer FM kernel / dependence memo "
            "regressed (see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    fm_offenders = [
        r["function"]
        for r in rows[:10]
        if r["function"]
        in (
            "_fourier_motzkin",
            "_fourier_motzkin_fraction",
            "_test_dependence_uncached",
            "find_dependences",
        )
    ]
    if fm_offenders:
        print(
            f"FAIL: {', '.join(sorted(set(fm_offenders)))} back in the "
            "top-10 hotspot list — dependence analysis owns the cold "
            "profile again (see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    print(
        "gate ok: pricing owns the cold profile "
        f"(compile {compile_ct:.3f}s < pricing {price_ct:.3f}s cumulative)"
    )

    # fused segmented pricing collapsed this scenario's ~1,300
    # per-phase pricing calls into a few hundred whole-label kernel
    # launches.  Per-phase `phase_time_arrays` calls must stay below a
    # small constant — anything more means phases are leaking back onto
    # the per-phase kernel (an exact-magnitude fallback misfire) and the
    # cold-throughput gate in bench_campaign_throughput.py is living on
    # borrowed time.
    if phase_array_calls > PHASE_CALL_CEILING:
        print(
            f"FAIL: {phase_array_calls} "
            "phase_time_arrays calls in the reference profile, above the "
            f"ceiling of {PHASE_CALL_CEILING} — fused segmented pricing "
            "has regressed to per-phase calls (see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    if kernel_launches == 0:
        print(
            "FAIL: phase_times_segmented never ran in the reference "
            "profile — the fused pricing path is not engaged "
            "(see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    print(
        "gate ok: fused pricing engaged "
        f"({kernel_launches} segmented kernel launches, "
        f"{phase_array_calls} phase_time_arrays calls <= "
        f"{PHASE_CALL_CEILING})"
    )
    return 0


def bench_files(match: str = "") -> list:
    files = sorted(
        os.path.basename(f) for f in glob.glob(os.path.join(BENCH_DIR, "bench_*.py"))
    )
    return [f for f in files if match in f]


def run_one(fname: str, timed: bool) -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-m", "pytest", fname, "-q", "-p", "no:cacheprovider"]
    if timed:
        # timed runs are assumed quiet enough to enforce speedup floors
        env.setdefault("REPRO_PERF_STRICT", "1")
    else:
        cmd.append("--benchmark-disable")
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=BENCH_DIR, env=env, capture_output=True, text=True
    )
    seconds = time.perf_counter() - t0
    tail = []
    if proc.returncode:
        # stderr first: a subprocess that dies before pytest reporting
        # (usage error, missing plugin) only says why there
        tail = proc.stderr.strip().splitlines()[-10:]
        tail += proc.stdout.strip().splitlines()[-15:]
    return {
        "file": fname,
        "returncode": proc.returncode,
        "seconds": round(seconds, 3),
        "tail": tail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--timed",
        action="store_true",
        help="run full pytest-benchmark timing rounds (slower)",
    )
    parser.add_argument(
        "--match",
        default="",
        help="only run bench files whose name contains this substring",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the reference scenarios with cProfile and write "
        "the top cumulative hotspots to BENCH_profile.json (skips the "
        "benchmark suite)",
    )
    args = parser.parse_args(argv)

    if args.profile:
        sys.path.insert(0, BENCH_DIR)
        return run_profile()

    files = bench_files(args.match)
    if not files:
        print(f"no bench_*.py files match {args.match!r}", file=sys.stderr)
        return 2

    results = []
    failed = 0
    for fname in files:
        res = run_one(fname, args.timed)
        results.append(res)
        status = "ok" if res["returncode"] == 0 else f"FAIL (rc={res['returncode']})"
        print(f"  {fname:<42} {res['seconds']:>8.2f}s  {status}", flush=True)
        if res["returncode"]:
            failed += 1
            for line in res["tail"]:
                print(f"    | {line}")

    sys.path.insert(0, BENCH_DIR)
    from _harness import record_bench

    record_bench(
        "run_all",
        {
            "timed": args.timed,
            "match": args.match,
            "total": len(results),
            "failed": failed,
            "results": [
                {k: r[k] for k in ("file", "returncode", "seconds")} for r in results
            ],
        },
    )
    print(f"\n{len(results) - failed}/{len(results)} benchmarks ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
