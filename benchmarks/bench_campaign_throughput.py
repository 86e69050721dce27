"""Campaign throughput: nests compiled + priced per second.

Not a paper artefact — a subsystem health benchmark for
:mod:`repro.campaign`: the gate grid (generated workloads + the named
corpus against Paragon and CM-5 models on two mesh sizes — a
**multi-cell** grid with 4 machine x mesh cells per nest) must complete
with **all tasks ok and zero error records** (the CI shape gate),
resume must be a no-op on a completed run, and the measured throughput
lands in ``BENCH_campaign.json`` so the compile-rate trajectory is
tracked per PR.

Since the compile-once/price-many split, the recorded section also
carries the compile-cache hit/miss counts (one compile per nest, K - 1
hits for the other cells) and a ``tasks_per_second_delta`` against the
previous ``BENCH_campaign.json`` on disk.

Since batched whole-group pricing, the perf floor moved to where the
optimization lives: the polyhedral compile of PR 5 made the cold run
compile-bound (~0.7 s for 16 nests caps the cold grid near 100/s no
matter how fast pricing gets), so the cold pool run keeps only the
shape gate and the trend stats, while a **steady-state** inline run —
compile LRU and baseline-price memo warm, i.e. the price-bound
compile-once/price-many regime the campaign layer is built around —
must clear ``max(SPEEDUP_FLOOR x 36.04, TASKS_PER_SECOND_FLOOR)`` =
200 tasks/s.  Enforced under ``REPRO_PERF_STRICT=1`` (``run_all.py
--timed``), warned otherwise, same policy as ``bench_perf_core.py``.

``test_batched_vs_per_cell_speedup`` additionally measures the batched
whole-group pricing path against the per-task loop on a rank-weights
swept grid (where the baseline price memo also gets to hit), asserts
the two paths write identical deterministic records, and records the
speedup and baseline-cache hit rate under ``batched_pricing``.
"""

import json
import os
import time
import warnings

import pytest

from repro.campaign import (
    CampaignConfig,
    RunStore,
    clear_baseline_cache,
    clear_compile_cache,
    compile_cache_stats,
    default_spec,
    run_campaign,
    set_baseline_cache_size,
    set_compile_cache_dir,
    set_group_pricing,
    summarize_results,
)
from repro.campaign.sweep import canonical_json, group_by_compile_key

SEED = 0
NESTS = 8
JOBS = 2
#: two meshes x two machines = 4 price cells per compiled nest
MESHES = ((4, 4), (2, 2))

#: tasks/s of the recompile-every-cell runner on this box (the
#: ``grid_2d`` value recorded before the compile-once/price-many +
#: vectorized-executor work) and the floor the new runner must clear
BASELINE_TASKS_PER_SECOND = 36.04
SPEEDUP_FLOOR = 3.0
#: absolute steady-state floor since batched whole-group pricing landed
TASKS_PER_SECOND_FLOOR = 200.0
#: cold-run floor with a *warm disk* compile cache (fresh process, no
#: in-memory caches, every compile a disk hit) — the warm-start regime
#: of CI re-runs and the future ``repro serve`` daemon
COLD_TASKS_PER_SECOND_FLOOR = 200.0
#: cold-run floor with **no** disk tier at all — every compile real,
#: every price cold.  Out of reach while pricing was per-phase
#: (~148/s); the fused segmented kernels put the fully-cold run past
#: the same 200/s bar the other regimes gate
COLD_NODISK_TASKS_PER_SECOND_FLOOR = 200.0
#: the int64 Fourier–Motzkin kernel against the exact Fraction twin,
#: measured on the FM systems the reference grid's compiles actually run
FM_INTEGER_SPEEDUP_FLOOR = 3.0
STRICT = os.environ.get("REPRO_PERF_STRICT", "") == "1"


def _grid():
    spec = default_spec(seed=SEED, nests=NESTS, meshes=MESHES)
    return spec, spec.expand()


def _previous(key: str) -> float:
    """A ``grid_2d`` stat currently on disk (for the trend deltas)."""
    from _harness import previous_stat

    return previous_stat("campaign", "grid_2d", key)


def test_campaign_default_grid_gate(tmp_path, benchmark):
    """Shape gate + throughput measurement on the multi-cell grid."""
    spec, tasks = _grid()
    meta = {"spec_digest": spec.digest()}
    out = str(tmp_path / "bench.jsonl")
    nests = len({t.compile_key for t in tasks})
    assert len(tasks) == 4 * nests  # 4 cells per compiled nest

    # three measured runs, median wall recorded: pool workers compile
    # cold every run (the LRU lives in the short-lived workers), and a
    # single sample is too noisy for the 5% cross-artifact tolerance
    # bench_trace_overhead.py applies to this number
    walls = []
    outcome = None
    for _ in range(3):
        t0 = time.perf_counter()
        o = run_campaign(tasks, out, CampaignConfig(jobs=JOBS), meta=meta)
        walls.append(time.perf_counter() - t0)
        outcome = outcome or o
    wall = sorted(walls)[1]

    benchmark(
        lambda: run_campaign(
            tasks, out, CampaignConfig(jobs=JOBS), meta=meta
        )
    )

    # --- the gate: every task completes, zero errors/timeouts ---------
    assert outcome.ran == len(tasks)
    assert outcome.ok == len(tasks)
    assert outcome.errors == 0
    assert outcome.timeouts == 0

    # compile-once/price-many: exactly one compile per nest, the other
    # K - 1 cells hit the per-worker cache (grouping makes this exact)
    assert outcome.compile_cache_misses == nests
    assert outcome.compile_cache_hits == len(tasks) - nests

    # resume on a completed checkpoint is a no-op
    again = run_campaign(tasks, out, resume=True, meta=meta)
    assert again.ran == 0 and again.prior == len(tasks)

    _, results = RunStore(out).load()
    rows = summarize_results(results.values())
    assert all(row["errors"] == 0 and row["timeouts"] == 0 for row in rows)
    # the two-step heuristic should never *lose* to greedy step 1
    assert all(
        row["residuals"] <= row["baseline_residuals"] for row in rows
    )

    tasks_per_second = len(tasks) / wall

    # steady-state: the compile LRU and the baseline-price memo are
    # process-persistent, so a repeat campaign is price-bound — the
    # regime the batched group pricing optimizes and the floor gates.
    # One inline warm-up run fills both caches, the second is measured.
    run_campaign(
        tasks, str(tmp_path / "warmup.jsonl"),
        CampaignConfig(jobs=1), meta=meta,
    )
    t0 = time.perf_counter()
    steady = run_campaign(
        tasks, str(tmp_path / "steady.jsonl"),
        CampaignConfig(jobs=1), meta=meta,
    )
    steady_wall = time.perf_counter() - t0
    assert steady.ok == len(tasks) and steady.errors == 0
    # every baseline price is a memo hit in steady state
    assert steady.baseline_cache_hits == len(tasks)
    steady_tasks_per_second = len(tasks) / steady_wall

    floor = max(
        SPEEDUP_FLOOR * BASELINE_TASKS_PER_SECOND, TASKS_PER_SECOND_FLOOR
    )
    if steady_tasks_per_second < floor:
        msg = (
            f"steady-state campaign throughput "
            f"{steady_tasks_per_second:.1f} tasks/s below the floor of "
            f"{floor:.0f}/s (max of {SPEEDUP_FLOOR}x the recompiling "
            f"baseline {BASELINE_TASKS_PER_SECOND}/s and the "
            f"batched-pricing floor {TASKS_PER_SECOND_FLOOR:.0f}/s)"
        )
        if STRICT:
            pytest.fail(msg)
        warnings.warn(msg + " (non-strict mode: recorded, not failed)")

    from _harness import mean_residual_ratio, record_bench

    # per-group Feautrier residual ratios: the scenario-quality trend
    # line recorded next to the throughput trend
    mean_ratio = mean_residual_ratio(rows)
    compile_seconds = sum(r.seconds for r in results.values())
    prev = _previous("tasks_per_second")
    prev_ratio = _previous("mean_residual_ratio")
    prev_steady = _previous("steady_state_tasks_per_second")

    # the 2-D entry of BENCH_campaign.json; bench_mesh3d_e2e.py records
    # the 3-D (t3d) grid under "grid_3d" in the same artifact
    record_bench(
        "campaign",
        {
            "seed": SEED,
            "generated_nests": NESTS,
            "meshes": ["x".join(str(d) for d in mm) for mm in MESHES],
            "tasks": len(tasks),
            "jobs": JOBS,
            "wall_seconds": round(wall, 3),
            "task_compile_seconds": round(compile_seconds, 3),
            # one task = one grid cell priced; with the compile cache a
            # nest compiles once and prices on every cell, so the two
            # rates differ by the cells-per-nest factor now
            "tasks_per_second": round(tasks_per_second, 2),
            "nests_compiled_per_second": round(tasks_per_second, 2),
            "unique_compiles": outcome.compile_cache_misses,
            "compile_cache": {
                "hits": outcome.compile_cache_hits,
                "misses": outcome.compile_cache_misses,
            },
            # no knob sweep on this grid: every (workload, machine,
            # mesh) baseline is distinct, so hits stay 0 here — the
            # sweep-shaped hit rate lands under "batched_pricing"
            "baseline_cache": {
                "hits": outcome.baseline_cache_hits,
                "misses": outcome.baseline_cache_misses,
            },
            "tasks_per_second_prev": prev,
            "tasks_per_second_delta": round(tasks_per_second - prev, 2),
            # price-bound repeat run (warm compile LRU + baseline memo):
            # the number the 200/s floor gates
            "steady_state_wall_seconds": round(steady_wall, 3),
            "steady_state_tasks_per_second": round(
                steady_tasks_per_second, 2
            ),
            "steady_state_tasks_per_second_prev": prev_steady,
            "steady_state_tasks_per_second_delta": round(
                steady_tasks_per_second - prev_steady, 2
            ),
            "steady_state_speedup_vs_recompiling_baseline": round(
                steady_tasks_per_second / BASELINE_TASKS_PER_SECOND, 2
            ),
            "tasks_per_second_floor": TASKS_PER_SECOND_FLOOR,
            "mean_residual_ratio": round(mean_ratio, 4),
            "mean_residual_ratio_prev": prev_ratio,
            "mean_residual_ratio_delta": round(mean_ratio - prev_ratio, 4),
            "baseline_tasks_per_second": BASELINE_TASKS_PER_SECOND,
            "speedup_vs_recompiling_baseline": round(
                tasks_per_second / BASELINE_TASKS_PER_SECOND, 2
            ),
            "summary_rows": rows,
        },
        section="grid_2d",
    )


def test_batched_vs_per_cell_speedup(tmp_path, benchmark):
    """Batched whole-group pricing vs the per-task loop, measured on a
    rank-weights swept grid (the shape the baseline memo exists for:
    half the baselines are pure re-prices).  The two paths must write
    identical deterministic records; the speedup and baseline-cache
    hit rate land under ``batched_pricing``."""
    spec = default_spec(
        seed=SEED, nests=4, include_corpus=False,
        meshes=MESHES, rank_weights=(True, False),
    )
    tasks = spec.expand()
    meta = {"spec_digest": spec.digest()}
    cells = len(tasks) // 2  # distinct (workload, machine, mesh)

    def run(name, *, batched):
        path = str(tmp_path / f"{name}.jsonl")
        clear_compile_cache()
        clear_baseline_cache()
        prev_gp = set_group_pricing(batched)
        prev_bc = set_baseline_cache_size(512 if batched else 0)
        t0 = time.perf_counter()
        try:
            outcome = run_campaign(
                tasks, path, CampaignConfig(jobs=1), meta=meta
            )
        finally:
            set_group_pricing(prev_gp)
            set_baseline_cache_size(prev_bc)
        wall = time.perf_counter() - t0
        assert outcome.ok == len(tasks) and outcome.errors == 0
        _, results = RunStore(path).load()
        return outcome, results, wall

    per_cell_outcome, per_cell, per_cell_wall = run(
        "per_cell", batched=False
    )
    batched_outcome, batched, batched_wall = run("batched", batched=True)

    # --- the gate: record-for-record byte identity ---------------------
    assert set(batched) == set(per_cell)
    for tid in batched:
        assert canonical_json(
            batched[tid].deterministic_dict()
        ) == canonical_json(per_cell[tid].deterministic_dict()), tid

    # the sweep shape delivers: one baseline priced per cell, the
    # second knob value's baseline is a memo hit
    assert batched_outcome.baseline_cache_misses == cells
    assert batched_outcome.baseline_cache_hits == cells
    assert per_cell_outcome.baseline_cache_hits == 0

    benchmark(
        lambda: run_campaign(
            tasks, str(tmp_path / "b.jsonl"),
            CampaignConfig(jobs=1), meta=meta,
        )
    )

    speedup = per_cell_wall / batched_wall if batched_wall else 0.0
    hits = batched_outcome.baseline_cache_hits
    misses = batched_outcome.baseline_cache_misses
    from _harness import record_bench

    record_bench(
        "campaign",
        {
            "seed": SEED,
            "tasks": len(tasks),
            "meshes": ["x".join(str(d) for d in mm) for mm in MESHES],
            "rank_weights_swept": True,
            "per_cell_wall_seconds": round(per_cell_wall, 3),
            "batched_wall_seconds": round(batched_wall, 3),
            "batched_speedup": round(speedup, 2),
            "batched_tasks_per_second": round(
                len(tasks) / batched_wall, 2
            ),
            "baseline_cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / (hits + misses), 3),
            },
        },
        section="batched_pricing",
    )


def test_fused_pricing_vs_reference(tmp_path, benchmark):
    """Fused segmented pricing on the reference grid against the
    per-event reference: the production path and a per-task run priced
    by ``execute_python`` must write identical deterministic records,
    and the fused run's wall and phase/kernel counts land under
    ``fused_pricing`` — the attribution record for the fully-cold
    throughput gate in ``test_cold_compile_disk_cache``."""
    import cProfile
    import pstats

    import repro.runtime
    from repro.campaign import set_group_pricing
    from repro.obs import clear_spans, set_enabled, span_snapshot

    spec, tasks = _grid()
    meta = {"spec_digest": spec.digest()}

    def run(name):
        path = str(tmp_path / f"{name}.jsonl")
        clear_compile_cache()
        clear_baseline_cache()
        t0 = time.perf_counter()
        outcome = run_campaign(tasks, path, CampaignConfig(jobs=1), meta=meta)
        wall = time.perf_counter() - t0
        assert outcome.ok == len(tasks) and outcome.errors == 0
        _, results = RunStore(path).load()
        return results, wall

    fused, fused_wall = run("fused")
    fast = repro.runtime.execute
    prev = set_group_pricing(False)
    repro.runtime.execute = repro.runtime.execute_python
    try:
        reference, _ = run("reference")
    finally:
        repro.runtime.execute = fast
        set_group_pricing(prev)

    # --- the gate: record-for-record byte identity ---------------------
    assert set(fused) == set(reference)
    for tid in fused:
        assert canonical_json(
            fused[tid].deterministic_dict()
        ) == canonical_json(reference[tid].deterministic_dict()), tid

    # segment accounting: spans count *phases* (one exec.segmented span
    # per kernel launch, count = phases priced), the profile counts
    # kernel launches and leftover per-phase calls
    clear_compile_cache()
    clear_baseline_cache()
    prev_trace = set_enabled(True)
    clear_spans()
    prof = cProfile.Profile()
    try:
        prof.runcall(
            run_campaign, tasks, str(tmp_path / "prof.jsonl"),
            CampaignConfig(jobs=1), meta=meta,
        )
    finally:
        set_enabled(prev_trace)
    phases_priced = sum(
        int(e["count"])
        for p, e in span_snapshot().items()
        if p.endswith("exec.segmented")
    )
    clear_spans()
    counts = {}
    for (_f, _l, name), (_cc, nc, *_rest) in pstats.Stats(
        prof
    ).stats.items():
        if name in ("phase_times_segmented", "phase_time_arrays"):
            counts[name] = counts.get(name, 0) + nc
    kernel_launches = counts.get("phase_times_segmented", 0)
    assert kernel_launches > 0
    assert phases_priced >= kernel_launches
    assert counts.get("phase_time_arrays", 0) == 0

    benchmark(lambda: run("bench"))

    from _harness import record_bench

    record_bench(
        "campaign",
        {
            "seed": SEED,
            "tasks": len(tasks),
            "fused_wall_seconds": round(fused_wall, 3),
            "fused_tasks_per_second": round(len(tasks) / fused_wall, 2),
            "phases_priced": phases_priced,
            "segmented_kernel_launches": kernel_launches,
            "phases_per_launch": round(
                phases_priced / kernel_launches, 2
            ),
            "phase_time_arrays_calls_on_fused_path": counts.get(
                "phase_time_arrays", 0
            ),
        },
        section="fused_pricing",
    )


def test_cold_compile_disk_cache(tmp_path, benchmark):
    """The cold-start family: how fast is a *fresh process* campaign
    with and without a warm persistent compile cache, and how much of
    the remaining cold compile the integer Fourier–Motzkin kernel saves
    over the ``Fraction`` baseline.

    Three inline cold runs (in-memory caches cleared before each, so
    every compile is real): no disk tier, disk tier populating, disk
    tier warm.  The warm-disk cold run — the regime of CI re-runs and a
    restarted pricing service — must clear
    ``COLD_TASKS_PER_SECOND_FLOOR`` under ``REPRO_PERF_STRICT=1``.  The
    FM comparison replays the exact systems the reference grid's
    compiles ran, asserts verdict-for-verdict identity, and gates the
    kernel speedup at ``FM_INTEGER_SPEEDUP_FLOOR``.
    """
    spec, tasks = _grid()
    meta = {"spec_digest": spec.digest()}
    nests = len({t.compile_key for t in tasks})
    disk = str(tmp_path / "compile-cache")

    def cold_run(name, disk_dir):
        clear_compile_cache()
        clear_baseline_cache()
        prev = set_compile_cache_dir(disk_dir)
        t0 = time.perf_counter()
        try:
            outcome = run_campaign(
                tasks, str(tmp_path / f"{name}.jsonl"),
                CampaignConfig(jobs=1), meta=meta,
            )
        finally:
            set_compile_cache_dir(prev)
        wall = time.perf_counter() - t0
        assert outcome.ok == len(tasks) and outcome.errors == 0
        return outcome, wall, compile_cache_stats()

    nodisk_outcome, nodisk_wall, nodisk_stats = cold_run("nodisk", None)
    # cold by construction: the in-memory LRU starts empty
    assert nodisk_outcome.compile_cache_misses == nests
    assert nodisk_stats["disk_writes"] == 0
    _, populate_wall, populate_stats = cold_run("populate", disk)
    assert populate_stats["disk_writes"] == nests
    warm_outcome, warm_wall, warm_stats = cold_run("warm", disk)
    # a disk hit is a compile the task never paid: every task reports a
    # cache hit even though the in-memory LRU started empty
    assert warm_outcome.compile_cache_hits == len(tasks)
    assert warm_stats["disk_hits"] == nests
    assert warm_stats["disk_misses"] == 0

    benchmark(lambda: cold_run("bench", disk))

    cold_tps = len(tasks) / nodisk_wall
    warm_tps = len(tasks) / warm_wall
    if warm_tps < COLD_TASKS_PER_SECOND_FLOOR:
        msg = (
            f"warm-disk cold campaign ran {warm_tps:.1f} tasks/s, below "
            f"the {COLD_TASKS_PER_SECOND_FLOOR:.0f}/s cold-start floor"
        )
        if STRICT:
            pytest.fail(msg)
        warnings.warn(msg + " (non-strict mode: recorded, not failed)")
    # since fused segmented pricing, even the fully-cold run (no disk
    # tier, every compile real) must clear the cold-start bar
    if cold_tps < COLD_NODISK_TASKS_PER_SECOND_FLOOR:
        msg = (
            f"no-disk cold campaign ran {cold_tps:.1f} tasks/s, below "
            f"the {COLD_NODISK_TASKS_PER_SECOND_FLOOR:.0f}/s fully-cold "
            f"floor (fused segmented pricing regression?)"
        )
        if STRICT:
            pytest.fail(msg)
        warnings.warn(msg + " (non-strict mode: recorded, not failed)")

    # --- integer FM kernel vs the exact Fraction twin -------------------
    # record every system the reference compiles actually run (memo off
    # so repeats aren't hidden), then replay both kernels on the corpus
    from fractions import Fraction

    from repro.campaign.runner import _compile_for_task
    from repro.ir import dependence as dep
    from repro.ir import set_dependence_cache_size

    systems = []
    real = dep._fm_feasible

    def recorder(rows, nvars):
        systems.append(([list(r) for r in rows], nvars))
        return real(rows, nvars)

    prev_size = set_dependence_cache_size(0)
    clear_compile_cache()
    dep._fm_feasible = recorder
    try:
        for group in group_by_compile_key(tasks):
            _compile_for_task(group[0])
    finally:
        dep._fm_feasible = real
        set_dependence_cache_size(prev_size)
        clear_compile_cache()
    assert systems, "reference compiles ran no FM systems"

    frac_systems = [
        ([(tuple(r[:nv]), r[nv]) for r in rows], nv) for rows, nv in systems
    ]
    # best-of-N passes per kernel: the corpus is small enough that a
    # single sweep is noise-bound, and the floor gates the stable ratio
    fm_passes = 5
    frac_seconds = float("inf")
    for _ in range(fm_passes):
        t0 = time.perf_counter()
        frac_verdicts = [
            dep._fourier_motzkin_fraction(iq, nv) for iq, nv in frac_systems
        ]
        frac_seconds = min(frac_seconds, time.perf_counter() - t0)
    int_seconds = float("inf")
    for _ in range(fm_passes):
        t0 = time.perf_counter()
        int_verdicts = [dep._fm_feasible(rows, nv) for rows, nv in systems]
        int_seconds = min(int_seconds, time.perf_counter() - t0)

    # bit-identical verdicts over the whole corpus, or the speedup is void
    assert int_verdicts == frac_verdicts
    fm_speedup = frac_seconds / int_seconds if int_seconds else 0.0
    if fm_speedup < FM_INTEGER_SPEEDUP_FLOOR:
        msg = (
            f"integer FM kernel speedup {fm_speedup:.2f}x below the "
            f"{FM_INTEGER_SPEEDUP_FLOOR}x floor over the Fraction "
            f"baseline ({len(systems)} systems)"
        )
        if STRICT:
            pytest.fail(msg)
        warnings.warn(msg + " (non-strict mode: recorded, not failed)")

    from _harness import previous_stat, record_bench

    prev_warm = previous_stat(
        "campaign", "cold_compile", "warm_disk_tasks_per_second"
    )
    record_bench(
        "campaign",
        {
            "seed": SEED,
            "tasks": len(tasks),
            "unique_compiles": nests,
            "no_disk_wall_seconds": round(nodisk_wall, 3),
            "no_disk_tasks_per_second": round(cold_tps, 2),
            "populate_wall_seconds": round(populate_wall, 3),
            "warm_disk_wall_seconds": round(warm_wall, 3),
            "warm_disk_tasks_per_second": round(warm_tps, 2),
            "warm_disk_tasks_per_second_prev": prev_warm,
            "warm_disk_tasks_per_second_delta": round(
                warm_tps - prev_warm, 2
            ),
            "warm_disk_speedup_vs_no_disk": round(
                nodisk_wall / warm_wall, 2
            ),
            "cold_tasks_per_second_floor": COLD_TASKS_PER_SECOND_FLOOR,
            "cold_nodisk_tasks_per_second_floor": (
                COLD_NODISK_TASKS_PER_SECOND_FLOOR
            ),
            "disk_cache": {
                "writes": populate_stats["disk_writes"],
                "hits": warm_stats["disk_hits"],
                "misses": warm_stats["disk_misses"],
            },
            "fm_systems": len(systems),
            "fm_fraction_seconds": round(frac_seconds, 4),
            "fm_integer_seconds": round(int_seconds, 4),
            "fm_integer_speedup": round(fm_speedup, 2),
            "fm_integer_speedup_floor": FM_INTEGER_SPEEDUP_FLOOR,
        },
        section="cold_compile",
    )
