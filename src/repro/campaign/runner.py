"""Parallel campaign execution with JSONL checkpoint/resume.

:func:`execute_task` compiles and prices one :class:`SweepTask` — the
two-step heuristic *and* the greedy Feautrier baseline on the same
machine model, so every record carries its heuristic-vs-baseline ratio.
:func:`run_campaign` drives a task list through a pluggable execution
backend (see :mod:`repro.campaign.executors`: ``inline``, ``pool``,
``resilient``), appending each result to the
:class:`~repro.campaign.store.RunStore` as it lands; killing the
process at any point loses at most the in-flight tasks, and re-running
with ``resume=True`` executes exactly the tasks whose results are not
on disk yet.

Failures are **typed**: every non-ok record carries an ``error_kind``
from the taxonomy in :data:`repro.campaign.store.ERROR_KINDS` —
``compile``/``price`` for deterministic stage failures, ``timeout``
for wall-clock caps and supervisor-detected hangs, ``crash`` for
worker death (the ``pool``/``resilient`` backends convert a SIGKILLed
worker into ``status="crashed"`` records instead of hanging the
campaign), ``oom`` for in-process memory exhaustion and ``fault`` for
injected transient failures.  Transient kinds are retried with capped
exponential backoff when ``CampaignConfig.retries`` is set; the
attempt count lands in ``TaskResult.attempts``.

**Compile once, price many**: the heuristic and the Feautrier baseline
depend only on ``(workload, m, heuristic knobs)`` — not on the machine
or the mesh — so the task execution is split into a *compile* stage
(cached per worker process in an LRU keyed by
:attr:`~repro.campaign.sweep.SweepTask.compile_key`) and a *price*
stage (per grid cell).  The runner additionally dispatches whole
compile-key groups to one worker (see
:func:`~repro.campaign.sweep.group_by_compile_key`), so a grid with K
machine x mesh cells per nest compiles each nest once instead of K
times regardless of pool scheduling.  Stored records are byte-identical
to a recompile-every-cell run (asserted in
``tests/campaign/test_compile_cache.py``); cache hits are reported in
memory only (``TaskResult.compile_cache_hit``,
``CampaignOutcome.compile_cache_hits``).  Knob:
``REPRO_CAMPAIGN_COMPILE_CACHE`` (entries per worker, default 32,
``0`` disables).  An optional **persistent disk tier** underneath the
LRU (``REPRO_CAMPAIGN_COMPILE_DIR`` / :func:`set_compile_cache_dir`)
shares compiled workloads across workers *and* runs — atomic pickles
keyed by ``compile_key`` plus a code-version fingerprint, where stale,
corrupt or truncated entries are misses, never errors.

Per-task failures never abort the campaign: exceptions become
``status="error"`` records, and a per-task wall-clock ``timeout``
(SIGALRM-based, skipped on platforms without it) becomes
``status="timeout"``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import tempfile
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .._config import env_int
from ..obs import (
    TraceWriter,
    capture,
    freeze_capture,
    merge_spans,
    span,
    span_snapshot,
)
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from . import faults
from .store import RunStore, TaskResult
from .sweep import (
    SweepTask,
    canonical_json,
    group_by_compile_key,
    order_groups_for_dispatch,
)


class CampaignSpecMismatch(RuntimeError):
    """Resuming with a grid that does not match the checkpoint's."""


class _TaskTimeout(Exception):
    pass


class _StageFailure(Exception):
    """Wraps a task exception with the pipeline stage it escaped from
    (the ``compile``/``price`` halves of the error taxonomy)."""

    def __init__(self, kind: str, exc: BaseException):
        super().__init__(str(exc))
        self.kind = kind
        self.exc = exc


def _alarm_handler(signum, frame):
    raise _TaskTimeout()


# ---------------------------------------------------------------------------
# compile stage — per-worker LRU over (workload, m, knobs)
# ---------------------------------------------------------------------------


@dataclass
class _CompiledWorkload:
    """Everything the price stage needs, machine/mesh independent."""

    compiled: object  # driver.CompiledNest
    baseline: object  # alignment.MappingResult (Feautrier, frozen)
    params: Dict[str, int]


#: per-process cache; fork workers start with the parent's (usually
#: empty) copy and populate their own
_compile_cache: "OrderedDict[str, _CompiledWorkload]" = OrderedDict()
_compile_cache_size: int = env_int("REPRO_CAMPAIGN_COMPILE_CACHE", 32)
#: hit/miss counts live in the obs metrics registry so one
#: ``obs.snapshot()`` covers this cache next to the linalg/route caches
_compile_hits = obs_metrics.counter("campaign.compile_cache.hits")
_compile_misses = obs_metrics.counter("campaign.compile_cache.misses")


def set_compile_cache_size(size: int) -> int:
    """Resize (``0`` disables) the per-worker compile cache; returns the
    previous size.  Affects the current process only — pool workers
    inherit whatever was set before the fork."""
    global _compile_cache_size
    prev = _compile_cache_size
    _compile_cache_size = size
    if size <= 0:
        _compile_cache.clear()
    while len(_compile_cache) > max(size, 0):
        _compile_cache.popitem(last=False)
    return prev


def compile_cache_stats() -> Dict[str, object]:
    """Hit/miss counters of *this* process's compile cache (both the
    in-memory LRU and the persistent disk tier)."""
    return {
        "hits": _compile_hits.value,
        "misses": _compile_misses.value,
        "size": len(_compile_cache),
        "maxsize": _compile_cache_size,
        "disk_hits": _disk_hits.value,
        "disk_misses": _disk_misses.value,
        "disk_writes": _disk_writes.value,
        "dir": _compile_cache_dir,
    }


def clear_compile_cache() -> None:
    _compile_cache.clear()
    _compile_hits.reset()
    _compile_misses.reset()
    _disk_hits.reset()
    _disk_misses.reset()
    _disk_writes.reset()


obs_metrics.register_provider("campaign.compile_cache", compile_cache_stats)


# ---------------------------------------------------------------------------
# compile stage, disk tier — persistent pickles shared across runs
# ---------------------------------------------------------------------------
#
# The in-memory LRU dies with the process, so every cold campaign, CI
# run and future ``repro serve`` start re-pays the full compile of every
# nest.  ``REPRO_CAMPAIGN_COMPILE_DIR`` (or set_compile_cache_dir) names
# a directory of pickled ``_CompiledWorkload`` entries keyed by
# ``compile_key`` *and* a fingerprint of the compile pipeline's source,
# so entries written by older code simply miss by filename.  Writes are
# atomic (temp file in the target directory + os.replace), which makes
# the directory safe to share between concurrent workers and runs: a
# reader sees either a complete entry or none.  Stale, corrupt or
# truncated entries are misses, never errors — the cache can only make
# a run faster, not break it.  Stored task records are byte-identical
# with the tier on or off (asserted in
# ``tests/campaign/test_compile_disk_cache.py``): the pickle carries the
# same frozen compile outputs a fresh compile produces.

_compile_cache_dir: Optional[str] = (
    os.environ.get("REPRO_CAMPAIGN_COMPILE_DIR") or None
)
_disk_hits = obs_metrics.counter("campaign.compile_cache.disk_hits")
_disk_misses = obs_metrics.counter("campaign.compile_cache.disk_misses")
_disk_writes = obs_metrics.counter("campaign.compile_cache.disk_writes")

_code_fingerprint_cache: Optional[str] = None

#: packages whose source feeds the disk-cache fingerprint — everything
#: the compile stage's outputs depend on
_FINGERPRINT_PACKAGES = (
    "ir",
    "linalg",
    "alignment",
    "baselines",
    "codegen",
    "macrocomm",
)


def code_fingerprint() -> str:
    """Version tag of the compile pipeline: a digest over the source
    bytes of :mod:`repro.driver` and every compile-relevant package.
    Baked into disk-cache filenames so any code change invalidates old
    entries by construction (they miss by name, no load needed)."""
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        root = os.path.dirname(os.path.abspath(__file__))
        root = os.path.dirname(root)  # .../repro
        digest = hashlib.sha1()
        rels = ["driver.py"]
        for pkg in _FINGERPRINT_PACKAGES:
            pkg_dir = os.path.join(root, pkg)
            try:
                names = sorted(os.listdir(pkg_dir))
            except OSError:
                continue
            rels.extend(
                os.path.join(pkg, n) for n in names if n.endswith(".py")
            )
        for rel in rels:
            digest.update(rel.encode("utf-8"))
            try:
                with open(os.path.join(root, rel), "rb") as fh:
                    digest.update(fh.read())
            except OSError:
                continue
        _code_fingerprint_cache = digest.hexdigest()[:12]
    return _code_fingerprint_cache


def set_compile_cache_dir(path: Optional[str]) -> Optional[str]:
    """Point the persistent compile-cache tier at ``path`` (``None``
    disables); returns the previous directory.  Affects the current
    process only — the campaign runner threads the setting through
    executor worker init like the cache sizes, so spawn workers share
    the parent's directory."""
    global _compile_cache_dir
    prev = _compile_cache_dir
    _compile_cache_dir = path or None
    return prev


def compile_cache_dir() -> Optional[str]:
    """The active persistent-tier directory (``None`` = disk tier off)."""
    return _compile_cache_dir


def _disk_path(key: str) -> str:
    return os.path.join(
        _compile_cache_dir, f"{key}-{code_fingerprint()}.pkl"
    )


def _disk_load(key: str) -> Optional[_CompiledWorkload]:
    """Read one persistent entry; any failure whatsoever (missing,
    truncated, corrupt, wrong payload shape, foreign pickle) is a miss."""
    try:
        with open(_disk_path(key), "rb") as fh:
            payload = pickle.load(fh)
        if (
            not isinstance(payload, dict)
            or payload.get("key") != key
            or payload.get("version") != code_fingerprint()
        ):
            return None
        cw = payload.get("compiled")
        return cw if isinstance(cw, _CompiledWorkload) else None
    except Exception:
        return None


def _disk_store(key: str, cw: _CompiledWorkload) -> None:
    """Atomically persist one compiled workload (temp file + rename in
    the cache directory, so concurrent writers race benignly: last
    complete write wins and readers never see a partial file).  Failure
    to cache is never an error."""
    try:
        os.makedirs(_compile_cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=_compile_cache_dir, prefix=f".{key}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(
                    {
                        "key": key,
                        "version": code_fingerprint(),
                        "compiled": cw,
                    },
                    fh,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp, _disk_path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except Exception:
        return
    _disk_writes.inc()


def _compile_for_task(task: SweepTask) -> Tuple[_CompiledWorkload, bool]:
    """The compile stage: two-step heuristic + Feautrier baseline for
    the task's ``(workload, m, rank_weights)``, LRU-cached per worker
    with an optional persistent disk tier underneath.
    Returns ``(compiled, cache_hit)``."""
    key = task.compile_key
    if _compile_cache_size > 0:
        cached = _compile_cache.get(key)
        if cached is not None:
            _compile_cache.move_to_end(key)
            _compile_hits.inc()
            return cached, True
    _compile_misses.inc()
    if _compile_cache_dir is not None:
        cw = _disk_load(key)
        if cw is not None:
            _disk_hits.inc()
            if _compile_cache_size > 0:
                _compile_cache[key] = cw
                while len(_compile_cache) > _compile_cache_size:
                    _compile_cache.popitem(last=False)
            return cw, True
        _disk_misses.inc()

    from ..alignment import optimize_residuals
    from ..baselines import feautrier_align
    from ..driver import compile_nest

    with span("compile"):
        wl = task.workload
        nest = wl.resolve()
        schedules = wl.resolve_schedules(nest)
        params = dict(wl.params)
        compiled = compile_nest(
            nest,
            m=task.m,
            schedules=schedules,
            params=params,
            check_legality=wl.check_legality,
            name=wl.name,
            use_rank_weights=task.rank_weights,
        )
        with span("baseline"):
            baseline = optimize_residuals(
                feautrier_align(nest, task.m),
                compiled.schedules,
                allow_rotations=False,
            )
    cw = _CompiledWorkload(compiled=compiled, baseline=baseline, params=params)
    if _compile_cache_size > 0:
        _compile_cache[key] = cw
        while len(_compile_cache) > _compile_cache_size:
            _compile_cache.popitem(last=False)
    if _compile_cache_dir is not None:
        _disk_store(key, cw)
    return cw, False


# ---------------------------------------------------------------------------
# baseline price memo — per-worker LRU over (workload, m, machine, mesh)
# ---------------------------------------------------------------------------
#
# The Feautrier baseline mapping depends only on (workload, m) and the
# folding only on the mesh — the heuristic's rank-weights knob never
# enters — so its price is one float per (workload, m, machine, mesh)
# cell.  A grid that sweeps rank_weights (or any future heuristic knob)
# re-prices the identical baseline once per knob value; this LRU
# collapses those to one execute() per cell and per worker process.

_baseline_cache: "OrderedDict[str, float]" = OrderedDict()
_baseline_cache_size: int = env_int("REPRO_CAMPAIGN_BASELINE_CACHE", 512)
_baseline_hits = obs_metrics.counter("campaign.baseline_cache.hits")
_baseline_misses = obs_metrics.counter("campaign.baseline_cache.misses")


def set_baseline_cache_size(size: int) -> int:
    """Resize (``0`` disables) the per-worker baseline price cache;
    returns the previous size.  Affects the current process only — the
    campaign runner threads the parent's setting through executor
    worker init (see :class:`~repro.campaign.executors.ExecutorConfig`)."""
    global _baseline_cache_size
    prev = _baseline_cache_size
    _baseline_cache_size = size
    if size <= 0:
        _baseline_cache.clear()
    while len(_baseline_cache) > max(size, 0):
        _baseline_cache.popitem(last=False)
    return prev


def baseline_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of *this* process's baseline price cache."""
    return {
        "hits": _baseline_hits.value,
        "misses": _baseline_misses.value,
        "size": len(_baseline_cache),
        "maxsize": _baseline_cache_size,
    }


def clear_baseline_cache() -> None:
    _baseline_cache.clear()
    _baseline_hits.reset()
    _baseline_misses.reset()


obs_metrics.register_provider("campaign.baseline_cache", baseline_cache_stats)


def _baseline_price_key(task: SweepTask) -> str:
    """Digest of everything the baseline *price* depends on: the cell
    minus the heuristic knobs (``rank_weights`` deliberately absent —
    the baseline mapping and the folding never see it)."""
    spec = {
        "workload": task.workload.to_dict(),
        "m": task.m,
        "machine": task.machine,
        "mesh": list(task.mesh),
    }
    return hashlib.sha1(canonical_json(spec).encode()).hexdigest()[:16]


def _baseline_lookup(key: str) -> Tuple[Optional[float], bool]:
    """``(price, hit)`` — a disabled cache always misses (mirroring the
    compile LRU's counter semantics)."""
    if _baseline_cache_size > 0:
        cached = _baseline_cache.get(key)
        if cached is not None:
            _baseline_cache.move_to_end(key)
            _baseline_hits.inc()
            return cached, True
    _baseline_misses.inc()
    return None, False


def _baseline_store(key: str, price: float) -> None:
    if _baseline_cache_size > 0:
        _baseline_cache[key] = price
        while len(_baseline_cache) > _baseline_cache_size:
            _baseline_cache.popitem(last=False)


def _price_task(task: SweepTask, cw: _CompiledWorkload) -> TaskResult:
    """The price stage: fold the compiled nest onto the task's machine x
    mesh cell and cost both mappings.

    The two halves get their own sub-spans (``price.heuristic`` /
    ``price.baseline``) so trace reports attribute them directly; the
    baseline half is served from the per-worker price memo when the
    same (workload, m, machine, mesh) cell was costed before."""
    from ..machine import machine_spec
    from ..runtime import MappedProgram, execute

    with span("price"):
        spec = machine_spec(task.machine)
        machine = spec.make(task.mesh)
        collectives = spec.make_collectives(task.mesh)
        with span("price.heuristic"):
            program = cw.compiled.program(machine, cw.params)
            report = execute(program, machine, collectives=collectives)

        bkey = _baseline_price_key(task)
        baseline_time, bhit = _baseline_lookup(bkey)
        if not bhit:
            # same folding as the heuristic's program, so the two prices
            # share the driver's folding policy by construction
            base_program = MappedProgram(
                mapping=cw.baseline, folding=program.folding, params=cw.params
            )
            with span("price.baseline"):
                base_report = execute(
                    base_program, machine, collectives=collectives
                )
            baseline_time = base_report.total_time
            _baseline_store(bkey, baseline_time)

    return _ok_result(task, cw, report, baseline_time, bhit)


def _ok_result(
    task: SweepTask,
    cw: _CompiledWorkload,
    report,
    baseline_time: float,
    baseline_hit: bool,
) -> TaskResult:
    """The ``status="ok"`` record of one priced task (heuristic
    ``report`` plus the baseline's total time)."""
    result = TaskResult(
        task_id=task.task_id,
        workload=task.workload.name,
        machine=task.machine,
        mesh=task.mesh,
        m=task.m,
        rank_weights=task.rank_weights,
        status="ok",
        counts=cw.compiled.mapping.counts(),
        residuals=len(cw.compiled.mapping.optimized),
        total_time=report.total_time,
        total_messages=report.total_messages,
        total_volume=report.total_volume,
        baseline_residuals=len(cw.baseline.optimized),
        baseline_time=baseline_time,
    )
    result.baseline_cache_hit = baseline_hit
    return result


def _execute_task_inner(task: SweepTask, attempt: int) -> TaskResult:
    faults.maybe_inject(task.task_id, attempt)
    try:
        cw, hit = _compile_for_task(task)
    except (MemoryError, _TaskTimeout, faults.InjectedFault):
        raise
    except Exception as exc:
        raise _StageFailure("compile", exc) from exc
    try:
        result = _price_task(task, cw)
    except (MemoryError, _TaskTimeout, faults.InjectedFault):
        raise
    except Exception as exc:
        raise _StageFailure("price", exc) from exc
    result.compile_cache_hit = hit
    return result


def execute_task(
    task: SweepTask, timeout: Optional[float] = None, attempt: int = 1
) -> TaskResult:
    """Run one task with error capture and an optional wall-clock cap.

    Never raises for task-level failures — compile errors, illegal
    schedules, pricing blowups all come back as typed ``status="error"``
    records (``error_kind`` from the taxonomy) so one bad grid cell
    cannot sink a campaign.  A non-positive ``timeout`` is a *caller*
    bug and raises ``ValueError`` (``setitimer`` would otherwise either
    raise cryptically or silently disarm the alarm); ``attempt`` is the
    1-based retry counter threaded through to fault injection and the
    recorded ``TaskResult.attempts``.

    While tracing is enabled the spans recorded during this task are
    captured into ``TaskResult.trace`` (the worker's span tree travels
    back through the result pipe; see :mod:`repro.obs.tracing`).
    """
    if timeout is not None and timeout <= 0:
        raise ValueError(
            f"timeout must be positive, got {timeout!r} (omit it for "
            "no per-task cap)"
        )
    if obs_tracing.is_enabled():
        with capture() as buf:
            result = _execute_task_timed(task, timeout, attempt)
        result.trace = freeze_capture(buf)
        return result
    return _execute_task_timed(task, timeout, attempt)


def _execute_task_timed(
    task: SweepTask, timeout: Optional[float], attempt: int
) -> TaskResult:
    t0 = time.perf_counter()
    use_alarm = timeout is not None and hasattr(signal, "SIGALRM")
    old_handler = None
    if use_alarm:
        old_handler = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        # disarm in an inner finally so an alarm that fires *between*
        # the task finishing and the disarm still lands inside this
        # try and is absorbed as a timeout, never escaping the runner
        try:
            result = _execute_task_inner(task, attempt)
        finally:
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except _TaskTimeout:
        result = _failure_result(
            task, "timeout", f"task exceeded {timeout}s", kind="timeout"
        )
    except faults.InjectedFault as exc:
        result = _failure_result(task, "error", str(exc), kind="fault")
    except MemoryError as exc:
        result = _failure_result(
            task, "error", f"MemoryError: {exc}", kind="oom"
        )
    except _StageFailure as sf:
        exc = sf.exc
        tail = traceback.format_exc().strip().splitlines()[-3:]
        result = _failure_result(
            task,
            "error",
            f"{type(exc).__name__}: {exc} | " + " / ".join(tail),
            kind=sf.kind,
        )
    finally:
        if use_alarm:
            signal.signal(signal.SIGALRM, old_handler)
    result.seconds = time.perf_counter() - t0
    result.attempts = attempt
    return result


def _failure_result(
    task: SweepTask,
    status: str,
    message: str,
    kind: Optional[str] = None,
    attempts: int = 1,
) -> TaskResult:
    return TaskResult(
        task_id=task.task_id,
        workload=task.workload.name,
        machine=task.machine,
        mesh=task.mesh,
        m=task.m,
        rank_weights=task.rank_weights,
        status=status,
        error=message,
        error_kind=kind,
        attempts=attempts,
    )


def crashed_result(
    task: SweepTask, message: str, attempts: int = 1
) -> TaskResult:
    """A ``status="crashed"`` record for a task whose worker died
    (executor-side entry point: the task never got to report itself)."""
    return _failure_result(
        task, "crashed", message, kind="crash", attempts=attempts
    )


# ---------------------------------------------------------------------------
# batched group pricing — one tensor op per compile-key group
# ---------------------------------------------------------------------------

#: process-local switch over the batched path (flipped by
#: :func:`set_group_pricing`)
_group_pricing_enabled: bool = True


def set_group_pricing(enabled: bool) -> bool:
    """Enable/disable batched whole-group pricing in this process
    (on by default); returns the previous setting.  Off prices every
    task through :func:`_price_task`, which looks up
    ``repro.runtime.execute`` at call time — the hook the reference
    recording swaps ``execute_python`` into.  Batched and per-task
    prices are bit-identical (asserted in
    ``tests/runtime/test_group_pricing.py``), so this switch only
    trades speed, never results."""
    global _group_pricing_enabled
    prev = _group_pricing_enabled
    _group_pricing_enabled = enabled
    return prev


def group_pricing_allowed(
    group: Sequence[SweepTask], timeout: Optional[float]
) -> bool:
    """Whether a compile-key group may take the batched pricing path.

    The batched path prices all K cells in one pass, so it cannot
    honour per-task semantics that interleave with pricing: a per-task
    wall-clock cap, fault injection points, or per-task span capture
    (tracing attributes spans to individual tasks).  A disabled compile
    cache would also force K compiles through one path — the per-task
    loop keeps the compile counters exact there."""
    return (
        _group_pricing_enabled
        and len(group) > 1
        and timeout is None
        and _compile_cache_size > 0
        and faults.active_spec() is None
        and not obs_tracing.is_enabled()
    )


def price_group_batched(
    group: Sequence[SweepTask],
) -> Optional[List[TaskResult]]:
    """Price one compile-key group with the batched group executor.

    Compiles each task through the ordinary LRU path (one miss + K-1
    hits, keeping the compile counters exactly as the per-task loop
    would), prices all K heuristic cells in one
    :func:`repro.runtime.execute_group` call, then batches the
    baseline cells that miss the price memo into a second call.
    Results are bit-identical to K per-cell ``execute()`` runs
    (``execute`` is the one-cell ``execute_group``).

    Returns ``None`` when the batched attempt cannot proceed — a cell
    raised, or LRU eviction split the group across compiled objects —
    and the caller falls back to the per-task loop (which re-serves
    the compiles from the cache)."""
    from ..machine import machine_spec
    from ..runtime import MappedProgram, execute_group

    t0 = time.perf_counter()
    try:
        compiled: List[Tuple[SweepTask, _CompiledWorkload, bool]] = []
        for task in group:
            cw, hit = _compile_for_task(task)
            compiled.append((task, cw, hit))
        cw0 = compiled[0][1]
        if any(cw is not cw0 for _, cw, _ in compiled):
            return None

        cells = []
        for task, cw, _ in compiled:
            spec = machine_spec(task.machine)
            machine = spec.make(task.mesh)
            cells.append(
                (
                    cw.compiled.program(machine, cw.params),
                    machine,
                    spec.make_collectives(task.mesh),
                )
            )
        reports = execute_group(cells)

        bkeys = [_baseline_price_key(t) for t, _, _ in compiled]
        lookups = [_baseline_lookup(k) for k in bkeys]
        btimes = [price for price, _ in lookups]
        bhits = [hit for _, hit in lookups]
        miss_idx = [i for i, hit in enumerate(bhits) if not hit]
        if miss_idx:
            base_cells = [
                (
                    MappedProgram(
                        mapping=cw0.baseline,
                        folding=cells[i][0].folding,
                        params=cw0.params,
                    ),
                    cells[i][1],
                    cells[i][2],
                )
                for i in miss_idx
            ]
            base_reports = execute_group(base_cells)
            for i, rep in zip(miss_idx, base_reports):
                btimes[i] = rep.total_time
                _baseline_store(bkeys[i], rep.total_time)
    except Exception:
        return None

    seconds = (time.perf_counter() - t0) / len(group)
    results: List[TaskResult] = []
    for (task, cw, hit), report, btime, bhit in zip(
        compiled, reports, btimes, bhits
    ):
        result = _ok_result(task, cw, report, btime, bhit)
        result.compile_cache_hit = hit
        result.seconds = seconds
        result.attempts = 1
        results.append(result)
    return results


@dataclass
class CampaignConfig:
    """Execution knobs of one ``run_campaign`` invocation."""

    jobs: int = 1
    timeout: Optional[float] = None
    #: stop after this many *new* results (test/CI hook simulating an
    #: interrupted campaign; the checkpoint stays resumable)
    max_tasks: Optional[int] = None
    #: on resume, re-run tasks whose stored record is error/timeout/
    #: crashed (by default failures count as done and are never
    #: retried); the superseded failure lines are compacted away
    retry_failures: bool = False
    #: execution backend (see :mod:`repro.campaign.executors`); None
    #: picks ``pool`` for ``jobs > 1`` and ``inline`` otherwise
    executor: Optional[str] = None
    #: extra attempts per task for transient failures (fault/crash/
    #: oom/timeout kinds); 0 disables in-run retries
    retries: int = 0
    #: base delay of the capped exponential retry backoff, in seconds
    #: (delay = backoff * 2**(retry - 1), capped at BACKOFF_CAP)
    backoff: float = 0.5
    #: resilient executor: max silence (no heartbeat/result) from a
    #: supervised worker before it is declared wedged and killed
    heartbeat_timeout: float = 30.0
    #: multiprocessing start method for the process-based executors
    #: (None = fork when available, else the platform default)
    mp_context: Optional[str] = None
    #: force fsync-per-append on the result store (None = env knob
    #: ``REPRO_STORE_FSYNC``)
    fsync: Optional[bool] = None
    #: write a span/metric JSONL trace of this run to the given path
    #: (enables tracing for the duration of the run — including in the
    #: executor's worker processes — and restores the flag afterwards)
    trace: Optional[str] = None


@dataclass
class CampaignOutcome:
    """What one invocation did (see the store for the full results)."""

    path: str
    total: int
    prior: int
    ran: int
    ok: int
    errors: int
    timeouts: int
    remaining: int
    #: tasks whose worker died under them (status="crashed")
    crashed: int = 0
    #: total extra attempts consumed by in-run retries
    retried: int = 0
    #: compile-stage cache telemetry, aggregated over all workers
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    #: baseline price memo telemetry, aggregated over all workers
    baseline_cache_hits: int = 0
    baseline_cache_misses: int = 0

    def describe(self) -> str:
        counts = (
            f"{self.ok} ok, {self.errors} error, {self.timeouts} timeout"
        )
        if self.crashed:
            counts += f", {self.crashed} crashed"
        bits = [
            f"{self.ran} task(s) run ({counts}), "
            f"{self.prior} restored from checkpoint"
        ]
        if self.retried:
            bits.append(f"{self.retried} retry attempt(s)")
        priced = self.compile_cache_hits + self.compile_cache_misses
        if priced:
            bits.append(
                f"compile cache: {self.compile_cache_hits}/{priced} hit(s) "
                f"({self.compile_cache_misses} nest(s) compiled)"
            )
        baselines = self.baseline_cache_hits + self.baseline_cache_misses
        if baselines:
            bits.append(
                f"baseline cache: {self.baseline_cache_hits}/{baselines} "
                f"hit(s) ({self.baseline_cache_misses} baseline(s) priced)"
            )
        if self.remaining:
            bits.append(f"{self.remaining} still pending (resume to finish)")
        return f"campaign {self.path}: " + "; ".join(bits)


def run_campaign(
    tasks: Sequence[SweepTask],
    out_path: str,
    config: Optional[CampaignConfig] = None,
    resume: bool = False,
    meta: Optional[Dict] = None,
    progress: Optional[Callable[[TaskResult], None]] = None,
) -> CampaignOutcome:
    """Execute ``tasks``, checkpointing each result to ``out_path``.

    ``resume=False`` starts a fresh run (the file is truncated);
    ``resume=True`` loads the checkpoint, verifies the grid digest in
    its meta record against ``meta["spec_digest"]`` (when both are
    present) and runs only the tasks without a stored result.
    """
    config = config or CampaignConfig()
    if config.timeout is not None and config.timeout <= 0:
        raise ValueError(
            f"timeout must be positive, got {config.timeout!r} (omit it "
            "for no per-task cap)"
        )
    store = RunStore(out_path, fsync=config.fsync)
    meta = dict(meta or {})
    done: Dict[str, TaskResult] = {}

    if resume:
        store.repair_trailing_newline()
        prev_meta, done = store.load()
        prev_digest = prev_meta.get("spec_digest")
        want = meta.get("spec_digest")
        if prev_digest and want and prev_digest != want:
            raise CampaignSpecMismatch(
                f"checkpoint {out_path} was written for grid "
                f"{prev_digest}, not {want}: re-run with the original "
                "flags or start a fresh output file"
            )
        # shards of one campaign share the full-grid digest by design,
        # so the shard spec needs its own guard: resuming a shard
        # checkpoint with the wrong (or a forgotten) --shard would
        # silently run another shard's tasks into this file
        prev_shard = prev_meta.get("shard")
        want_shard = meta.get("shard")
        # (a checkpoint that lost its meta line cannot be checked —
        # the digest guard above already degrades the same way)
        if prev_meta and prev_shard != want_shard:
            raise CampaignSpecMismatch(
                f"checkpoint {out_path} was written for shard "
                f"{prev_shard or 'none (full grid)'}, not "
                f"{want_shard or 'none (full grid)'}: resume with the "
                "original --shard or start a fresh output file"
            )
        if not prev_meta and not done:
            store.start(meta)
        elif prev_digest is None and want:
            # checkpoint lost its meta line (truncation leaves only a
            # `_skipped_lines` marker): re-append it so the spec-digest
            # guard holds for every later resume
            store.append_meta(meta)
        if config.retry_failures:
            # dropped records re-run; their fresh result line supersedes
            # the old one (the loader keeps the last record per task id).
            # Compact the superseded failure lines away so the
            # checkpoint does not grow a stale line per retry round.
            survivors = {k: r for k, r in done.items() if r.status == "ok"}
            if len(survivors) != len(done):
                keep_meta = {
                    k: v
                    for k, v in prev_meta.items()
                    if k not in ("record", "_skipped_lines")
                } or meta
                store.compact(keep_meta, survivors.values())
            done = survivors
    else:
        store.start(meta)

    pending = [t for t in tasks if t.task_id not in done]
    capped = (
        pending[: config.max_tasks]
        if config.max_tasks is not None
        else pending
    )

    ran = ok = errors = timeouts = crashed = retried = 0
    cache_hits = cache_misses = 0
    baseline_hits = baseline_misses = 0

    # --trace: enable tracing for the duration of this run (restored in
    # the finally below), open the JSONL writer and remember each task's
    # compile key so trace records carry their group identity
    trace_writer: Optional[TraceWriter] = None
    prev_trace_flag: Optional[bool] = None
    compile_keys: Dict[str, str] = {}
    if config.trace:
        prev_trace_flag = obs_tracing.set_enabled(True)
        obs_tracing.clear_spans()
        compile_keys = {t.task_id: t.compile_key for t in capped}
        trace_writer = TraceWriter(config.trace)

    status_counters = {
        s: obs_metrics.counter(f"campaign.tasks.{s}")
        for s in ("ok", "error", "timeout", "crashed")
    }

    def record(result: TaskResult) -> None:
        nonlocal ran, ok, errors, timeouts, crashed, retried
        nonlocal cache_hits, cache_misses, baseline_hits, baseline_misses
        with span("store.append"):
            store.append(result)
        ran += 1
        if result.status == "ok":
            ok += 1
        elif result.status == "timeout":
            timeouts += 1
        elif result.status == "crashed":
            crashed += 1
        else:
            errors += 1
        status_counters.get(
            result.status, status_counters["error"]
        ).inc()
        retried += max(0, result.attempts - 1)
        if result.compile_cache_hit is True:
            cache_hits += 1
        elif result.compile_cache_hit is False:
            cache_misses += 1
        if result.baseline_cache_hit is True:
            baseline_hits += 1
        elif result.baseline_cache_hit is False:
            baseline_misses += 1
        if trace_writer is not None:
            # fold the worker's span tree into the campaign aggregate
            # and stream the per-task record (flushed immediately: a
            # killed run loses at most the in-flight task's trace)
            merge_spans(result.trace)
            trace_writer.write_task(
                result, compile_keys.get(result.task_id)
            )
        if progress is not None:
            progress(result)

    # cluster cells of one compiled nest so each group lands on one
    # worker: K machine x mesh cells -> one compile + K prices
    groups = group_by_compile_key(capped)

    from .executors import ExecutorConfig, make_executor

    name = config.executor
    if name is None:
        name = "pool" if config.jobs > 1 and len(capped) > 1 else "inline"
    # process backends take groups largest-first so the run does not
    # end on one straggler group; inline keeps grid order
    groups = order_groups_for_dispatch(
        groups, largest_first=(name != "inline" and config.jobs > 1)
    )
    backend = make_executor(
        name,
        ExecutorConfig(
            jobs=config.jobs,
            timeout=config.timeout,
            retries=config.retries,
            backoff=config.backoff,
            heartbeat_timeout=config.heartbeat_timeout,
            mp_context=config.mp_context,
            compile_cache_size=_compile_cache_size,
            baseline_cache_size=_baseline_cache_size,
            compile_cache_dir=_compile_cache_dir,
            fault_spec=faults.active_spec(),
            trace=obs_tracing.is_enabled(),
        ),
    )
    try:
        if trace_writer is not None:
            trace_writer.write_meta(
                {
                    "spec_digest": meta.get("spec_digest"),
                    "executor": name,
                    "jobs": config.jobs,
                    "tasks": len(capped),
                    "groups": len(groups),
                }
            )
        for batch in backend.run(groups):
            for result in batch:
                record(result)
    finally:
        if trace_writer is not None:
            trace_writer.write_summary(
                span_snapshot(), obs_metrics.snapshot()
            )
            trace_writer.close()
        if prev_trace_flag is not None:
            obs_tracing.set_enabled(prev_trace_flag)

    return CampaignOutcome(
        path=out_path,
        total=len(tasks),
        prior=len(done),
        ran=ran,
        ok=ok,
        errors=errors,
        timeouts=timeouts,
        remaining=len(pending) - len(capped),
        crashed=crashed,
        retried=retried,
        compile_cache_hits=cache_hits,
        compile_cache_misses=cache_misses,
        baseline_cache_hits=baseline_hits,
        baseline_cache_misses=baseline_misses,
    )
