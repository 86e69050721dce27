"""The ``Executor`` interface and the shared worker-side machinery.

An executor takes the runner's compile-key groups (all machine x mesh
cells of one compiled nest; see
:func:`repro.campaign.sweep.group_by_compile_key`) and yields batches
of :class:`~repro.campaign.store.TaskResult` as they complete.  The
runner records every result to the JSONL checkpoint the moment a batch
lands, so executor choice never changes durability semantics — only
how (and how safely) the work is driven.

Worker-side helpers shared by all backends:

* :func:`init_worker` — arm fault injection with the backend's
  capabilities and apply the compile-cache size *explicitly* (spawn
  workers do not inherit post-import ``set_compile_cache_size`` /
  ``REPRO_CAMPAIGN_COMPILE_CACHE`` state the way fork workers do);
* :func:`run_task_with_retries` — per-task retry of transient failure
  kinds with capped exponential backoff;
* :func:`run_group` — the sequential group loop the ``inline`` and
  ``pool`` backends run in their worker.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Type

from ...obs import metrics as obs_metrics
from ...obs import tracing as obs_tracing
from .. import faults
from ..runner import (
    execute_task,
    set_baseline_cache_size,
    set_compile_cache_dir,
    set_compile_cache_size,
)
from ..store import TaskResult
from ..sweep import SweepTask

#: failure kinds worth retrying — worker death, memory pressure,
#: injected transients and hangs/timeouts can all clear on a second
#: attempt; ``compile``/``price`` errors are deterministic and are not
RETRYABLE_KINDS = frozenset({"fault", "crash", "oom", "timeout"})

#: ceiling of the exponential retry backoff, in seconds
BACKOFF_CAP = 30.0


@dataclass
class ExecutorConfig:
    """Backend-independent execution knobs (built by the runner from
    :class:`~repro.campaign.runner.CampaignConfig`)."""

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.5
    heartbeat_timeout: float = 30.0
    mp_context: Optional[str] = None
    #: the parent's compile-cache size, passed through to workers
    compile_cache_size: Optional[int] = None
    #: the parent's baseline-price-cache size, passed through the same
    #: way (spawn workers would otherwise reset to the env default)
    baseline_cache_size: Optional[int] = None
    #: the parent's persistent compile-cache directory (disk tier);
    #: None leaves the worker's own env-derived setting untouched
    compile_cache_dir: Optional[str] = None
    #: raw ``REPRO_FAULT_INJECT`` spec (None = injection off)
    fault_spec: Optional[str] = None
    #: the parent's tracing flag, passed through to workers the same
    #: way the cache size is (spawn workers re-import ``repro.obs``
    #: with tracing off; fork workers inherit but stay consistent)
    trace: bool = False


class Executor(ABC):
    """Submit compile-key groups, yield ``TaskResult`` batches."""

    #: registry name (set by subclasses)
    name: str = ""

    def __init__(self, config: ExecutorConfig):
        self.config = config

    @abstractmethod
    def run(
        self, groups: Sequence[List[SweepTask]]
    ) -> Iterator[List[TaskResult]]:
        """Execute every task of every group, yielding result batches
        as they complete.  Implementations must be non-hanging: worker
        death, hung tasks and transient failures become typed failure
        records, never a stuck iterator."""


def mp_context(name: Optional[str] = None):
    """The multiprocessing context for process-based backends: the
    named method when given, else fork when the platform has it (cheap
    workers, inherited imports), else the platform default."""
    import multiprocessing

    if name:
        return multiprocessing.get_context(name)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        return multiprocessing.get_context()


def backoff_delay(base: float, retry: int, cap: float = BACKOFF_CAP) -> float:
    """Capped exponential backoff: ``base * 2**(retry-1)``, ``retry``
    1-based, never above ``cap`` (or negative)."""
    if base <= 0 or retry <= 0:
        return 0.0
    return min(cap, base * (2.0 ** (retry - 1)))


def init_worker(
    config: ExecutorConfig, allow_kill: bool, allow_hang: bool
) -> None:
    """Prepare a worker process: explicit cache size, tracing flag and
    fault plan.

    Called in every worker entry point (and by the inline backend with
    both capabilities off).  Passing the cache size and the tracing
    enablement through the call rather than relying on fork-inherited
    globals is what keeps spawn-context workers honouring configuration
    set after import (a spawn worker re-imports ``repro.obs`` with
    tracing at its env default, which would silently drop every span of
    a ``--trace`` run).
    """
    if config.compile_cache_size is not None:
        set_compile_cache_size(config.compile_cache_size)
    if config.baseline_cache_size is not None:
        set_baseline_cache_size(config.baseline_cache_size)
    if config.compile_cache_dir is not None:
        set_compile_cache_dir(config.compile_cache_dir)
    obs_tracing.set_enabled(config.trace)
    faults.activate(
        config.fault_spec, allow_kill=allow_kill, allow_hang=allow_hang
    )


def run_task_with_retries(
    task: SweepTask,
    config: ExecutorConfig,
    first_attempt: int = 1,
    sleep: Callable[[float], None] = time.sleep,
    on_attempt: Optional[Callable[[SweepTask, int], None]] = None,
) -> TaskResult:
    """Execute one task, retrying transient failure kinds.

    The attempt budget is ``config.retries + 1`` total attempts across
    the task's lifetime; ``first_attempt`` accounts for attempts a
    previous (crashed) worker already consumed, so supervisors resume
    the count instead of restarting it.  ``on_attempt`` fires at the
    start of every attempt (after any backoff sleep) — the resilient
    worker uses it to tell its supervisor the deadline clock restarts.
    """
    attempt = first_attempt
    while True:
        if on_attempt is not None:
            on_attempt(task, attempt)
        result = execute_task(task, timeout=config.timeout, attempt=attempt)
        if (
            result.status == "ok"
            or result.error_kind not in RETRYABLE_KINDS
            or attempt >= config.retries + 1
        ):
            return result
        attempt += 1
        obs_metrics.counter("campaign.executor.retries").inc()
        delay = backoff_delay(config.backoff, attempt - first_attempt)
        if delay > 0:
            sleep(delay)


def run_group(
    group: Sequence[SweepTask],
    config: ExecutorConfig,
    first_attempts: Optional[Dict[str, int]] = None,
) -> List[TaskResult]:
    """Sequentially run one compile-key group with per-task retries
    (the in-worker half of the ``inline`` and ``pool`` backends; the
    first task pays the compile, the rest hit the worker's cache).
    ``first_attempts`` resumes the attempt counts a crashed worker
    already consumed."""
    first_attempts = first_attempts or {}
    return [
        run_task_with_retries(
            task, config, first_attempt=first_attempts.get(task.task_id, 1)
        )
        for task in group
    ]


_REGISTRY: Dict[str, Type[Executor]] = {}


def register_executor(cls: Type[Executor]) -> Type[Executor]:
    """Class decorator adding a backend to the registry."""
    if not cls.name:
        raise ValueError(f"executor class {cls.__name__} has no name")
    _REGISTRY[cls.name] = cls
    return cls


def executor_names() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def make_executor(name: str, config: ExecutorConfig) -> Executor:
    """Instantiate a backend by registry name (friendly ``ValueError``
    on an unknown name)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r} "
            f"(known: {', '.join(executor_names())})"
        ) from None
    return cls(config)
