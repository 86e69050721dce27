"""Per-layer spans recorded from outside the program.

The traced run replaces the public entry points each layer's caller
looks up at call time (module attributes and methods) with wrappers
that record a span: name, start, end and parent.  Nothing under
``src/`` changes, and the untraced runs never install the wrappers.

Pool workers are forked after installation, so they inherit the
wrappers.  A worker's spans, counters and metric snapshot ride back to
the parent on the last result of each compile-key group (an attribute
outside the dataclass fields, so the result store never sees it).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: ``(module or class path, attribute, span name)`` of every wrapped
#: entry point, grouped by layer
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.driver", "parse_nest", "ir.parse"),
    ("repro.campaign.workloads", "parse_nest", "ir.parse"),
    ("repro.driver", "infer_schedules", "ir.schedule"),
    ("repro.campaign.workloads", "trivial_schedules", "ir.schedule"),
    ("repro.campaign.workloads", "outer_sequential_schedules", "ir.schedule"),
    ("repro.driver", "schedule_is_legal", "ir.legality"),
    ("repro.driver", "two_step_heuristic", "alignment.heuristic"),
    # the campaign runner imports both from their packages per call
    ("repro.baselines", "feautrier_align", "baselines.feautrier"),
    ("repro.alignment", "optimize_residuals", "baselines.feautrier"),
    ("repro.codegen", "generate_spmd", "codegen.spmd"),
    ("repro.driver", "compile_nest", "driver.compile"),
    ("repro.campaign.store:RunStore", "append", "campaign.store_append"),
    ("repro.campaign.executors.inline", "run_group", "campaign.group"),
    ("repro.campaign.executors.pool", "run_group", "campaign.group"),
    ("repro.runtime.mapping:MappedProgram", "comm_batches", "runtime.extract"),
    ("repro.runtime.mapping:Folding", "fold_array", "runtime.fold"),
    ("repro.runtime", "execute", "runtime.price"),
    ("repro.runtime", "execute_group", "runtime.price"),
    ("repro.machine.machines:ParagonModel", "time_phases_segmented", "machine.pricing"),
    ("repro.machine.machines:ParagonModel", "time_phase_arrays", "machine.pricing"),
    ("repro.machine.machines:ParagonModel", "time_phase", "machine.pricing"),
    ("repro.machine.machines:T3DModel", "time_phases_segmented", "machine.pricing"),
    ("repro.machine.machines:T3DModel", "time_phase_arrays", "machine.pricing"),
    ("repro.machine.machines:T3DModel", "time_phase", "machine.pricing"),
    ("repro.machine.machines:CM5Model", "macro_times_segmented", "machine.pricing"),
)

#: the span name of a root span opened by the benchmark itself
ROOT = "bench"
#: the span of one compile-key group; in a pool worker it is the root
#: of that process's tree
WORKER_ROOT = "campaign.group"
#: where a worker's trace rides back to the parent
CARRIER = "_perfbench_trace"


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder for one process.

    A span is ``[name, start, end, parent index]``; spans stay in
    memory and are aggregated when a pass ends."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = Counter()
        self.worker_traces: Dict[int, Tuple[int, dict]] = {}
        self._seq = 0
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def span(self, name: str, fn: Callable, /, *args, **kwargs):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter()

    def _wrapper(self, fn: Callable, name: str) -> Callable:
        if name == "runtime.price":

            @functools.wraps(fn)
            def price(*args, **kwargs):
                out = self.span(name, fn, *args, **kwargs)
                for report in out if isinstance(out, list) else [out]:
                    self.counts["runtime.events"] += sum(
                        s.events for s in report.per_access.values()
                    )
                    self.counts["runtime.messages"] += report.total_messages
                return out

            return price
        if name == WORKER_ROOT:

            @functools.wraps(fn)
            def group(*args, **kwargs):
                if os.getpid() == self.pid:
                    return self.span(name, fn, *args, **kwargs)
                return self._worker_group(fn, *args, **kwargs)

            return group

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _worker_group(self, fn: Callable, *args, **kwargs):
        """Run one group in a forked worker and attach the worker's
        trace so far to the group's last result."""
        from repro.obs import snapshot

        if self._seq == 0:
            # first group of this worker: drop what fork copied
            self.reset()
        self._seq += 1
        results = self.span(WORKER_ROOT, fn, *args, **kwargs)
        if results:
            results[-1].__dict__[CARRIER] = (
                os.getpid(),
                self._seq,
                {
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "snapshot": snapshot(),
                },
            )
        return results

    def collect(self, result) -> None:
        """Keep the newest worker trace a result carries."""
        carried = result.__dict__.pop(CARRIER, None)
        if carried is None:
            return
        pid, seq, trace = carried
        if seq > self.worker_traces.get(pid, (0, None))[0]:
            self.worker_traces[pid] = (seq, trace)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for path, attr, name in ENTRY_POINTS:
            owner = _resolve(path)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, name))
        # parent side of the worker carrier: results pass through the
        # store append on their way to disk
        from repro.campaign.store import RunStore

        append = RunStore.append

        def append_collect(store, result):
            self.collect(result)
            return append(store, result)

        functools.update_wrapper(append_collect, append)
        self._undo.append((RunStore, "append", RunStore.__dict__["append"]))
        RunStore.append = append_collect

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def reset(self) -> None:
        self.spans, self.stack = [], []
        self.counts = Counter()
        self.worker_traces = {}


def self_times(spans: List[list]) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """``(self seconds per span name, calls per span name, root
    seconds)`` of one process's spans.  Self time is a span's duration
    minus its children's durations (children run nested in the same
    thread, so they never overlap)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: Dict[str, float] = Counter()
    calls: Dict[str, int] = Counter()
    roots = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] += end - start - child[i]
        calls[name] += 1
        if parent < 0:
            roots += end - start
    return self_s, calls, roots
