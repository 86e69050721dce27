"""Write ``perfbench/expected.json``: the outputs the benchmark checks.

Run from the repository root (one core; ~30 minutes when nothing is recorded yet)::

    python3 perfbench/record_expected.py

Entries whose inputs did not change are kept: a campaign entry is
re-recorded when its task grid's digest changes, a ``nest_large`` entry
when its op id is new.

Every expected output comes from the per-element reference executor
``repro.runtime.execute_python``, never from the vectorized path the
benchmark times:

* ``nest_large``: the ``CommReport`` totals of every op (the reference
  ops once, the generated ops once per input set);
* campaigns: the digest of the store a campaign writes when every task
  is priced by the reference executor (batched group pricing off, so
  each task goes through ``execute``, which is swapped for
  ``execute_python``), plus the number of element communications the
  campaign prices.

The timed runs never call the reference executor.  Re-record only when
a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402

inputs.use_source_tree()


def record_campaign(iset: int, workdir: str) -> dict:
    import repro.runtime
    from repro.campaign import CampaignConfig, run_campaign, set_group_pricing

    oracle = repro.runtime.execute_python
    events = [0]

    def counted(*args, **kwargs):
        report = oracle(*args, **kwargs)
        events[0] += inputs.report_totals(report)["events"]
        return report

    inputs.clear_library_caches()
    tasks = inputs.campaign_tasks(iset)
    path = os.path.join(workdir, f"campaign-{iset}.jsonl")
    fast = repro.runtime.execute
    prev = set_group_pricing(False)
    repro.runtime.execute = counted
    try:
        out = run_campaign(tasks, path, CampaignConfig(jobs=1))
    finally:
        repro.runtime.execute = fast
        set_group_pricing(prev)
    digest, records = inputs.store_digest(path)
    ok = sum(r.status == "ok" for r in records)
    if ok != len(tasks) or out.ok != len(tasks):
        raise SystemExit(
            f"input set {iset}: {len(tasks) - ok} failed campaign task(s)"
        )
    return {"digest": digest, "tasks": len(tasks), "events": events[0]}


def record_op(op) -> dict:
    import repro.runtime

    inputs.clear_library_caches()
    report = inputs.run_nest_op(op, execute=repro.runtime.execute_python)
    return inputs.report_totals(report)


def main() -> None:
    import numpy
    from repro.campaign import grid_digest

    t0 = time.perf_counter()
    expected = {"campaign": {}, "nest_ops": {}}
    if os.path.exists(inputs.EXPECTED_PATH):
        expected = inputs.load_expected()
    expected["recorded_with"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "executor": "repro.runtime.execute_python",
    }
    expected["input_sets"] = inputs.INPUT_SETS
    workdir = tempfile.mkdtemp(prefix=".perfbench-record-", dir=inputs.ROOT)
    try:
        for iset in range(inputs.INPUT_SETS):
            grid = grid_digest(inputs.campaign_tasks(iset))
            if expected["campaign"].get(str(iset), {}).get("grid") == grid:
                continue
            entry = record_campaign(iset, workdir)
            entry["grid"] = grid
            expected["campaign"][str(iset)] = entry
            print(f"campaign input set {iset} recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = {op.op_id: op for iset in range(inputs.INPUT_SETS) for op in inputs.nest_ops(iset)}
    expected["nest_ops"] = {k: v for k, v in expected["nest_ops"].items() if k in ops}
    for op_id, op in ops.items():
        if op_id not in expected["nest_ops"]:
            expected["nest_ops"][op_id] = record_op(op)
            print(f"{op_id} recorded ({time.perf_counter() - t0:.0f} s)", flush=True)
    with open(inputs.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
