"""Checkpoint/resume, error capture and parallel-vs-serial equality."""

import json
import signal
import time

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignSpecMismatch,
    RunStore,
    SweepTask,
    Workload,
    default_spec,
    execute_task,
    run_campaign,
)


@pytest.fixture(scope="module")
def small_grid():
    # 4 generated + 8 corpus workloads on one mesh = 12 tasks
    spec = default_spec(seed=0, nests=4, machines=("paragon",))
    return spec, spec.expand()


def _deterministic(results):
    return {k: r.deterministic_dict() for k, r in results.items()}


class TestResume:
    def test_interrupted_then_resumed_equals_uninterrupted(
        self, small_grid, tmp_path
    ):
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}

        full = str(tmp_path / "full.jsonl")
        run_campaign(tasks, full, CampaignConfig(jobs=1), meta=meta)

        # "kill" the campaign after 5 tasks, then resume to completion
        part = str(tmp_path / "part.jsonl")
        first = run_campaign(
            tasks, part, CampaignConfig(jobs=1, max_tasks=5), meta=meta
        )
        assert first.ran == 5 and first.remaining == len(tasks) - 5
        second = run_campaign(
            tasks, part, CampaignConfig(jobs=1), resume=True, meta=meta
        )
        assert second.prior == 5
        assert second.ran == len(tasks) - 5

        _, full_results = RunStore(full).load()
        _, merged = RunStore(part).load()
        assert _deterministic(full_results) == _deterministic(merged)

    def test_resume_after_truncated_record(self, small_grid, tmp_path):
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}
        path = tmp_path / "killed.jsonl"
        run_campaign(
            tasks, str(path), CampaignConfig(jobs=1, max_tasks=3), meta=meta
        )
        # writer died mid-record: a dangling half line on disk
        path.write_text(path.read_text() + '{"record": "result", "task_id')
        outcome = run_campaign(
            tasks, str(path), CampaignConfig(jobs=1), resume=True, meta=meta
        )
        assert outcome.prior == 3
        _, results = RunStore(str(path)).load()
        assert len(results) == len(tasks)
        assert all(r.status == "ok" for r in results.values())

    def test_resume_is_noop_when_complete(self, small_grid, tmp_path):
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}
        path = str(tmp_path / "done.jsonl")
        run_campaign(tasks, path, meta=meta)
        again = run_campaign(tasks, path, resume=True, meta=meta)
        assert again.ran == 0 and again.prior == len(tasks)

    def test_resume_rewrites_lost_meta_line(self, small_grid, tmp_path):
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}
        path = tmp_path / "lostmeta.jsonl"
        run_campaign(tasks, str(path), CampaignConfig(max_tasks=2), meta=meta)
        # meta line truncated mid-record (leaves an undecodable line the
        # loader counts under _skipped_lines), results kept
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0][:20]] + lines[1:]) + "\n")
        run_campaign(
            tasks, str(path), CampaignConfig(max_tasks=1), resume=True,
            meta=meta,
        )
        restored, _ = RunStore(str(path)).load()
        assert restored["spec_digest"] == spec.digest()
        # ...so the digest guard works again on the next resume
        with pytest.raises(CampaignSpecMismatch):
            run_campaign(
                tasks, str(path), resume=True,
                meta={"spec_digest": "0000aaaa1111"},
            )

    def test_resume_rejects_different_grid(self, small_grid, tmp_path):
        spec, tasks = small_grid
        path = str(tmp_path / "run.jsonl")
        run_campaign(
            tasks, path, CampaignConfig(max_tasks=1),
            meta={"spec_digest": spec.digest()},
        )
        with pytest.raises(CampaignSpecMismatch):
            run_campaign(
                tasks, path, resume=True, meta={"spec_digest": "0000aaaa1111"}
            )

    def test_retry_failures_reruns_failed_records(self, small_grid, tmp_path):
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}
        path = str(tmp_path / "retry.jsonl")
        run_campaign(tasks, path, meta=meta)
        store = RunStore(path)
        # forge a transient failure for one completed task
        _, results = store.load()
        victim = results[tasks[0].task_id]
        from repro.campaign import TaskResult

        store.append(
            TaskResult(
                task_id=victim.task_id, workload=victim.workload,
                machine=victim.machine, mesh=victim.mesh, m=victim.m,
                rank_weights=victim.rank_weights, status="timeout",
                error="task exceeded 0.0s",
            )
        )
        # plain resume: the failure counts as done, nothing re-runs
        plain = run_campaign(tasks, path, resume=True, meta=meta)
        assert plain.ran == 0
        # retry resume: the failed task re-runs and its ok record wins
        retry = run_campaign(
            tasks, path, CampaignConfig(retry_failures=True),
            resume=True, meta=meta,
        )
        assert retry.ran == 1
        _, after = store.load()
        assert after[victim.task_id].status == "ok"
        assert after[victim.task_id] == victim  # seconds excluded from ==

    def test_max_tasks_zero_runs_nothing(self, small_grid, tmp_path):
        spec, tasks = small_grid
        outcome = run_campaign(
            tasks, str(tmp_path / "zero.jsonl"),
            CampaignConfig(max_tasks=0), meta={},
        )
        assert outcome.ran == 0
        assert outcome.remaining == len(tasks)

    def test_resume_on_missing_file_starts_fresh(self, small_grid, tmp_path):
        spec, tasks = small_grid
        path = str(tmp_path / "fresh.jsonl")
        outcome = run_campaign(
            tasks, path, CampaignConfig(max_tasks=2), resume=True,
            meta={"spec_digest": spec.digest()},
        )
        assert outcome.ran == 2
        meta, _ = RunStore(path).load()
        assert meta["spec_digest"] == spec.digest()


class TestParallel:
    def test_pool_matches_serial(self, small_grid, tmp_path):
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}
        serial = str(tmp_path / "serial.jsonl")
        pooled = str(tmp_path / "pooled.jsonl")
        run_campaign(tasks, serial, CampaignConfig(jobs=1), meta=meta)
        run_campaign(tasks, pooled, CampaignConfig(jobs=3), meta=meta)
        _, a = RunStore(serial).load()
        _, b = RunStore(pooled).load()
        assert _deterministic(a) == _deterministic(b)


class TestErrorCapture:
    def test_broken_workload_becomes_error_record(self, tmp_path):
        bad = Workload(name="does-not-exist", kind="named")
        task = SweepTask.make(bad, "paragon", (2, 2), 2, True)
        result = execute_task(task)
        assert result.status == "error"
        assert "does-not-exist" in result.error

        # ...and does not sink the campaign around it
        spec = default_spec(seed=0, nests=1, include_corpus=False)
        tasks = spec.expand() + [task]
        path = str(tmp_path / "mixed.jsonl")
        outcome = run_campaign(tasks, path, meta={})
        assert outcome.errors == 1
        assert outcome.ok == len(tasks) - 1

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_timeout_becomes_timeout_record(self):
        # a big domain makes the executor slow enough to trip 1 ms
        slow = Workload(
            name="slow", kind="named", source=(
                "array A(2)\n"
                "for k = 1..N:\n"
                "  for i = 1..N:\n"
                "    for j = 1..N:\n"
                "      S: A[i, j] = f(A[i, j], A[i, k], A[k, j])\n"
            ),
            schedule="outer:1", params={"N": 12}, check_legality=False,
        )
        task = SweepTask.make(slow, "paragon", (4, 4), 2, True)
        result = execute_task(task, timeout=0.001)
        assert result.status == "timeout"
        assert "0.001" in result.error


class TestMachinesSatellite:
    def test_paragon_models_do_not_share_cost_params(self):
        from repro.machine import ParagonModel, T3DModel

        a, b = ParagonModel(2, 2), ParagonModel(4, 4)
        assert a.params is not b.params
        assert a.params == b.params  # same defaults, distinct instances

        t1, t2 = T3DModel(2, 2, 2), T3DModel(2, 2, 2)
        assert t1.params is not t2.params


class TestPerTaskPricingHook:
    def test_per_task_path_prices_through_runtime_execute(
        self, small_grid, tmp_path, monkeypatch
    ):
        """Every price goes through the ``repro.runtime.execute`` name
        looked up at call time — the hook that lets a campaign be
        priced by a reference executor."""
        import repro.runtime
        from repro.campaign import clear_baseline_cache

        _, tasks = small_grid
        calls = []
        fast = repro.runtime.execute

        def counted(*args, **kwargs):
            calls.append(args[0])
            return fast(*args, **kwargs)

        clear_baseline_cache()
        monkeypatch.setattr(repro.runtime, "execute", counted)
        outcome = run_campaign(
            tasks, str(tmp_path / "hooked.jsonl"), CampaignConfig(jobs=1)
        )
        assert outcome.ok == len(tasks)
        # one heuristic price per task plus one per baseline-memo miss
        assert len(calls) == len(tasks) + outcome.baseline_cache_misses

    def test_seconds_are_each_tasks_own_wall_time(
        self, tmp_path, monkeypatch
    ):
        """A task's ``seconds`` is its own wall time: slowing one
        machine's pricing shows up in that machine's records and
        summary rows only."""
        import repro.runtime
        from repro.campaign import (
            clear_baseline_cache,
            clear_compile_cache,
            summarize_results,
        )

        spec = default_spec(
            seed=0, nests=2, include_corpus=False,
            machines=("paragon", "cm5"), meshes=((2, 2),),
        )
        tasks = spec.expand()
        clear_compile_cache()
        clear_baseline_cache()
        # warm the compile and baseline caches so no task pays a compile
        run_campaign(tasks, str(tmp_path / "warm.jsonl"), CampaignConfig())
        fast = repro.runtime.execute

        def slow_paragon(program, machine, collectives=None, **kwargs):
            if collectives is None:  # only cm5 cells price collectives
                time.sleep(0.05)
            return fast(program, machine, collectives=collectives, **kwargs)

        monkeypatch.setattr(repro.runtime, "execute", slow_paragon)
        path = str(tmp_path / "timed.jsonl")
        outcome = run_campaign(tasks, path, CampaignConfig())
        assert outcome.ok == len(tasks)
        _, results = RunStore(path).load()
        by_machine = {"paragon": [], "cm5": []}
        for r in results.values():
            by_machine[r.machine].append(r.seconds)
        assert min(by_machine["paragon"]) > max(by_machine["cm5"])
        rows = {
            row["machine"]: row for row in summarize_results(results.values())
        }
        assert rows["paragon"]["seconds"] > rows["cm5"]["seconds"]
        assert (
            rows["paragon"]["tasks_per_second"]
            < rows["cm5"]["tasks_per_second"]
        )

    def test_tracing_prices_through_the_same_path(
        self, tmp_path, monkeypatch
    ):
        """A traced and an untraced campaign price every task through
        the same ``repro.runtime.execute`` calls and store the same
        records (on compile-key groups of 4 cells)."""
        import repro.runtime
        from repro.campaign import clear_baseline_cache, clear_compile_cache

        tasks = default_spec(
            seed=0, nests=3, include_corpus=False,
            meshes=((4, 4), (2, 2)),
        ).expand()
        fast = repro.runtime.execute

        def run(tag, trace):
            calls = []

            def counted(*args, **kwargs):
                calls.append(args[0])
                return fast(*args, **kwargs)

            clear_compile_cache()
            clear_baseline_cache()
            monkeypatch.setattr(repro.runtime, "execute", counted)
            path = str(tmp_path / f"{tag}.jsonl")
            config = CampaignConfig(
                trace=str(tmp_path / f"{tag}.trace.jsonl") if trace else None
            )
            outcome = run_campaign(tasks, path, config)
            assert outcome.ok == len(tasks)
            _, results = RunStore(path).load()
            return len(calls), _deterministic(results)

        plain_calls, plain = run("plain", trace=False)
        traced_calls, traced = run("traced", trace=True)
        assert plain_calls == traced_calls >= len(tasks)
        assert plain == traced
