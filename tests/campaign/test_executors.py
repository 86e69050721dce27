"""The pluggable execution backends: parity with inline, worker-death
recovery, retry/backoff telemetry, hang detection and configuration
pass-through for spawn-context workers."""

import pytest

from repro.__main__ import main
from repro.campaign import (
    CampaignConfig,
    RunStore,
    baseline_cache_stats,
    clear_baseline_cache,
    default_spec,
    execute_task,
    executor_names,
    make_executor,
    run_campaign,
    set_baseline_cache_size,
    set_compile_cache_size,
)
from repro.campaign.executors import (
    BACKOFF_CAP,
    ExecutorConfig,
    backoff_delay,
    init_worker,
)


@pytest.fixture(scope="module")
def grid():
    # 3 generated nests x 2 meshes on one machine = 6 tasks, 3 groups
    spec = default_spec(
        seed=0, nests=3, include_corpus=False,
        machines=("paragon",), meshes=((4, 4), (2, 2)),
    )
    return spec, spec.expand()


@pytest.fixture(scope="module")
def reference(grid, tmp_path_factory):
    spec, tasks = grid
    path = str(tmp_path_factory.mktemp("ref") / "ref.jsonl")
    run_campaign(tasks, path, CampaignConfig(jobs=1),
                 meta={"spec_digest": spec.digest()})
    _, results = RunStore(path).load()
    return {k: r.deterministic_dict() for k, r in results.items()}


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)


def _run(grid, tmp_path, name, **kw):
    spec, tasks = grid
    path = str(tmp_path / f"{name}.jsonl")
    outcome = run_campaign(
        tasks, path, CampaignConfig(**kw),
        meta={"spec_digest": spec.digest()},
    )
    _, results = RunStore(path).load()
    return outcome, results


class TestRegistry:
    def test_three_backends_registered(self):
        assert executor_names() == ["inline", "pool", "resilient"]

    def test_unknown_name_is_friendly(self):
        with pytest.raises(ValueError, match="unknown executor 'warp'"):
            make_executor("warp", ExecutorConfig())

    def test_runner_rejects_unknown_executor(self, grid, tmp_path):
        with pytest.raises(ValueError, match="unknown executor"):
            _run(grid, tmp_path, "bad", executor="warp")

    def test_backoff_delay_is_capped_exponential(self):
        assert backoff_delay(0.5, 1) == 0.5
        assert backoff_delay(0.5, 3) == 2.0
        assert backoff_delay(10.0, 9) == BACKOFF_CAP
        assert backoff_delay(0.0, 5) == 0.0
        assert backoff_delay(0.5, 0) == 0.0


class TestParity:
    @pytest.mark.parametrize("name", ["pool", "resilient"])
    def test_process_backends_match_inline(
        self, grid, tmp_path, reference, name
    ):
        outcome, results = _run(grid, tmp_path, name, jobs=2, executor=name)
        assert outcome.ok == len(reference) and outcome.crashed == 0
        got = {k: r.deterministic_dict() for k, r in results.items()}
        assert got == reference

    def test_explicit_inline_matches_default(self, grid, tmp_path, reference):
        _, results = _run(grid, tmp_path, "inline", executor="inline")
        got = {k: r.deterministic_dict() for k, r in results.items()}
        assert got == reference


class TestWorkerDeath:
    """A SIGKILLed worker must surface as typed records, never a hang."""

    @pytest.mark.parametrize("name", ["pool", "resilient"])
    def test_kill_surfaces_crashed_and_campaign_continues(
        self, grid, tmp_path, monkeypatch, name
    ):
        spec, tasks = grid
        victim = tasks[0]
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"kill:task={victim.task_id},times=99"
        )
        outcome, results = _run(
            grid, tmp_path, name, jobs=2, executor=name, backoff=0.01,
        )
        assert outcome.crashed >= 1
        crashed = [r for r in results.values() if r.status == "crashed"]
        assert any(r.task_id == victim.task_id for r in crashed)
        for r in crashed:
            assert r.error_kind == "crash"
            assert "worker process died" in r.error
        # the rest of the campaign completed
        assert outcome.ok == len(tasks) - len(crashed)

    def test_resilient_crash_granularity_is_per_task(
        self, grid, tmp_path, monkeypatch
    ):
        # the victim's compile-key group has 2 mesh cells; only the
        # victim task is lost, its sibling completes in the respawn
        spec, tasks = grid
        victim = tasks[0]
        siblings = [
            t for t in tasks
            if t.compile_key == victim.compile_key
            and t.task_id != victim.task_id
        ]
        assert siblings
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"kill:task={victim.task_id},times=99"
        )
        _, results = _run(
            grid, tmp_path, "resilient", jobs=2, executor="resilient",
            backoff=0.01,
        )
        assert results[victim.task_id].status == "crashed"
        for s in siblings:
            assert results[s.task_id].status == "ok"

    @pytest.mark.parametrize("name", ["pool", "resilient"])
    def test_retries_heal_a_transient_kill(
        self, grid, tmp_path, monkeypatch, reference, name
    ):
        spec, tasks = grid
        victim = tasks[0]
        # times=1: only the first attempt dies; the retry succeeds
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"kill:task={victim.task_id},times=1"
        )
        outcome, results = _run(
            grid, tmp_path, name, jobs=2, executor=name,
            retries=2, backoff=0.01,
        )
        assert outcome.crashed == 0 and outcome.ok == len(tasks)
        assert outcome.retried >= 1
        assert results[victim.task_id].attempts == 2
        # the healed record is bit-identical to the unfaulted run
        got = {k: r.deterministic_dict() for k, r in results.items()}
        assert got == reference


class TestHangDetection:
    def test_resilient_kills_and_types_a_sigalrm_proof_hang(
        self, grid, tmp_path, monkeypatch
    ):
        spec, tasks = grid
        victim = tasks[0]
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"hang:task={victim.task_id},times=99"
        )
        outcome, results = _run(
            grid, tmp_path, "resilient", jobs=2, executor="resilient",
            timeout=2.0, heartbeat_timeout=10.0, backoff=0.01,
        )
        rec = results[victim.task_id]
        assert rec.status == "timeout" and rec.error_kind == "timeout"
        assert "hang detected" in rec.error
        assert outcome.timeouts == 1
        assert outcome.ok == len(tasks) - 1

    def test_inline_downgrades_hang_to_transient_failure(
        self, grid, tmp_path, monkeypatch
    ):
        spec, tasks = grid
        victim = tasks[0]
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"hang:task={victim.task_id},times=99"
        )
        _, results = _run(grid, tmp_path, "inline", executor="inline")
        rec = results[victim.task_id]
        assert rec.status == "error" and rec.error_kind == "fault"
        assert "downgraded" in rec.error


class TestSpawnConfigPassthrough:
    def test_spawn_workers_honour_parent_cache_size(self, grid, tmp_path):
        # spawn workers re-import the module, so a fork-inherited
        # global would silently revert to the default (32); the size
        # must travel through the worker-init call instead
        prev = set_compile_cache_size(0)
        try:
            outcome, _ = _run(
                grid, tmp_path, "spawned", jobs=2, executor="resilient",
                mp_context="spawn",
            )
        finally:
            set_compile_cache_size(prev)
        assert outcome.ok == len(grid[1])
        assert outcome.compile_cache_hits == 0
        assert outcome.compile_cache_misses == len(grid[1])

    def test_spawn_workers_honour_parent_baseline_cache_size(self, tmp_path):
        # the baseline price memo must travel through worker init like
        # the compile-cache size: a rank-weights sweep on one pool
        # worker hits the memo by default, and a parent that disabled
        # it must see zero hits even from spawn-context workers
        spec = default_spec(
            seed=0, nests=2, include_corpus=False,
            machines=("paragon",), meshes=((4, 4), (2, 2)),
            rank_weights=(True, False),
        )
        tasks = spec.expand()
        cells = len(tasks) // 2  # distinct (workload, machine, mesh)

        def run(name):
            path = str(tmp_path / f"{name}.jsonl")
            outcome = run_campaign(
                tasks, path,
                CampaignConfig(jobs=1, executor="pool", mp_context="spawn"),
                meta={"spec_digest": spec.digest()},
            )
            return outcome

        clear_baseline_cache()
        outcome = run("default")
        assert outcome.ok == len(tasks)
        assert outcome.baseline_cache_misses == cells
        assert outcome.baseline_cache_hits == cells

        prev = set_baseline_cache_size(0)
        try:
            outcome = run("disabled")
        finally:
            set_baseline_cache_size(prev)
        assert outcome.ok == len(tasks)
        assert outcome.baseline_cache_hits == 0
        assert outcome.baseline_cache_misses == len(tasks)

    def test_init_worker_applies_baseline_and_backend_knobs(self):
        prev = baseline_cache_stats()["maxsize"]
        try:
            init_worker(
                ExecutorConfig(baseline_cache_size=7),
                allow_kill=False,
                allow_hang=False,
            )
            assert baseline_cache_stats()["maxsize"] == 7
        finally:
            set_baseline_cache_size(prev)


class TestTimeoutValidation:
    @pytest.mark.parametrize("bad", [0, -3.5])
    def test_execute_task_rejects_nonpositive_timeout(self, grid, bad):
        with pytest.raises(ValueError, match="timeout must be positive"):
            execute_task(grid[1][0], timeout=bad)

    @pytest.mark.parametrize("bad", [0, -3.5])
    def test_run_campaign_rejects_nonpositive_timeout(
        self, grid, tmp_path, bad
    ):
        with pytest.raises(ValueError, match="timeout must be positive"):
            _run(grid, tmp_path, "bad", timeout=bad)

    def test_cli_rejects_nonpositive_timeout_with_exit_2(
        self, tmp_path, capsys
    ):
        out = str(tmp_path / "out.jsonl")
        rc = main([
            "campaign", "run", "--out", out, "--nests", "1",
            "--no-corpus", "--timeout", "0",
        ])
        assert rc == 2
        assert "--timeout must be positive" in capsys.readouterr().err

    def test_cli_rejects_negative_retries_with_exit_2(
        self, tmp_path, capsys
    ):
        out = str(tmp_path / "out.jsonl")
        rc = main([
            "campaign", "run", "--out", out, "--nests", "1",
            "--no-corpus", "--retries", "-1",
        ])
        assert rc == 2
        assert "--retries" in capsys.readouterr().err
