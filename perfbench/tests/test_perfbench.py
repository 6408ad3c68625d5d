"""Tests of the benchmark itself: its correctness gate, its span arithmetic and
a smoke-sized run of every workload.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _run_smoke(name, tmp_path):
    tasks = workloads.build(name, 5, "smoke", 1, str(tmp_path))
    ledger = workloads.Ledger()
    workloads.run_tasks(name, tasks, 5, "smoke", ledger)
    return ledger


def test_smoke_references_hold(tmp_path):
    for name in workloads.WORKLOADS:
        ledger = _run_smoke(name, tmp_path)
        assert ledger.attempted > 0
        assert ledger.failed == 0, ledger.failures


def test_planted_wrong_reference_fails(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.REFERENCE["smoke"], "subgroups", 157)
    ledger = _run_smoke("lattice", tmp_path)
    assert ledger.failed == 1
    assert ledger.failures == ["praeger_saxl: subgroup count"]


def test_planted_wrong_digest_fails(tmp_path, monkeypatch):
    tasks = workloads.build("census", 5, "smoke", 1, str(tmp_path))
    monkeypatch.setitem(workloads.DIGESTS, ("census", "cli_census"), "0" * 64)
    ledger = workloads.Ledger()
    # digests are pinned for the full size only; pretend this is one
    monkeypatch.setitem(workloads.CHECK_COUNTS, ("census", "full", "cli_census"), 2)
    workloads.run_tasks("census", [t for t in tasks if t.name == "cli_census"],
                        workloads.DEFAULT_SEED, "full", ledger)
    assert ledger.failures == ["cli_census: output digest"]


def test_raising_task_fails_all_its_checks(monkeypatch):
    def boom(ledger):
        ledger.check("first", True)
        raise ValueError("fault in the middle of a sweep")

    monkeypatch.setitem(workloads.CHECK_COUNTS, ("lattice", "smoke", "boom"), 7)
    ledger = workloads.Ledger()
    workloads.run_tasks("lattice", [workloads.Task("boom", boom)], 1, "smoke", ledger)
    assert (ledger.attempted, ledger.failed) == (7, 7)


def test_coloured_input_with_wrong_arity_is_refused():
    from treeirs.tree import ColourScheme

    with pytest.raises(ValueError, match="scheme.d=3"):
        workloads._coloured(2, ColourScheme.full(3))


def test_inputs_depend_only_on_the_seed(tmp_path):
    def pairs(seed):
        tasks = workloads.build("analytic", seed, "smoke", 1, str(tmp_path))
        ledger = workloads.Ledger()
        workloads.run_tasks("analytic", [t for t in tasks if t.name == "tree_pairs"],
                            seed, "smoke", ledger)
        return ledger.digests["tree_pairs"]

    assert pairs(3) == pairs(3)
    assert pairs(3) != pairs(4)


def test_parts_cover_every_task_once(tmp_path):
    for name in workloads.WORKLOADS:
        tasks = workloads.build(name, 5, "smoke", 1, str(tmp_path))
        grouped = [t.name for part in workloads.parts(name, tasks) for t in part]
        assert sorted(grouped) == sorted(t.name for t in tasks)


# ---------------------------------------------------------------------------
# timing at a nominal host speed
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_steps_are_scaled_by_the_gauges_around_each_interval(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(workloads, "time", clock)
    readings = iter([1.0, 3.0, 1.0, 2.0])
    ledger = workloads.Ledger(gauge=lambda: next(readings))
    ledger._task = "t"
    ledger.start_step()                 # reading 1.0
    clock.now += 0.1
    ledger.checkpoint()                 # too early: no reading
    clock.now += 0.1
    ledger.checkpoint()                 # 0.2 s between readings 1.0 and 3.0
    clock.now += 0.4
    ledger.lap("a")                     # 0.4 s between readings 3.0 and 1.0
    clock.now += 0.2
    ledger.lap("b")                     # 0.2 s between readings 1.0 and 2.0
    assert ledger.step_s == pytest.approx({"t/a": 0.6, "t/b": 0.2})
    assert ledger.step_k == pytest.approx({"t/a": 0.2 / 2 + 0.4 / 2, "t/b": 0.2 / 1.5})


def test_ungauged_ledger_times_steps_only():
    ledger = workloads.Ledger()
    ledger._task = "t"
    ledger.start_step()
    ledger.checkpoint()
    ledger.lap("a")
    assert set(ledger.step_s) == {"t/a"} and ledger.step_k == {}


def test_step_medians():
    reps = [{"step_s": {"a": 1.0, "b": 4.0}, "step_k": {"a": 500.0, "b": 2000.0}},
            {"step_s": {"a": 3.0, "b": 2.0}, "step_k": {"a": 700.0, "b": 1000.0}},
            {"step_s": {"a": 2.0}, "step_k": {"a": 600.0}}]
    assert run.step_medians(reps, scaled=False) == {"a": 2.0, "b": 3.0}
    assert run.step_medians(reps, scaled=True) == pytest.approx(
        {"a": 600 * run.KERNEL_S, "b": 1500 * run.KERNEL_S})


def test_schedule_runs_every_unit_then_the_least_repeated_that_fits():
    units = [("plain", 0), ("plain", 1)]
    reps = {units[0]: [], units[1]: []}
    assert run.schedule(units, reps, 100) == units[0]
    reps[units[0]].append({"elapsed_s": 4.0})
    assert run.schedule(units, reps, 0) == units[1]     # every unit runs once
    reps[units[1]].append({"elapsed_s": 6.0})
    assert run.schedule(units, reps, 10) == units[1]    # tie: the longer first
    reps[units[1]].append({"elapsed_s": 6.0})
    assert run.schedule(units, reps, 10) == units[0]    # the least repeated
    assert run.schedule(units, reps, 5) == units[0]     # only it fits
    assert run.schedule(units, reps, 3) is None


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_with_overlapping_children_on_two_threads():
    parent = Span("p", 1, 0, 100)
    a = Span("a", 1, 10, 40, parent)         # on the parent's thread
    b = Span("b", 2, 30, 70, parent)         # on a pool thread, overlaps a
    c = Span("c", 2, 90, 130, parent)        # runs past the parent's end
    g = Span("g", 2, 35, 45, b)
    selfs = tracing.self_times([parent, a, b, c, g])
    # children cover [10, 70] and [90, 100] of the parent: 70 of 100
    assert selfs[id(parent)] == 30
    assert selfs[id(a)] == 30
    assert selfs[id(b)] == 30
    assert selfs[id(c)] == 40
    assert selfs[id(g)] == 10


def test_union_length():
    assert tracing.union_length([]) == 0
    assert tracing.union_length([(0, 5), (5, 7), (1, 2), (10, 11)]) == 8


def test_pool_tasks_inherit_the_submitting_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("canon.canon_full", lambda x: threading.get_ident())
    pool = tracer.executor(ThreadPoolExecutor)

    def estimator():
        with pool(max_workers=2) as ex:
            return list(ex.map(leaf, range(8)))

    est = tracer.wrap("montecarlo.estimate_treematch", estimator)
    est()
    top = next(s for s in tracer.spans if s.name == "montecarlo.estimate_treematch")
    leaves = [s for s in tracer.spans if s.name == "canon.canon_full"]
    assert len(leaves) == 8
    assert all(s.parent is top for s in leaves)
    assert all(s.thread != top.thread for s in leaves)
    metrics = tracing.layer_metrics(tracer, top.start, top.end, {})
    assert metrics["montecarlo.estimate_treematch.calls"] == 1
    assert metrics["trace.attributed_share"] == 1.0
    assert 0 < metrics["montecarlo.busy_ratio"] <= 1


def test_checkpoints_fire_on_the_main_thread_in_every_binding_module():
    from treeirs import canon, montecarlo

    original = canon.canon_full
    calls = []
    tracing.install_checkpoints([("canon", "canon_full")], lambda: calls.append(1))
    try:
        assert montecarlo.canon_full is canon.canon_full is not original
        assert montecarlo.canon_full([0], 1, 2) == original([0], 1, 2)
        assert calls == [1]
        worker = threading.Thread(target=montecarlo.canon_full, args=([1], 1, 2))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and calls == [1]
    finally:
        tracing.rebind(canon.canon_full, original)
    assert montecarlo.canon_full is canon.canon_full is original


def test_per_layer_metrics_match_the_spec():
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert spec == tracing.metric_units()


# ---------------------------------------------------------------------------
# the command, end to end
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_completes(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "2", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "lattice", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
