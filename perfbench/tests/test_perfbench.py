"""The benchmark's own tests, at the tiny smoke size.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from layers import WRAPS  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

WORKLOAD_NAMES = tuple(wl.WORKLOADS)


def _bench(*args):
    """Run the benchmark in this process; (exit code, last-line result)."""
    out = StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for var in run.THREAD_VARS:
            mp.setenv(var, os.environ.get(var, "1"))
        with redirect_stdout(out):
            rc = run.main(list(args))
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def originals():
    """The functions a traced run wraps, taken before any run."""
    cf = run._import_cfmlab()
    return cf, {(m, a): getattr(cf.modules[m], a) for m, a, _ in WRAPS}


@pytest.fixture(scope="module")
def results(originals):
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = _bench(
                "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
        return cache[workload, trace]

    return get


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(wl.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == wl.per_layer()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_reported_with_its_unit(results, workload, trace):
    rc, result = results(workload, trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    specs = wl.per_layer() if trace else wl.END_TO_END
    assert {n: u for n, u, *_ in specs} == {
        n: m["unit"] for n, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_phases_keep_to_their_layers(results):
    for workload in ("train_short", "train_long"):
        metrics = results(workload, 1)[1]["metrics"]
        assert metrics["flow.field_eval_calls"]["value"] == 0
        assert metrics["numerics.grad_calls"]["value"] > 0
        assert metrics["numerics.tape_nodes.stage2"]["value"] > 0
    metrics = results("sample_eval", 1)[1]["metrics"]
    assert metrics["numerics.grad_calls"]["value"] == 0
    assert metrics["flow.field_eval_calls"]["value"] > 0
    assert metrics["checkpoint.load_calls"]["value"] > 0


def test_wrapped_functions_are_restored(originals, results):
    cf, before = originals
    for workload in WORKLOAD_NAMES:
        results(workload, 1)
    for (m, a), original in before.items():
        assert getattr(cf.modules[m], a) is original, f"{m}.{a}"
        assert not hasattr(original, "__wrapped__"), f"{m}.{a}"


def test_self_time_subtracts_children():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and a second b [5, 6];
    # a nested b inside b is not counted twice in b's inclusive time
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0], ["b", 5.5, 5.75, 3]]
    got = summarize(spans)
    assert got["a"] == {"s": 10.0, "self_s": 6.0, "calls": 1}
    assert got["b"] == {"s": 4.0, "self_s": 3.0, "calls": 3}
    assert got["c"] == {"s": 1.0, "self_s": 1.0, "calls": 1}


def test_tracer_records_parents_and_restores():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    original = Owner.f
    tracer = Tracer()
    tracer.wrap(Owner, "f", ("outer", "inner"))
    with tracer.span("root"):
        assert Owner.f(1) == 2
    tracer.restore()
    assert Owner.f is original
    assert [(n, p) for n, _, _, p in tracer.spans] == [
        ("root", -1), ("outer", 0), ("inner", 1)]


def test_epoch_seconds_leave_out_kernel_runs():
    # 3 epochs of 2 steps; a 0.1 s kernel run after every step reports 0.1 s
    marks = [(t, t + 0.1, 0.1) for t in (0.5, 1.0, 1.5, 3.0, 3.5, 6.0)]
    got = wl.epoch_seconds(marks, 3)
    assert got == [pytest.approx((1.8, 0.1)), pytest.approx((2.8, 0.1))]
    assert wl.epoch_seconds(marks[:5], 3) is None


def test_smooth_kernels_takes_neighbour_medians():
    samples = [(1.0, 1.0), (2.0, 9.0), (3.0, 1.0), (4.0, 2.0)]
    assert wl.smooth_kernels(samples, half=1) == [
        (1.0, 5.0), (2.0, 1.0), (3.0, 2.0), (4.0, 1.5)]


def test_failed_operations_are_counted():
    cf = run._import_cfmlab()
    r = wl.Run(cf, wl.WORKLOADS["train_short"], 0, 1.0, False, ROOT, smoke=True)

    def boom():
        raise cf.errors[0]("bad")

    assert r.op("x", boom, critical=False) is None
    with pytest.raises(wl.Abort):
        r.op("y", boom)
    r.check("z", False)
    assert (r.attempted, r.failed) == (3, 3)


def test_failing_gate_fails_the_run(monkeypatch):
    cf = run._import_cfmlab()
    monkeypatch.setattr(cf.cli, "main", lambda argv: 3)
    rc, result = _bench("--workload", "train_short", "--seed", "1",
                        "--seconds", "0.5", "--trace", "0", "--smoke")
    assert rc == 1
    assert not result["correct"] and result["failed"] >= 1


def test_without_sources_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
