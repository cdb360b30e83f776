"""The names perfbench reaches into cfmlab by, and the calls its spans
count. A traced run wraps each (module, attribute) of perfbench/layers.py
WRAPS with getattr, and the workloads call further names directly, so
renaming or removing any of them, or routing a call around them, breaks the
benchmark without failing another test."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cfmlab
from cfmlab import evaluate, sampler, synthdata
from cfmlab.codec import PART_ORDER
from cfmlab.config import config_from_dict
from cfmlab.numerics import Tape
from cfmlab.synthdata import build_dataset
from cfmlab.training import init_stage2, train_codec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wraps():
    return _perfbench("layers").WRAPS


# called directly by perfbench/workloads.py and perfbench/run.py
DIRECT = (
    ("cli", "main"),
    ("config", "config_from_dict"),
    ("config", "config_hash"),
    ("evaluate", "condition_for_clip"),
    ("evaluate", "evaluate_run"),
    ("numerics", "Tape"),
    ("sampler", "OdeConfig"),
    ("sampler", "generate"),
    ("sampler", "write_motion_csv"),
    ("sampler", "write_sidecar"),
    ("synthdata", "build_dataset"),
    ("training", "adam_step"),
    ("training", "load_stage1_checkpoint"),
    ("training", "load_stage2_checkpoint"),
    ("training", "save_stage1_checkpoint"),
    ("training", "save_stage2_checkpoint"),
    ("training", "train_codec"),
    ("training", "train_generator"),
)


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _wraps()] + list(DIRECT))
def test_bench_names_resolve(module, attr):
    mod = importlib.import_module(f"cfmlab.{module}")
    assert callable(getattr(mod, attr, None)), f"cfmlab.{module}.{attr}"


def test_dataset_reads_perfbench_makes():
    # perfbench/workloads.py sizes its rates by len() of each split and
    # conditions each draw on a test clip's (L, d_a) audio and (L, d_t) text
    cfg = config_from_dict({"dataset": {"n_clips": 20, "ratios": [0.5, 0.0, 0.5]}})
    ds = build_dataset(cfg.dataset)
    assert [len(ds.splits[s]) for s in ("train", "val", "test")] == [10, 0, 10]
    test, n_latent = ds.splits["test"], cfg.dataset.n_frames // cfg.dataset.downsample
    for k in (0, len(test) - 1):
        assert test[k].audio.shape == (n_latent, cfg.dataset.d_audio)
        assert test[k].text.shape == (n_latent, cfg.dataset.d_text)


# ------------------------------------------------------- span call counts
# A traced run reads a layer's calls from the spans its wraps record, so a
# call that moves to a name perfbench does not wrap reads 0 without failing.

@contextmanager
def _probed():
    """perfbench's own wraps installed: (tracer, probe, span name -> calls)."""
    layers, spans = _perfbench("layers"), _perfbench("spans")
    tracer = spans.Tracer()
    modules = {m: importlib.import_module(f"cfmlab.{m}") for m, _, _ in layers.WRAPS}
    probe = layers.LayerProbe(tracer, modules, Tape)
    probe.install()
    calls = {}
    try:
        yield tracer, probe, calls
    finally:
        probe.restore()
    calls.update((name, row["calls"])
                 for name, row in spans.summarize(tracer.spans).items())


def _span_calls(fn):
    """Run fn under perfbench's own wraps; span name -> calls."""
    with _probed() as (_, _, calls):
        fn()
    return calls


def _tiny_model():
    cfg = config_from_dict({
        "seed": 3, "sampler": {"steps": 3},
        "dataset": {"n_classes": 2, "n_clips": 10, "n_frames": 32,
                    "n_onsets": 2, "ratios": [0.5, 0.0, 0.5]},
        "codec": {"epochs": 0, "n_codes": 8}})
    ds = build_dataset(cfg.dataset)
    codecs, stacks, _ = train_codec(cfg, ds)
    return cfg, ds.splits["test"], codecs, stacks, *init_stage2(cfg)


@pytest.mark.parametrize("scheme, evals_per_step", [("euler", 1), ("midpoint", 2)])
def test_one_solve_spans_one_field_eval_and_tcam_per_evaluation(scheme, evals_per_step):
    _, _, codecs, stacks, net, _, proj = _tiny_model()
    rng = np.random.default_rng(0)
    conds = [rng.standard_normal((8, net.d_cond)) for _ in range(3)]
    configs = [sampler.OdeConfig(n=5, scheme=scheme, seed=s) for s in range(3)]
    calls = _span_calls(lambda: sampler.generate_batch(net, stacks, codecs, conds,
                                                       configs, proj=proj))
    assert calls["sampler.integrate_ode"] == 1
    assert calls["flow.field_eval"] == calls["flow.tcam_fuse"] == 5 * evals_per_step


def test_generate_split_spans_one_condition_per_clip():
    # perfbench runs its calibration kernel on condition_for_clip calls
    cfg, clips, codecs, stacks, net, heads, proj = _tiny_model()
    assert len(clips) == 5
    seeds = evaluate._clip_seeds(cfg.seed, len(clips))
    calls = _span_calls(lambda: evaluate.generate_split(cfg, clips, seeds, net, heads,
                                                        stacks, codecs, proj=proj))
    assert calls["flow.condition"] == len(clips)
    assert calls["flow.field_eval"] == calls["sampler.integrate_ode"] * cfg.sampler.steps


def test_evaluate_run_spans_each_eval_layer(monkeypatch):
    # the split is sampled and scored one chunk at a time, so each eval span
    # counts calls per chunk (here 2 + 2 + 1 clips); the conditions stay one
    # per clip
    cfg, clips, codecs, stacks, net, heads, proj = _tiny_model()
    ds = SimpleNamespace(splits={"test": clips})
    monkeypatch.setattr(synthdata, "_CHUNK_ROWS", 2 * len(clips[0].audio))
    calls = _span_calls(lambda: evaluate.evaluate_run(cfg, ds, codecs, stacks, net=net,
                                                      heads=heads, proj=proj))
    assert calls["evaluate.generate_split"] == 3
    assert calls["metrics.features"] == 6
    assert calls["metrics.bc"] == 6
    assert calls["flow.condition"] == len(clips)


def test_one_stage1_step_spans_each_codec_layer_once_per_part():
    # codec.code_usage and the stage-1 spans read what these hooks and wraps
    # see; a step that went around them would read 0 and fail nothing else
    cfg = config_from_dict({
        "seed": 4,
        "dataset": {"n_classes": 2, "n_clips": 10, "n_frames": 32,
                    "n_onsets": 2, "ratios": [0.5, 0.0, 0.5]},
        "codec": {"epochs": 1, "batch": 8, "n_codes": 8}})
    ds = build_dataset(cfg.dataset)
    parts, stage1 = len(PART_ORDER), _perfbench("layers").STAGE1
    with _probed() as (tracer, probe, calls):
        with tracer.span(stage1):
            train_codec(cfg, ds)
    # 5 training clips, one batch, one gradient per part
    assert calls["numerics.grad"] == parts
    # init_stage1 encodes each part once more, to seed its codebooks
    assert calls["codec.encode"] == 2 * parts
    for name in ("codec.rvq_quantize", "codec.decode", "codec.ema_update"):
        assert calls[name] == parts, name
    kept = list(probe.stage1_codes.values())
    assert len(kept) == parts and all(len(k) == 1 for k in kept)
    for (codes,) in kept:
        assert codes.dtype == np.int64
        assert codes.shape == (5, 32 // cfg.dataset.downsample, cfg.codec.depth)
    assert probe.code_usage(cfg.codec.epochs, cfg.codec.n_codes) > 0.0
    # each part's graph has its reconstruction and commitment mse among its
    # 26 nodes, and its decoder's neighbour_linear, which is not a matmul
    # node; constants have no node
    assert probe.tape[stage1] == [(26, 3)] * parts


def _import_probe():
    """perfbench's IMPORT_PROBE, read without running perfbench/workloads.py
    (it imports perfbench's sibling modules by bare name)."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "IMPORT_PROBE" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no IMPORT_PROBE")


@pytest.mark.parametrize("prefix", ["scipy.signal", "scipy.spatial"])
def test_import_probe_does_not_load_scipy_signal(prefix):
    # importing scipy.signal (and with it scipy.stats and scipy.optimize)
    # took about 1 s of every fresh cfmlab process; scipy.spatial (with
    # scipy.sparse, scipy.linalg, qhull and the kd-tree) 0.1 s and 12 MB
    code = _import_probe() + "\nimport sys\nprint(sorted(m for m in sys.modules " \
        f"if m == {prefix!r} or m.startswith({prefix + '.'!r})))"
    env = dict(os.environ, PYTHONPATH=str(Path(cfmlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.strip() == "[]"
