"""The names perfbench reaches into cfmlab by. A traced run wraps each
(module, attribute) of perfbench/layers.py WRAPS with getattr, and the
workloads call further names directly, so renaming or removing any of them
breaks the benchmark without failing another test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.WRAPS


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
