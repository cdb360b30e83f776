"""CLI exit codes for malformed inputs: 2 for usage, config and checkpoint
errors, with an `error:` line instead of a traceback; and the package's
exported names."""

import importlib
import json
import pkgutil

import pytest

import cfmlab
from cfmlab.alignment import ProjectionHeads
from cfmlab.checkpoint import CheckpointError
from cfmlab.cli import main
from cfmlab.codec import CodebookStack, PartCodecParams
from cfmlab.flow import VelocityNet
from cfmlab.sampler import ManifoldProjection

TINY = {"seed": 2, "dataset": {"n_classes": 3, "n_clips": 20, "n_frames": 32,
                               "n_onsets": 3, "ratios": [0.6, 0.0, 0.4]},
        "codec": {"epochs": 1, "batch": 8, "n_codes": 16}}


@pytest.fixture(scope="module")
def stage1(tmp_path_factory):
    """A config file and the stage-1 checkpoint trained from it."""
    out = tmp_path_factory.mktemp("stage1")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    assert main(["train-codec", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out / "codec.bin"


def _exits_2(argv, capsys, match):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err, err


def test_missing_checkpoint_file_exits_2(tmp_path, capsys):
    _exits_2(["generate", "--out", str(tmp_path), "--checkpoint",
              str(tmp_path / "absent.bin")], capsys, "cannot read checkpoint")


def test_config_directory_exits_2(tmp_path, capsys):
    _exits_2(["make-data", "--config", str(tmp_path), "--out", str(tmp_path / "o")],
             capsys, "cannot read config file")


def test_config_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"seed": "\xff"}')
    _exits_2(["make-data", "--config", str(cfg), "--out", str(tmp_path / "o")],
             capsys, "not UTF-8")


@pytest.mark.parametrize("dataset, field", [
    ({"downsample": 0}, "dataset.downsample: must be >= 1"),
    ({"ratios": "abc"}, "dataset.ratios: split ratios must be 3 numbers"),
], ids=["downsample", "ratios"])
def test_bad_dataset_field_exits_2_naming_it(tmp_path, capsys, dataset, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": dataset}))
    _exits_2(["make-data", "--config", str(cfg), "--out", str(tmp_path / "o")],
             capsys, field)


def test_out_path_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    _exits_2(["make-data", "--out", str(out)], capsys, "cannot use --out")


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_stage1_checkpoint_alone_exits_2(stage1, tmp_path, capsys, command):
    cfg, ckpt = stage1
    _exits_2([command, "--config", str(cfg), "--out", str(tmp_path),
              "--checkpoint", str(ckpt)], capsys, "missing flow tensor")


@pytest.mark.parametrize("load", [
    VelocityNet.from_named_tensors,
    ProjectionHeads.from_named_tensors,
    ManifoldProjection.from_named_tensors,
    lambda t: PartCodecParams.from_named_tensors(t, "hand"),
    lambda t: CodebookStack.from_named_tensors(t, "hand"),
], ids=["flow", "heads", "proj", "codec", "codebooks"])
def test_missing_model_tensor_is_a_checkpoint_error(load):
    with pytest.raises(CheckpointError):
        load({})


@pytest.mark.parametrize("name", ["cfmlab"] + sorted(
    m.name for m in pkgutil.walk_packages(cfmlab.__path__, "cfmlab.")))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
