"""CLI exit codes for malformed inputs: 2 for usage, config and checkpoint
errors, with an `error:` line instead of a traceback; and the package's
exported names."""

import importlib
import json
import math
import pkgutil
import re
import struct
import typing

import numpy as np
import pytest

import cfmlab
from cfmlab import cli, training
from cfmlab.alignment import ProjectionHeads
from cfmlab.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from cfmlab.cli import main
from cfmlab.codec import CodebookStack, PartCodecParams
from cfmlab.config import _SECTION_TYPES, config_from_dict, config_hash
from cfmlab.flow import VelocityNet
from cfmlab.numerics import Tensor
from cfmlab.sampler import ManifoldProjection
from cfmlab.training import stage1_from_tensors

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


@pytest.fixture(scope="module")
def stage2(stage1):
    """A config file with a one-epoch stage 2, and both checkpoints."""
    _, codec = stage1
    cfg = codec.parent / "run.json"
    cfg.write_text(json.dumps({**TINY, "flow": {"epochs": 1, "batch": 8},
                               "sampler": {"steps": 3}}))
    assert main(["train-generator", "--config", str(cfg), "--out", str(codec.parent),
                 "--checkpoint", str(codec)]) == 0
    return cfg, codec, codec.parent / "generator.bin"


def _exits_2(argv, capsys, match):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err, err
    assert err.count("\n") == 1, err  # one line, no traceback


def test_missing_checkpoint_file_exits_2(tmp_path, capsys):
    _exits_2(["generate", "--out", str(tmp_path), "--checkpoint",
              str(tmp_path / "absent.bin")], capsys, "cannot read checkpoint")


def test_checkpoint_rank_numpy_cannot_shape_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "rank70.bin"
    # one tensor "x" of rank 70, every dim 1, and its one float
    ckpt.write_bytes(MAGIC + struct.pack("<II", 1, 1) + b"x"
                     + struct.pack("<I70Qd", 70, *[1] * 70, 1.0))
    _exits_2(["evaluate", "--self-eval", "--out", str(tmp_path), "--checkpoint", str(ckpt)],
             capsys, f"tensor 'x' in {ckpt} has rank 70")


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
    ({"ratios": 5}, "dataset.ratios: split ratios must be 3 numbers"),
    ({"ratios": None}, "dataset.ratios: split ratios must be 3 numbers"),
    ({"ratios": [True, False, False]}, "dataset.ratios: split ratios must be 3 numbers"),
    ({"n_clips": 6, "n_frames": 16},
     "dataset.n_frames: clip of 16 frames too short for 4 onsets"),
], ids=["downsample", "ratios", "ratios_int", "ratios_null", "ratios_bools",
        "short_clips"])
def test_bad_dataset_field_exits_2_naming_it(tmp_path, capsys, dataset, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": dataset}))
    _exits_2(["make-data", "--config", str(cfg), "--out", str(tmp_path / "o")],
             capsys, field)


@pytest.mark.parametrize("payload, field", [
    ({"codec": {"epochs": "ten"}}, "codec.epochs: must be an integer, got 'ten'"),
    ({"codec": {"epochs": 2.5}}, "codec.epochs: must be an integer, got 2.5"),
    ({"dataset": {"noise": math.inf}}, "dataset.noise: must be a finite number"),
    # removed fields, refused even at their old defaults
    ({"flow": {"mode": "permute-pair"}}, "flow.mode: unknown config key"),
    ({"metrics": {"pooling": "mean"}}, "metrics.pooling: unknown config key"),
    ({"codec": {"downsample": 4}}, "codec.downsample: unknown config key"),
], ids=["str_for_int", "float_for_int", "inf_for_float", "removed_flow_mode",
        "removed_metrics_pooling", "removed_codec_downsample"])
def test_wrong_field_type_exits_2_naming_it(tmp_path, capsys, payload, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))  # inf is written as Infinity
    _exits_2(["make-data", "--config", str(cfg), "--out", str(tmp_path / "o")],
             capsys, field)


def test_known_config_hashes_are_unchanged():
    assert config_hash(config_from_dict({})) == (
        "98698f2a40dc2f747f2f902d04552115a0e8f98b6cb0af37c0f238d3ac9bd12b")
    assert config_hash(config_from_dict(TINY)) == (
        "da7da25b6d9507c8d9a50702aa96d751b05f84aab678464a7e11cfb7c75d1c97")


# a tiny base config, and what every field of every section is set to in turn:
# a string, a bool, a float where an int may be wanted, NaN, +-inf, a
# negative number and 0 (no huge sizes: a valid one would allocate)
FUZZ_BASE = {"dataset": {"n_classes": 2, "n_clips": 8, "n_frames": 32, "n_onsets": 2}}
FUZZ_VALUES = ["x", True, 2.5, math.nan, math.inf, -math.inf, -1, 0]


def _schema_fields():
    for section, cls in _SECTION_TYPES.items():
        for name in typing.get_type_hints(cls):
            yield section, name


@pytest.mark.parametrize("section, name", list(_schema_fields()))
def test_fuzzed_field_exits_0_or_2_naming_it(tmp_path, capsys, section, name):
    for value in FUZZ_VALUES:
        payload = {**FUZZ_BASE, section: {**FUZZ_BASE.get(section, {}), name: value}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))  # NaN and inf are written as NaN, Infinity
        capsys.readouterr()
        code = main(["make-data", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code in (0, 2), (value, code, err)
        if code == 2:
            assert re.fullmatch(rf"error: {section}\.{name}: [^\n]*\n", err), (value, err)


@pytest.mark.parametrize("lam", ["1", "nan"])
def test_lambda_override_goes_through_the_schema(tmp_path, capsys, lam):
    _exits_2(["train-generator", "--lambda", lam, "--out", str(tmp_path)], capsys,
             "flow.lam: ")


def test_mode_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train-generator", "--mode", "permute-pair", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


def test_out_path_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    _exits_2(["make-data", "--out", str(out)], capsys, "cannot use --out")


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 7.28 TiB for an array", "Unable to allocate 7.28 TiB"),
    ("", "an allocation failed")])
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, message, shown):
    def build_dataset(section):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "build_dataset", build_dataset)
    _exits_2(["make-data", "--out", str(tmp_path / "data")], capsys,
             f"error: out of memory: {shown}")


# a directory where the first output file goes; the checkpoint is written
# beside its target and renamed over it, and the temp file must not stay
@pytest.mark.parametrize("command, blocked", [("generate", "gen_000.csv"),
                                              ("evaluate", "report.json"),
                                              ("train-codec", "codec.bin")])
def test_unwritable_output_exits_2_naming_it(stage2, tmp_path, capsys, command, blocked):
    cfg, codec, generator = stage2
    (tmp_path / blocked).mkdir()
    checkpoints = [] if command == "train-codec" else [
        "--checkpoint", str(codec), "--checkpoint", str(generator)]
    _exits_2([command, "--config", str(cfg), "--out", str(tmp_path), *checkpoints],
             capsys, f"cannot write {tmp_path / blocked}: ")
    assert [p.name for p in tmp_path.iterdir()] == [blocked]


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_stage1_checkpoint_alone_exits_2(stage1, tmp_path, capsys, command):
    cfg, ckpt = stage1
    _exits_2([command, "--config", str(cfg), "--out", str(tmp_path),
              "--checkpoint", str(ckpt)], capsys, "missing flow tensor")


# (config change, the error); the stage2 fixture's generator has d_audio = 16
# and d_g = 8
MISFIT_STAGE2 = {
    "d_audio": ({"dataset": {**TINY["dataset"], "d_audio": 12}},
                "sacm/audio/weight: checkpoint has shape (16, 16), config wants (12, 16)"),
    "d_g": ({"codec": {**TINY["codec"], "d_g": 4}},
            "flow/p: checkpoint has shape (32,), config wants (16,)"),
}


@pytest.mark.parametrize("command", ["generate", "evaluate"])
@pytest.mark.parametrize("case", sorted(MISFIT_STAGE2))
def test_stage2_checkpoint_that_does_not_fit_the_config_exits_2_naming_the_tensor(
        stage2, tmp_path, capsys, case, command):
    run_cfg, _, generator = stage2
    change, message = MISFIT_STAGE2[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**json.loads(run_cfg.read_text()), **change}))
    # a codec trained from the changed config fits it; the generator does not
    assert main(["train-codec", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _exits_2([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
              "--checkpoint", str(tmp_path / "codec.bin"), "--checkpoint", str(generator)],
             capsys, message)
    assert not (tmp_path / "out").exists()


def test_evaluate_checks_out_before_it_evaluates(stage2, tmp_path, capsys, monkeypatch):
    cfg, codec, generator = stage2
    out = tmp_path / "taken"
    out.write_text("")
    monkeypatch.setattr(cli, "evaluate_run",
                        lambda *a, **k: pytest.fail("evaluated before --out was checked"))
    _exits_2(["evaluate", "--config", str(cfg), "--out", str(out), "--checkpoint",
              str(codec), "--checkpoint", str(generator)], capsys, "cannot use --out")


# 2 and 3 test clips; 5 test clips of which one is the only one of its class
@pytest.mark.parametrize("ratios, n_test", [([0.8, 0.1, 0.1], 2), ([0.7, 0.15, 0.15], 3),
                                            ([0.75, 0.0, 0.25], 5)])
def test_evaluate_on_a_too_small_test_split_exits_2(stage1, tmp_path, capsys, ratios,
                                                    n_test):
    _, ckpt = stage1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "dataset": {**TINY["dataset"], "ratios": ratios}}))
    _exits_2(["evaluate", "--self-eval", "--config", str(cfg), "--out", str(tmp_path),
              "--checkpoint", str(ckpt)], capsys,
             f"dataset.ratios: test split has {n_test} clips, need >= 4 and >= 2 of each")


def test_one_clip_train_split_with_negatives_exits_2(stage1, tmp_path, capsys):
    # the negatives' derangement needs 2 clips, so stage 2 would skip every
    # batch and save an untrained generator; without negatives it trains
    _, ckpt = stage1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "flow": {"epochs": 2}, "dataset": {
        **TINY["dataset"], "n_clips": 12, "ratios": [0.1, 0.45, 0.45]}}))
    argv = ["train-generator", "--config", str(cfg), "--out", str(tmp_path),
            "--checkpoint", str(ckpt)]
    _exits_2(argv, capsys, "dataset.ratios: train split has 1 clip, and the "
             "contrastive negatives (flow.lam > 0) need 2")
    assert not (tmp_path / "generator.bin").exists()
    assert main(argv + ["--lambda", "0"]) == 0
    record = json.loads((tmp_path / "generator_record.json").read_text())
    assert all(v > 0.0 for v in record["curves"]["total"])


# (tensor, how it is altered, what the error says after the tensor's name);
# TINY trains d_g = 8, hidden = 64, 16 codes
MISFIT_STAGE1 = {
    "codebook_width": ("codebook/hand/1", lambda a: a[:, :4], "width 4 != codec d_g 8"),
    "codebook_one_code": ("codebook/lower/0", lambda a: a[:1], "is not (K >= 2"),
    "codebook_vector": ("codebook/face/0", lambda a: a[0], "is not (K >= 2"),
    "in_scale_zero": ("codec/face/in_scale", lambda a: a * 0.0, "finite number > 0"),
    "in_scale_negative": ("codec/hand/in_scale", lambda a: -a, "finite number > 0"),
    "in_scale_vector": ("codec/hand/in_scale", lambda a: np.ones(2), "finite number > 0"),
    "dec_w1_rows": ("codec/face/dec_w1", lambda a: a[:20], "expected 24 rows"),
    "dec_w1_d_g_rows": ("codec/face/dec_w1", lambda a: a[:8], "expected 24 rows"),
    "enc_w1_3d": ("codec/hand/enc_w1", lambda a: a[None], "2-d weight"),
    "enc_w1_window": ("codec/upper/enc_w1", lambda a: a[:-1], "multiple of the 12 joints"),
    "enc_b1": ("codec/upper/enc_b1", lambda a: a[:-1], "expected (64,)"),
    "enc_w2": ("codec/lower/enc_w2", lambda a: a[:-1], "expected (64, 8)"),
    "enc_b2": ("codec/lower/enc_b2", lambda a: a[:-1], "expected (8,)"),
    "dec_b1": ("codec/hand/dec_b1", lambda a: a[:-1], "expected (64,)"),
    "dec_w2": ("codec/face/dec_w2", lambda a: a[:, :-1], "expected (64, 64)"),
    "dec_b2": ("codec/face/dec_b2", lambda a: a[:-1], "expected (64,)"),
}


@pytest.mark.parametrize("case", sorted(MISFIT_STAGE1))
def test_stage1_tensors_that_do_not_fit_exit_2_naming_the_tensor(stage1, tmp_path,
                                                                 capsys, case):
    name, alter, why = MISFIT_STAGE1[case]
    cfg, ckpt = stage1
    tensors = load_checkpoint(ckpt)
    tensors[name] = alter(tensors[name])
    save_checkpoint(tmp_path / "bad.bin", tensors)
    _exits_2(["train-generator", "--config", str(cfg), "--out", str(tmp_path),
              "--checkpoint", str(tmp_path / "bad.bin")], capsys, f"{name}: ")
    assert not (tmp_path / "generator.bin").exists()
    with pytest.raises(CheckpointError, match=re.escape(why)):
        stage1_from_tensors(tensors)


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_non_finite_in_scale_is_a_checkpoint_error(stage1, scale):
    # a file cannot hold one (save and load refuse it); tensors in memory can
    tensors = load_checkpoint(stage1[1])
    tensors["codec/upper/in_scale"] = np.float64(scale)
    with pytest.raises(CheckpointError, match="codec/upper/in_scale: "):
        stage1_from_tensors(tensors)


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


@pytest.mark.parametrize("term, row", [
    ("commitment_loss", "stage1/reconstruction+commitment"),
    ("cfm_loss", "stage2/cfm+projection+sem"),
])
def test_gradcheck_checks_the_losses_training_uses(monkeypatch, capsys, term, row):
    # a term whose value counts twice but whose graph counts once: finite
    # differences see the loss training would minimize, the tape does not
    real = getattr(training, term)

    def broken(*args):
        loss = real(*args)
        return loss + Tensor(loss.data)

    monkeypatch.setattr(training, term, broken)
    capsys.readouterr()
    assert main(["gradcheck"]) == 3
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.endswith("FAIL")]
    assert [line.split(":")[0] for line in failed] == [row]
