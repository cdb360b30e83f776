"""CLI exit codes for malformed inputs: 2 for usage, config and checkpoint
errors, with an `error:` line instead of a traceback; and the package's
exported names and imports."""

import ast
import importlib
import json
import math
import os
import pkgutil
import re
import struct
import subprocess
import sys
import typing
from pathlib import Path

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


def test_cli_runs_with_every_scipy_import_refused(tmp_path):
    # the runtime needs numpy alone: with `import scipy` made to fail, the
    # gradient check and a tiny train -> generate -> evaluate chain exit 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**TINY, "flow": {"epochs": 1, "batch": 8},
                               "sampler": {"steps": 3}}))
    out, codec, generator = str(tmp_path), str(tmp_path / "codec.bin"), \
        str(tmp_path / "generator.bin")
    chain = [["gradcheck"],
             ["train-codec", "--config", str(cfg), "--out", out],
             ["train-generator", "--config", str(cfg), "--out", out, "--checkpoint", codec],
             ["generate", "--config", str(cfg), "--out", out, "--count", "2",
              "--checkpoint", codec, "--checkpoint", generator],
             ["evaluate", "--config", str(cfg), "--out", out,
              "--checkpoint", codec, "--checkpoint", generator]]
    code = ("import sys\nsys.modules['scipy'] = None\nfrom cfmlab.cli import main\n"
            f"codes = [main(argv) for argv in {chain!r}]\n"
            "assert sys.modules['scipy'] is None\nprint(codes)")
    env = dict(os.environ, PYTHONPATH=str(Path(cfmlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0]"
    assert (tmp_path / "report.json").is_file() and (tmp_path / "gen_001.csv").is_file()


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


def test_odd_condition_width_exits_2_before_training(tmp_path, capsys):
    # the condition's position embedding needs an even width; the schema
    # refuses an odd one before any checkpoint is read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"n_clips": 24}, "codec": {"epochs": 1},
                               "flow": {"epochs": 1, "d_cond": 31}}))
    _exits_2(["train-generator", "--config", str(cfg), "--checkpoint",
              str(tmp_path / "codec.bin"), "--out", str(tmp_path)], capsys,
             "flow.d_cond: must be even, got 31")


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
              "--checkpoint", str(ckpt)], capsys, "missing tensor 'flow/p'")


CODEC_NAMES = ("enc_w1", "enc_b1", "enc_w2", "enc_b2",
               "dec_w1", "dec_b1", "dec_w2", "dec_b2", "in_scale")
FLOW_NAMES = ("p", "time_w", "time_b", "cond_w", "cond_b", "align_w",
              "tcam_q", "tcam_k", "tcam_v", "tcam_o",
              "conv1_w", "conv1_b", "conv2_w", "conv2_b", "out_w", "out_b")


def test_trained_checkpoints_hold_exactly_the_pinned_names(stage2):
    # a renamed weight, or two weights saved under one name, changes a set
    _, codec, generator = stage2
    parts = ("hand", "upper", "lower", "face")
    assert set(load_checkpoint(codec)) == (
        {f"codec/{p}/{n}" for p in parts for n in CODEC_NAMES}
        | {f"codebook/{p}/{s}" for p in parts for s in (0, 1)})
    assert set(load_checkpoint(generator)) == (
        {f"flow/{n}" for n in FLOW_NAMES}
        | {f"sacm/{n}/weight" for n in ("text", "audio", "motion")} | {"proj/weight"})


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
    # batch and save an untrained generator; without negatives (lam = 0 or
    # lambda_cfm = 0) it trains
    _, ckpt = stage1
    cfg = tmp_path / "cfg.json"
    one_clip = {**TINY["dataset"], "n_clips": 12, "ratios": [0.1, 0.45, 0.45]}
    cfg.write_text(json.dumps({**TINY, "flow": {"epochs": 2}, "dataset": one_clip}))
    argv = ["train-generator", "--config", str(cfg), "--out", str(tmp_path),
            "--checkpoint", str(ckpt)]
    _exits_2(argv, capsys, "dataset.ratios: train split has 1 clip, and the contrastive "
             "negatives (flow.lambda_cfm > 0 and flow.lam > 0) need 2")
    assert not (tmp_path / "generator.bin").exists()
    for extra, flow in ((["--lambda", "0"], {}), ([], {"lambda_cfm": 0.0})):
        cfg.write_text(json.dumps({**TINY, "flow": {"epochs": 2, **flow},
                                   "dataset": one_clip}))
        assert main(argv + extra) == 0
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
    "in_scale_missing": ("codec/face/in_scale", lambda a: None,
                         "missing tensor 'codec/face/in_scale' in checkpoint"),
    "dec_w1_rows": ("codec/face/dec_w1", lambda a: a[:20], "expected 24 rows"),
    "dec_w1_d_g_rows": ("codec/face/dec_w1", lambda a: a[:8], "expected 24 rows"),
    "dec_w1_hidden": ("codec/face/dec_w1", lambda a: a[:, :-1], "expected (24, 64)"),
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
    altered = alter(tensors.pop(name))
    if altered is not None:  # None leaves the tensor out
        tensors[name] = altered
    save_checkpoint(tmp_path / "bad.bin", tensors)
    _exits_2(["train-generator", "--config", str(cfg), "--out", str(tmp_path),
              "--checkpoint", str(tmp_path / "bad.bin")], capsys,
             f"{name}: " if altered is not None else why)
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


@pytest.mark.parametrize("load, match", [
    (VelocityNet.from_named_tensors, "missing tensor 'flow/p'"),
    (ProjectionHeads.from_named_tensors, "missing tensor 'sacm/text/weight'"),
    (ManifoldProjection.from_named_tensors, "missing tensor 'proj/weight'"),
    (lambda t: PartCodecParams.from_named_tensors(t, "hand"),
     "missing tensor 'codec/hand/enc_w1'"),
    (lambda t: CodebookStack.from_named_tensors(t, "hand"), "no codebooks for part 'hand'"),
], ids=["flow", "heads", "proj", "codec", "codebooks"])
def test_missing_model_tensor_is_a_checkpoint_error(load, match):
    with pytest.raises(CheckpointError, match=match):
        load({})


@pytest.mark.parametrize("name", ["cfmlab"] + sorted(
    m.name for m in pkgutil.walk_packages(cfmlab.__path__, "cfmlab.")))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _unused_imports(source):
    """Names a module imports at module level and never reads, leaving out
    `__future__` imports, names in `__all__` and import statements marked
    `# noqa`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__" or \
                any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append(bound)
    return unused


def test_unused_import_scan_flags_only_unread_names():
    source = ("from __future__ import annotations\nimport os\nimport sys  # noqa: F401\n"
              "import numpy as np\nfrom json import dumps, loads\n"
              "from math import (\n    pi,  # noqa: F401\n    tau,\n)\n"
              "__all__ = ['loads']\nprint(np.pi)\n")
    assert _unused_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("path", sorted(
    p.relative_to(Path(cfmlab.__file__).parent).as_posix()
    for p in Path(cfmlab.__file__).parent.rglob("*.py")))
def test_no_unused_imports(path):
    unused = _unused_imports((Path(cfmlab.__file__).parent / path).read_text())
    assert not unused, f"{path} imports {unused} and never reads them"


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
