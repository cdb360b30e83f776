import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from cfmlab.checkpoint import load_checkpoint
from cfmlab.cli import main
from cfmlab.codec import PART_ORDER, CodebookStack
from cfmlab.config import ConfigError, config_from_dict
from cfmlab.numerics import NumericError, Tape, Tensor, no_grad
from cfmlab import synthdata, training
from cfmlab.alignment import composite_batch
from cfmlab.evaluate import evaluate_run
from cfmlab.synthdata import build_dataset
from cfmlab.training import (
    RunRecord,
    check_codec_dims,
    init_stage2,
    load_stage1_checkpoint,
    load_stage2_checkpoint,
    prepare_stage2_data,
    save_stage1_checkpoint,
    save_stage2_checkpoint,
    stage1_from_tensors,
    stage2_from_tensors,
    train_codec,
    train_generator,
)

SMALL = {
    "seed": 7,
    "dataset": {"n_classes": 3, "n_clips": 24, "n_frames": 32,
                "d_audio": 8, "d_text": 8, "n_onsets": 3},
    "codec": {"epochs": 2, "batch": 8, "n_codes": 16},
    "flow": {"epochs": 2, "batch": 8},
}


def small_cfg(**overrides):
    payload = {k: dict(v) if isinstance(v, dict) else v for k, v in SMALL.items()}
    for section, body in overrides.items():
        if isinstance(body, dict):
            payload.setdefault(section, {}).update(body)
        else:
            payload[section] = body
    return config_from_dict(payload)


@pytest.fixture(scope="module")
def small_run():
    cfg = small_cfg()
    ds = build_dataset(cfg.dataset)
    codecs, stacks, rec = train_codec(cfg, ds)
    return cfg, ds, codecs, stacks, rec


# ------------------------------------------------------------------ RunRecord

def test_run_record_json_roundtrip():
    rec = RunRecord(config_hash="abc", stage="generator",
                    curves={"cfm": [1.0, 0.5]}, wall_clock_s=2.5,
                    checkpoints=["out/generator.bin"])
    assert json.loads(rec.to_json()) == {
        "config_hash": "abc", "stage": "generator", "curves": {"cfm": [1.0, 0.5]},
        "wall_clock_s": 2.5, "checkpoints": ["out/generator.bin"]}


# -------------------------------------------------------------------- stage 1

def test_stage1_curves_shape(small_run):
    cfg, _, _, _, rec = small_run
    assert set(rec.curves) == {"total", "rec", "com"}
    assert all(len(v) == cfg.codec.epochs for v in rec.curves.values())
    assert rec.stage == "codec"
    assert rec.wall_clock_s > 0


def test_stage1_deterministic(small_run):
    cfg, ds, codecs, stacks, rec = small_run
    codecs2, stacks2, rec2 = train_codec(cfg, ds)
    for p in PART_ORDER:
        for name, t in codecs[p].named_tensors().items():
            assert np.array_equal(t.data, codecs2[p].named_tensors()[name].data)
        for name, book in stacks[p].named_tensors().items():
            assert np.array_equal(book, stacks2[p].named_tensors()[name])
    assert rec.curves == rec2.curves


def test_stage1_loss_decreases():
    cfg = small_cfg(codec={"epochs": 10})
    ds = build_dataset(cfg.dataset)
    _, _, rec = train_codec(cfg, ds)
    assert rec.curves["total"][-1] < rec.curves["total"][0]
    assert rec.curves["rec"][-1] < rec.curves["rec"][0]


def test_stage1_zero_epochs():
    cfg = small_cfg(codec={"epochs": 0})
    ds = build_dataset(cfg.dataset)
    codecs, stacks, rec = train_codec(cfg, ds)
    assert rec.curves == {"total": [], "rec": [], "com": []}
    for p in PART_ORDER:
        assert codecs[p].d_g == cfg.codec.d_g
        assert stacks[p].depth == cfg.codec.depth


def test_stage1_nan_names_epoch(monkeypatch):
    cfg = small_cfg()
    ds = build_dataset(cfg.dataset)
    monkeypatch.setattr("cfmlab.training.mse",
                        lambda a, b: Tensor(float("nan")))
    with pytest.raises(NumericError, match="stage-1 loss at epoch 1"):
        train_codec(cfg, ds)


@pytest.mark.parametrize("stage, first_op", [
    (1, "encode_part_batch"), (2, "project_and_normalize_batch")])
def test_each_step_frees_the_previous_graph(small_run, monkeypatch, stage, first_op):
    # once a step's forward starts, no op node of the last step's graph may
    # be alive: reference counting alone frees it when the step returns
    cfg, ds, codecs, stacks, _ = small_run
    real_grad, real_op = training.grad, getattr(training, first_op)
    graphs, alive = [], []

    def grad(loss, params):
        graphs.append([weakref.ref(t) for t in Tape.from_output(loss).nodes
                       if t._vjp is not None])
        return real_grad(loss, params)

    def op(*args, **kwargs):
        alive.append(sum(ref() is not None for refs in graphs for ref in refs))
        return real_op(*args, **kwargs)

    monkeypatch.setattr(training, "grad", grad)
    monkeypatch.setattr(training, first_op, op)
    gc.disable()
    try:
        if stage == 1:
            train_codec(cfg, ds)
        else:
            train_generator(cfg, ds, codecs, stacks)
    finally:
        gc.enable()
    # 6 steps; stage 1 takes one graph per part and frees it before the
    # next part's forward
    steps = 6 * (len(PART_ORDER) if stage == 1 else 1)
    assert len(graphs) == steps and len(alive) > steps and max(alive) == 0


@pytest.mark.parametrize("beta", [0.0, 0.25])
def test_stage1_per_part_gradients_match_the_joint_graph(small_run, beta):
    # the parts share no parameter, and the seed gradient reaches each
    # part's rec as 1.0 and its com as beta, so a graph per part gives the
    # joint graph's gradients bit for bit
    cfg, ds, _, _, _ = small_run
    frames = training._train_motion(ds)
    codecs, stacks = training.init_stage1(cfg, frames)
    batch = {p: frames[p][:8] for p in PART_ORDER}
    # the joint reference: one graph that sums rec and com over the parts
    loss_rec, loss_com = Tensor(0.0), Tensor(0.0)
    for p in PART_ORDER:
        z = training.encode_part_batch(batch[p], codecs[p])
        q = training.rvq_quantize_batch(z.data, stacks[p].stages)[0]
        recon = training.decode_part_batch(training.straight_through(z, q), codecs[p])
        loss_rec = loss_rec + training.mse(recon, Tensor(batch[p]))
        loss_com = loss_com + training.commitment_loss(z, q)
    total = loss_rec if beta == 0.0 else loss_rec + Tensor(beta) * loss_com
    params = [t for p in PART_ORDER for t in codecs[p].parameters()]
    joint = training.grad(total, params)
    rec, com, grads = 0.0, 0.0, {}
    for p in PART_ORDER:
        rec_p, com_p, grads_p, codes, _ = training._stage1_part(
            batch[p], codecs[p], stacks[p], beta)
        rec, com = rec + rec_p, com + com_p
        grads.update(grads_p)
        assert codes.shape == (8, cfg.dataset.n_frames // cfg.dataset.downsample,
                               cfg.codec.depth)
    assert (rec, com) == (float(loss_rec.data), float(loss_com.data))
    assert list(grads) == params
    for t in params:
        assert grads[t].data.tobytes() == joint[t].data.tobytes()


def _guard_cfg():
    return config_from_dict({"seed": 3, "dataset": {"n_clips": 40, "n_frames": 128},
                             "codec": {"epochs": 1}, "flow": {"epochs": 1, "batch": 32}})


def _traced_peak(fn):
    """The tracemalloc peak of fn(), in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stage1_traced_peak_stays_under_14_mib():
    # one part's graph is alive at a time: the traced peak of this run was
    # 22.05 MiB with all four parts' graphs alive in every step, and is
    # 9.35 MiB with one
    cfg = _guard_cfg()
    ds = build_dataset(cfg.dataset)
    peak = _traced_peak(lambda: train_codec(cfg, ds))
    assert peak < 14 << 20, f"{peak / (1 << 20):.2f} MiB"


def test_build_dataset_traced_peak_stays_under_12_mib():
    # the physics runs one block of clips at a time: the traced peak of
    # this build (8.52 MiB kept) was 16.21 MiB with a velocity buffer for
    # every clip, and is 10.66 MiB with one block's
    cfg = config_from_dict({"seed": 3, "dataset": {"n_clips": 128, "n_frames": 128}})
    peak = _traced_peak(lambda: build_dataset(cfg.dataset))
    assert peak < 12 << 20, f"{peak / (1 << 20):.2f} MiB"


def test_prepare_stage2_traced_peak_stays_under_5_mib():
    # the train split is encoded one chunk at a time: the traced peak of
    # this pass (1.00 MiB kept) was 7.63 MiB when the whole split was
    # encoded at once, and is 3.13 MiB
    cfg = config_from_dict({"seed": 3, "dataset": {"n_clips": 160, "n_frames": 128},
                            "codec": {"epochs": 0}})
    ds = build_dataset(cfg.dataset)
    codecs, stacks, _ = train_codec(cfg, ds)
    peak = _traced_peak(lambda: prepare_stage2_data(cfg, ds, codecs, stacks))
    assert peak < 5 << 20, f"{peak / (1 << 20):.2f} MiB"


def test_evaluate_run_traced_peak_stays_under_5_mib():
    # the 128-clip test split is generated and scored one chunk at a time:
    # the traced peak was 7.48 MiB when the generated split and the whole
    # split's encodings were alive at once, and is 3.74 MiB
    cfg = config_from_dict({"seed": 3, "dataset": {"n_clips": 160, "n_frames": 64,
                                                   "ratios": [0.2, 0.0, 0.8]},
                            "codec": {"epochs": 0}})
    ds = build_dataset(cfg.dataset)
    codecs, stacks, _ = train_codec(cfg, ds)
    net, heads, proj = init_stage2(cfg)
    peak = _traced_peak(lambda: evaluate_run(cfg, ds, codecs, stacks, net=net,
                                             heads=heads, proj=proj))
    assert peak < 5 << 20, f"{peak / (1 << 20):.2f} MiB"


def test_stage2_traced_peak_stays_under_14_mib():
    # the graph keeps only what its VJPs read, and the backward sweep frees
    # each node's rule as it passes: the traced peak of this run was
    # 22.03 MiB when the graph held every op output, 15.97 MiB with nodes
    # that hold none, and is 12.04 MiB with rules freed during the sweep
    cfg = _guard_cfg()
    ds = build_dataset(cfg.dataset)
    codecs, stacks, _ = train_codec(cfg, ds)
    peak = _traced_peak(lambda: train_generator(cfg, ds, codecs, stacks))
    assert peak < 14 << 20, f"{peak / (1 << 20):.2f} MiB"


def test_stage1_checkpoint_roundtrip(tmp_path, small_run):
    _, _, codecs, stacks, _ = small_run
    path = save_stage1_checkpoint(tmp_path / "codec.bin", codecs, stacks)
    codecs2, stacks2 = load_stage1_checkpoint(path)
    for p in PART_ORDER:
        assert np.array_equal(codecs2[p].enc_w1.data, codecs[p].enc_w1.data)
        assert np.array_equal(codecs2[p].dec_w2.data, codecs[p].dec_w2.data)
        for a, b in zip(stacks2[p].stages, stacks[p].stages):
            assert np.array_equal(a, b)
        assert stacks2[p].null_code


def test_check_codec_dims_mismatch(small_run):
    _, _, codecs, stacks, _ = small_run
    bad = small_cfg(codec={"d_g": 4})
    with pytest.raises(ConfigError, match=r"codec\.d_g"):
        check_codec_dims(bad, codecs, stacks)
    bad = small_cfg(codec={"n_codes": 64})
    with pytest.raises(ConfigError, match=r"codec\.n_codes"):
        check_codec_dims(bad, codecs, stacks)
    bad = small_cfg(dataset={"downsample": 2})
    with pytest.raises(ConfigError, match=r"^dataset\.downsample: checkpoint has 4, "):
        check_codec_dims(bad, codecs, stacks)
    bad = small_cfg(codec={"hidden": 32})
    with pytest.raises(ConfigError, match=r"^codec\.hidden: checkpoint has 64, config wants 32"):
        check_codec_dims(bad, codecs, stacks)
    # every stage's code count is read, not only the first's
    cut = {**stacks, "hand": CodebookStack("hand", [stacks["hand"].stages[0],
                                                    stacks["hand"].stages[1][:3]])}
    with pytest.raises(ConfigError, match=r"^codec\.n_codes: checkpoint has 3, config wants 16"):
        check_codec_dims(small_cfg(), codecs, cut)


# -------------------------------------------------------------------- stage 2

def test_prepare_stage2_shapes(small_run):
    cfg, ds, codecs, stacks, _ = small_run
    data = prepare_stage2_data(cfg, ds, codecs, stacks)
    n_train = len(ds.splits["train"])
    L = cfg.dataset.n_frames // cfg.dataset.downsample
    d_G = cfg.codec.d_g * len(PART_ORDER)
    assert data.z1.shape == (n_train, L, d_G)
    assert data.audio.shape == (n_train, L, cfg.dataset.d_audio)
    assert data.text.shape == (n_train, L, cfg.dataset.d_text)
    expected = np.array([u.class_id for u in ds.splits["train"]])
    assert np.array_equal(data.class_ids, expected)


def test_prepare_stage2_chunks_equal_a_whole_split_encode(small_run, monkeypatch):
    cfg, ds, codecs, stacks, _ = small_run
    clips = ds.splits["train"]
    assert len(clips) == 19  # chunks of 5: the last one partial
    with no_grad():
        continuous = {p: training.encode_part_batch(clips.motion[p], codecs[p]).data
                      for p in PART_ORDER}
        quantized = {p: training.rvq_quantize_batch(z, stacks[p].stages)[0]
                     for p, z in continuous.items()}
        z1 = composite_batch(continuous, cfg.sacm.scale).data
        z1_quant = composite_batch(quantized, cfg.sacm.scale).data
    monkeypatch.setattr(synthdata, "_CHUNK_ROWS", 5 * clips.audio.shape[1])
    sizes = []
    encode = training.encode_part_batch
    monkeypatch.setattr(training, "encode_part_batch",
                        lambda frames, params: sizes.append(len(frames)) or encode(frames, params))
    data = prepare_stage2_data(cfg, ds, codecs, stacks)
    assert sizes == [n for n in (5, 5, 5, 4) for _ in PART_ORDER]
    assert data.z1.shape == z1.shape and data.z1.tobytes() == z1.tobytes()
    assert data.z1_quant.shape == z1_quant.shape
    assert data.z1_quant.tobytes() == z1_quant.tobytes()


def test_stage2_curves_and_determinism(small_run):
    cfg, ds, codecs, stacks, _ = small_run
    net, heads, proj, rec = train_generator(cfg, ds, codecs, stacks)
    assert set(rec.curves) == {"cfm", "cfm_pos", "cfm_neg", "cos", "clp", "sem", "proj",
                               "total"}
    assert all(len(v) == cfg.flow.epochs for v in rec.curves.values())
    net2, heads2, proj2, rec2 = train_generator(cfg, ds, codecs, stacks)
    for name, t in net.named_tensors().items():
        assert np.array_equal(t.data, net2.named_tensors()[name].data)
    for name, t in heads.named_tensors().items():
        assert np.array_equal(t.data, heads2.named_tensors()[name].data)
    assert np.array_equal(proj.weight.data, proj2.weight.data)
    assert rec.curves == rec2.curves


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_stage2_curves_carry_the_two_means_of_cfm(small_run, lam):
    # cfm = cfm_pos - lam * cfm_neg in every batch, so in every epoch mean
    _, ds, codecs, stacks, _ = small_run
    rec = train_generator(small_cfg(flow={"lam": lam}), ds, codecs, stacks)[3]
    for cfm, pos, neg in zip(rec.curves["cfm"], rec.curves["cfm_pos"], rec.curves["cfm_neg"]):
        assert pos > 0.0 and (neg > 0.0) == (lam > 0.0)
        assert cfm - (pos - lam * neg) == pytest.approx(0.0, abs=1e-14 * pos)


def test_stage2_loss_decreases(small_run):
    cfg0, ds, codecs, stacks, _ = small_run
    cfg = small_cfg(flow={"epochs": 15, "lam": 0.0})
    _, _, _, rec = train_generator(cfg, ds, codecs, stacks)
    assert rec.curves["cfm"][-1] < rec.curves["cfm"][0]


def test_stage2_zero_epochs(small_run):
    cfg0, ds, codecs, stacks, _ = small_run
    cfg = small_cfg(flow={"epochs": 0})
    net, heads, proj, rec = train_generator(cfg, ds, codecs, stacks)
    init_net, init_heads, init_proj = init_stage2(cfg)
    for name, t in net.named_tensors().items():
        assert np.array_equal(t.data, init_net.named_tensors()[name].data)
    assert all(v == [] for v in rec.curves.values())


def test_stage2_zero_weights_leave_parameters_untouched(small_run):
    _, ds, codecs, stacks, _ = small_run
    cfg = small_cfg(flow={"lambda_cfm": 0.0, "lambda_sem": 0.0})
    net, heads, proj, rec = train_generator(cfg, ds, codecs, stacks)
    init_net, init_heads, init_proj = init_stage2(cfg)
    for name, t in net.named_tensors().items():
        assert np.array_equal(t.data, init_net.named_tensors()[name].data)
    for name, t in heads.named_tensors().items():
        assert np.array_equal(t.data, init_heads.named_tensors()[name].data)
    assert np.array_equal(proj.weight.data, init_proj.weight.data)
    assert all(all(v == 0.0 for v in vs) for vs in rec.curves.values())


def test_stage2_sem_only_trains_heads_only(small_run):
    _, ds, codecs, stacks, _ = small_run
    cfg = small_cfg(flow={"lambda_cfm": 0.0, "lambda_sem": 1.0})
    net, heads, proj, rec = train_generator(cfg, ds, codecs, stacks)
    init_net, init_heads, _ = init_stage2(cfg)
    for name, t in net.named_tensors().items():
        assert np.array_equal(t.data, init_net.named_tensors()[name].data)
    changed = any(
        not np.array_equal(t.data, init_heads.named_tensors()[name].data)
        for name, t in heads.named_tensors().items())
    assert changed
    assert all(v > 0 for v in rec.curves["sem"])
    assert all(v == 0.0 for v in rec.curves["cfm"])


def test_stage2_cfm_only_trains_condition_heads_not_motion(small_run):
    # The audio/text heads sit on the conditioning path, so the flow loss
    # alone moves them; the motion head is only touched by the alignment
    # objective and must stay at its init.
    _, ds, codecs, stacks, _ = small_run
    cfg = small_cfg(flow={"lambda_sem": 0.0})
    net, heads, proj, rec = train_generator(cfg, ds, codecs, stacks)
    _, init_heads, _ = init_stage2(cfg)
    assert np.array_equal(heads.motion.data, init_heads.motion.data)
    assert not np.array_equal(heads.audio.data, init_heads.audio.data)
    assert not np.array_equal(heads.text.data, init_heads.text.data)
    assert all(v == 0.0 for v in rec.curves["sem"])
    assert all(v > 0 for v in rec.curves["cfm"])


def test_stage2_plain_fm_never_builds_negatives(small_run, monkeypatch):
    _, ds, codecs, stacks, _ = small_run
    cfg = small_cfg(flow={"lam": 0.0})

    def boom(*args, **kwargs):
        raise AssertionError("negatives must not be drawn when lam == 0")

    monkeypatch.setattr("cfmlab.training.mismatch_pairing", boom)
    train_generator(cfg, ds, codecs, stacks)  # must complete untouched


def test_stage2_contrastive_draws_negatives(small_run, monkeypatch):
    _, ds, codecs, stacks, _ = small_run
    cfg = small_cfg(flow={"lam": 0.05, "epochs": 1})
    calls = []
    import cfmlab.training as training
    real = training.mismatch_pairing

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr("cfmlab.training.mismatch_pairing", spy)
    train_generator(cfg, ds, codecs, stacks)
    assert len(calls) > 0


def test_stage2_nan_names_epoch(small_run, monkeypatch):
    _, ds, codecs, stacks, _ = small_run
    cfg = small_cfg()
    monkeypatch.setattr("cfmlab.training.cfm_loss",
                        lambda *a, **k: Tensor(float("nan")))
    with pytest.raises(NumericError, match="stage-2 loss at epoch 1"):
        train_generator(cfg, ds, codecs, stacks)


def test_stage2_checkpoint_roundtrip(tmp_path, small_run):
    cfg, ds, codecs, stacks, _ = small_run
    net, heads, proj, _ = train_generator(cfg, ds, codecs, stacks)
    path = save_stage2_checkpoint(tmp_path / "generator.bin", net, heads, proj)
    net2, heads2, proj2 = load_stage2_checkpoint(path)
    for name, t in net.named_tensors().items():
        assert np.array_equal(t.data, net2.named_tensors()[name].data)
    for name, t in heads.named_tensors().items():
        assert np.array_equal(t.data, heads2.named_tensors()[name].data)
    assert np.array_equal(proj.weight.data, proj2.weight.data)


def test_training_twice_writes_identical_checkpoint_bytes(tmp_path, capsys):
    # the CLI promises every command is deterministic given (config, seed)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        common = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["train-codec", *common]) == 0
        assert main(["train-generator", *common, "--checkpoint",
                     str(out / "codec.bin")]) == 0
        blobs.append([(out / n).read_bytes() for n in ("codec.bin", "generator.bin")])
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_models_from_merged_checkpoint_tensors(tmp_path, small_run):
    # the CLI merges every --checkpoint file into one tensor map and builds
    # both stages from it, as the per-file loaders build each
    cfg, ds, codecs, stacks, _ = small_run
    net, heads, proj = init_stage2(cfg)
    ck1 = save_stage1_checkpoint(tmp_path / "codec.bin", codecs, stacks)
    ck2 = save_stage2_checkpoint(tmp_path / "generator.bin", net, heads, proj)
    merged = {**load_checkpoint(ck1), **load_checkpoint(ck2)}
    codecs2, stacks2 = stage1_from_tensors(merged)
    codecs3, stacks3 = load_stage1_checkpoint(ck1)
    for p in PART_ORDER:
        assert codecs2[p].named_tensors().keys() == codecs3[p].named_tensors().keys()
        for name, t in codecs2[p].named_tensors().items():
            assert t.data.tobytes() == codecs3[p].named_tensors()[name].data.tobytes()
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(stacks2[p].stages, stacks3[p].stages))
    for built, loaded in zip(stage2_from_tensors(merged), load_stage2_checkpoint(ck2)):
        for name, t in built.named_tensors().items():
            assert t.data.tobytes() == loaded.named_tensors()[name].data.tobytes()
