"""Command-line entry point: dataset export, the two training stages,
generation, evaluation, and the gradient self-check.

Exit codes: 0 success, 2 usage/config errors (an output path that cannot
be written among them, a checkpoint whose dims do not match the config,
and running out of memory), 3 numerical failures.
Every command is deterministic given (config, seed) and the BLAS thread
count (CFMLAB_THREADS): another thread count may round some sums in
another order, so trained checkpoints can differ in their last bits.
"""

from __future__ import annotations

import os


def _propagate_thread_cap():
    cap = os.environ.get("CFMLAB_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            os.environ.setdefault(var, cap)


_propagate_thread_cap()  # before numpy spins up its thread pools

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .codec import encode_part_batch, init_codebook_stack, init_part_codec, \
    rvq_quantize_batch
from .config import (
    ConfigError,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    validate_config,
)
from .evaluate import condition_for_clip, evaluate_run
from .numerics import NumericError, Tensor, no_grad
from .numerics.gradcheck import check_gradients, negate_backward
from .sampler import (
    OdeConfig,
    generate_batch,
    write_motion_csv,
    write_sidecar,
)
from .synthdata import build_dataset, clips_per_chunk, generate_utterance, save_dataset
from .training import (
    Stage2Data,
    check_codec_dims,
    init_stage2,
    save_stage1_checkpoint,
    save_stage2_checkpoint,
    stage1_from_tensors,
    stage1_loss,
    stage2_from_tensors,
    stage2_loss,
    train_codec,
    train_generator,
)

__all__ = ["main"]


def _load_cfg(args):
    return load_config(getattr(args, "config", None), getattr(args, "seed", None))


def _out_dir(args):
    out = Path(args.out or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or on the way to it
        raise ConfigError(
            f"cannot use --out {out} as a directory: {exc.strerror or exc}")
    return out


def _write_record(path, record, cfg):
    payload = json.loads(record.to_json())
    payload["config"] = config_to_dict(cfg)
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return Path(path)


def _merged_checkpoints(paths):
    if not paths:
        raise ConfigError("at least one --checkpoint is required")
    merged = {}
    for p in paths:
        merged.update(load_checkpoint(p))
    return merged


# ------------------------------------------------------------------- commands

def cmd_make_data(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    ds = build_dataset(cfg.dataset)
    save_dataset(ds, out)
    print(out / "manifest.json")
    return 0


def cmd_train_codec(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    ds = build_dataset(cfg.dataset)
    codecs, stacks, record = train_codec(cfg, ds)
    ckpt = save_stage1_checkpoint(out / "codec.bin", codecs, stacks)
    record.checkpoints = [str(ckpt)]
    rec_path = _write_record(out / "codec_record.json", record, cfg)
    print(ckpt)
    print(rec_path)
    return 0


def cmd_train_generator(args):
    cfg = _load_cfg(args)
    if args.lam is not None:
        cfg.flow.lam = args.lam
    validate_config(cfg)
    codecs, stacks = stage1_from_tensors(_merged_checkpoints(args.checkpoint))
    check_codec_dims(cfg, codecs, stacks)
    out = _out_dir(args)
    ds = build_dataset(cfg.dataset)
    net, heads, proj, record = train_generator(cfg, ds, codecs, stacks)
    ckpt = save_stage2_checkpoint(out / "generator.bin", net, heads, proj)
    record.checkpoints = [str(ckpt)]
    rec_path = _write_record(out / "generator_record.json", record, cfg)
    print(ckpt)
    print(rec_path)
    return 0


def _condition_for(args, cfg, ds):
    """Condition source: a held-out test clip (--clip-id) or a fresh
    utterance of a class (--class-id). Returns (clip, condition_id), the
    clip one row of a `Clips` record."""
    if args.clip_id is not None and args.class_id is not None:
        raise ConfigError("--clip-id and --class-id are mutually exclusive")
    if args.class_id is not None:
        if not 0 <= args.class_id < cfg.dataset.n_classes:
            raise ConfigError(
                f"class id {args.class_id} out of range [0, {cfg.dataset.n_classes})")
        seed = int(np.random.default_rng([cfg.seed, 6, args.class_id]).integers(2**31))
        u = generate_utterance(seed, ds.classes[args.class_id],
                               noise=cfg.dataset.noise,
                               n_frames=cfg.dataset.n_frames,
                               fps=cfg.dataset.fps,
                               downsample=cfg.dataset.downsample,
                               n_onsets=cfg.dataset.n_onsets)
        return u, f"class:{args.class_id}"
    clip_id = args.clip_id if args.clip_id is not None else 0
    test = ds.splits["test"]
    if not 0 <= clip_id < len(test):
        raise ConfigError(f"clip id {clip_id} out of range [0, {len(test)})")
    return test[clip_id], f"clip:{clip_id}"


def cmd_generate(args):
    cfg = _load_cfg(args)
    merged = _merged_checkpoints(args.checkpoint)
    codecs, stacks = stage1_from_tensors(merged)
    net, heads, proj = stage2_from_tensors(merged)
    check_codec_dims(cfg, codecs, stacks, net, heads, proj)
    out = _out_dir(args)
    ds = build_dataset(cfg.dataset)
    u, condition_id = _condition_for(args, cfg, ds)
    cond = condition_for_clip(u.audio, u.text, net, heads)
    seeds = np.random.default_rng([cfg.seed, 5]).integers(0, 2**31,
                                                          size=args.count)
    odes = [OdeConfig(n=cfg.sampler.steps, scheme=cfg.sampler.scheme, seed=int(s))
            for s in seeds]
    size, run_hash = clips_per_chunk(len(cond)), config_hash(cfg)
    for start in range(0, args.count, size):
        chunk = odes[start:start + size]
        motions = generate_batch(net, stacks, codecs, [cond] * len(chunk), chunk,
                                 proj=proj, scale=cfg.sacm.scale, fps=cfg.dataset.fps,
                                 config_hash=run_hash)
        for i, motion in enumerate(motions, start):
            csv_path = write_motion_csv(motion, out / f"gen_{i:03d}.csv")
            sidecar = write_sidecar(motion, out / f"gen_{i:03d}.json", condition_id)
            print(csv_path)
            print(sidecar)
    return 0


def cmd_evaluate(args):
    cfg = _load_cfg(args)
    merged = _merged_checkpoints(args.checkpoint)
    codecs, stacks = stage1_from_tensors(merged)
    stage2 = () if args.self_eval else stage2_from_tensors(merged)
    check_codec_dims(cfg, codecs, stacks, *stage2)
    out = _out_dir(args)
    ds = build_dataset(cfg.dataset)
    report, details = evaluate_run(cfg, ds, codecs, stacks, *stage2,
                                   self_eval=args.self_eval)
    report_path = out / "report.json"
    report_path.write_text(report.to_json())
    (out / "details.json").write_text(
        json.dumps(details, sort_keys=True, indent=2) + "\n")
    print(report_path)
    return 0


# ------------------------------------------------------------------ gradcheck

def _gradcheck_suite():
    """Finite-difference checks of the two losses training minimizes, tiny.
    Stage 1 fixes each code and its offset at the initial parameters (see
    `stage1_loss`) and stage 2 its negatives, so both losses are smooth."""
    rng = np.random.default_rng(1234)
    codec = init_part_codec(rng, "face", downsample=4, d_g=2, hidden=6)
    stack = init_codebook_stack(rng, "face", n_codes=4, depth=2, d_g=2)
    frames = rng.standard_normal((2, 8, 16))
    with no_grad():
        z_init = encode_part_batch(frames, codec).data
    q0, _ = rvq_quantize_batch(z_init, stack.stages)

    def stage1():
        return stage1_loss(frames, codec, lambda z: (z + Tensor(q0 - z_init), q0), 0.25)[0]

    cfg = config_from_dict({"codec": {"d_g": 1}, "sacm": {"d": 3},
                            "flow": {"d_cond": 4, "d_s": 4, "time_dim": 4},
                            "dataset": {"d_audio": 6, "d_text": 5}})
    models = init_stage2(cfg)
    params = {k: t for model in models for k, t in model.named_tensors().items()}
    # away from the init: its zero tcam_o and align_w would cut every
    # gradient through the condition, so a fault there would go unseen
    for w in params.values():
        w.data += rng.uniform(-0.5, 0.5, w.data.shape)
    z1 = rng.standard_normal((2, 4, 4))
    batch = Stage2Data(z1, rng.standard_normal(z1.shape), rng.standard_normal((2, 4, 6)),
                       rng.standard_normal((2, 4, 5)), class_ids=None)
    t, z0 = rng.uniform(0.2, 0.8, size=2), rng.standard_normal(z1.shape)
    v_neg = z1[[1, 0]] - z0

    def stage2():
        return stage2_loss(cfg, *models, batch, t, z0, v_neg)[0]

    return [("stage1/reconstruction+commitment", stage1, codec.named_tensors(), 1e-3),
            ("stage2/cfm+projection+sem", stage2, params, 1e-3)]


def cmd_gradcheck(args):
    """Each loss is built once; with --inject-fault its nodes of that op get
    negated VJPs before the reverse sweep. The report waits for both checks,
    so a fault in neither loss prints nothing but the error."""
    fault, faulted, failures, lines = args.inject_fault, 0, 0, []
    for name, loss_fn, params, tol in _gradcheck_suite():
        loss = loss_fn()
        if fault is not None:
            faulted += negate_backward(loss, fault)
        worst = max(check_gradients(loss_fn, params, loss=loss).values())
        status = "PASS" if worst < tol else "FAIL"
        failures += status == "FAIL"
        lines.append(f"{name}: max rel err {worst:.3e} (tol {tol:.0e}) {status}")
    if fault is not None and not faulted:
        print(f"error: --inject-fault: no '{fault}' node on either checked "
              "loss's tape", file=sys.stderr)
        return 2
    print("\n".join(lines))
    if failures:
        print(f"{failures} gradient check(s) failed", file=sys.stderr)
        return 3
    print("all gradient checks passed")
    return 0


# --------------------------------------------------------------------- parser

def _build_parser():
    parser = argparse.ArgumentParser(prog="cfmlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--seed", type=int, help="override the global seed")
        if out:
            p.add_argument("--out", help="output directory (default: cwd)")

    p = sub.add_parser("make-data", help="export the synthetic dataset (write-only: "
                       "every command rebuilds it from the config)")
    common(p)
    p.set_defaults(func=cmd_make_data)

    p = sub.add_parser("train-codec", help="stage 1: part codecs + RVQ")
    common(p)
    p.set_defaults(func=cmd_train_codec)

    p = sub.add_parser("train-generator",
                       help="stage 2: velocity field + alignment heads")
    common(p)
    p.add_argument("--checkpoint", action="append", default=[],
                   help="stage-1 checkpoint (repeatable)")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="override flow.lam (contrastive weight)")
    p.set_defaults(func=cmd_train_generator)

    p = sub.add_parser("generate", help="sample motion for one condition")
    common(p)
    p.add_argument("--checkpoint", action="append", default=[],
                   help="stage-1 / stage-2 checkpoints (repeatable)")
    p.add_argument("--clip-id", type=int, help="held-out test clip index")
    p.add_argument("--class-id", type=int, help="gesture class index")
    p.add_argument("--count", type=int, default=1,
                   help="number of samples to draw")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="FGD / BC / diversity on the test split")
    common(p)
    p.add_argument("--checkpoint", action="append", default=[],
                   help="stage-1 / stage-2 checkpoints (repeatable)")
    p.add_argument("--self-eval", action="store_true",
                   help="score the real test clips against themselves")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of training's two losses")
    p.add_argument("--inject-fault", metavar="OP",
                   help="negate OP's backward rule (harness self-test)")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    cap = os.environ.get("CFMLAB_THREADS")
    if cap is not None:
        try:
            if int(cap) < 1:
                raise ValueError
        except ValueError:
            print(f"error: CFMLAB_THREADS must be a positive integer, got {cap!r}",
                  file=sys.stderr)
            return 2
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "count", 1) < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2
    except OSError as exc:  # readers raise the errors above, so this is a write
        path = exc.filename2 or exc.filename or "an output"  # os.replace: (tmp, target)
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
