"""Two-stage training: part codecs with RVQ (stage 1), then the conditional
velocity field, alignment heads, and manifold projection jointly (stage 2).

Stage 1 reconstructs each part through its window MLP and codebook stack
(straight-through gradients, EMA codebook updates). Stage 2 freezes the
codecs, targets the quantized composite latents, and minimizes

    total = lambda_cfm * (L_CFM + 0.1 * L_proj) + lambda_sem * L_sem

where L_proj supervises the manifold projection against one-step latent
reconstructions and L_sem carries the cosine + contrastive alignment terms.
L_CFM's repulsion target for each clip is the velocity z1[perm] - z0
toward another clip, of another class where the batch allows
(`mismatch_pairing`), under the clip's own condition.
All randomness is keyed on (seed, stage, epoch, batch), so identical configs
reproduce bit-identical checkpoints.

Stage-2 preparation (`prepare_stage2_data`) encodes and quantizes the
train split one chunk of clips at a time, so it holds the latents it keeps
and one chunk's intermediates.

`stage1_loss` and `stage2_loss` are the objectives; `cfmlab gradcheck`
differences the same two. Each optimiser step is a function that returns
floats, so its graph is dead before the next step's forward. A stage-1
step goes further: it builds and sweeps one part's `stage1_loss` graph at
a time, in PART_ORDER, each in a function that returns the part's floats
and gradients, then runs the EMA updates and one Adam step. The parts
share no parameter, so these are the gradients of one graph over all
four. The freed pages stay in the heap (`cfmlab.numerics` sets glibc's
mallopt). With glibc's default trim they went back to the kernel: 4
stage-1 epochs at 128 clips of 512 frames (one BLAS thread) took 93-124k
minor page faults, against 10-11k with the heap setting (4 stage-2 epochs
after them: 63-67k against 6-7k, since stage 1 leaves a smaller heap),
over two runs each.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from .alignment import (
    clip_loss,
    composite_batch,
    cosine_alignment_loss_batch,
    fused_target_batch,
    init_projection_heads,
    project_and_normalize_batch,
    ProjectionHeads,
    temporal_pool_batch,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .codec import (
    PART_ORDER,
    CodebookStack,
    PartCodecParams,
    commitment_loss,
    decode_part_batch,
    ema_codebook_update,
    encode_part_batch,
    init_codebook_stack,
    init_part_codec,
    rvq_quantize_batch,
    straight_through,
)
from .config import ConfigError, config_hash
from .flow import VelocityNet, build_condition_batch, init_velocity_net, \
    interpolate_batch, prepare_condition, velocity_forward, cfm_loss
from .numerics import NumericError, Tensor, grad, mse, no_grad
from .numerics.optim import AdamState, adam_step
from .sampler import ManifoldProjection, init_manifold_projection, \
    project_to_codebook_manifold
from .synthdata import mismatch_pairing

__all__ = [
    "RunRecord",
    "stage1_loss",
    "stage2_loss",
    "train_codec",
    "train_generator",
    "prepare_stage2_data",
    "save_stage1_checkpoint",
    "stage1_from_tensors",
    "load_stage1_checkpoint",
    "save_stage2_checkpoint",
    "stage2_from_tensors",
    "load_stage2_checkpoint",
]

logger = logging.getLogger(__name__)

STAGE1, STAGE2 = 1, 2


@dataclass
class RunRecord:
    config_hash: str
    stage: str
    curves: dict                 # name -> per-epoch floats
    wall_clock_s: float
    checkpoints: list = field(default_factory=list)

    def to_json(self):
        return json.dumps(
            {"config_hash": self.config_hash, "stage": self.stage,
             "curves": self.curves, "wall_clock_s": self.wall_clock_s,
             "checkpoints": [str(p) for p in self.checkpoints]},
            sort_keys=True, indent=2) + "\n"


def _rng(seed, *tags):
    return np.random.default_rng([int(seed)] + [int(t) for t in tags])


def _fit(cfg, stage, section, n, names, step, min_rows=1):
    """`section.epochs` epochs over shuffled batches of the n rows, skipping
    any of under `min_rows`; `step(idx, rng)` is one optimiser step and
    returns floats. Returns the RunRecord of batch-weighted epoch means."""
    curves = {name: [] for name in names}
    started = time.perf_counter()
    for epoch in range(section.epochs):
        order = _rng(cfg.seed, stage, 2, epoch).permutation(n)
        sums = np.zeros(len(names))
        seen = 0
        for bi, start in enumerate(range(0, n, section.batch)):
            idx = order[start:start + section.batch]
            if len(idx) < min_rows:
                continue
            seen += len(idx)
            try:
                values = step(idx, _rng(cfg.seed, stage, 3, epoch, bi))
            except NumericError as exc:
                raise NumericError(
                    f"stage-{stage} loss at epoch {epoch + 1}: {exc}") from exc
            sums += len(idx) * np.array([values.get(k, 0.0) for k in names])
        epoch_means = sums / max(seen, 1)
        if not np.all(np.isfinite(epoch_means)):
            raise NumericError(f"non-finite stage-{stage} loss at epoch {epoch + 1}")
        for name, value in zip(names, epoch_means):
            curves[name].append(float(value))
    return RunRecord(config_hash=config_hash(cfg), stage=("codec", "generator")[stage - 1],
                     curves=curves, wall_clock_s=time.perf_counter() - started)


# --------------------------------------------------------------------- stage 1

def _train_motion(dataset):
    clips = dataset.splits["train"]
    if not clips:
        raise ConfigError("dataset.ratios: train split is empty")
    return clips.motion


def init_stage1(cfg, frames):
    """Codecs with fan-in uniform weights and a data-driven input scale;
    codebooks seeded from the initial encoder's residual distribution over
    (a slice of) the train split."""
    rng = _rng(cfg.seed, STAGE1, 0)
    codecs = {p: init_part_codec(rng, p, downsample=cfg.dataset.downsample,
                                 d_g=cfg.codec.d_g, hidden=cfg.codec.hidden,
                                 in_scale=max(float(frames[p][:64].std()), 1e-6))
              for p in PART_ORDER}
    stacks = {}
    for p in PART_ORDER:
        with no_grad():
            latents = encode_part_batch(frames[p][:64], codecs[p]).data
        stacks[p] = init_codebook_stack(
            _rng(cfg.seed, STAGE1, 1, PART_ORDER.index(p)), p,
            n_codes=cfg.codec.n_codes, depth=cfg.codec.depth,
            d_g=cfg.codec.d_g, init_data=latents.reshape(-1, cfg.codec.d_g))
    return codecs, stacks


def stage1_loss(batch, codec, quantize, beta):
    """rec + beta * com (rec alone at beta = 0) for one part's `batch`:
    rec = mse(decode(zq), batch) and com = mse(z, q), where z is the batch's
    encoding and `quantize(z)` gives the decoder's input zq and the array
    q. Training takes q from the codebooks and zq = straight_through(z, q).
    `cfmlab gradcheck` fixes q and zq - z at the initial parameters: a smooth
    surrogate whose gradient is the straight-through one. Returns (total,
    {"rec": ..., "com": ...})."""
    z = encode_part_batch(batch, codec)
    zq, q = quantize(z)
    loss_rec = mse(decode_part_batch(zq, codec), Tensor(batch))
    loss_com = commitment_loss(z, q)
    total = loss_rec if beta == 0.0 else loss_rec + Tensor(beta) * loss_com
    return total, {"rec": loss_rec, "com": loss_com}


def _stage1_part(batch, codec, stack, beta):
    """One part's share of a stage-1 step: its loss, then the gradient over
    its parameters. Returns (rec, com, grads, codes, stage_inputs); the
    part's graph is dead once this returns."""
    assigned = []

    def quantize(z):
        q, codes, stage_inputs = rvq_quantize_batch(
            z.data, stack.stages, return_stage_inputs=True)
        assigned.append((codes, stage_inputs))
        return straight_through(z, q), q

    total, terms = stage1_loss(batch, codec, quantize, beta)
    grads = grad(total, codec.parameters())
    return (float(terms["rec"].data), float(terms["com"].data), grads,
            *assigned[0])


def train_codec(cfg, dataset):
    """Stage 1: reconstruct all four parts, one part's graph at a time;
    returns trained codecs, codebook stacks, and the run record."""
    frames = _train_motion(dataset)
    codecs, stacks = init_stage1(cfg, frames)
    params = [t for p in PART_ORDER for t in codecs[p].parameters()]
    adam = AdamState(lr=cfg.codec.lr)
    beta = cfg.codec.beta

    def step(idx, ema_rng):
        rec, com, grads, assigned = 0.0, 0.0, {}, []
        for p in PART_ORDER:
            rec_p, com_p, grads_p, codes, stage_inputs = _stage1_part(
                frames[p][idx], codecs[p], stacks[p], beta)
            rec += rec_p
            com += com_p
            grads.update(grads_p)
            assigned.append((p, codes, stage_inputs))
        for p, codes, stage_inputs in assigned:  # in PART_ORDER: one ema_rng
            ema_codebook_update(stacks[p], codes, stage_inputs,
                                decay=cfg.codec.ema_decay, rng=ema_rng)
        adam_step(params, grads, adam)
        return {"total": rec if beta == 0.0 else rec + beta * com, "rec": rec,
                "com": com}

    record = _fit(cfg, STAGE1, cfg.codec, len(frames[PART_ORDER[0]]),
                  ("total", "rec", "com"), step)
    return codecs, stacks, record


# --------------------------------------------------------------------- stage 2

@dataclass
class Stage2Data:
    z1: np.ndarray        # (N, L, d_G) continuous composite latents (flow target)
    z1_quant: np.ndarray  # (N, L, d_G) quantized composites (projection target)
    audio: np.ndarray     # (N, L, d_a)
    text: np.ndarray      # (N, L, d_t)
    class_ids: np.ndarray


def prepare_stage2_data(cfg, dataset, codecs, stacks):
    """Encode every clip of the train split with the frozen stage-1 codecs
    and build composite latents (divided by the configured scale): the
    continuous encoder outputs are the flow targets, their quantized
    counterparts supervise the manifold projection. The split is encoded
    one chunk of `Clips.chunks` at a time, into arrays allocated at the
    first chunk, so only one chunk's encoder and quantizer intermediates
    are alive. The audio, text and class ids are the split's own arrays,
    not copies."""
    clips = dataset.splits["train"]
    if not clips:
        raise ConfigError("dataset.ratios: train split is empty")
    z1 = z1_quant = None
    with no_grad():
        for start, chunk in clips.chunks():
            continuous, quantized = {}, {}
            for p in PART_ORDER:
                z = encode_part_batch(chunk.motion[p], codecs[p]).data
                continuous[p], quantized[p] = z, rvq_quantize_batch(z, stacks[p].stages)[0]
            cont = composite_batch(continuous, cfg.sacm.scale).data
            if z1 is None:
                z1, z1_quant = np.empty((2, len(clips)) + cont.shape[1:])
            z1[start:start + len(chunk)] = cont
            z1_quant[start:start + len(chunk)] = composite_batch(
                quantized, cfg.sacm.scale).data
    return Stage2Data(z1=z1, z1_quant=z1_quant, audio=clips.audio, text=clips.text,
                      class_ids=clips.class_id)


def init_stage2(cfg):
    d_model = cfg.codec.d_g * len(PART_ORDER)
    rng = _rng(cfg.seed, STAGE2, 0)
    # The condition projector consumes the aligned per-frame embeddings, not
    # raw features, so its input width is twice the shared embedding dim.
    net = init_velocity_net(rng, d_model=d_model, d_cond=cfg.flow.d_cond,
                            d_audio=cfg.sacm.d,
                            d_text=cfg.sacm.d, d_s=cfg.flow.d_s,
                            time_dim=cfg.flow.time_dim)
    heads = init_projection_heads(rng, d_text=cfg.dataset.d_text,
                                  d_audio=cfg.dataset.d_audio,
                                  d_motion=d_model, d=cfg.sacm.d)
    proj = init_manifold_projection(d_model)
    return net, heads, proj


def stage2_loss(cfg, net, heads, proj, batch, t, z0, v_neg):
    """The stage-2 objective on `batch`, a Stage2Data of the batch's rows,
    with flow times t (B,), noise z0 and the repulsion targets v_neg, read
    only when flow.lam > 0: training draws them with `mismatch_pairing`,
    and `cfmlab gradcheck` fixes them. Returns (total, terms): total is
    None when lambda_cfm and lambda_sem are both 0, and terms holds those
    of cfm (with its means cfm_pos and cfm_neg), proj, cos, clp and sem
    that ran."""
    f, s = cfg.flow, cfg.sacm
    terms = {}
    total = None
    # Both branches speak in the shared embedding space: the velocity net is
    # conditioned on the projected/normalized modality embeddings, so the
    # heads also receive gradient through the flow objective.
    if f.lambda_cfm > 0.0 or f.lambda_sem > 0.0:
        audio_emb = project_and_normalize_batch(batch.audio, heads.audio)
        text_emb = project_and_normalize_batch(batch.text, heads.text)

    if f.lambda_cfm > 0.0:
        cond = build_condition_batch(audio_emb, text_emb, net)
        zt = interpolate_batch(z0, batch.z1, t)
        prep = prepare_condition(net, cond)
        v_pred = velocity_forward(net, Tensor(zt), t, prep)
        l_cfm = cfm_loss(v_pred, batch.z1 - z0, v_neg, f.lam, terms)
        remain = Tensor((1.0 - t)[:, None, None])
        z1_hat = Tensor(zt) + remain * v_pred
        l_proj = mse(project_to_codebook_manifold(z1_hat, proj),
                     Tensor(batch.z1_quant))
        total = Tensor(f.lambda_cfm) * (l_cfm + Tensor(0.1) * l_proj)
        terms["cfm"], terms["proj"] = l_cfm, l_proj

    if f.lambda_sem > 0.0:
        motion_emb = project_and_normalize_batch(batch.z1, heads.motion)
        l_sem = Tensor(0.0)
        if s.lambda_cos > 0.0:
            fused = fused_target_batch(text_emb, audio_emb, s.alpha)
            terms["cos"] = cosine_alignment_loss_batch(fused, motion_emb)
            l_sem = l_sem + Tensor(s.lambda_cos) * terms["cos"]
        if s.lambda_clp > 0.0:
            terms["clp"] = clip_loss(temporal_pool_batch(motion_emb),
                                     temporal_pool_batch(audio_emb),
                                     temporal_pool_batch(text_emb), s.tau)
            l_sem = l_sem + Tensor(s.lambda_clp) * terms["clp"]
        term = Tensor(f.lambda_sem) * l_sem
        total = term if total is None else total + term
        terms["sem"] = l_sem
    return total, terms


def train_generator(cfg, dataset, codecs, stacks):
    """Stage 2: frozen codecs; velocity net + alignment heads + projection
    trained jointly. Returns (net, heads, proj, record)."""
    negatives = cfg.flow.lambda_cfm > 0.0 and cfg.flow.lam > 0.0
    if negatives and len(dataset.splits["train"]) == 1:
        raise ConfigError("dataset.ratios: train split has 1 clip, and the contrastive "
                          "negatives (flow.lambda_cfm > 0 and flow.lam > 0) need 2")
    data = prepare_stage2_data(cfg, dataset, codecs, stacks)
    if negatives and np.unique(data.class_ids).size == 1:
        logger.warning("train split holds one class: contrastive negatives fall back "
                       "to plain derangements")
    net, heads, proj = init_stage2(cfg)
    params = (net.parameters() + heads.parameters() + proj.parameters())
    adam = AdamState(lr=cfg.flow.lr)

    def step(idx, brng):
        batch = Stage2Data(**{name: rows[idx] for name, rows in vars(data).items()})
        t = brng.uniform(0.0, 1.0, size=len(idx))
        z0 = brng.standard_normal(batch.z1.shape)
        v_neg = None
        if negatives:
            v_neg = mismatch_pairing(batch.z1, z0, batch.class_ids, brng).velocity
        total, terms = stage2_loss(cfg, net, heads, proj, batch, t, z0, v_neg)
        values = {name: float(term.data) for name, term in terms.items()}
        if total is not None:
            values["total"] = float(total.data)
            adam_step(params, grad(total, params), adam)
        return values

    # a trailing singleton cannot host the negatives' derangement
    record = _fit(cfg, STAGE2, cfg.flow, data.z1.shape[0],
                  ("cfm", "cfm_pos", "cfm_neg", "cos", "clp", "sem", "proj",
                   "total"), step,
                  min_rows=2 if negatives else 1)
    return net, heads, proj, record


# ----------------------------------------------------------------- checkpoints

def save_stage1_checkpoint(path, codecs, stacks):
    tensors = {}
    for p in PART_ORDER:
        tensors.update(codecs[p].named_tensors())
        tensors.update(stacks[p].named_tensors())
    save_checkpoint(path, tensors)
    return Path(path)


def stage1_from_tensors(tensors):
    """(codecs, stacks) from named checkpoint tensors, whose shapes must fit
    together: a codebook's width is its part's d_g."""
    codecs = {p: PartCodecParams.from_named_tensors(tensors, p) for p in PART_ORDER}
    stacks = {p: CodebookStack.from_named_tensors(tensors, p) for p in PART_ORDER}
    for p in PART_ORDER:
        for s, book in enumerate(stacks[p].stages):
            if book.shape[1] != codecs[p].d_g:
                raise CheckpointError(f"codebook/{p}/{s}: width {book.shape[1]} "
                                      f"!= codec d_g {codecs[p].d_g}")
    return codecs, stacks


def load_stage1_checkpoint(path):
    return stage1_from_tensors(load_checkpoint(path))


def save_stage2_checkpoint(path, net, heads, proj):
    save_checkpoint(path, {**net.named_tensors(), **heads.named_tensors(),
                           **proj.named_tensors()})
    return Path(path)


def stage2_from_tensors(tensors):
    """(net, heads, proj) from named checkpoint tensors."""
    return (VelocityNet.from_named_tensors(tensors),
            ProjectionHeads.from_named_tensors(tensors),
            ManifoldProjection.from_named_tensors(tensors))


def load_stage2_checkpoint(path):
    return stage2_from_tensors(load_checkpoint(path))


def check_codec_dims(cfg, codecs, stacks, *stage2):
    """Loaded checkpoints must match the config: stage 1 before stage 2
    builds on top of it, and the stage-2 (net, heads, proj), when given,
    tensor by tensor against the shapes `init_stage2(cfg)` builds."""
    for p in PART_ORDER:
        found = [("codec.d_g", codecs[p].d_g), ("codec.hidden", codecs[p].enc_w1.shape[1]),
                 ("dataset.downsample", codecs[p].downsample),
                 ("codec.depth", stacks[p].depth)]
        found += [("codec.n_codes", book.shape[0]) for book in stacks[p].stages]
        for path, have in found:
            want = attrgetter(path)(cfg)
            if have != want:
                raise ConfigError(f"{path}: checkpoint has {have}, config wants {want}")
    for model, fresh in zip(stage2, init_stage2(cfg) if stage2 else ()):
        want = fresh.named_tensors()
        for name, t in model.named_tensors().items():
            if t.shape != want[name].shape:
                raise ConfigError(f"{name}: checkpoint has shape {t.shape}, "
                                  f"config wants {want[name].shape}")
