"""Two-stage training: part codecs with RVQ (stage 1), then the conditional
velocity field, alignment heads, and manifold projection jointly (stage 2).

Stage 1 reconstructs each part through its window MLP and codebook stack
(straight-through gradients, EMA codebook updates). Stage 2 freezes the
codecs, targets the quantized composite latents, and minimizes

    total = lambda_cfm * (L_CFM + 0.1 * L_proj) + lambda_sem * L_sem

where L_proj supervises the manifold projection against one-step latent
reconstructions and L_sem carries the cosine + contrastive alignment terms.
All randomness is keyed on (seed, stage, epoch, batch), so identical configs
reproduce bit-identical checkpoints.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
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
    interpolate_batch, velocity_forward, cfm_loss
from .numerics import NumericError, Tensor, grad, mse, no_grad
from .numerics.optim import AdamState, adam_step
from .sampler import ManifoldProjection, init_manifold_projection, \
    project_to_codebook_manifold
from .synthdata import mismatch_pairing

__all__ = [
    "RunRecord",
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

STAGE1, STAGE2 = 1, 2


@dataclass
class RunRecord:
    config_hash: str
    stage: str
    curves: dict                 # name -> per-epoch floats
    wall_clock_s: float
    checkpoints: list = field(default_factory=list)

    def __post_init__(self):
        for name, values in self.curves.items():
            arr = np.asarray(values, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite values in loss curve {name!r}")

    def to_json(self):
        return json.dumps(
            {"config_hash": self.config_hash, "stage": self.stage,
             "curves": self.curves, "wall_clock_s": self.wall_clock_s,
             "checkpoints": [str(p) for p in self.checkpoints]},
            sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        return cls(config_hash=payload["config_hash"], stage=payload["stage"],
                   curves=payload["curves"],
                   wall_clock_s=payload["wall_clock_s"],
                   checkpoints=payload["checkpoints"])


def _rng(seed, *tags):
    return np.random.default_rng([int(seed)] + [int(t) for t in tags])


def _batches(n, batch_size, order):
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


# --------------------------------------------------------------------- stage 1

def _train_motion(dataset):
    clips = dataset.splits["train"]
    if not clips:
        raise ConfigError("dataset.ratios: train split is empty")
    return {p: np.stack([u.motion[p].frames for u in clips]) for p in PART_ORDER}


def init_stage1(cfg, frames):
    """Codecs with fan-in uniform weights and a data-driven input scale;
    codebooks seeded from the initial encoder's residual distribution over
    (a slice of) the train split."""
    rng = _rng(cfg.seed, STAGE1, 0)
    codecs = {p: init_part_codec(rng, p, downsample=cfg.codec.downsample,
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


def train_codec(cfg, dataset):
    """Stage 1: jointly reconstruct all four parts; returns trained codecs,
    codebook stacks, and the run record."""
    frames = _train_motion(dataset)
    codecs, stacks = init_stage1(cfg, frames)
    params = [t for p in PART_ORDER for t in codecs[p].parameters()]
    adam = AdamState(lr=cfg.codec.lr)
    n = frames[PART_ORDER[0]].shape[0]
    beta = cfg.codec.beta
    curves = {"total": [], "rec": [], "com": []}
    started = time.perf_counter()
    for epoch in range(cfg.codec.epochs):
        order = _rng(cfg.seed, STAGE1, 2, epoch).permutation(n)
        sums = np.zeros(3)
        for bi, idx in enumerate(_batches(n, cfg.codec.batch, order)):
            loss_rec = Tensor(0.0)
            loss_com = Tensor(0.0)
            ema_rng = _rng(cfg.seed, STAGE1, 3, epoch, bi)
            try:
                for p in PART_ORDER:
                    batch = frames[p][idx]
                    z = encode_part_batch(batch, codecs[p])
                    q, codes, _, stage_inputs = rvq_quantize_batch(
                        z.data, stacks[p].stages, return_stage_inputs=True)
                    recon = decode_part_batch(straight_through(z, q), codecs[p])
                    loss_rec = loss_rec + mse(recon, Tensor(batch))
                    loss_com = loss_com + commitment_loss(z, q)
                    ema_codebook_update(stacks[p], codes, stage_inputs,
                                        decay=cfg.codec.ema_decay, rng=ema_rng)
                total = loss_rec if beta == 0.0 else loss_rec + Tensor(beta) * loss_com
            except NumericError as exc:
                raise NumericError(
                    f"stage-1 loss at epoch {epoch + 1}: {exc}") from exc
            grads = grad(total, params)
            adam_step(params, grads, adam)
            sums += len(idx) * np.array([float(total.data), float(loss_rec.data),
                                         float(loss_com.data)])
        epoch_means = sums / n
        if not np.all(np.isfinite(epoch_means)):
            raise NumericError(f"non-finite stage-1 loss at epoch {epoch + 1}")
        for name, value in zip(("total", "rec", "com"), epoch_means):
            curves[name].append(float(value))
    record = RunRecord(config_hash=config_hash(cfg), stage="codec",
                       curves=curves,
                       wall_clock_s=time.perf_counter() - started)
    return codecs, stacks, record


# --------------------------------------------------------------------- stage 2

@dataclass
class Stage2Data:
    z1: np.ndarray        # (N, L, d_G) continuous composite latents (flow target)
    z1_quant: np.ndarray  # (N, L, d_G) quantized composites (projection target)
    audio: np.ndarray     # (N, L, d_a)
    text: np.ndarray      # (N, L, d_t)
    class_ids: np.ndarray


def prepare_stage2_data(cfg, dataset, codecs, stacks, split="train"):
    """Encode every clip with the frozen stage-1 codecs and build composite
    latents (divided by the configured scale): the continuous encoder outputs
    are the flow targets, their quantized counterparts supervise the manifold
    projection."""
    clips = dataset.splits[split]
    if not clips:
        raise ConfigError(f"dataset.ratios: {split} split is empty")
    continuous, quantized = {}, {}
    with no_grad():
        for p in PART_ORDER:
            frames = np.stack([u.motion[p].frames for u in clips])
            z = encode_part_batch(frames, codecs[p]).data
            q, _, _ = rvq_quantize_batch(z, stacks[p].stages)
            continuous[p], quantized[p] = z, q
        z1 = composite_batch(continuous, cfg.sacm.scale).data
        z1_quant = composite_batch(quantized, cfg.sacm.scale).data
    return Stage2Data(
        z1=z1,
        z1_quant=z1_quant,
        audio=np.stack([u.audio for u in clips]),
        text=np.stack([u.text for u in clips]),
        class_ids=np.array([u.class_id for u in clips], dtype=np.int64))


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


def train_generator(cfg, dataset, codecs, stacks):
    """Stage 2: frozen codecs; velocity net + alignment heads + projection
    trained jointly. Returns (net, heads, proj, record)."""
    data = prepare_stage2_data(cfg, dataset, codecs, stacks)
    net, heads, proj = init_stage2(cfg)
    params = (net.parameters() + heads.parameters() + proj.parameters())
    adam = AdamState(lr=cfg.flow.lr)
    n = data.z1.shape[0]
    f, s = cfg.flow, cfg.sacm
    curves = {"cfm": [], "cos": [], "clp": [], "sem": [], "proj": [], "total": []}
    started = time.perf_counter()
    for epoch in range(f.epochs):
        order = _rng(cfg.seed, STAGE2, 2, epoch).permutation(n)
        sums = np.zeros(6)
        seen = 0
        for bi, idx in enumerate(_batches(n, f.batch, order)):
            if f.lam > 0.0 and len(idx) < 2:
                continue  # a trailing singleton cannot host a derangement
            seen += len(idx)
            brng = _rng(cfg.seed, STAGE2, 3, epoch, bi)
            z1_b = data.z1[idx]
            audio_b, text_b = data.audio[idx], data.text[idx]
            t = brng.uniform(0.0, 1.0, size=len(idx))
            z0 = brng.standard_normal(z1_b.shape)
            vals = dict.fromkeys(curves, 0.0)
            total = None

            try:
                # Both branches speak in the shared embedding space: the
                # velocity net is conditioned on the projected/normalized
                # modality embeddings, so the heads also receive gradient
                # through the flow objective.
                if f.lambda_cfm > 0.0 or f.lambda_sem > 0.0:
                    audio_emb = project_and_normalize_batch(audio_b, heads.audio)
                    text_emb = project_and_normalize_batch(text_b, heads.text)

                if f.lambda_cfm > 0.0:
                    cond = build_condition_batch(audio_emb, text_emb, net)
                    v_neg = None
                    if f.lam > 0.0:
                        pairing = mismatch_pairing(
                            z1_b, cond.data, data.class_ids[idx], brng,
                            mode=f.mode, audio=audio_emb.data,
                            text=text_emb.data, net=net)
                        v_neg = pairing.latents - z0
                    zt = interpolate_batch(z0, z1_b, t)
                    v_pred = velocity_forward(net, Tensor(zt), t, cond)
                    l_cfm = cfm_loss(v_pred, z1_b - z0, v_neg, f.lam)
                    remain = Tensor((1.0 - t)[:, None, None])
                    z1_hat = Tensor(zt) + remain * v_pred
                    l_proj = mse(project_to_codebook_manifold(z1_hat, proj),
                                 Tensor(data.z1_quant[idx]))
                    term = Tensor(f.lambda_cfm) * (l_cfm + Tensor(0.1) * l_proj)
                    total = term if total is None else total + term
                    vals["cfm"], vals["proj"] = float(l_cfm.data), float(l_proj.data)

                if f.lambda_sem > 0.0:
                    motion_emb = project_and_normalize_batch(z1_b, heads.motion)
                    l_sem = Tensor(0.0)
                    if s.lambda_cos > 0.0:
                        fused = fused_target_batch(text_emb, audio_emb, s.alpha)
                        l_cos = cosine_alignment_loss_batch(fused, motion_emb)
                        l_sem = l_sem + Tensor(s.lambda_cos) * l_cos
                        vals["cos"] = float(l_cos.data)
                    if s.lambda_clp > 0.0:
                        l_clp = clip_loss(temporal_pool_batch(motion_emb),
                                          temporal_pool_batch(audio_emb),
                                          temporal_pool_batch(text_emb), s.tau)
                        l_sem = l_sem + Tensor(s.lambda_clp) * l_clp
                        vals["clp"] = float(l_clp.data)
                    term = Tensor(f.lambda_sem) * l_sem
                    total = term if total is None else total + term
                    vals["sem"] = float(l_sem.data)
            except NumericError as exc:
                raise NumericError(
                    f"stage-2 loss at epoch {epoch + 1}: {exc}") from exc

            if total is not None:
                vals["total"] = float(total.data)
                grads = grad(total, params)
                adam_step(params, grads, adam)
            sums += len(idx) * np.array([vals[k] for k in curves])
        epoch_means = sums / max(seen, 1)
        if not np.all(np.isfinite(epoch_means)):
            raise NumericError(f"non-finite stage-2 loss at epoch {epoch + 1}")
        for name, value in zip(curves, epoch_means):
            curves[name].append(float(value))
    record = RunRecord(config_hash=config_hash(cfg), stage="generator",
                       curves=curves,
                       wall_clock_s=time.perf_counter() - started)
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
    tensors = {}
    tensors.update(net.named_tensors())
    tensors.update(heads.named_tensors())
    tensors.update(proj.named_tensors())
    save_checkpoint(path, tensors)
    return Path(path)


def stage2_from_tensors(tensors):
    """(net, heads, proj) from named checkpoint tensors."""
    return (VelocityNet.from_named_tensors(tensors),
            ProjectionHeads.from_named_tensors(tensors),
            ManifoldProjection.from_named_tensors(tensors))


def load_stage2_checkpoint(path):
    return stage2_from_tensors(load_checkpoint(path))


def check_codec_dims(cfg, codecs, stacks):
    """Loaded stage-1 checkpoint must match the codec section before stage 2
    builds on top of it."""
    for p in PART_ORDER:
        found = {"d_g": codecs[p].d_g, "downsample": codecs[p].downsample,
                 "depth": stacks[p].depth, "n_codes": stacks[p].stages[0].shape[0]}
        for name, have in found.items():
            want = getattr(cfg.codec, name)
            if have != want:
                raise ConfigError(f"codec.{name}: checkpoint has {have}, config wants {want}")
