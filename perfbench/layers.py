"""Which functions of cfmlab a traced run wraps, and the per-layer metrics
taken from the spans and counters they record.

Each function is wrapped at the name where its caller looks it up:
`training`, `evaluate`, `sampler` and `metrics` import with
`from .x import name`, so wrapping the defining module would time nothing.
The layer -> end-to-end table in README.md says which metric each layer
should move and on which workload.
"""

from __future__ import annotations

import os

import numpy as np

# (module, attribute, span names outermost first)
WRAPS = (
    ("training", "grad", ("numerics.grad",)),
    ("training", "adam_step", ("numerics.adam_step",)),
    ("training", "encode_part_batch", ("codec.encode",)),
    ("metrics", "encode_part", ("codec.encode",)),
    ("training", "decode_part_batch", ("codec.decode",)),
    ("training", "rvq_quantize_batch", ("codec.rvq_quantize",)),
    ("training", "ema_codebook_update", ("codec.ema_update",)),
    ("training", "project_and_normalize_batch", ("alignment.project",)),
    ("training", "fused_target_batch", ("alignment.sem_loss",)),
    ("training", "cosine_alignment_loss_batch", ("alignment.sem_loss",)),
    ("training", "temporal_pool_batch", ("alignment.sem_loss",)),
    ("training", "clip_loss", ("alignment.sem_loss",)),
    ("training", "velocity_forward", ("flow.train_forward",)),
    ("flow", "tcam_fuse", ("flow.tcam_fuse",)),
    ("training", "build_condition_batch", ("flow.condition",)),
    ("evaluate", "condition_for_clip", ("flow.condition",)),
    ("training", "cfm_loss", ("flow.cfm_loss",)),
    ("sampler", "velocity_forward", ("flow.field_eval",)),
    ("synthdata", "build_dataset", ("synthdata.build_dataset",)),
    ("training", "mismatch_pairing", ("synthdata.mismatch_pairing",)),
    ("sampler", "integrate_ode", ("sampler.integrate_ode",)),
    ("sampler", "quantize_regions", ("sampler.decode_chain", "codec.rvq_quantize")),
    ("sampler", "rvq_dequantize", ("sampler.decode_chain",)),
    ("sampler", "decode_part", ("sampler.decode_chain", "codec.decode")),
    ("sampler", "write_motion_csv", ("sampler.write_csv",)),
    ("sampler", "write_sidecar", ("sampler.write_sidecar",)),
    ("evaluate", "generate_split", ("evaluate.generate_split",)),
    ("evaluate", "motion_features", ("metrics.features",)),
    ("evaluate", "fgd", ("metrics.fgd",)),
    ("evaluate", "extract_kinematic_peaks", ("metrics.bc",)),
    ("evaluate", "beat_consistency", ("metrics.bc",)),
    ("evaluate", "diversity", ("metrics.diversity",)),
    ("training", "prepare_stage2_data", ("training.prepare_stage2_data",)),
    ("training", "save_checkpoint", ("checkpoint.save",)),
    ("training", "load_checkpoint", ("checkpoint.load",)),
)

SPAN_NAMES = tuple(dict.fromkeys(n for _, _, names in WRAPS for n in names))

# Harness spans that the hooks use to tell the two training stages apart.
STAGE1, STAGE2 = "harness.train_codec", "harness.train_generator"

COUNTERS = (
    # (name, unit, better); tape counts are per optimiser step
    ("numerics.tape_nodes.stage1", "count", "lower"),
    ("numerics.tape_matmul_nodes.stage1", "count", "lower"),
    ("numerics.tape_nodes.stage2", "count", "lower"),
    ("numerics.tape_matmul_nodes.stage2", "count", "lower"),
    ("codec.code_usage", "ratio", "higher"),
    ("synthdata.cross_class_ratio", "ratio", "higher"),
    ("checkpoint.bytes", "count", "lower"),
)


def layer_metrics():
    """Every per-layer metric the layers give: (name, unit, better)."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}_s", "s", "lower"), (f"{name}_self_s", "s", "lower"),
                (f"{name}_calls", "count", "lower")]
    return out + list(COUNTERS)


class LayerProbe:
    """Installs the wraps on a tracer and keeps the counters their hooks
    fill. `modules` maps the short module names in WRAPS to the imported
    cfmlab modules."""

    def __init__(self, tracer, modules, tape_cls):
        self.tracer = tracer
        self.modules = modules
        self.tape_cls = tape_cls
        self.tape = {STAGE1: [], STAGE2: []}   # (nodes, matmul nodes) per grad call
        self.stage1_codes = {}                 # id(stages list) -> [codes per call]
        self.cross, self.pairs = 0, 0
        self.bytes = 0
        self.installed = False

    def install(self):
        hooks = {
            ("training", "grad"): {"before": self._count_tape},
            ("training", "rvq_quantize_batch"): {"after": self._keep_codes},
            ("training", "mismatch_pairing"): {"after": self._cross_class},
            ("training", "save_checkpoint"): {"after": self._saved},
            ("training", "load_checkpoint"): {"after": self._loaded},
        }
        for module, attr, names in WRAPS:
            self.tracer.wrap(self.modules[module], attr, names,
                             **hooks.get((module, attr), {}))
        self.installed = True

    def restore(self):
        self.tracer.restore()
        self.installed = False

    # -------------------------------------------------------------- hooks

    def _stage(self):
        for stage in (STAGE1, STAGE2):
            if self.tracer.within(stage):
                return stage
        return None

    def _count_tape(self, args, kwargs):
        stage = self._stage()
        if stage is not None:
            nodes = self.tape_cls.from_output(args[0]).nodes
            matmuls = sum(1 for t in nodes if t._op == "matmul")
            self.tape[stage].append((len(nodes), matmuls))

    def _keep_codes(self, result, args, kwargs):
        if self._stage() == STAGE1:
            self.stage1_codes.setdefault(id(args[1]), []).append(result[1])

    def _cross_class(self, result, args, kwargs):
        ids = np.asarray(args[2])
        self.cross += int(np.sum(ids[result.permutation] != ids))
        self.pairs += ids.shape[0]

    def _saved(self, result, args, kwargs):
        self.bytes += int(result)

    def _loaded(self, result, args, kwargs):
        self.bytes += os.path.getsize(args[0])

    # ------------------------------------------------------------ metrics

    def code_usage(self, epochs, n_codes):
        """Distinct codes / n_codes per part and RVQ stage over the last
        stage-1 epoch, averaged."""
        shares = []
        for calls in self.stage1_codes.values():
            last = calls[len(calls) - len(calls) // max(epochs, 1):]
            codes = np.concatenate([c.reshape(-1, c.shape[-1]) for c in last])
            shares += [np.unique(codes[:, s]).size / n_codes
                       for s in range(codes.shape[1])]
        return float(np.mean(shares)) if shares else 0.0

    def metrics(self, summary, epochs, n_codes):
        out = {}
        for name in SPAN_NAMES:
            row = summary.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            out[f"{name}_s"] = row["s"]
            out[f"{name}_self_s"] = row["self_s"]
            out[f"{name}_calls"] = row["calls"]
        for stage, tag in ((STAGE1, "stage1"), (STAGE2, "stage2")):
            counts = np.asarray(self.tape[stage] or [(0, 0)], dtype=float)
            out[f"numerics.tape_nodes.{tag}"] = float(np.median(counts[:, 0]))
            out[f"numerics.tape_matmul_nodes.{tag}"] = float(np.median(counts[:, 1]))
        out["codec.code_usage"] = self.code_usage(epochs, n_codes)
        out["synthdata.cross_class_ratio"] = self.cross / self.pairs if self.pairs else 0.0
        out["checkpoint.bytes"] = self.bytes
        return out
