"""Run configuration: sections, range validation, canonical hashing.

Every field is validated before any work starts; error messages carry the
dotted field path (e.g. "flow.lam") so misconfigured runs fail fast with an
actionable message and exit code 2 at the CLI boundary.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import typing
from dataclasses import dataclass, field

from .flow import NEGATIVE_MODES
from .sampler import SCHEMES
from .synthdata import DatasetConfig

__all__ = [
    "ConfigError",
    "CodecSection",
    "SacmSection",
    "FlowSection",
    "SamplerSection",
    "MetricsSection",
    "RunConfig",
    "load_config",
    "config_to_dict",
    "config_from_dict",
    "config_hash",
]


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2 at the CLI."""


@dataclass
class CodecSection:
    d_g: int = 8
    downsample: int = 4
    hidden: int = 64
    n_codes: int = 64
    depth: int = 2
    beta: float = 0.25
    ema_decay: float = 0.9
    epochs: int = 200
    batch: int = 64
    lr: float = 1e-3


@dataclass
class SacmSection:
    alpha: float = 0.5
    tau: float = 0.1
    lambda_cos: float = 1.0
    lambda_clp: float = 0.1
    d: int = 16
    scale: float = 2.0  # composite concat divides by this; split multiplies


@dataclass
class FlowSection:
    d_s: int = 64
    d_cond: int = 32
    time_dim: int = 16
    lam: float = 0.05          # contrastive repulsion weight
    mode: str = "permute-pair"
    epochs: int = 300
    batch: int = 128
    lr: float = 1e-3
    lambda_cfm: float = 1.0
    lambda_sem: float = 0.1


@dataclass
class SamplerSection:
    scheme: str = "euler"
    steps: int = 10


@dataclass
class MetricsSection:
    sigma: float = 0.1
    pooling: str = "mean"


@dataclass
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    codec: CodecSection = field(default_factory=CodecSection)
    sacm: SacmSection = field(default_factory=SacmSection)
    flow: FlowSection = field(default_factory=FlowSection)
    sampler: SamplerSection = field(default_factory=SamplerSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)
    seed: int = 0


_SECTION_TYPES = {
    "dataset": DatasetConfig,
    "codec": CodecSection,
    "sacm": SacmSection,
    "flow": FlowSection,
    "sampler": SamplerSection,
    "metrics": MetricsSection,
}


def _check(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def validate_config(cfg):
    d, c, s, f, sp, m = (cfg.dataset, cfg.codec, cfg.sacm, cfg.flow,
                         cfg.sampler, cfg.metrics)
    _check(cfg.seed >= 0, "seed", f"must be non-negative, got {cfg.seed}")

    _check(d.n_classes >= 1, "dataset.n_classes", f"must be >= 1, got {d.n_classes}")
    _check(d.n_clips >= d.n_classes, "dataset.n_clips",
           f"must be >= n_classes, got {d.n_clips} < {d.n_classes}")
    _check(d.n_frames >= 8, "dataset.n_frames", f"must be >= 8, got {d.n_frames}")
    _check(d.downsample >= 1, "dataset.downsample", f"must be >= 1, got {d.downsample}")
    _check(d.n_frames % d.downsample == 0, "dataset.n_frames",
           f"{d.n_frames} not divisible by downsample {d.downsample}")
    _check(d.fps > 0, "dataset.fps", f"must be positive, got {d.fps}")
    _check(d.d_audio >= d.n_classes, "dataset.d_audio",
           f"must fit {d.n_classes} orthogonal anchors, got {d.d_audio}")
    _check(d.d_text >= d.n_classes, "dataset.d_text",
           f"must fit {d.n_classes} orthogonal anchors, got {d.d_text}")
    _check(d.noise >= 0, "dataset.noise", f"must be non-negative, got {d.noise}")
    _check(d.n_onsets >= 1, "dataset.n_onsets", f"must be >= 1, got {d.n_onsets}")
    _check(len(d.ratios) == 3 and all(r >= 0 for r in d.ratios)
           and abs(sum(d.ratios) - 1.0) <= 1e-9, "dataset.ratios",
           f"must be 3 non-negatives summing to 1, got {d.ratios}")
    _check(d.seed >= 0, "dataset.seed", f"must be non-negative, got {d.seed}")

    _check(c.d_g >= 1, "codec.d_g", f"must be >= 1, got {c.d_g}")
    _check(c.downsample >= 1, "codec.downsample", f"must be >= 1, got {c.downsample}")
    _check(c.downsample == d.downsample, "codec.downsample",
           f"must match dataset.downsample, got {c.downsample} vs {d.downsample}")
    _check(c.hidden >= 1, "codec.hidden", f"must be >= 1, got {c.hidden}")
    _check(c.n_codes >= 2, "codec.n_codes", f"must be >= 2, got {c.n_codes}")
    _check(c.depth >= 1, "codec.depth", f"must be >= 1, got {c.depth}")
    _check(c.beta >= 0, "codec.beta", f"must be non-negative, got {c.beta}")
    _check(0.0 <= c.ema_decay <= 1.0, "codec.ema_decay",
           f"must be in [0, 1], got {c.ema_decay}")
    _check(c.epochs >= 0, "codec.epochs", f"must be >= 0, got {c.epochs}")
    _check(c.batch >= 1, "codec.batch", f"must be >= 1, got {c.batch}")
    _check(c.lr > 0, "codec.lr", f"must be positive, got {c.lr}")

    _check(0.0 <= s.alpha <= 1.0, "sacm.alpha", f"must be in [0, 1], got {s.alpha}")
    _check(s.tau > 0, "sacm.tau", f"must be positive, got {s.tau}")
    _check(s.lambda_cos >= 0, "sacm.lambda_cos", f"must be non-negative, got {s.lambda_cos}")
    _check(s.lambda_clp >= 0, "sacm.lambda_clp", f"must be non-negative, got {s.lambda_clp}")
    _check(s.d >= 1, "sacm.d", f"must be >= 1, got {s.d}")
    _check(s.scale > 0, "sacm.scale", f"must be positive, got {s.scale}")

    _check(f.d_s >= 1, "flow.d_s", f"must be >= 1, got {f.d_s}")
    _check(f.d_cond >= 1, "flow.d_cond", f"must be >= 1, got {f.d_cond}")
    _check(f.time_dim >= 2 and f.time_dim % 2 == 0, "flow.time_dim",
           f"must be even and >= 2, got {f.time_dim}")
    _check(0.0 <= f.lam < 1.0, "flow.lam", f"must satisfy 0 <= lam < 1, got {f.lam}")
    _check(f.mode in NEGATIVE_MODES, "flow.mode",
           f"must be one of {NEGATIVE_MODES}, got {f.mode!r}")
    _check(f.epochs >= 0, "flow.epochs", f"must be >= 0, got {f.epochs}")
    _check(f.batch >= 2, "flow.batch",
           f"must be >= 2 (negatives need a derangement), got {f.batch}")
    _check(f.lr > 0, "flow.lr", f"must be positive, got {f.lr}")
    _check(f.lambda_cfm >= 0, "flow.lambda_cfm",
           f"must be non-negative, got {f.lambda_cfm}")
    _check(f.lambda_sem >= 0, "flow.lambda_sem",
           f"must be non-negative, got {f.lambda_sem}")

    _check(sp.scheme in SCHEMES, "sampler.scheme",
           f"must be one of {SCHEMES}, got {sp.scheme!r}")
    _check(sp.steps >= 1, "sampler.steps", f"must be >= 1, got {sp.steps}")

    _check(m.sigma > 0, "metrics.sigma", f"must be positive, got {m.sigma}")
    _check(m.pooling == "mean", "metrics.pooling",
           f"only 'mean' pooling is supported, got {m.pooling!r}")
    return cfg


# what a field annotated with the key accepts: a bool is not a number, a
# float is not an int, and a float field takes an int but no inf or NaN
_FIELD_TYPES = {
    int: ("an integer", lambda v: isinstance(v, numbers.Integral)),
    float: ("a finite number", lambda v: isinstance(v, numbers.Real) and abs(v) < math.inf),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _build_section(cls, payload, path):
    names = {fld.name for fld in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown config key")
    for name, kind in typing.get_type_hints(cls).items():
        if name in payload and kind in _FIELD_TYPES:
            what, accepts = _FIELD_TYPES[kind]
            value = payload[name]
            if isinstance(value, bool) or not accepts(value):
                raise ConfigError(f"{path}.{name}: must be {what}, got {value!r}")
    kwargs = dict(payload)
    if "ratios" in kwargs:
        kwargs["ratios"] = tuple(kwargs["ratios"])
    try:
        return cls(**kwargs)
    except Exception as exc:  # dataclass-level validation (e.g. DatasetConfig)
        # those messages already lead with the offending field name
        raise ConfigError(f"{path}.{exc}") from exc


def config_from_dict(payload):
    if not isinstance(payload, dict):
        raise ConfigError(f"config root must be an object, got {type(payload).__name__}")
    known = set(_SECTION_TYPES) | {"seed"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown config key")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed: must be an integer, got {seed!r}")
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        body = payload.get(name, {})
        if not isinstance(body, dict):
            raise ConfigError(f"{name}: section must be an object")
        if name == "dataset" and "seed" not in body:
            body = {**body, "seed": seed}
        sections[name] = _build_section(cls, body, name)
    return validate_config(RunConfig(seed=seed, **sections))


def load_config(path=None, seed=None):
    """The config in the JSON file at `path` (defaults when None), with the
    global seed replaced by `seed` when given. An unreadable, non-UTF-8 or
    malformed file is a ConfigError."""
    payload = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.loads(fh.read())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}")
        except UnicodeDecodeError:
            raise ConfigError(f"config file {path} is not UTF-8 text")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ConfigError("config root must be an object")
    if seed is not None:
        payload = {**payload, "seed": seed}
    return config_from_dict(payload)


def config_to_dict(cfg):
    out = dataclasses.asdict(cfg)
    out["dataset"]["ratios"] = list(out["dataset"]["ratios"])
    return out


def config_hash(cfg):
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()
