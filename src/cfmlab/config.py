"""Run configuration: one schema, its validation, canonical hashing.

Each section field states its own rule: its type by its annotation (a bool
is not a number, a float is not an int, and a float field takes an int but
no inf or NaN), its bound or choices by its metadata, e.g. `_field(0.05,
ge=0, lt=1)`. The rules that join fields sit in `_RULES`. `validate_config`
checks all of it and raises ConfigError naming the first failing field by
its dotted path (e.g. "flow.lam"), which the CLI maps to exit code 2. A
section or RunConfig runs it when built, so a parsed and a hand-built
config are checked alike; after an in-place change, run it again.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import numbers
import operator
import sys
import typing
from dataclasses import dataclass, field

from .sampler import SCHEMES

__all__ = [
    "ConfigError",
    "DatasetConfig",
    "CodecSection",
    "SacmSection",
    "FlowSection",
    "SamplerSection",
    "MetricsSection",
    "RunConfig",
    "validate_config",
    "load_config",
    "config_to_dict",
    "config_from_dict",
    "config_hash",
]


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2 at the CLI."""


STROKE_HALF_WIDTH = 3   # a planted stroke's raised-cosine bump spans 6 frames

# a bound's metadata key -> (holds(value, bound), how a message states it)
_BOUNDS = {
    "ge": (operator.ge, ">="),
    "gt": (operator.gt, ">"),
    "le": (operator.le, "<="),
    "lt": (operator.lt, "<"),
}


def _field(default, choices=None, **bounds):
    """A field whose value must be one of `choices` and meet every bound."""
    return field(default=default, metadata={"choices": choices, "bounds": bounds})


def _finite_number(v):
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


# what a field annotated with the key accepts
_FIELD_TYPES = {
    int: ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    float: ("a finite number", _finite_number),
    str: ("a string", lambda v: isinstance(v, str)),
}


class _Schema:
    """Base of the config dataclasses: an instance checks itself when built."""

    def __post_init__(self):
        validate_config(self, _SECTION_PATHS.get(type(self), ""))


@dataclass
class DatasetConfig(_Schema):
    n_classes: int = _field(3, ge=1)
    n_clips: int = 512
    n_frames: int = _field(64, ge=8)
    fps: float = _field(15.0, gt=0)
    d_audio: int = 16
    d_text: int = 16
    downsample: int = _field(4, ge=1)   # frames per latent step, the codec's window
    noise: float = _field(0.05, ge=0)
    n_onsets: int = _field(4, ge=1)
    ratios: tuple = (0.8, 0.1, 0.1)   # train/val/test
    seed: int = _field(0, ge=0)

    def __post_init__(self):
        super().__post_init__()
        self.ratios = tuple(float(r) for r in self.ratios)  # one form to hash


@dataclass
class CodecSection(_Schema):
    d_g: int = _field(8, ge=1)
    hidden: int = _field(64, ge=1)
    n_codes: int = _field(64, ge=2)
    depth: int = _field(2, ge=1)
    beta: float = _field(0.25, ge=0)
    ema_decay: float = _field(0.9, ge=0, le=1)
    epochs: int = _field(200, ge=0)
    batch: int = _field(64, ge=1)
    lr: float = _field(1e-3, gt=0)


@dataclass
class SacmSection(_Schema):
    alpha: float = _field(0.5, ge=0, le=1)
    tau: float = _field(0.1, gt=0)
    lambda_cos: float = _field(1.0, ge=0)
    lambda_clp: float = _field(0.1, ge=0)
    d: int = _field(16, ge=1)
    scale: float = _field(2.0, gt=0)  # composite concat divides by this; split multiplies


@dataclass
class FlowSection(_Schema):
    d_s: int = _field(64, ge=1)
    d_cond: int = _field(32, ge=1)
    time_dim: int = _field(16, ge=2)
    lam: float = _field(0.05, ge=0, lt=1)  # contrastive repulsion weight
    epochs: int = _field(300, ge=0)
    batch: int = _field(128, ge=2)  # negatives need a derangement
    lr: float = _field(1e-3, gt=0)
    lambda_cfm: float = _field(1.0, ge=0)
    lambda_sem: float = _field(0.1, ge=0)


@dataclass
class SamplerSection(_Schema):
    scheme: str = _field("euler", choices=SCHEMES)
    steps: int = _field(10, ge=1)


@dataclass
class MetricsSection(_Schema):
    sigma: float = _field(0.1, gt=0)


@dataclass
class RunConfig(_Schema):
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    codec: CodecSection = field(default_factory=CodecSection)
    sacm: SacmSection = field(default_factory=SacmSection)
    flow: FlowSection = field(default_factory=FlowSection)
    sampler: SamplerSection = field(default_factory=SamplerSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)
    seed: int = _field(0, ge=0)


_type_hints = functools.cache(typing.get_type_hints)  # one entry per config class
_SECTION_TYPES = {name: kind for name, kind in _type_hints(RunConfig).items()
                  if dataclasses.is_dataclass(kind)}
_SECTION_PATHS = {kind: name + "." for name, kind in _SECTION_TYPES.items()}


# the rules that join fields: (class, field path in it, holds(instance),
# message formatted with the instance's fields)
_RULES = (
    (DatasetConfig, "n_clips", lambda d: d.n_clips >= d.n_classes,
     "must be >= n_classes, got {n_clips} < {n_classes}"),
    (DatasetConfig, "n_frames", lambda d: d.n_frames % d.downsample == 0,
     "{n_frames} not divisible by downsample {downsample}"),
    (DatasetConfig, "n_frames", lambda d: d.n_frames - 2 * STROKE_HALF_WIDTH - 4 >= 3 * d.n_onsets,
     "clip of {n_frames} frames too short for {n_onsets} onsets"),  # 3 frames apart, clear of ends
    (DatasetConfig, "d_audio", lambda d: d.d_audio >= d.n_classes,
     "must fit {n_classes} orthogonal anchors, got {d_audio}"),
    (DatasetConfig, "d_text", lambda d: d.d_text >= d.n_classes,
     "must fit {n_classes} orthogonal anchors, got {d_text}"),
    (DatasetConfig, "ratios", lambda d: isinstance(d.ratios, (list, tuple))
     and len(d.ratios) == 3 and all(map(_finite_number, d.ratios)),
     "split ratios must be 3 numbers, got {ratios!r}"),
    (DatasetConfig, "ratios", lambda d: min(d.ratios) >= 0 and abs(sum(d.ratios) - 1.0) <= 1e-9,
     "split ratios must be 3 non-negatives summing to 1, got {ratios}"),
    (FlowSection, "time_dim", lambda f: f.time_dim % 2 == 0, "must be even, got {time_dim}"),
)


def validate_config(cfg, prefix=""):
    """Check `cfg`, a RunConfig or a section whose path is `prefix`, against
    the schema and return it. Every field (a section's, recursively) comes
    before _RULES, so a rule reads only fields that passed."""
    hints = _type_hints(type(cfg))
    for fld in dataclasses.fields(cfg):
        kind, value, path = hints[fld.name], getattr(cfg, fld.name), prefix + fld.name
        if dataclasses.is_dataclass(kind):
            validate_config(value, path + ".")
            continue
        if kind in _FIELD_TYPES:
            what, accepts = _FIELD_TYPES[kind]
            if not accepts(value):
                raise ConfigError(f"{path}: must be {what}, got {value!r}")
        choices, bounds = fld.metadata.get("choices"), fld.metadata.get("bounds", {})
        if choices is not None and value not in choices:
            raise ConfigError(f"{path}: must be one of {choices}, got {value!r}")
        if not all(_BOUNDS[k][0](value, b) for k, b in bounds.items()):
            stated = " and ".join(f"{_BOUNDS[k][1]} {b}" for k, b in bounds.items())
            raise ConfigError(f"{path}: must be {stated}, got {value!r}")
    for cls, name, holds, message in _RULES:
        if type(cfg) is cls and not holds(cfg):
            raise ConfigError(f"{prefix}{name}: " + message.format_map(vars(cfg)))
    return cfg


def _refuse_unknown(cls, payload, prefix):
    unknown = sorted(set(payload) - {fld.name for fld in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown config key")


def config_from_dict(payload):
    """The RunConfig a JSON object describes. A missing field takes its
    default, and the dataset's seed defaults to the global seed."""
    if not isinstance(payload, dict):
        raise ConfigError(f"config root must be an object, got {type(payload).__name__}")
    _refuse_unknown(RunConfig, payload, "")
    # built first, so a bad global seed is named as itself, not as dataset.seed
    root = RunConfig(seed=payload.get("seed", 0))
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        body = payload.get(name, {})
        if not isinstance(body, dict):
            raise ConfigError(f"{name}: section must be an object")
        _refuse_unknown(cls, body, name + ".")
        if name == "dataset":
            body = {"seed": root.seed, **body}
        sections[name] = cls(**body)
    return dataclasses.replace(root, **sections)


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
    if seed is not None and isinstance(payload, dict):  # other roots are refused below
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
