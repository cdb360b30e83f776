import json
import math
import typing

import pytest

from cfmlab.config import (
    _SECTION_TYPES,
    ConfigError,
    DatasetConfig,
    FlowSection,
    RunConfig,
    SacmSection,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    validate_config,
)


def test_defaults_validate():
    cfg = config_from_dict({})
    assert cfg.seed == 0
    assert cfg.dataset.n_clips == 512
    assert cfg.codec.epochs == 200
    assert cfg.flow.epochs == 300
    validate_config(cfg)  # idempotent


def test_unknown_root_key_rejected():
    with pytest.raises(ConfigError, match="bogus: unknown config key"):
        config_from_dict({"bogus": 1})


def test_unknown_section_key_rejected_with_path():
    for section, key, value in [
        ("codec", "bogus", 1),
        ("flow", "learning_rate", 0.1),
        # removed fields, refused even at their old defaults
        ("flow", "mode", "permute-pair"),
        ("metrics", "pooling", "mean"),
        ("codec", "downsample", 4),
    ]:
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: unknown config key$"):
            config_from_dict({section: {key: value}})


def test_root_must_be_object():
    with pytest.raises(ConfigError, match="config root must be an object"):
        config_from_dict([1, 2, 3])


def test_section_must_be_object():
    with pytest.raises(ConfigError, match="codec: section must be an object"):
        config_from_dict({"codec": 3})


@pytest.mark.parametrize("seed", ["7", True, 1.5])
def test_seed_must_be_plain_int(seed):
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": seed})


@pytest.mark.parametrize("payload,path", [
    ({"seed": -1}, "seed"),
    ({"dataset": {"n_classes": 0}}, r"dataset\.n_classes"),
    ({"dataset": {"n_clips": 2, "n_classes": 3}}, r"dataset\.n_clips"),
    ({"dataset": {"n_frames": 4}}, r"dataset\.n_frames"),
    ({"dataset": {"n_frames": 30}}, r"dataset\.n_frames"),   # not divisible by 4
    ({"dataset": {"fps": 0}}, r"dataset\.fps"),
    ({"dataset": {"d_audio": 2}}, r"dataset\.d_audio"),      # < n_classes anchors
    ({"dataset": {"noise": -0.1}}, r"dataset\.noise"),
    ({"dataset": {"n_onsets": 0}}, r"dataset\.n_onsets"),
    ({"dataset": {"ratios": [0.5, 0.5, 0.5]}}, r"dataset\.ratios"),
    ({"codec": {"d_g": 0}}, r"codec\.d_g"),
    ({"codec": {"n_codes": 1}}, r"codec\.n_codes"),
    ({"codec": {"depth": 0}}, r"codec\.depth"),
    ({"codec": {"beta": -1.0}}, r"codec\.beta"),
    ({"codec": {"ema_decay": 1.5}}, r"codec\.ema_decay"),
    ({"codec": {"epochs": -1}}, r"codec\.epochs"),
    ({"codec": {"lr": 0.0}}, r"codec\.lr"),
    ({"sacm": {"alpha": 1.5}}, r"sacm\.alpha"),
    ({"sacm": {"tau": 0.0}}, r"sacm\.tau"),
    ({"sacm": {"lambda_cos": -1}}, r"sacm\.lambda_cos"),
    ({"sacm": {"scale": 0.0}}, r"sacm\.scale"),
    ({"flow": {"time_dim": 15}}, r"flow\.time_dim"),
    ({"flow": {"lam": 1.0}}, r"flow\.lam"),
    ({"flow": {"lam": -0.1}}, r"flow\.lam"),
    ({"flow": {"batch": 1}}, r"flow\.batch"),
    ({"flow": {"lambda_cfm": -1.0}}, r"flow\.lambda_cfm"),
    ({"flow": {"lambda_sem": -1.0}}, r"flow\.lambda_sem"),
    ({"sampler": {"scheme": "rk4"}}, r"sampler\.scheme"),
    ({"sampler": {"steps": 0}}, r"sampler\.steps"),
    ({"metrics": {"sigma": 0.0}}, r"metrics\.sigma"),
], ids=[  # pinned to the ids pytest first generated: deleting a row renames no other
    r"payload0-seed", r"payload1-dataset\.n_classes", r"payload2-dataset\.n_clips",
    r"payload3-dataset\.n_frames", r"payload4-dataset\.n_frames",
    r"payload5-dataset\.fps", r"payload6-dataset\.d_audio", r"payload7-dataset\.noise",
    r"payload8-dataset\.n_onsets", r"payload9-dataset\.ratios",
    r"payload10-codec\.d_g", r"payload12-codec\.n_codes", r"payload13-codec\.depth",
    r"payload14-codec\.beta", r"payload15-codec\.ema_decay",
    r"payload16-codec\.epochs", r"payload17-codec\.lr", r"payload18-sacm\.alpha",
    r"payload19-sacm\.tau", r"payload20-sacm\.lambda_cos", r"payload21-sacm\.scale",
    r"payload22-flow\.time_dim", r"payload23-flow\.lam", r"payload24-flow\.lam",
    r"payload26-flow\.batch", r"payload27-flow\.lambda_cfm",
    r"payload28-flow\.lambda_sem", r"payload29-sampler\.scheme",
    r"payload30-sampler\.steps", r"payload31-metrics\.sigma"])
def test_out_of_range_fields_name_their_path(payload, path):
    with pytest.raises(ConfigError, match=path):
        config_from_dict(payload)


# wrong values for a field of each annotated type, and the words naming it
BAD_TYPED_VALUES = {
    int: ("an integer", [True, 2.5, 3.0, "3", None, [1]]),
    float: ("a finite number", [False, "0.1", math.nan, math.inf, -math.inf, None]),
    str: ("a string", [3, True, None, ["euler"]]),
}


def _typed_fields():
    for section, cls in _SECTION_TYPES.items():
        for name, kind in typing.get_type_hints(cls).items():
            if kind in BAD_TYPED_VALUES:
                yield section, name, kind


@pytest.mark.parametrize("section, name, kind", list(_typed_fields()))
def test_wrong_field_type_names_the_field(section, name, kind):
    what, values = BAD_TYPED_VALUES[kind]
    for value in values:
        with pytest.raises(ConfigError, match=rf"^{section}\.{name}: must be {what}, got "):
            config_from_dict({section: {name: value}})


def test_typed_fields_cover_every_section():
    assert {s for s, _, _ in _typed_fields()} == set(_SECTION_TYPES)


def test_float_field_takes_an_int_unchanged():
    cfg = config_from_dict({"codec": {"lr": 1}, "dataset": {"fps": 30}})
    assert cfg.codec.lr == 1 and type(cfg.codec.lr) is int
    assert cfg.dataset.fps == 30


def test_dataset_inherits_global_seed():
    cfg = config_from_dict({"seed": 5})
    assert cfg.dataset.seed == 5


def test_explicit_dataset_seed_wins():
    cfg = config_from_dict({"seed": 5, "dataset": {"seed": 11}})
    assert cfg.dataset.seed == 11


def test_hash_is_hex_and_stable():
    a = config_hash(config_from_dict({"seed": 3}))
    b = config_hash(config_from_dict({"seed": 3}))
    assert a == b
    assert len(a) == 64
    assert set(a) <= set("0123456789abcdef")


def test_hash_changes_with_any_field():
    base = config_hash(config_from_dict({}))
    assert config_hash(config_from_dict({"seed": 1})) != base
    assert config_hash(config_from_dict({"flow": {"lam": 0.1}})) != base
    assert config_hash(config_from_dict({"codec": {"n_codes": 32}})) != base


def test_hash_ignores_key_order():
    a = config_from_dict({"seed": 2, "flow": {"lam": 0.1, "epochs": 5}})
    b = config_from_dict({"flow": {"epochs": 5, "lam": 0.1}, "seed": 2})
    assert config_hash(a) == config_hash(b)


def test_to_dict_roundtrip_preserves_hash():
    cfg = config_from_dict({"seed": 9, "dataset": {"n_clips": 48},
                            "flow": {"lam": 0.2}})
    again = config_from_dict(config_to_dict(cfg))
    assert config_hash(cfg) == config_hash(again)
    assert again.flow.lam == 0.2
    assert again.dataset.n_clips == 48


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 4, "sampler": {"scheme": "midpoint"}}))
    cfg = load_config(path)
    assert cfg.seed == 4
    assert cfg.sampler.scheme == "midpoint"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_default_dataclass_is_valid():
    validate_config(RunConfig())


@pytest.mark.parametrize("build, message", [
    (lambda: FlowSection(lam=1.0), r"^flow\.lam: must be >= 0 and < 1, got 1\.0$"),
    (lambda: SacmSection(alpha=True), r"^sacm\.alpha: must be a finite number, got True$"),
    (lambda: DatasetConfig(ratios=5), r"^dataset\.ratios: split ratios must be 3 numbers"),
    (lambda: DatasetConfig(n_classes=0, n_clips=0), r"^dataset\.n_classes: "),
    (lambda: RunConfig(seed=-1), r"^seed: must be >= 0, got -1$"),
    (lambda: config_from_dict({"seed": "7"}), r"^seed: must be an integer, got '7'$"),
], ids=["flow_lam", "sacm_alpha_bool", "dataset_ratios", "field_before_rule",
        "run_seed", "global_seed_before_dataset"])
def test_schema_names_the_field_however_the_config_is_built(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_a_field_changed_in_place_is_checked_again():
    cfg = config_from_dict({})
    cfg.flow.lam = math.nan
    with pytest.raises(ConfigError, match=r"^flow\.lam: must be a finite number"):
        validate_config(cfg)


def test_int_ratios_are_kept_as_floats():
    cfg = config_from_dict({"dataset": {"ratios": [1, 0, 0]}})
    assert cfg.dataset.ratios == (1.0, 0.0, 0.0)
    assert all(type(r) is float for r in cfg.dataset.ratios)
