import dataclasses
import re

import numpy as np
import pytest

import mvcil
from mvcil import trainer
from mvcil.config import ConfigError
from mvcil.trainer import RunConfig, config_field_types

# (prefix of the dotted key, class); RunConfig's own fields carry no prefix
CLASSES = [*trainer.SECTIONS.items(), ("", RunConfig)]


def declared(kind=None):
    """(prefix, class, field) for every declared setting, optionally only
    those whose default has type `kind`."""
    return [pytest.param(prefix, klass, f, id=f"{prefix or 'run'}.{f.name}")
            for prefix, klass in CLASSES for f in dataclasses.fields(klass)
            if f.metadata and (kind is None or type(f.default) is kind)]


def key(prefix, f):
    return f"{prefix}.{f.name}" if prefix else f.name


def rejects(prefix, klass, f, value):
    with pytest.raises(ConfigError, match=re.escape(key(prefix, f))):
        klass(**{f.name: value})


def test_config_error_is_one_class_everywhere():
    assert mvcil.ConfigError is trainer.ConfigError is ConfigError
    assert issubclass(ConfigError, ValueError)


def test_every_setting_is_declared_once_with_its_type():
    types = config_field_types()
    assert len(types) == 16
    assert {key(p, f) for p, klass in CLASSES
            for f in dataclasses.fields(klass) if f.metadata} == set(types)
    assert sorted({t.__name__ for t in types.values()}) == ["bool", "float", "int", "str"]


def bounded(name):
    return [p for p in declared() if name in p.values[2].metadata["bound"]]


@pytest.mark.parametrize("prefix, klass, f", bounded("gt"))
def test_gt_bound(prefix, klass, f):
    bound = f.metadata["bound"]["gt"]
    typ = type(f.default)
    rejects(prefix, klass, f, typ(bound))
    inside = bound + 1 if typ is int else float(np.nextafter(bound, np.inf))
    assert getattr(klass(**{f.name: inside}), f.name) == inside


@pytest.mark.parametrize("prefix, klass, f", bounded("ge"))
def test_ge_bound(prefix, klass, f):
    bound = f.metadata["bound"]["ge"]
    typ = type(f.default)
    below = bound - 1 if typ is int else float(np.nextafter(bound, -np.inf))
    rejects(prefix, klass, f, below)
    assert getattr(klass(**{f.name: typ(bound)}), f.name) == bound


@pytest.mark.parametrize("prefix, klass, f", bounded("le"))
def test_le_bound(prefix, klass, f):
    bound = f.metadata["bound"]["le"]
    rejects(prefix, klass, f, bound + 1)
    assert getattr(klass(**{f.name: bound}), f.name) == bound


def test_mode_is_one_of_the_modes():
    with pytest.raises(ConfigError, match="mode must be one of"):
        RunConfig(mode="net3")
    with pytest.raises(ConfigError, match="mode must be str"):
        RunConfig(mode=3)
    for mode in trainer.MODES:
        assert RunConfig(mode=mode).mode == mode


@pytest.mark.parametrize("prefix, klass, f", declared(float))
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_float_settings_must_be_finite(prefix, klass, f, value):
    # each section checks itself: nothing relies on RunConfig to catch it
    rejects(prefix, klass, f, value)


@pytest.mark.parametrize("prefix, klass, f", declared(float))
def test_float_settings_take_any_real_but_bool(prefix, klass, f):
    # every float bound admits 1
    for value in (1, np.int64(1), np.float32(f.default), np.float64(f.default)):
        assert getattr(klass(**{f.name: value}), f.name) == value
    for value in (True, "1.0", None):
        rejects(prefix, klass, f, value)


@pytest.mark.parametrize("prefix, klass, f", declared(int))
def test_int_settings_reject_floats_and_bools(prefix, klass, f):
    for value in (float(f.default), f.default + 0.5, True, np.bool_(True), str(f.default)):
        rejects(prefix, klass, f, value)
    assert getattr(klass(**{f.name: np.int64(f.default)}), f.name) == f.default


@pytest.mark.parametrize("prefix, klass, f", declared(bool))
def test_bool_settings_take_only_bools(prefix, klass, f):
    for value in (1, 0.0, "true"):
        rejects(prefix, klass, f, value)
    assert getattr(klass(**{f.name: np.bool_(False)}), f.name) == False  # noqa: E712


@pytest.mark.parametrize("raw, name", [
    ({"fusion": {"width": 2.5}}, "fusion.width"),
    ({"consolidation": {"batch_size": True}}, "consolidation.batch_size"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
    ({"encoder": {"lam": float("nan")}}, "encoder.lam"),
    ({"fusion": {"projector_enabled": "false"}}, "fusion.projector_enabled"),
])
def test_from_dict_reports_the_dotted_key(raw, name):
    with pytest.raises(ConfigError, match=re.escape(name)):
        RunConfig.from_dict(raw)


def test_to_dict_is_unchanged():
    assert RunConfig().to_dict() == {
        "schema_version": 1, "seed": 0, "mode": "full",
        "encoder": {"n": 30, "L": 20, "max_iter": 50, "lam": 1e-3},
        "fusion": {"alpha": 1.0, "eta": 0.01, "width": 200, "projector_enabled": True,
                   "head_projector_alpha": 1.0},
        "consolidation": {"mu": 1000.0, "epochs_per_session": 8, "batch_size": 64,
                          "max_steps_per_session": 60, "head_lr": 2e-3},
    }
