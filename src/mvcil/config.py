"""Run settings: each is declared once, on its dataclass field, with its
bound, and `check` validates a whole section against those declarations."""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator

import numpy as np


class ConfigError(ValueError):
    """Invalid run configuration."""


# bound name -> (test of value against the bound, words for the error)
_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="), "le": (operator.le, "<="),
           "choices": (lambda value, choices: value in choices, "one of")}
# the types a default's type admits, NumPy scalars included
_ADMITS = {bool: (bool, np.bool_), int: numbers.Integral, float: numbers.Real}


def setting(default, **bound):
    """A config field whose type is its default's type, with bounds among
    gt=b (value > b), ge=b (value >= b), le=b (value <= b) and choices=(...)."""
    return dataclasses.field(default=default, metadata={"bound": bound})


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large to become a float
        return False


def check(section: str, obj) -> None:
    """Check each field of `obj` declared by `setting`: its type (an integral
    non-bool for int, a real non-bool for float), that a float is finite,
    then its bound. Errors name the field as `section.field`."""
    for f in dataclasses.fields(obj):
        if "bound" not in f.metadata:
            continue
        value = getattr(obj, f.name)
        key = f"{section}.{f.name}" if section else f.name
        typ = type(f.default)
        # a bool is an Integral, so it is kept out of int and float first
        is_bool = isinstance(value, _ADMITS[bool])
        if is_bool != (typ is bool) or not isinstance(value, _ADMITS.get(typ, typ)):
            raise ConfigError(f"{key} must be {typ.__name__}, got {value!r}")
        if typ is float and not _finite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        for name, limit in f.metadata["bound"].items():
            test, words = _BOUNDS[name]
            if not test(value, limit):
                raise ConfigError(f"{key} must be {words} {limit!r}, got {value!r}")
