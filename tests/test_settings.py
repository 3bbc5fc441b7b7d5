"""The one field rule of every settings object, `lexcat.check_fields`: an int
field takes neither a bool, a float nor a numpy integer, and a float field
takes an int but neither a bool nor NaN; each refusal names its field."""

import math
import typing
from dataclasses import fields

import numpy as np
import pytest

from lexcat import DataError
from lexcat.pipeline import PipelineConfig
from lexcat.synth import SynthSpec
from lexcat.trees import Hyperparams

SETTINGS = (Hyperparams, SynthSpec, PipelineConfig)


def _fields_of(kind):
    """(class, field name, default) of every field annotated kind or kind | None."""
    cases = []
    for cls in SETTINGS:
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if kind in (hints[f.name], *typing.get_args(hints[f.name])):
                cases.append(pytest.param(cls, f.name, f.default, id=f"{cls.__name__}.{f.name}"))
    return cases


INT_FIELDS = _fields_of(int)
FLOAT_FIELDS = _fields_of(float)


def test_the_cases_cover_every_settings_object():
    assert {case.values[0] for case in INT_FIELDS} == set(SETTINGS)
    assert {case.values[0] for case in FLOAT_FIELDS} == {SynthSpec, PipelineConfig}


@pytest.mark.parametrize("cls, name, default", INT_FIELDS)
@pytest.mark.parametrize("value", [True, 1.0, np.int64(1)], ids=["bool", "float", "numpy_int"])
def test_int_field_refuses_other_types(cls, name, default, value):
    # refused by type, not by the range an int 1 might miss
    with pytest.raises(DataError, match=f"{name!r} must be int"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name, default", FLOAT_FIELDS)
def test_float_field_takes_an_int(cls, name, default):
    # one of the two ints next to the default is in range
    taken = []
    for value in (math.floor(default), math.ceil(default)):
        try:
            taken.append(cls(**{name: value}))
        except DataError:
            pass
    assert taken and all(type(getattr(obj, name)) is int for obj in taken)


@pytest.mark.parametrize("cls, name, default", FLOAT_FIELDS)
@pytest.mark.parametrize(
    "value, message", [(True, "must be float"), (math.nan, "must be")], ids=["bool", "nan"]
)
def test_float_field_refuses_bool_and_nan(cls, name, default, value, message):
    with pytest.raises(DataError, match=f"{name!r} {message}"):
        cls(**{name: value})
