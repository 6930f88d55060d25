"""The value records (mrlrc.record) against dataclass twins: the same
fields, defaults, equality, hash, repr and frozenness."""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError, make_dataclass
from dataclasses import field as dc_field

import pytest

from mrlrc.errors import ParameterError
from mrlrc.gf import make_tower
from mrlrc.mr import DecodeResult, ErasurePattern, MrCodeSpec, VerifyReport
from mrlrc.sdss import BoundsReport

T = make_tower(2, 1, 4)

# class, frozen, a full set of field values, and one other value per field
CASES = {
    "MrCodeSpec": (MrCodeSpec, True, (5, 3, 2, 1, T), (6, 4, 3, 2, make_tower(2, 1, 6))),
    "ErasurePattern": (ErasurePattern, True, (((0,), (3,)), (1,)), (((1,), (3,)), (2,))),
    "BoundsReport": (BoundsReport, True, (5, 4, 4), (6, 5, 5)),
    "VerifyReport": (VerifyReport, False,
                     (False, 12, ErasurePattern(((0,),), (1,)), 100, 0.25, "why", 7),
                     (True, 13, None, None, 0.5, "", None)),
    "DecodeResult": (DecodeResult, False, (False, None, [1, 0, 1], "dependent"),
                     (True, [0, 1], None, "")),
}
DEFAULTS = {"VerifyReport": {"reason": "", "checks": None}, "DecodeResult": {"reason": ""}}


def twin(name):
    """The dataclass the record replaced, with the same fields and defaults."""
    cls, frozen, values, _ = CASES[name]
    defaults = DEFAULTS.get(name, {})
    fields = [(f, object, dc_field(default=defaults[f])) if f in defaults else (f, object)
              for f in cls.__slots__]
    return make_dataclass(name, fields, frozen=frozen)


@pytest.mark.parametrize("name", CASES)
def test_record_matches_its_dataclass_twin(name):
    cls, frozen, values, others = CASES[name]
    Twin = twin(name)
    rec = cls(*values)
    ref = Twin(*values)
    assert repr(rec) == repr(ref)
    assert tuple(getattr(rec, f) for f in cls.__slots__) == values
    # keyword construction, and equality by value
    assert cls(**dict(zip(cls.__slots__, values))) == rec
    assert not cls(*values) != rec
    for i, other in enumerate(others):
        changed = values[:i] + (other,) + values[i + 1:]
        assert cls(*changed) != rec
        assert (cls(*changed) == rec) == (Twin(*changed) == ref)
    assert rec != values and rec != ref
    if frozen:
        assert hash(rec) == hash(ref) == hash(cls(*values))
        for f in cls.__slots__:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
                setattr(rec, f, getattr(rec, f))
            with pytest.raises(FrozenInstanceError):  # the twin, for comparison
                setattr(ref, f, getattr(ref, f))
            with pytest.raises(AttributeError):
                delattr(rec, f)
    else:
        with pytest.raises(TypeError):
            hash(rec)
        rec.ok = not rec.ok
        assert rec != cls(*values)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(AttributeError):
        rec.extra_field = 1


@pytest.mark.parametrize("name", CASES)
def test_record_copies_and_pickles_by_value(name):
    cls, _, values, _ = CASES[name]
    rec = cls(*values)
    for twin_rec in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin_rec) is cls and twin_rec == rec


@pytest.mark.parametrize("name", DEFAULTS)
def test_record_defaults(name):
    cls, _, values, _ = CASES[name]
    defaults = DEFAULTS[name]
    required = values[: len(values) - len(defaults)]
    rec = cls(*required)
    assert {f: getattr(rec, f) for f in defaults} == defaults
    assert repr(rec) == repr(twin(name)(*required))
    with pytest.raises(TypeError):
        cls(*required[:-1])


@pytest.mark.parametrize("kwargs,message", [
    (dict(n=0, r=3, h=2, delta=1), "need n >= 1 and h >= 1"),
    (dict(n=5, r=3, h=0, delta=1), "need n >= 1 and h >= 1"),
    (dict(n=5, r=3, h=2, delta=0), "need 1 <= delta <= r-1"),
    (dict(n=5, r=3, h=2, delta=3), "need 1 <= delta <= r-1"),
    (dict(n=2, r=2, h=2, delta=1), "dimension N - n*delta - h = 0 must be positive"),
    (dict(n=1, r=3, h=4, delta=1), "dimension N - n*delta - h = -2 must be positive"),
])
def test_mr_code_spec_parameter_errors(kwargs, message):
    with pytest.raises(ParameterError) as info:
        MrCodeSpec(tower=T, **kwargs)
    assert str(info.value) == message


def test_mr_code_spec_derived_sizes():
    spec = MrCodeSpec(5, 3, 2, 1, T)
    assert (spec.N, spec.k, spec.ell) == (15, 8, 16)
