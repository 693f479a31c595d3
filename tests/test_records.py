"""`errors.record` against `dataclasses.dataclass(frozen=True)`.

Each twin below is the stdlib dataclass a record stood for, field for field.
A record and its twin built from the same arguments must agree on repr
(up to the class name), equality, hash, field order, frozenness, argument
errors and pickling.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from x1points.classify import ClassificationVerdict
from x1points.curveinv import CurveInvariants, cusp_count
from x1points.errors import FrozenInstanceError, fields, record
from x1points.matgroup import borel_group
from x1points.modarith import Modulus, Vec2ModN, modulus, vec2
from x1points.orbits import DegreeSpectrum, GrowthReport, OrbitRecord, degree_spectrum


@dataclasses.dataclass(frozen=True)
class CurveInvariantsTwin:
    N: int
    psl2_index: int
    genus: int
    cusps: int = dataclasses.field(init=False)
    gonality_lower: Fraction
    known_gonality: int | None
    gonality_source: str | None

    def __post_init__(self):
        object.__setattr__(self, "cusps", cusp_count(self.N))


@dataclasses.dataclass(frozen=True)
class ClassificationVerdictTwin:
    case: int | None
    possible_cases: tuple[int, ...]
    evidence: dict = dataclasses.field(compare=False)
    candidates: tuple[int, ...] = ()


@dataclasses.dataclass(frozen=True)
class OrbitRecordTwin:
    representative: Vec2ModN
    size: int
    point_order: int
    minus_closed: bool
    degree: int


@dataclasses.dataclass(frozen=True)
class GrowthReportTwin:
    representative: Vec2ModN
    upstairs_size: int
    downstairs_size: int
    field_ratio: int
    fiber: int
    max_growth: bool
    upstairs_degree: int
    downstairs_degree: int
    map_degree: int
    product_equal: bool


@dataclasses.dataclass(frozen=True)
class Vec2ModNTwin:
    modulus: Modulus
    x: int
    y: int

    def __post_init__(self):
        n = self.modulus.n
        object.__setattr__(self, "x", self.x % n)
        object.__setattr__(self, "y", self.y % n)

    def __repr__(self):
        return f"({self.x},{self.y}) mod {self.modulus.n}"


def _growth(rep, fiber, equal):
    return dict(
        representative=rep, upstairs_size=8, downstairs_size=4, field_ratio=2, fiber=fiber,
        max_growth=fiber == 2, upstairs_degree=4, downstairs_degree=2, map_degree=2,
        product_equal=equal,
    )


# (record, twin, keyword arguments of three instances: the first two equal)
CASES = [
    (
        CurveInvariants,
        CurveInvariantsTwin,
        [
            dict(N=11, psl2_index=120, genus=1, gonality_lower=Fraction(21, 2),
                 known_gonality=2, gonality_source="known"),
            dict(N=11, psl2_index=120, genus=1, gonality_lower=Fraction(21, 2),
                 known_gonality=2, gonality_source="known"),
            dict(N=13, psl2_index=168, genus=2, gonality_lower=Fraction(14),
                 known_gonality=None, gonality_source=None),
        ],
    ),
    (
        ClassificationVerdict,
        ClassificationVerdictTwin,
        [
            dict(case=4, possible_cases=(4,), evidence={"rule": "a"}, candidates=(1, 2)),
            dict(case=4, possible_cases=(4,), evidence={"rule": "b"}, candidates=(1, 2)),
            dict(case=None, possible_cases=(1, 2), evidence={}),
        ],
    ),
    (
        OrbitRecord,
        OrbitRecordTwin,
        [
            dict(representative=vec2(5, 1, 0), size=4, point_order=5, minus_closed=True, degree=2),
            dict(representative=vec2(5, 6, 5), size=4, point_order=5, minus_closed=True, degree=2),
            dict(representative=vec2(5, 0, 1), size=20, point_order=5, minus_closed=True, degree=10),
        ],
    ),
    (
        GrowthReport,
        GrowthReportTwin,
        [_growth(vec2(9, 1, 0), 2, True), _growth(vec2(9, 1, 0), 2, True), _growth(vec2(9, 1, 3), 3, False)],
    ),
    (
        Vec2ModN,
        Vec2ModNTwin,
        [
            dict(modulus=modulus(7), x=9, y=-1),
            dict(modulus=modulus(7), x=2, y=6),
            dict(modulus=modulus(7), x=2, y=5),
        ],
    ),
]
IDS = [case[0].__name__ for case in CASES]


def _both(rec, twin, kwargs):
    return rec(**kwargs), twin(**kwargs)


@pytest.mark.parametrize("rec, twin, samples", CASES, ids=IDS)
def test_record_matches_dataclass_twin(rec, twin, samples):
    assert fields(rec) == tuple(f.name for f in dataclasses.fields(twin))
    built = [_both(rec, twin, kwargs) for kwargs in samples]
    for kwargs, (r, t) in zip(samples, built):
        assert fields(r) == fields(rec)
        assert repr(r) == repr(t).replace(f"{twin.__name__}(", f"{rec.__name__}(")
        assert hash(r) == hash(t)
        # positional arguments, and keywords in another order, build the same record
        positional = rec(*kwargs.values())
        shuffled = rec(**dict(reversed(kwargs.items())))
        assert positional == shuffled == r
        assert hash(positional) == hash(shuffled) == hash(r)
    for r1, t1 in built:
        for r2, t2 in built:
            assert (r1 == r2) == (t1 == t2)
            assert (r1 != r2) == (t1 != t2)
    assert built[0][0] == built[1][0] and built[0][1] == built[1][1]
    assert built[0][0] != built[2][0] and built[0][1] != built[2][1]
    assert (built[0][0] == built[0][1]) is False  # a record never equals another class


def test_compare_false_field_left_out_of_eq_and_hash():
    kwargs = dict(case=1, possible_cases=(1,), candidates=())
    for cls in (ClassificationVerdict, ClassificationVerdictTwin):
        a, b = cls(evidence={"x": 1}, **kwargs), cls(evidence={"y": [2]}, **kwargs)
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("rec, twin, samples", CASES, ids=IDS)
def test_record_is_frozen_like_its_twin(rec, twin, samples):
    name = fields(rec)[0]
    for obj in _both(rec, twin, samples[0]):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            obj.other = 0
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    with pytest.raises(FrozenInstanceError):
        rec(**samples[0]).__setattr__(name, 0)


@pytest.mark.parametrize("rec, twin, samples", CASES, ids=IDS)
def test_record_rejects_bad_arguments_like_its_twin(rec, twin, samples):
    kwargs = samples[0]
    names = list(kwargs)
    values = list(kwargs.values())
    bad_calls = [
        ((), {k: v for k, v in kwargs.items() if k != names[1]}),  # missing
        ((), {**kwargs, "bogus": 1}),  # unknown
        ((values[0],), kwargs),  # repeated
        ((*values, 0, 0), {}),  # too many positional
        ((), {names[0]: values[0]}),  # missing the rest
    ]
    if rec is CurveInvariants:
        bad_calls.append(((), {**kwargs, "cusps": 3}))  # an init=False field
    for args, kw in bad_calls:
        for cls in (rec, twin):
            with pytest.raises(TypeError):
                cls(*args, **kw)


@pytest.mark.parametrize("rec, twin, samples", CASES, ids=IDS)
def test_record_pickles_and_copies_like_its_twin(rec, twin, samples):
    for obj in _both(rec, twin, samples[2]):
        for back in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(back) is type(obj)
            assert back == obj and hash(back) == hash(obj) and repr(back) == repr(obj)


def test_degree_spectra_compare_by_identity():
    G = borel_group(5)
    a, b = degree_spectrum(G), degree_spectrum(G)
    assert a.records == b.records
    assert a != b and a == a
    assert hash(a) == object.__hash__(a)
    assert "_lines" not in repr(a)
    assert fields(DegreeSpectrum) == ("modulus", "field_degree", "records", "_lines")


def test_one_and_no_field_records_hash_like_dataclasses():
    # attrgetter of a single name gives the bare value, a dataclass hashes a 1-tuple
    @record
    class One:
        x: int = 5

    @record
    class Empty:
        pass

    OneTwin = dataclasses.dataclass(frozen=True)(type("One", (), {"__annotations__": {"x": int}, "x": 5}))
    EmptyTwin = dataclasses.dataclass(frozen=True)(type("Empty", (), {}))
    for rec, twin in ((One(), OneTwin()), (One(7), OneTwin(7)), (Empty(), EmptyTwin())):
        assert repr(rec).rpartition("<locals>.")[2] == repr(twin)
        assert hash(rec) == hash(twin)
    assert One() == One(x=5) != One(6)
    assert Empty() == Empty()


def test_a_record_keeps_the_methods_its_class_defines():
    @record
    class ByName:
        name: str
        note: str = ""

        def __eq__(self, other):
            return isinstance(other, ByName) and self.name == other.name

        def __hash__(self):
            return hash(self.name)

    a, b = ByName("x", "first"), ByName("x", "second")
    assert a == b and hash(a) == hash(b) == hash("x")
    assert a != ByName("y", "first")
    # the methods it does not define are still generated
    assert repr(a).rpartition(".")[2] == "ByName(name='x', note='first')"
    with pytest.raises(FrozenInstanceError):
        a.name = "y"
    assert fields(ByName) == ("name", "note")


def test_record_takes_no_options():
    with pytest.raises(TypeError):
        record(eq=False)
