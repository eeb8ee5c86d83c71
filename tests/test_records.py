"""The slotted value types against the dataclasses they replaced.

Each twin below is the former `@dataclass` declaration of a package type,
moved here verbatim: the decorator, the class name and the fields with their
defaults.  Methods and `__post_init__` validation are left out, since they do
not enter `==`, `hash`, `repr` or the ordering; the strategies draw field
values that the package constructors keep unchanged.  On such values each
package type must compare, hash, print and refuse assignment exactly as its
twin does.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delpezzo import casework, cohomology, contraction, covers, curves, lattice, symmetry

# -- the twins -----------------------------------------------------------------


@dataclass(frozen=True)
class DivisorClass:
    coeffs: tuple[int, int, int, int, int]


@dataclass(frozen=True)
class QDivisorClass:
    coeffs: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class SurfaceConfiguration:
    name: str
    collinear: frozenset[int]
    chains: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class NegativeCurve:
    cls: DivisorClass
    kind: CurveKind


@dataclass
class ReductionTrace:
    start: DivisorClass
    steps: list[tuple[DivisorClass, int]] = field(default_factory=list)
    result: DivisorClass | None = None
    value: int | None = None


@dataclass(frozen=True)
class SigmaClass:
    rep: DivisorClass
    cfg: SurfaceConfiguration


@dataclass(frozen=True)
class DoubleCoverScenario:
    chi_base: int
    m_dot_k: Rational
    m_sq: Rational
    k_plus_m_sq: Rational
    pg_bound_class: tuple[DivisorClass, SurfaceConfiguration] | None = None
    label: str = ""


@dataclass(frozen=True)
class CoverInvariants:
    chi: Rational
    k_sq: Rational
    pg_lower: int


@dataclass(frozen=True)
class BidoubleData:
    d1: tuple[DivisorClass, ...]
    d2: tuple[DivisorClass, ...]
    d3: tuple[DivisorClass, ...]
    cfg: SurfaceConfiguration


@dataclass(frozen=True)
class BidoubleInvariants:
    pg: int
    q: int
    k_sq: int
    bicanonical_is_cover: bool


@dataclass(frozen=True)
class SurfaceNumerology:
    euler: int
    h2: int
    max_disjoint_minus4: int


@dataclass(frozen=True)
class LatticeAutomorphism:
    matrix: Matrix
    name: str = ""


@dataclass(frozen=True)
class LineTransitivityReport:
    transitive_on_lines: bool
    stabilizer_transitive_on_disjoint: bool
    transitive_on_disjoint_pairs: bool


@dataclass(frozen=True, order=True)
class SolutionRow:
    z_coeffs: tuple[int, ...]
    l_sq: int
    l_dot_e: int
    e_sq: int
    e_dot_z: int


@dataclass(frozen=True)
class ConstraintSystem:
    case: str
    chain_length: int
    strict_l_dot_z: bool
    tie_break: str  # description of the symmetry-breaking inequality


@dataclass(frozen=True)
class PublishedOnlyRow:
    row: SolutionRow
    violated: tuple[str, ...]


@dataclass(frozen=True)
class CorrectedRow:
    printed: SolutionRow
    enumerated: SolutionRow


@dataclass
class TableDiff:
    case: str
    matched: list[SolutionRow] = field(default_factory=list)
    corrected: list[CorrectedRow] = field(default_factory=list)
    published_only: list[PublishedOnlyRow] = field(default_factory=list)
    enumerator_only: list[SolutionRow] = field(default_factory=list)


@dataclass(frozen=True)
class FeasibleConfiguration:
    components: tuple[str, ...]           # e.g. ("A2",) or ("A1", "A1")
    edges: tuple[tuple[int, int], ...]
    curve_count: int
    witness_pairings: tuple[int, ...]     # E.theta_i for the witness
    witness_e_sq: int
    witness_coefficients: tuple[Fraction, ...]


# -- field values ----------------------------------------------------------------

small = st.integers(-2, 2)
text = st.sampled_from(["", "id", "perm:1243", "a >= c"])
rationals = st.one_of(small, st.fractions(-3, 3, max_denominator=4).filter(lambda q: q.denominator > 1))
configs = st.sampled_from(sorted(lattice.CONFIGURATIONS.values(), key=str))
classes = st.tuples(*[small] * 5).map(lattice.DivisorClass)
class_lists = st.lists(classes, max_size=2)
int_tuples = st.lists(small, max_size=3).map(tuple)
curves_ = st.sampled_from([c for cfg in lattice.CONFIGURATIONS.values() for c in curves.negative_curves(cfg)])
rows = st.tuples(int_tuples, small, small, small, small).map(lambda v: casework.SolutionRow(*v))
matrices = st.sampled_from([g.matrix for g in symmetry.generate_group()[:12]])

#: (package type, twin, strategy of constructor argument tuples)
TYPES = [
    (lattice.DivisorClass, DivisorClass, st.tuples(st.tuples(*[small] * 5))),
    (lattice.QDivisorClass, QDivisorClass,
     st.tuples(st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * 5))),
    (lattice.SurfaceConfiguration, SurfaceConfiguration, st.tuples(
        st.sampled_from(["GENERAL", "P1", "P4"]), st.frozensets(st.integers(1, 4), max_size=2),
        st.lists(st.lists(st.integers(1, 4), max_size=2).map(tuple), max_size=2).map(tuple))),
    (curves.NegativeCurve, NegativeCurve, curves_.map(lambda c: (c.cls, c.kind))),
    (cohomology.ReductionTrace, ReductionTrace, st.tuples(
        classes, st.lists(st.tuples(classes, st.integers(1, 3)), max_size=2), st.none() | classes,
        st.none() | st.integers(0, 3))),
    (contraction.SigmaClass, SigmaClass, st.tuples(classes, configs)),
    (covers.DoubleCoverScenario, DoubleCoverScenario, st.tuples(
        small, rationals, rationals, rationals, st.none() | st.tuples(classes, configs), text)),
    (covers.CoverInvariants, CoverInvariants, st.tuples(rationals, rationals, small)),
    (covers.BidoubleData, BidoubleData, st.tuples(
        class_lists.map(tuple), class_lists.map(tuple), class_lists.map(tuple), configs)),
    (covers.BidoubleInvariants, BidoubleInvariants, st.tuples(small, small, small, st.booleans())),
    (covers.SurfaceNumerology, SurfaceNumerology, st.tuples(small, small, small)),
    (symmetry.LatticeAutomorphism, LatticeAutomorphism, st.tuples(matrices, text)),
    (symmetry.LineTransitivityReport, LineTransitivityReport, st.tuples(*[st.booleans()] * 3)),
    (casework.SolutionRow, SolutionRow, st.tuples(int_tuples, small, small, small, small)),
    (casework.ConstraintSystem, ConstraintSystem, st.tuples(
        st.sampled_from(casework.TABLE_CASES), st.integers(2, 4), st.booleans(), text)),
    (casework.PublishedOnlyRow, PublishedOnlyRow, st.tuples(rows, st.lists(text, max_size=2).map(tuple))),
    (casework.CorrectedRow, CorrectedRow, st.tuples(rows, rows)),
    (casework.TableDiff, TableDiff, st.tuples(
        st.sampled_from(casework.TABLE_CASES), st.lists(rows, max_size=2),
        st.lists(st.tuples(rows, rows).map(lambda p: casework.CorrectedRow(*p)), max_size=1),
        st.lists(rows.map(lambda r: casework.PublishedOnlyRow(r, ("E.Z > 0",))), max_size=1),
        st.lists(rows, max_size=1))),
    (casework.FeasibleConfiguration, FeasibleConfiguration, st.tuples(
        st.lists(st.sampled_from(["A1", "A2", "D4"]), max_size=2).map(tuple),
        st.lists(st.tuples(small, small), max_size=2).map(tuple), small, int_tuples, small,
        st.lists(st.fractions(-2, 2, max_denominator=3), max_size=3).map(tuple))),
]
IDS = [real.__name__ for real, _, _ in TYPES]


def record_types():
    found, todo = set(), [lattice._Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("delpezzo.") and sub.__slots__:
                found.add(sub)
    return found


def test_every_package_value_type_has_a_twin():
    assert len(TYPES) == 19
    assert {real for real, _, _ in TYPES} == record_types()
    for real, twin, _ in TYPES:
        assert real.__name__ == twin.__name__
        assert real.__slots__ == tuple(f.name for f in dataclasses.fields(twin))


def pair(real, twin, args):
    return real(*args), twin(*args)


def test_only_types_that_check_or_default_a_field_write_a_constructor():
    """The others take the one constructor of `_FrozenRecord`."""
    assert {real.__name__ for real, _, _ in TYPES if "__init__" in vars(real)} == {
        "DivisorClass", "QDivisorClass", "NegativeCurve", "LatticeAutomorphism", "DoubleCoverScenario",
        "ReductionTrace", "TableDiff",
    }
    assert not hasattr(lattice._FrozenRecord, "_init")


def built(cls, names, values, fields):
    """The `names` fields of `cls(*values, **fields)`, or TypeError."""
    try:
        obj = cls(*values, **fields)
    except TypeError:
        return TypeError
    return tuple(getattr(obj, name) for name in names)


def lookalike(record):
    """An instance of another record class with the same fields and values."""
    cls = type(record.__class__.__name__, (record.__class__.__mro__[1],), {"__slots__": record.__slots__})
    other = object.__new__(cls)
    for name in record.__slots__:
        object.__setattr__(other, name, getattr(record, name))
    return other


@pytest.mark.parametrize("real, twin, args", TYPES, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_equality_matches_the_dataclass(real, twin, args, data):
    a = data.draw(args)
    b = data.draw(st.one_of(st.just(a), args))
    ra, ta = pair(real, twin, a)
    rb, tb = pair(real, twin, b)
    assert (ra == rb) is (ta == tb)
    assert (ra != rb) is (ta != tb)
    assert ra == real(*a) and not ra != real(*a)
    # Against another type neither claims equality, the twin included.
    for x, y in ((ra, ta), (ta, ra)):
        for other in (y, lookalike(ra), a, None, object()):
            assert x.__eq__(other) is NotImplemented
            assert x != other and not x == other


@pytest.mark.parametrize("real, twin, args", TYPES, ids=IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_constructors_take_fields_like_the_dataclass(real, twin, args, data):
    """By position, by name or both the fields come out as given; a missing,
    unknown, repeated or extra field raises TypeError for both types."""
    values = data.draw(args)
    names = real.__slots__
    split = data.draw(st.integers(0, len(names)))
    calls = {
        "position": (values, {}),
        "name": ((), dict(zip(names, values))),
        "both": (values[:split], dict(zip(names[split:], values[split:]))),
        "missing": ((), dict(zip(names[1:], values[1:]))),
        "short": (values[:-1], {}),  # fine where the last field has a default
        "unknown": (values, {"no_such_field": None}),
        "repeated": (values, {names[0]: values[0]}),
        "extra": ((*values, None), {}),
    }
    outcomes = {case: built(real, names, *call) for case, call in calls.items()}
    assert outcomes == {case: built(twin, names, *call) for case, call in calls.items()}
    assert all(outcomes[case] is TypeError for case in ("missing", "unknown", "repeated", "extra"))
    assert outcomes["position"] == tuple(values)
    if real.__init__ is lattice._FrozenRecord.__init__:
        with pytest.raises(TypeError) as raised:
            real(*values, no_such_field=None)
        assert real.__name__ in str(raised.value) and all(name in str(raised.value) for name in names)


@pytest.mark.parametrize("real, twin, args", TYPES, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hash_and_repr_match_the_dataclass(real, twin, args, data):
    r, t = pair(real, twin, data.draw(args))
    assert repr(r) == repr(t)
    if twin.__hash__ is None:
        for obj in (r, t):
            with pytest.raises(TypeError):
                hash(obj)
    else:
        assert hash(r) == hash(t)


FROZEN = [case for case in TYPES if case[1].__hash__ is not None]


@pytest.mark.parametrize("real, twin, args", FROZEN, ids=[real.__name__ for real, _, _ in FROZEN])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_frozen_types_refuse_assignment(real, twin, args, data):
    r, t = pair(real, twin, data.draw(args))
    for name in real.__slots__:
        for obj in (r, t):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert repr(r) == repr(t)


def test_mutable_types_take_assignment():
    trace = cohomology.ReductionTrace(lattice.ZERO)
    trace.value = 3
    trace.steps.append((lattice.L, 1))
    assert repr(trace) == repr(ReductionTrace(lattice.ZERO, [(lattice.L, 1)], None, 3))
    assert cohomology.ReductionTrace(lattice.ZERO).steps is not cohomology.ReductionTrace(lattice.ZERO).steps
    assert casework.TableDiff("p4").matched is not casework.TableDiff("p4").matched


row_values = st.tuples(int_tuples, small, small, small, small)


@settings(max_examples=100, deadline=None)
@given(st.lists(row_values, max_size=6), row_values)
def test_solution_rows_order_like_the_dataclass(values, probe):
    reals = [casework.SolutionRow(*v) for v in values]
    twins = [SolutionRow(*v) for v in values]
    assert [repr(r) for r in sorted(reals)] == [repr(t) for t in sorted(twins)]
    rp, tp = casework.SolutionRow(*probe), SolutionRow(*probe)
    for r, t in zip(reals, twins):
        assert (r < rp, r <= rp, r > rp, r >= rp) == (t < tp, t <= tp, t > tp, t >= tp)
    for x, y in ((rp, tp), (tp, rp)):
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(x, op)(y) is NotImplemented
        with pytest.raises(TypeError):
            x < y
        with pytest.raises(TypeError):
            x >= y
