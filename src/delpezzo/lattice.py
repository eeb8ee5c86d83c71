"""Picard lattice of a 4-point blow-up of the plane, with exact arithmetic.

The lattice has rank 5 with orthogonal basis (L, E1, E2, E3, E4), Gram form
diag(+1, -1, -1, -1, -1).  Divisor classes are integer coefficient vectors in
this basis; Q-classes carry exact rational coefficients.  A surface
configuration records which of the four blown-up points are collinear and
which sit infinitely near a previous one; it induces the unimodular change of
basis to the "curve basis" of actual exceptional curves (strict transforms).

No floating point is used anywhere: integers are exact, rationals are
`fractions.Fraction`.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .exact import bareiss, mat_vec

if TYPE_CHECKING:
    from fractions import Fraction

    Coeff = Union[int, Fraction]

RANK = 5


class InternalFaultError(RuntimeError):
    """An invariant the toolkit relies on was violated (never expected)."""


def _as_int(x: Coeff) -> int:
    if type(x) is int:
        return x
    from fractions import Fraction

    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected exact integer/rational coefficient, got {x!r}")
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"non-integral coefficient {x}")
        return int(x)
    return x


class _Record:
    """Base of the package's value types, which list their fields in
    `__slots__`.  `==` and `repr` follow the slots in order, as `dataclasses`
    generates them: two records are equal when they are of the same class and
    their field values are equal, and the repr reads ``Name(field=value, ...)``.
    A `_Record` is mutable and unhashable; a `_FrozenRecord` is neither."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) == 1:
            get = attrgetter(names[0])
            cls._values = staticmethod(lambda self: (get(self),))
        elif names:
            cls._values = staticmethod(attrgetter(*names))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"


_setattr = object.__setattr__  # bound once for the per-field loop of `_FrozenRecord.__init__`


class _FrozenRecord(_Record):
    """An immutable record, hashed like a frozen dataclass: by the tuple of
    its field values."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __init__(self, *values, **fields):
        """Set the fields past the assignment guard.  As to a dataclass
        constructor, they are given in slot order, by name or both; a
        missing, unknown, repeated or extra field raises TypeError."""
        names = self.__slots__
        if fields and fields.keys() == set(names[len(values):]):
            values += tuple(fields.pop(name) for name in names[len(values):])
        if fields or len(values) != len(names):
            raise TypeError(f"{self.__class__.__qualname__} takes the fields {names}, "
                            f"got {len(values)} positional and the names {tuple(fields)}")
        for name, value in zip(names, values):
            _setattr(self, name, value)

    @staticmethod
    def _compare(op):
        """An ordering method: `op` on the field tuples of two records of the
        same class, as `dataclass(order=True)` generates it."""

        def compare(self, other):
            if other.__class__ is self.__class__:
                return op(self._values(self), other._values(other))
            return NotImplemented

        return compare


class DivisorClass(_FrozenRecord):
    """Integer class c0*L + c1*E1 + ... + c4*E4 in the standard basis."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, int, int, int, int]):
        if len(coeffs) != RANK:
            raise ValueError(f"need {RANK} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", tuple(_as_int(c) for c in coeffs))

    @classmethod
    def _unchecked(cls, coeffs: tuple[int, ...]) -> "DivisorClass":
        """Class from RANK coefficients already known to be ints: the
        arithmetic below keeps them so, and skips the constructor's checks."""
        d = object.__new__(cls)
        object.__setattr__(d, "coeffs", coeffs)
        return d

    def __add__(self, other):
        if isinstance(other, DivisorClass):
            return DivisorClass._unchecked(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        return NotImplemented

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DivisorClass._unchecked(tuple(-a for a in self.coeffs))

    def __rmul__(self, n):
        if isinstance(n, int):
            return DivisorClass._unchecked(tuple(n * a for a in self.coeffs))
        return NotImplemented

    __mul__ = __rmul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __str__(self) -> str:
        return render_class(self.coeffs)


class QDivisorClass(_FrozenRecord):
    """Exact-rational class in the standard basis (Mumford pullbacks live here).
    A value that pairs, converts and serializes; it has no arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]):
        from fractions import Fraction

        if len(coeffs) != RANK:
            raise ValueError(f"need {RANK} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if type(c) is not Fraction and (isinstance(c, bool) or not isinstance(c, (int, Fraction))):
                raise TypeError(f"expected exact integer/rational coefficient, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs))

    def __str__(self) -> str:
        return render_class(self.coeffs)


AnyClass = Union[DivisorClass, QDivisorClass]


def intersect(a: AnyClass, b: AnyClass) -> Coeff:
    """Signature (1,4) pairing: a0*b0 - sum(ai*bi).  An int when the value is
    integral, a Fraction otherwise."""
    a0, a1, a2, a3, a4 = a.coeffs
    b0, b1, b2, b3, b4 = b.coeffs
    value = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3 - a4 * b4
    if type(value) is int or value.denominator != 1:
        return value
    return int(value)


def divisor(c0: int, c1: int, c2: int, c3: int, c4: int) -> DivisorClass:
    return DivisorClass((c0, c1, c2, c3, c4))


L = divisor(1, 0, 0, 0, 0)
E = (
    divisor(0, 1, 0, 0, 0),
    divisor(0, 0, 1, 0, 0),
    divisor(0, 0, 0, 1, 0),
    divisor(0, 0, 0, 0, 1),
)
ZERO = divisor(0, 0, 0, 0, 0)
K = divisor(-3, 1, 1, 1, 1)
MINUS_K = -K


# ---------------------------------------------------------------------------
# Surface configurations
# ---------------------------------------------------------------------------

class SurfaceConfiguration(_FrozenRecord):
    """Position data of the four blown-up points.

    `collinear` is the set of point indices lying on one line, `chains` the
    ordered infinitely-near chains (each later point infinitely near the
    previous one).  The seven supported configurations are in CONFIGURATIONS.
    """

    __slots__ = ("name", "collinear", "chains")

    @property
    def is_general(self) -> bool:
        return not self.collinear and not self.chains

    def chain_successor(self, i: int) -> int | None:
        """Point infinitely near point i, if any."""
        for chain in self.chains:
            for pos, j in enumerate(chain[:-1]):
                if j == i:
                    return chain[pos + 1]
        return None

    def __str__(self) -> str:
        return self.name


def _cfg(name: str, collinear: Iterable[int] = (), chains: Sequence[Sequence[int]] = ()) -> SurfaceConfiguration:
    return SurfaceConfiguration(
        name=name,
        collinear=frozenset(collinear),
        chains=tuple(tuple(chain) for chain in chains),
    )


CONFIGURATIONS: dict[str, SurfaceConfiguration] = {
    "GENERAL": _cfg("GENERAL"),
    "P1": _cfg("P1", {1, 2, 3}),
    "P2": _cfg("P2", {1, 2, 3}, [(2, 3)]),
    "P3": _cfg("P3", {1, 2, 3}, [(1, 2, 3)]),
    "P4": _cfg("P4", {1, 2, 3}, [(3, 4)]),
    "P5": _cfg("P5", {1, 2, 3}, [(2, 3, 4)]),
    "P6": _cfg("P6", {1, 2, 3}, [(1, 2, 3, 4)]),
}

GENERAL = CONFIGURATIONS["GENERAL"]


def get_configuration(name: str) -> SurfaceConfiguration:
    cfg = CONFIGURATIONS.get(name.upper()) if isinstance(name, str) else None
    if cfg is None:
        raise ValueError(f"unknown configuration {name!r}; expected one of {sorted(CONFIGURATIONS)}")
    return cfg


def canonical_class(cfg: SurfaceConfiguration) -> DivisorClass:
    """K = -3L + E1 + E2 + E3 + E4; the same vector in every configuration."""
    del cfg
    return K


def anticanonical_class(cfg: SurfaceConfiguration) -> DivisorClass:
    del cfg
    return MINUS_K


# ---------------------------------------------------------------------------
# Curve basis
# ---------------------------------------------------------------------------

def exceptional_curve_class(cfg: SurfaceConfiguration, i: int) -> DivisorClass:
    """Class of the actual exceptional curve over point i (strict transform).

    Interior chain members give E_i - E_next (a (-2)-class); chain tails and
    isolated points give E_i itself.
    """
    succ = cfg.chain_successor(i)
    if succ is None:
        return E[i - 1]
    return E[i - 1] - E[succ - 1]


@lru_cache(maxsize=None)
def _curve_to_standard_matrix(cfg: SurfaceConfiguration) -> tuple[tuple[int, ...], ...]:
    """Columns are the standard coordinates of (l, e1..e4) in the curve basis."""
    cols = [L.coeffs] + [exceptional_curve_class(cfg, i).coeffs for i in range(1, 5)]
    return tuple(tuple(cols[j][i] for j in range(RANK)) for i in range(RANK))


@lru_cache(maxsize=None)
def _standard_to_curve_matrix(cfg: SurfaceConfiguration) -> tuple[tuple[int, ...], ...]:
    minors, adj = bareiss(_curve_to_standard_matrix(cfg))
    det = minors[-1]
    if adj is None or det not in (1, -1):
        raise InternalFaultError("basis-change matrix is not unimodular")
    return tuple(tuple(det * x for x in row) for row in adj)


def to_curve_basis(d: AnyClass, cfg: SurfaceConfiguration) -> tuple[Coeff, ...]:
    """Coordinates of d in the basis (l, e1..e4) of actual curves."""
    return mat_vec(_standard_to_curve_matrix(cfg), d.coeffs)


def from_curve_basis(v: Sequence[Coeff], cfg: SurfaceConfiguration) -> AnyClass:
    """Class with curve-basis coordinates v, as a standard-basis class."""
    if len(v) != RANK:
        raise ValueError(f"need {RANK} coordinates, got {len(v)}")
    return _exact_class(mat_vec(_curve_to_standard_matrix(cfg), v))


def _exact_class(coords: Sequence[Coeff]) -> AnyClass:
    """A `DivisorClass` when every coordinate is integral, else a `QDivisorClass`."""
    if all(getattr(x, "denominator", None) == 1 for x in coords):
        return DivisorClass(tuple(coords))
    return QDivisorClass(tuple(coords))


# ---------------------------------------------------------------------------
# Riemann-Roch
# ---------------------------------------------------------------------------

def riemann_roch_chi(d: DivisorClass) -> int:
    """chi(D) = 1 + (D^2 - D.K)/2 on a rational surface."""
    num = intersect(d, d) - intersect(d, K)
    if num % 2 != 0:
        raise InternalFaultError(f"parity violation in chi({d})")
    return 1 + num // 2


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"([+-]?)(\d*)(l|e[1-4])", re.IGNORECASE)


def parse_class_label(text: str, cfg: SurfaceConfiguration | None = None,
                      basis: str = "standard") -> DivisorClass:
    """Parse a whitespace-free class label such as ``3l-e1-e2-2e3-e4``, or
    ``0`` for the zero class (as `render_class` prints it).

    With ``basis="curve"`` the letters refer to the actual exceptional curves
    of the given configuration and the result is converted to the standard
    basis.
    """
    compact = text.replace(" ", "").lower()
    if not compact:
        raise ValueError("empty class label")
    pos = 0
    coords = [0] * RANK
    for match in _TERM_RE.finditer(compact):
        if match.start() != pos:
            break
        if pos > 0 and not match.group(1):
            break  # terms after the first need an explicit sign
        sign = -1 if match.group(1) == "-" else 1
        mult = int(match.group(2)) if match.group(2) else 1
        sym = match.group(3)
        index = 0 if sym == "l" else int(sym[1])
        coords[index] += sign * mult
        pos = match.end()
    if pos != len(compact) and compact != "0":
        raise ValueError(f"cannot parse class label {text!r} at position {pos}")
    if basis == "standard":
        return DivisorClass(tuple(coords))
    if basis == "curve":
        if cfg is None:
            raise ValueError("curve-basis labels need a configuration")
        result = from_curve_basis(tuple(coords), cfg)
        assert isinstance(result, DivisorClass)
        return result
    raise ValueError(f"unknown basis {basis!r}")


def render_class(coords: Sequence[Coeff]) -> str:
    """Human-readable rendering, e.g. ``3l-e1-e2-2e3-e4`` or ``4/3l-1/3e1-2/3e3``;
    the zero class is ``0``."""
    parts: list[str] = []
    for coeff, sym in zip(coords, ("l", "e1", "e2", "e3", "e4")):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        body = sym if mag == 1 else f"{mag}{sym}"
        parts.append(f"{sign}{body}")
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def _coeff_to_json(c: Coeff):
    if c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return int(c)


def rational_from_json(x) -> Coeff:
    """An exact JSON number: an integer or a "p/q" string; floats and booleans
    are rejected."""
    if isinstance(x, str):
        from fractions import Fraction

        num, _, den = x.partition("/")
        return Fraction(int(num), int(den) if den else 1)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError(f"exact integer or \"p/q\" string required, got {x!r}")


def class_to_json(d: AnyClass, cfg: SurfaceConfiguration, basis: str = "standard") -> dict:
    """JSON form: coefficient array plus explicit basis and configuration tags."""
    if basis == "standard":
        coords: Sequence[Coeff] = d.coeffs
    elif basis == "curve":
        coords = to_curve_basis(d, cfg)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return {"coeffs": [_coeff_to_json(c) for c in coords], "basis": basis, "config": cfg.name}


def class_from_json(obj: dict) -> tuple[AnyClass, SurfaceConfiguration]:
    """Inverse of `class_to_json`: `obj` must be a JSON object whose "coeffs"
    is a JSON list of exact numbers."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object for a class, got {obj!r}")
    cfg = get_configuration(obj.get("config", "GENERAL"))
    coeffs = obj.get("coeffs")
    if not isinstance(coeffs, list):
        raise ValueError(f'"coeffs": expected a JSON list, got {coeffs!r}')
    coords = [rational_from_json(x) for x in coeffs]
    basis = obj.get("basis", "standard")
    if basis == "curve":
        return from_curve_basis(coords, cfg), cfg
    if basis != "standard":
        raise ValueError(f"unknown basis {basis!r}")
    return _exact_class(coords), cfg
