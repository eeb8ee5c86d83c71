"""Numerical invariants of double and bidouble covers.

Double-cover scenarios carry intersection numbers, not geometry: for a cover
branched over D = 2M the standard formulas give

    chi(O_Y) = 2*chi(O_S) + M(K_S + M)/2,    K_Y^2 = 2(K_S + M)^2,

and p_g(Y) is lower-bounded through h^0 of a declared class on the blown-up
plane.  chi is returned exactly; a fractional value is the signal the
numerology uses to exclude a case, so it is never rounded.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .cohomology import h0
from .lattice import (
    DivisorClass,
    SurfaceConfiguration,
    ZERO,
    _FrozenRecord,
    canonical_class,
    class_from_json,
    get_configuration,
    intersect,
    rational_from_json,
    riemann_roch_chi,
)

Rational = int | Fraction


class DoubleCoverScenario(_FrozenRecord):
    """Numbers entering the double-cover formulas, with 2M = D the branch relation.

    `pg_bound_class` names a class (with its configuration) whose h^0
    lower-bounds p_g of the cover; `k_plus_m_sq` is (K_S + M)^2.
    """

    __slots__ = ("chi_base", "m_dot_k", "m_sq", "k_plus_m_sq", "pg_bound_class", "label")

    def __init__(self, chi_base: int, m_dot_k: Rational, m_sq: Rational, k_plus_m_sq: Rational,
                 pg_bound_class: tuple[DivisorClass, SurfaceConfiguration] | None = None, label: str = ""):
        super().__init__(chi_base, m_dot_k, m_sq, k_plus_m_sq, pg_bound_class, label)


class CoverInvariants(_FrozenRecord):
    __slots__ = ("chi", "k_sq", "pg_lower")

    @property
    def chi_is_integral(self) -> bool:
        return Fraction(self.chi).denominator == 1

    @property
    def q_lower(self) -> Rational:
        return self.pg_lower + 1 - self.chi


def double_cover_invariants(s: DoubleCoverScenario) -> CoverInvariants:
    chi = 2 * s.chi_base + Fraction(s.m_dot_k + s.m_sq, 2)
    if chi.denominator == 1:
        chi = int(chi)
    k_sq = 2 * s.k_plus_m_sq
    pg_lower = 0
    if s.pg_bound_class is not None:
        cls, cfg = s.pg_bound_class
        pg_lower = h0(cls, cfg)
    return CoverInvariants(chi=chi, k_sq=k_sq, pg_lower=pg_lower)


def albanese_gate(k_y_sq: Rational, q_y: int) -> bool:
    """True iff K_Y^2 >= 16(q(Y) - 1); False is the contradiction signal."""
    if q_y < 0:
        raise ValueError("q must be non-negative")
    return k_y_sq >= 16 * (q_y - 1)


def ramification_check(rprime_dot_pullback: Rational, pullback_sq: Rational) -> bool:
    """Strict inequality R'.(h*e) > (h*e)^2 required of any partial ramification
    divisor against the pullback of a negative curve; False signals the
    contradiction used to kill a case."""
    if pullback_sq >= 0:
        raise ValueError("the check applies only to curves of negative self-intersection")
    return rprime_dot_pullback > pullback_sq


# ---------------------------------------------------------------------------
# Bidouble covers
# ---------------------------------------------------------------------------

class BidoubleData(_FrozenRecord):
    """Branch components of a (Z/2)^2-cover, one multiset of classes per index."""

    __slots__ = ("d1", "d2", "d3", "cfg")

    @property
    def branch_classes(self) -> tuple[DivisorClass, DivisorClass, DivisorClass]:
        return tuple(sum(part, ZERO) for part in (self.d1, self.d2, self.d3))

    def total(self) -> DivisorClass:
        a, b, c = self.branch_classes
        return a + b + c


def _half(d: DivisorClass, which: tuple[int, int]) -> DivisorClass:
    if any(c % 2 for c in d.coeffs):
        raise ValueError(
            f"branch parity fails: D{which[0]} + D{which[1]} = {d} is not divisible by 2"
        )
    return DivisorClass(tuple(c // 2 for c in d.coeffs))


class BidoubleInvariants(_FrozenRecord):
    __slots__ = ("pg", "q", "k_sq", "bicanonical_is_cover")


def bidouble_invariants(b: BidoubleData) -> BidoubleInvariants:
    """Invariants of the (Z/2)^2-cover: chi from the three half-classes L_i,
    p_g from h^0(K + L_i), and the bicanonical test h^0(-K - L_i) = 0.

    chi = 4 chi(O) + sum L_i(K + L_i)/2 (Catanese 1984) is 1 + sum chi(-L_i)
    by Riemann-Roch, whose parity check is the only one needed."""
    k = canonical_class(b.cfg)
    d1, d2, d3 = b.branch_classes
    halves = [
        _half(d2 + d3, (2, 3)),
        _half(d1 + d3, (1, 3)),
        _half(d1 + d2, (1, 2)),
    ]
    total = d1 + d2 + d3
    k_sq = intersect(2 * k + total, 2 * k + total)
    chi = 1 + sum(riemann_roch_chi(-li) for li in halves)
    pg = h0(k, b.cfg) + sum(h0(k + li, b.cfg) for li in halves)
    q = pg + 1 - chi
    bicanonical = all(h0(-k - li, b.cfg) == 0 for li in halves)
    return BidoubleInvariants(pg=pg, q=q, k_sq=k_sq, bicanonical_is_cover=bicanonical)


# ---------------------------------------------------------------------------
# Surface numerology
# ---------------------------------------------------------------------------

class SurfaceNumerology(_FrozenRecord):
    __slots__ = ("euler", "h2", "max_disjoint_minus4")


def surface_numerology(chi: int, k_sq: int) -> SurfaceNumerology:
    """Noether numerology: e = 12*chi - K^2, h^2 = e - 2 (for p_g = q = 0), and
    the Miyaoka bound r * 25/12 <= c_2 - K^2/3 on disjoint (-4)-curves, that
    is 25 r <= 12 c_2 - 4 K^2."""
    euler = 12 * chi - k_sq
    max_r = (12 * euler - 4 * k_sq) // 25
    return SurfaceNumerology(euler=euler, h2=euler - 2, max_disjoint_minus4=max_r)


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def load_scenario(path: str | Path):
    """Load a JSON scenario: kind double_cover (single or family) or bidouble."""
    raw = json.loads(Path(path).read_text())
    kind = raw.get("kind")
    if kind == "double_cover":
        return [_double_cover_from_json(raw, raw)]
    if kind == "double_cover_family":
        return [_double_cover_from_json(member, raw) for member in raw["members"]]
    if kind == "bidouble":
        return [bidouble_from_json(raw)]
    raise ValueError(f"unknown scenario kind {kind!r}")


def _double_cover_from_json(obj: dict, defaults: dict) -> DoubleCoverScenario:
    def get(key):
        return obj[key] if key in obj else defaults[key]

    bound = None
    if get("pg_bound_class") is not None:
        cls, cfg = class_from_json(get("pg_bound_class"))
        if not isinstance(cls, DivisorClass):
            raise ValueError("pg bound class must be integral")
        bound = (cls, cfg)
    chi_base = get("chi_base")
    if isinstance(chi_base, bool) or not isinstance(chi_base, int):
        raise ValueError(f"chi_base must be a JSON integer, got {chi_base!r}")
    return DoubleCoverScenario(
        chi_base=chi_base,
        m_dot_k=rational_from_json(get("m_dot_k")),
        m_sq=rational_from_json(get("m_sq")),
        k_plus_m_sq=rational_from_json(get("k_plus_m_sq")),
        pg_bound_class=bound,
        label=obj.get("label", defaults.get("label", "")),
    )


def bidouble_from_json(obj: dict) -> BidoubleData:
    cfg = get_configuration(obj.get("config", "GENERAL"))
    parts = []
    for key in ("D1", "D2", "D3"):
        classes = []
        for entry in obj[key]:
            cls, _ = class_from_json({"coeffs": entry, "basis": obj.get("basis", "standard"),
                                      "config": cfg.name})
            if not isinstance(cls, DivisorClass):
                raise ValueError("branch components must be integral classes")
            classes.append(cls)
        parts.append(tuple(classes))
    return BidoubleData(d1=parts[0], d2=parts[1], d3=parts[2], cfg=cfg)
