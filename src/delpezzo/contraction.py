"""Contraction of the (-2)-curves: Q-pullback and intersections downstairs.

A class on the singular anticanonical image is named by a representative
divisor class upstairs; its numerical pullback is the unique Q-class
rep + sum(x_i * T_i) orthogonal to every contracted (-2)-curve T_i.  The Gram
matrix of the T_i is negative definite, so the correcting system always has a
unique rational solution.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .curves import component_labels, minus_two_curves, minus_two_gram_adjugate
from .exact import mat_vec
from .lattice import (
    QDivisorClass,
    SurfaceConfiguration,
    _FrozenRecord,
    intersect,
)


class SigmaClass(_FrozenRecord):
    """A divisor class on the contracted surface, named by an upstairs representative.

    Two representatives name the same class iff they differ by an integer
    combination of (-2)-curves.
    """

    __slots__ = ("rep", "cfg")

    def __str__(self) -> str:
        return f"push({self.rep})@{self.cfg.name}"


def mumford_pullback(s: SigmaClass) -> QDivisorClass:
    """The Q-class upstairs pairing 0 with every (-2)-curve of the configuration.

    Its coefficients x solve G x = -(rep.T), so det * pullback is the integer
    class det * rep - sum(y_i * T_i) with y = adj * (rep.T).
    """
    thetas = [t.cls for t in minus_two_curves(s.cfg)]
    adj, det = minus_two_gram_adjugate(s.cfg)
    scaled = [det * c for c in s.rep.coeffs]
    for y, theta in zip(mat_vec(adj, [intersect(s.rep, t) for t in thetas]), thetas):
        scaled = [a - y * b for a, b in zip(scaled, theta.coeffs)]
    return QDivisorClass(tuple(Fraction(a, det) for a in scaled))


def sigma_intersect(s: SigmaClass, t: SigmaClass) -> int | Fraction:
    """Intersection number on the singular model, independent of representatives."""
    if s.cfg != t.cfg:
        raise ValueError(f"configurations differ: {s.cfg} vs {t.cfg}")
    return intersect(mumford_pullback(s), mumford_pullback(t))


def singularity_types(cfg: SurfaceConfiguration) -> tuple[str, ...]:
    """ADE labels of the contracted points, one per connected (-2)-configuration."""
    thetas = [t.cls for t in minus_two_curves(cfg)]
    edges = tuple(
        (i, j) for i, j in itertools.combinations(range(len(thetas)), 2)
        if intersect(thetas[i], thetas[j]) != 0
    )
    return component_labels(len(thetas), edges)
