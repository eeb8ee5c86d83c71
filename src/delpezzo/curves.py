"""Negative curves and ruling pencils of each surface configuration.

The candidate (-2)-classes of a configuration are the collinearity class
L - Ei - Ej - Ek and the differences Ei - Ej for consecutive chain points; a
full sweep of the root system in the tests confirms no other (-2)-class
survives the irreducibility filter.  (-1)-curves are the ten lattice classes
with C^2 = C.K = -1, filtered by non-negative pairing against the irreducible
(-2)-curves.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache

from .exact import Matrix, bareiss
from .lattice import (
    E,
    K,
    L,
    DivisorClass,
    InternalFaultError,
    SurfaceConfiguration,
    _FrozenRecord,
    intersect,
)


class CurveKind(Enum):
    MINUS_ONE = -1
    MINUS_TWO = -2


class NegativeCurve(_FrozenRecord):
    __slots__ = ("cls", "kind")

    def __init__(self, cls: DivisorClass, kind: CurveKind):
        sq = intersect(cls, cls)
        k = intersect(cls, K)
        expected = (-1, -1) if kind is CurveKind.MINUS_ONE else (-2, 0)
        if (sq, k) != expected:
            raise ValueError(f"{cls} has (C^2, C.K) = {(sq, k)}, not {expected}")
        super().__init__(cls, kind)


#: The ten (-1)-classes of the lattice: E1..E4 and L - Ei - Ej.
ALL_MINUS_ONE_CLASSES: tuple[DivisorClass, ...] = tuple(E) + tuple(
    L - E[i] - E[j] for i, j in itertools.combinations(range(4), 2)
)


def _sort_key(d: DivisorClass) -> tuple[int, ...]:
    return d.coeffs


@lru_cache(maxsize=None)
def minus_two_curves(cfg: SurfaceConfiguration) -> tuple[NegativeCurve, ...]:
    """Irreducible (-2)-curves: chain differences plus the collinearity class."""
    classes: list[DivisorClass] = []
    if len(cfg.collinear) == 3:
        i, j, k = sorted(cfg.collinear)
        classes.append(L - E[i - 1] - E[j - 1] - E[k - 1])
    for chain in cfg.chains:
        for a, b in zip(chain, chain[1:]):
            classes.append(E[a - 1] - E[b - 1])
    classes.sort(key=_sort_key)
    return tuple(NegativeCurve(c, CurveKind.MINUS_TWO) for c in classes)


@lru_cache(maxsize=None)
def minus_two_gram_adjugate(cfg: SurfaceConfiguration) -> tuple[Matrix, int]:
    """Adjugate and determinant of the Gram matrix of minus_two_curves(cfg).

    The Gram matrix is negative definite, so the determinant is non-zero and
    the system G x = b has the solution adj * b / det.
    """
    thetas = [t.cls for t in minus_two_curves(cfg)]
    minors, adj = bareiss([[intersect(a, b) for b in thetas] for a in thetas])
    if adj is None:
        raise InternalFaultError("(-2) Gram matrix is singular")
    return adj, minors[-1]


def component_labels(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[str, ...]:
    """ADE labels of the connected components of a negative definite
    (-2)-graph on nodes 0..n-1.

    A connected (-2)-graph is a Dynkin diagram exactly when -G is positive
    definite (Bourbaki, Lie Groups and Lie Algebras, VI 4), that is, by
    Sylvester's criterion, when every leading principal minor of -G is
    positive.  The last minor then names the type: det A_k = k + 1,
    det D_k = 4 and det E_k = 9 - k (A3 also has det 4, so A is tested
    first).  Any other component raises ValueError."""
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    labels = []
    unseen = set(range(n))
    while unseen:
        stack = [unseen.pop()]
        component = set(stack)
        while stack:
            for other in adjacency[stack.pop()] & unseen:
                unseen.remove(other)
                component.add(other)
                stack.append(other)
        nodes = sorted(component)
        minors, _ = bareiss([[2 if i == j else -1 if j in adjacency[i] else 0 for j in nodes] for i in nodes])
        if min(minors) <= 0:
            raise ValueError(f"not a Dynkin diagram: the component on nodes {nodes} of {edges}")
        k, det = len(nodes), minors[-1]
        kind = "A" if det == k + 1 else "D" if det == 4 else "E"
        labels.append(f"{kind}{k}")
    return tuple(sorted(labels))


@lru_cache(maxsize=None)
def minus_one_curves(cfg: SurfaceConfiguration) -> tuple[NegativeCurve, ...]:
    """The (-1)-classes that remain irreducible curves in this configuration."""
    walls = [t.cls for t in minus_two_curves(cfg)]
    kept = [
        c for c in ALL_MINUS_ONE_CLASSES
        if all(intersect(c, w) >= 0 for w in walls)
    ]
    kept.sort(key=_sort_key)
    return tuple(NegativeCurve(c, CurveKind.MINUS_ONE) for c in kept)


def negative_curves(cfg: SurfaceConfiguration) -> tuple[NegativeCurve, ...]:
    return minus_one_curves(cfg) + minus_two_curves(cfg)


def negative_curve_classes(cfg: SurfaceConfiguration) -> tuple[DivisorClass, ...]:
    return tuple(c.cls for c in negative_curves(cfg))


def incidence_graph(cfg: SurfaceConfiguration) -> tuple[tuple[DivisorClass, ...], tuple[tuple[int, ...], ...]]:
    """Pairing matrix over minus-one then minus-two curves, with its row order."""
    curves = negative_curve_classes(cfg)
    matrix = tuple(tuple(intersect(a, b) for b in curves) for a in curves)
    return curves, matrix


def ruling_candidates() -> tuple[DivisorClass, ...]:
    """All lattice classes with f^2 = 0 and -K.f = 2.

    Writing f = a*L - sum(bi*Ei), Cauchy-Schwarz forces a in {1, 2}; the
    solutions, in coefficient order, are the four L - Ei and
    2L - E1 - E2 - E3 - E4.
    """
    return (*(L - e for e in E), 2 * L - E[0] - E[1] - E[2] - E[3])


@lru_cache(maxsize=None)
def ruling_classes(cfg: SurfaceConfiguration, require_minus_two_orthogonal: bool = False) -> tuple[DivisorClass, ...]:
    """Classes of base-point-free pencils of rational curves.

    Keeps every f with f^2 = 0, -K.f = 2 that pairs >= 0 with every
    irreducible negative curve.  These curves generate the Mori cone, so such
    an f is nef and its fixed-part reduction is empty; then h^0 = chi = 2,
    and f moves in a pencil with no fixed part.  With the flag set,
    additionally f.T = 0 for every (-2)-curve T, i.e. every (-2)-curve lies
    in a fiber.
    """
    walls = negative_curve_classes(cfg)
    thetas = [t.cls for t in minus_two_curves(cfg)]
    return tuple(
        f for f in ruling_candidates()
        if all(intersect(f, c) >= 0 for c in walls)
        and not (require_minus_two_orthogonal and any(intersect(f, t) != 0 for t in thetas))
    )
