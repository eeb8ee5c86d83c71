"""Automorphisms of the degree-5 del Pezzo lattice and their orbit structure.

The isometries of the Picard lattice that fix K form the Weyl group W(A4),
isomorphic to S5 (Dolgachev, *Classical Algebraic Geometry*, ch. 8).  The
ten (-1)-classes correspond to the 2-subsets of {1..5}, two lines meeting
exactly when their pairs are disjoint (the Petersen graph), and
`generate_group` builds the 120 elements from the permutations of {1..5}:
the columns of each matrix are sums of the pair lines' coefficient tuples.
`line_action` reads each element as a permutation of the lines off the same
integer columns (Ei goes to column i, L - Ei - Ej to column 0 minus columns
i and j), and the orbit checks work on those index tuples.  The named
automorphisms (coordinate permutations of the four exceptional classes, and
the quadratic involutions L -> 2L - Ei - Ej - Ek) transport cover data; the
orbit computations below back the transitivity statements used to
normalize it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import sub
from typing import TYPE_CHECKING

from .curves import ALL_MINUS_ONE_CLASSES
from .exact import Matrix, mat_mul, mat_vec
from .lattice import (
    E,
    K,
    L,
    ZERO,
    DivisorClass,
    _FrozenRecord,
    intersect,
)

if TYPE_CHECKING:
    from .covers import BidoubleData

_GRAM: Matrix = (
    (1, 0, 0, 0, 0),
    (0, -1, 0, 0, 0),
    (0, 0, -1, 0, 0),
    (0, 0, 0, -1, 0),
    (0, 0, 0, 0, -1),
)


def _columns_to_matrix(images: list[DivisorClass]) -> Matrix:
    return tuple(tuple(images[j].coeffs[i] for j in range(5)) for i in range(5))


class LatticeAutomorphism(_FrozenRecord):
    """Integer 5x5 matrix acting on standard-basis coefficient vectors."""

    __slots__ = ("matrix", "name")

    def __init__(self, matrix: Matrix, name: str = ""):
        if (len(matrix) != 5 or any(len(row) != 5 for row in matrix)
                or {type(x) for row in matrix for x in row} != {int}):
            raise ValueError(f"need a 5x5 integer matrix, got {matrix}")
        self._init(matrix, name)
        if not self.preserves_gram():
            raise ValueError(f"matrix does not preserve the intersection form: {matrix}")
        if mat_vec(matrix, K.coeffs) != K.coeffs:
            raise ValueError("automorphism must fix the canonical class")

    def apply(self, d: DivisorClass) -> DivisorClass:
        image = mat_vec(self.matrix, d.coeffs)
        if isinstance(d, DivisorClass):
            # An integer matrix times integer coefficients gives integers.
            return DivisorClass._unchecked(image)
        return DivisorClass(image)

    def compose(self, other: "LatticeAutomorphism") -> "LatticeAutomorphism":
        """self after other (matrix product)."""
        return LatticeAutomorphism(mat_mul(self.matrix, other.matrix))

    def preserves_gram(self) -> bool:
        """M^T G M = G: the images of the basis classes (the columns of M)
        pair with each other as the basis classes do."""
        cols = tuple(zip(*self.matrix))
        for i, (a0, a1, a2, a3, a4) in enumerate(cols):
            for j in range(i, 5):
                b0, b1, b2, b3, b4 = cols[j]
                if a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3 - a4 * b4 != _GRAM[i][j]:
                    return False
        return True


IDENTITY = LatticeAutomorphism(_columns_to_matrix([L, *E]), name="id")


def perm_automorphism(s: dict[int, int] | tuple[int, int, int, int]) -> LatticeAutomorphism:
    """Automorphism sending Ei -> E_{s(i)} and fixing L.

    `s` is a permutation of {1,2,3,4}, given as a mapping or as the one-line
    tuple (s(1), s(2), s(3), s(4)).
    """
    if not isinstance(s, dict):
        s = {i + 1: v for i, v in enumerate(s)}
    if sorted(s) != [1, 2, 3, 4] or sorted(s.values()) != [1, 2, 3, 4]:
        raise ValueError(f"not a permutation of 1..4: {s}")
    images = [L] + [E[s[i] - 1] for i in (1, 2, 3, 4)]
    name = "".join(str(s[i]) for i in (1, 2, 3, 4))
    return LatticeAutomorphism(_columns_to_matrix(images), name=f"perm:{name}")


def cremona_automorphism(base: set[int] | frozenset[int] | tuple[int, ...]) -> LatticeAutomorphism:
    """Quadratic involution based at three points: L -> 2L - Ei - Ej - Ek,
    Ei -> L - Ej - Ek for i in the base, the remaining class fixed."""
    base = frozenset(base)
    if len(base) != 3 or not base <= {1, 2, 3, 4}:
        raise ValueError(f"base must be a 3-subset of {{1,2,3,4}}, got {set(base)}")
    images = [2 * L - sum((E[i - 1] for i in base), ZERO)]
    for i in (1, 2, 3, 4):
        if i in base:
            j, k = sorted(base - {i})
            images.append(L - E[j - 1] - E[k - 1])
        else:
            images.append(E[i - 1])
    name = "".join(str(i) for i in sorted(base))
    return LatticeAutomorphism(_columns_to_matrix(images), name=f"cremona:{name}")


#: The ten lines indexed by 2-subsets of {1..5}: Ei <-> {i,5} and
#: L - Ei - Ej <-> {1..4} minus {i,j}.
PAIR_LINES: dict[frozenset[int], DivisorClass] = {
    **{frozenset((i, 5)): E[i - 1] for i in (1, 2, 3, 4)},
    **{
        frozenset({1, 2, 3, 4} - {i, j}): L - E[i - 1] - E[j - 1]
        for i, j in itertools.combinations((1, 2, 3, 4), 2)
    },
}


#: The coefficient tuples of PAIR_LINES, keyed by the pair in either order.
_PAIR_COEFFS: dict[tuple[int, int], tuple[int, ...]] = {
    (a, b): line.coeffs for pair, line in PAIR_LINES.items() for a, b in itertools.permutations(pair)
}


@lru_cache(maxsize=1)
def generate_group() -> tuple[LatticeAutomorphism, ...]:
    """The 120 elements of W(A4) = S5, one per permutation of {1..5}.

    A permutation s sends the line of the pair {a,b} to the line of
    {s(a),s(b)}.  The images of E1..E4 and of L = E1 + E2 + (L - E1 - E2)
    are the columns of the matrix, read off the coefficient tuples of the
    pair lines; the constructor checks that it preserves the form and K.
    """
    group = []
    for s in itertools.permutations(range(1, 6)):
        if s == (1, 2, 3, 4, 5):
            group.append(IDENTITY)
            continue
        # Ei = {i,5} goes to {s(i),s(5)}, L - E1 - E2 = {3,4} to {s(3),s(4)}.
        s1, s2, s3, s4, s5 = s
        e1, e2, e3, e4 = (_PAIR_COEFFS[t, s5] for t in (s1, s2, s3, s4))
        ell = [a + b + c for a, b, c in zip(e1, e2, _PAIR_COEFFS[s3, s4])]
        group.append(LatticeAutomorphism(tuple(zip(ell, e1, e2, e3, e4))))
    return tuple(group)


#: Each line as a combination of matrix columns: (the column it adds, the
#: columns it subtracts).  Ei is column i; L - Ei - Ej is column 0 minus
#: columns i and j.
_LINE_COLUMNS = tuple(
    (line.coeffs.index(1), tuple(k for k, c in enumerate(line.coeffs) if c == -1))
    for line in ALL_MINUS_ONE_CLASSES
)


@lru_cache(maxsize=1)
def line_action(group: tuple[LatticeAutomorphism, ...]) -> tuple[tuple[int, ...], ...]:
    """Each element as a permutation of the ten lines: entry i is the index in
    ALL_MINUS_ONE_CLASSES of the image of line i.  A matrix sends a line to
    the same combination of its columns as the line is of the basis, so each
    image is read off the integer columns.  An image that is not a line
    raises KeyError."""
    index = {line.coeffs: i for i, line in enumerate(ALL_MINUS_ONE_CLASSES)}
    action = []
    for g in group:
        cols = tuple(zip(*g.matrix))
        images = []
        for plus, minus in _LINE_COLUMNS:
            image = cols[plus]
            for k in minus:
                image = tuple(map(sub, image, cols[k]))
            images.append(index[image])
        action.append(tuple(images))
    return tuple(action)


def line_orbits(group: tuple[LatticeAutomorphism, ...] | None = None) -> list[set[DivisorClass]]:
    """Orbit partition of the ten (-1)-classes of the general configuration."""
    action = line_action(group or generate_group())
    remaining = set(range(len(ALL_MINUS_ONE_CLASSES)))
    orbits = []
    while remaining:
        orbit = {p[min(remaining)] for p in action}
        remaining -= orbit
        orbits.append({ALL_MINUS_ONE_CLASSES[i] for i in orbit})
    return orbits


class LineTransitivityReport(_FrozenRecord):
    __slots__ = ("transitive_on_lines", "stabilizer_transitive_on_disjoint", "transitive_on_disjoint_pairs")

    def __init__(self, transitive_on_lines: bool, stabilizer_transitive_on_disjoint: bool,
                 transitive_on_disjoint_pairs: bool):
        self._init(transitive_on_lines, stabilizer_transitive_on_disjoint, transitive_on_disjoint_pairs)

    def all_hold(self) -> bool:
        return (
            self.transitive_on_lines
            and self.stabilizer_transitive_on_disjoint
            and self.transitive_on_disjoint_pairs
        )


def line_transitivity_report() -> LineTransitivityReport:
    """Three orbit facts on the ten lines: the group is transitive; the
    stabilizer of a line is transitive on the six lines disjoint from it; and
    the action is transitive on ordered disjoint pairs.  All three are checked
    on the line permutations of `line_action`."""
    group = generate_group()
    action = line_action(group)
    lines = ALL_MINUS_ONE_CLASSES
    n = len(lines)
    disjoint = [[j for j in range(n) if j != i and intersect(lines[i], lines[j]) == 0] for i in range(n)]

    transitive = len(line_orbits(group)) == 1
    stab_ok = all(
        {p[disjoint[i][0]] for p in action if p[i] == i} == set(disjoint[i]) for i in range(n)
    )
    pairs = [(i, j) for i in range(n) for j in disjoint[i]]
    a, b = pairs[0]
    pairs_ok = {(p[a], p[b]) for p in action} == set(pairs)

    return LineTransitivityReport(
        transitive_on_lines=transitive,
        stabilizer_transitive_on_disjoint=stab_ok,
        transitive_on_disjoint_pairs=pairs_ok,
    )


def transport_cover_data(data: BidoubleData, g: LatticeAutomorphism) -> BidoubleData:
    """Apply a lattice automorphism to every branch component."""
    from .covers import BidoubleData

    if not data.cfg.is_general:
        raise ValueError("cover-data transport is defined on the general configuration")
    return BidoubleData(
        d1=tuple(g.apply(c) for c in data.d1),
        d2=tuple(g.apply(c) for c in data.d2),
        d3=tuple(g.apply(c) for c in data.d3),
        cfg=data.cfg,
    )


def same_family(a: BidoubleData, b: BidoubleData) -> bool:
    """Branch data define the same family when the three branch classes agree
    up to permutation of the indices (each compared as a divisor class)."""
    if a.cfg != b.cfg:
        return False
    return sorted(x.coeffs for x in a.branch_classes) == sorted(
        x.coeffs for x in b.branch_classes
    )
