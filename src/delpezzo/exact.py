"""Exact integer linear algebra: fraction-free elimination and matrix products.

`bareiss` is the one elimination routine of the package.  It is Bareiss's
fraction-free Gauss-Jordan elimination ("Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968): each step
divides by the previous pivot, and Sylvester's identity makes that division
exact, so every entry stays an integer.  No pivoting is done; the callers'
matrices (unit-triangular basis changes, negative definite (-2)-Grams) never
need it.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]


def bareiss(m: Sequence[Sequence[int]]) -> tuple[list[int], Matrix | None]:
    """Leading principal minors and adjugate of the square integer matrix m.

    ``minors[k]`` is the determinant of the leading k x k block (so
    ``minors[0] == 1`` and ``minors[-1]`` is det m).  The minors stop at the
    first zero one, and the adjugate is then None; otherwise ``adj`` is the
    integer matrix with m * adj = det(m) * I.
    """
    n = len(m)
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    minors = [1]
    for k in range(n):
        pivot, prev = a[k][k], minors[-1]
        minors.append(pivot)
        if pivot == 0:
            return minors, None
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], a[k])]
    return minors, tuple(tuple(row[n:]) for row in a)


def mat_vec(m: Sequence[Sequence[int]], v: Sequence) -> tuple:
    return tuple([sum(map(mul, row, v)) for row in m])


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    columns = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in columns]) for row in a])
