"""The fraction-free core against the Fraction elimination it replaced.

`gauss_jordan_solve` and `fraction_det` are the package's former
`_solve_exact` and `casework._det`, and `genexpr_mat_vec`/`genexpr_mat_mul`
the former generator-expression products, kept here as independent oracles.
The preimage search is checked against the sweep it replaced: every labelled
graph (`bareiss_incidence_patterns`), isomorphism by the n! relabelling
search (`canonical_edges`) and one Fraction solve per pairing vector.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from delpezzo.casework import _ade_patterns, _feasible_pairings, preimage_configuration_search
from delpezzo.cohomology import is_effective
from delpezzo.contraction import SigmaClass, mumford_pullback
from delpezzo.curves import component_labels, minus_two_curves
from delpezzo.exact import bareiss, mat_mul, mat_vec
from delpezzo.lattice import (
    CONFIGURATIONS,
    MINUS_K,
    DivisorClass,
    QDivisorClass,
    _curve_to_standard_matrix,
    _standard_to_curve_matrix,
    intersect,
)


def gauss_jordan_solve(matrix, rhs):
    """Gaussian elimination over the rationals; None if singular."""
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def fraction_det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        pv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / pv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def genexpr_mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def genexpr_mat_mul(a, b):
    columns = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in columns) for row in a)


def identity(n, scale=1):
    return tuple(tuple(scale * int(i == j) for j in range(n)) for i in range(n))


square_matrices = st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=300)
@given(square_matrices, st.lists(st.integers(-9, 9), min_size=5, max_size=5))
def test_bareiss_matches_fraction_elimination(m, b):
    n = len(m)
    minors, adj = bareiss(m)
    leading = [fraction_det([row[:k] for row in m[:k]]) for k in range(n + 1)]
    if 0 in leading:
        leading = leading[: leading.index(0) + 1]
    assert minors == leading
    if adj is None:
        assert minors[-1] == 0
        return
    det = minors[-1]
    assert mat_mul(m, adj) == identity(n, det)
    assert mat_mul(adj, m) == identity(n, det)
    assert [Fraction(y, det) for y in mat_vec(adj, b[:n])] == gauss_jordan_solve(m, b[:n])


entries = st.one_of(st.integers(-50, 50), st.fractions(min_value=-9, max_value=9, max_denominator=6))
sizes = st.integers(0, 5)


@settings(max_examples=100)
@given(sizes.flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(entries, min_size=n, max_size=n),
)))
def test_products_match_the_genexpr_oracles(case):
    m, q, v = case
    for a, b in ((m, m), (m, q), (q, m), (q, q)):
        got = mat_mul(a, b)
        assert got == genexpr_mat_mul(a, b)
        assert isinstance(got, tuple) and all(isinstance(row, tuple) for row in got)
    for a in (m, q):
        got = mat_vec(a, v)
        assert got == genexpr_mat_vec(a, v)
        assert [type(x) for x in got] == [type(x) for x in genexpr_mat_vec(a, v)]
    assert all(type(x) is int for x in mat_vec(m, [int(x) for x in v]))
    assert all(type(x) is int for row in mat_mul(m, m) for x in row)


def test_bareiss_of_the_empty_matrix():
    assert bareiss([]) == ([1], ())


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_basis_changes_are_mutual_inverses(name):
    cfg = CONFIGURATIONS[name]
    to_std, to_curve = _curve_to_standard_matrix(cfg), _standard_to_curve_matrix(cfg)
    assert mat_mul(to_std, to_curve) == identity(5)
    assert mat_mul(to_curve, to_std) == identity(5)
    for j in range(5):
        unit = [int(i == j) for i in range(5)]
        assert gauss_jordan_solve(to_std, unit) == [row[j] for row in to_curve]


def oracle_pullback(rep, cfg):
    thetas = [t.cls for t in minus_two_curves(cfg)]
    coeffs = [Fraction(a) for a in rep.coeffs]
    gram = [[intersect(a, b) for b in thetas] for a in thetas]
    for x, theta in zip(gauss_jordan_solve(gram, [-intersect(rep, t) for t in thetas]), thetas):
        coeffs = [a + x * b for a, b in zip(coeffs, theta.coeffs)]
    return QDivisorClass(tuple(coeffs))


def oracle_is_combination(d, cfg):
    thetas = [t.cls for t in minus_two_curves(cfg)]
    gram = [[intersect(a, b) for b in thetas] for a in thetas]
    coeffs = gauss_jordan_solve(gram, [intersect(d, t) for t in thetas])
    if any(x < 0 or x.denominator != 1 for x in coeffs):
        return False
    combo = d
    for x, t in zip(coeffs, thetas):
        combo = combo - int(x) * t
    return combo.is_zero()


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_pullback_and_combination_test_match_the_oracle(name):
    cfg = CONFIGURATIONS[name]
    thetas = [t.cls for t in minus_two_curves(cfg)]
    rng = random.Random(name)
    hits = 0
    for _ in range(60):
        rep = DivisorClass(tuple(rng.randint(-20, 20) for _ in range(5)))
        assert mumford_pullback(SigmaClass(rep, cfg)) == oracle_pullback(rep, cfg)
        combo = DivisorClass((0, 0, 0, 0, 0))
        for t in thetas:
            combo = combo + rng.randint(-2, 3) * t
        for d in (rep, combo, combo + DivisorClass((0, 0, 0, 0, rng.randint(-1, 1)))):
            # A class of degree 0 is effective exactly when it is a
            # non-negative combination of the (-2)-curves.
            if intersect(d, MINUS_K) == 0:
                got = is_effective(d, cfg)
                assert got == oracle_is_combination(d, cfg), d
                hits += got
    assert hits > 0


# -- the preimage search against the brute-force labelled-graph sweep ----------

def canonical_edges(n, edges):
    """Edge set up to node relabelling (smallest lexicographic image): the
    oracle's isomorphism test, formerly `casework._canonical_edges`."""
    best = None
    for perm in itertools.permutations(range(n)):
        image = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in edges))
        if best is None or image < best:
            best = image
    return best if best is not None else ()


def negative_gram(n, edges):
    """-G for the (-2)-graph on nodes 0..n-1 with the given edges."""
    neg = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        neg[i][j] = neg[j][i] = -1
    return neg


@lru_cache(maxsize=None)
def bareiss_incidence_patterns(n):
    """The replaced pattern generator: one Bareiss elimination per labelled
    graph, in the order of its edge bits, kept when every leading minor of -G
    is positive, as (edges, adjugate, determinant)."""
    out = []
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = tuple(p for p, b in zip(pairs, bits) if b)
        minors, adj = bareiss(negative_gram(n, edges))
        if all(m > 0 for m in minors):
            out.append((edges, adj, minors[-1]))
    return tuple(out)


@lru_cache(maxsize=None)
def fraction_solutions(n, edges, pairing_bound):
    """Every pairing vector in box order whose Fraction solve of -G x = ks is
    all-positive, as (ks, x, x.ks).  x is combined from the Fraction solves
    for the unit vectors, the columns of the inverse of -G, scaled to integers
    over their common denominator."""
    neg = negative_gram(n, edges)
    columns = [gauss_jordan_solve(neg, [int(i == j) for i in range(n)]) for j in range(n)]
    den = math.lcm(*(x.denominator for column in columns for x in column))
    scaled = [[int(x * den) for x in column] for column in columns]
    solutions = []
    for ks in itertools.product(range(pairing_bound + 1), repeat=n):
        ys = [sum(k * column[i] for k, column in zip(ks, scaled)) for i in range(n)]
        if all(y > 0 for y in ys):
            solutions.append((ks, tuple(Fraction(y, den) for y in ys),
                              Fraction(sum(y * k for y, k in zip(ys, ks)), den)))
    return tuple(solutions)


@lru_cache(maxsize=None)
def oracle_solutions(n, pairing_bound):
    """The target-independent part of the oracle on n nodes: for each labelled
    graph whose Fraction definiteness test passes, its isomorphism class and
    its `fraction_solutions`.  Cached per (n, pairing_bound), apart from the
    package's own pattern cache."""
    graphs = []
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = tuple(p for p, b in zip(pairs, bits) if b)
        neg = negative_gram(n, edges)
        if any(fraction_det([row[:k] for row in neg[:k]]) <= 0 for k in range(1, n + 1)):
            continue
        graphs.append(((n, canonical_edges(n, edges)), fraction_solutions(n, edges, pairing_bound)))
    return tuple(graphs)


def first_feasible(solutions, target):
    """The first (ks, E^2, x) of the solutions with E^2 = target - x.ks an
    even integer, or None."""
    for ks, xs, pairing in solutions:
        e_sq = target - pairing
        if e_sq.denominator == 1 and e_sq % 2 == 0:
            return ks, e_sq, xs
    return None


def oracle_feasible_classes(chain_bound, target, pairing_bound):
    """Isomorphism classes (n, canonical edges) of the labelled graphs on at
    most `chain_bound` nodes with a feasible pairing vector."""
    return {
        key
        for n in range(chain_bound + 1)
        for key, solutions in oracle_solutions(n, pairing_bound)
        if first_feasible(solutions, target) is not None
    }


def check_against_the_oracle(chain_bound, target, pairing_bound):
    """One result per feasible isomorphism class, labelled as its reported
    edges, whose witness is the first feasible pairing vector in box order
    on those edges."""
    results = preimage_configuration_search(chain_bound, target, pairing_bound)
    classes = [(f.curve_count, canonical_edges(f.curve_count, f.edges)) for f in results]
    assert len(classes) == len(set(classes))
    assert set(classes) == oracle_feasible_classes(chain_bound, target, pairing_bound)
    assert results == sorted(results, key=lambda f: (f.curve_count, f.components))
    for f in results:
        n = f.curve_count
        assert f.components == component_labels(n, f.edges)
        assert (f.witness_pairings, f.witness_e_sq, f.witness_coefficients) == first_feasible(
            fraction_solutions(n, f.edges, pairing_bound), target
        )


@pytest.mark.parametrize("chain_bound, target, pairing_bound", [
    (0, 0, 1), (2, Fraction(-4, 3), 2), (3, -1, 1), (2, Fraction(8, 3), 2), (4, Fraction(16, 5), 2),
])
def test_preimage_witnesses_match_the_oracle(chain_bound, target, pairing_bound):
    check_against_the_oracle(chain_bound, Fraction(target), pairing_bound)


GRID_TARGETS = (
    Fraction(-4, 3), Fraction(-1), Fraction(0), Fraction(16, 5),
    Fraction(8, 3), Fraction(-2), Fraction(-1, 2), Fraction(3, 4),
)


@pytest.mark.parametrize("target", GRID_TARGETS, ids=str)
@pytest.mark.parametrize("pairing_bound", range(3))
@pytest.mark.parametrize("chain_bound", range(5))
def test_preimage_grid_matches_the_oracle(chain_bound, pairing_bound, target):
    """The feasible isomorphism classes equal those of the per-labelling
    sweep, and each witness fits the edges it is reported with."""
    check_against_the_oracle(chain_bound, target, pairing_bound)


# -- the pattern construction and the integer feasibility test -----------------

@pytest.mark.parametrize("n", range(6))
def test_ade_patterns_equal_one_bareiss_per_graph(n):
    """Each pattern is a definite labelled graph of the sweep, with that
    graph's adjugate and determinant."""
    sweep = {edges: (adj, det) for edges, adj, det in bareiss_incidence_patterns(n)}
    for _, edges, adj, det in _ade_patterns(n):
        assert sweep[edges] == (adj, det)


@pytest.mark.parametrize("n", range(6))
def test_labels_first_patterns_equal_the_relabelling_construction(n):
    """The patterns from the ADE classification are the definite labelled
    graphs up to isomorphism, each class once."""
    got = [canonical_edges(n, edges) for _, edges, _, _ in _ade_patterns(n)]
    assert len(got) == len(set(got))
    assert set(got) == {canonical_edges(n, edges) for edges, _, _ in bareiss_incidence_patterns(n)}


@pytest.mark.parametrize("target", GRID_TARGETS, ids=str)
@pytest.mark.parametrize("pairing_bound", range(3))
@pytest.mark.parametrize("n", range(5))
def test_integer_feasibility_test_matches_the_fraction_form(n, pairing_bound, target):
    """Every feasible pairing vector, not only the first: the integer remainder
    test against E^2 = target - ys.ks / det as a Fraction."""
    for _, _, adj, det in _ade_patterns(n):
        expected = []
        for ks in itertools.product(range(pairing_bound + 1), repeat=n):
            ys = mat_vec(adj, ks)
            if any(y <= 0 for y in ys):
                continue
            e_sq = target - Fraction(sum(y * k for y, k in zip(ys, ks)), det)
            if e_sq.denominator == 1 and e_sq % 2 == 0:
                expected.append((ks, ys, e_sq))
        assert list(_feasible_pairings(adj, det, target, pairing_bound)) == expected
