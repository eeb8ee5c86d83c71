"""The fraction-free core against the Fraction elimination it replaced.

`gauss_jordan_solve` and `fraction_det` are the package's former
`_solve_exact` and `casework._det`, and `genexpr_mat_vec`/`genexpr_mat_mul`
the former generator-expression products, kept here as independent oracles.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from delpezzo.casework import (
    _canonical_edges,
    _definite_patterns,
    _distinct_patterns,
    _feasible_pairings,
    preimage_configuration_search,
)
from delpezzo.cohomology import is_effective
from delpezzo.contraction import SigmaClass, mumford_pullback
from delpezzo.curves import component_labels, minus_two_curves
from delpezzo.exact import bareiss, mat_mul, mat_vec
from delpezzo.lattice import (
    CONFIGURATIONS,
    MINUS_K,
    DivisorClass,
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
    result = rep.as_q()
    gram = [[intersect(a, b) for b in thetas] for a in thetas]
    for x, theta in zip(gauss_jordan_solve(gram, [-intersect(rep, t) for t in thetas]), thetas):
        result = result + x * theta
    return result


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


@lru_cache(maxsize=None)
def oracle_solutions(n, pairing_bound):
    """The target-independent part of `oracle_preimage_search` on n nodes: for
    each graph whose Fraction definiteness test passes, in enumeration order,
    its key and every (pairing vector, solution, E-pairing of the solution)
    with an all-positive solution.  Cached per (n, pairing_bound), apart from
    the package's own pattern cache."""
    graphs = []
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = tuple(p for p, b in zip(pairs, bits) if b)
        neg = [[2 if i == j else -int((min(i, j), max(i, j)) in edges) for j in range(n)] for i in range(n)]
        if any(fraction_det([row[:k] for row in neg[:k]]) <= 0 for k in range(1, n + 1)):
            continue
        key = (component_labels(n, edges), _canonical_edges(n, edges))
        solutions = []
        for ks in itertools.product(range(pairing_bound + 1), repeat=n):
            xs = gauss_jordan_solve(neg, ks)
            if any(x <= 0 for x in xs):
                continue
            solutions.append((ks, tuple(xs), sum((x * k for x, k in zip(xs, ks)), Fraction(0))))
        graphs.append((key, tuple(solutions)))
    return tuple(graphs)


def oracle_preimage_search(chain_bound, target, pairing_bound):
    """The replaced search: Fraction definiteness test and one Fraction solve
    per pairing vector.  Maps (labels, canonical edges) to the first witness."""
    found = {}
    for n in range(chain_bound + 1):
        for key, solutions in oracle_solutions(n, pairing_bound):
            for ks, xs, pairing in solutions:
                e_sq = target - pairing
                if e_sq.denominator == 1 and e_sq % 2 == 0:
                    found.setdefault(key, (ks, e_sq, xs))
    return found


def witnesses(chain_bound, target, pairing_bound):
    return {
        (f.components, f.edges): (f.witness_pairings, f.witness_e_sq, f.witness_coefficients)
        for f in preimage_configuration_search(chain_bound, target, pairing_bound)
    }


@pytest.mark.parametrize("chain_bound, target, pairing_bound", [
    (0, 0, 1), (2, Fraction(-4, 3), 2), (3, -1, 1), (2, Fraction(8, 3), 2), (4, Fraction(16, 5), 2),
])
def test_preimage_witnesses_match_the_oracle(chain_bound, target, pairing_bound):
    assert witnesses(chain_bound, target, pairing_bound) == oracle_preimage_search(
        chain_bound, Fraction(target), pairing_bound
    )


GRID_TARGETS = (
    Fraction(-4, 3), Fraction(-1), Fraction(0), Fraction(16, 5),
    Fraction(8, 3), Fraction(-2), Fraction(-1, 2), Fraction(3, 4),
)


@pytest.mark.parametrize("target", GRID_TARGETS, ids=str)
@pytest.mark.parametrize("pairing_bound", range(3))
@pytest.mark.parametrize("chain_bound", range(5))
def test_preimage_grid_matches_the_oracle(chain_bound, pairing_bound, target):
    """Every relabelling of a tried graph is skipped; the witnesses, kept from
    the first labelling, must still equal the per-labelling oracle's."""
    assert witnesses(chain_bound, target, pairing_bound) == oracle_preimage_search(
        chain_bound, target, pairing_bound
    )


# -- the pattern construction and the integer feasibility test -----------------

def bareiss_incidence_patterns(n):
    """The replaced pattern generator: one Bareiss elimination per labelled
    graph, in the order of its edge bits, kept when every leading minor of -G
    is positive."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = tuple(p for p, b in zip(pairs, bits) if b)
        neg = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in edges:
            neg[i][j] = neg[j][i] = -1
        minors, adj = bareiss(neg)
        if all(m > 0 for m in minors):
            yield edges, adj, minors[-1]


def relabelling_distinct_patterns(n):
    """The replaced `_distinct_patterns`: (labels, canonical edges) computed
    for every definite labelled graph, the first graph of each key kept."""
    out = {}
    for edges, adj, det in bareiss_incidence_patterns(n):
        key = (component_labels(n, edges), _canonical_edges(n, edges))
        out.setdefault(key, (key, adj, det))
    return tuple(out.values())


@pytest.mark.parametrize("n", range(6))
def test_bordered_patterns_equal_one_bareiss_per_graph(n):
    expected = {edges: (adj, det) for edges, adj, det in bareiss_incidence_patterns(n)}
    assert list(_definite_patterns(n).items()) == list(expected.items())


@pytest.mark.parametrize("n", range(5))
def test_labels_first_patterns_equal_the_relabelling_construction(n):
    assert _distinct_patterns(n) == relabelling_distinct_patterns(n)


@pytest.mark.parametrize("target", GRID_TARGETS, ids=str)
@pytest.mark.parametrize("pairing_bound", range(3))
@pytest.mark.parametrize("n", range(5))
def test_integer_feasibility_test_matches_the_fraction_form(n, pairing_bound, target):
    """Every feasible pairing vector, not only the first: the integer remainder
    test against E^2 = target - ys.ks / det as a Fraction."""
    for _, adj, det in _distinct_patterns(n):
        expected = []
        for ks in itertools.product(range(pairing_bound + 1), repeat=n):
            ys = mat_vec(adj, ks)
            if any(y <= 0 for y in ys):
                continue
            e_sq = target - Fraction(sum(y * k for y, k in zip(ys, ks)), det)
            if e_sq.denominator == 1 and e_sq % 2 == 0:
                expected.append((ks, ys, e_sq))
        assert list(_feasible_pairings(adj, det, target, pairing_bound)) == expected
