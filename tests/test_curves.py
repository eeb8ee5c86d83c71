import itertools

import pytest
from hypothesis import given, settings, strategies as st

from delpezzo.casework import _ade_patterns
from delpezzo.cohomology import h0_with_trace
from delpezzo.curves import (
    ALL_MINUS_ONE_CLASSES,
    CurveKind,
    component_labels,
    incidence_graph,
    minus_one_curves,
    minus_two_curves,
    negative_curves,
    ruling_classes,
    ruling_candidates,
)
from delpezzo.lattice import (
    CONFIGURATIONS,
    E,
    GENERAL,
    K,
    L,
    DivisorClass,
    from_curve_basis,
    get_configuration,
    intersect,
    to_curve_basis,
)

P = {name: get_configuration(name) for name in CONFIGURATIONS}


def classes(curve_tuple):
    return {c.cls for c in curve_tuple}


def test_general_has_no_minus_two_curves():
    assert minus_two_curves(GENERAL) == ()


def test_p1_minus_two_is_the_collinear_class():
    assert classes(minus_two_curves(P["P1"])) == {DivisorClass((1, -1, -1, -1, 0))}


def test_p6_minus_two_chain_is_a4():
    chain = [c.cls for c in minus_two_curves(P["P6"])]
    assert len(chain) == 4
    pairings = sorted(intersect(a, b) for a, b in itertools.combinations(chain, 2))
    assert pairings == [0, 0, 0, 1, 1, 1]
    degrees = [
        sum(1 for other in chain if other != c and intersect(c, other) == 1) for c in chain
    ]
    assert sorted(degrees) == [1, 1, 2, 2]  # a path, not a cycle or star


def test_p2_minus_two_curves_disjoint():
    a, b = [c.cls for c in minus_two_curves(P["P2"])]
    assert intersect(a, b) == 0


def test_general_ten_lines_three_regular():
    lines = [c.cls for c in minus_one_curves(GENERAL)]
    assert len(lines) == 10
    for c in lines:
        meets = sum(1 for other in lines if other != c and intersect(c, other) > 0)
        assert meets == 3


def test_p1_minus_one_curves():
    expected = {E[0], E[1], E[2], E[3]} | {L - E[i] - E[3] for i in range(3)}
    assert classes(minus_one_curves(P["P1"])) == expected


MINUS_ONE_COUNTS = {
    "GENERAL": 10,
    "P1": 7,
    "P2": 5,
    "P3": 3,
    "P4": 4,
    "P5": 2,
    "P6": 1,
}


@pytest.mark.parametrize("name, count", sorted(MINUS_ONE_COUNTS.items()))
def test_minus_one_counts(name, count):
    assert len(minus_one_curves(P[name])) == count


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_negative_curves_pair_nonnegatively(name):
    cfg = P[name]
    curves = [c.cls for c in negative_curves(cfg)]
    for a, b in itertools.combinations(curves, 2):
        assert intersect(a, b) >= 0


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_negative_curve_classes_span_the_lattice(name):
    curves = [c.cls for c in negative_curves(P[name])]
    vectors = {c.coeffs for c in curves}
    assert len(vectors) == len(curves)
    assert len(curves) >= 5


def is_irreducible(d: DivisorClass, cfg) -> bool:
    """Mori-cone test for a (-1)- or (-2)-class: pair >= 0 with every other
    irreducible negative curve of the configuration."""
    sq = intersect(d, d)
    k = intersect(d, K)
    if (sq, k) not in ((-1, -1), (-2, 0)):
        raise ValueError(f"{d} is not a (-1)- or (-2)-type class: (C^2, C.K) = {(sq, k)}")
    return all(
        intersect(d, c.cls) >= 0
        for c in negative_curves(cfg)
        if c.cls != d
    )


def lattice_roots() -> tuple[DivisorClass, ...]:
    """All 20 classes with C^2 = -2, C.K = 0 (the A4 root system in K-perp)."""
    roots = []
    for i, j in itertools.permutations(range(4), 2):
        roots.append(E[i] - E[j])
    for i, j, k in itertools.combinations(range(4), 3):
        base = L - E[i] - E[j] - E[k]
        roots.append(base)
        roots.append(-base)
    return tuple(roots)


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_root_sweep_confirms_minus_two_inventory(name):
    # Safety net: no (-2)-class beyond the declared inventory survives the
    # irreducibility filter.
    cfg = P[name]
    declared = classes(minus_two_curves(cfg))
    survivors = {root for root in lattice_roots() if is_irreducible(root, cfg)}
    assert survivors == declared


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_minus_one_sweep_matches_filter(name):
    cfg = P[name]
    declared = classes(minus_one_curves(cfg))
    survivors = {c for c in ALL_MINUS_ONE_CLASSES if is_irreducible(c, cfg)}
    assert survivors == declared


def test_is_irreducible_examples():
    assert is_irreducible(L - E[0] - E[1], GENERAL)
    assert not is_irreducible(L - E[0] - E[1], P["P1"])  # splits off the collinear class
    assert is_irreducible(E[2], P["P2"])


def test_is_irreducible_rejects_other_squares():
    with pytest.raises(ValueError):
        is_irreducible(L, GENERAL)
    with pytest.raises(ValueError):
        is_irreducible(2 * L, GENERAL)


def test_incidence_graph_diagonal_and_symmetry():
    for cfg in P.values():
        curves, matrix = incidence_graph(cfg)
        for i in range(len(curves)):
            assert matrix[i][i] in (-1, -2)
            for j in range(len(curves)):
                assert matrix[i][j] == matrix[j][i]


def test_ruling_candidates_are_the_five_conic_classes():
    assert {c.coeffs for c in ruling_candidates()} == {
        (1, -1, 0, 0, 0),
        (1, 0, -1, 0, 0),
        (1, 0, 0, -1, 0),
        (1, 0, 0, 0, -1),
        (2, -1, -1, -1, -1),
    }


def box_ruling_candidates():
    """The former scan: f = a*L - sum(bi*Ei) with a in {1, 2} and each bi in
    [-2, 2], kept when f^2 = 0 and -K.f = 2, in coefficient order."""
    found = []
    for a in (1, 2):
        for bs in itertools.product(range(-2, 3), repeat=4):
            if sum(bs) == 3 * a - 2 and sum(b * b for b in bs) == a * a:
                found.append(DivisorClass((a, *(-b for b in bs))))
    return tuple(sorted(found, key=lambda d: d.coeffs))


def test_ruling_candidates_equal_the_box_scan():
    assert ruling_candidates() == box_ruling_candidates()
    for f in ruling_candidates():
        assert intersect(f, f) == 0 and intersect(f, -K) == 2


def h0_ruling_classes(cfg, require_minus_two_orthogonal):
    """The former rule: h0 >= 2 with an empty fixed-part reduction."""
    thetas = [t.cls for t in minus_two_curves(cfg)]
    kept = []
    for f in ruling_candidates():
        trace = h0_with_trace(f, cfg)
        if trace.steps or trace.value < 2:
            continue
        if require_minus_two_orthogonal and any(intersect(f, t) != 0 for t in thetas):
            continue
        kept.append(f)
    return tuple(kept)


@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_ruling_classes_match_the_h0_rule(name, flag):
    cfg = CONFIGURATIONS[name]
    assert ruling_classes(cfg, flag) == h0_ruling_classes(cfg, flag)


def test_ruling_classes_general():
    assert len(ruling_classes(GENERAL, False)) == 5
    assert ruling_classes(GENERAL, True) == ruling_classes(GENERAL, False)


RULING_ANSWERS = {
    "P1": {(1, -1, 0, 0, 0), (1, 0, -1, 0, 0), (1, 0, 0, -1, 0)},
    "P2": {(1, -1, 0, 0, 0)},
    "P3": set(),
    "P4": {(1, -1, 0, 0, 0), (1, 0, -1, 0, 0)},
    "P5": {(1, -1, 0, 0, 0)},
    "P6": set(),
}


@pytest.mark.parametrize("name, expected", sorted(RULING_ANSWERS.items()))
def test_ruling_classification_with_orthogonality(name, expected):
    cfg = P[name]
    got = {to_curve_basis(f, cfg) for f in ruling_classes(cfg, True)}
    assert got == expected


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_ruling_invariants(name):
    cfg = P[name]
    rulings = ruling_classes(cfg, False)
    for f in rulings:
        assert intersect(K, f) == -2
        for g in rulings:
            assert intersect(f, g) in (0, 1, 2)


def test_negative_curve_kind_validation():
    with pytest.raises(ValueError):
        from delpezzo.curves import NegativeCurve

        NegativeCurve(L, CurveKind.MINUS_ONE)


def arm_walk_labels(n, edges):
    """The former `component_labels`, kept as an oracle: a chain of k curves
    is A_k; a branched component of k curves is D_k when the arms from its
    branch node have lengths (1, 1, k-3), and E_k when they have lengths
    (1, 2, k-4) with k <= 8; anything else raises ValueError."""
    adjacency = [set() for _ in range(n)]
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
        degrees = sorted(len(adjacency[i]) for i in component)
        # A connected graph on m nodes is a tree exactly when it has m - 1
        # edges; a Dynkin tree has at most one branch node, of degree 3.
        dynkin = sum(degrees) == 2 * len(component) - 2 and degrees[-1] <= 3 and degrees[-2:] != [3, 3]
        kind = "A"
        if dynkin and degrees[-1] == 3:
            branch = next(i for i in component if len(adjacency[i]) == 3)
            arms = []
            for node in adjacency[branch]:
                previous, length = branch, 1
                while len(adjacency[node]) == 2:
                    previous, node = node, min(adjacency[node] - {previous})
                    length += 1
                arms.append(length)
            a, b, c = sorted(arms)
            kind = "D" if b == 1 else "E"
            dynkin = a == 1 and (b == 1 or (b == 2 and c <= 4))
        if not dynkin:
            raise ValueError(f"not a Dynkin diagram: the component on nodes {sorted(component)} of {edges}")
        labels.append(f"{kind}{len(component)}")
    return tuple(sorted(labels))


def labels_or_error(labeller, n, edges):
    try:
        return labeller(n, edges)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("n, edges, expected", [
    (0, (), ()),
    (1, (), ("A1",)),
    (4, ((0, 1), (1, 2), (2, 3)), ("A4",)),
    (4, ((2, 0), (3, 1), (0, 1)), ("A4",)),
    (5, ((0, 1), (3, 4)), ("A1", "A2", "A2")),
    (4, ((0, 1), (0, 2), (0, 3)), ("D4",)),
    (6, ((0, 1), (1, 2), (1, 3), (3, 4)), ("A1", "D5")),
    (6, ((0, 1), (1, 2), (2, 3), (3, 4), (3, 5)), ("D6",)),
    (6, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)), ("E6",)),
    (6, ((0, 4), (0, 2), (2, 3), (0, 1), (4, 5)), ("E6",)),
    (7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)), ("E7",)),
    (10, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7), (8, 9)), ("A2", "E8")),
])
def test_component_labels(n, edges, expected):
    assert component_labels(n, edges) == expected


@pytest.mark.parametrize("n", range(9))
def test_component_labels_name_every_ade_pattern(n):
    patterns = _ade_patterns(n)
    assert patterns
    for labels, edges, _, _ in patterns:
        assert component_labels(n, edges) == arm_walk_labels(n, edges) == labels


@pytest.mark.parametrize("n, edges", [
    (4, ((0, 1), (1, 2), (2, 3), (3, 0))),  # 4-cycle (affine A3)
    (5, ((0, 1), (0, 2), (0, 3), (0, 4))),  # K_{1,4} (affine D4)
    (7, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6))),  # arms (2, 2, 2) (affine E6)
    (8, ((0, 1), (0, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7))),  # arms (1, 3, 3)
    (9, ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8))),  # arms (1, 2, 5)
    (6, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5))),  # two branch nodes (affine D5)
    (5, ((0, 1), (1, 2), (3, 4), (2, 0))),  # a triangle beside an A2
])
def test_component_labels_reject_non_dynkin_components(n, edges):
    with pytest.raises(ValueError, match="not a Dynkin diagram"):
        component_labels(n, edges)
    assert labels_or_error(component_labels, n, edges) == labels_or_error(arm_walk_labels, n, edges)


@st.composite
def small_graphs(draw):
    """A random forest on at most 9 nodes (node i > 0 joins an earlier node or
    starts a new tree) plus up to two random edges."""
    n = draw(st.integers(0, 9))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n) if draw(st.booleans())}
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs), max_size=2))
    return n, tuple(sorted(edges))


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_component_labels_agree_with_the_arm_walk(graph):
    """Both classifiers raise the same error or return the same labels."""
    n, edges = graph
    assert labels_or_error(component_labels, n, edges) == labels_or_error(arm_walk_labels, n, edges)
