import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from delpezzo import symmetry
from delpezzo.covers import BidoubleData
from delpezzo.curves import ALL_MINUS_ONE_CLASSES
from delpezzo.exact import mat_mul
from delpezzo.lattice import (
    E,
    GENERAL,
    K,
    L,
    ZERO,
    DivisorClass,
    QDivisorClass,
    get_configuration,
    intersect,
)
from delpezzo.symmetry import (
    IDENTITY,
    LineTransitivityReport,
    PAIR_LINES,
    LatticeAutomorphism,
    cremona_automorphism,
    generate_group,
    line_action,
    line_orbits,
    line_transitivity_report,
    perm_automorphism,
    same_family,
    transport_cover_data,
)


def columns_to_matrix(images) -> tuple:
    """The matrix whose columns are the images of L, E1..E4."""
    return tuple(tuple(images[j].coeffs[i] for j in range(5)) for i in range(5))


def image_perm_automorphism(s) -> LatticeAutomorphism:
    """Ei -> E_{s(i)}, L fixed, from the images of the basis classes, as
    before the S5 construction."""
    images = [L] + [E[s[i] - 1] for i in range(4)]
    return LatticeAutomorphism(columns_to_matrix(images), name="perm:" + "".join(map(str, s)))


def image_cremona_automorphism(base) -> LatticeAutomorphism:
    """L -> 2L - sum of the base, Ei -> L - Ej - Ek in the base, from the
    images of the basis classes, as before the S5 construction."""
    images = [2 * L - sum((E[i - 1] for i in base), ZERO)]
    for i in (1, 2, 3, 4):
        if i in base:
            j, k = sorted(set(base) - {i})
            images.append(L - E[j - 1] - E[k - 1])
        else:
            images.append(E[i - 1])
    return LatticeAutomorphism(columns_to_matrix(images), name="cremona:" + "".join(map(str, sorted(base))))


def image_s5_automorphism(s) -> LatticeAutomorphism:
    """The element of the permutation s of {1..5} from DivisorClass sums of
    the pair lines: Ei = {i,5} goes to {s(i),s(5)}, and L = E1 + E2 +
    (L - E1 - E2) with L - E1 - E2 = {3,4}."""
    def line(a, b):
        return PAIR_LINES[frozenset((s[a - 1], s[b - 1]))]

    images = [line(1, 5) + line(2, 5) + line(3, 4)] + [line(i, 5) for i in (1, 2, 3, 4)]
    return LatticeAutomorphism(columns_to_matrix(images), name="id" if s == (1, 2, 3, 4, 5) else "")


def test_named_automorphisms_match_the_column_image_construction():
    for p in itertools.permutations((1, 2, 3, 4)):
        assert perm_automorphism(p) == image_perm_automorphism(p)
    for base in itertools.combinations((1, 2, 3, 4), 3):
        assert cremona_automorphism(base) == image_cremona_automorphism(base)
    assert IDENTITY == image_s5_automorphism((1, 2, 3, 4, 5))
    assert IDENTITY.matrix == columns_to_matrix([L, *E])


@pytest.mark.parametrize("s", [(1, 2, 3), (1, 1, 2, 3), (1, 2, 3, 5), (0, 1, 2, 3, 4),
                               {1: 2, 2: 1, 3: 3, 4: 4}, (True, 2, 4, 3), (1.0, 2, 4, 3)])
def test_perm_automorphism_takes_only_a_one_line_permutation(s):
    with pytest.raises(ValueError) as raised:
        perm_automorphism(s)
    assert str(raised.value) == f"not a permutation of 1..4: {s}"


def test_every_group_element_matches_the_column_image_construction():
    expected = tuple(image_s5_automorphism(s) for s in itertools.permutations(range(1, 6)))
    assert generate_group() == expected
    assert generate_group()[0] is IDENTITY


def test_a_corrupted_pair_line_fails_the_group_check(monkeypatch):
    from delpezzo.verify import run_verification

    try:
        with monkeypatch.context() as patch:
            patch.setitem(symmetry._PAIR_COEFFS, (1, 5), (0, 0, 1, 0, 0))
            generate_group.cache_clear()
            _, lines = run_verification()
        [line] = [x for x in lines if "symmetry: group order and invariance" in x]
        assert line.startswith("[FAIL] symmetry: group order and invariance -- raised ValueError")
    finally:
        generate_group.cache_clear()
    ok, lines = run_verification()
    assert ok and "[PASS] symmetry: group order and invariance" in lines


def closure_group() -> set:
    """Breadth-first closure of the permutation and quadratic generators:
    the group as generated before the S5 model, kept as an oracle."""
    generators = [perm_automorphism(p) for p in itertools.permutations((1, 2, 3, 4))]
    generators += [cremona_automorphism(b) for b in itertools.combinations((1, 2, 3, 4), 3)]
    seen = {IDENTITY.matrix}
    frontier = [IDENTITY]
    while frontier:
        new_frontier = []
        for g in frontier:
            for gen in generators:
                h = gen.compose(g)
                if h.matrix not in seen:
                    assert len(seen) < 1000, "group closure exceeded the cap"
                    seen.add(h.matrix)
                    new_frontier.append(h)
        frontier = new_frontier
    return seen


def matrix_line_orbits(group):
    """Line orbits by applying every matrix, as before the index-level action."""
    remaining = set(ALL_MINUS_ONE_CLASSES)
    orbits = []
    while remaining:
        seed = remaining.pop()
        orbit = {g.apply(seed) for g in group}
        remaining -= orbit
        orbits.append(orbit)
    return orbits


def matrix_transitivity_report(group):
    """The three transitivity facts by applying every matrix, as before the
    index-level action."""
    lines = ALL_MINUS_ONE_CLASSES
    transitive = len(matrix_line_orbits(group)) == 1
    stab_ok = True
    for line in lines:
        stabilizer = [g for g in group if g.apply(line) == line]
        disjoint = [c for c in lines if c != line and intersect(c, line) == 0]
        if {g.apply(disjoint[0]) for g in stabilizer} != set(disjoint):
            stab_ok = False
            break
    pairs = [(a, b) for a in lines for b in lines if a != b and intersect(a, b) == 0]
    a, b = pairs[0]
    pairs_ok = {(g.apply(a), g.apply(b)) for g in group} == set(pairs)
    return LineTransitivityReport(transitive, stab_ok, pairs_ok)


def test_line_action_is_the_matrix_action_on_each_line():
    group = generate_group()
    action = line_action(group)
    assert len(action) == len(group)
    for g, perm in zip(group, action):
        assert tuple(ALL_MINUS_ONE_CLASSES[i] for i in perm) == tuple(g.apply(c) for c in ALL_MINUS_ONE_CLASSES)


def test_line_action_agrees_with_the_closure_group():
    closure = [LatticeAutomorphism(m) for m in sorted(closure_group())]
    action = line_action(generate_group())
    assert set(line_action(tuple(closure))) == set(action)
    assert len(set(action)) == 120
    assert all(sorted(p) == list(range(10)) for p in action)


def test_line_action_rejects_a_non_line_image():
    # Every isometry fixing K maps lines to lines, so only a stand-in for an
    # element can produce a non-line image.  `line_action` reads the images
    # off the matrix columns, so the stand-in carries the matrix 2I.
    class Doubling:
        matrix = tuple(tuple(2 * (i == j) for j in range(5)) for i in range(5))

        def apply(self, d):
            return 2 * d

    with pytest.raises(KeyError):
        line_action((IDENTITY, Doubling()))


def test_index_level_orbits_and_report_match_the_matrix_oracles():
    group = generate_group()
    assert {frozenset(o) for o in line_orbits(group)} == {frozenset(o) for o in matrix_line_orbits(group)}
    assert line_transitivity_report() == matrix_transitivity_report(group)
    assert line_transitivity_report().all_hold()
    # A subgroup that fixes L (the 24 permutations of the points) is not
    # transitive: both versions agree on the orbits {Ei} and {L-Ei-Ej}.
    points = tuple(perm_automorphism(p) for p in itertools.permutations((1, 2, 3, 4)))
    assert sorted(len(o) for o in line_orbits(points)) == [4, 6]
    assert {frozenset(o) for o in line_orbits(points)} == {frozenset(o) for o in matrix_line_orbits(points)}


def test_s5_model_equals_the_generator_closure():
    group = generate_group()
    assert len({g.matrix for g in group}) == len(group)
    assert {g.matrix for g in group} == closure_group()


def test_pair_labels_give_the_petersen_incidence():
    assert set(PAIR_LINES.values()) == set(ALL_MINUS_ONE_CLASSES)
    for p, a in PAIR_LINES.items():
        for q, b in PAIR_LINES.items():
            if p != q:
                assert intersect(a, b) == (1 if not p & q else 0), (p, q)


def test_identity_in_group():
    group = generate_group()
    assert IDENTITY in group


def test_group_order_120():
    assert len(generate_group()) == 120


def test_every_element_preserves_gram_and_k():
    for g in generate_group():
        assert g.preserves_gram()
        assert g.apply(K) == K


def test_every_element_permutes_the_ten_lines():
    lines = set(ALL_MINUS_ONE_CLASSES)
    for g in generate_group():
        assert {g.apply(c) for c in lines} == lines


def test_single_orbit_of_size_ten():
    assert sorted(len(o) for o in line_orbits()) == [10]


def test_perm_swap_images():
    eta = perm_automorphism((1, 2, 4, 3))
    assert eta.apply(E[2]) == E[3]
    assert eta.apply(E[3]) == E[2]
    assert eta.apply(L) == L
    assert eta.apply(-K) == -K


def test_perm_is_a_homomorphism():
    rng = random.Random(5)
    perms = list(itertools.permutations((1, 2, 3, 4)))
    for _ in range(25):
        s, t = rng.choice(perms), rng.choice(perms)
        st_perm = tuple(s[t[i] - 1] for i in range(4))  # s after t
        lhs = perm_automorphism(s).compose(perm_automorphism(t))
        assert lhs.matrix == perm_automorphism(st_perm).matrix


def test_perm_rejects_non_permutations():
    with pytest.raises(ValueError):
        perm_automorphism((1, 1, 3, 4))


def test_cremona_images():
    tau = cremona_automorphism({1, 2, 3})
    assert tau.apply(L) == DivisorClass((2, -1, -1, -1, 0))
    assert tau.apply(E[0]) == L - E[1] - E[2]
    assert tau.apply(E[3]) == E[3]
    assert tau.apply(DivisorClass((2, -1, -1, -1, -1))) == DivisorClass((1, 0, 0, 0, -1))


def test_cremona_is_an_involution():
    for base in itertools.combinations((1, 2, 3, 4), 3):
        tau = cremona_automorphism(base)
        assert tau.compose(tau).matrix == IDENTITY.matrix


def test_cremona_conjugation_by_permutation():
    # The involution based away from point i is the (base {1,2,3}) involution
    # conjugated by any permutation moving 4 to i.
    tau = cremona_automorphism({1, 2, 3})
    s = perm_automorphism((4, 2, 3, 1))
    conj = s.compose(tau).compose(perm_automorphism((4, 2, 3, 1)))
    assert conj.matrix == cremona_automorphism({2, 3, 4}).matrix


def test_cremona_rejects_bad_base():
    with pytest.raises(ValueError):
        cremona_automorphism({1, 2})
    with pytest.raises(ValueError):
        cremona_automorphism({1, 2, 5})
    for base in ({True, 2, 3}, {1.0, 2, 3}):  # equal to 1, but not a point
        with pytest.raises(ValueError):
            cremona_automorphism(base)


def test_gram_violating_matrix_rejected():
    bad = tuple(tuple(int(i == j) * 2 for j in range(5)) for i in range(5))
    with pytest.raises(ValueError):
        LatticeAutomorphism(bad)


def test_non_integer_or_misshapen_matrix_rejected():
    eye = IDENTITY.matrix
    with pytest.raises(ValueError):
        LatticeAutomorphism(((Fraction(1), 0, 0, 0, 0),) + eye[1:])
    with pytest.raises(ValueError):
        LatticeAutomorphism(((True, 0, 0, 0, 0),) + eye[1:])
    with pytest.raises(ValueError):
        LatticeAutomorphism(eye[:4])


def product_preserves_gram(matrix):
    """M^T G M == G with two matrix products, as before the pairing check."""
    gram = tuple(tuple((1 if i == 0 else -1) * int(i == j) for j in range(5)) for i in range(5))
    return mat_mul(mat_mul(tuple(zip(*matrix)), gram), matrix) == gram


def test_pairing_gram_check_matches_the_product_oracle():
    rng = random.Random(3)
    matrices = [g.matrix for g in generate_group()]
    matrices += [cremona_automorphism(b).matrix for b in itertools.combinations((1, 2, 3, 4), 3)]
    for _ in range(300):
        m = [list(rng.choice(matrices)[i]) for i in range(5)]
        if rng.random() < 0.7:
            m[rng.randrange(5)][rng.randrange(5)] += rng.choice((-1, 1))
        matrices.append(tuple(map(tuple, m)))
    results = [
        LatticeAutomorphism.preserves_gram(SimpleNamespace(matrix=m)) for m in matrices
    ]
    assert results == [product_preserves_gram(m) for m in matrices]
    assert True in results and False in results


def test_apply_checks_rational_inputs():
    eta = perm_automorphism((2, 1, 3, 4))
    image = eta.apply(QDivisorClass((Fraction(2), Fraction(1), Fraction(0), Fraction(0), Fraction(0))))
    assert image == DivisorClass((2, 0, 1, 0, 0))
    assert all(type(c) is int for c in image.coeffs)
    with pytest.raises(ValueError):
        eta.apply(QDivisorClass((Fraction(1, 2), 0, 0, 0, 0)))
    assert all(type(c) is int for c in eta.apply(DivisorClass((3, -1, 2, 0, 5))).coeffs)


def test_transitivity_report_all_true():
    report = line_transitivity_report()
    assert report.transitive_on_lines
    assert report.stabilizer_transitive_on_disjoint
    assert report.transitive_on_disjoint_pairs
    assert report.all_hold()


# -- cover-data transport ----------------------------------------------------

def _burniat_data() -> BidoubleData:
    e1, e2, e3, e4 = E
    return BidoubleData(
        d1=(e3, L - e1 - e2, L - e1 - e4, L - e1),
        d2=(e1, L - e2 - e3, L - e2 - e4, L - e2),
        d3=(e2, L - e1 - e3, L - e3 - e4, L - e3),
        cfg=GENERAL,
    )


def _conic_variant_data() -> BidoubleData:
    e1, e2, e3, e4 = E
    return BidoubleData(
        d1=(L - e1, e2, e3, e4),
        d2=(e1, L - e2 - e3, L - e2 - e4, L - e2),
        d3=(L - e1 - e3, L - e1 - e4, L - e3 - e4, 2 * L - e1 - e2 - e3 - e4),
        cfg=GENERAL,
    )


def test_identity_transport_is_trivial():
    data = _burniat_data()
    assert transport_cover_data(data, IDENTITY) == data


def test_transport_by_involution_then_swap_recovers_the_other_family():
    data = _conic_variant_data()
    tau = cremona_automorphism({1, 2, 3})
    eta = perm_automorphism((1, 2, 4, 3))

    step1 = transport_cover_data(data, tau)
    assert tuple(c.coeffs for c in step1.branch_classes) == (
        (3, -3, -1, -1, 1),
        (3, 1, -3, -1, -1),
        (3, -1, 1, -1, -3),
    )

    step2 = transport_cover_data(step1, eta)
    assert tuple(c.coeffs for c in step2.branch_classes) == (
        (3, -3, -1, 1, -1),
        (3, 1, -3, -1, -1),
        (3, -1, 1, -3, -1),
    )
    assert same_family(step2, _burniat_data())


def test_families_differ_before_transport():
    assert not same_family(_conic_variant_data(), _burniat_data())


def test_transport_preserves_component_intersections():
    data = _conic_variant_data()
    rng = random.Random(11)
    group = generate_group()
    flat = [c for part in (data.d1, data.d2, data.d3) for c in part]
    for _ in range(20):
        g = rng.choice(group)
        moved = transport_cover_data(data, g)
        flat_moved = [c for part in (moved.d1, moved.d2, moved.d3) for c in part]
        for (a, b), (ma, mb) in zip(
            itertools.combinations(flat, 2), itertools.combinations(flat_moved, 2)
        ):
            assert intersect(a, b) == intersect(ma, mb)


def test_transport_requires_general_configuration():
    data = BidoubleData(d1=(), d2=(), d3=(), cfg=get_configuration("P1"))
    with pytest.raises(ValueError):
        transport_cover_data(data, IDENTITY)
