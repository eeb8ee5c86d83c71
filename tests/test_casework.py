import itertools
from fractions import Fraction

import pytest

from delpezzo.casework import (
    CONSTRAINT_SYSTEMS,
    SolutionRow,
    decompose_class,
    diff_tables,
    enumerate_table,
    load_printed_table,
    preimage_configuration_search,
)
from delpezzo.cohomology import h0
from delpezzo.curves import minus_one_curves, negative_curve_classes
from delpezzo.lattice import (
    E,
    GENERAL,
    L,
    MINUS_K,
    DivisorClass,
    ZERO,
    intersect,
)
from delpezzo.verify import _anticanonical_component_candidates


# -- independent row re-validation (double-entry bookkeeping) -----------------

def revalidate(case: str, row: SolutionRow) -> bool:
    """Constraint check written independently of the enumerator's filters."""
    z = row.z_coeffs
    l_sq, l_dot_e, e_sq, e_dot_z = row.l_sq, row.l_dot_e, row.e_sq, row.e_dot_z
    if l_sq not in (0, 2) or e_sq not in (-2, -4, -6) or l_dot_e < 0:
        return False
    if any(c < 1 for c in z):
        return False
    if e_dot_z != 4 - e_sq - 2 * l_dot_e or e_dot_z <= 0:
        return False
    l_dot_z = 8 - 2 * l_sq - l_dot_e
    if case == "p4" and l_dot_z <= 0:
        return False
    if case != "p4" and l_dot_z < 0:
        return False
    quad = sum(c * c for c in z) - sum(z[i] * z[i + 1] for i in range(len(z) - 1))
    if Fraction(quad) != Fraction(10) - 2 * l_sq - 2 * l_dot_e - Fraction(e_sq, 2):
        return False
    slack = [2 * z[i] - (z[i - 1] if i else 0) - (z[i + 1] if i + 1 < len(z) else 0)
             for i in range(len(z))]
    if any(s < 0 for s in slack):
        return False
    if case == "p4":
        return z[1] <= z[0] <= 2 * z[1] and min(z) <= 8
    if case == "p5":
        return z[0] >= z[2] and min(z) <= 10
    return z[0] >= z[3]


@pytest.mark.parametrize("case", ["p4", "p5", "p6"])
def test_every_emitted_row_revalidates(case):
    for row in enumerate_table(case):
        assert revalidate(case, row), row


@pytest.mark.parametrize("case, count", [("p4", 12), ("p5", 28), ("p6", 45)])
def test_enumeration_counts(case, count):
    assert len(enumerate_table(case)) == count


def box_table(case: str, bound: int) -> tuple[SolutionRow, ...]:
    """The unpruned scan over [1, bound]^n, as before the ellipsoid caps:
    an oracle for the capped enumeration."""
    system = CONSTRAINT_SYSTEMS[case]
    by_quadratic = {}
    for z in itertools.product(range(1, bound + 1), repeat=system.chain_length):
        if system.tie_break_holds(z) and system.chain_inequalities_hold(z):
            by_quadratic.setdefault(system.chain_quadratic(z), []).append(z)
    rows = []
    for l_sq in system.L_SQ_RANGE:
        for e_sq in system.E_SQ_RANGE:
            for l_dot_e in range(0, 9):
                rhs = Fraction(system.doubled_quadratic_rhs(l_sq, l_dot_e, e_sq), 2)
                for z in by_quadratic.get(rhs, ()):
                    row = SolutionRow(z, l_sq, l_dot_e, e_sq, system.e_dot_z(l_dot_e, e_sq))
                    if not system.violations(row):
                        rows.append(row)
    return tuple(sorted(rows))


@pytest.mark.parametrize("case", ["p4", "p5", "p6"])
def test_capped_enumeration_equals_the_unpruned_box(case):
    rows = enumerate_table(case)
    assert box_table(case, 16) == rows
    assert box_table(case, 32) == rows


@pytest.mark.parametrize("case, caps", [("p4", (4, 4)), ("p5", (4, 5, 4)), ("p6", (4, 5, 5, 4))])
def test_coefficient_caps(case, caps):
    system = CONSTRAINT_SYSTEMS[case]
    assert system.coefficient_caps() == caps
    for row in enumerate_table(case):
        assert all(c <= cap for c, cap in zip(row.z_coeffs, caps))


def test_rows_are_sorted_and_unique():
    for case in ("p4", "p5", "p6"):
        rows = enumerate_table(case)
        assert list(rows) == sorted(set(rows))


def test_p4_known_rows_present():
    rows = {r.as_tuple() for r in enumerate_table("p4")}
    assert (2, 1, 2, 2, -2, 2) in rows
    assert (4, 3, 0, 0, -6, 10) in rows


def test_p4_diff_is_clean():
    diff = diff_tables("p4")
    assert diff.clean
    assert len(diff.matched) == 12


def test_p5_known_rows_present():
    rows = {r.as_tuple() for r in enumerate_table("p5")}
    assert (1, 1, 1, 2, 4, -6, 2) in rows
    assert (4, 4, 3, 0, 0, -6, 10) in rows


def test_p5_flagged_row_not_emitted():
    rows = {r.unknowns for r in enumerate_table("p5")}
    assert (3, 2, 1, 3, 0, -4) not in rows


def test_p5_diff_flags_the_range_violation():
    diff = diff_tables("p5")
    assert len(diff.published_only) == 1
    flagged = diff.published_only[0]
    assert flagged.row.unknowns == (3, 2, 1, 3, 0, -4)
    assert flagged.violated == ("L^2 in {0, 2}",)


def test_p5_diff_corrects_the_derived_column():
    diff = diff_tables("p5")
    assert len(diff.corrected) == 1
    item = diff.corrected[0]
    assert item.printed.as_tuple() == (3, 4, 3, 0, 1, -4, 2)
    assert item.enumerated.as_tuple() == (3, 4, 3, 0, 1, -4, 6)


def test_p5_all_other_printed_rows_match():
    diff = diff_tables("p5")
    assert len(diff.matched) == 18
    assert len(diff.matched) + len(diff.corrected) + len(diff.published_only) == 20


def test_p5_enumerator_only_rows_revalidate():
    diff = diff_tables("p5")
    assert len(diff.enumerator_only) == 9
    for row in diff.enumerator_only:
        assert revalidate("p5", row)


def test_p6_every_printed_row_matches():
    diff = diff_tables("p6")
    assert len(diff.matched) == 43
    assert not diff.published_only
    assert not diff.corrected
    assert len(diff.enumerator_only) == 2
    for row in diff.enumerator_only:
        assert revalidate("p6", row)


def test_printed_tables_load_with_expected_sizes():
    assert len(load_printed_table("p4")) == 12
    assert len(load_printed_table("p5")) == 20
    assert len(load_printed_table("p6")) == 43


def test_diff_summary_names_constraints():
    text = "\n".join(diff_tables("p5").summary_lines())
    assert "L^2 in {0, 2}" in text
    assert "derived-column mismatch" in text


# -- preimage feasibility ------------------------------------------------------

def components(results):
    return sorted(f.components for f in results)


def test_preimage_two_curves_must_meet():
    results = preimage_configuration_search(2, Fraction(-4, 3), 2)
    assert components(results) == [("A2",)]


def test_preimage_three_curves_two_families():
    results = preimage_configuration_search(3, -1, 1)
    assert components(results) == [("A1", "A1"), ("A3",)]


def test_preimage_four_chain_for_fifth_denominators():
    results = preimage_configuration_search(4, Fraction(16, 5), 2)
    assert components(results) == [("A4",)]


def test_preimage_two_chain_for_third_denominators():
    results = preimage_configuration_search(2, Fraction(8, 3), 2)
    assert components(results) == [("A2",)]


def test_preimage_six_curves_tell_d6_from_e6():
    six = [("A6",), ("D6",), ("E6",)]
    assert [c for c in components(preimage_configuration_search(6, -2, 1)) if c in six] == six


def test_preimage_trivial_target():
    results = preimage_configuration_search(0, 0, 1)
    assert components(results) == [()]


def test_preimage_witnesses_are_orthogonal_solutions():
    """Each witness solves -G x = ks on the edges it is reported with."""
    for chain_bound, target, pairing_bound in [(3, -1, 1), (4, -2, 1), (4, Fraction(16, 5), 2)]:
        for f in preimage_configuration_search(chain_bound, target, pairing_bound):
            xs, ks = f.witness_coefficients, f.witness_pairings
            assert f.witness_e_sq + sum(x * k for x, k in zip(xs, ks)) == target
            assert all(x > 0 for x in xs)
            for i in range(f.curve_count):
                neighbours = [b for a, b in f.edges if a == i] + [a for a, b in f.edges if b == i]
                assert 2 * xs[i] - sum(xs[j] for j in neighbours) == ks[i], (f, i)


def test_preimage_rejects_positive_integer_target():
    with pytest.raises(ValueError):
        preimage_configuration_search(2, 2, 1)


# -- decompositions -------------------------------------------------------------

def component_candidates():
    """The coefficient box `verify` used to pick the non-line parts of -K
    from: effective classes a*l - sum(bi*ei) with a in {1, 2} and
    -1 <= bi <= a that pair >= 0 with every negative curve and are not lines.
    It is the oracle of `verify._anticanonical_component_candidates`."""
    walls = negative_curve_classes(GENERAL)
    lines = {c.cls for c in minus_one_curves(GENERAL)}
    parts = []
    for a in range(1, 3):
        for bs in itertools.product(range(-1, a + 1), repeat=4):
            d = DivisorClass((a, -bs[0], -bs[1], -bs[2], -bs[3]))
            if d in lines:
                continue
            if any(intersect(d, w) < 0 for w in walls):
                continue
            if h0(d, GENERAL) >= 1:
                parts.append(d)
    return parts


def test_anticanonical_two_part_decompositions():
    splittings = decompose_class(MINUS_K, component_candidates(), 2, GENERAL)
    shapes = {tuple(sorted(p.coeffs for p in s)) for s in splittings}
    conic = (2, -1, -1, -1, -1)
    expected = {tuple(sorted([(1, 0, 0, 0, 0), conic]))}
    for i in range(4):
        line = tuple(1 if j == 0 else (-1 if j == i + 1 else 0) for j in range(5))
        rest = tuple(2 if j == 0 else (0 if j == i + 1 else -1) for j in range(5))
        expected.add(tuple(sorted([line, rest])))
    assert shapes == expected
    assert len(splittings) == 5


def test_the_conic_pool_is_the_box_pool_of_degree_two_or_three():
    box = component_candidates()
    pool = _anticanonical_component_candidates()
    assert len(box) == 25
    assert len(pool) == len(set(pool)) == 10
    assert set(pool) == {d for d in box if intersect(d, MINUS_K) in (2, 3)}


def test_the_conic_pool_gives_the_box_pool_splittings():
    box = decompose_class(MINUS_K, component_candidates(), 2, GENERAL)
    assert decompose_class(MINUS_K, _anticanonical_component_candidates(), 2, GENERAL) == box
    assert len(box) == 5


def test_pencil_decomposes_into_three_line_pairs():
    lines = [c.cls for c in minus_one_curves(GENERAL)]
    splittings = decompose_class(L - E[3], lines, 2, GENERAL)
    got = {tuple(sorted(x.coeffs for x in s)) for s in splittings}
    expected = {
        tuple(sorted([E[i].coeffs, (L - E[i] - E[3]).coeffs])) for i in range(3)
    }
    assert got == expected


def test_zero_target_gives_the_empty_multiset():
    lines = [c.cls for c in minus_one_curves(GENERAL)]
    assert decompose_class(ZERO, lines, 2, GENERAL) == [()]


def test_decomposition_order_independent_and_deduplicated():
    lines = [c.cls for c in minus_one_curves(GENERAL)]
    reversed_parts = list(reversed(lines)) + lines  # duplicates on purpose
    a = decompose_class(L - E[3], lines, 2, GENERAL)
    b = decompose_class(L - E[3], reversed_parts, 2, GENERAL)
    assert a == b


def test_decompose_rejects_non_effective_parts():
    with pytest.raises(ValueError):
        decompose_class(MINUS_K, [DivisorClass((1, -1, -1, -1, 0))], 2, GENERAL)


def test_constraint_systems_registry():
    assert CONSTRAINT_SYSTEMS["p4"].chain_length == 2
    assert CONSTRAINT_SYSTEMS["p5"].chain_length == 3
    assert CONSTRAINT_SYSTEMS["p6"].chain_length == 4
