from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from delpezzo.covers import (
    BidoubleData,
    DoubleCoverScenario,
    albanese_gate,
    bidouble_invariants,
    double_cover_invariants,
    load_scenario,
    ramification_check,
    surface_numerology,
)
from delpezzo.lattice import E, GENERAL, K, L, MINUS_K, DivisorClass, intersect


def scenario_path(name):
    return resources.files("delpezzo.data").joinpath(f"scenarios/{name}")


def test_disjoint_minus4_pair_scenario():
    [scenario] = load_scenario(scenario_path("cover_disjoint_minus4_pair.json"))
    inv = double_cover_invariants(scenario)
    assert (inv.chi, inv.k_sq, inv.pg_lower) == (2, 14, 3)
    assert inv.q_lower == 2
    assert albanese_gate(inv.k_sq, inv.q_lower) is False


def test_fiber_plus_minus4_scenario():
    [scenario] = load_scenario(scenario_path("cover_fiber_plus_minus4.json"))
    inv = double_cover_invariants(scenario)
    assert inv.chi == 3
    assert inv.pg_lower >= 3
    assert inv.q_lower >= 1


def test_single_minus4_family_integrality():
    members = load_scenario(scenario_path("cover_single_minus4_family.json"))
    assert len(members) == 5
    results = {m.label: double_cover_invariants(m) for m in members}
    integral = sorted(label for label, inv in results.items() if inv.chi_is_integral)
    assert integral == ["branch_sq=-4"]
    good = results["branch_sq=-4"]
    assert good.chi == 2 and good.pg_lower == 3
    assert albanese_gate(good.k_sq, good.q_lower) is False


def test_trivial_branch_scenario():
    inv = double_cover_invariants(
        DoubleCoverScenario(chi_base=1, m_dot_k=0, m_sq=0, k_plus_m_sq=5)
    )
    assert (inv.chi, inv.k_sq, inv.pg_lower) == (2, 10, 0)


def test_chi_linearity_in_the_inputs():
    base = DoubleCoverScenario(chi_base=1, m_dot_k=2, m_sq=-2, k_plus_m_sq=7)
    inv = double_cover_invariants(base)
    bumped = double_cover_invariants(
        DoubleCoverScenario(chi_base=2, m_dot_k=2, m_sq=-2, k_plus_m_sq=7)
    )
    assert bumped.chi - inv.chi == 2
    shifted = double_cover_invariants(
        DoubleCoverScenario(chi_base=1, m_dot_k=4, m_sq=-2, k_plus_m_sq=7)
    )
    assert shifted.chi - inv.chi == 1


def test_fractional_chi_is_reported_not_rounded():
    inv = double_cover_invariants(
        DoubleCoverScenario(chi_base=1, m_dot_k=1, m_sq=Fraction(-3, 2), k_plus_m_sq=Fraction(11, 2))
    )
    assert inv.chi == Fraction(7, 4)
    assert not inv.chi_is_integral


@pytest.mark.parametrize(
    "k_sq, q, expected",
    [(14, 2, False), (16, 2, True), (12, 2, False), (5, 0, True), (0, 1, True)],
)
def test_albanese_gate(k_sq, q, expected):
    assert albanese_gate(k_sq, q) is expected


def test_albanese_gate_rejects_negative_q():
    with pytest.raises(ValueError):
        albanese_gate(5, -1)


@pytest.mark.parametrize(
    "num, sq, expected",
    [(-2, -2, False), (Fraction(-4, 3), Fraction(-4, 3), False), (0, -2, True), (-1, -2, True)],
)
def test_ramification_check(num, sq, expected):
    assert ramification_check(num, sq) is expected


def test_ramification_check_monotone():
    assert ramification_check(Fraction(-3, 2), -2)
    assert not ramification_check(Fraction(-3, 2), Fraction(-3, 2))


def test_ramification_check_requires_negative_square():
    with pytest.raises(ValueError):
        ramification_check(1, 0)


# -- bidouble ----------------------------------------------------------------

def _burniat() -> BidoubleData:
    e1, e2, e3, e4 = E
    return BidoubleData(
        d1=(e3, L - e1 - e2, L - e1 - e4, L - e1),
        d2=(e1, L - e2 - e3, L - e2 - e4, L - e2),
        d3=(e2, L - e1 - e3, L - e3 - e4, L - e3),
        cfg=GENERAL,
    )


def test_bidouble_burniat_invariants():
    inv = bidouble_invariants(_burniat())
    assert (inv.pg, inv.q, inv.k_sq, inv.bicanonical_is_cover) == (0, 0, 5, True)


def test_bidouble_scenario_files():
    for name in ("bidouble_burniat.json", "bidouble_conic_variant.json"):
        [data] = load_scenario(scenario_path(name))
        inv = bidouble_invariants(data)
        assert (inv.pg, inv.q, inv.k_sq, inv.bicanonical_is_cover) == (0, 0, 5, True)
        assert data.total() == 3 * MINUS_K


def test_bidouble_branch_total_is_triple_anticanonical():
    assert _burniat().total() == 3 * MINUS_K


def test_bidouble_chi_consistency():
    inv = bidouble_invariants(_burniat())
    assert inv.pg - inv.q + 1 == 1


def test_bidouble_empty_branch():
    data = BidoubleData(d1=(), d2=(), d3=(), cfg=GENERAL)
    inv = bidouble_invariants(data)
    assert inv.k_sq == 20
    assert inv.pg == 0


def test_bidouble_parity_failure_names_the_pair():
    e1, e2, e3, e4 = E
    data = BidoubleData(d1=(e1,), d2=(e2,), d3=(e3 + e4,), cfg=GENERAL)
    with pytest.raises(ValueError, match="D2 \\+ D3"):
        bidouble_invariants(data)


def fraction_bidouble_chi(b: BidoubleData) -> int:
    """chi = 4 chi(O) + sum L_i(K + L_i)/2 (Catanese 1984) summed in
    Fractions, as before the Riemann-Roch form 1 + sum chi(-L_i)."""
    d1, d2, d3 = b.branch_classes
    halves = [DivisorClass(tuple(c // 2 for c in (x + y).coeffs)) for x, y in ((d2, d3), (d1, d3), (d1, d2))]
    correction = sum((Fraction(intersect(li, K + li), 2) for li in halves), Fraction(0))
    assert correction.denominator == 1
    return 4 + int(correction)


def test_bidouble_chi_matches_the_fraction_formula_on_the_scenarios():
    for name in ("bidouble_burniat.json", "bidouble_conic_variant.json"):
        [data] = load_scenario(scenario_path(name))
        inv = bidouble_invariants(data)
        assert inv.pg + 1 - inv.q == fraction_bidouble_chi(data) == 1


@st.composite
def even_branch_data(draw):
    """Three branch classes with even pairwise sums: D_i = p + 2 v_i for one
    parity vector p."""
    parity = draw(st.tuples(*[st.integers(0, 1)] * 5))
    small = st.tuples(*[st.integers(-2, 2)] * 5)
    d1, d2, d3 = (DivisorClass(tuple(a + 2 * b for a, b in zip(parity, draw(small)))) for _ in range(3))
    return BidoubleData(d1=(d1,), d2=(d2,), d3=(d3,), cfg=GENERAL)


@settings(max_examples=60, deadline=None)
@given(even_branch_data())
def test_bidouble_chi_matches_the_fraction_formula(data):
    inv = bidouble_invariants(data)
    assert inv.pg + 1 - inv.q == fraction_bidouble_chi(data)


# -- numerology ---------------------------------------------------------------

def fraction_miyaoka_floor(chi: int, k_sq: int) -> int:
    """floor((c_2 - K^2/3) / (25/12)) in Fractions, as before the integer
    floor division."""
    euler = 12 * chi - k_sq
    return ((Fraction(euler) - Fraction(k_sq, 3)) / Fraction(25, 12)).__floor__()


def test_miyaoka_floor_matches_the_fraction_formula():
    for chi in range(-6, 7):
        for k_sq in range(-30, 31):
            assert surface_numerology(chi, k_sq).max_disjoint_minus4 == fraction_miyaoka_floor(chi, k_sq)
    assert fraction_miyaoka_floor(0, 1) == surface_numerology(0, 1).max_disjoint_minus4 == -1


@pytest.mark.parametrize(
    "chi, k_sq, expected",
    [
        (1, 5, (7, 5, 2)),
        (1, 6, (6, 4, 1)),
        (2, 5, (19, 17, 8)),
    ],
)
def test_surface_numerology(chi, k_sq, expected):
    n = surface_numerology(chi, k_sq)
    assert (n.euler, n.h2, n.max_disjoint_minus4) == expected


def test_load_scenario_rejects_unknown_kind(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "triple_cover"}')
    with pytest.raises(ValueError):
        load_scenario(bad)
