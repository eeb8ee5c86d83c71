import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from delpezzo.cohomology import (
    REDUCTION_CAP,
    ReductionTrace,
    find_all_half_anticanonical_pencils,
    find_half_anticanonical_pencils,
    h0,
    h0_with_trace,
    half_anticanonical_candidates,
    is_effective,
)
from delpezzo.curves import minus_two_curves, minus_two_gram_adjugate, negative_curve_classes, ruling_classes
from delpezzo.exact import mat_vec
from delpezzo.lattice import (
    CONFIGURATIONS,
    E,
    GENERAL,
    L,
    MINUS_K,
    DivisorClass,
    InternalFaultError,
    QDivisorClass,
    ZERO,
    get_configuration,
    intersect,
    parse_class_label,
    riemann_roch_chi,
)

P = {name: get_configuration(name) for name in CONFIGURATIONS}


def D(*cs):
    return DivisorClass(cs)


H0_GOLDENS = [
    ("GENERAL", "3l-e1-e2-e3", "standard", 7),
    ("GENERAL", "l-e4", "standard", 2),
    ("GENERAL", "3l-e1-e2-e3-e4", "standard", 6),
    ("P2", "l-e4", "curve", 2),
    ("P2", "2l-e1-e2-e3-e4", "curve", 3),
    ("P3", "2l-e1-2e2-2e3-e4", "curve", 3),
    ("P5", "2l-e2-e3-2e4", "curve", 4),
]


@pytest.mark.parametrize("cfg_name, label, basis, expected", H0_GOLDENS)
def test_h0_golden_values(cfg_name, label, basis, expected):
    cfg = P[cfg_name]
    assert h0(parse_class_label(label, cfg, basis), cfg) == expected


def test_h0_p3_conic_class_meets_lower_bound():
    # Stated lower bound is 4; the exact value computed here is also 4.
    cfg = P["P3"]
    value = h0(parse_class_label("2l-e1-e2-e3-e4", cfg, "curve"), cfg)
    assert value >= 4
    assert value == 4


def test_h0_trivial_cases():
    assert h0(ZERO, GENERAL) == 1
    assert h0(-E[0], GENERAL) == 0
    assert h0(-MINUS_K, GENERAL) == 0


def test_h0_of_minus_two_combinations():
    p6 = P["P6"]
    chain = D(1, -1, -1, -1, 0) + (E[0] - E[1]) + (E[1] - E[2])
    assert h0(chain, p6) == 1
    assert h0(2 * (E[0] - E[1]), p6) == 1


def test_effectivity_examples():
    assert not is_effective(D(1, 1, -1, -1, -1), GENERAL)
    assert is_effective(D(1, -1, -1, 0, 0), GENERAL)
    assert is_effective(D(1, -1, -1, -1, 0), P["P1"])


def test_reduction_trace_preserves_h0():
    cfg = P["P5"]
    d = parse_class_label("2l-e2-e3-2e4", cfg, "curve")
    trace = h0_with_trace(d, cfg)
    assert trace.steps, "this class has a fixed component to strip"
    assert trace.result is not None
    assert h0(trace.result, cfg) == trace.value == 4
    # The nef endpoint pairs >= 0 with every negative curve.
    from delpezzo.curves import negative_curve_classes

    assert all(intersect(trace.result, c) >= 0 for c in negative_curve_classes(cfg))


def test_reduction_cap_fault_names_the_cap_start_and_last_steps():
    # Two meeting lines ping-pong in steps of 97 well past the cap.
    label = "890070l-890167e1+789436e2-230823e3+48486e4"
    with pytest.raises(InternalFaultError) as info:
        h0(parse_class_label(label), GENERAL)
    message = str(info.value)
    assert f"cap of {REDUCTION_CAP} steps" in message
    assert label in message
    assert message.endswith("last subtractions: 97*(l-e1-e2), 97*(e2), 97*(l-e1-e2), 97*(e2)")
    assert len(message) < 300


def test_nef_classes_need_no_reduction():
    trace = h0_with_trace(MINUS_K, GENERAL)
    assert trace.steps == []
    assert trace.value == riemann_roch_chi(MINUS_K) == 6


def oracle_is_nonnegative_minus_two_combination(d, cfg):
    """Solve d = sum(n_T * T) over the (-2)-curves; the T are independent.

    Pairing with each T gives G n = (d.T), so n = adj * (d.T) / det.
    """
    thetas = [t.cls for t in minus_two_curves(cfg)]
    adj, det = minus_two_gram_adjugate(cfg)
    combo = d
    for y, theta in zip(mat_vec(adj, [intersect(d, t) for t in thetas]), thetas):
        if y % det or y // det < 0:
            return False
        combo = combo - (y // det) * theta
    return combo.is_zero()


def oracle_reduce_to_nef(d, cfg, trace):
    """The former one-curve reduction loop, on `DivisorClass` arithmetic."""
    walls = negative_curve_classes(cfg)
    for _ in range(REDUCTION_CAP):
        if intersect(d, MINUS_K) < 0:
            return None
        for wall in walls:
            pairing = intersect(d, wall)
            if pairing < 0:
                mult = -((-pairing) // intersect(wall, wall))
                d = d - mult * wall
                trace.steps.append((wall, mult))
                break
        else:
            return d
    last = ", ".join(f"{mult}*({wall})" for wall, mult in trace.steps[-4:])
    raise InternalFaultError(
        f"reduction cap of {REDUCTION_CAP} steps exceeded from {trace.start}; last subtractions: {last}"
    )


def oracle_h0_with_trace(d, cfg):
    """The former h0_with_trace: a degree pre-check, the one-curve loop, and
    a (-2)-lattice solve for a nef part of degree 0."""
    trace = ReductionTrace(start=d)
    if intersect(d, MINUS_K) < 0:
        trace.value = 0
        return trace
    nef = oracle_reduce_to_nef(d, cfg, trace)
    if nef is None:
        trace.value = 0
        return trace
    trace.result = nef
    degree = intersect(nef, MINUS_K)
    if degree > 0:
        trace.value = riemann_roch_chi(nef)
    elif nef.is_zero() or oracle_is_nonnegative_minus_two_combination(nef, cfg):
        trace.value = 1
    else:
        trace.value = 0
    return trace


COEFF_60 = st.integers(-60, 60)
#: Classes with |coeff| <= 60; half of them of anticanonical degree
#: 3*c0 + c1 + c2 + c3 + c4 = 0, where nef parts of degree 0 occur.
CLASSES_60 = st.one_of(
    st.tuples(*[COEFF_60] * 5),
    st.tuples(*[COEFF_60] * 4).map(lambda v: (*v, -3 * v[0] - v[1] - v[2] - v[3])).filter(lambda v: abs(v[4]) <= 60),
)


@settings(max_examples=400)
@given(CLASSES_60, st.sampled_from(sorted(CONFIGURATIONS)))
def test_h0_trace_matches_the_minus_two_combination_oracle(v, name):
    cfg, d = P[name], D(*v)
    old = oracle_h0_with_trace(d, cfg)
    assert h0_with_trace(d, cfg) == old
    if old.result is not None and intersect(old.result, MINUS_K) == 0:
        assert old.result.is_zero()


def _trace_or_fault(h0_trace, d, cfg):
    try:
        return h0_trace(d, cfg)
    except InternalFaultError as fault:
        return str(fault)


COEFF_WIDE = st.integers(-10**5, 10**5)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[COEFF_WIDE] * 5), st.sampled_from(sorted(CONFIGURATIONS)))
@example((890070, -890167, 789436, -230823, 48486), "GENERAL")
def test_wide_h0_trace_matches_the_one_curve_loop(v, name):
    # The explicit example is the ROADMAP reproducer: both loops reach the
    # cap and raise the same message.
    cfg, d = P[name], D(*v)
    assert _trace_or_fault(h0_with_trace, d, cfg) == _trace_or_fault(oracle_h0_with_trace, d, cfg)


def test_h0_of_a_q_class_needs_integral_coefficients():
    assert h0(QDivisorClass((2, -1, 0, 0, 0)), GENERAL) == 5
    for coeffs in [(Fraction(3, 2), Fraction(-1, 2), 0, 0, 0), (Fraction(1, 2), Fraction(3, 2), 0, 0, 0)]:
        with pytest.raises(ValueError, match="non-integral"):
            h0(QDivisorClass(coeffs), GENERAL)


@settings(max_examples=60)
@given(st.tuples(*[st.integers(-4, 4)] * 5), st.sampled_from(sorted(CONFIGURATIONS)))
def test_h0_monotone_under_adding_a_ruling(v, name):
    cfg = P[name]
    d = D(*v)
    base = h0(d, cfg)
    if base == 0:
        return
    for f in ruling_classes(cfg, False):
        assert h0(d + f, cfg) >= base


# -- brute-force oracle ------------------------------------------------------
#
# For the general configuration, h^0(aL - sum(bi Ei)) equals the dimension of
# plane curves of degree a with multiplicity >= bi at four points in general
# position.  Four such points are projectively unique, so the count from an
# explicit rational point set is the true value: (number of monomials) minus
# the rank of the multiplicity-condition matrix, computed exactly.

POINTS = [(0, 0), (1, 0), (0, 1), (2, 3)]


def _assert_general_position():
    for (x1, y1), (x2, y2), (x3, y3) in __import__("itertools").combinations(POINTS, 3):
        area = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        assert area != 0


_assert_general_position()


def fraction_rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination on `Fraction`s."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][col] / a[rank][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def plane_sections_oracle(a: int, mults: tuple[int, int, int, int]) -> int:
    monomials = [(i, j) for i in range(a + 1) for j in range(a + 1 - i)]
    rows = []
    for (px, py), m in zip(POINTS, mults):
        for dx in range(m):
            for dy in range(m - dx):
                row = []
                for (i, j) in monomials:
                    if i < dx or j < dy:
                        row.append(0)
                    else:
                        c = (
                            math.factorial(i) // math.factorial(i - dx)
                            * (math.factorial(j) // math.factorial(j - dy))
                        )
                        row.append(c * px ** (i - dx) * py ** (j - dy))
                rows.append(row)
    return len(monomials) - fraction_rank(rows)


def _sample_grid(limit=150):
    grid = [
        (a, bs)
        for a in range(0, 5)
        for bs in __import__("itertools").product(range(0, a + 1), repeat=4)
    ]
    small = [(a, bs) for a, bs in grid if a <= 2]
    big = [(a, bs) for a, bs in grid if a > 2]
    rng = random.Random(20240517)
    return small + rng.sample(big, limit - len(small))


GRID = _sample_grid()


def test_oracle_grid_size():
    assert len(GRID) == 150


@pytest.mark.parametrize("a, bs", GRID)
def test_h0_matches_plane_sections_oracle(a, bs):
    d = DivisorClass((a, -bs[0], -bs[1], -bs[2], -bs[3]))
    assert h0(d, GENERAL) == plane_sections_oracle(a, bs)


# -- exhaustive scan ---------------------------------------------------------

def box_scan(bound, require_effective_complement=True):
    """The former `find_half_anticanonical_pencils`, kept as an oracle: every
    d with |coefficients| <= bound and h0(d) > 1, in box order, and with the
    flag only those with -K - 2d effective."""
    found = []
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=5):
        d = D(*coeffs)
        if h0(d, GENERAL) > 1 and (not require_effective_complement
                                   or is_effective(MINUS_K - 2 * d, GENERAL)):
            found.append(d)
    return found


def test_no_movable_class_with_effective_doubled_complement():
    assert find_half_anticanonical_pencils(1) == []
    assert find_half_anticanonical_pencils(3) == []


@pytest.mark.parametrize("bound", [1, 2])
def test_scan_is_the_strict_box_scan(bound):
    assert find_half_anticanonical_pencils(bound) == box_scan(bound)


def test_candidates_are_the_effective_classes_of_degree_at_most_two():
    candidates = half_anticanonical_candidates()
    assert len(candidates) == len(set(candidates)) == 56
    for d in candidates:
        assert is_effective(d, GENERAL)
        assert intersect(d, MINUS_K) <= 2
    box = (D(*c) for c in itertools.product(range(-3, 4), repeat=5))
    low_degree = {d for d in box if intersect(d, MINUS_K) <= 2 and h0(d, GENERAL) >= 1}
    assert low_degree == set(candidates)


def test_complete_half_anticanonical_check_finds_nothing():
    assert find_all_half_anticanonical_pencils() == []


def test_relaxed_scan_is_nonempty():
    # `verify` used to print this count next to the complete check.
    found = box_scan(1, require_effective_complement=False)
    assert len(found) == 48
    assert L in found


@pytest.mark.parametrize("bound", [1, 2])
def test_strict_scan_is_the_relaxed_scan_filtered(bound):
    """The strict box scan keeps exactly the relaxed classes whose doubled
    complement is effective, in scan order, and the relaxed classes of
    degree at most 2 are candidates."""
    relaxed = box_scan(bound, require_effective_complement=False)
    derived = [d for d in relaxed if is_effective(MINUS_K - 2 * d, GENERAL)]
    assert box_scan(bound) == derived
    assert len(relaxed) > 0
    candidates = set(half_anticanonical_candidates())
    assert all(d in candidates for d in relaxed if intersect(d, MINUS_K) <= 2)


def test_scan_rejects_bad_bound():
    with pytest.raises(ValueError):
        find_half_anticanonical_pencils(0)
