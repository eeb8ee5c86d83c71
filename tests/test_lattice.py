from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from delpezzo.lattice import (
    CONFIGURATIONS,
    E,
    GENERAL,
    K,
    L,
    MINUS_K,
    RANK,
    DivisorClass,
    QDivisorClass,
    ZERO,
    canonical_class,
    class_from_json,
    class_to_json,
    from_curve_basis,
    get_configuration,
    intersect,
    parse_class_label,
    render_class,
    riemann_roch_chi,
    to_curve_basis,
)

coeffs5 = st.tuples(*[st.integers(-9, 9)] * 5)


def D(*cs):
    return DivisorClass(cs)


def test_gram_diagonal():
    assert intersect(L, L) == 1
    for e in E:
        assert intersect(e, e) == -1
    for a in (L, *E):
        for b in (L, *E):
            if a != b:
                assert intersect(a, b) == 0


def test_anticanonical_degree():
    assert MINUS_K == D(3, -1, -1, -1, -1)
    assert intersect(MINUS_K, MINUS_K) == 5


@given(coeffs5, coeffs5)
def test_pairing_symmetric(a, b):
    assert intersect(D(*a), D(*b)) == intersect(D(*b), D(*a))


@given(coeffs5, coeffs5, coeffs5)
def test_pairing_bilinear(a, b, c):
    da, db, dc = D(*a), D(*b), D(*c)
    assert intersect(da + db, dc) == intersect(da, dc) + intersect(db, dc)


def genexpr_intersect(a, b):
    """The pairing as written before the unpacked kernel, kept as an oracle."""
    ac, bc = a.coeffs, b.coeffs
    value = ac[0] * bc[0] - sum(ac[i] * bc[i] for i in range(1, RANK))
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
q_coeffs5 = st.tuples(*[st.one_of(small_fractions, st.integers(-9, 9).map(Fraction))] * 5)


@given(coeffs5, coeffs5, q_coeffs5, q_coeffs5)
def test_intersect_matches_the_genexpr_oracle(a, b, qa, qb):
    classes = (D(*a), D(*b), QDivisorClass(qa), QDivisorClass(qb))
    for x in classes:
        for y in classes:
            got = intersect(x, y)
            assert got == genexpr_intersect(x, y)
            assert type(got) is type(genexpr_intersect(x, y))
            if Fraction(got).denominator == 1:
                assert type(got) is int


def as_integral(q: QDivisorClass) -> DivisorClass:
    """The integral class of a Q-class whose coefficients are all integers."""
    if any(a.denominator != 1 for a in q.coeffs):
        raise ValueError(f"{q} is not an integral class")
    return DivisorClass(tuple(int(a) for a in q.coeffs))


def test_rational_classes_have_no_arithmetic():
    """A Q-class pairs, converts and serializes; no sum, difference,
    negation or multiple involves one, and a Fraction does not scale an
    integer class into one."""
    d = D(2, -1, 0, 3, -5)
    q = QDivisorClass((Fraction(4, 3), Fraction(-1, 3), 0, 1, Fraction(-2, 3)))
    for op in (lambda: d + q, lambda: q + d, lambda: q + q, lambda: -q, lambda: q - q, lambda: d - q,
               lambda: Fraction(1, 3) * d, lambda: d * Fraction(1, 3), lambda: 2 * q, lambda: q * 2):
        with pytest.raises(TypeError):
            op()


def test_q_classes_embed_losslessly():
    d = D(2, -1, 0, 3, -5)
    q = QDivisorClass(d.coeffs)
    assert all(type(a) is Fraction for a in q.coeffs)
    assert intersect(q, q) == intersect(d, d)
    assert intersect(q, MINUS_K) == intersect(d, MINUS_K)
    assert as_integral(q) == d


@given(coeffs5, coeffs5, st.integers(-9, 9))
def test_arithmetic_matches_the_checked_constructor(a, b, n):
    da, db = D(*a), D(*b)
    results = (da + db, -da, da - db, n * da, da * n)
    expected = (
        D(*(x + y for x, y in zip(a, b))),
        D(*(-x for x in a)),
        D(*(x - y for x, y in zip(a, b))),
        D(*(n * x for x in a)),
        D(*(n * x for x in a)),
    )
    assert results == expected
    for d in results:
        assert isinstance(d, DivisorClass)
        assert all(type(c) is int for c in d.coeffs)
        assert hash(d) == hash(D(*d.coeffs))


def test_constructor_validates_coefficients():
    assert D(Fraction(2), 0, 0, 0, 0).coeffs == (2, 0, 0, 0, 0)
    assert type(D(Fraction(2), 0, 0, 0, 0).coeffs[0]) is int
    with pytest.raises(TypeError):
        D(True, 0, 0, 0, 0)
    with pytest.raises(TypeError):
        D(1.0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        D(Fraction(1, 2), 0, 0, 0, 0)
    with pytest.raises(ValueError):
        DivisorClass((1, 0, 0, 0))


def test_rational_scaling():
    q = QDivisorClass(tuple(Fraction(1, 3) * a for a in D(1, -1, -1, -1, 0).coeffs))
    assert intersect(q, q) == Fraction(-2, 9)


def test_canonical_class_is_configuration_independent():
    for cfg in CONFIGURATIONS.values():
        k = canonical_class(cfg)
        assert k == K
        assert intersect(k, k) == 5


@pytest.mark.parametrize(
    "name, collinear, chains",
    [
        ("GENERAL", set(), ()),
        ("P1", {1, 2, 3}, ()),
        ("P2", {1, 2, 3}, ((2, 3),)),
        ("P3", {1, 2, 3}, ((1, 2, 3),)),
        ("P4", {1, 2, 3}, ((3, 4),)),
        ("P5", {1, 2, 3}, ((2, 3, 4),)),
        ("P6", {1, 2, 3}, ((1, 2, 3, 4),)),
    ],
)
def test_configuration_registry(name, collinear, chains):
    cfg = get_configuration(name)
    assert cfg.collinear == frozenset(collinear)
    assert cfg.chains == chains


def test_unknown_configuration_rejected():
    with pytest.raises(ValueError):
        get_configuration("P7")


# -- curve basis -------------------------------------------------------------

def test_curve_basis_chain_relation_p2():
    p2 = get_configuration("P2")
    assert to_curve_basis(E[1], p2) == (0, 0, 1, 1, 0)  # E2 = e2 + e3
    assert from_curve_basis((0, 0, 1, 0, 0), p2) == D(0, 0, 1, -1, 0)


def test_curve_basis_collinear_line_p2():
    p2 = get_configuration("P2")
    assert to_curve_basis(D(1, -1, -1, -1, 0), p2) == (1, -1, -1, -2, 0)


def test_curve_basis_collinear_line_p6():
    p6 = get_configuration("P6")
    assert to_curve_basis(D(1, -1, -1, -1, 0), p6) == (1, -1, -2, -3, -3)


def test_anticanonical_curve_basis_p2():
    p2 = get_configuration("P2")
    assert to_curve_basis(MINUS_K, p2) == (3, -1, -1, -2, -1)


@given(coeffs5, st.sampled_from(sorted(CONFIGURATIONS)))
def test_curve_basis_round_trip(v, name):
    cfg = get_configuration(name)
    assert to_curve_basis(from_curve_basis(v, cfg), cfg) == v
    d = D(*v)
    assert from_curve_basis(to_curve_basis(d, cfg), cfg) == d


def test_exceptional_curve_squares():
    # Interior chain members are (-2)-classes, tails and isolated points (-1).
    for cfg in CONFIGURATIONS.values():
        for i in range(1, 5):
            cls = from_curve_basis(tuple(int(j == i) for j in range(5)), cfg)
            expected = -2 if cfg.chain_successor(i) is not None else -1
            assert intersect(cls, cls) == expected


# -- Riemann-Roch ------------------------------------------------------------

def test_chi_values():
    assert riemann_roch_chi(ZERO) == 1
    assert riemann_roch_chi(MINUS_K) == 6
    assert riemann_roch_chi(D(3, -1, -1, -1, 0)) == 7


@given(coeffs5)
def test_chi_serre_symmetry(v):
    d = D(*v)
    lhs = riemann_roch_chi(d) + riemann_roch_chi(K - d)
    assert lhs == intersect(d, d - K) + 2


# -- parsing, rendering, JSON ------------------------------------------------

@pytest.mark.parametrize(
    "label, expected",
    [
        ("3l-e1-e2-e3-e4", (3, -1, -1, -1, -1)),
        ("l-e4", (1, 0, 0, 0, -1)),
        ("2l-e1-2e2-2e3-e4", (2, -1, -2, -2, -1)),
        ("-e1", (0, -1, 0, 0, 0)),
        ("L-E1-E2", (1, -1, -1, 0, 0)),
    ],
)
def test_parse_class_label(label, expected):
    assert parse_class_label(label).coeffs == expected


def test_parse_curve_basis_label():
    p2 = get_configuration("P2")
    assert parse_class_label("2l-e1-e2-e3-e4", p2, "curve") == D(2, -1, -1, 0, -1)


@pytest.mark.parametrize("bad", ["", "3x", "l-e5", "l+", "2", "l e1", "00", "-0", "0+l"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_class_label(bad)


def test_zero_label_parses_in_either_basis():
    assert render_class(ZERO.coeffs) == "0"
    assert parse_class_label("0") == ZERO
    assert parse_class_label("0", get_configuration("P6"), "curve") == ZERO


@pytest.mark.parametrize("name", [None, 5, ["GENERAL"]])
def test_configuration_name_must_be_a_string(name):
    with pytest.raises(ValueError, match="unknown configuration"):
        get_configuration(name)


@pytest.mark.parametrize("obj", ["l-e1", [1, 0, 0, 0, 0], None])
def test_class_from_json_needs_an_object(obj):
    with pytest.raises(ValueError, match="expected a JSON object"):
        class_from_json(obj)


@given(coeffs5)
def test_render_parse_round_trip(v):
    d = D(*v)
    assert parse_class_label(render_class(d.coeffs)).coeffs == v


@given(coeffs5, st.sampled_from(sorted(CONFIGURATIONS)), st.sampled_from(["standard", "curve"]))
def test_json_round_trip(v, name, basis):
    cfg = get_configuration(name)
    d = D(*v)
    obj = class_to_json(d, cfg, basis)
    back, back_cfg = class_from_json(obj)
    assert back == d
    assert back_cfg == cfg


def test_json_fractional_coefficients():
    q = QDivisorClass((Fraction(4, 3), Fraction(-1, 3), Fraction(-1, 3), Fraction(-2, 3), Fraction(-2, 3)))
    obj = class_to_json(q, GENERAL)
    assert obj["coeffs"][0] == "4/3"
    back, _ = class_from_json(obj)
    assert back == q


def test_json_rejects_floats():
    with pytest.raises(ValueError):
        class_from_json({"coeffs": [1.5, 0, 0, 0, 0], "basis": "standard", "config": "GENERAL"})


def test_json_rejects_booleans():
    with pytest.raises(ValueError):
        class_from_json({"coeffs": [True, 0, 0, 0, 0], "basis": "standard", "config": "GENERAL"})


def test_q_class_rejects_floats():
    """Only ints and Fractions are exact coefficients, as for `DivisorClass`:
    a string is not parsed, a bool is not read as 1, a Decimal is refused."""
    for bad in (1.5, "1/2", True, Decimal("0.5")):
        with pytest.raises(TypeError):
            QDivisorClass((bad, 0, 0, 0, 0))
        with pytest.raises(TypeError):
            DivisorClass((bad, 0, 0, 0, 0))


@pytest.mark.parametrize("coeffs", ["12345", "00010", 5, None, {"0": 1}, (1, 0, 0, 0, 0)])
def test_json_coefficients_must_be_a_list(coeffs):
    """A string is not read digit by digit, nor any other non-list as a vector."""
    with pytest.raises(ValueError, match="expected a JSON list"):
        class_from_json({"coeffs": coeffs, "basis": "standard", "config": "GENERAL"})
    with pytest.raises(ValueError, match="expected a JSON list"):
        class_from_json({"coeffs": coeffs, "basis": "curve", "config": "P4"})


def test_json_coefficients_are_required():
    with pytest.raises(ValueError, match="expected a JSON list"):
        class_from_json({"basis": "standard", "config": "GENERAL"})
