import random
from fractions import Fraction

import pytest

from delpezzo.contraction import (
    SigmaClass,
    mumford_pullback,
    sigma_intersect,
    singularity_types,
)
from delpezzo.curves import minus_two_curves
from delpezzo.lattice import (
    CONFIGURATIONS,
    E,
    GENERAL,
    L,
    MINUS_K,
    DivisorClass,
    QDivisorClass,
    from_curve_basis,
    get_configuration,
    intersect,
    parse_class_label,
    to_curve_basis,
)

P = {name: get_configuration(name) for name in CONFIGURATIONS}


def curve_class(cfg, label):
    return parse_class_label(label, cfg, "curve")


def q_curve(cfg, pulled):
    return tuple(to_curve_basis(pulled, cfg))


def test_general_pullback_is_identity():
    s = SigmaClass(DivisorClass((2, -1, 0, 0, -1)), GENERAL)
    assert mumford_pullback(s) == QDivisorClass(s.rep.coeffs)


PULLBACKS = [
    # (config, representative label in curve basis, expected curve coordinates)
    ("P4", "l-e3-e4", (Fraction(4, 3), Fraction(-1, 3), Fraction(-1, 3), Fraction(-2, 3), Fraction(-4, 3))),
    ("P4", "e4", (Fraction(1, 3), Fraction(-1, 3), Fraction(-1, 3), Fraction(1, 3), Fraction(2, 3))),
    ("P3", "l-e4", (Fraction(3, 2), Fraction(-1, 2), Fraction(-1), Fraction(-3, 2), Fraction(-1))),
    ("P3", "l-e1-e2-e3", (Fraction(1), Fraction(-1, 3), Fraction(-2, 3), Fraction(-1), Fraction(0))),
    ("P5", "l-e2-e3-e4", (Fraction(5, 4), Fraction(-1, 4), Fraction(-1, 2), Fraction(-1), Fraction(-3, 2))),
]


@pytest.mark.parametrize("name, rep_label, expected", PULLBACKS)
def test_displayed_pullbacks_exact(name, rep_label, expected):
    cfg = P[name]
    pulled = mumford_pullback(SigmaClass(curve_class(cfg, rep_label), cfg))
    assert q_curve(cfg, pulled) == expected


def test_p4_pullback_in_named_curve_terms():
    # l3 + (2/3) e3 + (1/3) c, with c the collinear-line class.
    cfg = P["P4"]
    l3 = curve_class(cfg, "l-e3-e4")
    e3 = curve_class(cfg, "e3")
    c = DivisorClass((1, -1, -1, -1, 0))
    expected = QDivisorClass(tuple(
        a + Fraction(2, 3) * b + Fraction(1, 3) * z for a, b, z in zip(l3.coeffs, e3.coeffs, c.coeffs)
    ))
    assert mumford_pullback(SigmaClass(l3, cfg)) == expected


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_pullback_orthogonal_to_contracted_curves(name):
    cfg = P[name]
    rng = random.Random(hash(name) & 0xFFFF)
    thetas = [t.cls for t in minus_two_curves(cfg)]
    for _ in range(50):
        rep = DivisorClass(tuple(rng.randint(-5, 5) for _ in range(5)))
        pulled = mumford_pullback(SigmaClass(rep, cfg))
        for theta in thetas:
            assert intersect(pulled, theta) == 0


SIGMA_VALUES = [
    ("P4", (0, 1, 0, 0, 0), (0, 1, 0, 0, 0), Fraction(-1, 3)),
    ("P4", (1, 0, 0, -1, 0), (0, 1, 0, 0, 0), Fraction(1, 3)),
    ("P4", (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), Fraction(2, 3)),
    ("P3", (1, 0, 0, 0, -1), (1, 0, 0, 0, -1), Fraction(1, 2)),
    ("P3", (1, -1, 0, 0, 0), (1, -1, 0, 0, 0), Fraction(2, 3)),
    ("P3", (0, 0, 0, 1, 0), (0, 0, 0, 1, 0), Fraction(1, 6)),
    ("P5", (1, 0, -1, 0, 0), (1, 0, -1, 0, 0), Fraction(3, 4)),
    ("P5", (0, 0, 0, 0, 1), (0, 0, 0, 0, 1), Fraction(0)),
    ("P5", (0, 0, 0, 0, 1), (0, 1, 0, 0, 0), Fraction(1, 2)),
    ("P5", (0, 1, 0, 0, 0), (0, 1, 0, 0, 0), Fraction(-1, 4)),
    ("P6", (1, -1, 0, 0, 0), (1, -1, 0, 0, 0), Fraction(4, 5)),
]


@pytest.mark.parametrize("name, rep_a, rep_b, expected", SIGMA_VALUES)
def test_sigma_intersections_exact(name, rep_a, rep_b, expected):
    cfg = P[name]
    a = SigmaClass(DivisorClass(rep_a), cfg)
    b = SigmaClass(DivisorClass(rep_b), cfg)
    assert Fraction(sigma_intersect(a, b)) == expected
    assert Fraction(sigma_intersect(b, a)) == expected


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_anticanonical_needs_no_correction(name):
    cfg = P[name]
    mk = SigmaClass(MINUS_K, cfg)
    assert mumford_pullback(mk) == QDivisorClass(MINUS_K.coeffs)
    assert sigma_intersect(mk, mk) == 5
    rng = random.Random(7)
    for _ in range(20):
        rep = DivisorClass(tuple(rng.randint(-4, 4) for _ in range(5)))
        assert sigma_intersect(mk, SigmaClass(rep, cfg)) == intersect(MINUS_K, rep)


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_representative_independence(name):
    cfg = P[name]
    rng = random.Random(1 + hash(name) % 1000)
    thetas = [t.cls for t in minus_two_curves(cfg)]
    if not thetas:
        return
    for _ in range(30):
        rep = DivisorClass(tuple(rng.randint(-4, 4) for _ in range(5)))
        other = DivisorClass(tuple(rng.randint(-4, 4) for _ in range(5)))
        shift = rng.choice(thetas)
        a, a_shifted = SigmaClass(rep, cfg), SigmaClass(rep + shift, cfg)
        b = SigmaClass(other, cfg)
        assert sigma_intersect(a, b) == sigma_intersect(a_shifted, b)


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_pullback_denominators_divide_chain_determinant(name):
    # For an A_k chain the (-2)-Gram determinant is (-1)^k (k+1); the largest
    # component determines the worst denominator.
    cfg = P[name]
    sizes = [int(label[1:]) for label in singularity_types(cfg)]
    worst = 1
    for k in sizes:
        worst *= k + 1
    rng = random.Random(99)
    for _ in range(30):
        rep = DivisorClass(tuple(rng.randint(-5, 5) for _ in range(5)))
        pulled = mumford_pullback(SigmaClass(rep, cfg))
        for c in pulled.coeffs:
            assert worst % c.denominator == 0


SINGULARITIES = {
    "GENERAL": (),
    "P1": ("A1",),
    "P2": ("A1", "A1"),
    "P3": ("A1", "A2"),
    "P4": ("A2",),
    "P5": ("A3",),
    "P6": ("A4",),
}


@pytest.mark.parametrize("name, expected", sorted(SINGULARITIES.items()))
def test_singularity_types(name, expected):
    assert singularity_types(P[name]) == expected


def test_sigma_intersect_requires_matching_configuration():
    a = SigmaClass(L, P["P4"])
    b = SigmaClass(L, P["P5"])
    with pytest.raises(ValueError):
        sigma_intersect(a, b)
