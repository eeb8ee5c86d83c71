"""Golden verification suite: every published number the toolkit reproduces.

Each check returns (ok, detail); the CLI `verify` subcommand prints one line
per check and exits nonzero on any mismatch.  The pytest acceptance module
covers the same ground with finer-grained assertions; this module is the
self-contained end-to-end gate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from importlib import resources
from typing import Callable

from . import casework, contraction, covers, curves, symmetry
from .cohomology import (
    find_all_half_anticanonical_pencils,
    find_half_anticanonical_pencils,
    h0,
    half_anticanonical_candidates,
    is_effective,
)
from .lattice import (
    CONFIGURATIONS,
    E,
    GENERAL,
    L,
    MINUS_K,
    DivisorClass,
    ZERO,
    canonical_class,
    get_configuration,
    intersect,
    parse_class_label,
    riemann_roch_chi,
    to_curve_basis,
)

Check = tuple[str, Callable[[], tuple[bool, str]]]


def _eq(actual, expected, label: str) -> tuple[bool, str]:
    ok = actual == expected
    detail = f"{label}: {actual}" + ("" if ok else f" (expected {expected})")
    return ok, detail


def _scenario_path(name: str):
    return resources.files("delpezzo.data").joinpath(f"scenarios/{name}")


def _check_gram_diagonal():
    values = (intersect(L, L), intersect(E[0], E[0]), intersect(MINUS_K, MINUS_K))
    return _eq(values, (1, -1, 5), "L^2, E1^2, (-K)^2")


def _check_canonical_class():
    vectors = {canonical_class(cfg).coeffs for cfg in CONFIGURATIONS.values()}
    return _eq(vectors, {(-3, 1, 1, 1, 1)}, "K in every configuration")


def _check_curve_basis_renderings():
    p2 = get_configuration("P2")
    p6 = get_configuration("P6")
    got = (
        to_curve_basis(MINUS_K, p2),
        to_curve_basis(E[1], p2),
        to_curve_basis(DivisorClass((1, -1, -1, -1, 0)), p2),
        to_curve_basis(DivisorClass((1, -1, -1, -1, 0)), p6),
    )
    want = (
        (3, -1, -1, -2, -1),
        (0, 0, 1, 1, 0),
        (1, -1, -1, -2, 0),
        (1, -1, -2, -3, -3),
    )
    return _eq(got, want, "curve-basis coordinates (P2 and P6)")


def _check_chi():
    got = (
        riemann_roch_chi(ZERO),
        riemann_roch_chi(MINUS_K),
        riemann_roch_chi(DivisorClass((3, -1, -1, -1, 0))),
    )
    return _eq(got, (1, 6, 7), "chi(0), chi(-K), chi(3l-e1-e2-e3)")


def _check_ten_lines():
    lines = curves.minus_one_curves(GENERAL)
    degrees = {
        sum(1 for other in lines if other != c and intersect(c.cls, other.cls) > 0)
        for c in lines
    }
    return _eq((len(lines), degrees), (10, {3}), "general lines and incidence degree")


def _check_minus_one_counts():
    got = {name: len(curves.minus_one_curves(cfg)) for name, cfg in CONFIGURATIONS.items()}
    want = {"GENERAL": 10, "P1": 7, "P2": 5, "P3": 3, "P4": 4, "P5": 2, "P6": 1}
    return _eq(got, want, "(-1)-curve counts")


def _check_minus_two_inventories():
    got = {name: len(curves.minus_two_curves(cfg)) for name, cfg in CONFIGURATIONS.items()}
    want = {"GENERAL": 0, "P1": 1, "P2": 2, "P3": 3, "P4": 2, "P5": 3, "P6": 4}
    ok1, d1 = _eq(got, want, "(-2)-curve counts")
    chain = [t.cls for t in curves.minus_two_curves(get_configuration("P6"))]
    # A4 chain: sort so consecutive members meet once.
    pairings = sorted(
        intersect(a, b) for i, a in enumerate(chain) for b in chain[i + 1:]
    )
    ok2, d2 = _eq(tuple(pairings), (0, 0, 0, 1, 1, 1), "P6 chain pairings")
    return ok1 and ok2, f"{d1}; {d2}"


def _check_rulings():
    got = {}
    for name, cfg in CONFIGURATIONS.items():
        got[name] = tuple(
            to_curve_basis(f, cfg) for f in curves.ruling_classes(cfg, True)
        )
    want = {
        "GENERAL": tuple(
            to_curve_basis(f, GENERAL) for f in curves.ruling_classes(GENERAL, False)
        ),
        "P1": ((1, -1, 0, 0, 0), (1, 0, -1, 0, 0), (1, 0, 0, -1, 0)),
        "P2": ((1, -1, 0, 0, 0),),
        "P3": (),
        "P4": ((1, -1, 0, 0, 0), (1, 0, -1, 0, 0)),
        "P5": ((1, -1, 0, 0, 0),),
        "P6": (),
    }
    flag_off = len(curves.ruling_classes(GENERAL, False))
    ok = got == want and flag_off == 5
    return ok, f"fiber pencils per configuration: { {k: len(v) for k, v in got.items()} }, general flag-off count {flag_off}"


H0_GOLDENS = (
    ("GENERAL", "3l-e1-e2-e3", "standard", 7),
    ("GENERAL", "l-e4", "standard", 2),
    ("GENERAL", "3l-e1-e2-e3-e4", "standard", 6),
    ("P2", "l-e4", "curve", 2),
    ("P2", "2l-e1-e2-e3-e4", "curve", 3),
    ("P3", "2l-e1-e2-e3-e4", "curve", 4),
    ("P3", "2l-e1-2e2-2e3-e4", "curve", 3),
    ("P5", "2l-e2-e3-2e4", "curve", 4),
)


def _check_h0_goldens():
    bad = []
    for cfg_name, label, basis, expected in H0_GOLDENS:
        cfg = get_configuration(cfg_name)
        value = h0(parse_class_label(label, cfg, basis), cfg)
        if value != expected:
            bad.append(f"h0({label}@{cfg_name}) = {value} != {expected}")
    extra = (h0(ZERO, GENERAL), h0(-E[0], GENERAL))
    if extra != (1, 0):
        bad.append(f"h0(0), h0(-e1) = {extra}")
    return (not bad), ("; ".join(bad) if bad else f"{len(H0_GOLDENS) + 2} h0 values")


def _check_effectivity():
    cases = (
        is_effective(DivisorClass((1, 1, -1, -1, -1)), GENERAL),
        is_effective(DivisorClass((1, -1, -1, 0, 0)), GENERAL),
        is_effective(DivisorClass((1, -1, -1, -1, 0)), get_configuration("P1")),
    )
    return _eq(cases, (False, True, True), "effectivity triples")


def _check_half_anticanonical_scan():
    candidates = half_anticanonical_candidates()
    complete = find_all_half_anticanonical_pencils()
    # One scan of the bound-1 box: the strict scan keeps the relaxed classes
    # whose doubled complement is effective.
    relaxed = find_half_anticanonical_pencils(1, require_effective_complement=False)
    strict = [d for d in relaxed if is_effective(MINUS_K - 2 * d, GENERAL)]
    ok = len(candidates) == 56 and complete == [] and strict == [] and L in relaxed
    return ok, (
        f"violations among the {len(candidates)} effective classes of degree <= 2: {len(complete)}; "
        f"at bound 1: {len(strict)}; relaxed bound-1 scan finds {len(relaxed)} movable classes"
    )


PULLBACK_GOLDENS = (
    # (config, representative in curve basis, expected pullback in curve basis)
    ("P4", (1, 0, 0, -1, -1), ("4/3", "-1/3", "-1/3", "-2/3", "-4/3")),
    ("P4", (0, 0, 0, 0, 1), ("1/3", "-1/3", "-1/3", "1/3", "2/3")),
    ("P3", (1, 0, 0, 0, -1), ("3/2", "-1/2", "-1", "-3/2", "-1")),
    ("P3", (1, -1, -1, -1, 0), ("1", "-1/3", "-2/3", "-1", "0")),
    ("P5", (1, 0, -1, -1, -1), ("5/4", "-1/4", "-1/2", "-1", "-3/2")),
)


def _check_pullbacks():
    bad = []
    for cfg_name, rep_curve, expected in PULLBACK_GOLDENS:
        cfg = get_configuration(cfg_name)
        rep = parse_class_label(
            "".join(f"{c:+d}{s}" for c, s in zip(rep_curve, ("l", "e1", "e2", "e3", "e4")) if c),
            cfg,
            "curve",
        )
        pulled = contraction.mumford_pullback(contraction.SigmaClass(rep, cfg))
        got = tuple(str(x) for x in to_curve_basis(pulled, cfg))
        want = tuple(str(Fraction(x)) for x in expected)
        if got != want:
            bad.append(f"pullback({rep_curve}@{cfg_name}) = {got} != {want}")
    return (not bad), ("; ".join(bad) if bad else f"{len(PULLBACK_GOLDENS)} displayed pullbacks")


SIGMA_GOLDENS = (
    ("P4", (0, 1, 0, 0, 0), (0, 1, 0, 0, 0), Fraction(-1, 3)),
    ("P4", (1, 0, 0, -1, 0), (0, 1, 0, 0, 0), Fraction(1, 3)),
    ("P4", (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), Fraction(2, 3)),
    ("P4", (0, 0, 0, 0, 1), (0, 1, 0, 0, 0), Fraction(1, 3)),
    ("P3", (1, 0, 0, 0, -1), (1, 0, 0, 0, -1), Fraction(1, 2)),
    ("P3", (1, -1, 0, 0, 0), (1, -1, 0, 0, 0), Fraction(2, 3)),
    ("P3", (0, 0, 0, 1, 0), (0, 0, 0, 1, 0), Fraction(1, 6)),
    ("P5", (1, 0, -1, 0, 0), (1, 0, -1, 0, 0), Fraction(3, 4)),
    ("P5", (0, 0, 0, 0, 1), (0, 0, 0, 0, 1), Fraction(0)),
    ("P5", (0, 0, 0, 0, 1), (0, 1, 0, 0, 0), Fraction(1, 2)),
    ("P5", (0, 1, 0, 0, 0), (0, 1, 0, 0, 0), Fraction(-1, 4)),
    ("P6", (1, -1, 0, 0, 0), (1, -1, 0, 0, 0), Fraction(4, 5)),
)


def _check_sigma_intersections():
    bad = []
    for cfg_name, rep_a, rep_b, expected in SIGMA_GOLDENS:
        cfg = get_configuration(cfg_name)
        a = contraction.SigmaClass(DivisorClass(rep_a), cfg)
        b = contraction.SigmaClass(DivisorClass(rep_b), cfg)
        value = contraction.sigma_intersect(a, b)
        if Fraction(value) != expected:
            bad.append(f"{rep_a}.{rep_b}@{cfg_name} = {value} != {expected}")
    return (not bad), ("; ".join(bad) if bad else f"{len(SIGMA_GOLDENS)} contracted intersections")


def _check_singularity_types():
    got = {name: contraction.singularity_types(cfg) for name, cfg in CONFIGURATIONS.items()}
    want = {
        "GENERAL": (),
        "P1": ("A1",),
        "P2": ("A1", "A1"),
        "P3": ("A1", "A2"),
        "P4": ("A2",),
        "P5": ("A3",),
        "P6": ("A4",),
    }
    return _eq(got, want, "contracted singularities")


def _check_group():
    group = symmetry.generate_group()
    gram_ok = all(g.preserves_gram() for g in group)
    # line_action raises KeyError if an element moves a line off the line set.
    every_line = list(range(len(curves.ALL_MINUS_ONE_CLASSES)))
    stable = all(sorted(p) == every_line for p in symmetry.line_action(group))
    orbit_sizes = sorted(len(o) for o in symmetry.line_orbits(group))
    ok = len(group) == 120 and gram_ok and stable and orbit_sizes == [10]
    return ok, (
        f"group order {len(group)} (S5 on 2-subsets of {{1..5}}), Gram preserved {gram_ok}, "
        f"line set stable {stable}, orbits {orbit_sizes}"
    )


def _check_transitivity():
    report = symmetry.line_transitivity_report()
    return report.all_hold(), (
        f"transitive {report.transitive_on_lines}, stabilizer {report.stabilizer_transitive_on_disjoint}, "
        f"pairs {report.transitive_on_disjoint_pairs}"
    )


def _check_cremona_identities():
    tau = symmetry.cremona_automorphism({1, 2, 3})
    got = (
        tau.apply(L).coeffs,
        tau.compose(tau).matrix == symmetry.IDENTITY.matrix,
        tau.apply(DivisorClass((2, -1, -1, -1, -1))).coeffs,
    )
    want = ((2, -1, -1, -1, 0), True, (1, 0, 0, 0, -1))
    return _eq(got, want, "quadratic involution identities")


def _check_transport():
    variant = covers.load_scenario(_scenario_path("bidouble_conic_variant.json"))[0]
    burniat = covers.load_scenario(_scenario_path("bidouble_burniat.json"))[0]
    tau = symmetry.cremona_automorphism({1, 2, 3})
    eta = symmetry.perm_automorphism((1, 2, 4, 3))
    step1 = symmetry.transport_cover_data(variant, tau)
    mid = tuple(c.coeffs for c in step1.branch_classes)
    want_mid = ((3, -3, -1, -1, 1), (3, 1, -3, -1, -1), (3, -1, 1, -1, -3))
    step2 = symmetry.transport_cover_data(step1, eta)
    final = tuple(c.coeffs for c in step2.branch_classes)
    want_final = ((3, -3, -1, 1, -1), (3, 1, -3, -1, -1), (3, -1, 1, -3, -1))
    ok = mid == want_mid and final == want_final and symmetry.same_family(step2, burniat)
    return ok, f"mid {mid == want_mid}, final {final == want_final}, families equal {symmetry.same_family(step2, burniat)}"


def _check_double_cover_scenarios():
    bad = []

    def invariants(name):
        return [
            (member, covers.double_cover_invariants(member))
            for member in covers.load_scenario(_scenario_path(name))
        ]

    [(_, inv)] = invariants("cover_disjoint_minus4_pair.json")
    if not (inv.chi == 2 and inv.k_sq == 14 and inv.pg_lower == 3 and inv.q_lower == 2
            and not covers.albanese_gate(inv.k_sq, inv.q_lower)):
        bad.append(f"disjoint pair: {inv}")

    [(_, inv)] = invariants("cover_fiber_plus_minus4.json")
    if not (inv.chi == 3 and inv.pg_lower >= 3 and inv.q_lower >= 1):
        bad.append(f"fiber plus (-4): {inv}")

    family = invariants("cover_single_minus4_family.json")
    integral = [m.label for m, inv in family if inv.chi_is_integral]
    if integral != ["branch_sq=-4"]:
        bad.append(f"(-4)-family integral members: {integral}")
    gate = [
        covers.albanese_gate(inv.k_sq, inv.q_lower)
        for m, inv in family
        if m.label == "branch_sq=-4"
    ]
    if gate != [False]:
        bad.append(f"(-4)-family gate: {gate}")

    family = invariants("cover_residual_minus2_family.json")
    integral = [m.label for m, inv in family if inv.chi_is_integral]
    if integral != ["residual_sq=0"]:
        bad.append(f"residual family integral members: {integral}")

    family = invariants("cover_fiber_plus_minus2_family.json")
    good = [(m.label, inv.chi, inv.pg_lower) for m, inv in family if inv.chi_is_integral]
    if good != [("residual_sq=0", 3, 3)]:
        bad.append(f"fiber plus residual family: {good}")

    [(_, inv)] = invariants("cover_torsion_etale.json")
    if not (inv.chi == 2 and inv.pg_lower == 2 and inv.q_lower == 1):
        bad.append(f"etale cover: {inv}")

    [(_, inv)] = invariants("cover_fiber_conic_family.json")
    if not (inv.chi == 4 and inv.pg_lower == 4 and inv.q_lower >= 1):
        bad.append(f"conic cover: {inv}")

    family = invariants("cover_fiber_double_conic.json")
    good = [(m.label, inv.chi, inv.pg_lower) for m, inv in family if inv.chi_is_integral]
    if good != [("residual_sq=-2", 3, 3)]:
        bad.append(f"double conic family: {good}")

    return (not bad), ("; ".join(bad) if bad else "8 double-cover scenarios")


def _check_bidouble_scenarios():
    bad = []
    for name in ("bidouble_burniat.json", "bidouble_conic_variant.json"):
        data = covers.load_scenario(_scenario_path(name))[0]
        inv = covers.bidouble_invariants(data)
        if (inv.pg, inv.q, inv.k_sq, inv.bicanonical_is_cover) != (0, 0, 5, True):
            bad.append(f"{name}: {inv}")
        if data.total() != 3 * MINUS_K:
            bad.append(f"{name}: branch total {data.total()} != -3K")
    return (not bad), ("; ".join(bad) if bad else "both bidouble data sets give (0, 0, 5, true)")


def _check_ramification_and_numerology():
    ram = (
        covers.ramification_check(-2, -2),
        covers.ramification_check(Fraction(-4, 3), Fraction(-4, 3)),
        covers.ramification_check(0, -2),
    )
    num = covers.surface_numerology(1, 5)
    gates = (covers.albanese_gate(16, 2), covers.albanese_gate(14, 2), covers.albanese_gate(12, 2))
    ok = ram == (False, False, True) and (num.euler, num.h2, num.max_disjoint_minus4) == (7, 5, 2) and gates == (True, False, False)
    return ok, f"ramification {ram}, numerology {(num.euler, num.h2, num.max_disjoint_minus4)}, gates {gates}"


def _check_table(case: str):
    rows = casework.enumerate_table(case)
    diff = casework.diff_tables(case, rows)
    lines = diff.summary_lines()
    if case == "p4":
        ok = len(rows) == 12 and len(diff.matched) == 12 and diff.clean
    elif case == "p5":
        flagged = [p for p in diff.published_only if "L^2 in {0, 2}" in p.violated]
        ok = (
            len(diff.matched) == 18
            and len(diff.corrected) == 1
            and len(diff.published_only) == 1
            and len(flagged) == 1
        )
    else:
        ok = len(diff.matched) == 43 and not diff.published_only and not diff.corrected
    caps = casework.CONSTRAINT_SYSTEMS[case].coefficient_caps()
    return ok, "; ".join(lines) + f"; coefficient caps {caps}"


def _check_preimage_search():
    a2 = casework.preimage_configuration_search(2, Fraction(-4, 3), 2)
    a3_or_disjoint = casework.preimage_configuration_search(3, -1, 1)
    empty = casework.preimage_configuration_search(0, 0, 1)
    a4 = casework.preimage_configuration_search(4, Fraction(16, 5), 2)
    a2_point = casework.preimage_configuration_search(2, Fraction(8, 3), 2)
    got = (
        tuple(f.components for f in a2),
        tuple(sorted(f.components for f in a3_or_disjoint)),
        tuple(f.components for f in empty),
        tuple(f.components for f in a4),
        tuple(f.components for f in a2_point),
    )
    want = (
        (("A2",),),
        (("A1", "A1"), ("A3",)),
        ((),),
        (("A4",),),
        (("A2",),),
    )
    return _eq(got, want, "feasible preimage patterns")


def _check_decompositions():
    lines = [c.cls for c in curves.minus_one_curves(GENERAL)]
    non_line_parts = _anticanonical_component_candidates()
    splittings = casework.decompose_class(MINUS_K, non_line_parts, 2, GENERAL)
    shapes = sorted(tuple(sorted(to_curve_basis(p, GENERAL) for p in s)) for s in splittings)
    want_shapes = sorted(
        [
            tuple(sorted([(1, 0, 0, 0, 0), (2, -1, -1, -1, -1)])),
            tuple(sorted([(1, -1, 0, 0, 0), (2, 0, -1, -1, -1)])),
            tuple(sorted([(1, 0, -1, 0, 0), (2, -1, 0, -1, -1)])),
            tuple(sorted([(1, 0, 0, -1, 0), (2, -1, -1, 0, -1)])),
            tuple(sorted([(1, 0, 0, 0, -1), (2, -1, -1, -1, 0)])),
        ]
    )
    pencil = casework.decompose_class(DivisorClass((1, 0, 0, 0, -1)), lines, 2, GENERAL)
    trivial = casework.decompose_class(ZERO, lines, 2, GENERAL)
    ok = shapes == want_shapes and len(pencil) == 3 and trivial == [()]
    return ok, f"anticanonical splittings {len(splittings)}, pencil splittings {len(pencil)}, empty target {trivial == [()]}"


def _anticanonical_component_candidates() -> list[DivisorClass]:
    """Effective classes of plane degree 1 or 2, movable against every negative
    curve, excluding the ten lines: the candidate reduced components of a
    reducible anticanonical divisor."""
    walls = curves.negative_curve_classes(GENERAL)
    lines = set(curves.ALL_MINUS_ONE_CLASSES)
    found = []
    for a in range(1, 3):
        for bs in itertools.product(range(-1, a + 1), repeat=4):
            d = DivisorClass._unchecked((a, *(-b for b in bs)))
            if d in lines:
                continue
            if any(intersect(d, w) < 0 for w in walls):
                continue
            if h0(d, GENERAL) >= 1:
                found.append(d)
    return found


def all_checks() -> list[Check]:
    return [
        ("lattice: Gram diagonal and anticanonical degree", _check_gram_diagonal),
        ("lattice: canonical class in every configuration", _check_canonical_class),
        ("lattice: curve-basis coordinates", _check_curve_basis_renderings),
        ("lattice: Riemann-Roch characteristic", _check_chi),
        ("curves: the ten lines and their incidence", _check_ten_lines),
        ("curves: (-1)-curve counts per configuration", _check_minus_one_counts),
        ("curves: (-2)-curve inventories and the length-4 chain", _check_minus_two_inventories),
        ("curves: fiber-pencil classification", _check_rulings),
        ("cohomology: published h0 values", _check_h0_goldens),
        ("cohomology: effectivity decisions", _check_effectivity),
        ("cohomology: no movable class with effective doubled complement", _check_half_anticanonical_scan),
        ("contraction: displayed fractional pullbacks", _check_pullbacks),
        ("contraction: intersection numbers downstairs", _check_sigma_intersections),
        ("contraction: singularity types", _check_singularity_types),
        ("symmetry: group order and invariance", _check_group),
        ("symmetry: transitivity on the ten lines", _check_transitivity),
        ("symmetry: quadratic involution identities", _check_cremona_identities),
        ("symmetry: cover-data transport matches the known family", _check_transport),
        ("covers: double-cover scenario invariants", _check_double_cover_scenarios),
        ("covers: bidouble invariants", _check_bidouble_scenarios),
        ("covers: ramification gate and Noether numerology", _check_ramification_and_numerology),
        ("casework: solution table p4", lambda: _check_table("p4")),
        ("casework: solution table p5", lambda: _check_table("p5")),
        ("casework: solution table p6", lambda: _check_table("p6")),
        ("casework: feasible singular-point preimages", _check_preimage_search),
        ("casework: anticanonical and pencil decompositions", _check_decompositions),
    ]


def run_verification(verbose: bool = False) -> tuple[bool, list[str]]:
    lines = []
    all_ok = True
    for name, check in all_checks():
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        lines.append(f"[{status}] {name}" + (f" -- {detail}" if verbose or not ok else ""))
    return all_ok, lines
