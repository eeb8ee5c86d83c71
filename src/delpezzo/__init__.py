"""Exact-arithmetic divisor calculus on the degree-5 del Pezzo surface and its
weak degenerations: intersection theory, section counts, contractions,
lattice automorphisms, cover numerology, and the chain-case solution tables.

The public names below are imported on first use (PEP 562), so that
``import delpezzo`` loads no submodule and a caller pays only for the
modules it touches.  A resolved name is stored in the package namespace,
after which it is an ordinary attribute.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "lattice": (
        "CONFIGURATIONS",
        "GENERAL",
        "DivisorClass",
        "InternalFaultError",
        "QDivisorClass",
        "SurfaceConfiguration",
        "anticanonical_class",
        "canonical_class",
        "class_from_json",
        "class_to_json",
        "from_curve_basis",
        "get_configuration",
        "intersect",
        "parse_class_label",
        "riemann_roch_chi",
        "to_curve_basis",
    ),
    "curves": (
        "NegativeCurve",
        "incidence_graph",
        "minus_one_curves",
        "minus_two_curves",
        "ruling_classes",
    ),
    "cohomology": ("h0", "h0_with_trace", "is_effective", "find_half_anticanonical_pencils"),
    "contraction": ("SigmaClass", "mumford_pullback", "sigma_intersect", "singularity_types"),
    "symmetry": (
        "LatticeAutomorphism",
        "cremona_automorphism",
        "generate_group",
        "line_transitivity_report",
        "perm_automorphism",
        "same_family",
        "transport_cover_data",
    ),
    "covers": (
        "BidoubleData",
        "DoubleCoverScenario",
        "albanese_gate",
        "bidouble_invariants",
        "double_cover_invariants",
        "ramification_check",
        "surface_numerology",
    ),
    "casework": (
        "ConstraintSystem",
        "SolutionRow",
        "decompose_class",
        "diff_tables",
        "enumerate_table",
        "load_printed_table",
        "preimage_configuration_search",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli", "exact", "verify"))

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
