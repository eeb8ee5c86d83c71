"""h^0 of divisor classes via fixed-part reduction plus Riemann-Roch.

The reduction loop subtracts irreducible negative curves that pair negatively
with the class; such curves are fixed components and carry no sections, so h^0
is invariant along the loop.  On exit the class pairs >= 0 with every negative
curve.  These curves generate the Mori cone, so the class is nef, and h^0
equals chi (h^1 = h^2 = 0 for nef classes on a weak del Pezzo surface).  -K is
nef and big, so by the Hodge index theorem the only nef class of degree 0 is
0, where chi = 1 as well.
"""

from __future__ import annotations

import itertools

from .lattice import (
    MINUS_K,
    ZERO,
    DivisorClass,
    GENERAL,
    InternalFaultError,
    SurfaceConfiguration,
    _Record,
    anticanonical_class,
    intersect,
)
from .curves import ALL_MINUS_ONE_CLASSES, negative_curve_classes

REDUCTION_CAP = 10_000


class ReductionTrace(_Record):
    """Record of one fixed-part reduction: subtracted curves and the nef result."""

    __slots__ = ("start", "steps", "result", "value")

    def __init__(self, start: DivisorClass, steps: list[tuple[DivisorClass, int]] | None = None,
                 result: DivisorClass | None = None, value: int | None = None):
        self.start = start
        self.steps = [] if steps is None else steps
        self.result = result
        self.value = value


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def _reduce_to_nef(d: DivisorClass, cfg: SurfaceConfiguration, trace: ReductionTrace) -> DivisorClass | None:
    """Strip fixed negative curves; None means h^0 = 0 was detected."""
    walls = negative_curve_classes(cfg)
    for _ in range(REDUCTION_CAP):
        if intersect(d, MINUS_K) < 0:
            return None
        for wall in walls:
            pairing = intersect(d, wall)
            if pairing < 0:
                mult = _ceil_div(pairing, intersect(wall, wall))
                d = d - mult * wall
                trace.steps.append((wall, mult))
                break
        else:
            return d
    last = ", ".join(f"{mult}*({wall})" for wall, mult in trace.steps[-4:])
    raise InternalFaultError(
        f"reduction cap of {REDUCTION_CAP} steps exceeded from {trace.start}; last subtractions: {last}"
    )


def h0_with_trace(d: DivisorClass, cfg: SurfaceConfiguration) -> ReductionTrace:
    from .lattice import riemann_roch_chi

    trace = ReductionTrace(start=d)
    nef = _reduce_to_nef(d, cfg, trace)
    if nef is None:
        trace.value = 0
        return trace
    if intersect(nef, MINUS_K) == 0 and not nef.is_zero():
        raise InternalFaultError(f"nef class {nef} of degree 0 reduced from {d} is not zero")
    trace.result = nef
    trace.value = riemann_roch_chi(nef)
    return trace


def h0(d: DivisorClass, cfg: SurfaceConfiguration) -> int:
    value = h0_with_trace(d, cfg).value
    assert value is not None
    return value


def is_effective(d: DivisorClass, cfg: SurfaceConfiguration) -> bool:
    return h0(d, cfg) >= 1


def half_anticanonical_candidates() -> tuple[DivisorClass, ...]:
    """Every effective class D on the general configuration with D.(-K) <= 2:
    0, the ten lines, and the sums of two lines (56 distinct classes).

    A class D with h^0(D) > 1 and -K - 2D effective has D.(-K) <= 2, since
    -K is nef: 0 <= (-K).(-K - 2D) = 5 - 2 D.(-K).  On the general
    configuration -K is ample, so an effective D of degree D.(-K) <= 2 is a
    sum of at most two irreducible curves C of degree 1, or one of degree 2.
    Adjunction gives C^2 = 2g - 2 + C.(-K) and the Hodge index theorem
    5 C^2 <= (C.(-K))^2: degree 1 forces C^2 = -1, a line; degree 2 forces
    C^2 = 0, a conic, which is a fiber of a ruling and so the sum of the two
    meeting lines of a reducible fiber.  Hence this list is complete with no
    coefficient bound.
    """
    lines = ALL_MINUS_ONE_CLASSES
    sums = {a + b for i, a in enumerate(lines) for b in lines[i:]}
    return (ZERO, *lines, *sorted(sums, key=lambda d: d.coeffs))


def find_all_half_anticanonical_pencils() -> list[DivisorClass]:
    """Classes d on the general configuration with h^0(d) > 1 and -K - 2d
    effective, over all of the lattice; expected empty.  Complete because every
    such d is among `half_anticanonical_candidates`."""
    return [
        d for d in half_anticanonical_candidates()
        if h0(d, GENERAL) > 1 and is_effective(MINUS_K - 2 * d, GENERAL)
    ]


def find_half_anticanonical_pencils(coefficient_bound: int,
                                    require_effective_complement: bool = True) -> list[DivisorClass]:
    """Scan the general configuration for classes d with h^0(d) > 1 whose double
    is dominated by the anticanonical class (-K - 2d effective).

    An exhaustive scan over |coefficients| <= bound; expected empty.  With
    `require_effective_complement` off it lists every d with h^0(d) > 1 in
    the box.  `find_all_half_anticanonical_pencils` decides the statement
    without a bound.
    """
    if coefficient_bound < 1:
        raise ValueError("coefficient bound must be positive")
    minus_k = anticanonical_class(GENERAL)
    violations = []
    span = range(-coefficient_bound, coefficient_bound + 1)
    for coeffs in itertools.product(span, repeat=5):
        d = DivisorClass._unchecked(coeffs)
        if h0(d, GENERAL) <= 1:
            continue
        if not require_effective_complement or is_effective(minus_k - 2 * d, GENERAL):
            violations.append(d)
    return violations
