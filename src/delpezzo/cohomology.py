"""h^0 of divisor classes via fixed-part reduction plus Riemann-Roch.

The reduction loop subtracts irreducible negative curves that pair negatively
with the class; such curves are fixed components and carry no sections, so h^0
is invariant along the loop.  On exit the class pairs >= 0 with every negative
curve.  These curves generate the Mori cone, so the class is nef, and h^0
equals chi (h^1 = h^2 = 0 for nef classes on a weak del Pezzo surface).  -K is
nef and big, so by the Hodge index theorem the only nef class of degree 0 is
0, where chi = 1 as well.

The loop runs on plain ints: each configuration's walls are cached once as
integer pairing rows, and no class is built per step.  The trace records the
same (wall, multiple) steps as a loop over `DivisorClass` arithmetic would.
"""

from __future__ import annotations

from functools import lru_cache

from .lattice import (
    MINUS_K,
    ZERO,
    DivisorClass,
    GENERAL,
    InternalFaultError,
    SurfaceConfiguration,
    _Record,
    intersect,
    riemann_roch_chi,
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


@lru_cache(maxsize=None)
def _wall_rows(cfg: SurfaceConfiguration) -> tuple[tuple[DivisorClass, int, int, int, int, int, int], ...]:
    """Each negative curve w in `negative_curve_classes` order, with its
    pairing row (w0, -w1, -w2, -w3, -w4) and -w^2."""
    return tuple(
        (wall, wall.coeffs[0], *(-c for c in wall.coeffs[1:]), -intersect(wall, wall))
        for wall in negative_curve_classes(cfg)
    )


def _reduce_to_nef(d: DivisorClass, cfg: SurfaceConfiguration, trace: ReductionTrace) -> DivisorClass | None:
    """Strip fixed negative curves; None means h^0 = 0 was detected.

    Runs on the five coefficients as ints.  Each step pairs them with the
    cached wall rows and subtracts ceil(D.w / w^2) times the first wall w with
    D.w < 0: with the row (r0, ..., r4) = (w0, -w1, ..., -w4), D - m*w is
    (c0 - m*r0, c1 + m*r1, ..., c4 + m*r4)."""
    rows = _wall_rows(cfg)
    steps = trace.steps
    c0, c1, c2, c3, c4 = d.coeffs
    for _ in range(REDUCTION_CAP):
        if 3 * c0 + c1 + c2 + c3 + c4 < 0:
            return None
        for wall, r0, r1, r2, r3, r4, minus_square in rows:
            pairing = c0 * r0 + c1 * r1 + c2 * r2 + c3 * r3 + c4 * r4
            if pairing < 0:
                mult = -(pairing // minus_square)
                c0 -= mult * r0
                c1 += mult * r1
                c2 += mult * r2
                c3 += mult * r3
                c4 += mult * r4
                steps.append((wall, mult))
                break
        else:
            return DivisorClass._unchecked((c0, c1, c2, c3, c4)) if steps else d
    last = ", ".join(f"{mult}*({wall})" for wall, mult in steps[-4:])
    raise InternalFaultError(
        f"reduction cap of {REDUCTION_CAP} steps exceeded from {trace.start}; last subtractions: {last}"
    )


def h0_with_trace(d: DivisorClass, cfg: SurfaceConfiguration) -> ReductionTrace:
    """h^0(d) with its fixed-part reduction.  A `QDivisorClass` is read as the
    integer class with the same coefficients; a non-integral one raises
    ValueError."""
    if not isinstance(d, DivisorClass):
        d = DivisorClass(d.coeffs)
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


def find_half_anticanonical_pencils(coefficient_bound: int) -> list[DivisorClass]:
    """The classes of `find_all_half_anticanonical_pencils` with every
    |coefficient| <= bound, in coefficient order; expected empty.

    No box scan is needed: -K is nef, so a d with -K - 2d effective has
    0 <= (-K).(-K - 2d) = 5 - 2 d.(-K), hence d.(-K) <= 2, and every such d
    is among `half_anticanonical_candidates`.
    """
    if coefficient_bound < 1:
        raise ValueError("coefficient bound must be positive")
    return sorted(
        (d for d in find_all_half_anticanonical_pencils()
         if max(map(abs, d.coeffs)) <= coefficient_bound),
        key=lambda d: d.coeffs,
    )
