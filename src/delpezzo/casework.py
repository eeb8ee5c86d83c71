"""Exhaustive integer searches: the three chain-case solution tables, Gram
feasibility of singular-point preimages, and decompositions of a class into
effective parts.

Each table concerns the relation 2K = 2L + E + Z on the covering surface for
one singular configuration (P4, P5, P6), where Z = sum of positive multiples
of the (-2)-curves over the singular point.  The unknowns are the chain
coefficients of Z together with L^2, L.E and E^2; the constraint system pins
them down to finitely many rows.  The enumerator is the oracle of record;
bundled copies of the published rows are compared through an explicit diff
report, never by silent equality.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import ge, gt, le, lt

from .cohomology import h0
from .curves import component_labels
from .exact import bareiss, mat_vec
from .lattice import DivisorClass, SurfaceConfiguration, _FrozenRecord, _Record, intersect

TABLE_CASES = ("p4", "p5", "p6")


class SolutionRow(_FrozenRecord):
    """One admissible tuple: chain coefficients of Z plus the intersection data.
    Rows order by their field values, in field order."""

    __slots__ = ("z_coeffs", "l_sq", "l_dot_e", "e_sq", "e_dot_z")

    def __init__(self, z_coeffs: tuple[int, ...], l_sq: int, l_dot_e: int, e_sq: int, e_dot_z: int):
        self._init(z_coeffs, l_sq, l_dot_e, e_sq, e_dot_z)

    __lt__, __le__, __gt__, __ge__ = (_FrozenRecord._compare(op) for op in (lt, le, gt, ge))

    def as_tuple(self) -> tuple[int, ...]:
        return (*self.z_coeffs, self.l_sq, self.l_dot_e, self.e_sq, self.e_dot_z)

    @property
    def unknowns(self) -> tuple[int, ...]:
        """Row identity without the derived E.Z column."""
        return (*self.z_coeffs, self.l_sq, self.l_dot_e, self.e_sq)


class ConstraintSystem(_FrozenRecord):
    """The per-case constraint data.

    chain_length: number of Z-coefficients (2 for the A2 point of P4, 3 for
    the A3 point of P5, 4 for the A4 point of P6).  The quadratic identity is
    quad(z) = 10 - 2*L^2 - 2*L.E - E^2/2 with quad the A_k chain form
    sum(zi^2) - sum(zi*z_{i+1}); L.Z = 8 - 2*L^2 - L.E and
    E.Z = 4 - E^2 - 2*L.E are derived, E.Z strictly positive always, L.Z
    strictly positive only where the source derivation states it.  tie_break
    describes the symmetry-breaking inequality.
    """

    __slots__ = ("case", "chain_length", "strict_l_dot_z", "tie_break")

    def __init__(self, case: str, chain_length: int, strict_l_dot_z: bool, tie_break: str):
        self._init(case, chain_length, strict_l_dot_z, tie_break)

    L_SQ_RANGE = (0, 2)
    E_SQ_RANGE = (-2, -4, -6)

    @property
    def columns(self) -> list[str]:
        """Table column names, in `SolutionRow.as_tuple` order."""
        return [*"abcd"[: self.chain_length], "L_sq", "L_dot_E", "E_sq", "E_dot_Z"]

    def chain_quadratic(self, z: tuple[int, ...]) -> int:
        return sum(c * c for c in z) - sum(a * b for a, b in zip(z, z[1:]))

    def quadratic_rhs(self, l_sq: int, l_dot_e: int, e_sq: int) -> Fraction:
        return Fraction(10) - 2 * l_sq - 2 * l_dot_e - Fraction(e_sq, 2)

    def coefficient_caps(self) -> tuple[int, ...]:
        """Upper bound on each chain coefficient of any admissible row.

        quad(z) = z^T C z / 2 with C the A_n Cartan matrix, which is positive
        definite; on the ellipsoid z^T C z / 2 <= R the largest z_i is
        sqrt(2 R (C^-1)_ii) = sqrt(2 R adj_ii / det).  R is the largest
        right-hand side; it falls as L.E grows, so L.E = 0 attains it.
        """
        n = self.chain_length
        cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
        minors, adj = bareiss(cartan)
        rhs = max(self.quadratic_rhs(l_sq, 0, e_sq) for l_sq in self.L_SQ_RANGE for e_sq in self.E_SQ_RANGE)
        return tuple(math.isqrt(math.floor(2 * rhs * adj[i][i] / minors[-1])) for i in range(n))

    def l_dot_z(self, l_sq: int, l_dot_e: int) -> int:
        return 8 - 2 * l_sq - l_dot_e

    def e_dot_z(self, l_dot_e: int, e_sq: int) -> int:
        return 4 - e_sq - 2 * l_dot_e

    def chain_inequalities_hold(self, z: tuple[int, ...]) -> bool:
        """Z.theta_i <= 0 along the chain: 2*zi >= z_{i-1} + z_{i+1}."""
        n = len(z)
        for i in range(n):
            left = z[i - 1] if i > 0 else 0
            right = z[i + 1] if i < n - 1 else 0
            if 2 * z[i] < left + right:
                return False
        return True

    def tie_break_holds(self, z: tuple[int, ...]) -> bool:
        if self.case == "p4":
            return z[1] <= z[0] <= 2 * z[1]
        return z[0] >= z[-1]

    def min_bound_holds(self, z: tuple[int, ...]) -> bool:
        if self.case == "p4":
            return min(z) <= 8
        if self.case == "p5":
            return min(z) <= 10
        return True

    def violations(self, row: SolutionRow) -> list[str]:
        """Names of the constraints a row fails; empty means admissible."""
        out = []
        if row.l_sq not in self.L_SQ_RANGE:
            out.append("L^2 in {0, 2}")
        if row.e_sq not in self.E_SQ_RANGE:
            out.append("E^2 in {-2, -4, -6}")
        if row.l_dot_e < 0:
            out.append("L.E >= 0")
        if any(c < 1 for c in row.z_coeffs):
            out.append("Z coefficients positive")
        if len(row.z_coeffs) != self.chain_length:
            out.append(f"chain length {self.chain_length}")
            return out
        if row.e_dot_z != self.e_dot_z(row.l_dot_e, row.e_sq):
            out.append("E.Z = 4 - E^2 - 2*L.E")
        if self.e_dot_z(row.l_dot_e, row.e_sq) <= 0:
            out.append("E.Z > 0")
        ldz = self.l_dot_z(row.l_sq, row.l_dot_e)
        if (ldz <= 0) if self.strict_l_dot_z else (ldz < 0):
            out.append("L.Z > 0" if self.strict_l_dot_z else "L.Z >= 0")
        rhs = self.quadratic_rhs(row.l_sq, row.l_dot_e, row.e_sq)
        if self.chain_quadratic(row.z_coeffs) != rhs:
            out.append("chain quadratic = 10 - 2*L^2 - 2*L.E - E^2/2")
        if not self.chain_inequalities_hold(row.z_coeffs):
            out.append("Z.theta_i <= 0 chain inequalities")
        if not self.tie_break_holds(row.z_coeffs):
            out.append(self.tie_break)
        if not self.min_bound_holds(row.z_coeffs):
            out.append("min coefficient bound")
        return out


CONSTRAINT_SYSTEMS: dict[str, ConstraintSystem] = {
    "p4": ConstraintSystem("p4", 2, strict_l_dot_z=True, tie_break="b <= a <= 2b"),
    "p5": ConstraintSystem("p5", 3, strict_l_dot_z=False, tie_break="a >= c"),
    "p6": ConstraintSystem("p6", 4, strict_l_dot_z=False, tie_break="a >= d"),
}


def enumerate_table(case: str) -> tuple[SolutionRow, ...]:
    """All admissible rows for one case, in lexicographic order.

    Chain coefficient i runs over [1, cap_i] with the caps of
    `ConstraintSystem.coefficient_caps`: every row lies in the ellipsoid of
    the positive definite chain form, so the scan is exhaustive by
    construction (4 for p4, 5 for p5 and p6).
    """
    system = CONSTRAINT_SYSTEMS[case]
    ranges = [range(1, cap + 1) for cap in system.coefficient_caps()]
    # One pass over the capped box, bucketed by the chain-quadratic value;
    # each (L^2, L.E, E^2) cell then reads off its right-hand side.
    by_quadratic: dict[int, list[tuple[int, ...]]] = {}
    for z in itertools.product(*ranges):
        if not system.tie_break_holds(z):
            continue
        if not system.min_bound_holds(z):
            continue
        if not system.chain_inequalities_hold(z):
            continue
        by_quadratic.setdefault(system.chain_quadratic(z), []).append(z)
    rows = []
    for l_sq in system.L_SQ_RANGE:
        for e_sq in system.E_SQ_RANGE:
            for l_dot_e in range(0, 9):
                e_dot_z = system.e_dot_z(l_dot_e, e_sq)
                if e_dot_z <= 0:
                    continue
                ldz = system.l_dot_z(l_sq, l_dot_e)
                if (ldz <= 0) if system.strict_l_dot_z else (ldz < 0):
                    continue
                rhs = system.quadratic_rhs(l_sq, l_dot_e, e_sq)
                for z in by_quadratic.get(rhs, ()):
                    row = SolutionRow(z, l_sq, l_dot_e, e_sq, e_dot_z)
                    assert not system.violations(row), (row, system.violations(row))
                    rows.append(row)
    return tuple(sorted(rows))


# ---------------------------------------------------------------------------
# Published-table fixtures and the diff protocol
# ---------------------------------------------------------------------------

def load_printed_table(case: str) -> tuple[SolutionRow, ...]:
    """The published rows, bundled verbatim (including their misprints)."""
    import csv
    from importlib import resources

    system = CONSTRAINT_SYSTEMS[case]
    n = system.chain_length
    rows = []
    with resources.files("delpezzo.data").joinpath(f"tables/table_{case}.csv").open() as fh:
        for record in csv.DictReader(fh):
            values = [int(record[key]) for key in system.columns]
            rows.append(SolutionRow(tuple(values[:n]), *values[n:]))
    return tuple(rows)


class PublishedOnlyRow(_FrozenRecord):
    __slots__ = ("row", "violated")

    def __init__(self, row: SolutionRow, violated: tuple[str, ...]):
        self._init(row, violated)


class CorrectedRow(_FrozenRecord):
    """A printed row whose unknowns match an enumerated row but whose derived
    E.Z column disagrees with the identity E.Z = 4 - E^2 - 2*L.E."""

    __slots__ = ("printed", "enumerated")

    def __init__(self, printed: SolutionRow, enumerated: SolutionRow):
        self._init(printed, enumerated)


class TableDiff(_Record):
    __slots__ = ("case", "matched", "corrected", "published_only", "enumerator_only")

    def __init__(self, case: str, matched: list[SolutionRow] | None = None,
                 corrected: list[CorrectedRow] | None = None,
                 published_only: list[PublishedOnlyRow] | None = None,
                 enumerator_only: list[SolutionRow] | None = None):
        self.case = case
        self.matched = [] if matched is None else matched
        self.corrected = [] if corrected is None else corrected
        self.published_only = [] if published_only is None else published_only
        self.enumerator_only = [] if enumerator_only is None else enumerator_only

    @property
    def clean(self) -> bool:
        return not self.corrected and not self.published_only and not self.enumerator_only

    def summary_lines(self) -> list[str]:
        lines = [
            f"table {self.case}: {len(self.matched)} rows match exactly, "
            f"{len(self.corrected)} match up to the derived E.Z column, "
            f"{len(self.published_only)} only in the published table, "
            f"{len(self.enumerator_only)} only in the enumeration"
        ]
        for item in self.corrected:
            lines.append(
                f"  derived-column mismatch {item.printed.as_tuple()}: published E.Z = "
                f"{item.printed.e_dot_z}, identity E.Z = 4 - E^2 - 2*L.E gives {item.enumerated.e_dot_z}"
            )
        for item in self.published_only:
            lines.append(
                f"  published-only {item.row.as_tuple()}: violates {'; '.join(item.violated)}"
            )
        for row in self.enumerator_only:
            lines.append(
                f"  enumeration-only {row.as_tuple()}: satisfies every constraint, absent from the published table"
            )
        return lines


def diff_tables(case: str, enumerated: tuple[SolutionRow, ...] | None = None) -> TableDiff:
    """Symmetric-difference report between the enumeration and the published rows."""
    system = CONSTRAINT_SYSTEMS[case]
    rows = tuple(enumerated if enumerated is not None else enumerate_table(case))
    printed = load_printed_table(case)
    by_tuple = {r.as_tuple(): r for r in rows}
    by_unknowns = {r.unknowns: r for r in rows}
    diff = TableDiff(case=case)
    explained_enum: set[SolutionRow] = set()
    for p in printed:
        if p.as_tuple() in by_tuple:
            diff.matched.append(p)
            explained_enum.add(by_tuple[p.as_tuple()])
        elif p.unknowns in by_unknowns and not [
            v for v in system.violations(p) if not v.startswith("E.Z = ")
        ]:
            partner = by_unknowns[p.unknowns]
            diff.corrected.append(CorrectedRow(printed=p, enumerated=partner))
            explained_enum.add(partner)
        else:
            diff.published_only.append(PublishedOnlyRow(row=p, violated=tuple(system.violations(p))))
    diff.enumerator_only = sorted(set(rows) - explained_enum)
    return diff


def rows_to_csv(case: str, rows: tuple[SolutionRow, ...]) -> str:
    lines = [",".join(CONSTRAINT_SYSTEMS[case].columns)]
    for row in rows:
        lines.append(",".join(str(x) for x in row.as_tuple()))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Feasible preimage configurations of a contracted point
# ---------------------------------------------------------------------------

class FeasibleConfiguration(_FrozenRecord):
    """An incidence pattern of (-2)-curves that can support a pullback with the
    requested self-intersection, with one witness per pattern.

    `components` are the ADE labels, e.g. ("A2",) or ("A1", "A1"), and
    `witness_pairings` the pairings E.theta_i of the witness.
    """

    __slots__ = ("components", "edges", "curve_count", "witness_pairings", "witness_e_sq",
                 "witness_coefficients")

    def __init__(self, components: tuple[str, ...], edges: tuple[tuple[int, int], ...], curve_count: int,
                 witness_pairings: tuple[int, ...], witness_e_sq: int,
                 witness_coefficients: tuple[Fraction, ...]):
        self._init(components, edges, curve_count, witness_pairings, witness_e_sq, witness_coefficients)


def _incidence_patterns(n: int):
    """Graphs on n nodes with 0/1 pairings whose (-2)-Gram G is negative
    definite, i.e. every leading minor of -G is positive; each comes with the
    adjugate and determinant of -G."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = tuple(p for p, b in zip(pairs, bits) if b)
        neg = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in edges:
            neg[i][j] = neg[j][i] = -1
        minors, adj = bareiss(neg)
        if all(m > 0 for m in minors):
            yield edges, adj, minors[-1]


@lru_cache(maxsize=None)
def _distinct_patterns(n: int):
    """The negative definite patterns on n nodes up to relabelling: for each
    (component labels, canonical edges) key, the first labelled graph of
    `_incidence_patterns` with that key, as (key, adjugate, determinant).
    The pairing box is symmetric under relabelling the nodes, so a relabelled
    graph is feasible exactly when its first labelling is."""
    out = {}
    for edges, adj, det in _incidence_patterns(n):
        key = (component_labels(n, edges), _canonical_edges(n, edges))
        out.setdefault(key, (key, adj, det))
    return tuple(out.values())


def preimage_configuration_search(chain_bound: int, target_sq: Fraction | int,
                                  pairing_bound: int) -> list[FeasibleConfiguration]:
    """Incidence patterns of at most `chain_bound` (-2)-curves that admit a
    class E with even E^2, pairings E.theta_i in [0, pairing_bound], and a
    pullback E + sum(x_i theta_i) orthogonal to every theta_i whose
    self-intersection equals `target_sq`.

    The x_i solve the orthogonality system, must all be positive (every curve
    genuinely occurs), and then (pullback)^2 = E^2 + sum(x_i * E.theta_i).
    """
    target = Fraction(target_sq)
    if target > 0 and target.denominator == 1:
        raise ValueError("the search is for non-positive or fractional targets")
    found: dict[tuple[tuple[str, ...], tuple[tuple[int, int], ...]], FeasibleConfiguration] = {}
    for n in range(0, chain_bound + 1):
        for key, adj, det in _distinct_patterns(n):
            for ks in itertools.product(range(0, pairing_bound + 1), repeat=n):
                # -G x = ks, so x = adj * ks / det with det > 0.
                ys = mat_vec(adj, ks)
                if any(y <= 0 for y in ys):
                    continue
                e_sq = target - Fraction(sum(y * k for y, k in zip(ys, ks)), det)
                if e_sq.denominator != 1 or int(e_sq) % 2 != 0:
                    continue
                found[key] = FeasibleConfiguration(
                    components=key[0],
                    edges=key[1],
                    curve_count=n,
                    witness_pairings=tuple(ks),
                    witness_e_sq=int(e_sq),
                    witness_coefficients=tuple(Fraction(y, det) for y in ys),
                )
                break
    return sorted(found.values(), key=lambda f: (f.curve_count, f.components, f.edges))


def _canonical_edges(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Edge set up to node relabeling (smallest lexicographic image)."""
    best = None
    for perm in itertools.permutations(range(n)):
        image = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in edges))
        if best is None or image < best:
            best = image
    return best if best is not None else ()


# ---------------------------------------------------------------------------
# Decomposition of a class into effective parts
# ---------------------------------------------------------------------------

def decompose_class(target: DivisorClass, parts: tuple[DivisorClass, ...] | list[DivisorClass],
                    max_parts: int, cfg: SurfaceConfiguration) -> list[tuple[DivisorClass, ...]]:
    """All multisets of `parts` (with repetition, size <= max_parts) whose sum
    is the target class."""
    pool = sorted(set(parts), key=lambda d: d.coeffs)
    for p in pool:
        if h0(p, cfg) < 1:
            raise ValueError(f"part {p} is not effective in {cfg}")
    results: list[tuple[DivisorClass, ...]] = []

    def search(remaining: DivisorClass, start: int, chosen: list[DivisorClass]):
        if remaining.is_zero():
            results.append(tuple(chosen))
            return
        if len(chosen) == max_parts:
            return
        for idx in range(start, len(pool)):
            part = pool[idx]
            # Effective parts have non-negative plane degree and the pool is
            # sorted by degree, so overshooting the degree ends the branch.
            if part.coeffs[0] > remaining.coeffs[0]:
                break
            chosen.append(part)
            search(remaining - part, idx, chosen)
            chosen.pop()

    search(target, 0, [])
    return sorted(results, key=lambda ms: tuple(d.coeffs for d in ms))
