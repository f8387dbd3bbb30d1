"""Support bounds for minimal differential polynomials, as lattice geometry.

Given the degrees d = deg g_1 and D = max_{i >= 2} deg g_i of a system and
the differential order nu, the admissible exponent vectors (e_0, ..., e_nu)
of the minimal polynomial — e_k the power of x1^(k) — satisfy an explicit
family of integer linear inequalities.  This module builds those
inequalities, enumerates or counts their nonnegative lattice points, and
counts lattice points of convex hulls exactly (used to compare a computed
support against its Newton polytope).

Everything here is exact integer/rational arithmetic; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .poly import VarSpace


@dataclass(frozen=True)
class SupportBound:
    """A system c . e <= b of inequalities on exponent vectors e in Z_{>=0}^{nu+1}."""

    nu: int
    inequalities: tuple

    def __post_init__(self):
        ineqs = tuple((tuple(c), int(b)) for c, b in self.inequalities)
        object.__setattr__(self, "inequalities", ineqs)
        for c, _ in ineqs:
            if len(c) != self.nu + 1:
                raise ValueError(
                    f"coefficient vector {c} does not match nu = {self.nu}"
                )

    def satisfies(self, point) -> bool:
        return all(
            sum(ci * ei for ci, ei in zip(c, point)) <= b
            for c, b in self.inequalities
        )

    def render(self) -> str:
        """Human-readable listing, one inequality per line: ``e0 + 2*e1 <= 6``."""
        lines = []
        for c, b in self.inequalities:
            terms = []
            for i, ci in enumerate(c):
                if ci == 0:
                    continue
                terms.append(f"e{i}" if ci == 1 else f"{ci}*e{i}")
            lines.append(" + ".join(terms) + f" <= {b}")
        return "\n".join(lines)

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class LatticeSet:
    """Lattice points of a support bound, sorted ascending graded-lex."""

    nu: int
    points: tuple

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point):
        return tuple(point) in set(self.points)


def _weight(d: int, D: int, k: int) -> int:
    return d + (k - 1) * (D - 1)


def bound_inequalities(d: int, D: int, nu: int) -> SupportBound:
    """The support bound for degrees (d, D) at differential order nu.

    For d <= D a single inequality suffices:

        e_0 + sum_k (d + (k-1)(D-1)) e_k  <=  prod_k (d + (k-1)(D-1)).

    For d > D there is one inequality per shift l = 0..nu-1, whose
    coefficients grow at rate D-1 up to e_l and at rate d-1 beyond it.
    """
    if d < 1 or D < 1:
        raise ValueError(f"degrees must be positive (got d={d}, D={D})")
    if nu < 1:
        raise ValueError(f"order must be positive (got nu={nu})")
    if d <= D:
        coeffs = (1,) + tuple(_weight(d, D, k) for k in range(1, nu + 1))
        rhs = prod(_weight(d, D, k) for k in range(1, nu + 1))
        return SupportBound(nu, ((coeffs, rhs),))
    ineqs = []
    for ell in range(nu):
        coeffs = [k * (D - 1) + 1 for k in range(ell + 1)]
        coeffs += [i * (d - 1) + ell * (D - 1) + 1 for i in range(1, nu - ell + 1)]
        rhs = prod(_weight(d, D, k) for k in range(1, ell + 1)) * prod(
            i * (d - 1) + ell * (D - 1) + 1 for i in range(1, nu - ell + 1)
        )
        ineqs.append((tuple(coeffs), rhs))
    return SupportBound(nu, tuple(ineqs))


def scalar_bound(d: int) -> SupportBound:
    """The n = 1 degeneration: a single equation x' = g(x) gives e0 + d*e1 <= d."""
    if d < 1:
        raise ValueError(f"degree must be positive (got d={d})")
    return SupportBound(1, (((1, d), d),))


def general_bound_inequality(d: int, D: int, nu: int, omega) -> SupportBound:
    """The weighted support inequality for an arbitrary weight vector omega.

    For nonnegative integer weights (w_1, ..., w_nu) the exponent vectors
    satisfy

        e_0 + sum_i w_i e_i  <=  prod_k max(w_k,
                                            d + (k-1)(D-1),
                                            max_{1<=j<k} d + (k-1)(w_j-1)/j).

    The inner maxima are taken over exact rationals; since the left-hand
    side is an integer, the product may be floored without losing any
    admissible point.  Both families used by ``bound_inequalities`` are
    special cases of this inequality.
    """
    if d < 1 or D < 1:
        raise ValueError(f"degrees must be positive (got d={d}, D={D})")
    omega = tuple(int(w) for w in omega)
    if len(omega) != nu:
        raise ValueError(f"omega has {len(omega)} entries, expected nu = {nu}")
    if any(w < 0 for w in omega):
        raise ValueError("omega entries must be nonnegative")
    rhs = Fraction(1)
    for k in range(1, nu + 1):
        best = Fraction(max(omega[k - 1], _weight(d, D, k)))
        for j in range(1, k):
            best = max(best, Fraction(d * j + (k - 1) * (omega[j - 1] - 1), j))
        rhs *= best
    coeffs = (1,) + omega
    return SupportBound(nu, ((coeffs, rhs.numerator // rhs.denominator),))


# ---------------------------------------------------------------------------
# lattice enumeration


def _scan_lattice(bound: SupportBound, collect):
    """Walk all nonnegative lattice points of the bound.

    ``collect`` receives each point as a tuple; when it is None, only the
    count is accumulated, and the innermost coordinate is compressed to a
    single range computation instead of a loop.
    """
    ineqs = bound.inequalities
    nv = bound.nu + 1
    for i in range(nv):
        if all(c[i] <= 0 for c, _ in ineqs):
            raise ValueError(
                f"coordinate e{i} is unbounded: no inequality has a positive "
                f"coefficient there"
            )
    if any(b < 0 for _, b in ineqs):
        return 0
    count = 0
    point = [0] * nv
    last = nv - 1

    def ceiling(i, slacks):
        return min(s // c[i] for (c, _), s in zip(ineqs, slacks) if c[i] > 0)

    def walk(i, slacks):
        nonlocal count
        hi = ceiling(i, slacks)
        if i == last:
            if collect is None:
                count += hi + 1
            else:
                for v in range(hi + 1):
                    point[i] = v
                    collect(tuple(point))
                point[i] = 0
            return
        for v in range(hi + 1):
            point[i] = v
            walk(i + 1, tuple(s - c[i] * v for (c, _), s in zip(ineqs, slacks)))
        point[i] = 0

    walk(0, tuple(b for _, b in ineqs))
    return count


@lru_cache(maxsize=8)
def enumerate_lattice(bound: SupportBound) -> LatticeSet:
    """All admissible exponent vectors, ascending graded-lex.

    Remembered per bound: every f_min found on one bound then keys its
    terms by the lattice's own exponent tuples instead of holding copies.
    """
    points = []
    _scan_lattice(bound, points.append)
    key = VarSpace.deriv(bound.nu).sort_key
    points.sort(key=key)
    return LatticeSet(bound.nu, tuple(points))


def count_lattice(bound: SupportBound) -> int:
    """Number of admissible exponent vectors, without materializing them."""
    return _scan_lattice(bound, None)


# ---------------------------------------------------------------------------
# exact lattice counting for convex hulls


def hull_lattice_count(points, candidates=None) -> int:
    """Number of integer points in the convex hull of ``points``.

    ``candidates`` optionally restricts the search to a known superset of
    the hull's lattice points (e.g. the lattice of a support bound that
    contains every input point); otherwise the bounding box is scanned.
    Membership of each candidate is decided by an exact rational phase-1
    simplex, so the count carries no numerical error.
    """
    pts = [tuple(int(x) for x in p) for p in points]
    if not pts:
        return 0
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("points must share one dimension")
    point_set = set(pts)
    if candidates is None:
        lo = [min(p[i] for p in pts) for i in range(dim)]
        hi = [max(p[i] for p in pts) for i in range(dim)]

        def boxwalk(i, prefix):
            if i == dim:
                yield tuple(prefix)
                return
            for v in range(lo[i], hi[i] + 1):
                yield from boxwalk(i + 1, prefix + [v])

        candidates = boxwalk(0, [])
    count = 0
    for q in candidates:
        q = tuple(int(x) for x in q)
        if q in point_set or _in_convex_hull(q, pts):
            count += 1
    return count


def _in_convex_hull(q, pts) -> bool:
    """Exact test: is q a convex combination of pts?

    Phase-1 simplex on { sum_i l_i p_i = q, sum_i l_i = 1, l >= 0 } with
    Bland's rule, over Fractions.  All data is nonnegative, so the
    artificial basis is immediately feasible.
    """
    if any(x < 0 for x in q):
        return False  # hull of nonnegative points stays nonnegative
    dim = len(q)
    rows = dim + 1
    ncols = len(pts)
    # tableau columns: one per candidate vertex; rhs kept separately
    table = [[Fraction(pts[j][r]) for j in range(ncols)] for r in range(dim)]
    table.append([Fraction(1)] * ncols)
    rhs = [Fraction(x) for x in q] + [Fraction(1)]
    basis = [None] * rows  # None = artificial variable still basic

    def varidx(r):
        # artificials rank after the structural variables (Bland ordering)
        return basis[r] if basis[r] is not None else ncols + r

    while True:
        # reduced cost of column j: sum of its entries in artificial rows
        entering = None
        for j in range(ncols):
            cost = sum(table[r][j] for r in range(rows) if basis[r] is None)
            if cost > 0:
                entering = j
                break
        if entering is None:
            break
        ratio = None
        pivot_row = None
        for r in range(rows):
            a = table[r][entering]
            if a > 0:
                t = rhs[r] / a
                if ratio is None or t < ratio or (
                    t == ratio and varidx(r) < varidx(pivot_row)
                ):
                    ratio = t
                    pivot_row = r
        if pivot_row is None:
            # a positive reduced cost forces a positive entry in some
            # artificial row, so this is unreachable; bail out safely
            break
        piv = table[pivot_row][entering]
        table[pivot_row] = [v / piv for v in table[pivot_row]]
        rhs[pivot_row] /= piv
        for r in range(rows):
            if r != pivot_row and table[r][entering]:
                f = table[r][entering]
                table[r] = [v - f * w for v, w in zip(table[r], table[pivot_row])]
                rhs[r] -= f * rhs[pivot_row]
        basis[pivot_row] = entering
    residual = sum(rhs[r] for r in range(rows) if basis[r] is None)
    return residual == 0
