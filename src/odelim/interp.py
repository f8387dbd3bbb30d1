"""Evaluation–interpolation engine for minimal differential polynomials.

The pipeline, per prime p:

1. sample integer points in [-R, R]^n (distinct, deterministic per seed);
2. get the jet (x1, x1', ..., x1^(nu)) of every trajectory mod p by
   evaluating the Lie iterates L^k(x1), built once per system and turned
   into integer forms (poly.IntegerForm) once per run, mod p at all
   points at once (ode.jet);
3. evaluate every admissible monomial at every jet -> evaluation matrix N,
   each column as its parent column (one exponent lowered by one) times
   one jet, and only an orphan column without a parent in the support as
   a product of powers; the plan of parents is built once per support
   (_assembly_plan), and each run of columns is one gather per block of
   128 points;
4. eliminate left-to-right in graded-lex column order (odelim.linalg);
   the first pivotless column is the leading monomial of the minimal
   relation and its kernel vector is the relation itself mod p (degree
   filtration: a nontrivial kernel appears first in the lowest
   total-degree stratum, and there it must be one-dimensional).

Across primes, coefficient vectors are pinned to pivot = 1 at the shared
leading monomial and combined by CRT.  Each coordinate is then a_i/c with
one denominator c, the leading integer coefficient of f_min; when
reconstructing each coordinate alone fails, the vector is reconstructed
over that common denominator (arith.vector_reconstruct).  Once c is
known, each numerator needs only bits(a_i) plus a 16-bit margin instead
of 2 * max(bits(a_i), bits(c_i)) + 1, so the run takes fewer primes.  It
stops at the first reconstruction that a fresh-prime jet probe confirms.
That is enough: a candidate on the found support with coefficient 1 at
the first pivotless column, which vanishes on the trajectories, differs
from f_min by a relation of lower leading monomial, so it is f_min.  The
support is shrunk to the exact support observed at the first prime, so
later primes solve a much smaller system whenever the theoretical bound
is slack.

Self-correction: an empty kernel means the assumed differential order is
too small (escalate), a persistently 2-dimensional first stratum means it
is too large (lower it), and an empty kernel on the shrunk support means
the first prime lied about the support (restart with a two-prime
consensus).
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .arith import (
    CrtAccumulator,
    crt_absorb,
    fork_rng,
    is_prime,
    random_prime,
    rational_reconstruct,
    vector_reconstruct,
)
from .errors import BadPrimeError, ComputationError, KernelAnomalyError
from .linalg import MAX_PRIME_BITS, _echelon, _kernel_vector, _reduce
from .ode import OdeSystem, jet, lie_iterates, order_nu
from .poly import QQ, IntegerForm, SparsePoly, VarSpace
from .support import LatticeSet, bound_inequalities, enumerate_lattice, scalar_bound

log = logging.getLogger("odelim.interp")

_POINT_RETRIES = 3       # point redraws per prime before giving up on it
_EXTRA_ROWS = 8          # rows beyond the support in a shrunk solve
_PROBE_POINTS = 32       # points of a membership probe
_ANOMALY_PRIMES = 2      # anomalous full-bound primes before doubting the order
_RESTART_TRIES = 8       # primes allowed while seeking a support consensus
_PRIME_MISSES = 64       # draws of used or excluded primes before a search in order
_POOL_MIN_COLS = 2048    # narrowest support whose CRT-phase solves go to the pool
_POINT_BLOCK = 128       # points per row block of the assembly


@dataclass(frozen=True)
class SampleConfig:
    """Tunables for the interpolation pipeline.

    radius is the half-width of the integer sampling box; seed drives every
    random choice (points, primes, probes) through labeled forks, so equal
    seeds give equal runs; prime_bits is the size of the working primes,
    at most linalg.MAX_PRIME_BITS (23) so that the echelon's float64
    products stay exact;
    max_primes caps the primes that enter the CRT; nu_override skips
    order detection; threads is the most per-prime solves run at once,
    the one level of parallelism.  Only a CRT phase whose support has at
    least interp._POOL_MIN_COLS (2048) columns runs them in a pool; a
    narrower one solves on the calling thread whatever threads is, since
    two threads of such short, GIL-bound solves ran slower than one.
    While an elimination wider than 128 columns runs, numpy's OpenBLAS is
    pinned to one thread and restored afterwards (see linalg),
    process-wide, so numpy calls on other threads run on one BLAS thread
    meanwhile.
    """

    radius: int = 1893
    seed: int = 0
    prime_bits: int = 23
    max_primes: int = 200
    nu_override: int | None = None
    threads: int = 1

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("sampling radius must be at least 1")
        if not 16 <= self.prime_bits <= MAX_PRIME_BITS:
            raise ValueError(f"prime_bits must lie in [16, {MAX_PRIME_BITS}]")
        if self.max_primes < 1:
            raise ValueError("max_primes must be positive")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


@dataclass(frozen=True)
class Verification:
    """How strongly a relation has been checked, and whether it passed.

    The record of ``EliminationResult.verified`` and of verify's
    check_exact and check_probabilistic.  trials counts the executed
    random trials (0 for an exact check); failure_bound bounds the chance
    that a non-member passes; outcome is None when nothing was checked.
    """

    kind: str = "unverified"  # unverified | probabilistic | exact
    trials: int | None = None
    failure_bound: Fraction | None = None
    outcome: bool | None = None


@dataclass(frozen=True)
class EliminationResult:
    f_min: SparsePoly
    nu: int
    primes_used: tuple
    support_size: int
    verified: Verification = Verification()


@dataclass(frozen=True)
class EvalMatrix:
    """Rows = sample points, columns = monomials (ascending graded-lex).

    ``data`` holds the residues mod p as int64; minimal_element eliminates
    it in place.
    """

    data: np.ndarray
    p: int

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


# ---------------------------------------------------------------------------
# sampling


def _draw_points(rng, count: int, n: int, radius: int):
    """``count`` distinct points of [-radius, radius]^n drawn from ``rng``."""
    span = 2 * radius + 1
    if span**n < count:
        raise ComputationError(
            f"cannot place {count} distinct points in a box of {span ** n}; "
            f"increase the sampling radius"
        )
    seen = set()
    out = []
    rounds = 0
    while len(out) < count:
        pt = tuple(rng.randint(-radius, radius) for _ in range(n))
        if pt in seen:
            rounds += 1
            if rounds > 200 * count:
                raise ComputationError(
                    "sampling keeps colliding; increase the sampling radius"
                )
            continue
        seen.add(pt)
        out.append(pt)
    return out


# ---------------------------------------------------------------------------
# matrix assembly


@lru_cache(maxsize=16)
def _assembly_plan(nu: int, points: tuple):
    """How _eval_matrix builds the columns of ``points``: (orphans, runs).

    The parent of a column is its monomial with one exponent k lowered by
    one, when ``points`` holds it before the column (always, in graded
    order); the column is then its parent column times jet k.  ``runs``
    lists (c0, c1, k, parents): columns [c0, c1), of one degree, are the
    columns ``parents`` (a slice when they are consecutive, else an index
    array) times jet k.  Each run takes the k that reaches furthest from
    its first column, so there are few runs: 59 for the 1292 columns of
    the (3,2,2) bound.  ``orphans`` lists (column, exponents) of the
    columns without a parent: the constant monomial and the gaps of a
    shrunk support.  Remembered per support, as enumerate_lattice is per
    bound, so the primes of a run build it once.
    """
    E = np.array(points, dtype=np.int64).reshape(len(points), nu + 1)
    n = len(E)
    # exponent vectors as mixed-radix integers, looked up by bisection;
    # Python ints in the rare case that they overflow int64
    radices = [r + 1 for r in E.max(axis=0, initial=0).tolist()]
    dtype = np.int64 if math.prod(radices) < 1 << 63 else object
    weights = np.array([math.prod(radices[:k]) for k in range(nu + 1)], dtype=dtype)
    codes = E.astype(dtype) @ weights
    order = np.argsort(codes)
    ordered = codes[order]
    # column i, exponent k: the parent column, and whether it is in points
    lower = codes[:, None] - weights
    at = np.minimum(np.searchsorted(ordered, lower), n - 1)
    parent = order[at]
    has = (E > 0) & (ordered[at] == lower) & (parent < np.arange(n)[:, None])
    # a run by k goes on to the next column when that has a parent by k
    # too and the same degree; reach[i][k] is the end of the run from i
    degrees = E.sum(axis=1)
    goes_on = np.zeros_like(has)
    goes_on[:-1] = has[:-1] & has[1:] & (degrees[1:] == degrees[:-1])[:, None]
    stop = np.where(goes_on, n, np.arange(n)[:, None])
    reach = np.where(has, np.minimum.accumulate(stop[::-1], axis=0)[::-1] + 1, 0)
    ends, best = reach.max(axis=1), reach.argmax(axis=1)
    orphans, runs = [], []
    col = 0
    while col < n:
        end = int(ends[col])
        if end == 0:
            orphans.append((col, points[col]))
            col += 1
            continue
        k = int(best[col])
        cols = parent[col:end, k]
        if cols[-1] - cols[0] == end - col - 1:
            runs.append((col, end, k, slice(int(cols[0]), int(cols[-1]) + 1)))
        else:
            runs.append((col, end, k, cols.copy()))
        col = end
    return orphans, runs


def _eval_matrix(forms: list, p: int, S: LatticeSet, points) -> EvalMatrix:
    """Evaluation matrix N[j][i] = (i-th monomial) at (jet of j-th point).

    The columns follow _assembly_plan(S): an orphan column is a product
    of powers of the jets, and each run of columns is one gather of its
    parent columns times one jet, reduced mod p.  N is built in place,
    _POINT_BLOCK rows at a time, so that no temporary is wider than one
    run or taller than 128 points.
    """
    pts = np.array(points, dtype=np.int64)
    m = pts.shape[0]
    jets = np.array(jet(forms, pts.T, p))
    orphans, runs = _assembly_plan(S.nu, tuple(S.points))
    top = [max((e[k] for _, e in orphans), default=0) for k in range(S.nu + 1)]
    N = np.empty((m, len(S.points)), dtype=np.int64)
    for r0 in range(0, m, _POINT_BLOCK):
        block = N[r0 : r0 + _POINT_BLOCK]
        block_jets = jets[:, r0 : r0 + _POINT_BLOCK]
        powers = []
        for k in range(S.nu + 1):
            row = [None, block_jets[k]]
            for _ in range(1, top[k]):
                row.append(row[-1] * block_jets[k] % p)
            powers.append(row)
        for col, e in orphans:
            acc = None
            for k, ek in enumerate(e):
                if ek:
                    acc = powers[k][ek] if acc is None else acc * powers[k][ek] % p
            block[:, col] = 1 if acc is None else acc
        columns = block_jets[:, :, None]
        for c0, c1, k, parents in runs:
            out = block[:, c0:c1]
            np.multiply(block[:, parents], columns[k], out=out)
            _reduce(out, p)
    return EvalMatrix(N, p)


# ---------------------------------------------------------------------------
# kernels (the elimination itself lives in linalg)


def minimal_element(N: EvalMatrix, S: LatticeSet):
    """The minimal-total-degree kernel element, or None when the kernel is 0.

    Columns arrive in ascending graded-lex order, so the first pivotless
    column sits in the lowest degree stratum with a nontrivial restricted
    kernel — and it is that stratum's leading monomial, which makes the
    returned vector pivot-normalized (leading coefficient 1) for free.  A
    second pivotless column inside the same stratum means the restricted
    kernel has dimension > 1, which the one-generator structure of the
    truncated relation ideal forbids; that is reported as an anomaly so
    the caller can retry with fresh points or a fresh prime.

    ``N.data`` is eliminated in place and left unspecified.
    """
    if len(S.points) != N.cols:
        raise ValueError("monomial set does not match the matrix columns")
    p = N.p
    degrees = [sum(e) for e in S.points]
    pivots, free, _ = _echelon(N.data, p, degrees=degrees)
    if not free:
        return None
    if len(free) > 1:
        raise KernelAnomalyError(
            f"{len(free)}-dimensional kernel in the degree-{degrees[free[0]]} "
            f"stratum; expected dimension 1"
        )
    return tuple(int(v) for v in _kernel_vector(N.data, p, pivots, free[0]))


# ---------------------------------------------------------------------------
# per-prime pipeline


def _sampled_kernel(
    forms: list, p: int, S: LatticeSet, rows: int, config: SampleConfig, label: str
):
    """minimal_element of an evaluation matrix on ``rows`` fresh points mod p.

    ``forms`` are the IntegerForms of the Lie iterates.  The points come
    from the ``label`` fork of the seed.  An anomalous kernel redraws
    them; a persistent anomaly propagates as KernelAnomalyError.
    """
    for attempt in range(_POINT_RETRIES):
        rng = fork_rng(config.seed, label, str(p), str(attempt))
        points = _draw_points(rng, rows, forms[0].nvars, config.radius)
        try:
            return minimal_element(_eval_matrix(forms, p, S, points), S)
        except KernelAnomalyError as exc:
            anomaly = exc
            log.debug("%s solve, prime %d attempt %d: %s", label, p, attempt, exc)
    raise anomaly


def eliminate_mod_p(sys: OdeSystem, p: int, S: LatticeSet, config: SampleConfig, iterates=None):
    """Full single-prime solve on the support-bound lattice S.

    Returns (support, coefficients) — the nonzero monomials of the minimal
    kernel element and their values mod p — or None when the kernel is
    empty (the assumed order is too small).  Retries with fresh points
    when the degree filtration reports an anomalous kernel; a persistent
    anomaly propagates as KernelAnomalyError; a prime not above the order,
    or one dividing a denominator of the system, raises BadPrimeError
    (eliminate never draws such a prime).  ``iterates``, if given, must be
    lie_iterates(sys, S.nu + 1); without it the solve builds them.
    """
    if iterates is None:
        iterates = lie_iterates(sys, S.nu + 1)
    elif len(iterates) != S.nu + 1 or iterates[0].space != sys.space:
        raise ValueError(f"iterates must be lie_iterates(sys, {S.nu + 1})")
    if sys.denominator() % p == 0:
        raise BadPrimeError(f"prime {p} divides a denominator of the system")
    forms = [IntegerForm(h) for h in iterates]
    vec = _sampled_kernel(forms, p, S, len(S.points), config, "points")
    if vec is None:
        return None
    support = tuple(mono for mono, value in zip(S.points, vec) if value)
    return support, tuple(value for value in vec if value)


def _solve_on_support(forms: list, p: int, support, nu: int, config: SampleConfig):
    """Shrunk solve: only the known support monomials, a few extra rows.

    Returns the coefficient vector (pivot-normalized at the last support
    monomial), None for an empty kernel (bad first-prime support), or the
    string "badlead" when this prime divides the leading coefficient.
    """
    rows = len(support) + _EXTRA_ROWS
    vec = _sampled_kernel(forms, p, LatticeSet(nu, tuple(support)), rows, config, "shrunk")
    if vec is not None and vec[-1] == 0:
        # the relation exists mod p but its leading coefficient vanished:
        # p divides the true leading coefficient; skip this prime
        return "badlead"
    return vec


def _probe_membership(forms: list, f: SparsePoly, config: SampleConfig, fresh_prime) -> bool:
    """Whether f vanishes at the jets of fresh points over a fresh prime.

    ``forms`` are the IntegerForms of the Lie iterates.  f has integer
    coefficients with content 1: it has an image mod every prime.  The
    probe takes _PROBE_POINTS points, or every point of the sampling box
    when the box holds fewer.
    """
    p = fresh_prime()
    rng = fork_rng(config.seed, "probe", str(p))
    n = forms[0].nvars
    count = min(_PROBE_POINTS, (2 * config.radius + 1) ** n)
    points = np.array(_draw_points(rng, count, n, config.radius), dtype=np.int64)
    values = jet(forms, points.T, p)
    return not IntegerForm(f).evaluate(values, p).any()


# ---------------------------------------------------------------------------
# multi-modular driver


def eliminate(sys: OdeSystem, config: SampleConfig | None = None) -> EliminationResult:
    """Compute the minimal differential polynomial of x1 for the system.

    Runs the per-prime pipeline at the detected (or overridden) order,
    shrinks the support after the first prime, accumulates coefficients by
    CRT, and stops at the first rational reconstruction that survives an
    independent membership probe at a fresh prime.  The result is
    canonical: integer coefficients with content 1 and a positive leading
    coefficient.

    Self-correction across orders: an empty kernel raises the order (the
    true order can only have been underestimated), while a persistently
    anomalous kernel lowers it (a too-large order makes the relation and
    its derivative collide in one degree stratum).
    """
    config = config or SampleConfig()
    if 2 * config.radius >= 1 << config.prime_bits:
        raise ValueError(
            "prime_bits too small for the sampling radius: points must stay "
            "distinct modulo every prime"
        )
    n = sys.n
    if sys.d < 1:
        raise ValueError("the right-hand side of x1 must be nonconstant")
    if n > 1 and sys.D < 1:
        raise ValueError("at least one of the other right-hand sides must be nonconstant")
    if config.nu_override is not None:
        nu = config.nu_override
        if not 1 <= nu <= n:
            raise ValueError(f"order override must lie in 1..{n}")
    else:
        nu = order_nu(sys, rng=fork_rng(config.seed, "order"))
        nu = max(nu, 1)
    emptied = set()
    anomalous = set()
    while True:
        outcome, result = _run_at_order(sys, nu, config)
        if outcome == "ok":
            return result
        if outcome == "empty":
            emptied.add(nu)
            if nu >= n:
                raise ComputationError(
                    f"empty kernel at order {n} (= dimension); this should be "
                    f"impossible for a polynomial system — please report"
                )
            if nu + 1 in anomalous:
                raise KernelAnomalyError(
                    f"order {nu} gives an empty kernel but order {nu + 1} an "
                    f"ambiguous one; the sampling may be degenerate — try "
                    f"another seed or a larger radius"
                )
            log.info("order %d: empty kernel, escalating to %d", nu, nu + 1)
            nu += 1
        else:  # anomaly
            anomalous.add(nu)
            if nu <= 1 or nu - 1 in emptied:
                raise KernelAnomalyError(
                    f"kernel stays multi-dimensional at order {nu} and smaller "
                    f"orders are empty; try another seed or a larger radius"
                )
            log.info(
                "order %d: kernel repeatedly multi-dimensional; the true order "
                "is likely smaller, retrying at %d",
                nu,
                nu - 1,
            )
            nu -= 1


def _run_at_order(sys: OdeSystem, nu: int, config: SampleConfig):
    """One full attempt at a fixed differential order.

    Returns ("ok", EliminationResult) | ("empty", None) | ("anomaly", None).
    """
    bound = scalar_bound(sys.d) if sys.n == 1 else bound_inequalities(sys.d, sys.D, nu)
    S = enumerate_lattice(bound)
    log.debug("order %d: support bound has %d monomials", nu, len(S.points))
    _check_memory(nu, len(S.points), config.threads)
    iterates = lie_iterates(sys, nu + 1)
    forms = [IntegerForm(h) for h in iterates]  # every shrunk solve evaluates these mod p
    full_solve = partial(eliminate_mod_p, sys, S=S, config=config, iterates=iterates)

    used_primes = set()
    prime_rng = fork_rng(config.seed, "primes", str(nu))
    min_p = max(nu, 2 * config.radius)
    denominator = sys.denominator()
    returned = []  # drawn primes whose solve was dropped, next in the draw order

    def eligible(p: int) -> bool:
        return p > min_p and p not in used_primes and denominator % p != 0

    def fresh_prime() -> int:
        if returned:
            return returned.pop(0)
        for _ in range(_PRIME_MISSES):
            p = random_prime(config.prime_bits, prime_rng)
            if eligible(p):
                used_primes.add(p)
                return p
            if denominator % p == 0:
                # the system has no image mod p; every phase skips it
                log.debug("prime %d divides a denominator of the system, skipped", p)
        # a run of misses: the eligible primes may be used up, so look for
        # one in order rather than draw forever
        lo = max(min_p + 1, 1 << (config.prime_bits - 1))
        p = next((q for q in range(lo, 1 << config.prime_bits) if eligible(q) and is_prime(q)), None)
        if p is None:
            raise ComputationError(
                f"every {config.prime_bits}-bit prime above {min_p} is used or divides a "
                f"denominator of the system; increase prime_bits"
            )
        used_primes.add(p)
        return p

    # first phase: the full bound at one prime reveals the support
    found = _agreed_support(full_solve, fresh_prime, 1, _ANOMALY_PRIMES)
    if found is None:
        return "anomaly", None
    if found == "empty":
        return "empty", None
    support, entries = found
    log.debug(
        "order %d: support shrunk from %d to %d monomials (prime %d)",
        nu,
        len(S.points),
        len(support),
        entries[0][0],
    )

    # CRT phase on the shrunk support.  `pending` holds a call returning
    # the solve of each drawn prime, taken in the order the primes were
    # drawn.  On a support of at least _POOL_MIN_COLS columns up to
    # `threads` solves run ahead in the pool; on a narrower one, and with
    # one thread, each solve runs here when its turn comes.  A solve is
    # mostly short numpy calls under the GIL: on 2 cores, two threads of
    # (n+8) x n echelons did 0.61-0.83x the work of one at n = 271 and
    # 600, about 1x at 1292 and 1.39x at 2000, and end to end a
    # 1292-column run took 1.48 s with two threads against 1.11 s with
    # one, a 2171-column run 15.3-15.9 s against 17.0-20.7 s.  A
    # one-worker pool also made ~10 ms solves about 25 % slower and raised
    # the peak memory of 1292-column solves from 75 to 88 MB (the worker
    # allocates from a malloc arena of its own).  The gate is taken again
    # for the support of a consensus restart.  Before a restart or a
    # membership probe draws primes, the ones still in flight go back to
    # the front of the draw order, so every thread count draws the same
    # primes and ends with the same primes_used; the price is up to
    # threads - 1 discarded solves per pooled run.  The pool is built when
    # a support first passes the gate.
    pool = None

    def lookahead(support):
        """(solves kept pending, how a solve is deferred) on ``support``."""
        nonlocal pool
        if config.threads > 1 and len(support) >= _POOL_MIN_COLS:
            if pool is None:
                pool = ThreadPoolExecutor(max_workers=config.threads)
            return config.threads, lambda *call: pool.submit(*call).result
        return 1, partial

    pending = []

    def return_pending():
        returned[:0] = [q for q, _ in pending]
        pending.clear()

    try:
        acc, primes_used = _accumulate(entries)
        ahead, defer = lookahead(support)
        while len(primes_used) < config.max_primes:
            while len(pending) < ahead:
                q = fresh_prime()
                pending.append((q, defer(_solve_on_support, forms, q, support, nu, config)))
            p, solve = pending.pop(0)
            try:
                solved = solve()
            except KernelAnomalyError:
                log.warning("prime %d: anomalous shrunk kernel, skipped", p)
                continue
            if solved is None:
                # the first prime's support was wrong: find two primes that agree
                log.warning("prime %d: empty kernel on shrunk support, restarting", p)
                return_pending()
                found = _agreed_support(full_solve, fresh_prime, 2, _RESTART_TRIES)
                if found is None:
                    raise ComputationError(
                        "no two primes agree on the support; the sampling radius or "
                        "prime size is likely too small"
                    )
                if found == "empty":
                    return "empty", None
                support, entries = found
                log.debug(
                    "consensus restart: primes %d and %d agree on %d monomials",
                    entries[0][0],
                    entries[1][0],
                    len(support),
                )
                acc, primes_used = _accumulate(entries)
                ahead, defer = lookahead(support)
                continue
            if solved == "badlead":
                log.debug("prime %d divides the leading coefficient, skipped", p)
                continue

            acc = crt_absorb(acc, solved, p)
            primes_used.append(p)
            current = _reconstruct(acc)
            log.debug(
                "prime %d absorbed (%d primes, reconstruction %s)",
                p,
                len(primes_used),
                "ok" if current is not None else "pending",
            )
            if current is None:
                continue
            return_pending()
            terms = {mono: q for mono, q in zip(support, current) if q}
            f = SparsePoly(VarSpace.deriv(nu), QQ, terms).normalize_canonical()
            if _probe_membership(forms, f, config, fresh_prime):
                log.debug(
                    "probe passed after %d primes; support size %d",
                    len(primes_used),
                    len(f.terms),
                )
                return "ok", EliminationResult(
                    f_min=f,
                    nu=nu,
                    primes_used=tuple(primes_used),
                    support_size=len(f.terms),
                )
            log.warning("membership probe failed; continuing with more primes")
        raise ComputationError(
            f"no reconstruction passed the membership probe after {config.max_primes} "
            f"primes; increase max_primes or prime_bits"
        )
    finally:
        # wait for the look-ahead solves still running: left behind, they
        # overlap the caller's next elimination, which with two threads
        # raised the peak RSS of repeated certified runs by 1.7 MB (4 %)
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _available_memory() -> int | None:
    """MemAvailable of /proc/meminfo in bytes, or None when it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_memory(nu: int, size: int, threads: int) -> None:
    """Fail fast when a run at this order cannot fit in the available memory.

    A full-bound solve eliminates its size x size int64 evaluation matrix
    in place.  A CRT phase on a support of at least _POOL_MIN_COLS columns
    holds up to ``threads`` such matrices at once; a narrower one solves
    on the calling thread, one matrix at a time.  The support is known
    only after the first phase, and it is never wider than the bound, so
    the estimate is max(2, threads) * size^2 entries of 8 bytes for a
    bound of at least _POOL_MIN_COLS columns and 2 * size^2 for a
    narrower one.  The second matrix is headroom for the echelon's
    float64 update operands (at most 128 columns wide), its copies of
    16-column leaves, and the assembly's temporaries of 128 points.
    When that exceeds MemAvailable the run raises ComputationError before
    drawing a single point; when the available memory cannot be read
    there is no guard.
    """
    available = _available_memory()
    if available is None:
        return
    matrices = max(2, threads) if size >= _POOL_MIN_COLS else 2
    need = matrices * size * size * 8
    if need > available:
        raise ComputationError(
            f"the order-{nu} support bound has {size} monomials; the run needs "
            f"about {need / 1e9:.1f} GB ({need} bytes) for {matrices} {size}x{size} "
            f"int64 matrices, but only {available / 1e9:.1f} GB "
            f"({available} bytes) is available"
        )


def _agreed_support(full_solve, fresh_prime, need: int, tries: int):
    """Full-bound solves full_solve(p) at fresh primes until ``need`` agree on the support.

    Returns (support, [(p, coefficients), ...]) with the agreeing primes
    in draw order, "empty" for an empty kernel (the order is too small),
    or None when ``tries`` primes gave no agreement.  Primes whose kernel
    stays anomalous count as tries.
    """
    seen = {}
    for _ in range(tries):
        p = fresh_prime()
        try:
            res = full_solve(p)
        except KernelAnomalyError:
            continue
        if res is None:
            return "empty"
        support, coeffs = res
        seen.setdefault(support, []).append((p, coeffs))
        if len(seen[support]) == need:
            return support, seen[support]
    return None


def _accumulate(entries):
    """CRT accumulator and prime list of (prime, coefficients) pairs.

    Each vector is first pinned to 1 at its last (leading) monomial.
    """
    acc = CrtAccumulator.empty(len(entries[0][1]))
    for p, coeffs in entries:
        inv = pow(coeffs[-1], p - 2, p)
        acc = crt_absorb(acc, tuple(c * inv % p for c in coeffs), p)
    return acc, [p for p, _ in entries]


def _reconstruct(acc: CrtAccumulator):
    """Rational reconstruction of the residue vector, or None.

    Each coordinate alone first; when one fails, the whole vector over one
    common denominator, which every coordinate of the pinned f_min shares.
    """
    out = []
    for r in acc.residues:
        q = rational_reconstruct(r, acc.modulus)
        if q is None:
            return vector_reconstruct(acc.residues, acc.modulus)
        out.append(q)
    return out
