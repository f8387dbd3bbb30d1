"""Evaluation–interpolation engine for minimal differential polynomials.

The pipeline, per prime p:

1. sample integer points in [-R, R]^n (distinct, deterministic per seed);
2. run the truncated power-series recurrence of ode.jet at all points
   simultaneously to get the jet (x1, x1', ..., x1^(nu)) of every
   trajectory mod p;
3. evaluate every admissible monomial at every jet -> evaluation matrix N;
4. eliminate left-to-right in graded-lex column order (odelim.linalg);
   the first pivotless column is the leading monomial of the minimal
   relation and its kernel vector is the relation itself mod p (degree
   filtration: a nontrivial kernel appears first in the lowest
   total-degree stratum, and there it must be one-dimensional).

Across primes, coefficient vectors are pinned to pivot = 1 at the shared
leading monomial, combined by CRT and rationally reconstructed; the run
stops when two consecutive reconstructions agree and a fresh-prime jet
probe confirms the result.  The support is shrunk to the exact support
observed at the first prime, so later primes solve a much smaller system
whenever the theoretical bound is slack.

Self-correction: an empty kernel means the assumed differential order is
too small (escalate), a persistently 2-dimensional first stratum means it
is too large (lower it), and an empty kernel on the shrunk support means
the first prime lied about the support (restart with a two-prime
consensus).
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .arith import (
    CrtAccumulator,
    PrimeField,
    crt_absorb,
    fork_rng,
    is_prime,
    random_prime,
    rational_reconstruct,
)
from .errors import BadPrimeError, ComputationError, KernelAnomalyError
from .linalg import MAX_PRIME_BITS, _echelon, _kernel_vector, _moddot
from .ode import OdeSystem, jet, order_nu
from .poly import QQ, SparsePoly, VarSpace
from .support import LatticeSet, bound_inequalities, enumerate_lattice, scalar_bound

log = logging.getLogger("odelim.interp")

_POINT_RETRIES = 3       # point redraws per prime before giving up on it
_EXTRA_ROWS = 8          # rows beyond the support in a shrunk solve
_PROBE_POINTS = 32       # points of a membership probe
_ANOMALY_PRIMES = 2      # anomalous full-bound primes before doubting the order
_RESTART_TRIES = 8       # primes allowed while seeking a support consensus
_PROBE_TRIES = 4         # probe primes skipped due to denominator collisions
_PRIME_MISSES = 64       # draws of used or excluded primes before a search in order


@dataclass(frozen=True)
class SampleConfig:
    """Tunables for the interpolation pipeline.

    radius is the half-width of the integer sampling box; seed drives every
    random choice (points, primes, probes) through labeled forks, so equal
    seeds give equal runs; prime_bits is the size of the working primes,
    at most linalg.MAX_PRIME_BITS (23) so that the echelon's float64
    products stay exact;
    max_primes caps the primes that enter the CRT; nu_override skips
    order detection; threads is the number of per-prime solves run at once.
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

    ``data`` is read-only when it comes from assemble; the matrices that
    eliminate builds for itself are writable, and minimal_element
    eliminates those in place.
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


def sample_points(config: SampleConfig, count: int, n: int):
    """``count`` distinct points of [-radius, radius]^n, seed-deterministic."""
    rng = fork_rng(config.seed, "points")
    return _draw_points(rng, count, n, config.radius)


def _draw_points(rng, count: int, n: int, radius: int):
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


def _eval_matrix(sys_p: OdeSystem, S: LatticeSet, points) -> EvalMatrix:
    p = sys_p.ring.p
    pts = np.array(points, dtype=np.int64)
    m = pts.shape[0]
    jets = jet(sys_p, pts.T, S.nu)
    maxe = [0] * (S.nu + 1)
    for e in S.points:
        for k, ek in enumerate(e):
            maxe[k] = max(maxe[k], ek)
    one = np.ones(m, dtype=np.int64)
    pow_tables = []
    for k in range(S.nu + 1):
        row = [one]
        for _ in range(maxe[k]):
            row.append(row[-1] * jets[k] % p)
        pow_tables.append(row)
    N = np.empty((m, len(S.points)), dtype=np.int64)
    for col, e in enumerate(S.points):
        acc = None
        for k, ek in enumerate(e):
            if ek:
                acc = pow_tables[k][ek] if acc is None else acc * pow_tables[k][ek] % p
        N[:, col] = one if acc is None else acc
    return EvalMatrix(N, p)


def assemble(sys_p: OdeSystem, S: LatticeSet, points) -> EvalMatrix:
    """Evaluation matrix N[j][i] = (i-th monomial) at (jet of j-th point)."""
    if not isinstance(sys_p.ring, PrimeField):
        raise ValueError("assemble expects a system reduced modulo a prime")
    if sys_p.ring.p >> MAX_PRIME_BITS:
        raise ValueError(f"assemble needs a prime below 2^{MAX_PRIME_BITS} (exact echelon products)")
    if len(points) < len(S.points):
        raise ValueError(
            f"need at least {len(S.points)} points for {len(S.points)} monomials"
        )
    N = _eval_matrix(sys_p, S, points)
    N.data.flags.writeable = False
    return N


# ---------------------------------------------------------------------------
# kernels (the elimination itself lives in linalg)


def nullspace(N: EvalMatrix):
    """Reduced-echelon kernel basis of {c : N.c = 0} over GF(p).

    Each basis vector is normalized so its first nonzero coordinate is 1.
    """
    W = N.data.copy()
    p = N.p
    pivots, free, _ = _echelon(W, p)
    basis = []
    for f in free:
        vec = _kernel_vector(W, p, pivots, f)
        lead = int(vec[np.nonzero(vec)[0][0]])
        if lead != 1:
            vec = vec * pow(lead, p - 2, p) % p
        basis.append(tuple(int(v) for v in vec))
    return basis


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

    A writable ``N.data`` (the matrices eliminate builds for itself) is
    eliminated in place and left unspecified; a read-only one
    (assemble's) is copied first.
    """
    if len(S.points) != N.cols:
        raise ValueError("monomial set does not match the matrix columns")
    W = N.data if N.data.flags.writeable else N.data.copy()
    p = N.p
    degrees = [sum(e) for e in S.points]
    pivots, free, _ = _echelon(W, p, degrees=degrees)
    if not free:
        return None
    if len(free) > 1:
        raise KernelAnomalyError(
            f"{len(free)}-dimensional kernel in the degree-{degrees[free[0]]} "
            f"stratum; expected dimension 1"
        )
    return tuple(int(v) for v in _kernel_vector(W, p, pivots, free[0]))


# ---------------------------------------------------------------------------
# per-prime pipeline


def _sampled_kernel(
    sys: OdeSystem, p: int, S: LatticeSet, rows: int, config: SampleConfig, label: str
):
    """minimal_element of an evaluation matrix on ``rows`` fresh points mod p.

    The points come from the ``label`` fork of the seed.  An anomalous
    kernel redraws them; a persistent anomaly propagates as
    KernelAnomalyError.
    """
    sys_p = sys.reduce_mod(p)
    for attempt in range(_POINT_RETRIES):
        rng = fork_rng(config.seed, label, str(p), str(attempt))
        points = _draw_points(rng, rows, sys.n, config.radius)
        try:
            return minimal_element(_eval_matrix(sys_p, S, points), S)
        except KernelAnomalyError as exc:
            anomaly = exc
            log.debug("%s solve, prime %d attempt %d: %s", label, p, attempt, exc)
    raise anomaly


def eliminate_mod_p(sys: OdeSystem, p: int, S: LatticeSet, config: SampleConfig):
    """Full single-prime solve on the support-bound lattice S.

    Returns (support, coefficients) — the nonzero monomials of the minimal
    kernel element and their values mod p — or None when the kernel is
    empty (the assumed order is too small).  Retries with fresh points
    when the degree filtration reports an anomalous kernel; a persistent
    anomaly propagates as KernelAnomalyError; a prime not above the order,
    or one dividing a denominator of the system, raises BadPrimeError (the
    driver never draws such a prime).
    """
    vec = _sampled_kernel(sys, p, S, len(S.points), config, "points")
    if vec is None:
        return None
    support = tuple(mono for mono, value in zip(S.points, vec) if value)
    return support, tuple(value for value in vec if value)


def _solve_on_support(sys: OdeSystem, p: int, support, nu: int, config: SampleConfig):
    """Shrunk solve: only the known support monomials, a few extra rows.

    Returns the coefficient vector (pivot-normalized at the last support
    monomial), None for an empty kernel (bad first-prime support), or the
    string "badlead" when this prime divides the leading coefficient.
    """
    rows = len(support) + _EXTRA_ROWS
    vec = _sampled_kernel(sys, p, LatticeSet(nu, tuple(support)), rows, config, "shrunk")
    if vec is not None and vec[-1] == 0:
        # the relation exists mod p but its leading coefficient vanished:
        # p divides the true leading coefficient; skip this prime
        return "badlead"
    return vec


def _probe_membership(sys, nu, support, rationals, config, fresh_prime) -> bool:
    """Check sum_i c_i s_i(jet) = 0 at fresh points over a fresh prime."""
    for _ in range(_PROBE_TRIES):
        p = fresh_prime()
        field = PrimeField(p)
        try:
            coeffs = [field.reduce(q) for q in rationals]
        except BadPrimeError:
            continue  # prime divides a denominator; take another
        sys_p = sys.reduce_mod(p)
        rng = fork_rng(config.seed, "probe", str(p))
        points = _draw_points(rng, _PROBE_POINTS, sys.n, config.radius)
        N = _eval_matrix(sys_p, LatticeSet(nu, tuple(support)), points)
        cvec = np.array(coeffs, dtype=np.int64)
        for row in N.data:
            if _moddot(row % p, cvec, p):
                return False
        return True
    return False


# ---------------------------------------------------------------------------
# multi-modular driver


def eliminate(sys: OdeSystem, config: SampleConfig | None = None) -> EliminationResult:
    """Compute the minimal differential polynomial of x1 for the system.

    Runs the per-prime pipeline at the detected (or overridden) order,
    shrinks the support after the first prime, accumulates coefficients by
    CRT, and stops once the rational reconstruction is stable under a new
    prime and survives an independent membership probe.  The result is
    canonical: integer coefficients with content 1 and a positive leading
    coefficient.

    Self-correction across orders: an empty kernel raises the order (the
    true order can only have been underestimated), while a persistently
    anomalous kernel lowers it (a too-large order makes the relation and
    its derivative collide in one degree stratum).
    """
    config = config or SampleConfig()
    if sys.ring != QQ:
        raise ValueError("eliminate expects an exact-rational system")
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
    _check_memory(nu, len(S.points))

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
    found = _agreed_support(sys, S, config, fresh_prime, 1, _ANOMALY_PRIMES)
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
    # the solve of each drawn prime; up to `threads` solves run ahead in
    # the pool, and their results are taken in the order their primes were
    # drawn, so the run is the same for every thread count.  Once a
    # reconstruction exists, the next absorbed prime usually ends the run,
    # so no further solve is started ahead of it: it would be discarded,
    # and its prime would shift the probe's draw.  With one thread each
    # solve runs here when its turn comes: on a 2-core machine
    # a one-worker pool made ~10 ms solves about 25 % slower (a thread
    # handoff per prime) and raised the peak memory of 1292-column solves
    # from 75 to 88 MB (the worker allocates from a malloc arena of its own).
    threads = config.threads
    pool = ThreadPoolExecutor(max_workers=threads)
    defer = partial if threads == 1 else lambda *call: pool.submit(*call).result
    try:
        acc, primes_used = _accumulate(entries)
        previous = None
        pending = []
        while len(primes_used) < config.max_primes:
            while len(pending) < (threads if previous is None else 1):
                q = fresh_prime()
                pending.append((q, defer(_solve_on_support, sys, q, support, nu, config)))
            p, solve = pending.pop(0)
            try:
                solved = solve()
            except KernelAnomalyError:
                log.warning("prime %d: anomalous shrunk kernel, skipped", p)
                continue
            if solved is None:
                # the first prime's support was wrong: find two primes that agree.
                # Primes still in flight go back to the draw order, so the
                # restart sees the same primes at every thread count.
                log.warning("prime %d: empty kernel on shrunk support, restarting", p)
                returned[:0] = [q for q, _ in pending]
                pending = []
                found = _agreed_support(sys, S, config, fresh_prime, 2, _RESTART_TRIES)
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
                previous = None
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
            if current is not None and current == previous:
                if _probe_membership(sys, nu, support, current, config, fresh_prime):
                    terms = {mono: q for mono, q in zip(support, current) if q}
                    f = SparsePoly(VarSpace.deriv(nu), QQ, terms).normalize_canonical()
                    log.debug(
                        "stabilized after %d primes; support size %d",
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
            previous = current
        raise ComputationError(
            f"no stable reconstruction after {config.max_primes} primes; "
            f"increase max_primes or prime_bits"
        )
    finally:
        # wait for the look-ahead solves still running: left behind, they
        # overlap the caller's next elimination, which with two threads
        # raised the peak RSS of repeated certified runs by 1.7 MB (4 %)
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


def _check_memory(nu: int, size: int) -> None:
    """Fail fast when the first phase cannot fit in the available memory.

    A full-bound solve eliminates its size x size int64 evaluation matrix
    in place.  The estimate is twice that matrix, 2 * size^2 entries of
    8 bytes: the matrix itself plus headroom for the float64 operands of
    the echelon's updates (at most 128 columns wide: the residues are
    converted as they are, not split in halves), its copies of 16-column
    leaves, and the point and power tables of assembly.  When that
    exceeds MemAvailable the run raises ComputationError before drawing
    a single point; when the available memory cannot be read there is no
    guard.
    """
    available = _available_memory()
    if available is None:
        return
    need = 2 * size * size * 8
    if need > available:
        raise ComputationError(
            f"the order-{nu} support bound has {size} monomials; its first phase "
            f"needs about {need / 1e9:.1f} GB ({need} bytes) for a {size}x{size} "
            f"int64 matrix and its elimination, but only {available / 1e9:.1f} GB "
            f"({available} bytes) is available"
        )


def _agreed_support(
    sys: OdeSystem, S: LatticeSet, config: SampleConfig, fresh_prime, need: int, tries: int
):
    """Full-bound solves at fresh primes until ``need`` agree on the support.

    Returns (support, [(p, coefficients), ...]) with the agreeing primes
    in draw order, "empty" for an empty kernel (the order is too small),
    or None when ``tries`` primes gave no agreement.  Primes whose kernel
    stays anomalous count as tries.
    """
    seen = {}
    for _ in range(tries):
        p = fresh_prime()
        try:
            res = eliminate_mod_p(sys, p, S, config)
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
    """Rational reconstruction of every residue, or None if one fails."""
    out = []
    for r in acc.residues:
        q = rational_reconstruct(r, acc.modulus)
        if q is None:
            return None
        out.append(q)
    return out
