"""Membership checking and the certified elimination driver.

A differential polynomial F vanishes along every trajectory of x' = g(x)
exactly when substituting x1^(k) -> L^k(x1) collapses it to zero.  Two
checkers implement that criterion: a probabilistic one (evaluate at jets
of random points over random primes, with an explicit Schwartz–Zippel
failure bound) and an exact one (full symbolic substitution, carried out
over the integers and divided back to the rationals, with a hard term
budget).  The certified driver wraps the interpolation pipeline: run it,
exact-check the candidate, and double the sampling radius until the check
passes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from functools import cache

from .arith import MAX_PRIME_BITS, fork_rng, is_prime, random_prime
from .errors import VerificationError
from .interp import EliminationResult, SampleConfig, Verification, eliminate
from .ode import OdeSystem, jet, lie_iterates, reduction
from .poly import IntegerForm, SparsePoly

CHECK_TERM_BUDGET = 500_000


@cache
def _prime_in(lo: int, prime_bits: int) -> bool:
    """Whether a prime lies in [lo, 2^prime_bits); scanned once per pair."""
    return any(is_prime(q) for q in range(lo, 1 << prime_bits))


def check_probabilistic(
    sys: OdeSystem,
    F: SparsePoly,
    trials: int = 16,
    prime_bits: int = 40,
    seed=0,
) -> Verification:
    """Randomized membership test: evaluate F at jets of random points.

    Each trial draws a fresh prime p and a uniform point of GF(p)^n; the
    substituted polynomial has total degree at most deg F times the worst
    iterated-derivative degree, so a nonzero F slips through one trial
    with probability at most that degree over p.  A trial whose prime
    divides a denominator of F or of the system is skipped; the record
    counts only the executed trials and carries their summed union bound
    explicitly, which is 1 for a nonzero F when no trial ran.  The primes
    may exceed 2^30 (the jets are Python ints) and must exceed the order.
    F and the Lie iterates (built once per system, see lie_iterates) are
    turned into integer forms once per call; a trial only evaluates those
    mod its prime.  ``trials`` must be nonnegative and ``prime_bits`` lie
    in [2, 62]; both are checked before any other work.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if not 2 <= prime_bits <= MAX_PRIME_BITS:
        raise ValueError(f"prime_bits must lie in [2, {MAX_PRIME_BITS}], got {prime_bits}")
    if F.space.kind != "deriv":
        raise ValueError("F must be a polynomial in x1 and its derivatives")
    nu = F.space.order
    if nu > sys.n:
        raise ValueError(f"order {nu} exceeds the dimension {sys.n}")
    if F.is_zero:
        return Verification("probabilistic", 0, Fraction(0), True)
    lo = max(nu + 1, 1 << (prime_bits - 1))
    if not _prime_in(lo, prime_bits):
        raise ValueError(f"no {prime_bits}-bit prime exceeds the order {nu}")
    iterates = lie_iterates(sys, nu + 1)
    forms = [IntegerForm(h) for h in iterates]
    form = IntegerForm(F)
    denominator = math.lcm(sys.denominator(), form.denominator)
    # the degree of one substitution x1^(k) -> L^k(x1), k <= nu
    degree_cap = max(F.total_degree(), 0) * max(max(h.total_degree(), 0) for h in iterates)
    rng = fork_rng(seed, "verify")
    primes = []  # of the executed trials
    outcome = True
    for _ in range(trials):
        while True:
            p = random_prime(prime_bits, rng)
            if p > nu:
                break
        if denominator % p == 0:
            continue  # denominator collision: the trial is not executed
        point = [rng.randrange(p) for _ in range(sys.n)]
        primes.append(p)
        if form.evaluate(jet(forms, point, p), p) != 0:
            outcome = False
            break
    if not primes:
        return Verification("probabilistic", 0, Fraction(1), outcome)
    # the union bound, the sum of degree_cap / p, as one fraction
    product = math.prod(primes)
    bound = Fraction(degree_cap * sum(product // p for p in primes), product)
    return Verification("probabilistic", len(primes), min(bound, Fraction(1)), outcome)


def check_exact(sys: OdeSystem, F: SparsePoly, max_terms: int = CHECK_TERM_BUDGET) -> Verification:
    """Exact membership: substitute symbolically and compare R(F) with 0.

    ode.reduction replaces the highest derivative first so cancellation
    happens as early as possible.  It scales F and the iterated Lie
    derivatives to integer coefficients, so the whole substitution runs on
    Python ints, packs each state monomial into one int whose base
    exceeds the largest total degree any intermediate can reach, and
    divides the scale back out at the end.  ``max_terms`` caps
    intermediate swell and is checked after every product and sum; the
    scaled intermediates have the supports of the rational ones, so the
    budget trips at the same sizes.  Exhaustion raises
    BudgetExceededError — the answer is then indeterminate, never
    silently downgraded to a probabilistic one.
    """
    if F.space.kind != "deriv":
        raise ValueError("F must be a polynomial in x1 and its derivatives")
    residue = reduction(sys, F, max_terms=max_terms)
    return Verification("exact", 0, Fraction(0), residue.is_zero)


def certified_eliminate(
    sys: OdeSystem,
    config: SampleConfig | None = None,
    max_rounds: int = 8,
) -> EliminationResult:
    """Eliminate, exact-check, and double the sampling radius until certified.

    Returns the interpolation result with check_exact's record as
    ``verified``.  A candidate that keeps failing the exact check after
    ``max_rounds`` rounds, or once doubling would put 2 * radius at or
    above 2^prime_bits (points would no longer stay distinct modulo the
    primes), aborts with the last candidate attached to the error, since
    that indicates a systematically unlucky configuration worth inspecting.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    config = config or SampleConfig()
    radius = config.radius
    for rounds in range(1, max_rounds + 1):
        result = eliminate(sys, replace(config, radius=radius))
        report = check_exact(sys, result.f_min)
        if report.outcome:
            return replace(result, verified=report)
        radius *= 2
        if 2 * radius >= 1 << config.prime_bits:
            break
    raise VerificationError(
        f"no candidate passed the exact membership check in {rounds} rounds "
        f"(sampling radius {config.radius} to {radius // 2})",
        candidate=result.f_min,
    )
