"""Exact and modular number arithmetic.

Deterministic prime generation, modular inverses, Chinese remaindering
of residue vectors, and rational reconstruction: of one residue with a
balanced numerator and denominator (rational_reconstruct),
and of a residue vector over one common denominator (vector_reconstruct),
which needs a smaller modulus when the coordinates share one large
denominator.  Exact rationals are plain ``fractions.Fraction`` values
throughout the package; Fraction already maintains the reduced-form /
positive-denominator invariants we rely on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

MAX_PRIME_BITS = 62

# Witness set making Miller-Rabin deterministic for all n < 3.1 * 10^23, which
# covers every modulus this package generates (p < 2^62); below each bound of
# _MR_PREFIXES its first k witnesses suffice (Jaeschke 1993; Jiang, Deng 2014).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PREFIXES = ((25_326_001, 3), (2_152_302_898_747, 5), (341_550_071_728_321, 7),
                (3_825_123_056_546_413_051, 9))


# Trial division by every prime below _SIEVE_BOUND costs one gcd with their
# product; it refuses most candidates of random_prime before Miller-Rabin.
_SIEVE_BOUND = 1000
_SMALL_PRIMES = frozenset(range(2, _SIEVE_BOUND)).difference(
    *(range(q * q, _SIEVE_BOUND, q) for q in range(2, math.isqrt(_SIEVE_BOUND) + 1))
)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


def is_prime(n: int) -> bool:
    """Deterministic primality test for word-sized integers (n < 2^64)."""
    if n < _SIEVE_BOUND:
        return n in _SMALL_PRIMES
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    k = next((k for bound, k in _MR_PREFIXES if n < bound), len(_MR_WITNESSES))
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng: random.Random) -> int:
    """Draw a uniform random prime from [2^(bits-1), 2^bits).

    Retries internally until the Miller-Rabin test accepts a candidate.
    """
    if not 2 <= bits <= MAX_PRIME_BITS:
        raise ValueError(f"prime size must be between 2 and {MAX_PRIME_BITS} bits, got {bits}")
    lo = 1 << (bits - 1)
    hi = (1 << bits) - 1
    while True:
        cand = rng.randint(lo, hi) | 1 if bits > 2 else rng.randint(lo, hi)
        if is_prime(cand):
            return cand


def fork_rng(seed, *labels) -> random.Random:
    """Deterministically fork a PRNG stream from a seed and a label path.

    String seeding in CPython hashes the text with SHA-512 and is stable
    across platforms and versions, so the same (seed, labels) always
    produces the same stream.  Every randomized stage of the pipeline owns
    its own fork; nothing shares a stream across tasks.
    """
    tag = "odelim:" + repr(seed) + ":" + ":".join(str(part) for part in labels)
    return random.Random(tag)


def modinv(a: int, p: int) -> int:
    """Inverse of a modulo a prime p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in prime field")
    return pow(a, p - 2, p)


@dataclass(frozen=True)
class CrtAccumulator:
    """Residue vector modulo a growing product of pairwise distinct primes."""

    modulus: int
    residues: tuple

    @staticmethod
    def empty(length: int) -> "CrtAccumulator":
        return CrtAccumulator(1, (0,) * length)


def crt_absorb(acc: CrtAccumulator, residues, p: int) -> CrtAccumulator:
    """Absorb a residue vector mod p into the accumulator.

    Returns a new accumulator with modulus acc.modulus * p whose residues
    are congruent to the old ones mod acc.modulus and to ``residues`` mod p.
    """
    if len(residues) != len(acc.residues):
        raise ValueError(
            f"residue length mismatch: accumulator has {len(acc.residues)}, got {len(residues)}"
        )
    m = acc.modulus
    if math.gcd(m, p) != 1:
        raise ValueError(f"modulus {p} is not coprime to the accumulated product")
    inv_m = modinv(m % p, p)
    combined = tuple(
        x + m * ((int(r) - x) * inv_m % p) for x, r in zip(acc.residues, residues)
    )
    return CrtAccumulator(m * p, combined)


def rational_reconstruct(r: int, m: int) -> Fraction | None:
    """Recover a bounded-height rational from its residue mod m.

    Returns a/b with a ≡ r·b (mod m), |a| ≤ √(m/2), 0 < b ≤ √(m/2) and
    gcd(b, m) = 1 when such a pair exists (half-extended Euclid), else None.
    The symmetric bound splits the modulus evenly between numerator and
    denominator.  A result is only a candidate: eliminate accepts it once
    a membership probe at a fresh prime confirms it.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    bound = math.isqrt(m // 2)
    r0, r1 = m, r % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    a, b = r1, s1
    if b == 0:
        return None
    if b < 0:
        a, b = -a, -b
    if b > bound or math.gcd(b, m) != 1:
        return None
    return Fraction(a, b)


# Common-denominator reconstruction keeps a margin of _VECTOR_MARGIN bits
# below the modulus on the denominator and on every scaled numerator, and
# refuses a vector after _VECTOR_MISSES coordinates that offer no factor.
_VECTOR_MARGIN = 16
_VECTOR_MISSES = 32


def _denominator_factor(x: int, m: int) -> int | None:
    """The first convergent denominator b of x/m with |smod(b*x, m)|*b*2^margin < m.

    It must also be coprime to m.  The convergents come from the
    half-extended Euclid of (m, x); None when none qualifies.
    """
    r0, r1 = m, x
    s0, s1 = 0, 1
    while r1:
        b = abs(s1)
        if b << _VECTOR_MARGIN >= m:
            return None  # b only grows and |smod(b*x, m)| >= 1
        if (min(r1, m - r1) * b) << _VECTOR_MARGIN < m and math.gcd(b, m) == 1:
            return b
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return None


def vector_reconstruct(residues, m: int) -> list | None:
    """Recover a rational vector t/d over one common denominator from its residues mod m.

    A running denominator d starts at 1.  A residue r with
    |smod(d*r, m)|*2^16 < m needs nothing; otherwise d is multiplied by the
    first convergent denominator of (d*r mod m)/m that makes the scaled
    residue small enough (see _denominator_factor).  The vector is refused
    after 32 coordinates that offer no such factor, and accepted only when
    d*2^16 < m and every |smod(d*r_i, m)|*2^16 < m; then it is the list of
    Fraction(smod(d*r_i, m), d).  When every coordinate is a_i/c with one
    denominator c, c comes from a coordinate whose |a_i|*c*2^16 < m, and
    then each numerator needs only |a_i|*2^16 < m, where
    rational_reconstruct needs m > 2*max(|a_i|, c_i)^2 for every i (Bright,
    Storjohann, "Vector rational number reconstruction", ISSAC 2011).  As
    with rational_reconstruct, the result is only a candidate.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    d = 1
    misses = 0
    for r in residues:
        x = d * r % m
        if min(x, m - x) << _VECTOR_MARGIN < m:
            continue
        b = _denominator_factor(x, m)
        if b is None:
            misses += 1
            if misses == _VECTOR_MISSES:
                return None
            continue
        d *= b
        if d << _VECTOR_MARGIN >= m:
            return None
    out = []
    for r in residues:
        t = d * r % m
        if t > m // 2:
            t -= m
        if abs(t) << _VECTOR_MARGIN >= m:
            return None
        out.append(Fraction(t, d))
    return out
