"""Primes, modular inverses, CRT accumulation and rational reconstruction."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import residue
from odelim import arith
from odelim.arith import (
    CrtAccumulator,
    crt_absorb,
    fork_rng,
    is_prime,
    modinv,
    random_prime,
    rational_reconstruct,
    vector_reconstruct,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for k in range(2, 40):
        assert is_prime(k) == (k in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(561)  # Carmichael
    assert is_prime((1 << 61) - 1)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 1 << r, n) == n - 1 for r in range(1, s))


def test_is_prime_refuses_each_witness_prefix_bound():
    # each bound is a strong pseudoprime to the whole prefix that decides
    # the numbers below it, so only the longer prefix used there refuses it
    for bound, k in arith._MR_PREFIXES:
        assert all(_strong_probable_prime(bound, a) for a in arith._MR_WITNESSES[:k])
        assert not is_prime(bound)


def test_is_prime_prefixes_agree_with_all_twelve_witnesses(monkeypatch):
    rng = random.Random(5)
    numbers = [rng.getrandbits(rng.randint(16, 62)) | 1 | 1 << 15 for _ in range(4000)]
    numbers += [bound + 2 * i for bound, _ in arith._MR_PREFIXES for i in range(-20, 21)]
    prefixed = [is_prime(n) for n in numbers]
    monkeypatch.setattr(arith, "_MR_PREFIXES", ())
    assert prefixed == [is_prime(n) for n in numbers]
    assert 100 < sum(prefixed) < len(numbers) - 100


def test_random_prime_three_bits():
    rng = random.Random(1)
    seen = {random_prime(3, rng) for _ in range(50)}
    assert seen == {5, 7}


def test_random_prime_62_bits():
    rng = random.Random(2)
    p = random_prime(62, rng)
    assert 1 << 61 <= p < 1 << 62
    assert is_prime(p)


def test_random_prime_trial_division_oracle():
    rng = random.Random(3)
    for _ in range(25):
        p = random_prime(17, rng)
        assert 1 << 16 <= p < 1 << 17
        for q in range(2, int(p ** 0.5) + 1):
            assert p % q != 0


def test_modinv():
    for p in (5, 97, 10007):
        for a in range(1, min(p, 50)):
            assert (modinv(a, p) * a) % p == 1


def test_crt_base_case():
    acc = CrtAccumulator.empty(1)
    acc = crt_absorb(acc, [3], 7)
    assert acc.modulus == 7
    assert list(acc.residues) == [3]


def test_crt_two_primes_exhaustive():
    acc = CrtAccumulator.empty(1)
    acc = crt_absorb(acc, [2], 5)
    acc = crt_absorb(acc, [3], 7)
    assert acc.modulus == 35
    # the unique value in 0..34 that is 2 mod 5 and 3 mod 7
    matches = [v for v in range(35) if v % 5 == 2 and v % 7 == 3]
    assert matches == [17]
    assert list(acc.residues) == [17]


def test_crt_same_prime_twice_rejected():
    acc = crt_absorb(CrtAccumulator.empty(1), [2], 5)
    with pytest.raises(ValueError):
        crt_absorb(acc, [1], 5)


def test_crt_length_mismatch():
    acc = CrtAccumulator.empty(2)
    with pytest.raises(ValueError):
        crt_absorb(acc, [1], 5)


def test_crt_residues_reduce_modulo_each_prime():
    rng = random.Random(5)
    primes = [random_prime(20, rng) for _ in range(4)]
    assert len(set(primes)) == 4
    vecs = [[rng.randrange(p) for _ in range(3)] for p in primes]
    acc = CrtAccumulator.empty(3)
    for p, vec in zip(primes, vecs):
        acc = crt_absorb(acc, vec, p)
    for p, vec in zip(primes, vecs):
        assert [r % p for r in acc.residues] == vec


def test_rational_reconstruct_examples():
    assert rational_reconstruct(65, 97) == Fraction(1, 3)
    assert (3 * 65) % 97 == 1  # the oracle behind the example
    assert rational_reconstruct(0, 101) == Fraction(0, 1)
    # r = 50 mod 101: brute force over |a|, b <= 7 finds no witness
    witnesses = [
        (a, b)
        for a in range(-7, 8)
        for b in range(1, 8)
        if (a - 50 * b) % 101 == 0
    ]
    got = rational_reconstruct(50, 101)
    if witnesses:
        assert got is not None
    else:
        assert got is None


@given(
    num=st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    den=st.integers(min_value=1, max_value=10 ** 6),
)
@settings(max_examples=60, deadline=None)
def test_crt_reconstruction_round_trip(num, den):
    """Encode a/b mod two 62-bit primes, absorb, reconstruct: exact."""
    q = Fraction(num, den)
    p1, p2 = 4611686018427387847, 4611686018427387817
    assert is_prime(p1) and is_prime(p2)
    acc = CrtAccumulator.empty(1)
    for p in (p1, p2):
        acc = crt_absorb(acc, [residue(q, p)], p)
    assert rational_reconstruct(acc.residues[0], acc.modulus) == q


def test_fork_rng_reproducible_and_label_sensitive():
    a = fork_rng(7, "x").random()
    b = fork_rng(7, "x").random()
    c = fork_rng(7, "y").random()
    d = fork_rng(8, "x").random()
    assert a == b
    assert a != c
    assert a != d


def test_is_prime_agrees_with_a_sieve_below_10_to_the_5():
    bound = 10**5
    sieve = [False, False] + [True] * (bound - 2)
    for q in range(2, 317):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(range(q * q, bound, q))
    assert [is_prime(n) for n in range(bound)] == sieve
    assert not any(is_prime(n) for n in range(-50, 0))


def test_is_prime_agrees_with_twelve_witnesses_above_the_gcd_bound():
    # no factor below the bound: the gcd passes them all to Miller-Rabin,
    # and a product of two such primes is composite
    primes = [q for q in range(1000, 1500) if all(q % d for d in range(2, 40))]
    numbers = primes + [a * b for a in primes for b in primes if a <= b]
    numbers += [a * b * c for a, b, c in zip(primes, primes[1:], primes[2:])]
    reference = [all(_strong_probable_prime(n, a) for a in arith._MR_WITNESSES) for n in numbers]
    assert [is_prime(n) for n in numbers] == reference
    assert sum(reference) == len(primes)


def _modulus(rng, bits):
    """A product of distinct random 23-bit primes with at least ``bits`` bits."""
    primes = set()
    while math.prod(primes).bit_length() < bits:
        primes.add(random_prime(23, rng))
    return math.prod(primes)


def _residues(vector, m):
    return [q.numerator * pow(q.denominator, -1, m) % m for q in vector]


def _common_denominator_vector(rng, length, num_bits, den_bits):
    """a_i / c for one random c, numerators of 1 to num_bits bits, and c / c = 1 last."""
    c = rng.getrandbits(den_bits) | 1 << (den_bits - 1)
    nums = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, num_bits)) for _ in range(length)]
    return [Fraction(a, c) for a in nums] + [Fraction(1)]


def test_vector_reconstruct_shares_one_denominator_below_the_per_coordinate_bound():
    # numerators up to 80 bits over one 60-bit denominator: each coordinate
    # alone needs about 161 bits, the vector about 96
    rng = random.Random(16)
    for _ in range(20):
        vector = _common_denominator_vector(rng, 40, 80, 60)
        need = max(2 * max(abs(q.numerator), q.denominator) ** 2 for q in vector)
        m = _modulus(rng, 110)
        assert m < need
        residues = _residues(vector, m)
        assert any(rational_reconstruct(r, m) is None for r in residues)
        assert vector_reconstruct(residues, m) == vector


def test_vector_reconstruct_refuses_random_residues():
    rng = random.Random(17)
    for length in (1, 2, 40, 300):
        for _ in range(25):
            m = _modulus(rng, 110)
            assert vector_reconstruct([rng.randrange(m) for _ in range(length)], m) is None


def test_vector_reconstruct_agrees_where_each_coordinate_reconstructs():
    rng = random.Random(18)
    for _ in range(30):
        c = rng.getrandbits(30) | 1 << 29
        vector = [Fraction(rng.randint(-(1 << 30), 1 << 30), c // rng.choice((1, 1, 2, 3))) for _ in range(20)]
        m = _modulus(rng, 120)
        residues = _residues(vector, m)
        each = [rational_reconstruct(r, m) for r in residues]
        assert each == vector
        assert vector_reconstruct(residues, m) == each
    assert vector_reconstruct([0, 1, 5], 2**61 - 1) == [0, 1, 5]
    with pytest.raises(ValueError):
        vector_reconstruct([0], 1)
