"""Dense linear algebra modulo a prime, on numpy arrays.

Every function here takes int64 arrays with entries reduced mod a prime
p < 2^30: a product of two residues then fits in 60 bits, and the
float64 products below stay exact.  The precondition is not checked
here: SampleConfig keeps prime_bits at most MAX_PRIME_BITS, and
interp.assemble refuses larger primes.

Forward elimination runs over panels of columns, in the style of the
right-looking blocked LU of FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM
TOMS 2008).  Inside a panel each pivot does a rank-1 update of the panel
columns only, on raw int64 entries with delayed reduction.  Once the
panel is factored, the pivot rows to its right are solved with the
panel's k x k lower triangle, and the rows below take one product
A22 -= L21 @ U12.  Those products run in float64 BLAS: the left factor is
split into 15-bit halves, so every partial sum is below k * 2^15 * p,
and k <= 128 with p < 2^30 keeps it below 2^52, exact in float64 (whose
integers are exact up to 2^53).  The trailing block is updated in column
chunks of at most 128, which keeps the float temporaries small.

A matrix of at most 512 columns is a single panel.  On 2 cores one
solve alone gains from panels above about 330 columns, but two solves at
once (``threads=2``) share the cores with the BLAS threads, and there
the panels only break even near 512 columns:
(n+8) x n with n = 271, 512 and 640 took 48, 148 and 223 ms in panels
against 36, 152 and 309 ms as one panel.
"""

from __future__ import annotations

import numpy as np

MAX_PRIME_BITS = 30  # every prime is below 2^MAX_PRIME_BITS
_PANEL = 128         # columns per panel; k = 128 keeps k * 2^15 * p < 2^53 for p < 2^30
_SINGLE_PANEL = 512  # widest matrix eliminated as one panel
_CHUNK = 128         # trailing-block columns per float64 product


def _moddot(a, b, p: int) -> int:
    """Exact dot product mod p of 1-d arrays with entries in [0, p)."""
    if len(a) == 0:
        return 0
    # keep partial sums inside int64: each product is < p^2
    block = max(1, (1 << 62) // ((p - 1) ** 2 + 1))
    if len(a) <= block:
        return int(np.dot(a, b) % p)
    total = 0
    for i in range(0, len(a), block):
        total = (total + int(np.dot(a[i : i + block], b[i : i + block]))) % p
    return total


def _echelon(W: np.ndarray, p: int, degrees=None):
    """In-place left-to-right forward elimination mod p.

    Returns (pivots, free_cols, processed).  Over the first ``processed``
    columns, pivot rows end up reduced mod p with unit pivots and zeros
    to their left; entries at and right of ``processed`` are unspecified
    when elimination stops early.  With ``degrees`` given (one per
    column), elimination stops after finishing the degree stratum that
    contains the first pivotless column, which is all the degree
    filtration needs.

    Each panel step adds at most (p-1)^2 in magnitude to a raw int64
    entry, so reducing every ``interval`` steps keeps everything inside
    the 2^62 range.
    """
    cols = W.shape[1]
    width = cols if cols <= _SINGLE_PANEL else _PANEL
    interval = max(1, ((1 << 62) - p) // ((p - 1) ** 2))
    pivots = []
    free = []
    limit = cols
    c0 = 0
    while c0 < limit:
        c1 = min(c0 + width, limit)
        r0 = rank = len(pivots)
        steps = 0
        for c in range(c0, c1):
            if c >= limit:
                break
            W[rank:, c] %= p
            nz = np.flatnonzero(W[rank:, c])
            if nz.size == 0:
                if degrees is not None and not free:
                    limit = next(
                        (j for j in range(c + 1, cols) if degrees[j] != degrees[c]), cols
                    )
                free.append(c)
                continue
            r = rank + int(nz[0])
            if r != rank:
                W[[rank, r]] = W[[r, rank]]
            # the raw pivot stays in place for the triangle solve below;
            # the column under it keeps the multipliers (L)
            inv = pow(int(W[rank, c]), p - 2, p)
            row = W[rank, c + 1 : c1] % p * inv % p
            W[rank, c + 1 : c1] = row
            factors = W[rank + 1 :, c]
            if np.count_nonzero(factors):
                W[rank + 1 :, c + 1 : c1] -= np.outer(factors, row)
                steps += 1
                if steps >= interval:
                    W[rank + 1 :, c + 1 : c1] %= p
                    steps = 0
            rank += 1
            pivots.append(c)
        c1 = min(c1, limit)
        piv = pivots[r0:]
        if piv:
            if c1 < limit:
                _update_right(W, p, r0, piv, c1, limit, interval)
            for t, j in enumerate(piv, r0):
                W[t, j] = 1
                W[t + 1 :, j] = 0
        c0 = c1
    return pivots, free, limit


def _update_right(W, p, r0, piv, c1, limit, interval):
    """Apply a factored panel to columns [c1, limit).

    Rows r0.. of the panel's pivots hold the triangle D + L11 (raw
    pivots on its diagonal) in the pivot columns, and the rows below hold
    the multipliers L21 there.  The pivot rows become
    U12 = (D + L11)^-1 A12 and the rows below A22 - L21 @ U12, mod p.
    """
    rank = r0 + len(piv)
    t_hi, t_lo = _halves(_lower_inverse(np.tril(W[r0:rank, piv]), p, interval))
    l_hi, l_lo = _halves(W[rank:, piv])
    for a in range(c1, limit, _CHUNK):
        b = min(a + _CHUNK, limit)
        u = _mulmod(t_hi, t_lo, (W[r0:rank, a:b] % p).astype(np.float64), p) % p
        W[r0:rank, a:b] = u
        block = W[rank:, a:b]
        block -= _mulmod(l_hi, l_lo, u.astype(np.float64), p)
        block %= p


def _lower_inverse(T, p, interval):
    """Inverse mod p of a lower-triangular int64 matrix with entries in [0, p)."""
    k = len(T)
    X = np.eye(k, dtype=np.int64)
    steps = 0
    for t in range(k):
        X[t, : t + 1] = X[t, : t + 1] % p * pow(int(T[t, t]), p - 2, p) % p
        X[t + 1 :, : t + 1] -= np.outer(T[t + 1 :, t], X[t, : t + 1])
        steps += 1
        if steps >= interval:
            X[t + 1 :] %= p
            steps = 0
    return X


def _halves(A):
    """float64 high and low 15-bit halves of an int64 array with entries in [0, 2^30)."""
    return (A >> 15).astype(np.float64), (A & 0x7FFF).astype(np.float64)


def _mulmod(hi, lo, B, p):
    """int64 entries in [0, 2^53) congruent to (hi * 2^15 + lo) @ B mod p.

    B holds entries of [0, p) as float64.  Each float64 product sums at
    most k terms below 2^15 * p, which is exact while k * 2^15 * p < 2^53.
    """
    out = (hi @ B).astype(np.int64) % p
    out <<= 15
    out += (lo @ B).astype(np.int64)
    return out


def _kernel_vector(W: np.ndarray, p: int, pivots, free_col: int):
    """Back-substitute the kernel vector with a 1 at ``free_col``.

    Works on the echelon form produced by _echelon; only pivot columns
    left of free_col can be nonzero, so the vector (one entry per column
    of W) is supported on the prefix [0, free_col].
    """
    vec = np.zeros(W.shape[1], dtype=W.dtype)
    vec[free_col] = 1
    for t in reversed(range(len(pivots))):
        j = pivots[t]
        if j >= free_col:
            continue
        s = _moddot(W[t, j + 1 : free_col + 1], vec[j + 1 : free_col + 1], p)
        vec[j] = (-s) % p
    return vec
