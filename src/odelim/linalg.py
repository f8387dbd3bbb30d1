"""Dense linear algebra modulo a prime, on numpy arrays.

Arrays hold int64 entries for primes below 2^30, where every product of
two residues fits in 63 bits, and Python ints (object dtype) above that.
"""

from __future__ import annotations

import numpy as np


def _moddot(a, b, p: int) -> int:
    """Exact dot product mod p of 1-d arrays with entries in [0, p)."""
    if len(a) == 0:
        return 0
    if a.dtype == object or b.dtype == object:
        return int(sum(int(x) * int(y) for x, y in zip(a, b)) % p)
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

    Returns (pivots, free_cols, processed).  Pivot rows end up reduced mod
    p with unit pivots and zeros to their left.  With ``degrees`` given
    (nondecreasing per column), elimination stops after finishing the
    degree stratum that contains the first pivotless column, which is all
    the degree filtration needs.

    For primes below 2^30 the update keeps raw int64 entries and reduces
    the trailing block only every few thousand steps (each step adds at
    most (p-1)^2 in magnitude, so the reduction interval keeps everything
    inside the 2^62 range).
    """
    rows, cols = W.shape
    if W.dtype == object:
        interval = 1
    else:
        interval = max(1, ((1 << 62) - p) // ((p - 1) ** 2))
    pivots = []
    free = []
    stop_degree = None
    rank = 0
    steps = 0
    processed = cols
    for c in range(cols):
        if degrees is not None and free and degrees[c] != stop_degree:
            processed = c
            break
        W[rank:, c] %= p
        nz = np.nonzero(W[rank:, c])[0]
        if nz.size == 0:
            free.append(c)
            if stop_degree is None and degrees is not None:
                stop_degree = degrees[c]
            continue
        r = rank + int(nz[0])
        if r != rank:
            W[[rank, r]] = W[[r, rank]]
        row = W[rank] % p
        inv = pow(int(row[c]), p - 2, p)
        row = row * inv % p
        W[rank] = row
        if rank + 1 < rows:
            factors = W[rank + 1 :, c].copy()
            if np.count_nonzero(factors):
                W[rank + 1 :, c:] -= np.outer(factors, row[c:])
                steps += 1
                if steps >= interval:
                    W[rank + 1 :, c:] %= p
                    steps = 0
        rank += 1
        pivots.append(c)
    return pivots, free, processed


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
