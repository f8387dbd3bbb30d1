"""Dense linear algebra modulo a prime, on numpy arrays.

Every function here takes int64 arrays with entries reduced mod a prime
p < 2^MAX_PRIME_BITS = 2^23.  _echelon refuses larger primes, SampleConfig
keeps prime_bits at most MAX_PRIME_BITS, and interp.assemble refuses
larger primes too.

Forward elimination follows the recursive LU of FFLAS-FFPACK (Dumas,
Giorgi and Pernet, ACM TOMS 2008; Jeannerod, Pernet and Storjohann,
"Rank-profile revealing Gaussian elimination", J. Symb. Comput. 2013).
The columns are taken in outer blocks of 128, right-looking.  A block
is split in two: its left half is factored, applied to its right half,
and the right half is factored in turn, recursively, down to leaves of
at most 16 columns.  A leaf does one rank-1 update of its own columns
per pivot, on a column-major copy with raw int64 entries, each reduced
when its column is reached.  Each pivot keeps its raw value, so the
pivots' rows and columns hold a lower triangle T; a leaf inverts its T
by doubling (see leaf), and a block composes T^-1 from its halves,
[[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]], with two small
products.  Applying a factored block to the columns on its right turns
its pivot rows into U12 = T^-1 A12 and the rows below into
A22 - L21 @ U12, in tiles of 128 x 128.

Those products run in float64 BLAS on the residues as they are.  A
product of inner dimension k sums k terms of at most (p - 1)^2, so it is
exact while k (p - 1)^2 < 2^53 (the bound of FFLAS-FFPACK), which holds
for k <= 128 when p < 2^23: hence blocks of 128 columns.  The same bound
keeps int64 entries in range.  A rank-1 step of a leaf adds less than
2^46 to an entry, so the at most 512 steps of a panel stay below 2^55
without an intermediate reduction.  The rows below the pivots are
reduced only when their columns are factored.  Each update subtracts
less than 2^53 from an entry, and an entry meets at most cols / 128 + 3
updates before that, fewer than 2^10 for the at most 128,000 columns
_echelon takes, so it stays inside int64.

A matrix of at most 512 columns is a single rank-1 panel, on W itself.
A solve alone gains from the recursion well below that: (n+8) x n with
n = 271, 512 and 640 took 18, 47 and 87 ms recursive against 25, 134
and 283 ms as one panel.  But two solves at once (``threads=2``) share
the 2 cores with the BLAS threads: 40 solves of 279 x 271 on 2 pool
threads took 0.78-0.95 s as single panels and 0.86-1.07 s recursive.
"""

from __future__ import annotations

import numpy as np

MAX_PRIME_BITS = 23  # every prime is below 2^MAX_PRIME_BITS
_BLOCK = 128         # columns per outer block: products of inner dimension 128
_LEAF = 16           # widest block factored by rank-1 updates in a recursion
_SINGLE_PANEL = 512  # widest matrix eliminated as one rank-1 panel
_CHUNK = 128         # rows and columns of a tile of the trailing update
_MAX_COLS = 128_000  # widest matrix: the delayed reduction stays inside int64


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
    """
    if W.shape[1] >= _MAX_COLS:
        raise ValueError(f"_echelon takes fewer than {_MAX_COLS} columns")
    if p >> MAX_PRIME_BITS:
        raise ValueError(f"_echelon needs a prime below 2^{MAX_PRIME_BITS} (exact float64 products)")
    run = _Elimination(W, p, degrees)
    if W.shape[1] <= _SINGLE_PANEL:
        _unit_pivots(W, 0, run.leaf(0, W.shape[1], False)[0])
        return run.pivots, run.free, run.limit
    c0 = 0
    while c0 < run.limit:
        r0 = len(run.pivots)
        c1 = min(c0 + _BLOCK, run.limit)
        piv, inverse = run.factor(c0, c1, c1 < run.limit)
        c1 = min(c1, run.limit)
        if piv and c1 < run.limit:
            _update(W, p, r0, piv, inverse, c1, run.limit)
        _unit_pivots(W, r0, piv)
        c0 = c1
    return run.pivots, run.free, run.limit


def _unit_pivots(W, r0, piv):
    """Set the pivots of rows r0.. to 1 and clear the multipliers under them."""
    for t, j in enumerate(piv, r0):
        W[t, j] = 1
        W[t + 1 :, j] = 0


class _Elimination:
    """The state of one _echelon call: pivots and free columns so far, and
    ``limit``, the column where the degree filtration lets it stop."""

    def __init__(self, W, p, degrees):
        self.W, self.p, self.degrees = W, p, degrees
        self.pivots = []
        self.free = []
        self.limit = W.shape[1]

    def factor(self, c0, c1, invert):
        """Factor columns [c0, c1) on the rows below the pivots so far.

        Returns the new pivot columns and, when ``invert``, the inverse
        mod p of their triangle T (see leaf).  A block wider than _LEAF
        factors its left half, applies it to its right half, factors
        that, and composes T^-1 from the inverses of its halves:
        [[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]].
        """
        if c1 - c0 <= _LEAF:
            return self.leaf(c0, c1, invert)
        W, p = self.W, self.p
        r0 = len(self.pivots)
        cm = (c0 + c1) // 2
        left, a_inv = self.factor(c0, cm, True)
        c1 = min(c1, self.limit)
        if cm >= c1:
            return left, a_inv
        if left:
            _update(W, p, r0, left, a_inv, cm, c1)
        right, b_inv = self.factor(cm, c1, invert)
        if not invert:
            return left + right, None
        if not (left and right):
            return left + right, a_inv if left else b_inv
        ka, kb = len(left), len(right)
        C = W[r0 + ka : r0 + ka + kb, left]
        BCA = _matmod(b_inv, _matmod(C, a_inv, p), p)
        inverse = np.zeros((ka + kb, ka + kb), dtype=np.int64)
        inverse[:ka, :ka] = a_inv
        inverse[ka:, ka:] = b_inv
        inverse[ka:, :ka] = -BCA % p
        return left + right, inverse

    def leaf(self, c0, c1, invert):
        """Factor columns [c0, c1) by rank-1 updates on raw int64 entries.

        Each pivot row keeps its raw pivot in place and the columns under
        it keep the multipliers (L), so the pivots' rows and columns hold
        the lower triangle T = D + L11 for the update of the columns to
        their right; the rest of each pivot row is divided by its pivot.
        A leaf of the recursion works on a reduced copy of its columns,
        stored column by column, and writes it back; the single panel
        works on W itself.  Raw entries are reduced only as their columns
        are reached (see the module docstring).
        """
        W, p = self.W, self.p
        r0 = len(self.pivots)
        copy = W.shape[1] > _SINGLE_PANEL
        if copy:
            P = np.ascontiguousarray(W[r0:, c0:c1].T)
            P %= p
            A = P.T
        else:
            A = W
        rank = 0
        for j in range(c1 - c0):
            c = c0 + j
            if c >= self.limit:
                break
            col = A[rank:, j]
            col %= p
            nz = col.nonzero()[0]
            if nz.size == 0:
                if self.degrees is not None and not self.free:
                    degrees = self.degrees
                    self.limit = next(
                        (i for i in range(c + 1, len(degrees)) if degrees[i] != degrees[c]),
                        len(degrees),
                    )
                self.free.append(c)
                continue
            r = rank + int(nz[0])
            if r != rank:
                A[[rank, r]] = A[[r, rank]]
                if copy:
                    W[[r0 + rank, r0 + r]] = W[[r0 + r, r0 + rank]]
            inv = pow(int(A[rank, j]), p - 2, p)
            row = A[rank, j + 1 :] % p * inv % p
            A[rank, j + 1 :] = row
            if nz.size > 1:
                block = A[rank + 1 :, j + 1 :]
                # the product in the memory order of the block
                block -= np.outer(row, A[rank + 1 :, j]).T if copy else np.outer(A[rank + 1 :, j], row)
            rank += 1
            self.pivots.append(c)
        if copy:
            W[r0:, c0:c1] = A
        piv = self.pivots[r0:]
        if not (invert and piv):
            return piv, None
        # T = D (I - M) with M strictly lower, and (I - M)^-1 is
        # (I + M)(I + M^2)(I + M^4)... up to M^(rank-1)
        T = A[:rank, [c - c0 for c in piv]]
        d_inv = np.array([pow(int(d), p - 2, p) for d in np.diagonal(T)])
        M = -np.tril(T, -1) * d_inv[:, None] % p
        S = M.copy()
        S[range(rank), range(rank)] = 1
        span = 2
        while span < rank:
            M = _matmod(M, M, p)
            S = (S + _matmod(S, M, p)) % p
            span *= 2
        return piv, S * d_inv % p


def _matmod(A, B, p):
    """A @ B mod p for int64 matrices with entries in [0, p) and an inner
    dimension of at most 128, in float64 BLAS (exact, see the module
    docstring)."""
    return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % p


def _update(W, p, r0, piv, inverse, a, b):
    """Apply factored pivots to columns [a, b).

    Rows r0.. of the pivots hold their triangle T in the pivot columns,
    whose inverse is ``inverse``, and the rows below hold the multipliers
    L21 there.  The pivot rows become U12 = T^-1 A12, reduced, and the
    rows below A22 - L21 @ U12 up to a multiple of p, in tiles of at
    most _CHUNK x _CHUNK.
    """
    rank = r0 + len(piv)
    # the pivot columns, as a slice when they are contiguous
    lcols = slice(piv[0], piv[-1] + 1) if piv[-1] - piv[0] == len(piv) - 1 else piv
    for s in range(a, b, _CHUNK):
        e = min(s + _CHUNK, b)
        u = W[r0:rank, s:e]
        u %= p
        u[...] = _matmod(inverse, u, p)
        right = u.astype(np.float64)
        for i in range(rank, W.shape[0], _CHUNK):
            block = W[i : i + _CHUNK, s:e]
            block -= (W[i : i + _CHUNK, lcols].astype(np.float64) @ right).astype(np.int64)


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
