"""Dense linear algebra modulo a prime, on numpy arrays.

Every function here takes int64 arrays with entries reduced mod a prime
p < 2^MAX_PRIME_BITS = 2^23.  _echelon refuses larger primes, SampleConfig
keeps prime_bits at most MAX_PRIME_BITS, and ode.jet refuses them for
the point arrays of an evaluation matrix.

Forward elimination follows the recursive LU of FFLAS-FFPACK (Dumas,
Giorgi and Pernet, ACM TOMS 2008; Jeannerod, Pernet and Storjohann,
"Rank-profile revealing Gaussian elimination", J. Symb. Comput. 2013).
The columns are taken in outer blocks of 128, right-looking.  A block
is split in two: its left half is factored, applied to its right half,
and the right half is factored in turn, recursively, down to leaves of
at most 16 columns.  A leaf does one rank-1 update of its own columns
per pivot, on a column-major copy with raw int64 entries, each reduced
when its column is reached; it searches a column for its pivot only when
the entry on the next pivot row is 0 (see leaf).  Each pivot keeps its
raw value, so the pivots' rows and columns hold a lower triangle T; a
leaf inverts its T by doubling, and a block composes T^-1 from its halves,
[[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]], with two small
products.  Applying a factored block to the columns on its right turns
its pivot rows into U12 = T^-1 A12 and the rows below into
A22 - L21 @ U12, in tiles of 128 x 128.

Those products run in float64 BLAS on the residues as they are.  A
product of inner dimension k sums k terms of at most (p - 1)^2, so it is
exact while k (p - 1)^2 < 2^53 (the bound of FFLAS-FFPACK), which holds
for k <= 128 when p < 2^23: hence blocks of 128 columns.  The same bound
keeps int64 entries in range.  A rank-1 step of a leaf adds less than
2^46 to an entry, so the at most 128 steps of a panel stay below 2^54
without an intermediate reduction.  The rows below the pivots are
reduced only when their columns are factored.  Each update subtracts
less than 2^53 from an entry, and an entry meets at most cols / 128 + 3
updates before that, fewer than 2^10 for the at most 128,000 columns
_echelon takes, so it stays inside int64.

A matrix of at most 128 columns, one outer block, is a single rank-1
panel, which the leaf factors on a copy as it does a leaf of the
recursion, and calls no BLAS.  A wider one recurses, which a solve alone
gains from soon past one block: (n+8) x n at p < 2^23 with n = 96, 128,
160, 271 and 512 took 3.5, 4.9, 6.7, 10 and 33 ms recursive against 3.1,
5.0, 8.0, 22 and 153 ms as one panel (medians of 9, BLAS on one thread,
2 cores; n <= 128 recursed from 64-column outer blocks).

The recursion runs with numpy's OpenBLAS pinned to one thread
(_OneBlasThread), restored when the last concurrent elimination ends.
At tiles of 128 x 128 a second BLAS thread mostly spins: the 1292-column
solves of a dense (3,2,2) system took 2.29 s of CPU for 1.15 s of wall
with the default 2 threads, and 1.19 s of both with one (2 cores).
Concurrent solves come from the pool of SampleConfig.threads alone, and
only on supports of at least interp._POOL_MIN_COLS (2048) columns; a
narrower support solves on the calling thread.
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np

MAX_PRIME_BITS = 23  # every prime is below 2^MAX_PRIME_BITS
_BLOCK = 128         # columns per outer block: products of inner dimension 128
_LEAF = 16           # widest block factored by rank-1 updates in a recursion
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


def _reduce(a: np.ndarray, p: int) -> None:
    """a %= p in place for an int64 array, by floor division.

    numpy divides an int64 array by a scalar with a multiplication
    (libdivide) but computes % with a hardware division per entry: on
    1.7 million entries, // took 1.5 ms and % 6.7 ms.  The result is the
    same for every int64 entry, negative ones included.
    """
    q = a // p
    q *= p
    a -= q


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
    if W.shape[1] <= _BLOCK:
        _unit_pivots(W, 0, run.leaf(0, W.shape[1], False)[0])
        return run.pivots, run.free, run.limit
    with _ONE_BLAS_THREAD:
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
        A leaf, and the single panel of a matrix of at most _BLOCK
        columns alike, works on a reduced copy of its columns, stored
        column by column, and writes it back.  Raw entries are reduced
        only as their columns are reached (see the module docstring).

        Per pivot the leaf makes few numpy calls, since a narrow solve is
        bound by their number and not by its flops: the pivot is the top
        entry of the column unless that is 0, and only then does it
        search the rows below (the first nonzero one becomes the pivot);
        the pivot row is normalised in place; the rank-1 update
        broadcasts on the copy, in its memory order; and the inverse of
        each pivot is kept for the diagonal of T^-1.  Once every row holds
        a pivot, the columns left in the leaf are pivotless.
        """
        W, p = self.W, self.p
        r0 = len(self.pivots)
        rows = W.shape[0] - r0
        # P[j] is column c0 + j of the rows below the pivots so far
        P = np.ascontiguousarray(W[r0:, c0:c1].T)
        _reduce(P, p)
        rank = 0
        invs = []
        for j in range(c1 - c0):
            c = c0 + j
            if c >= self.limit:
                break
            col = P[j, rank:]
            col %= p
            if rank == rows or not col[0]:
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
                P[:, [rank, r]] = P[:, [r, rank]]
                W[[r0 + rank, r0 + r]] = W[[r0 + r, r0 + rank]]
            inv = pow(int(col[0]), p - 2, p)
            invs.append(inv)
            row = P[j + 1 :, rank]
            row %= p
            row *= inv
            row %= p
            P[j + 1 :, rank + 1 :] -= row[:, None] * col[1:]
            rank += 1
            self.pivots.append(c)
        W[r0:, c0:c1] = P.T
        piv = self.pivots[r0:]
        if not (invert and piv):
            return piv, None
        # T = D (I - M) with M strictly lower, and (I - M)^-1 is
        # (I + M)(I + M^2)(I + M^4)... up to M^(rank-1)
        T = P[[c - c0 for c in piv], :rank].T
        d_inv = np.array(invs)
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
    product = (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
    _reduce(product, p)
    return product


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
        _reduce(u, p)
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


class _OneBlasThread:
    """Context manager that runs numpy's OpenBLAS on one thread.

    The first of any number of concurrent holders saves the thread count
    and sets it to 1; the last to leave restores the saved count.  The
    count is process-wide, so numpy calls on other threads run on one
    BLAS thread meanwhile as well.  Without an OpenBLAS to find (another
    BLAS, or no /proc/self/maps) it does nothing.  The library is looked
    up on first use, not at import.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._functions = None  # (set, get) once looked up, () when not found
        self._depth = 0
        self._saved = 1

    def functions(self):
        """(set, get) of numpy's OpenBLAS thread count, or () without one."""
        with self._lock:
            if self._functions is None:
                self._functions = _openblas_thread_functions()
            return self._functions

    def __enter__(self):
        functions = self.functions()
        with self._lock:
            if functions and self._depth == 0:
                set_threads, get_threads = functions
                self._saved = get_threads()
                set_threads(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._functions and self._depth == 0:
                self._functions[0](self._saved)


def _openblas_thread_functions():
    """Find openblas_set_num_threads and openblas_get_num_threads in the
    OpenBLAS mapped into this process, preferring numpy's own copy.

    Wheels rename the symbols: numpy 2.4 exports
    scipy_openblas_set_num_threads64_, so a scipy_ prefix and a 64_ or
    _64 suffix are accepted.  Returns (set, get), or () when no mapped
    library has both.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return ()
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()}
    for path in sorted(paths, key=lambda path: ("numpy" not in path, path)):
        try:
            # RTLD_NOLOAD: only a library already in the process is opened
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", "_64", ""):
                set_threads = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if set_threads is not None and get_threads is not None:
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    return set_threads, get_threads
    return ()


_ONE_BLAS_THREAD = _OneBlasThread()
