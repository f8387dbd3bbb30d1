"""The modular echelon kernel against textbook elimination on Python ints."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from odelim import linalg
from odelim.linalg import _echelon, _kernel_vector

BLOCK = linalg._BLOCK
P16 = 65521
P23 = 8388593  # the largest prime below 2^23 = 2^MAX_PRIME_BITS
PRIMES = [P16, P23]
# primes above the bound: every check at them asserts that _echelon refuses
P25 = 33554393
P30 = (1 << 30) - 35
REFUSED = [P25, P30]


def reference(rows, p, degrees=None):
    """(pivots, free, processed, echelon rows) by row operations on Python ints."""
    A = [[x % p for x in row] for row in rows]
    m, n = len(A), len(A[0])
    pivots, free = [], []
    for c in range(n):
        if degrees is not None and free and degrees[c] != degrees[free[0]]:
            return pivots, free, c, A
        r = len(pivots)
        i = next((i for i in range(r, m) if A[i][c]), None)
        if i is None:
            free.append(c)
            continue
        A[r], A[i] = A[i], A[r]
        inv = pow(A[r][c], p - 2, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(r + 1, m):
            f = A[i][c]
            if f:
                A[i] = A[i][:c] + [(x - f * y) % p for x, y in zip(A[i][c:], A[r][c:])]
        pivots.append(c)
    return pivots, free, n, A


def reference_kernel(A, p, pivots, f):
    vec = [0] * len(A[0])
    vec[f] = 1
    for t in reversed(range(len(pivots))):
        j = pivots[t]
        if j < f:
            vec[j] = -sum(A[t][k] * vec[k] for k in range(j + 1, f + 1)) % p
    return vec


def make_matrix(seed, rows, cols, p, dependent=(), zero_rows=0, zero_at=()):
    """Random residues; ``dependent`` columns copy a combination of two
    earlier ones (so they are free), the first ``zero_rows`` rows are zero
    and the columns in ``zero_at`` vanish on the rows where their pivot
    would otherwise sit (both force row swaps)."""
    rng = np.random.default_rng(seed)
    A = [[int(x) for x in row] for row in rng.integers(0, p, size=(rows, cols))]
    for c in dependent:
        a, b = (int(x) for x in rng.integers(0, c, size=2))
        s, t = (int(x) for x in rng.integers(1, p, size=2))
        for row in A:
            row[c] = (s * row[a] + t * row[b]) % p
    for row in A[:zero_rows]:
        row[:] = [0] * cols
    for c in (c for c in zero_at if c < cols):
        for row in A[max(0, c - 3) : c + 3]:
            row[c] = 0
    return A


def check(A, p, degrees=None, kernels=6):
    """_echelon + _kernel_vector agree with the reference on A.

    For a prime above the bound, _echelon must refuse A and leave it
    untouched; the reference's (pivots, free, processed) stand in for its
    result, so the callers still check the rank profile they built.
    """
    W = np.array(A, dtype=np.int64)
    if p >> linalg.MAX_PRIME_BITS:
        with pytest.raises(ValueError, match=r"prime below 2\^23"):
            _echelon(W, p, degrees)
        assert W.tolist() == A
        return reference(A, p, degrees)[:3]
    got = _echelon(W, p, degrees)
    pivots, free, processed, R = reference(A, p, degrees)
    assert got == (pivots, free, processed)
    for t, j in enumerate(pivots):  # echelon form with unit pivots
        assert W[t, j] == 1
        assert not any(W[t, :j])
        assert all(0 <= int(x) < p for x in W[t, j:processed])
    picks = sorted(set(free[:kernels] + free[-kernels:] + [f for f in free if f % BLOCK in (0, BLOCK - 1)]))
    for f in picks:
        assert [int(x) for x in _kernel_vector(W, p, pivots, f)] == reference_kernel(R, p, pivots, f)
    return got


@pytest.fixture
def small_panels(monkeypatch):
    """Recursive path on small matrices: 8-column outer blocks split down
    to leaves of at most 3 columns, 5 x 5 update tiles."""
    monkeypatch.setattr(linalg, "_BLOCK", 8)
    monkeypatch.setattr(linalg, "_LEAF", 3)
    monkeypatch.setattr(linalg, "_CHUNK", 5)


@pytest.mark.parametrize("p", PRIMES + REFUSED)
@pytest.mark.parametrize("cols", [7, 8, 9, 19, 40])
def test_small_panels_full_and_deficient(small_panels, p, cols):
    for rows in (cols - 3, cols, cols + 4):
        check(make_matrix(cols * rows, rows, cols, p), p)
    # free columns inside a block and on both sides of a block edge
    dependent = [c for c in (3, 7, 8, 12, 16) if c < cols]
    check(make_matrix(cols, cols + 2, cols, p, dependent, zero_rows=2, zero_at=(8, 16)), p)


@pytest.mark.parametrize("p", PRIMES + REFUSED)
def test_small_panels_early_stop(small_panels, p):
    cols = 40
    degrees = [0] * 5 + [1] * 11 + [2] * 10 + [3] * 14  # strata end at 5, 16, 26, 40
    for free_col, processed in ((3, 5), (12, 16), (15, 16), (17, 26), (25, 26), (30, 40)):
        A = make_matrix(free_col, cols + 2, cols, p, dependent=[free_col], zero_rows=1)
        assert check(A, p, degrees)[1:] == ([free_col], processed)
    # the stratum of the first free column ends exactly on a block edge
    degrees = [0] * 16 + [1] * 24
    A = make_matrix(1, cols, cols, p, dependent=[10, 13])
    assert check(A, p, degrees)[1:] == ([10, 13], 16)


@pytest.mark.parametrize("p", PRIMES + REFUSED)
@pytest.mark.parametrize("cols", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_panel_edges_blocked(p, cols):
    rows = min(cols, BLOCK + 12)
    dependent = [c for c in (5, BLOCK - 1, BLOCK, BLOCK + 2) if c < cols]
    check(make_matrix(cols, rows, cols, p, dependent, zero_rows=2, zero_at=(BLOCK,)), p)


def test_panel_edges_early_stop_at_panel_boundary():
    cols = 2 * BLOCK + 3
    degrees = [0] * BLOCK + [1] * (cols - BLOCK)
    A = make_matrix(7, BLOCK + 10, cols, P23, dependent=[BLOCK - 20])
    assert check(A, P23, degrees)[1:] == ([BLOCK - 20], BLOCK)
    degrees = [0] * (BLOCK + 9) + [1] * (cols - BLOCK - 9)
    A = make_matrix(8, BLOCK + 10, cols, P23, dependent=[BLOCK + 4])
    assert check(A, P23, degrees)[1:] == ([BLOCK + 4], BLOCK + 9)


@pytest.mark.parametrize("p", [P16, P23, P30])
# one outer block is a single panel; wider matrices recurse, 512 columns included
@pytest.mark.parametrize("cols", [BLOCK - 1, BLOCK, BLOCK + 1, 4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1])
def test_crossover(monkeypatch, p, cols):
    calls = []
    update = linalg._update
    monkeypatch.setattr(linalg, "_update", lambda *a: calls.append(a[3]) or update(*a))
    dependent = [c for c in (BLOCK // 2, BLOCK) if c < cols - 1] + [cols - 1]
    check(make_matrix(cols, BLOCK + 8, cols, p, dependent, zero_rows=1), p, kernels=3)
    assert bool(calls) == (cols > BLOCK and p in PRIMES)


@pytest.fixture
def uneven(monkeypatch):
    """11-column outer blocks split 5 + 6, then 2 + 3 and 3 + 3; 4 x 4 tiles."""
    monkeypatch.setattr(linalg, "_BLOCK", 11)
    monkeypatch.setattr(linalg, "_LEAF", 3)
    monkeypatch.setattr(linalg, "_CHUNK", 4)


@pytest.mark.parametrize("p", PRIMES + REFUSED)
@pytest.mark.parametrize("cols", [11, 23, 37])
def test_uneven_splits(uneven, p, cols):
    for rows in (cols - 5, cols + 3):
        check(make_matrix(cols + rows, rows, cols, p), p)
    # leaves of the first block are [0, 2), [2, 5), [5, 8) and [8, 11)
    dependent = [c for c in (2, 4, 7, 8, 13, 21, 22) if c < cols]
    check(make_matrix(cols, cols + 1, cols, p, dependent, zero_rows=1, zero_at=(5, 11)), p)


@pytest.mark.parametrize("p", PRIMES + REFUSED)
def test_free_column_at_leaf_edges(uneven, p):
    cols = 23
    # column 0 is zero (the first column of the first leaf); 4 ends a leaf,
    # 5 starts one, 10 ends the first block and 11 starts the second
    A = make_matrix(3, cols + 2, cols, p)
    for row in A:
        row[0] = 0
        for c in (4, 5, 10, 11):
            row[c] = (row[c - 1] + 2 * row[c - 3]) % p
    assert check(A, p)[1] == [0, 4, 5, 10, 11]


@pytest.mark.parametrize("p", PRIMES + REFUSED)
def test_stratum_ends_inside_right_half(small_panels, p):
    # 8-column blocks split 4 + 4: a free column in the left half of the
    # second block, with its stratum ending inside the right half
    cols = 24
    degrees = [0] * 3 + [1] * 11 + [2] * 10  # strata end at 3, 14 and 24
    A = make_matrix(5, cols + 3, cols, p, dependent=[9, 12])
    assert check(A, p, degrees)[1:] == ([9, 12], 14)
    # and inside a leaf of the right half of the first block
    degrees = [0] * 2 + [1] * 5 + [2] * 17  # strata end at 2, 7 and 24
    A = make_matrix(6, cols + 3, cols, p, dependent=[3])
    assert check(A, p, degrees)[1:] == ([3], 7)


@pytest.mark.parametrize("p", PRIMES + REFUSED)
def test_fewer_rows_than_columns(small_panels, p):
    cols = 40
    for rows in (7, 8, 20):
        pivots, free, _ = check(make_matrix(rows, rows, cols, p, dependent=[2]), p)
        assert len(pivots) == rows and free[0] == 2
    degrees = [c // 6 for c in range(cols)]  # strata of 6 columns
    assert check(make_matrix(9, 9, cols, p), p, degrees)[1:] == ([9, 10, 11], 12)


@pytest.fixture(params=[False, True], ids=["one-panel", "small-panels"])
def panels(request):
    """A matrix of at most 40 columns as one panel, or, with small_panels'
    sizes, recursing to leaves of 2 and 3 columns."""
    if request.param:
        request.getfixturevalue("small_panels")


@pytest.mark.parametrize("p", PRIMES)
def test_leaf_searches_below_a_zero_top_entry(panels, p):
    # the entry on the next pivot row vanishes in columns 1, 5, 9, 13 and
    # 17, so their pivots come from rows further down
    A = make_matrix(4, 26, 24, p, zero_at=(1, 5, 9, 13, 17))
    assert check(A, p)[:2] == (list(range(24)), [])
    # and, after an eliminated column with a zero top entry, a column that
    # vanishes on every row left: no pivot
    A = make_matrix(5, 26, 24, p, dependent=[11], zero_at=(9, 17))
    assert check(A, p)[1] == [11]


@pytest.mark.parametrize("p", PRIMES)
def test_leaf_pivotless_column_inside_with_degree_stop(panels, p):
    # small panels factor columns 16..21 as the leaves [16, 19) and [19, 22):
    # column 17 is free in the middle of the first, and its stratum ends at 18
    degrees = [0] * 5 + [1] * 10 + [2] * 3 + [3] * 4
    A = make_matrix(17, 24, 22, p, dependent=[17])
    assert check(A, p, degrees)[1:] == ([17], 18)


@pytest.mark.parametrize("p", PRIMES)
def test_leaf_more_columns_than_rows(panels, p):
    # the rows run out after column 8: the rest of its leaf, [8, 11) with
    # small panels, has no row left to search
    pivots, free, _ = check(make_matrix(9, 9, 14, p), p)
    assert pivots == list(range(9)) and free == list(range(9, 14))
    # and with the degree stop: the stratum of column 9 ends at 12
    degrees = [c // 4 for c in range(14)]
    assert check(make_matrix(10, 9, 14, p), p, degrees)[1:] == ([9, 10, 11], 12)


def test_p23_raw_entries_in_leaf_and_panel():
    # unreduced rank-1 steps: up to 16 in a leaf of the recursion, where
    # entries next to p - 1 make each step add close to (p - 1)^2, and up
    # to 127 on the last rows of the widest single panel, about 2^53 in all
    rng = np.random.default_rng(23)
    A = (P23 - 1 - rng.integers(0, 3, size=(BLOCK + 4, BLOCK))).tolist()
    assert check(A, P23)[0] == list(range(BLOCK))
    cols = BLOCK + linalg._LEAF + 5  # leaves of 16 columns, then of 10 and 11
    A = (P23 - 1 - rng.integers(0, 3, size=(cols + 4, cols))).tolist()
    check(A, P23)


@pytest.mark.parametrize("p", PRIMES + REFUSED)
def test_float_products_exact_at_the_bound(p):
    # inner dimension _BLOCK = 128 with terms next to their largest,
    # (p - 1)^2: at P23 the sum reaches 0.999996 * 2^53, while above the
    # bound it rounds in float64 and _echelon refuses the prime
    k = linalg._BLOCK
    rng = np.random.default_rng(k)
    A = p - 1 - rng.integers(0, 4, size=(4, k))
    B = p - 1 - rng.integers(0, 4, size=(k, 3))
    exact = [[sum(int(a) * int(b) for a, b in zip(row, col)) for col in B.T] for row in A]
    product = A.astype(np.float64) @ B.astype(np.float64)
    assert ([[int(x) for x in row] for row in product] == exact) == (p in PRIMES)
    if p == P23:
        assert max(map(max, exact)) > 0.999995 * 2**53
    if p in PRIMES:
        assert linalg._matmod(A, B, p).tolist() == [[x % p for x in row] for row in exact]
    else:
        with pytest.raises(ValueError, match=r"prime below 2\^23"):
            _echelon(A, p)


def test_smallest_prime_above_the_bound_is_refused():
    p = 8388617  # the smallest prime above 2^23
    W = np.ones((3, 3), dtype=np.int64)
    with pytest.raises(ValueError, match=r"prime below 2\^23"):
        _echelon(W, p)
    assert (W == 1).all()


def test_rank_deficient_600_columns():
    # too large for the Python reference: check W0 . v = 0 for every
    # kernel vector and the rank profile set by the dependent columns
    p, cols = P23, 600
    rng = np.random.default_rng(600)
    W0 = rng.integers(0, p, size=(cols + 8, cols))
    dependent = [1, 127, 128, 255, 256, 300, 513, 599]
    for c in dependent:
        a, b = rng.integers(0, c, size=2)
        W0[:, c] = (3 * W0[:, a] + 5 * W0[:, b]) % p
    W = W0.copy()
    pivots, free, processed = _echelon(W, p)
    assert free == dependent and processed == cols
    assert pivots == [c for c in range(cols) if c not in dependent]
    for t, j in enumerate(pivots):
        assert W[t, j] == 1 and not W[t, :j].any()
    rows = W0.astype(object)
    for f in free:
        v = _kernel_vector(W, p, pivots, f).astype(object)
        assert v[f] == 1 and not v[f + 1 :].any()
        assert not any(x % p for x in rows @ v)


def test_early_stop_leaves_later_columns_untouched(small_panels):
    # 8-column blocks split 4 + 4 and then 2 + 2: the stop at column 2
    # ends the first leaf, so no update reaches columns 2 and on
    p, cols = P23, 24
    degrees = [0] * 2 + [1] * 22
    A = make_matrix(2, cols, cols, p, dependent=[1])
    W0 = np.array(A, dtype=np.int64)
    W = W0.copy()
    assert _echelon(W, p, degrees)[1:] == ([1], 2)
    assert (W[:, 2:] == W0[:, 2:]).all()


def same_columns_up_to_row_swaps(W, W0, start):
    """Columns start.. of W hold the same multiset of entries as W0's."""
    return (np.sort(W[:, start:], axis=0) == np.sort(W0[:, start:], axis=0)).all()


@pytest.mark.parametrize("p", PRIMES)
def test_early_stop_in_a_later_block_leaves_the_later_blocks_alone(small_panels, p):
    # 8-column outer blocks: column 18 is free inside the third block,
    # [16, 24), and its stratum ends at 21.  The blocks before it reach
    # only the columns up to the stop's block, so from 24 on only row
    # swaps move the entries.
    cols = 40
    degrees = [0] * 5 + [1] * 16 + [2] * 19  # strata end at 5, 21 and 40
    A = make_matrix(18, cols + 2, cols, p, dependent=[18])
    assert check(A, p, degrees)[1:] == ([18], 21)
    W0 = np.array(A, dtype=np.int64)
    W = W0.copy()
    _echelon(W, p, degrees)
    assert same_columns_up_to_row_swaps(W, W0, 24)


def test_early_stop_in_a_later_block_600_columns():
    # the same at the real block size: column 300 is free inside the
    # third outer block, [256, 384), and its stratum ends at 320
    p, cols = P23, 600
    rng = np.random.default_rng(300)
    W0 = rng.integers(0, p, size=(cols + 8, cols))
    a, b = rng.integers(0, 300, size=2)
    W0[:, 300] = (3 * W0[:, a] + 5 * W0[:, b]) % p
    degrees = [0] * 320 + [1] * (cols - 320)
    W = W0.copy()
    pivots, free, processed = _echelon(W, p, degrees)
    assert free == [300] and processed == 320
    assert pivots == [c for c in range(320) if c != 300]
    for t, j in enumerate(pivots):
        assert W[t, j] == 1 and not W[t, :j].any()
    v = _kernel_vector(W, p, pivots, 300).astype(object)
    assert v[300] == 1 and not v[301:].any()
    assert not any(x % p for x in W0.astype(object) @ v)
    assert same_columns_up_to_row_swaps(W, W0, 3 * BLOCK)


def test_echelon_allocates_little_beyond_its_matrix():
    # a 1300 x 1292 solve, the width of a saturated (3,2,2) bound, holds
    # its tiles, leaf copies and the T^-1 of each outer block: about 1 MB
    # (tracemalloc), against 13.4 MB for the matrix it eliminates in place
    p, cols = P23, 1292
    W = np.random.default_rng(1292).integers(0, p, size=(cols + 8, cols))
    tracemalloc.start()
    try:
        _echelon(W, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def test_width_limit_of_delayed_reduction():
    with pytest.raises(ValueError, match="fewer than 128000 columns"):
        _echelon(np.zeros((1, linalg._MAX_COLS), dtype=np.int64), P23)


# --- numpy's BLAS on one thread while an elimination recurses ----------------

BLAS_THREADS = linalg._ONE_BLAS_THREAD.functions()
needs_openblas = pytest.mark.skipif(
    not BLAS_THREADS, reason="numpy's BLAS is not an OpenBLAS whose thread count _OneBlasThread finds"
)


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS at 3 threads during the test; yields the count getter."""
    set_threads, get_threads = BLAS_THREADS
    before = get_threads()
    set_threads(3)
    try:
        yield get_threads
    finally:
        set_threads(before)


def random_matrix(seed, rows, cols):
    return np.random.default_rng(seed).integers(0, P23, size=(rows, cols))


@needs_openblas
def test_blas_products_run_on_one_thread(monkeypatch, blas_threads):
    seen = []
    for name in ("_matmod", "_update"):
        product = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, product=product: seen.append(blas_threads()) or product(*a))
    _echelon(random_matrix(1, 2 * BLOCK + 8, 2 * BLOCK + 3), P23)
    assert seen and set(seen) == {1}
    assert blas_threads() == 3


@needs_openblas
def test_blas_thread_count_restored_after_return_and_raise(monkeypatch, blas_threads):
    W = random_matrix(2, BLOCK + 20, 2 * BLOCK)
    _echelon(W.copy(), P23)
    assert blas_threads() == 3
    leaf = linalg._Elimination.leaf

    def failing_leaf(self, c0, c1, invert):
        if c0 >= BLOCK // 2:  # after the first updates
            raise RuntimeError("leaf failed")
        return leaf(self, c0, c1, invert)

    monkeypatch.setattr(linalg._Elimination, "leaf", failing_leaf)
    with pytest.raises(RuntimeError, match="leaf failed"):
        _echelon(W.copy(), P23)
    assert blas_threads() == 3


@needs_openblas
def test_overlapping_eliminations_keep_one_thread_until_the_last_leaves(monkeypatch, blas_threads):
    # both eliminations are inside before either goes on; the second then
    # waits for the first to return, and must still see one BLAS thread
    inside = threading.Barrier(2, timeout=30)
    first_done = threading.Event()
    seen = {"first": [], "second": []}
    update = linalg._update

    def spy(*args):
        name = threading.current_thread().name
        if not seen[name]:
            inside.wait()
            if name == "second" and not first_done.wait(30):
                seen[name].append("first never returned")
        seen[name].append(blas_threads())
        return update(*args)

    def first():
        _echelon(random_matrix(3, BLOCK + 20, BLOCK + 10), P23)
        first_done.set()

    monkeypatch.setattr(linalg, "_update", spy)
    threads = [
        threading.Thread(target=first, name="first"),
        threading.Thread(target=_echelon, args=(random_matrix(4, 2 * BLOCK + 8, 2 * BLOCK), P23), name="second"),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads)
    assert seen["first"] and set(seen["first"]) == {1}
    assert len(seen["second"]) > 1 and set(seen["second"]) == {1}
    assert blas_threads() == 3


@needs_openblas
def test_many_threads_of_eliminations_restore_the_count(blas_threads):
    # more threads than cores, switching often: a lost update of the depth
    # count would leave BLAS at one thread or restore it too early
    errors = []

    def solve(seed):
        try:
            for k in range(3):
                W0 = random_matrix(seed + k, BLOCK + 12, BLOCK + 1 + k)
                pivots, free, _ = _echelon(W0.copy(), P23)
                assert len(pivots) + len(free) == W0.shape[1]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(10 * i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert blas_threads() == 3
    assert linalg._ONE_BLAS_THREAD._depth == 0
