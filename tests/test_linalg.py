"""The modular echelon kernel against textbook elimination on Python ints."""

import numpy as np
import pytest

from odelim import linalg
from odelim.linalg import _echelon, _kernel_vector

PANEL = linalg._PANEL
SINGLE = linalg._SINGLE_PANEL
P16 = 65521
P25 = 33554393
P30 = (1 << 30) - 35  # the largest prime below 2^30
PRIMES = [P16, P25, P30]


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
    """_echelon + _kernel_vector agree with the reference on A."""
    W = np.array(A, dtype=np.int64)
    got = _echelon(W, p, degrees)
    pivots, free, processed, R = reference(A, p, degrees)
    assert got == (pivots, free, processed)
    for t, j in enumerate(pivots):  # echelon form with unit pivots
        assert W[t, j] == 1
        assert not any(W[t, :j])
        assert all(0 <= int(x) < p for x in W[t, j:processed])
    picks = sorted(set(free[:kernels] + free[-kernels:] + [f for f in free if f % PANEL in (0, PANEL - 1)]))
    for f in picks:
        assert [int(x) for x in _kernel_vector(W, p, pivots, f)] == reference_kernel(R, p, pivots, f)
    return got


@pytest.fixture
def small_panels(monkeypatch):
    """Blocked path on small matrices: 8-column panels, 5-column chunks."""
    monkeypatch.setattr(linalg, "_PANEL", 8)
    monkeypatch.setattr(linalg, "_SINGLE_PANEL", 0)
    monkeypatch.setattr(linalg, "_CHUNK", 5)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("cols", [7, 8, 9, 19, 40])
def test_small_panels_full_and_deficient(small_panels, p, cols):
    for rows in (cols - 3, cols, cols + 4):
        check(make_matrix(cols * rows, rows, cols, p), p)
    # free columns inside a panel and on both sides of a panel edge
    dependent = [c for c in (3, 7, 8, 12, 16) if c < cols]
    check(make_matrix(cols, cols + 2, cols, p, dependent, zero_rows=2, zero_at=(8, 16)), p)


@pytest.mark.parametrize("p", PRIMES)
def test_small_panels_early_stop(small_panels, p):
    cols = 40
    degrees = [0] * 5 + [1] * 11 + [2] * 10 + [3] * 14  # strata end at 5, 16, 26, 40
    for free_col, processed in ((3, 5), (12, 16), (15, 16), (17, 26), (25, 26), (30, 40)):
        A = make_matrix(free_col, cols + 2, cols, p, dependent=[free_col], zero_rows=1)
        assert check(A, p, degrees)[1:] == ([free_col], processed)
    # the stratum of the first free column ends exactly on a panel edge
    degrees = [0] * 16 + [1] * 24
    A = make_matrix(1, cols, cols, p, dependent=[10, 13])
    assert check(A, p, degrees)[1:] == ([10, 13], 16)


@pytest.mark.parametrize("p", [P16, P25, P30])
@pytest.mark.parametrize("cols", [PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 3])
def test_panel_edges_blocked(monkeypatch, p, cols):
    monkeypatch.setattr(linalg, "_SINGLE_PANEL", 0)
    rows = min(cols, PANEL + 12)
    dependent = [c for c in (5, PANEL - 1, PANEL, PANEL + 2) if c < cols]
    check(make_matrix(cols, rows, cols, p, dependent, zero_rows=2, zero_at=(PANEL,)), p)


def test_panel_edges_early_stop_at_panel_boundary(monkeypatch):
    monkeypatch.setattr(linalg, "_SINGLE_PANEL", 0)
    cols = 2 * PANEL + 3
    degrees = [0] * PANEL + [1] * (cols - PANEL)
    A = make_matrix(7, PANEL + 10, cols, P25, dependent=[PANEL - 20])
    assert check(A, P25, degrees)[1:] == ([PANEL - 20], PANEL)
    degrees = [0] * (PANEL + 9) + [1] * (cols - PANEL - 9)
    A = make_matrix(8, PANEL + 10, cols, P30, dependent=[PANEL + 4])
    assert check(A, P30, degrees)[1:] == ([PANEL + 4], PANEL + 9)


@pytest.mark.parametrize("p", [P16, P30])
@pytest.mark.parametrize("cols", [SINGLE - 1, SINGLE, SINGLE + 1])
def test_crossover(monkeypatch, p, cols):
    calls = []
    update = linalg._update_right
    monkeypatch.setattr(linalg, "_update_right", lambda *a: calls.append(a[3]) or update(*a))
    dependent = [PANEL // 2, PANEL, cols - 1]
    check(make_matrix(cols, PANEL + 8, cols, p, dependent, zero_rows=1), p, kernels=3)
    assert bool(calls) == (cols > SINGLE)
