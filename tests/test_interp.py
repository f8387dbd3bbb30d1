"""The modular evaluation-interpolation pipeline."""

import logging
import math
import os
import random
import threading
import tracemalloc

import pytest

from _gen import sparse_system
from odelim import interp, linalg
from odelim.arith import is_prime
from odelim.errors import ComputationError
from odelim.interp import (
    SampleConfig,
    assemble,
    eliminate,
    eliminate_mod_p,
    minimal_element,
    nullspace,
    sample_points,
)
from odelim.ode import parse_system, reduction
from odelim.poly import GF, QQ, SparsePoly, VarSpace, parse_derivative_poly
from odelim.support import LatticeSet, bound_inequalities, enumerate_lattice

HARMONIC = parse_system("x1' = x2\nx2' = -x1")
SQUARED = parse_system("x1' = x2^2\nx2' = x1")
QUAD43 = parse_system("x1' = x1^2 + x1*x2 + x2^2 + 1\nx2' = x2")
MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")
P = 1048583  # 21-bit prime
P23 = 8388593  # the largest prime below 2^23
P23_ABOVE = 8388617  # the smallest prime above 2^23
# the 60 largest 16-bit primes: one 16-bit prime in about 50 divides it
D60 = math.prod([q for q in range(65535, 60000, -2) if is_prime(q)][:60])


# --- sampling -------------------------------------------------------------


def test_sample_points_range_and_determinism():
    cfg = SampleConfig(radius=1, seed=5)
    pts = sample_points(cfg, 7, 2)
    assert len(pts) == 7
    assert len(set(pts)) == 7
    for p in pts:
        assert all(-1 <= c <= 1 for c in p)
    again = sample_points(SampleConfig(radius=1, seed=5), 7, 2)
    assert pts == again
    other = sample_points(SampleConfig(radius=1, seed=6), 7, 2)
    assert pts != other


def test_sample_points_mean():
    cfg = SampleConfig(radius=500, seed=7)
    pts = sample_points(cfg, 50000, 2)
    coords = [c for p in pts for c in p]
    n = len(coords)
    mean = sum(coords) / n
    var = ((2 * 500 + 1) ** 2 - 1) / 12
    sigma_mean = (var / n) ** 0.5
    assert abs(mean) < 5 * sigma_mean


# --- matrix assembly ------------------------------------------------------


def test_assemble_constant_column():
    S = LatticeSet(2, [(0, 0, 0)])
    pts = sample_points(SampleConfig(radius=100, seed=1), 3, 2)
    N = assemble(HARMONIC.reduce_mod(P), S, pts)
    assert N.rows == 3 and N.cols == 1
    assert all(N.data[j][0] == 1 for j in range(3))


def test_assemble_harmonic_negated_columns():
    # jets are (a, b, -a): the x1 column is the negative of the x1'' column
    S = LatticeSet(2, [(1, 0, 0), (0, 0, 1)])
    pts = sample_points(SampleConfig(radius=100, seed=2), 5, 2)
    N = assemble(HARMONIC.reduce_mod(P), S, pts)
    for j in range(5):
        assert (N.data[j][0] + N.data[j][1]) % P == 0


def test_assemble_matches_symbolic_reduction():
    # P, and the largest prime the echelon takes
    for p, max_nu in ((P, 2), (P23, 3)):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(1, 3)
            sys_ = sparse_system(n, rng.randint(1, 2), rng.randint(1, 2) if n > 1 else 1, rng)
            nu = min(n, max_nu)
            space = VarSpace.deriv(nu)
            S = LatticeSet(
                nu,
                sorted(
                    {
                        tuple(rng.randrange(3) for _ in range(nu + 1))
                        for _ in range(4)
                    },
                    key=space.sort_key,
                ),
            )
            pts = sample_points(SampleConfig(radius=50, seed=rng.randrange(99)), len(S), n)
            N = assemble(sys_.reduce_mod(p), S, pts)
            field = GF(p)
            for i, s in enumerate(S):
                mono = SparsePoly.monomial(space, s, QQ.one)
                h = reduction(sys_, mono).map_to(field)
                for j, pt in enumerate(pts):
                    assert N.data[j][i] == h.evaluate([c % p for c in pt])
    # the smallest prime above 2^23 is refused
    S = LatticeSet(2, [(0, 0, 0)])
    with pytest.raises(ValueError, match="2\\^23"):
        assemble(HARMONIC.reduce_mod(P23_ABOVE), S, [(1, 2)])


# --- kernels --------------------------------------------------------------


class FakeMatrix:
    def __init__(self, data, p):
        import numpy as np

        self.data = np.array(data, dtype=np.int64)
        self.p = p
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0


def test_nullspace_identity_empty():
    assert nullspace(FakeMatrix([[1, 0], [0, 1]], 97)) == []


def test_nullspace_rank_one():
    assert nullspace(FakeMatrix([[1, 1], [1, 1]], 97)) == [(1, 96)]


def test_nullspace_residuals():
    rng = random.Random(32)
    p = 10007
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        for vec in nullspace(FakeMatrix(data, p)):
            for row in data:
                assert sum(r * v for r, v in zip(row, vec)) % p == 0


def test_minimal_element_harmonic():
    S = enumerate_lattice(bound_inequalities(1, 1, 2))
    pts = sample_points(SampleConfig(radius=500, seed=3), len(S), 2)
    N = assemble(HARMONIC.reduce_mod(P), S, pts)
    vec = minimal_element(N, S)
    assert vec is not None
    poly = {s: c for s, c in zip(S, vec) if c}
    assert poly == {(1, 0, 0): 1, (0, 0, 1): 1}


def test_minimal_element_squared_velocity():
    S = enumerate_lattice(bound_inequalities(2, 1, 2))
    pts = sample_points(SampleConfig(radius=500, seed=4), len(S), 2)
    N = assemble(SQUARED.reduce_mod(P), S, pts)
    vec = minimal_element(N, S)
    terms = {s: c for s, c in zip(S, vec) if c}
    # x1^2*x1' is the graded-lex leading monomial, pinned to 1; the other
    # coefficient is -1/4 mod p since f_min = 4*x1^2*x1' - (x1'')^2
    assert terms == {(2, 1, 0): 1, (0, 0, 2): (-pow(4, P - 2, P)) % P}


def test_minimal_element_leaves_assembled_matrix_unchanged():
    S = enumerate_lattice(bound_inequalities(2, 1, 2))
    pts = sample_points(SampleConfig(radius=500, seed=4), len(S) + 3, 2)
    N = assemble(SQUARED.reduce_mod(P), S, pts)
    before = N.data.copy()
    assert not N.data.flags.writeable
    assert minimal_element(N, S) is not None
    assert (N.data == before).all()
    # the pipeline's own matrix is writable and eliminated in place
    own = interp._eval_matrix(SQUARED.reduce_mod(P), S, pts)
    assert (own.data == before).all() and own.data.flags.writeable
    assert minimal_element(own, S) == minimal_element(N, S)
    assert (own.data != before).any()


def test_solve_holds_one_matrix():
    # 595 columns (every x1^a x1'^b with a + b <= 33) and no relation among
    # them, so the echelon runs over every column on the recursive path
    space = VarSpace.deriv(1)
    S = LatticeSet(1, sorted(((a, b) for a in range(34) for b in range(34 - a)), key=space.sort_key))
    assert len(S) > linalg._SINGLE_PANEL
    config = SampleConfig(radius=5000, seed=7)
    nbytes = len(S) * len(S) * 8
    tracemalloc.start()
    try:
        assert eliminate_mod_p(HARMONIC, P, S, config) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * nbytes


def test_kernel_vectors_are_multiples_of_minimal():
    # S large enough that the kernel holds f_min times any deg<=2 cofactor
    space = VarSpace.deriv(2)
    points = sorted(
        {
            e
            for e in (
                (a, b, c)
                for a in range(4)
                for b in range(4)
                for c in range(4)
            )
            if sum(e) <= 3
        },
        key=space.sort_key,
    )
    S = LatticeSet(2, points)
    pts = sample_points(SampleConfig(radius=400, seed=5), len(S) + 6, 2)
    N = assemble(HARMONIC.reduce_mod(P), S, pts)
    basis = nullspace(N)
    assert len(basis) == 10  # monomials of degree <= 1 + cofactor space dim
    vec = minimal_element(N, S)
    field = GF(P)
    fmin = SparsePoly(space, field, {s: c for s, c in zip(S, vec) if c})
    for b in basis:
        poly = SparsePoly(space, field, {s: c for s, c in zip(S, b) if c})
        assert poly.exact_divide(fmin) is not None


def test_minimal_element_of_constructed_multiple():
    # a two-element kernel {f, x1*f}: the filtration must return f itself
    space = VarSpace.deriv(1)
    f = parse_derivative_poly("x1' - x1")
    x1f = parse_derivative_poly("x1*x1' - x1^2")
    points = sorted(
        {e for e in ((a, b) for a in range(3) for b in range(2)) if sum(e) <= 2},
        key=space.sort_key,
    )
    S = LatticeSet(1, points)
    sys_ = parse_system("x1' = x1")
    pts = sample_points(SampleConfig(radius=300, seed=6), len(S) + 4, 1)
    N = assemble(sys_.reduce_mod(P), S, pts)
    vec = minimal_element(N, S)
    field = GF(P)
    got = SparsePoly(space, field, {s: c for s, c in zip(S, vec) if c})
    # pivot-normalized minimal element: x1' - x1 exactly (leading coeff 1)
    assert got == f.map_to(field)
    assert x1f.map_to(field).exact_divide(got) is not None


# --- per-prime pipeline ---------------------------------------------------


def test_eliminate_mod_p_scalar_square():
    sys_ = parse_system("x1' = x1^2")
    out = eliminate_mod_p(sys_, P, enumerate_lattice(bound_inequalities(2, 1, 1)),
                          SampleConfig(radius=200, seed=7))
    assert out is not None
    support, coeffs = out
    assert set(support) == {(2, 0), (0, 1)}
    assert all(c != 0 for c in coeffs)


def test_eliminate_mod_p_support_stable_across_primes():
    S = enumerate_lattice(bound_inequalities(2, 1, 2))
    outs = []
    for p in (1048583, 2097169):
        support, _ = eliminate_mod_p(SQUARED, p, S, SampleConfig(radius=300, seed=8))
        outs.append(set(support))
    assert outs[0] == outs[1] == {(2, 1, 0), (0, 0, 2)}


def test_eliminate_mod_p_underestimated_order_empty():
    S = enumerate_lattice(bound_inequalities(1, 1, 1))
    out = eliminate_mod_p(HARMONIC, P, S, SampleConfig(radius=300, seed=9))
    assert out is None


# --- full driver ----------------------------------------------------------


def test_eliminate_harmonic():
    res = eliminate(HARMONIC)
    assert res.f_min == parse_derivative_poly("x1'' + x1")
    assert res.nu == 2
    assert res.support_size == 2
    assert len(res.primes_used) >= 2
    assert res.verified.kind == "unverified"


def test_eliminate_linear_scalar():
    res = eliminate(parse_system("x1' = x1"))
    assert res.f_min == parse_derivative_poly("x1' - x1")
    assert res.nu == 1


def test_eliminate_scalar_square():
    res = eliminate(parse_system("x1' = x1^2"))
    assert res.f_min == parse_derivative_poly("x1' - x1^2").normalize_canonical()
    assert res.f_min == parse_derivative_poly("x1^2 - x1'")


def test_eliminate_quadratic_polytope_faces():
    res = eliminate(QUAD43)
    support = res.f_min.support()
    for e in support:
        assert e[0] + e[1] + 2 * e[2] <= 4
        assert e[0] + 2 * e[1] + 3 * e[2] <= 6
    assert any(e[0] + e[1] + 2 * e[2] == 4 for e in support)
    assert any(e[0] + 2 * e[1] + 3 * e[2] == 6 for e in support)


def test_eliminate_support_containment():
    for sys_ in (HARMONIC, SQUARED, QUAD43):
        res = eliminate(sys_)
        bound = bound_inequalities(sys_.d, max(sys_.D, 1), res.nu)
        for e in res.f_min.support():
            assert bound.satisfies(e)


def test_eliminate_membership():
    for sys_ in (HARMONIC, SQUARED, QUAD43):
        res = eliminate(sys_)
        assert reduction(sys_, res.f_min).is_zero


def test_eliminate_seed_independent():
    outs = {eliminate(HARMONIC, SampleConfig(seed=s)).f_min.render() for s in (1, 2, 3)}
    assert len(outs) == 1
    outs = {eliminate(QUAD43, SampleConfig(seed=s)).f_min.render() for s in (4, 5, 6)}
    assert len(outs) == 1


def test_eliminate_order_escalation():
    res = eliminate(HARMONIC, SampleConfig(nu_override=1, seed=1))
    assert res.nu == 2
    assert res.f_min == parse_derivative_poly("x1'' + x1")


def test_eliminate_order_downshift():
    # requested order above the true one: the first-degree stratum carries a
    # 2-dimensional kernel, which the driver detects and resolves downward
    sys_ = parse_system("x1' = x1\nx2' = x2")
    res = eliminate(sys_, SampleConfig(nu_override=2, seed=2))
    assert res.nu == 1
    assert res.f_min == parse_derivative_poly("x1' - x1")


def test_eliminate_order_override_validated():
    with pytest.raises(ValueError):
        eliminate(HARMONIC, SampleConfig(nu_override=5))


def test_eliminate_radius_prime_bits_guard():
    with pytest.raises(ValueError, match="prime_bits too small for the sampling radius"):
        eliminate(HARMONIC, SampleConfig(radius=1 << 30, prime_bits=23))


def test_eliminate_prime_budget_exhausted():
    with pytest.raises(ComputationError):
        eliminate(QUAD43, SampleConfig(max_primes=1))


def test_memory_guard_refuses_an_oversized_first_phase(monkeypatch):
    # harmonic: 4 bound monomials, twice a 4x4 int64 matrix = 256 bytes
    monkeypatch.setattr(interp, "_available_memory", lambda: 255)
    with pytest.raises(ComputationError, match=r"4 monomials.*\(256 bytes\).*\(255 bytes\)"):
        eliminate(HARMONIC)
    monkeypatch.setattr(interp, "_available_memory", lambda: 256)
    assert eliminate(HARMONIC).f_min == parse_derivative_poly("x1'' + x1")


def test_sample_config_refuses_primes_above_23_bits():
    # the echelon's float64 products are exact only below 2^23
    assert SampleConfig().prime_bits == SampleConfig(prime_bits=23).prime_bits == 23
    with pytest.raises(ValueError, match=r"\[16, 23\]"):
        SampleConfig(prime_bits=24)


def test_memory_guard_reads_memory_once_per_order(monkeypatch):
    reads = []
    monkeypatch.setattr(interp, "_available_memory", lambda: reads.append(1))
    res = eliminate(HARMONIC, SampleConfig(nu_override=1, seed=1))
    assert res.nu == 2 and len(res.primes_used) > 2
    assert len(reads) == 2  # orders 1 and 2; None means no guard


def test_available_memory_reads_meminfo():
    avail = interp._available_memory()
    if os.path.exists("/proc/meminfo"):
        assert avail > 0
    else:
        assert avail is None


# reference runs of the shipped fast models: f_min and primes_used depend
# only on the seed, never on the thread count or on how the code is arranged
PINNED_PRIMES = {0: (8184829, 5577457, 7303211), 7: (4725029, 7386761, 4217779)}
PINNED_FMIN = {
    "harmonic": "x1'' + x1",
    "squared_velocity": "4*x1^2*x1' - (x1'')^2",
    "quadratic": (
        "3*x1^2*(x1')^2 - 6*x1^3*x1' + 3*x1^4 - 3*x1*x1'*x1'' + 3*x1^2*x1'' - (x1')^3 "
        "+ 8*x1*(x1')^2 - 7*x1^2*x1' + (x1'')^2 - 4*x1'*x1'' + 5*(x1')^2 - 8*x1*x1' "
        "+ 7*x1^2 + 4*x1'' - 8*x1' + 4"
    ),
}


def test_eliminate_pinned_runs():
    for name, fmin in PINNED_FMIN.items():
        with open(os.path.join(MODELS, f"{name}.ode")) as fh:
            sys_ = parse_system(fh.read())
        for seed, primes in PINNED_PRIMES.items():
            for threads in (1, 2):
                res = eliminate(sys_, SampleConfig(seed=seed, threads=threads))
                assert res.f_min.render() == fmin
                assert res.primes_used == primes


def test_threads_draw_no_prime_past_a_reconstruction(monkeypatch):
    # once a reconstruction exists no solve runs ahead, so a run with two
    # threads draws exactly the primes of a sequential one, probe included
    draw = interp.random_prime
    calls = []
    monkeypatch.setattr(interp, "random_prime", lambda *a: calls.append(1) or draw(*a))
    for name in PINNED_FMIN:
        with open(os.path.join(MODELS, f"{name}.ode")) as fh:
            sys_ = parse_system(fh.read())
        for seed in PINNED_PRIMES:
            counts = []
            for threads in (1, 2):
                calls.clear()
                eliminate(sys_, SampleConfig(seed=seed, threads=threads))
                counts.append(len(calls))
            assert counts[0] == counts[1] > 0


def test_consensus_restart_primes_do_not_depend_on_threads(monkeypatch):
    # one forced empty kernel on the shrunk support triggers a restart
    # while threads - 1 further primes are already in flight
    solve = interp._solve_on_support
    lock = threading.Lock()
    state = {"prime": None}

    def empty_once(sys_, p, *rest):
        with lock:
            if state["prime"] is None:
                state["prime"] = p  # the first shrunk solve of the sequential run
            if p == state["prime"] and not state["hit"]:
                state["hit"] = True
                return None
        return solve(sys_, p, *rest)

    monkeypatch.setattr(interp, "_solve_on_support", empty_once)
    runs = []
    for threads in (1, 3):
        state["hit"] = False
        runs.append(eliminate(SQUARED, SampleConfig(seed=3, threads=threads)))
        assert state["hit"]
    assert runs[0].f_min == runs[1].f_min
    assert runs[0].primes_used == runs[1].primes_used
    assert state["prime"] not in runs[0].primes_used


def test_eliminate_leaves_no_solver_threads_running():
    # look-ahead solves in flight when the result is found are waited for
    before = set(threading.enumerate())
    eliminate(QUAD43, SampleConfig(seed=1, threads=2))
    assert [t for t in threading.enumerate() if t not in before] == []


def test_eliminate_threads_same_result():
    a = eliminate(SQUARED, SampleConfig(seed=11, threads=1))
    b = eliminate(SQUARED, SampleConfig(seed=11, threads=3))
    assert a.f_min == b.f_min
    assert a.primes_used == b.primes_used


def test_sample_config_threads_at_least_one():
    assert SampleConfig().threads == 1
    with pytest.raises(ValueError, match="threads"):
        SampleConfig(threads=0)


def test_eliminate_small_primes_need_more_rounds():
    small = eliminate(QUAD43, SampleConfig(prime_bits=16, seed=3))
    large = eliminate(QUAD43, SampleConfig(prime_bits=23, seed=3))
    assert small.f_min == large.f_min
    assert len(small.primes_used) >= len(large.primes_used)


def test_eliminate_skips_primes_dividing_a_denominator(caplog):
    # x1'' = -x1/D: with 16-bit primes most seeds draw some prime dividing
    # D, in the first phase, the CRT loop or the probe; each is skipped
    caplog.set_level(logging.DEBUG, logger="odelim.interp")
    sys_ = parse_system(f"x1' = 1/{D60}*x2\nx2' = -x1")
    expected = parse_derivative_poly(f"{D60}*x1'' + x1").normalize_canonical()
    hit = set()
    for seed in range(20):
        caplog.clear()
        res = eliminate(sys_, SampleConfig(prime_bits=16, radius=100, seed=seed))
        assert res.f_min == expected
        assert all(D60 % p for p in res.primes_used)
        if any("divides a denominator" in r.getMessage() for r in caplog.records):
            hit.add(seed)
    assert len(hit) >= 10


def test_eliminate_stops_when_the_primes_run_out():
    # only a handful of 16-bit primes lie above 2 * 32700, fewer than the
    # 500-bit coefficient needs: the run fails instead of drawing forever
    sys_ = parse_system(f"x1' = {3 ** 150}/{2 ** 200 + 1}*x2\nx2' = -x1")
    with pytest.raises(ComputationError, match="16-bit prime above 65400"):
        eliminate(sys_, SampleConfig(prime_bits=16, radius=32700, seed=1))
