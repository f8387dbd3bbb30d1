"""The modular evaluation-interpolation pipeline."""

import inspect
import logging
import math
import os
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from _gen import dense_system, residue, sparse_system
from odelim import interp, linalg
from odelim.arith import fork_rng, is_prime
from odelim.errors import BadPrimeError, ComputationError
from odelim.interp import (
    EvalMatrix,
    SampleConfig,
    eliminate,
    eliminate_mod_p,
    minimal_element,
)
from odelim.ode import jet, lie_derivative, lie_iterates, parse_system, reduction
from odelim.poly import QQ, IntegerForm, SparsePoly, VarSpace, parse_derivative_poly
from odelim.support import LatticeSet, bound_inequalities, enumerate_lattice, scalar_bound
from odelim.verify import certified_eliminate

HARMONIC = parse_system("x1' = x2\nx2' = -x1")
SQUARED = parse_system("x1' = x2^2\nx2' = x1")
QUAD43 = parse_system("x1' = x1^2 + x1*x2 + x2^2 + 1\nx2' = x2")
MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")
P = 1048583  # 21-bit prime
P23 = 8388593  # the largest prime below 2^23
P23_ABOVE = 8388617  # the smallest prime above 2^23
# the 60 largest 16-bit primes: one 16-bit prime in about 50 divides it
D60 = math.prod([q for q in range(65535, 60000, -2) if is_prime(q)][:60])


def points(seed, count, n, radius=SampleConfig.radius):
    """``count`` distinct points of [-radius, radius]^n from the "points" fork of the seed."""
    return interp._draw_points(fork_rng(seed, "points"), count, n, radius)


def eval_matrix(sys_, p, S, pts):
    """The evaluation matrix of sys_ mod p on the monomials S at pts."""
    return interp._eval_matrix([IntegerForm(h) for h in lie_iterates(sys_, S.nu + 1)], p, S, pts)


def vector(f, S, p):
    """The coefficients of f on S, mod p."""
    return tuple(residue(f.coefficient(s), p) for s in S)


def rank(rows, p):
    return len(linalg._echelon(np.array(rows, dtype=np.int64), p)[0])


# --- sampling -------------------------------------------------------------


def test_sample_points_range_and_determinism():
    pts = points(5, 7, 2, radius=1)
    assert len(pts) == 7
    assert len(set(pts)) == 7
    for p in pts:
        assert all(-1 <= c <= 1 for c in p)
    again = points(5, 7, 2, radius=1)
    assert pts == again
    other = points(6, 7, 2, radius=1)
    assert pts != other


def test_sample_points_mean():
    pts = points(7, 50000, 2, radius=500)
    coords = [c for p in pts for c in p]
    n = len(coords)
    mean = sum(coords) / n
    var = ((2 * 500 + 1) ** 2 - 1) / 12
    sigma_mean = (var / n) ** 0.5
    assert abs(mean) < 5 * sigma_mean


# --- matrix assembly ------------------------------------------------------


def test_assemble_constant_column():
    S = LatticeSet(2, [(0, 0, 0)])
    pts = points(1, 3, 2, radius=100)
    N = eval_matrix(HARMONIC, P, S, pts)
    assert N.rows == 3 and N.cols == 1
    assert all(N.data[j][0] == 1 for j in range(3))


def test_assemble_harmonic_negated_columns():
    # jets are (a, b, -a): the x1 column is the negative of the x1'' column
    S = LatticeSet(2, [(1, 0, 0), (0, 0, 1)])
    pts = points(2, 5, 2, radius=100)
    N = eval_matrix(HARMONIC, P, S, pts)
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
            pts = points(rng.randrange(99), len(S), n, radius=50)
            N = eval_matrix(sys_, p, S, pts)
            for i, s in enumerate(S):
                h = reduction(sys_, SparsePoly.monomial(space, s, QQ.one))
                for j, pt in enumerate(pts):
                    assert N.data[j][i] == residue(h.evaluate(pt), p)
    # the smallest prime above 2^23 is refused
    S = LatticeSet(2, [(0, 0, 0)])
    with pytest.raises(ValueError, match="2\\^23"):
        eval_matrix(HARMONIC, P23_ABOVE, S, [(1, 2)])


def reference_eval_matrix(sys_, p, S, pts):
    """The evaluation matrix built monomial by monomial: the product over k
    of pow(jet_k, e_k, p) at every point."""
    forms = [IntegerForm(h) for h in lie_iterates(sys_, S.nu + 1)]
    jets = [[int(x) for x in j] for j in jet(forms, np.array(pts, dtype=np.int64).T, p)]
    powers = {}
    N = np.empty((len(pts), len(S)), dtype=np.int64)
    for i, e in enumerate(S):
        col = np.ones(len(pts), dtype=np.int64)
        for k, ek in enumerate(e):
            if (k, ek) not in powers:
                powers[k, ek] = np.array([pow(x, ek, p) for x in jets[k]], dtype=np.int64)
            col = col * powers[k, ek] % p
        N[:, i] = col
    return N


DENSE322 = dense_system(3, 2, 2, random.Random(1))
BOUND322 = enumerate_lattice(bound_inequalities(2, 2, 3))


@pytest.mark.parametrize("p", [P, P23])
@pytest.mark.parametrize(
    "sys_, S, rows",
    [
        # a full (3,2,2) bound on three blocks of points, the last one partial
        (DENSE322, BOUND322, 300),
        # every other column dropped: most columns lack a parent (orphans)
        (DENSE322, LatticeSet(3, BOUND322.points[::2]), 200),
        # no constant monomial
        (DENSE322, LatticeSet(3, BOUND322.points[1:]), 130),
        # an n = 1 scalar bound
        (parse_system("x1' = 3*x1^4 - x1 + 2"), enumerate_lattice(scalar_bound(4)), 9),
        # a nu = 1 system
        (QUAD43, enumerate_lattice(bound_inequalities(2, 1, 1)), 40),
    ],
    ids=["bound322", "orphans", "no-constant", "scalar", "nu1"],
)
def test_assembly_from_parent_columns_matches_powers(p, sys_, S, rows):
    pts = points(rows, rows, sys_.n)
    assert np.array_equal(eval_matrix(sys_, p, S, pts).data, reference_eval_matrix(sys_, p, S, pts))


def test_assembly_plan_past_int64_codes():
    # radices of 2^22 + 1 for each of four exponents: the mixed-radix codes
    # of these exponent vectors pass 2^63 and are looked up as Python ints
    big = 1 << 22
    points = ((0, 0, 0, 0), (big, 0, 0, 0), (0, big, 0, 0), (0, 0, big, 0), (0, 0, 0, big), (0, 0, 1, big), (1, 0, 1, big))
    orphans, runs = interp._assembly_plan(3, points)
    assert [col for col, _ in orphans] == [0, 1, 2, 3, 4]
    assert runs == [(5, 6, 2, slice(4, 5)), (6, 7, 0, slice(5, 6))]


def test_assembly_plan_is_built_once_per_support(monkeypatch):
    supports = []
    assemble = interp._eval_matrix
    monkeypatch.setattr(
        interp, "_eval_matrix", lambda forms, p, S, pts: supports.append(S.points) or assemble(forms, p, S, pts)
    )
    interp._assembly_plan.cache_clear()
    res = eliminate(dense_system(3, 2, 1, random.Random(1)), SampleConfig(seed=3))
    info = interp._assembly_plan.cache_info()
    # the bound and the shrunk support, each built at its first prime only
    assert len(set(supports)) == 2 and len(res.primes_used) > 2
    assert info.misses == 2 and info.hits == len(supports) - 2


# --- kernels --------------------------------------------------------------


def test_minimal_element_harmonic():
    S = enumerate_lattice(bound_inequalities(1, 1, 2))
    N = eval_matrix(HARMONIC, P, S, points(3, len(S), 2, radius=500))
    vec = minimal_element(N, S)
    assert vec is not None
    poly = {s: c for s, c in zip(S, vec) if c}
    assert poly == {(1, 0, 0): 1, (0, 0, 1): 1}


def test_minimal_element_squared_velocity():
    S = enumerate_lattice(bound_inequalities(2, 1, 2))
    N = eval_matrix(SQUARED, P, S, points(4, len(S), 2, radius=500))
    vec = minimal_element(N, S)
    terms = {s: c for s, c in zip(S, vec) if c}
    # x1^2*x1' is the graded-lex leading monomial, pinned to 1; the other
    # coefficient is -1/4 mod p since f_min = 4*x1^2*x1' - (x1'')^2
    assert terms == {(2, 1, 0): 1, (0, 0, 2): (-pow(4, P - 2, P)) % P}


def test_minimal_element_leaves_assembled_matrix_unchanged():
    S = enumerate_lattice(bound_inequalities(2, 1, 2))
    pts = points(4, len(S) + 3, 2, radius=500)
    N = eval_matrix(SQUARED, P, S, pts)
    before = N.data.copy()
    # a read-only matrix is refused, neither copied nor written
    N.data.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        minimal_element(N, S)
    assert (N.data == before).all()
    # the pipeline's own matrix is writable and eliminated in place
    own = eval_matrix(SQUARED, P, S, pts)
    assert (own.data == before).all() and own.data.flags.writeable
    assert minimal_element(own, S) == minimal_element(EvalMatrix(before.copy(), P), S)
    assert (own.data != before).any()


def test_solve_holds_one_matrix():
    # 595 columns (every x1^a x1'^b with a + b <= 33) and no relation among
    # them, so the echelon runs over every column on the recursive path
    space = VarSpace.deriv(1)
    S = LatticeSet(1, sorted(((a, b) for a in range(34) for b in range(34 - a)), key=space.sort_key))
    assert len(S) > linalg._BLOCK
    config = SampleConfig(radius=5000, seed=7)
    nbytes = len(S) * len(S) * 8
    tracemalloc.start()
    try:
        assert eliminate_mod_p(HARMONIC, P, S, config) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * nbytes


@pytest.mark.skipif(
    not linalg._ONE_BLAS_THREAD.functions(),
    reason="numpy's BLAS is not an OpenBLAS whose thread count _OneBlasThread finds",
)
def test_blas_thread_count_restored_by_each_entry_point(monkeypatch):
    # each call eliminates matrices wider than one block, so it pins BLAS to one thread
    set_threads, get_threads = linalg._ONE_BLAS_THREAD.functions()
    before = get_threads()
    set_threads(3)
    try:
        S = LatticeSet(1, sorted(((a, b) for a in range(17) for b in range(17 - a)), key=VarSpace.deriv(1).sort_key))
        assert len(S) > linalg._BLOCK
        N = eval_matrix(HARMONIC, P, S, points(5, len(S) + 3, 2))
        assert minimal_element(N, S) is None and get_threads() == 3
        sys_ = sparse_system(3, 2, 1, random.Random(1))
        assert eliminate(sys_, SampleConfig(seed=1)).support_size and get_threads() == 3
        monkeypatch.setattr(linalg, "_update", lambda *a: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            eliminate(sys_, SampleConfig(seed=1))
        assert get_threads() == 3
    finally:
        set_threads(before)


def test_eliminate_mod_p_refuses_foreign_iterates_and_denominator_primes():
    S = enumerate_lattice(bound_inequalities(1, 1, 2))
    config = SampleConfig(seed=3)
    with pytest.raises(ValueError, match="lie_iterates"):
        eliminate_mod_p(HARMONIC, P, S, config, iterates=lie_iterates(HARMONIC, S.nu))
    with pytest.raises(ValueError, match="lie_iterates"):
        eliminate_mod_p(HARMONIC, P, S, config, iterates=lie_iterates(parse_system("x1' = x1"), S.nu + 1))
    # 7 divides a denominator of the system that no iterate of x1 meets
    sys_ = parse_system("x1' = x2\nx2' = -x1 + 1/7*x2^2")
    with pytest.raises(BadPrimeError):
        eliminate_mod_p(sys_, 7, LatticeSet(1, ((0, 0), (1, 0))), config)


def test_kernel_vectors_are_multiples_of_minimal():
    # S large enough that the kernel holds f_min times any deg<=2 cofactor
    space = VarSpace.deriv(2)
    monomials = sorted(
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
    S = LatticeSet(2, monomials)
    N = eval_matrix(HARMONIC, P, S, points(5, len(S) + 6, 2, radius=400))
    # a kernel basis mod P: one back-substituted vector per free column
    W = N.data.copy()
    pivots, free, _ = linalg._echelon(W, P)
    basis = [tuple(int(v) for v in linalg._kernel_vector(W, P, pivots, f)) for f in free]
    assert len(basis) == 10  # monomials of degree <= 1 + cofactor space dim
    for b in basis:
        assert not any(sum(int(x) * v for x, v in zip(row, b)) % P for row in N.data)
    fmin = parse_derivative_poly("x1'' + x1")
    assert minimal_element(N, S) == vector(fmin, S, P)
    # the multiples m * fmin, m a monomial of degree <= 2, span the kernel mod P
    cofactors = [m for m in monomials if sum(m) <= 2]
    multiples = [vector(SparsePoly.monomial(space, m, QQ.one) * fmin, S, P) for m in cofactors]
    assert rank(multiples, P) == rank(multiples + basis, P) == len(basis)


def test_minimal_element_of_constructed_multiple():
    # a two-element kernel {f, x1*f}: the filtration must return f itself
    space = VarSpace.deriv(1)
    f = parse_derivative_poly("x1' - x1")
    x1f = parse_derivative_poly("x1*x1' - x1^2")
    monomials = sorted(
        {e for e in ((a, b) for a in range(3) for b in range(2)) if sum(e) <= 2},
        key=space.sort_key,
    )
    S = LatticeSet(1, monomials)
    sys_ = parse_system("x1' = x1")
    N = eval_matrix(sys_, P, S, points(6, len(S) + 4, 1, radius=300))
    assert x1f == parse_derivative_poly("x1", 1) * f
    x1f_vector = vector(x1f, S, P)
    assert not any(sum(int(x) * v for x, v in zip(row, x1f_vector)) % P for row in N.data)
    # pivot-normalized minimal element: x1' - x1 exactly (leading coeff 1)
    assert minimal_element(N, S) == vector(f, S, P)


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


def test_memory_guard_counts_one_matrix_per_thread(pool_for_every_support, monkeypatch):
    # a bound at the pool gate: 128 bytes per 4x4 int64 matrix, at least two of them
    monkeypatch.setattr(interp, "_available_memory", lambda: 256)
    for threads in (1, 2):
        interp._check_memory(2, 4, threads)
    with pytest.raises(ComputationError, match=r"\(384 bytes\) for 3 4x4"):
        interp._check_memory(2, 4, 3)
    monkeypatch.setattr(interp, "_available_memory", lambda: 384)
    interp._check_memory(2, 4, 3)


def test_memory_guard_counts_two_matrices_below_the_pool_gate(monkeypatch):
    # the 4-monomial harmonic bound is far below the gate: its CRT phase
    # solves one matrix at a time whatever threads is
    monkeypatch.setattr(interp, "_available_memory", lambda: 256)
    interp._check_memory(2, 4, 8)
    monkeypatch.setattr(interp, "_available_memory", lambda: 255)
    with pytest.raises(ComputationError, match=r"\(256 bytes\) for 2 4x4"):
        interp._check_memory(2, 4, 8)
    monkeypatch.setattr(interp, "_available_memory", lambda: 256)
    assert eliminate(HARMONIC, SampleConfig(threads=8)).f_min == parse_derivative_poly("x1'' + x1")


def test_sample_config_refuses_primes_above_23_bits():
    # the echelon's float64 products are exact only below 2^23
    assert SampleConfig().prime_bits == SampleConfig(prime_bits=23).prime_bits == 23
    with pytest.raises(ValueError, match=r"\[16, 23\]"):
        SampleConfig(prime_bits=24)


def test_memory_guard_reads_memory_once_per_order(monkeypatch):
    reads = []
    monkeypatch.setattr(interp, "_available_memory", lambda: reads.append(1))
    draw = interp.random_prime
    draws = []
    monkeypatch.setattr(interp, "random_prime", lambda *a: draws.append(1) or draw(*a))
    res = eliminate(HARMONIC, SampleConfig(nu_override=1, seed=1))
    assert res.nu == 2 and len(draws) > 2
    assert len(reads) == 2  # orders 1 and 2; None means no guard


def test_available_memory_reads_meminfo():
    avail = interp._available_memory()
    if os.path.exists("/proc/meminfo"):
        assert avail > 0
    else:
        assert avail is None


# reference runs of the shipped fast models: f_min and primes_used depend
# only on the seed, never on the thread count or on how the code is arranged
PINNED_PRIMES = {0: (8184829, 5577457), 7: (4725029, 7386761)}
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
    # the prime in flight at a reconstruction goes back to the draw order
    # and the probe takes it, so a run with two threads draws exactly the
    # primes of a sequential one, probe included
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


def test_probe_rejects_a_wrong_reconstruction(monkeypatch):
    # the first reconstruction is perturbed in one coordinate: the probe
    # must refuse it, and the run goes on to f_min at the next prime; the
    # probe takes the prime a sequential run would draw at every thread count
    reconstruct = interp._reconstruct
    probe = interp._probe_membership
    state = {}

    def perturbed(acc):
        out = reconstruct(acc)
        if out is not None and not state["hit"]:
            state["hit"] = True
            out[0] += 1
        return out

    def spy(*args):
        verdict = probe(*args)
        state["probes"].append(verdict)
        return verdict

    monkeypatch.setattr(interp, "_reconstruct", perturbed)
    monkeypatch.setattr(interp, "_probe_membership", spy)
    with open(os.path.join(MODELS, "quadratic.ode")) as fh:
        sys_ = parse_system(fh.read())
    runs = []
    for threads in (1, 2):
        state.update(hit=False, probes=[])
        res = eliminate(sys_, SampleConfig(seed=0, threads=threads))
        assert state["probes"] == [False, True]
        assert res.f_min.render() == PINNED_FMIN["quadratic"]
        runs.append(res.primes_used)
    assert runs[0] == runs[1] == (8184829, 5577457, 6504913)


def test_probe_at_a_prime_dividing_a_coefficient_of_f_min():
    # 3 and 7 divide coefficients of the integer f_min, which still has an
    # image mod each; the probe accepts it there and refuses f_min + x1
    with open(os.path.join(MODELS, "quadratic.ode")) as fh:
        sys_ = parse_system(fh.read())
    f = parse_derivative_poly(PINNED_FMIN["quadratic"])
    wrong = f + parse_derivative_poly("x1", f.space.order)
    forms = [IntegerForm(h) for h in lie_iterates(sys_, f.space.order + 1)]
    for q in (3, 7):
        assert any(c.numerator % q == 0 for c in f.terms.values())
        assert interp._probe_membership(forms, f, SampleConfig(), lambda: q)
        assert not interp._probe_membership(forms, wrong, SampleConfig(), lambda: q)


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


@pytest.mark.parametrize(
    "test",
    [
        test_eliminate_pinned_runs,
        test_threads_draw_no_prime_past_a_reconstruction,
        test_probe_rejects_a_wrong_reconstruction,
        test_consensus_restart_primes_do_not_depend_on_threads,
        test_eliminate_leaves_no_solver_threads_running,
        test_eliminate_threads_same_result,
    ],
    ids=lambda test: test.__name__,
)
def test_through_the_pool(pool_for_every_support, monkeypatch, test):
    # the supports above are narrow, so with threads > 1 they run inline;
    # the same tests again with every CRT-phase solve in the pool
    test(**({"monkeypatch": monkeypatch} if "monkeypatch" in inspect.signature(test).parameters else {}))


def spy_solves(monkeypatch):
    """Record every shrunk solve as (prime, support width, ran on the
    calling thread); returns that list and the primes submitted to the pool,
    and counts each pool built as a submit of None."""
    solves, submitted = [], []

    class SpyPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            submitted.append(None)
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args[1])
            return super().submit(fn, *args, **kwargs)

    solve = interp._solve_on_support

    def spy(forms, p, support, *rest):
        solves.append((p, len(support), threading.current_thread() is threading.main_thread()))
        return solve(forms, p, support, *rest)

    monkeypatch.setattr(interp, "ThreadPoolExecutor", SpyPool)
    monkeypatch.setattr(interp, "_solve_on_support", spy)
    return solves, submitted


def test_pool_takes_the_crt_solves_of_supports_at_the_gate(monkeypatch):
    # at threads=2 a narrow support builds no pool and submits nothing; a
    # support at the gate sends every CRT-phase solve to one pool, with the
    # same result
    solves, submitted = spy_solves(monkeypatch)
    with open(os.path.join(MODELS, "quadratic.ode")) as fh:
        sys_ = parse_system(fh.read())
    inline = eliminate(sys_, SampleConfig(seed=0, threads=2))
    width = inline.support_size
    assert width < interp._POOL_MIN_COLS
    assert submitted == [] and solves and all(main for _, _, main in solves)
    for gate, pooled in ((width + 1, False), (width, True)):
        monkeypatch.setattr(interp, "_POOL_MIN_COLS", gate)
        solves.clear()
        res = eliminate(sys_, SampleConfig(seed=0, threads=2))
        assert res.f_min == inline.f_min and res.primes_used == inline.primes_used
        assert solves and {w for _, w, _ in solves} == {width}
        if pooled:
            # a look-ahead solve still queued when the probe passes is
            # cancelled unstarted: up to threads - 1 submits never run
            assert submitted.count(None) == 1
            solved = {p for p, _, _ in solves}
            submitted.remove(None)
            assert solved <= set(submitted) and len(set(submitted) - solved) <= 1
            assert not any(main for _, _, main in solves)
        else:
            assert submitted == [] and all(main for _, _, main in solves)


def test_consensus_restart_takes_the_gate_again(monkeypatch):
    # the first prime reports f_min's support less one monomial, below the
    # gate: its shrunk solve runs inline and finds an empty kernel; the
    # restart's consensus support, at the gate, goes to the pool
    solves, submitted = spy_solves(monkeypatch)
    full = interp.eliminate_mod_p
    narrowed = []

    def narrow_once(*args, **kwargs):
        support, coeffs = full(*args, **kwargs)
        if narrowed:
            return support, coeffs
        narrowed.append(len(support))
        return support[1:], coeffs[1:]

    monkeypatch.setattr(interp, "eliminate_mod_p", narrow_once)
    with open(os.path.join(MODELS, "quadratic.ode")) as fh:
        sys_ = parse_system(fh.read())
    width = len(parse_derivative_poly(PINNED_FMIN["quadratic"]).terms)
    monkeypatch.setattr(interp, "_POOL_MIN_COLS", width)
    res = eliminate(sys_, SampleConfig(seed=0, threads=2))
    assert res.f_min.render() == PINNED_FMIN["quadratic"] and narrowed == [width]
    assert [(w, main) for _, w, main in solves if w < width] == [(width - 1, True)]
    wide = {p for p, w, main in solves if w == width and not main}
    assert submitted[0] is None and None not in submitted[1:]
    assert wide and wide <= set(submitted[1:]) and len(set(submitted[1:]) - wide) <= 1
    assert len(solves) == 1 + len(wide)


def test_pool_gate_lies_between_the_measured_supports():
    # dense systems saturate their bounds: (3,2,2) solves 1292 columns,
    # where two threads ran slower than one, and (3,1,4) 2171, where they
    # ran faster
    d22, d14 = (len(enumerate_lattice(bound_inequalities(d, D, 3)).points) for d, D in ((2, 2), (1, 4)))
    assert d22 == 1292 < interp._POOL_MIN_COLS <= d14 == 2171


def test_concurrent_eliminations_of_one_system_share_its_iterates():
    # six threads eliminate one freshly parsed system at once, switching
    # every microsecond: each gets the serial result, and the list the
    # system keeps holds each iterate once, each the derivative of the last
    with open(os.path.join(MODELS, "quadratic.ode")) as fh:
        text = fh.read()
    serial = eliminate(parse_system(text), SampleConfig(seed=2))
    shared = parse_system(text)
    start = threading.Barrier(6)
    results = [None] * 6

    def run(i):
        start.wait()
        results[i] = eliminate(shared, SampleConfig(seed=2))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    for res in results:
        assert res.f_min == serial.f_min and res.primes_used == serial.primes_used
    cached = shared._iterates
    assert isinstance(cached, tuple) and len(cached) == max(shared.n, serial.nu + 1)
    assert cached[0] == SparsePoly.variable(shared.space, 0)
    for before, after in zip(cached, cached[1:]):
        assert after == lie_derivative(shared, before)


def test_eliminations_share_the_space_of_f_min():
    a = eliminate(parse_system("x1' = x2\nx2' = -x1"))
    b = eliminate(parse_system("x1' = x2\nx2' = -x1"))
    assert a.f_min.space is b.f_min.space is VarSpace.deriv(2)


def test_eliminations_share_the_exponent_tuples_of_f_min():
    # the lattice is remembered per bound, so both f_min key their terms
    # by its tuples rather than by copies
    sys_ = sparse_system(3, 2, 1, random.Random(5))
    a = eliminate(sys_, SampleConfig(seed=1))
    b = eliminate(parse_system(sys_.render()), SampleConfig(seed=2))
    assert a.f_min == b.f_min
    for mono in a.f_min.terms:
        assert next(k for k in b.f_min.terms if k == mono) is mono


def test_common_denominator_stops_below_the_per_coordinate_bound():
    # f_min pinned at its leading monomial is (integer coefficients) / lead:
    # reconstructing each coordinate alone needs a modulus above
    # 2 * max(|a_i|, c_i)^2, reconstructing over the one denominator does not
    sys_ = dense_system(3, 2, 1, random.Random(1))
    res = eliminate(sys_, SampleConfig(seed=1))
    lead = res.f_min.leading_coefficient()
    pinned = [c / lead for c in res.f_min.terms.values()]
    need = max(2 * max(abs(q.numerator), q.denominator) ** 2 for q in pinned)
    assert math.prod(res.primes_used) < need
    certified = certified_eliminate(sys_, SampleConfig(seed=2))
    assert certified.verified.kind == "exact"
    assert certified.f_min == res.f_min


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
