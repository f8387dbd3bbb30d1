"""Acceptance gate: every headline claim, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion asserts both the result and its time budget.  The dense (2,2)
elimination dominates the runtime (about two minutes single-threaded).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from _gen import dense_system, prolong, residue, sparse_system
from odelim import interp, linalg
from odelim.arith import CrtAccumulator, crt_absorb, fork_rng, is_prime, rational_reconstruct
from odelim.interp import SampleConfig, eliminate, minimal_element
from odelim.ode import jet, lie_iterates, parse_system, reduction
from odelim.poly import QQ, IntegerForm, SparsePoly, VarSpace, parse_derivative_poly
from odelim.support import LatticeSet, bound_inequalities, count_lattice, enumerate_lattice, hull_lattice_count
from odelim.verify import check_exact


@contextmanager
def criterion(name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    dt = time.perf_counter() - t0
    status = "PASS" if dt < budget_s else "FAIL (over budget)"
    print(f"ACCEPTANCE {name}: {status} ({dt:.1f}s, budget {budget_s}s)")
    assert dt < budget_s, f"{name} exceeded its {budget_s}s budget"


TABLE = [
    (3, 2, 1, 271), (3, 2, 2, 1292), (3, 2, 3, 7875), (3, 2, 4, 31757),
    (3, 2, 5, 98771), (3, 3, 1, 9520), (3, 3, 2, 25788), (3, 3, 3, 65637),
    (4, 1, 2, 8189), (4, 2, 1, 11021), (2, 2, 1, 19),
]


def test_lattice_count_reproduction():
    with criterion("lattice-counts", 5.0):
        for n, d, D, expected in TABLE:
            got = count_lattice(bound_inequalities(d, D, n))
            assert got == expected, (n, d, D, got, expected)


def test_worked_example_harmonic():
    with criterion("harmonic-oscillator", 5.0):
        sys_ = parse_system("x1' = x2\nx2' = -x1")
        res = eliminate(sys_)
        assert res.f_min == parse_derivative_poly("x1'' + x1")
        assert check_exact(sys_, res.f_min).outcome


def test_worked_example_squared_velocity():
    with criterion("squared-velocity", 5.0):
        sys_ = parse_system("x1' = x2^2\nx2' = x1")
        res = eliminate(sys_)
        want = parse_derivative_poly("x1''^2 - 4*x1^2*x1'").normalize_canonical()
        assert res.f_min == want
        assert check_exact(sys_, res.f_min).outcome


def test_quadratic_polytope_faces():
    with criterion("quadratic-polytope", 30.0):
        sys_ = parse_system("x1' = x1^2 + x1*x2 + x2^2 + 1\nx2' = x2")
        res = eliminate(sys_)
        support = res.f_min.support()
        for e in support:
            assert e[0] + e[1] + 2 * e[2] <= 4
            assert e[0] + 2 * e[1] + 3 * e[2] <= 6
        assert any(e[0] + e[1] + 2 * e[2] == 4 for e in support)
        assert any(e[0] + 2 * e[1] + 3 * e[2] == 6 for e in support)
        assert check_exact(sys_, res.f_min).outcome


def test_generic_term_counts_quadratic_linear():
    # three fresh dense systems, coefficients uniform in [-1000, 1000]
    candidates = list(enumerate_lattice(bound_inequalities(2, 1, 3)))
    for i, seed in enumerate((101, 102, 103)):
        with criterion(f"generic-(2,1)-run{i + 1}", 120.0):
            sys_ = dense_system(3, 2, 1, random.Random(seed))
            res = eliminate(sys_, SampleConfig(seed=seed))
            assert res.nu == 3
            support = res.f_min.support()
            assert len(support) == 261, len(support)
            # the hull's lattice points all lie in the (convex) bound lattice,
            # so it is a sound and much smaller candidate set than the box
            assert hull_lattice_count(list(support), candidates=candidates) == 261


def test_dense_quadratic_quadratic_saturates_bound():
    with criterion("dense-(2,2)", 600.0):
        sys_ = dense_system(3, 2, 2, random.Random(104))
        res = eliminate(sys_, SampleConfig(seed=104))
        assert res.nu == 3
        support = set(res.f_min.support())
        assert len(support) == 1292
        lattice = set(enumerate_lattice(bound_inequalities(2, 2, 3)))
        assert support == lattice  # saturation: every admissible monomial


def test_sharpness_fixture_quadratic_pair():
    with criterion("sharpness-(2,1)", 30.0):
        sys_ = parse_system("x1' = x1^2 + x2^2\nx2' = x2 + 1")
        res = eliminate(sys_)
        support = res.f_min.support()
        assert (4, 0, 0) in support
        assert (0, 0, 2) in support
        assert (2, 2, 0) in support
        assert check_exact(sys_, res.f_min).outcome


def test_sharpness_fixture_cubic_velocity():
    with criterion("sharpness-cubic", 30.0):
        sys_ = parse_system("x1' = x2^2 + x1*x2\nx2' = x2")
        res = eliminate(sys_)
        assert (0, 3, 0) in res.f_min.support()
        assert check_exact(sys_, res.f_min).outcome


def test_property_jet_reduction_equivalence():
    with criterion("jet-reduction-oracle", 60.0):
        rng = random.Random(201)
        p = 2000003
        for _ in range(20):
            n = rng.randint(1, 3)
            sys_ = sparse_system(
                n, rng.randint(1, 3), rng.randint(1, 3) if n > 1 else 1, rng
            )
            nu = min(n, 2)
            base = [rng.randrange(p) for _ in range(n)]
            values = jet([IntegerForm(h) for h in lie_iterates(sys_, nu + 1)], base, p)
            space = VarSpace.deriv(nu)
            exps = tuple(rng.randrange(3) for _ in range(nu + 1))
            mono = SparsePoly.monomial(space, exps, QQ.one)
            lhs = residue(mono.evaluate(values), p)
            rhs = residue(reduction(sys_, mono).evaluate(base), p)
            assert lhs == rhs


def test_property_support_growth_containment():
    with criterion("support-growth", 60.0):
        rng = random.Random(202)
        for _ in range(10):
            n = rng.randint(1, 3)
            sys_ = sparse_system(
                n, rng.randint(1, 3), rng.randint(1, 3) if n > 1 else 1, rng
            )
            d, D = sys_.d, max(sys_.D, 1)
            h = dict(sys_.g[0].terms)
            for k in range(1, 5):
                if k > 1:
                    h = prolong(sys_, h, k - 2)
                order = k - 1
                for e in h:
                    l1 = sum((i * (D - 1) + 1) * e[i] for i in range(order + 1))
                    l1 += sum(e[order + 1:])
                    assert l1 <= d + (k - 1) * (D - 1)
                    assert sum(i * e[i] for i in range(order + 1)) <= k - 1


def test_property_crt_reconstruction_round_trip():
    with criterion("crt-round-trip", 30.0):
        rng = random.Random(203)
        p1, p2 = 4611686018427387847, 4611686018427387817
        assert is_prime(p1) and is_prime(p2)
        for _ in range(50):
            q = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
            acc = CrtAccumulator.empty(1)
            for p in (p1, p2):
                acc = crt_absorb(acc, [residue(q, p)], p)
            assert rational_reconstruct(acc.residues[0], acc.modulus) == q


def test_property_kernel_multiple_divisibility():
    with criterion("kernel-multiples", 60.0):
        sys_ = parse_system("x1' = x2\nx2' = -x1")
        p = 1048583
        space = VarSpace.deriv(2)
        pts3 = sorted(
            {
                (a, b, c)
                for a in range(4)
                for b in range(4)
                for c in range(4)
                if a + b + c <= 3
            },
            key=space.sort_key,
        )
        S = LatticeSet(2, pts3)
        samples = interp._draw_points(fork_rng(5, "points"), len(S) + 6, 2, 400)
        forms = [IntegerForm(h) for h in lie_iterates(sys_, S.nu + 1)]
        N = interp._eval_matrix(forms, p, S, samples)
        W = N.data.copy()
        pivots, free, _ = linalg._echelon(W, p)
        basis = [[int(v) for v in linalg._kernel_vector(W, p, pivots, f)] for f in free]
        assert basis
        fmin = parse_derivative_poly("x1'' + x1")
        assert minimal_element(N, S) == tuple(residue(fmin.coefficient(s), p) for s in S)
        # every kernel vector is a combination of the multiples m * fmin, deg m <= 2
        multiples = [
            [residue((SparsePoly.monomial(space, m, QQ.one) * fmin).coefficient(s), p) for s in S]
            for m in pts3
            if sum(m) <= 2
        ]
        rank = len(linalg._echelon(np.array(multiples, dtype=np.int64), p)[0])
        assert rank == len(linalg._echelon(np.array(multiples + basis, dtype=np.int64), p)[0])


def test_property_seed_invariance():
    with criterion("seed-invariance", 60.0):
        for model in ("x1' = x2\nx2' = -x1", "x1' = x1^2 + x1*x2 + x2^2 + 1\nx2' = x2"):
            sys_ = parse_system(model)
            outs = {
                eliminate(sys_, SampleConfig(seed=s)).f_min.render()
                for s in (11, 12, 13)
            }
            assert len(outs) == 1
