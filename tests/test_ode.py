"""Systems, the two operators, order detection and jets."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from _gen import dense_system, prolong, residue, sparse_system
from odelim import ode
from odelim.arith import fork_rng
from odelim.errors import BadPrimeError, BudgetExceededError, ParseError
from odelim.interp import SampleConfig, eliminate
from odelim.ode import (
    OdeSystem,
    jet,
    lie_derivative,
    lie_iterates,
    order_nu,
    parse_system,
    reduction,
)
from odelim.poly import (
    QQ,
    IntegerForm,
    SparsePoly,
    VarSpace,
    parse_derivative_poly,
    parse_state_poly,
)

HARMONIC = parse_system("x1' = x2\nx2' = -x1")
SQUARED = parse_system("x1' = x2^2\nx2' = x1")
QUAD43 = parse_system("x1' = x1^2 + x1*x2 + x2^2 + 1\nx2' = x2")


def forms_of(iterates):
    return [IntegerForm(h) for h in iterates]


# --- parsing --------------------------------------------------------------


def test_parse_system_basic():
    assert HARMONIC.n == 2
    assert HARMONIC.d == 1 and HARMONIC.D == 1
    assert QUAD43.d == 2 and QUAD43.D == 1


def test_parse_system_comments_and_blank_lines():
    s = parse_system("# a comment\n\nx1' = x2\n x2' = -x1  # inline\n")
    assert s.g == HARMONIC.g


def test_parse_system_errors():
    with pytest.raises(ParseError):
        parse_system("x1' = x2")  # missing x2 equation
    with pytest.raises(ParseError):
        parse_system("x1' = x1\nx1' = 2*x1")  # duplicate
    with pytest.raises(ParseError):
        parse_system("x1' = x2'\nx2' = x1")  # derivative on the rhs
    with pytest.raises(ParseError) as err:
        parse_system("x1' = x2\nx2' = x1 + @")
    assert err.value.line == 2


def test_parse_render_round_trip():
    for sys_ in (HARMONIC, SQUARED, QUAD43):
        again = parse_system(sys_.render())
        assert again.g == sys_.g


def test_relabel_swaps_x1_and_target():
    sys_ = parse_system("x1' = x2\nx2' = -x2 - x1")
    assert sys_.relabel(1) is sys_
    assert sys_.relabel(2) == parse_system("x1' = -x1 - x2\nx2' = x1")
    with pytest.raises(ValueError):
        sys_.relabel(3)


def test_system_degree_cache_n1():
    s = parse_system("x1' = x1^2")
    assert s.n == 1 and s.d == 2 and s.D == 0


# --- Lie derivative -------------------------------------------------------


def test_lie_derivative_harmonic():
    f = parse_state_poly("x1", 2)
    once = lie_derivative(HARMONIC, f)
    assert once == parse_state_poly("x2", 2)
    assert lie_derivative(HARMONIC, once) == parse_state_poly("-x1", 2)


def test_lie_derivative_constant():
    c = parse_state_poly("5", 2)
    assert lie_derivative(HARMONIC, c).is_zero


def test_lie_derivative_leibniz():
    rng = random.Random(21)
    space = VarSpace.state(2)
    for _ in range(50):
        f = _rand_state(rng, space)
        g = _rand_state(rng, space)
        lhs = lie_derivative(HARMONIC, f * g)
        rhs = f * lie_derivative(HARMONIC, g) + g * lie_derivative(HARMONIC, f)
        assert lhs == rhs


def _rand_state(rng, space, max_terms=5):
    p = SparsePoly.zero(space, QQ)
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(3) for _ in range(space.nvars))
        p = p + SparsePoly.monomial(space, exps, QQ.coerce(rng.randint(-9, 9)))
    return p


def test_lie_iterates_start_with_x1():
    its = lie_iterates(HARMONIC, 3)
    assert its[0] == parse_state_poly("x1", 2)
    assert its[1] == parse_state_poly("x2", 2)
    assert its[2] == parse_state_poly("-x1", 2)


# --- extended operator ----------------------------------------------------


def test_lie_star_keeps_first_derivative():
    # d/dt(x1' - g1) pushes x1' to x1'' and moves x2 along the flow; the
    # first derivative itself is NOT rewritten via g1.  Exponents run over
    # (x1, x1', x2), then (x1, x1', x1'', x2).
    f = {(0, 1, 0): 1, (2, 0, 0): -1, (1, 0, 1): -1, (0, 0, 2): -1, (0, 0, 0): -1}
    # x1'' - x1'*(2*x1 + x2) - x2*(2*x2 + x1)
    expected = {(0, 0, 1, 0): 1, (1, 1, 0, 0): -2, (0, 1, 0, 1): -1, (0, 0, 0, 2): -2, (1, 0, 0, 1): -1}
    assert prolong(QUAD43, f, 1) == expected


def test_lie_star_agrees_with_lie_derivative_without_x1():
    rng = random.Random(22)
    state = VarSpace.state(2)
    for _ in range(50):
        # kill the x1 dependence
        f = {e: c for e, c in _rand_state(rng, state).terms.items() if e[0] == 0}
        plain = lie_derivative(HARMONIC, SparsePoly(state, QQ, f))
        # order 0: (x1, x2) widens to (x1, x1', x2)
        assert prolong(HARMONIC, f, 0) == {(a, 0, b): c for (a, b), c in plain.terms.items()}


def test_lie_star_support_growth():
    # every monomial of the (k-1)-fold iterate of g1 satisfies the two
    # weighted-degree bounds, k <= 4, on random small systems
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        D = rng.randint(1, 3) if n > 1 else 0
        sys_ = sparse_system(n, d, max(D, 1) if n > 1 else 1, rng)
        d, D = sys_.d, sys_.D
        h = dict(sys_.g[0].terms)
        for k in range(1, 5):
            if k > 1:
                h = prolong(sys_, h, k - 2)
            order = k - 1
            Dw = max(D, 1)
            for e in h:
                l1 = sum((i * (Dw - 1) + 1) * e[i] for i in range(order + 1))
                l1 += sum(e[order + 1:])
                l2 = sum(i * e[i] for i in range(order + 1))
                assert l1 <= d + (k - 1) * (Dw - 1)
                assert l2 <= k - 1


# --- reduction ------------------------------------------------------------


def test_reduction_worked_examples():
    f = parse_derivative_poly("x1'' + x1")
    assert reduction(HARMONIC, f).is_zero
    g = parse_derivative_poly("x1''^2 - 4*x1^2*x1'")
    assert reduction(SQUARED, g).is_zero


def test_reduction_nonmember():
    f = parse_derivative_poly("x1'' - x1")
    out = reduction(HARMONIC, f)
    assert out == parse_state_poly("-2*x1", 2)


def test_reduction_is_ring_homomorphism():
    rng = random.Random(24)
    space = VarSpace.deriv(2)
    for _ in range(25):
        f = _rand_state(rng, space)
        g = _rand_state(rng, space)
        assert reduction(HARMONIC, f + g) == reduction(HARMONIC, f) + reduction(
            HARMONIC, g
        )
        assert reduction(HARMONIC, f * g) == reduction(HARMONIC, f) * reduction(
            HARMONIC, g
        )


def test_reduction_budget():
    sys_ = parse_system("x1' = x1^2 + x2^2\nx2' = x1*x2 + 1")
    f = parse_derivative_poly("x1''^3*x1'^3*x1^2 + x1'^2")
    with pytest.raises(BudgetExceededError):
        reduction(sys_, f, max_terms=3)


# the budgets below were measured on the rational (Fraction) Horner
# substitution; an intermediate's support does not depend on how its
# coefficients are scaled, so the smallest passing budget must not move


def test_reduction_budget_smallest_passing():
    sys_ = parse_system("x1' = x1^2 + x2^2\nx2' = x1*x2 + 1")
    f = parse_derivative_poly("x1''^3*x1'^3*x1^2 + x1'^2")
    with pytest.raises(BudgetExceededError):
        reduction(sys_, f, max_terms=24)
    assert len(reduction(sys_, f, max_terms=25)) == 25


def test_reduction_budget_on_a_generic_relation():
    sys_ = dense_system(3, 2, 1, random.Random(101))
    f = eliminate(sys_, SampleConfig(seed=101)).f_min
    with pytest.raises(BudgetExceededError):
        reduction(sys_, f, max_terms=1329)
    assert reduction(sys_, f, max_terms=1330).is_zero


def _naive_reduction(sys_, f):
    """sum_e c_e * prod_k L^k(x1)^e_k, each monomial expanded on its own."""
    iterates = lie_iterates(sys_, f.space.order + 1)
    out = SparsePoly.zero(sys_.space)
    for exps, c in f.terms.items():
        term = SparsePoly.constant(sys_.space, c)
        for h, e in zip(iterates, exps):
            term = term * h**e
        out = out + term
    return out


def _rational_system(rng, n):
    """Random system of degree <= 2 whose coefficients have denominators 1..6,
    at least one of them above 1."""
    space = VarSpace.state(n)
    gs = []
    for i in range(n):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * n
            for _ in range(rng.randint(0, 2)):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 6))
        gs.append(SparsePoly(space, QQ, terms))
    if all(c.denominator == 1 for q in gs for c in q.terms.values()):
        gs[0] = gs[0] + SparsePoly.variable(space, n - 1).scale(Fraction(1, 3))
    return OdeSystem(gs)


def _rational_deriv_poly(rng, order):
    """Random F in x1..x1^(order) with denominators and mixed weights."""
    space = VarSpace.deriv(order)
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * (order + 1)
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(order + 1)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return SparsePoly(space, QQ, terms)


def test_reduction_matches_naive_expansion():
    rng = random.Random(2026)
    nonzero = 0
    for _ in range(30):
        n = rng.randint(1, 3)
        sys_ = _rational_system(rng, n)
        f = _rational_deriv_poly(rng, rng.randint(0, 3))
        got = reduction(sys_, f)
        assert got == _naive_reduction(sys_, f)
        nonzero += not got.is_zero
    assert nonzero >= 20


def test_reduction_fills_the_packing_base():
    # delta = max_e sum_k e_k deg L^k(x1) = 6 here, and R(F) holds x2^6
    # and x1^6: exponents equal to delta, the largest a packed field holds
    sys_ = parse_system("x1' = 1/2*x2^2 - x1\nx2' = 2/3*x1 + x3\nx3' = 1/5*x3^2")
    f = parse_derivative_poly("3/4*x1'^3 - 1/7*x1^6 + x1*x1'^2")
    got = reduction(sys_, f)
    assert got == _naive_reduction(sys_, f)
    assert (0, 6, 0) in got.terms and (6, 0, 0) in got.terms
    # scaling a member by a rational keeps the residue exactly zero
    member = parse_derivative_poly("x1'' + x1").scale(Fraction(5, 3))
    assert reduction(HARMONIC, member).is_zero


# --- order detection ------------------------------------------------------


def test_order_nu_examples():
    assert order_nu(HARMONIC) == 2
    assert order_nu(parse_system("x1' = x1\nx2' = x2")) == 1
    assert order_nu(parse_system("x1' = x1^2")) == 1


def test_order_nu_dense_three_matches_symbolic_rank():
    rng = random.Random(25)
    sys_ = sparse_system(3, 2, 2, rng)
    xs = sp.symbols("x1 x2 x3")

    def to_sp(poly):
        return sum(
            sp.Rational(c) * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
            for e, c in poly.terms.items()
        )

    gs = [to_sp(g) for g in sys_.g]
    rows = [xs[0]]
    for _ in range(2):
        prev = rows[-1]
        rows.append(sp.expand(sum(gs[j] * sp.diff(prev, xs[j]) for j in range(3))))
    jac = sp.Matrix([[sp.diff(r, v) for v in xs] for r in rows])
    assert order_nu(sys_) == jac.rank()


def test_order_nu_seed_invariant_on_regressions():
    for sys_ in (HARMONIC, SQUARED, QUAD43):
        vals = {
            order_nu(sys_, rng=fork_rng(seed, "t")) for seed in (1, 2, 3)
        }
        assert len(vals) == 1
        assert vals.pop() <= sys_.n


def test_order_nu_redraws_a_prime_dividing_a_denominator(monkeypatch):
    q = 8388593  # the largest 23-bit prime
    sys_ = parse_system(f"x1' = 1/{q}*x2\nx2' = -x1")
    draw = ode.random_prime
    drawn = []

    def q_first(bits, rng):
        drawn.append(q if not drawn else draw(bits, rng))
        return drawn[-1]

    monkeypatch.setattr(ode, "random_prime", q_first)
    assert order_nu(sys_) == 2
    assert drawn[0] == q and all(p < 1 << 23 for p in drawn)


# --- jets -----------------------------------------------------------------


def test_jet_scalar_square():
    p = 1000003
    sys_ = parse_system("x1' = x1^2")
    c = 12345
    assert jet(forms_of(lie_iterates(sys_, 3)), [c], p) == [c, c * c % p, 2 * c ** 3 % p]


def test_jet_harmonic():
    p = 97
    a, b = 5, 11
    assert jet(forms_of(lie_iterates(HARMONIC, 3)), [a, b], p) == [a, b, (-a) % p]


def test_jet_requires_large_prime():
    with pytest.raises(BadPrimeError):
        jet(forms_of(lie_iterates(HARMONIC, 3)), [1, 1], 2)


def test_jet_batch_matches_scalar_jets_below_2_to_23():
    sys_ = parse_system("x1' = x1^2 + 3*x2\nx2' = x1*x2 - 5")
    pts = np.array([[12, -7], [-1893, 1893], [123456789, 44]], dtype=np.int64)
    iterates = forms_of(lie_iterates(sys_, 3))
    p = 8388593  # the largest prime below 2^23
    batch = jet(iterates, pts.T, p)
    for i, pt in enumerate(pts.tolist()):
        assert [int(j[i]) for j in batch] == jet(iterates, pt, p)
    # a 40-bit residue squared overflows int64: the batch is refused, and
    # the scalar jet (Python ints) stays exact
    p = 1099511627689
    with pytest.raises(ValueError, match=r"2\^23"):
        jet(iterates, pts.T, p)
    assert jet(iterates[:2], [123456789, 44], p)[1] == (123456789**2 + 3 * 44) % p


def test_jet_matches_symbolic_reduction():
    rng = random.Random(26)
    p = 32003
    for _ in range(20):
        n = rng.randint(1, 3)
        sys_ = sparse_system(n, rng.randint(1, 3), rng.randint(1, 3) if n > 1 else 1, rng)
        base = [rng.randrange(p) for _ in range(n)]
        nu = min(n, 3)
        values = jet(forms_of(lie_iterates(sys_, nu + 1)), base, p)
        for k in range(nu + 1):
            mono = SparsePoly.monomial(
                VarSpace.deriv(nu), [0] * k + [1] + [0] * (nu - k), QQ.one
            )
            sym = reduction(sys_, mono)
            assert residue(sym.evaluate(base), p) == values[k]


def test_jet_oracle_on_random_monomials():
    # evaluating a derivative-monomial at the jet equals evaluating its
    # symbolic reduction at the base point
    rng = random.Random(27)
    p = 65537
    for _ in range(20):
        n = rng.randint(1, 3)
        sys_ = sparse_system(n, rng.randint(1, 3), rng.randint(1, 3) if n > 1 else 1, rng)
        nu = min(n, 2)
        space = VarSpace.deriv(nu)
        exps = tuple(rng.randrange(3) for _ in range(nu + 1))
        mono = SparsePoly.monomial(space, exps, QQ.one)
        base = [rng.randrange(p) for _ in range(n)]
        lhs = residue(mono.evaluate(jet(forms_of(lie_iterates(sys_, nu + 1)), base, p)), p)
        rhs = residue(reduction(sys_, mono).evaluate(base), p)
        assert lhs == rhs
