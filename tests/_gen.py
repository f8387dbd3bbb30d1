"""Random polynomial systems shared by the interp/verify/acceptance tests,
the residue of a rational mod p that the tests use as an oracle, and the
prolonged operator L* behind the support bound."""

import itertools
from fractions import Fraction

from odelim.ode import OdeSystem
from odelim.poly import QQ, SparsePoly, VarSpace


def dense_poly(space, deg, rng, low=-1000, high=1000):
    """Dense polynomial with every monomial of total degree <= deg."""
    n = space.nvars
    terms = {}
    for exps in itertools.product(range(deg + 1), repeat=n):
        if sum(exps) > deg:
            continue
        c = rng.randint(low, high)
        if c:
            terms[exps] = c
    return SparsePoly(space, QQ, {e: QQ.coerce(c) for e, c in terms.items()})


def dense_system(n, d, D, rng, low=-1000, high=1000):
    """Random system with deg g1 = d and deg gi = D for i >= 2.

    The top-degree coefficients are forced nonzero so (d, D) really are
    the degrees, keeping the support bound honest.
    """
    space = VarSpace.state(n)
    gs = []
    for i in range(n):
        deg = d if i == 0 else D
        while True:
            g = dense_poly(space, deg, rng, low, high)
            if g.total_degree() == deg:
                gs.append(g)
                break
    return OdeSystem(gs)


def sparse_system(n, d, D, rng, terms=4, low=-9, high=9):
    """Random sparse system; small coefficients keep exact checks cheap."""
    space = VarSpace.state(n)
    gs = []
    for i in range(n):
        deg = d if i == 0 else D
        poly = SparsePoly.zero(space, QQ)
        while poly.total_degree() < deg:
            poly = SparsePoly.zero(space, QQ)
            for _ in range(terms):
                exps = [0] * n
                budget = rng.randint(0, deg)
                for _ in range(budget):
                    exps[rng.randrange(n)] += 1
                c = rng.randint(low, high)
                if c:
                    poly = poly + SparsePoly.monomial(space, exps, QQ.coerce(c))
        gs.append(poly)
    return OdeSystem(gs)


def residue(q, p):
    """q mod p for an int or Fraction q whose denominator p does not divide."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, p) % p


def prolong(sys, h, order):
    """L*(h) = sum_{i>=2} g_i * dh/dx_i + sum_{k>=0} x1^(k+1) * dh/dx1^(k).

    ``h`` maps exponent tuples over (x1, x1', ..., x1^(order), x2, ..., xn)
    to coefficients; the result is the same kind of dict with one more
    derivative slot (order + 1).  Each x1^(k) moves to x1^(k+1) by the chain
    rule and x2 .. xn move along the flow; x1 itself is not rewritten by
    g_1.  The support bound rests on the weighted degrees of its iterates.
    """
    out = {}

    def add(e, c):
        out[e] = out.get(e, 0) + c

    for e, c in h.items():
        e = list(e[:order + 1]) + [0] + list(e[order + 1:])
        for k in range(order + 1):
            if e[k]:
                f = e.copy()
                f[k] -= 1
                f[k + 1] += 1
                add(tuple(f), c * e[k])
        for i in range(2, sys.n + 1):
            slot = order + i  # x_i follows the order + 2 derivative slots
            if e[slot]:
                for a, gc in sys.g[i - 1].terms.items():
                    f = e.copy()
                    f[slot] -= 1
                    f[0] += a[0]
                    for j in range(2, sys.n + 1):
                        f[order + j] += a[j - 1]
                    add(tuple(f), c * e[slot] * gc)
    return {e: c for e, c in out.items() if c}
