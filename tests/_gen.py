"""Random polynomial systems shared by the interp/verify/acceptance tests,
and the residue of a rational mod p that the tests use as an oracle."""

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
