"""Polynomial dynamical systems x' = g(x) and the operators acting on them.

The two operators around which everything else is built:

* the Lie derivative      L(f)  = sum_i g_i * df/dx_i,
* the reduction map       R(x1^(k)) = L^k(x1),

together with Monte-Carlo detection of the minimal differential order and
the jets of x1 modulo a prime, j_k = L^k(x1) at one point or at a batch
of points at once.  R is the bridge between differential
polynomials in x1 and plain polynomials on phase space: F vanishes along
every trajectory of the system exactly when R(F) = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .arith import fork_rng, random_prime
from .errors import BadPrimeError, BudgetExceededError, ParseError
from .linalg import MAX_PRIME_BITS, _echelon
from .poly import QQ, IntegerForm, SparsePoly, VarSpace, _ExprParser, _tokenize

_ORDER_REPS = 3  # Jacobian ranks taken by order_nu, each at a fresh prime and point


class OdeSystem:
    """An autonomous system x_i' = g_i(x1..xn) with polynomial right-hand sides.

    The right-hand sides are state-regime polynomials over QQ.  Two
    degrees drive all support bounds downstream and are cached here:
    ``d`` is the total degree of g_1 and ``D`` the maximum degree among
    g_2..g_n (zero when n = 1, where it plays no role).  The Lie iterates
    built for the system are kept on it too (lie_iterates).
    """

    __slots__ = ("n", "g", "space", "d", "D", "_iterates")

    def __init__(self, g):
        g = list(g)
        if not g:
            raise ValueError("a system needs at least one equation")
        n = len(g)
        space = VarSpace.state(n)
        for i, q in enumerate(g):
            if not isinstance(q, SparsePoly) or q.space != space:
                raise ValueError(
                    f"right-hand side {i + 1} must be a polynomial in x1..x{n}"
                )
        self.n = n
        self.g = tuple(g)
        self.space = space
        self.d = max(g[0].total_degree(), 0)
        self.D = 0 if n == 1 else max(max(q.total_degree(), 0) for q in g[1:])
        self._iterates = ()

    def denominator(self) -> int:
        """lcm of the coefficient denominators: the system has no image mod a prime dividing it."""
        return math.lcm(*(c.denominator for q in self.g for c in q.terms.values()))

    def relabel(self, target: int) -> "OdeSystem":
        """Swap x1 and x<target>, so that elimination acts on x<target>."""
        n = self.n
        if not 1 <= target <= n:
            raise ValueError(f"target must lie in 1..{n}")
        if target == 1:
            return self
        perm = list(range(n))
        perm[0], perm[target - 1] = perm[target - 1], perm[0]
        g = []
        for i in perm:
            terms = {tuple(e[j] for j in perm): c for e, c in self.g[i].terms.items()}
            g.append(SparsePoly(self.space, QQ, terms))
        return OdeSystem(g)

    def render(self) -> str:
        return "\n".join(f"x{i + 1}' = {q}" for i, q in enumerate(self.g))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"OdeSystem(n={self.n}, d={self.d}, D={self.D})"

    def __eq__(self, other):
        return isinstance(other, OdeSystem) and self.g == other.g


def parse_system(text: str) -> OdeSystem:
    """Parse a system description: one ``xk' = <polynomial>`` line per variable.

    Blank lines and ``#`` comments are ignored.  The dimension n is the
    number of equations; the left-hand sides must cover x1..xn exactly
    once each, and right-hand sides may only mention x1..xn (derivatives
    are rejected).  Decimal literals become exact rationals.
    """
    tokens = _tokenize(text)
    by_line: dict[int, list] = {}
    for tok in tokens:
        by_line.setdefault(tok.line, []).append(tok)

    equations = {}
    for lineno in sorted(by_line):
        toks = by_line[lineno]
        head = toks[0]
        if head.kind != "var":
            raise ParseError("expected an equation like x1' = ...", head.line, head.col)
        index = int(head.text[1:])
        if len(toks) < 2 or toks[1].kind != "quotes" or toks[1].text != "'":
            raise ParseError(
                "left-hand side must be a first derivative like x1'", head.line, head.col
            )
        if len(toks) < 3 or toks[2].kind != "op" or toks[2].text != "=":
            raise ParseError("expected '=' after the left-hand side", head.line, head.col)
        if index in equations:
            raise ParseError(f"duplicate equation for x{index}", head.line, head.col)
        rhs = toks[3:]
        if not rhs:
            raise ParseError("empty right-hand side", toks[2].line, toks[2].col)
        equations[index] = rhs

    if not equations:
        raise ParseError("no equations found")
    n = len(equations)
    if sorted(equations) != list(range(1, n + 1)):
        got = ", ".join(f"x{k}" for k in sorted(equations))
        raise ParseError(
            f"the {n} equations must define x1..x{n} exactly once each (got {got})"
        )
    space = VarSpace.state(n)
    return OdeSystem([_ExprParser(equations[k], space).parse() for k in range(1, n + 1)])


# ---------------------------------------------------------------------------
# operators


def lie_derivative(sys: OdeSystem, f: SparsePoly) -> SparsePoly:
    """Derivative of f along the flow: sum_i g_i * df/dx_i."""
    if f.space != sys.space:
        raise ValueError("f must be a state-regime polynomial of the same system")
    out = SparsePoly.zero(sys.space)
    for i, gi in enumerate(sys.g):
        pd = f.partial_derivative(i)
        if pd.terms:
            out = out + gi * pd
    return out


def lie_iterates(sys: OdeSystem, count: int) -> list[SparsePoly]:
    """[x1, L(x1), L^2(x1), ..., L^(count-1)(x1)] as state-regime polynomials.

    Built once per system: the system keeps the longest tuple so far, and a
    longer request derives only the missing iterates and publishes the new
    tuple in one assignment, so concurrent callers never see a partial one.
    """
    if count < 1:
        return []
    have = sys._iterates
    if len(have) < count:
        out = list(have) or [SparsePoly.variable(sys.space, 0)]
        while len(out) < count:
            out.append(lie_derivative(sys, out[-1]))
        have = tuple(out)
        if len(have) > len(sys._iterates):
            sys._iterates = have
    return list(have[:count])


def reduction(sys: OdeSystem, f: SparsePoly, max_terms: int | None = None) -> SparsePoly:
    """Substitute x1^(k) -> L^k(x1) into a differential polynomial.

    The substitution goes highest derivative first, Horner-style in each
    derivative variable, which keeps intermediate expression swell down
    compared to expanding monomials independently.

    The Horner evaluation runs on plain dicts {packed exponent: int}.
    Let lam be the lcm of the denominators of g; then
    H_k = lam^k * L^k(x1) is integral.  With mu the lcm of the
    denominators of F and W the largest weight w(e) = sum_k k*e_k of a
    term of F, the term c_e * x^(e) enters as the integer
    mu * c_e * lam^(W - w(e)), and the evaluation yields
    mu * lam^W * R(F); that constant is divided out of the returned
    polynomial.

    A state monomial x1^a1 ... xn^an is packed as sum_i a_i * B^(i-1)
    with B = delta + 1, where delta = max over terms e of F of
    sum_k e_k * deg H_k.  Every intermediate, and every monomial of a
    partial product, is a monomial of an expansion of
    prod_k H_k^(e'_k) with e' <= e componentwise for some term e of F,
    so its total degree, and with it each exponent, is at most delta < B:
    adding packed keys never carries from one variable into the next.

    ``max_terms`` caps the size of any intermediate polynomial and is
    checked after every product and every sum; exceeding it raises
    BudgetExceededError rather than silently eating memory.  An
    intermediate differs from its unscaled rational counterpart only by a
    nonzero constant, so both have the same support and the budget trips
    at the same sizes.
    """
    if f.space.kind != "deriv":
        raise ValueError("f must be a polynomial in x1 and its derivatives")
    state = sys.space
    if not f.terms:
        return SparsePoly.zero(state)
    iterates = lie_iterates(sys, f.space.order + 1)
    lam = sys.denominator()
    mu = math.lcm(*(c.denominator for c in f.terms.values()))
    degrees = [max(h.total_degree(), 0) for h in iterates]
    base = 1 + max(sum(e * dk for e, dk in zip(exps, degrees)) for exps in f.terms)
    weight = {exps: sum(k * e for k, e in enumerate(exps)) for exps in f.terms}
    top = max(weight.values())

    def pack(exps):
        key = 0
        for e in reversed(exps):
            key = key * base + e
        return key

    H = [
        {pack(e): c.numerator * lam**k // c.denominator for e, c in h.terms.items()}
        for k, h in enumerate(iterates)
    ]
    scaled = {
        exps: c.numerator * (mu // c.denominator) * lam ** (top - weight[exps])
        for exps, c in f.terms.items()
    }

    def guard(poly):
        if max_terms is not None and len(poly) > max_terms:
            raise BudgetExceededError(
                f"intermediate polynomial reached {len(poly)} terms "
                f"(budget {max_terms}); the membership test is indeterminate "
                f"at this budget"
            )
        return poly

    def descend(terms, k):
        # terms: exponent tuples of length k+1 (variables x1^(0..k))
        if k == 0:
            return {e[0]: c for e, c in terms.items()}  # x1^e packs to e
        strata: dict[int, dict] = {}
        for exps, c in terms.items():
            strata.setdefault(exps[-1], {})[exps[:-1]] = c
        h = H[k]
        val = {}
        for j in range(max(strata), -1, -1):
            if val:
                val = guard(_packed_mul(val, h))
            if j in strata:
                val = guard(_packed_add(val, descend(strata[j], k - 1)))
        return val

    scale = mu * lam**top
    out = {}
    for key, c in descend(scaled, f.space.order).items():
        exps = []
        for _ in range(state.nvars):
            key, e = divmod(key, base)
            exps.append(e)
        out[tuple(exps)] = Fraction(c, scale)
    return SparsePoly(state, QQ, out, _clean=True)


def _packed_mul(a: dict, b: dict) -> dict:
    """Product of two {packed exponent: int} polynomials, zero terms dropped."""
    if len(a) < len(b):
        a, b = b, a
    out = {}
    get = out.get
    items = a.items()
    for eb, cb in b.items():
        for ea, ca in items:
            key = ea + eb
            out[key] = get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def _packed_add(a: dict, b: dict) -> dict:
    """Sum of two {packed exponent: int} polynomials, zero terms dropped."""
    out = dict(a)
    get = out.get
    for key, c in b.items():
        out[key] = get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def order_nu(sys: OdeSystem, rng=None) -> int:
    """Minimal differential order of x1, detected by Monte-Carlo rank.

    The order equals the rank of the n x n Jacobian of (x1, L(x1), ...,
    L^(n-1)(x1)) with respect to x1..xn.  The rank is taken by _echelon
    on int64 residues at random points over random 23-bit primes (the
    widest it takes), keeping the maximum over _ORDER_REPS repetitions;
    a prime that divides a denominator of the system is drawn again.  A
    random evaluation can only underestimate the generic rank, and an
    underestimate surfaces later as an empty interpolation kernel, which
    triggers escalation.
    """
    if rng is None:
        rng = fork_rng(2026, "order-nu")
    n = sys.n
    rows = lie_iterates(sys, n)
    jac = [[IntegerForm(rows[i].partial_derivative(j)) for j in range(n)] for i in range(n)]
    denominator = sys.denominator()
    best = 0
    for _ in range(_ORDER_REPS):
        p = random_prime(MAX_PRIME_BITS, rng)
        while denominator % p == 0:
            p = random_prime(MAX_PRIME_BITS, rng)
        point = [rng.randrange(p) for _ in range(n)]
        matrix = [[entry.evaluate(point, p) for entry in row] for row in jac]
        pivots, _, _ = _echelon(np.array(matrix, dtype=np.int64), p)
        best = max(best, len(pivots))
        if best == n:
            break
    return best


# ---------------------------------------------------------------------------
# jets


def jet(iterates: list, base, p: int) -> list:
    """Jet (j_0, ..., j_nu) of x1 at ``base`` mod p: j_k = R(x1^(k)) = L^k(x1) there.

    jet only evaluates ``iterates``, the IntegerForms of the Lie iterates
    x1, ..., L^nu(x1) over Q, mod p: a run or a check builds the forms
    once for all its primes.  ``base`` gives one value per variable: an
    int (any p), or an int64 numpy array of point values, in which case
    every j_k is an array of the jets at all those points; arrays need
    p < 2^MAX_PRIME_BITS, so that products of residues stay exact.
    """
    if not iterates:
        raise ValueError("jets need the iterates x1, ..., L^nu(x1)")
    nu = len(iterates) - 1
    if p <= nu:
        raise BadPrimeError(f"prime {p} must exceed the jet order {nu}")
    if len(base) != iterates[0].nvars:
        raise ValueError(f"base point has {len(base)} coordinates, expected {iterates[0].nvars}")
    zero = base[0] * 0  # 0, or zeros shaped like the base arrays
    if isinstance(zero, np.ndarray) and p >> MAX_PRIME_BITS:
        raise ValueError(f"jets of numpy point arrays need a prime below 2^{MAX_PRIME_BITS}")
    return [h.evaluate(base, p) + zero for h in iterates]
