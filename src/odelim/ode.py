"""Polynomial dynamical systems x' = g(x) and the operators acting on them.

The three operators around which everything else is built:

* the Lie derivative      L(f)  = sum_i g_i * df/dx_i,
* the prolonged operator  L*(F) = sum_{i>=2} g_i * dF/dx_i
                                  + sum_{k>=0} x1^(k+1) * dF/dx1^(k),
* the reduction map       R(x1^(k)) = L^k(x1),

together with Monte-Carlo detection of the minimal differential order and
truncated power-series ("jet") evaluation of trajectories over a prime
field, at one point or at a batch of points at once.  R is the bridge
between differential polynomials in x1 and plain polynomials on phase
space: F vanishes along every trajectory of the system exactly when
R(F) = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .arith import BadPrimeError, PrimeField, fork_rng, random_prime
from .errors import BudgetExceededError, ParseError
from .linalg import MAX_PRIME_BITS, _echelon
from .poly import QQ, SparsePoly, VarSpace, _ExprParser, _tokenize

_ORDER_REPS = 3  # Jacobian ranks taken by order_nu, each at a fresh prime and point


class OdeSystem:
    """An autonomous system x_i' = g_i(x1..xn) with polynomial right-hand sides.

    The right-hand sides are state-regime polynomials over a common
    coefficient ring (exact rationals, or a prime field for modular runs).
    Two degrees drive all support bounds downstream and are cached here:
    ``d`` is the total degree of g_1 and ``D`` the maximum degree among
    g_2..g_n (zero when n = 1, where it plays no role).
    """

    __slots__ = ("n", "g", "ring", "space", "d", "D")

    def __init__(self, g):
        g = list(g)
        if not g:
            raise ValueError("a system needs at least one equation")
        n = len(g)
        space = VarSpace.state(n)
        ring = g[0].ring
        for i, q in enumerate(g):
            if not isinstance(q, SparsePoly) or q.space != space:
                raise ValueError(
                    f"right-hand side {i + 1} must be a polynomial in x1..x{n}"
                )
            if q.ring != ring:
                raise ValueError("right-hand sides must share one coefficient ring")
        self.n = n
        self.g = tuple(g)
        self.ring = ring
        self.space = space
        self.d = max(g[0].total_degree(), 0)
        self.D = 0 if n == 1 else max(max(q.total_degree(), 0) for q in g[1:])

    def denominator(self) -> int:
        """lcm of the coefficient denominators; reduce_mod(p) needs p not to divide it."""
        return math.lcm(*(c.denominator for q in self.g for c in q.terms.values()))

    def reduce_mod(self, p) -> "OdeSystem":
        """The same system with coefficients reduced into GF(p)."""
        ring = p if isinstance(p, PrimeField) else PrimeField(p)
        return OdeSystem([q.map_to(ring) for q in self.g])

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
            g.append(SparsePoly(self.space, self.ring, terms))
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
    out = SparsePoly.zero(sys.space, sys.ring)
    for i, gi in enumerate(sys.g):
        pd = f.partial_derivative(i)
        if pd.terms:
            out = out + gi * pd
    return out


def lie_iterates(sys: OdeSystem, count: int) -> list[SparsePoly]:
    """[x1, L(x1), L^2(x1), ..., L^(count-1)(x1)] as state-regime polynomials."""
    if count < 1:
        return []
    out = [SparsePoly.variable(sys.space, 0, sys.ring)]
    for _ in range(count - 1):
        out.append(lie_derivative(sys, out[-1]))
    return out


def lie_star(sys: OdeSystem, f: SparsePoly) -> SparsePoly:
    """The prolonged operator on polynomials in x1-derivatives and x2..xn.

    Each x1^(k) is pushed to x1^(k+1) by the chain rule and the remaining
    state variables move along the flow; x1 itself is NOT rewritten in
    terms of the right-hand sides, so the output lives one derivative
    order higher than the input.
    """
    space = f.space
    if space.kind == "state":
        raise ValueError("f must be in the derivative or mixed regime")
    if space.kind == "mixed" and space.n != sys.n:
        raise ValueError(f"f mentions {space.n} state variables, system has {sys.n}")
    order = space.order
    if space.kind == "deriv":
        out_space = VarSpace.deriv(order + 1)
    else:
        out_space = VarSpace.mixed(order + 1, sys.n)
    F = f.embed(out_space)
    out = SparsePoly.zero(out_space, f.ring)
    if space.kind == "mixed":
        for i in range(2, sys.n + 1):
            pd = F.partial_derivative(out_space.state_index(i))
            if pd.terms:
                out = out + sys.g[i - 1].embed(out_space) * pd
    for k in range(order + 1):
        pd = F.partial_derivative(out_space.deriv_index(k))
        if pd.terms:
            out = out + SparsePoly.variable(out_space, out_space.deriv_index(k + 1), f.ring) * pd
    return out


def reduction(sys: OdeSystem, f: SparsePoly, max_terms: int | None = None) -> SparsePoly:
    """Substitute x1^(k) -> L^k(x1) into a differential polynomial.

    The substitution goes highest derivative first, Horner-style in each
    derivative variable, which keeps intermediate expression swell down
    compared to expanding monomials independently.

    The Horner evaluation runs on plain dicts {packed exponent: int}.
    Over QQ, let lam be the lcm of the denominators of g; then
    H_k = lam^k * L^k(x1) is integral.  With mu the lcm of the
    denominators of F and W the largest weight w(e) = sum_k k*e_k of a
    term of F, the term c_e * x^(e) enters as the integer
    mu * c_e * lam^(W - w(e)), and the evaluation yields
    mu * lam^W * R(F); that constant is divided out of the returned
    polynomial.  Over GF(p), lam = mu = 1 and sums and products are
    reduced mod p.

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
    if f.ring != sys.ring:
        raise ValueError(f"coefficient-ring mismatch: {f.ring} vs {sys.ring}")
    ring = sys.ring
    state = sys.space
    if not f.terms:
        return SparsePoly.zero(state, ring)
    iterates = lie_iterates(sys, f.space.order + 1)
    if isinstance(ring, PrimeField):
        p, lam, mu = ring.p, 1, 1
    else:
        p = None
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

    # c.numerator / c.denominator also read plain ints (GF(p) coefficients)
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
                val = guard(_packed_mul(val, h, p))
            if j in strata:
                val = guard(_packed_add(val, descend(strata[j], k - 1), p))
        return val

    scale = mu * lam**top
    out = {}
    for key, c in descend(scaled, f.space.order).items():
        exps = []
        for _ in range(state.nvars):
            key, e = divmod(key, base)
            exps.append(e)
        out[tuple(exps)] = c if p else Fraction(c, scale)
    return SparsePoly(state, ring, out, _clean=True)


def _packed_mul(a: dict, b: dict, p) -> dict:
    """Product of two {packed exponent: int} polynomials, reduced mod p when p."""
    if len(a) < len(b):
        a, b = b, a
    out = {}
    get = out.get
    items = a.items()
    for eb, cb in b.items():
        for ea, ca in items:
            key = ea + eb
            out[key] = get(key, 0) + ca * cb
    return _trim(out, p)


def _packed_add(a: dict, b: dict, p) -> dict:
    """Sum of two {packed exponent: int} polynomials, reduced mod p when p."""
    out = dict(a)
    get = out.get
    for key, c in b.items():
        out[key] = get(key, 0) + c
    return _trim(out, p)


def _trim(poly: dict, p) -> dict:
    """Drop the zero coefficients, after reducing mod p when p."""
    if p:
        poly = {key: c % p for key, c in poly.items()}
    return {key: c for key, c in poly.items() if c}


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
    if sys.ring != QQ:
        raise ValueError("order detection expects an exact-rational system")
    if rng is None:
        rng = fork_rng(2026, "order-nu")
    n = sys.n
    rows = lie_iterates(sys, n)
    jac = [[rows[i].partial_derivative(j) for j in range(n)] for i in range(n)]
    denominator = sys.denominator()
    best = 0
    for _ in range(_ORDER_REPS):
        p = random_prime(MAX_PRIME_BITS, rng)
        while denominator % p == 0:
            p = random_prime(MAX_PRIME_BITS, rng)
        field = PrimeField(p)
        point = [rng.randrange(p) for _ in range(n)]
        matrix = [[entry.map_to(field).evaluate(point) for entry in row] for row in jac]
        pivots, _, _ = _echelon(np.array(matrix, dtype=np.int64), p)
        best = max(best, len(pivots))
        if best == n:
            break
    return best


# ---------------------------------------------------------------------------
# jets


def jet(sys: OdeSystem, base, nu: int) -> list:
    """Jet (j_0, ..., j_nu) of x1 along the trajectory through ``base``.

    The system must already be reduced mod p.  ``base`` gives one value per
    variable: an int (any p), or an int64 numpy array of point values
    (p < 2^30), in which case every returned j_k is an array of the jets
    at all those points.  The trajectory is computed as a truncated power
    series by the coefficient recurrence — knowing x(t) mod t^k, the
    relation x' = g(x) yields the t^k coefficient — and
    j_k = k! * [t^k] x1(t), which equals R(x1^(k)) evaluated at the base
    point without ever expanding R symbolically.  Every product is reduced
    mod p, so int64 arrays stay exact at any order.
    """
    if not isinstance(sys.ring, PrimeField):
        raise ValueError("jets are computed modulo a prime; reduce the system first")
    p = sys.ring.p
    if p <= nu:
        raise BadPrimeError(f"prime {p} must exceed the jet order {nu}")
    if nu < 0:
        raise ValueError("jet order must be nonnegative")
    series = [[b % p] for b in base]
    if len(series) != sys.n:
        raise ValueError(f"base point has {len(series)} coordinates, expected {sys.n}")
    zero = series[0][0] * 0  # 0, or zeros shaped like the base arrays
    maxe = [max(col) for col in zip(*(q.max_exponents() for q in sys.g))]
    for k in range(nu):
        # powers[v][e] = x_v(t)^e mod t^(k+1)
        unit = [zero + 1] + [zero] * k
        powers = []
        for s, e in zip(series, maxe):
            table = [unit]
            for _ in range(e):
                table.append(_truncated_product(table[-1], s, p))
            powers.append(table)
        inv = pow(k + 1, p - 2, p)
        for i, q in enumerate(sys.g):
            acc = zero
            for exps, c in q.terms.items():
                factors = [powers[v][e] for v, e in enumerate(exps) if e]
                term = factors[0] if factors else unit
                for f in factors[1:]:
                    term = _truncated_product(term, f, p)
                acc = (acc + c * term[k]) % p
            series[i].append(acc * inv % p)
    out = []
    fact = 1
    for k, coeff in enumerate(series[0]):
        if k:
            fact = fact * k % p
        out.append(coeff * fact % p)
    return out


def _truncated_product(a, b, p: int) -> list:
    """Product of two power series mod t^len(a), coefficients reduced mod p."""
    return [sum(a[i] * b[l - i] % p for i in range(l + 1)) % p for l in range(len(a))]
