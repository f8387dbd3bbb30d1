"""Sparse multivariate polynomials with exact rational coefficients.

Polynomials live in one of two variable regimes:

* ``state``   -- the phase-space variables x1 .. xn of a dynamical system;
* ``deriv``   -- the formal derivatives x1, x1', x1'', ..., x1^(k) of the
  first coordinate (this is where minimal differential polynomials live).

Everything is ordered by graded lexicographic order.  Ties in total degree
are broken by variable precedence: x1 > x2 > ... > xn in the state regime
and x1^(k) > ... > x1' > x1 in the derivative regime.  The order is
the single canonical choice used for leading terms, pivot selection and
text rendering.

Terms are kept in a hash map from exponent tuples to nonzero coefficients;
a sorted view is cached on first use.  The workloads downstream are
evaluation-heavy rather than multiplication-heavy, so no fancier term
store is warranted.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache

from .arith import modinv
from .errors import BadPrimeError, ParseError


# ---------------------------------------------------------------------------
# coefficients


class _Rationals:
    """QQ, the only coefficient domain: every coefficient is a fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def coerce(c):
        if isinstance(c, Fraction):
            return c
        return Fraction(c)

    def __repr__(self):
        return "QQ"


QQ = _Rationals()


# ---------------------------------------------------------------------------
# variable spaces


def _deriv_name(k: int) -> str:
    if k == 0:
        return "x1"
    if k <= 2:
        return "x1" + "'" * k
    return f"x1^({k})"


class VarSpace:
    """An ordered variable set together with its graded-lex precedence.

    Immutable: ``state`` and ``deriv`` share one instance per argument.
    """

    __slots__ = ("kind", "n", "order", "names", "_prec")

    def __init__(self, kind, n, order, names, prec):
        self.kind = kind
        self.n = n          # number of state variables (1 for pure derivative)
        self.order = order  # highest derivative order (None for state)
        self.names = names
        self._prec = prec   # storage indices from highest precedence to lowest

    @staticmethod
    @cache
    def state(n: int) -> "VarSpace":
        if n < 1:
            raise ValueError("need at least one state variable")
        names = tuple(f"x{i}" for i in range(1, n + 1))
        return VarSpace("state", n, None, names, tuple(range(n)))

    @staticmethod
    @cache
    def deriv(order: int) -> "VarSpace":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        names = tuple(_deriv_name(k) for k in range(order + 1))
        return VarSpace("deriv", 1, order, names, tuple(range(order, -1, -1)))

    @property
    def nvars(self) -> int:
        return len(self.names)

    def sort_key(self, exponents):
        """Ascending graded-lex key for an exponent tuple."""
        return (sum(exponents), tuple(exponents[i] for i in self._prec))

    def state_index(self, i: int) -> int:
        """Storage index of the state variable x_i (1-based)."""
        if self.kind == "state":
            if 1 <= i <= self.n:
                return i - 1
        elif i == 1:
            return 0  # x1 is the order-0 derivative slot
        raise ValueError(f"no state variable x{i} in this {self.kind} space")

    def deriv_index(self, k: int) -> int:
        """Storage index of the k-th derivative of x1."""
        if self.kind == "deriv" and 0 <= k <= self.order:
            return k
        raise ValueError(f"no derivative of order {k} in this {self.kind} space")

    def __eq__(self, other):
        return (
            isinstance(other, VarSpace)
            and self.kind == other.kind
            and self.n == other.n
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.kind, self.n, self.order))

    def __repr__(self):
        return f"VarSpace({self.kind}, vars={self.names})"


# ---------------------------------------------------------------------------
# polynomials


class SparsePoly:
    """Immutable sparse polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("space", "terms", "_sorted")

    def __init__(self, space, qq, terms, _clean=False):
        if qq is not QQ:
            raise ValueError(f"QQ is the only coefficient domain, got {qq!r}")
        self.space = space
        if _clean:
            self.terms = terms
        else:
            clean = {}
            nvars = space.nvars
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent tuple {exps} does not match {nvars} variables"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = QQ.coerce(c)
                if c:
                    s = clean.get(exps, 0) + c
                    if s:
                        clean[exps] = s
                    else:
                        del clean[exps]
            self.terms = clean
        self._sorted = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(space, qq=QQ):
        return SparsePoly(space, qq, {}, _clean=True)

    @staticmethod
    def constant(space, c):
        return SparsePoly(space, QQ, {(0,) * space.nvars: c})

    @staticmethod
    def variable(space, index):
        exps = [0] * space.nvars
        exps[index] = 1
        return SparsePoly(space, QQ, {tuple(exps): QQ.one}, _clean=True)

    @staticmethod
    def monomial(space, exps, c):
        return SparsePoly(space, QQ, {tuple(exps): c})

    # -- basic views ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self, reverse=False):
        """Terms as (exponents, coefficient), ascending graded-lex."""
        if self._sorted is None:
            key = self.space.sort_key
            self._sorted = sorted(self.terms.items(), key=lambda t: key(t[0]))
        return list(reversed(self._sorted)) if reverse else list(self._sorted)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.sorted_terms()[-1]

    def leading_coefficient(self):
        return self.leading_term()[1]

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), QQ.zero)

    def support(self):
        return set(self.terms)

    def max_exponents(self):
        """Componentwise maximum exponent over the support."""
        maxe = [0] * self.space.nvars
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e > maxe[i]:
                    maxe[i] = e
        return tuple(maxe)

    # -- arithmetic ------------------------------------------------------------

    def _check_compatible(self, other):
        if self.space != other.space:
            raise ValueError(
                f"variable-set mismatch: {self.space.names} vs {other.space.names}"
            )

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.space, other)
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            prev = out.get(exps)
            if prev is None:
                out[exps] = c
            else:
                s = prev + c
                if s:
                    out[exps] = s
                else:
                    del out[exps]
        return SparsePoly(self.space, QQ, out, _clean=True)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return SparsePoly(self.space, QQ, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.space, other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return self.scale(other)
        self._check_compatible(other)
        # iterate over the smaller operand outside for fewer dict rebuilds
        a, b = (self.terms, other.terms)
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                prev = out.get(exps)
                if prev is None:
                    out[exps] = ca * cb
                else:
                    s = prev + ca * cb
                    if s:
                        out[exps] = s
                    else:
                        del out[exps]
        return SparsePoly(self.space, QQ, out, _clean=True)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = QQ.coerce(c)
        if not c:
            return SparsePoly.zero(self.space)
        return SparsePoly(self.space, QQ, {e: k * c for e, k in self.terms.items()}, _clean=True)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = SparsePoly.constant(self.space, QQ.one)
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e > 1
            e >>= 1
            if base_needed and e:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            if not self.terms and other == 0:
                return True
            const = self.terms.get((0,) * self.space.nvars)
            return len(self.terms) == 1 and const == QQ.coerce(other)
        return self.space == other.space and self.terms == other.terms

    # -- calculus ------------------------------------------------------------

    def partial_derivative(self, index: int) -> "SparsePoly":
        """Formal partial derivative with respect to the index-th variable."""
        if not 0 <= index < self.space.nvars:
            raise ValueError(f"variable index {index} out of range")
        out = {}
        for exps, c in self.terms.items():
            e = exps[index]
            if e:
                out[exps[:index] + (e - 1,) + exps[index + 1 :]] = c * e
        return SparsePoly(self.space, QQ, out, _clean=True)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point) -> Fraction:
        """Value of the polynomial at a point (one rational per variable).

        Builds a per-variable power table sized by the largest exponent, so
        evaluating a polynomial with many terms costs one multiplication per
        (term, variable) rather than repeated exponentiations.  Values mod
        a prime come from IntegerForm.
        """
        if len(point) != self.space.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, expected {self.space.nvars}"
            )
        tables = []
        for x, m in zip(point, self.max_exponents()):
            x = QQ.coerce(x)
            row = [QQ.one]
            for _ in range(m):
                row.append(row[-1] * x)
            tables.append(row)
        total = QQ.zero
        for exps, c in self.terms.items():
            v = c
            for i, e in enumerate(exps):
                if e:
                    v = v * tables[i][e]
            total = total + v
        return total

    # -- normalization ---------------------------------------------------------

    def normalize_canonical(self) -> "SparsePoly":
        """Scale to coprime integer coefficients with positive leading one.

        This is the canonical representative of the scalar-multiple class:
        multiply by the lcm of the denominators, divide by the gcd of the
        numerators, and flip the sign so the graded-lex leading coefficient
        is positive.  Idempotent.
        """
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        lcm_den = 1
        gcd_num = 0
        for c in self.terms.values():
            lcm_den = lcm_den * c.denominator // math.gcd(lcm_den, c.denominator)
            gcd_num = math.gcd(gcd_num, abs(c.numerator))
        scale = Fraction(lcm_den, gcd_num)
        if self.leading_coefficient() < 0:
            scale = -scale
        return self.scale(scale)

    # -- text -----------------------------------------------------------------

    def render(self) -> str:
        """Human-readable form, e.g. ``x1^2*x2 + 3*x1 - 1/2``."""
        if not self.terms:
            return "0"
        names = self.space.names
        chunks = []

        def varpow(i, e):
            name = names[i]
            if e == 1:
                return name
            if "'" in name or "(" in name:
                return f"({name})^{e}"
            return f"{name}^{e}"

        for exps, c in self.sorted_terms(reverse=True):
            mono = "*".join(varpow(i, e) for i, e in enumerate(exps) if e)
            neg = c < 0
            mag = -c if neg else c
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            chunks.append(("-" if neg else "+", body))
        sign, body = chunks[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"SparsePoly({self.render()!r})"


class IntegerForm:
    """A polynomial as integer numerators over one common denominator.

    Built once from a polynomial over QQ, it evaluates modulo any prime
    that does not divide the denominator: one ``%`` per numerator and one
    inverse of the denominator.  It is the package's only route from a
    polynomial to its values mod p.  The caller keeps it; nothing caches
    it on the polynomial.
    """

    __slots__ = ("nvars", "denominator", "degrees", "terms")

    def __init__(self, f: SparsePoly):
        self.nvars = f.space.nvars
        self.denominator = den = math.lcm(*(c.denominator for c in f.terms.values()))
        self.degrees = f.max_exponents()
        # (numerator, ((variable, exponent), ...)) with the zero exponents left out
        self.terms = tuple(
            (c.numerator * (den // c.denominator), tuple((i, e) for i, e in enumerate(exps) if e))
            for exps, c in f.terms.items()
        )

    def evaluate(self, point, p: int):
        """Value mod p at ``point``: one int per variable, or one int64 array each.

        Arrays evaluate a batch of points at once and need p < 2^23, so
        that products of two residues stay exact.  Raises BadPrimeError
        when p divides the denominator.
        """
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        den = self.denominator % p
        if not den:
            raise BadPrimeError(f"denominator {self.denominator} vanishes mod {p}")
        tables = []
        for x, m in zip(point, self.degrees):
            row, x = [1], x % p
            for _ in range(m):
                row.append(row[-1] * x % p)
            tables.append(row)
        total = 0
        for num, factors in self.terms:
            v = num % p
            for i, e in factors:
                v = v * tables[i][e] % p
            total += v
        return total % p * modinv(den, p) % p


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d+)?)|(?P<var>x\d+)|(?P<quotes>'+)|(?P<op>[-+*^()/=])|(?P<bad>\S)"
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        stripped = line.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(stripped):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", lineno, m.start() + 1)
            tokens.append(_Token(kind, m.group(), lineno, m.start() + 1))
    return tokens


class _ExprParser:
    """Recursive-descent parser for polynomial expressions.

    The grammar accepts integers, decimals, rational literals ``a/b``,
    ``+ - * ^``, parentheses and variables.  In the derivative regime x1
    may carry derivative markers: ``x1'``, ``x1''`` or
    ``x1^(k)``; a power applied to a derivative variable follows the
    marker, as in ``x1^(3)^2``.  In the state regime ``^`` is always an
    exponent and derivative markers are rejected.  Division is permitted
    only between numeric literals.
    """

    def __init__(self, tokens, space):
        self.tokens = tokens
        self.pos = 0
        self.space = space

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or (self.tokens[-1] if self.tokens else None)
        if tok is None:
            raise ParseError(message)
        raise ParseError(message, tok.line, tok.col)

    def expect_op(self, text):
        tok = self.next()
        if tok is None or tok.kind != "op" or tok.text != text:
            self.error(f"expected {text!r}", tok)
        return tok

    # grammar ---------------------------------------------------------------

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            self.error(f"unexpected {tok.text!r}", tok)
        return value

    def expr(self):
        tok = self.peek()
        negate = False
        if tok is not None and tok.kind == "op" and tok.text in "+-":
            self.next()
            negate = tok.text == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                break
            self.next()
            rhs = self.term()
            value = value - rhs if tok.text == "-" else value + rhs
        return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                break
            self.next()
            value = value * self.factor()
        return value

    def factor(self):
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text in "+-":
            self.next()
            inner = self.factor()
            return -inner if tok.text == "-" else inner
        return self.primary()

    def exponent(self):
        """An integer exponent, optionally parenthesized."""
        tok = self.next()
        if tok is not None and tok.kind == "op" and tok.text == "(":
            inner = self.next()
            if inner is None or inner.kind != "num" or "." in inner.text:
                self.error("expected an integer exponent", inner)
            self.expect_op(")")
            return int(inner.text)
        if tok is None or tok.kind != "num" or "." in tok.text:
            self.error("expected an integer exponent", tok)
        return int(tok.text)

    def primary(self):
        tok = self.next()
        if tok is None:
            self.error("unexpected end of expression")
        if tok.kind == "num":
            value = Fraction(tok.text)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op" and nxt.text == "/":
                self.next()
                den_tok = self.next()
                if den_tok is None or den_tok.kind != "num":
                    self.error("expected a number after '/'", den_tok)
                den = Fraction(den_tok.text)
                if den == 0:
                    self.error("zero denominator", den_tok)
                value /= den
            poly = SparsePoly.constant(self.space, value)
            return self.maybe_power(poly)
        if tok.kind == "var":
            return self.maybe_power(self.variable(tok))
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return self.maybe_power(value)
        if tok.kind == "op" and tok.text == "/":
            self.error("division is only allowed between numeric literals", tok)
        self.error(f"unexpected {tok.text!r}", tok)

    def maybe_power(self, value):
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.next()
            e = self.exponent()
            value = value**e
        return value

    def variable(self, tok):
        index = int(tok.text[1:])
        space = self.space
        if index < 1:
            self.error(f"unknown variable {tok.text!r}", tok)
        order = 0
        nxt = self.peek()
        if nxt is not None and nxt.kind == "quotes":
            self.next()
            order = len(nxt.text)
        elif (
            space.kind != "state"
            and nxt is not None
            and nxt.kind == "op"
            and nxt.text == "^"
            and self.pos + 1 < len(self.tokens)
            and self.tokens[self.pos + 1].kind == "op"
            and self.tokens[self.pos + 1].text == "("
        ):
            # x1^(k): parenthesized superscript = derivative marker
            self.next()
            order = self.exponent()
        if order > 0:
            if space.kind == "state":
                self.error("derivatives are not allowed here", nxt)
            if index != 1:
                self.error("only x1 carries derivative markers", tok)
            try:
                slot = space.deriv_index(order)
            except ValueError:
                self.error(f"derivative order {order} exceeds this space", tok)
            return SparsePoly.variable(space, slot)
        try:
            slot = space.state_index(index)
        except ValueError:
            self.error(f"unknown variable {tok.text!r}", tok)
        return SparsePoly.variable(space, slot)


def parse_polynomial(text: str, space: VarSpace) -> SparsePoly:
    """Parse an expression into the given variable space (rational coefficients)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _ExprParser(tokens, space).parse()


def parse_state_poly(text: str, n: int) -> SparsePoly:
    """Parse an expression in the state variables x1 .. xn."""
    return parse_polynomial(text, VarSpace.state(n))


def parse_derivative_poly(text: str, order: int | None = None) -> SparsePoly:
    """Parse an expression in x1 and its derivatives.

    When ``order`` is None the space is inferred from the highest
    derivative marker appearing in the text.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    if order is None:
        order = 0
        for i, tok in enumerate(tokens):
            if tok.kind == "quotes":
                order = max(order, len(tok.text))
            elif (
                tok.kind == "op"
                and tok.text == "^"
                and i > 0
                and tokens[i - 1].kind == "var"
                and i + 2 < len(tokens)
                and tokens[i + 1].kind == "op"
                and tokens[i + 1].text == "("
                and tokens[i + 2].kind == "num"
            ):
                order = max(order, int(tokens[i + 2].text))
    return _ExprParser(tokens, VarSpace.deriv(order)).parse()
