"""Sparse polynomials: arithmetic, ordering, parsing and rendering."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import residue
from odelim.errors import BadPrimeError, ParseError
from odelim.poly import (
    QQ,
    IntegerForm,
    SparsePoly,
    VarSpace,
    parse_derivative_poly,
    parse_polynomial,
    parse_state_poly,
)

S2 = VarSpace.state(2)
D2 = VarSpace.deriv(2)


def rand_poly(space, rng, max_terms=6, max_exp=3):
    p = SparsePoly.zero(space, QQ)
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(max_exp + 1) for _ in range(space.nvars))
        c = QQ.coerce(rng.randint(-20, 20))
        p = p + SparsePoly.monomial(space, exps, c)
    return p


# --- arithmetic ---------------------------------------------------------


def test_add_cancellation_and_identity():
    x1 = parse_state_poly("x1 + 1", 2)
    neg = parse_state_poly("-x1", 2)
    assert (x1 + neg) == parse_state_poly("1", 2)
    zero = SparsePoly.zero(S2, QQ)
    assert x1 + zero == x1


def test_mul_difference_of_squares():
    assert parse_state_poly("(x1 + x2)*(x1 - x2)", 2) == parse_state_poly(
        "x1^2 - x2^2", 2
    )


def test_mul_identity():
    f = parse_state_poly("3*x1^2*x2 - 7", 2)
    one = SparsePoly.constant(S2, Fraction(1))
    assert f * one == f


def test_mul_degree_additivity():
    rng = random.Random(11)
    for _ in range(100):
        f = rand_poly(S2, rng)
        g = rand_poly(S2, rng)
        if f.is_zero or g.is_zero:
            continue
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()


def test_eval_oracle_for_add_and_mul():
    rng = random.Random(12)
    for _ in range(20):
        f = rand_poly(S2, rng)
        g = rand_poly(S2, rng)
        pt = [rng.randrange(1009) for _ in range(2)]
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def test_ring_laws_by_evaluation():
    rng = random.Random(13)
    for _ in range(30):
        f, g, h = (rand_poly(S2, rng) for _ in range(3))
        pt = [rng.randrange(2003) for _ in range(2)]
        lhs = ((f * g) * h).evaluate(pt)
        rhs = (f * (g * h)).evaluate(pt)
        assert lhs == rhs
        assert (f * (g + h)).evaluate(pt) == (f * g + f * h).evaluate(pt)
        assert (f * g).evaluate(pt) == (g * f).evaluate(pt)


def test_variable_set_mismatch():
    f = parse_state_poly("x1", 2)
    g = parse_state_poly("x1", 3)
    with pytest.raises(ValueError):
        _ = f + g
    with pytest.raises(ValueError):
        _ = f * g


def test_qq_is_the_only_coefficient_domain():
    assert SparsePoly(S2, QQ, {(1, 0): 2}) == parse_state_poly("2*x1", 2)
    for other in (None, 97, "QQ"):
        with pytest.raises(ValueError):
            SparsePoly(S2, other, {(1, 0): 2})
        with pytest.raises(ValueError):
            SparsePoly.zero(S2, other)


def test_partial_derivative():
    f = parse_state_poly("x1^3", 2)
    assert f.partial_derivative(0) == parse_state_poly("3*x1^2", 2)
    g = parse_state_poly("x2", 2)
    assert g.partial_derivative(0).is_zero


def test_leibniz_rule():
    rng = random.Random(14)
    for _ in range(100):
        f = rand_poly(S2, rng)
        g = rand_poly(S2, rng)
        lhs = (f * g).partial_derivative(1)
        rhs = f * g.partial_derivative(1) + g * f.partial_derivative(1)
        assert lhs == rhs


def test_evaluate_examples():
    f = parse_state_poly("x1^2 + x2", 2)
    assert f.evaluate([Fraction(2), Fraction(3)]) == 7
    c = SparsePoly.constant(S2, Fraction(5, 3))
    assert c.evaluate([Fraction(9), Fraction(-1)]) == Fraction(5, 3)


def test_evaluate_matches_naive():
    rng = random.Random(15)
    for _ in range(100):
        f = rand_poly(S2, rng)
        pt = [Fraction(rng.randint(-5, 5)) for _ in range(2)]
        naive = sum(
            (c * pt[0] ** e[0] * pt[1] ** e[1] for e, c in f.terms.items()),
            Fraction(0),
        )
        assert f.evaluate(pt) == naive


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        parse_state_poly("x1", 2).evaluate([Fraction(1)])


# --- canonical form and ordering ---------------------------------------


def test_normalize_scaling():
    f = parse_derivative_poly("1/2*x1'' + 1/2*x1")
    assert f.normalize_canonical() == parse_derivative_poly("x1'' + x1")


def test_normalize_sign_and_content():
    f = parse_state_poly("-3*x1", 2)
    assert f.normalize_canonical() == parse_state_poly("x1", 2)


def test_normalize_idempotent():
    rng = random.Random(16)
    for _ in range(100):
        f = rand_poly(D2, rng)
        if f.is_zero:
            continue
        once = f.normalize_canonical()
        assert once.normalize_canonical() == once


@given(
    num=st.integers(min_value=-40, max_value=40).filter(lambda v: v != 0),
    den=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_normalize_scale_invariance(num, den):
    f = parse_derivative_poly("2*x1''^2 - 6*x1'*x1 + 4")
    scaled = f * Fraction(num, den)
    assert scaled.normalize_canonical() == f.normalize_canonical()


def test_normalize_zero_rejected():
    with pytest.raises(ValueError):
        SparsePoly.zero(D2, QQ).normalize_canonical()


def test_graded_lex_order():
    # degree first, then precedence x1'' > x1' > x1 in the derivative regime
    f = parse_derivative_poly("x1 + x1'' + x1'*x1")
    monomials = [e for e, _ in f.sorted_terms()]
    degrees = [sum(e) for e in monomials]
    assert degrees == sorted(degrees)
    lead = f.leading_term()[0]
    assert lead == (1, 1, 0)  # x1*x1' beats x1'' by degree


def test_equality_is_term_map_equality():
    a = parse_state_poly("x1 + x2 + x1", 2)
    b = parse_state_poly("2*x1 + x2", 2)
    assert a == b
    assert hash_key(a) == hash_key(b)


def hash_key(p):
    return tuple(p.sorted_terms())


# --- parsing and rendering ----------------------------------------------


def test_parse_decimals_exact():
    f = parse_state_poly("0.456*x1", 1)
    assert f.coefficient((1,)) == Fraction(57, 125)
    g = parse_state_poly("0.0357", 1)
    assert g.coefficient((0,)) == Fraction(357, 10000)


def test_parse_rational_literals():
    f = parse_state_poly("3/4*x1^2 - 1/2", 2)
    assert f.coefficient((2, 0)) == Fraction(3, 4)
    assert f.coefficient((0, 0)) == Fraction(-1, 2)


def test_parse_derivative_markers():
    f = parse_derivative_poly("x1'' + 2*x1' - x1")
    assert f.space.order == 2
    assert f.coefficient((0, 0, 1)) == 1
    assert f.coefficient((0, 1, 0)) == 2
    assert f.coefficient((1, 0, 0)) == -1


def test_parse_high_order_marker():
    f = parse_derivative_poly("x1^(3) - x1")
    assert f.space.order == 3
    assert f.coefficient((0, 0, 0, 1)) == 1


def test_parse_power_of_derivative():
    f = parse_derivative_poly("x1''^2 - 4*x1^2*x1'")
    assert f.coefficient((0, 0, 2)) == 1
    assert f.coefficient((2, 1, 0)) == -4


def test_state_regime_rejects_derivatives():
    with pytest.raises(ParseError):
        parse_state_poly("x1'", 2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_state_poly("x1 + @", 2)
    assert err.value.line == 1
    assert err.value.column == 6


def test_division_only_between_literals():
    with pytest.raises(ParseError):
        parse_state_poly("x1/x2", 2)
    with pytest.raises(ParseError):
        parse_state_poly("1/x2", 2)


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_state_poly("x3", 2)


def test_render_style():
    f = parse_state_poly("x1^2*x2 + 3*x1 - 1/2", 2)
    assert f.render() == "x1^2*x2 + 3*x1 - 1/2"


def test_render_parenthesizes_powered_derivatives():
    f = parse_derivative_poly("x1''^2 + x1^(3)^2")
    text = f.render()
    assert "(x1'')^2" in text
    assert "(x1^(3))^2" in text


def test_round_trip_random():
    rng = random.Random(18)
    for space in (S2, VarSpace.state(3), D2, VarSpace.deriv(4)):
        for _ in range(50):
            f = rand_poly(space, rng)
            if f.is_zero:
                continue
            text = f.render()
            back = parse_polynomial(text, space)
            assert back == f, text


# --- spaces and integer forms ------------------------------------------------


def test_var_spaces_are_shared_per_argument():
    assert VarSpace.deriv(3) is VarSpace.deriv(3)
    assert VarSpace.state(2) is VarSpace.state(2)
    assert VarSpace.deriv(3) is not VarSpace.deriv(2)
    with pytest.raises(ValueError):
        VarSpace.deriv(-1)


def _rational_poly(space, rng):
    f = rand_poly(space, rng)
    return SparsePoly(space, QQ, {e: c / rng.randint(1, 60) for e, c in f.terms.items()})


def test_integer_form_agrees_with_the_gf_p_copy():
    # the value of f's GF(p) image is f's rational value reduced mod p
    rng = random.Random(31)
    big, small = 1099511627689, 8388593  # a 40-bit prime, the largest prime below 2^23
    for _ in range(300):
        space = rng.choice((S2, D2, VarSpace.state(3)))
        f = _rational_poly(space, rng)
        form = IntegerForm(f)
        point = [rng.randrange(-(1 << 45), 1 << 45) for _ in range(space.nvars)]
        assert form.evaluate(point, big) == residue(f.evaluate(point), big)
        batch = list(np.array(
            [[rng.randrange(-5000, 5000) for _ in range(7)] for _ in range(space.nvars)],
            dtype=np.int64,
        ))
        got = np.broadcast_to(form.evaluate(batch, small), (7,))
        assert list(got) == [residue(f.evaluate([int(x) for x in col]), small) for col in zip(*batch)]


def test_integer_form_refuses_a_prime_dividing_a_denominator():
    f = parse_polynomial("1/7*x1^2 + 3/2*x2", S2)
    assert IntegerForm(f).denominator == 14
    with pytest.raises(BadPrimeError):
        IntegerForm(f).evaluate([1, 2], 7)
    with pytest.raises(BadPrimeError):
        IntegerForm(f).evaluate([np.arange(3), np.arange(3)], 7)
    assert IntegerForm(f).evaluate([1, 2], 5) == residue(f.evaluate([1, 2]), 5)
