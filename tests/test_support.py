"""Support bounds: inequality families, lattice enumeration, hull counts."""

import itertools

import pytest

from odelim.support import (
    LatticeSet,
    SupportBound,
    bound_inequalities,
    count_lattice,
    enumerate_lattice,
    general_bound_inequality,
    hull_lattice_count,
    scalar_bound,
)


def ineq_set(bound):
    return {(tuple(c), b) for c, b in bound.inequalities}


# --- the two closed-form bound families -----------------------------------


def test_small_degree_single_inequality():
    b = bound_inequalities(2, 2, 3)
    assert ineq_set(b) == {((1, 2, 3, 4), 24)}


def test_quadratic_linear_pair():
    b = bound_inequalities(2, 1, 2)
    assert ineq_set(b) == {
        ((1, 1, 2), 4),
        ((1, 2, 3), 6),
    }


def test_planar_pair_general_form():
    for d in (2, 3, 5):
        for D in range(1, d):
            b = bound_inequalities(d, D, 2)
            assert ineq_set(b) == {
                ((1, d, 2 * d - 1), d * (2 * d - 1)),
                ((1, D, d + D - 1), d * (d + D - 1)),
            }


def test_degree_validation():
    for bad in ((0, 1, 2), (1, 0, 2), (1, 1, 0)):
        with pytest.raises(ValueError):
            bound_inequalities(*bad)


def test_scalar_bound():
    b = scalar_bound(3)
    assert b.nu == 1
    assert ineq_set(b) == {((1, 3), 3)}
    pts = set(enumerate_lattice(b))
    assert pts == {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)}


# --- the weighted generalization ------------------------------------------


def test_general_recovers_small_degree_family():
    for d, D, nu in ((1, 2, 3), (2, 2, 2), (2, 3, 3), (3, 3, 4)):
        omega = [d + (i - 1) * (D - 1) for i in range(1, nu + 1)]
        got = general_bound_inequality(d, D, nu, omega)
        assert ineq_set(got) == ineq_set(bound_inequalities(d, D, nu))


def test_general_recovers_large_degree_family():
    for d, D, nu in ((3, 1, 2), (3, 2, 3), (4, 2, 3), (5, 1, 4)):
        expected = bound_inequalities(d, D, nu).inequalities
        for ell in range(nu):
            omega = [
                i * (D - 1) + 1 if i <= ell else (i - ell) * (d - 1) + ell * (D - 1) + 1
                for i in range(1, nu + 1)
            ]
            (got,) = general_bound_inequality(d, D, nu, omega).inequalities
            want = expected[ell]
            assert (tuple(got[0]), got[1]) == (tuple(want[0]), want[1])


def test_general_zero_weights():
    d, D, nu = 3, 2, 3
    ((c, b),) = general_bound_inequality(d, D, nu, [0, 0, 0]).inequalities
    assert tuple(c) == (1, 0, 0, 0)
    expected = 1
    for k in range(1, nu + 1):
        expected *= d + (k - 1) * (D - 1)
    assert b == expected


def test_general_omega_length_checked():
    with pytest.raises(ValueError):
        general_bound_inequality(2, 2, 3, [1, 2])


# --- enumeration and counting ---------------------------------------------


def test_enumerate_tiny():
    b = SupportBound(1, [((1, 1), 1)])
    assert list(enumerate_lattice(b)) == [(0, 0), (1, 0), (0, 1)]


def test_enumerate_table_rows():
    assert len(enumerate_lattice(bound_inequalities(2, 1, 2))) == 19
    assert len(enumerate_lattice(bound_inequalities(2, 2, 3))) == 1292


def test_count_examples():
    assert count_lattice(bound_inequalities(2, 1, 3)) == 271
    assert count_lattice(bound_inequalities(3, 1, 3)) == 9520
    assert count_lattice(bound_inequalities(1, 2, 4)) == 8189


def test_count_equals_enumeration_length():
    for d, D, nu in ((1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 2, 3), (1, 3, 3)):
        b = bound_inequalities(d, D, nu)
        assert count_lattice(b) == len(enumerate_lattice(b))


def test_count_monotone_in_parameters():
    grid = [(d, D, nu) for d in (1, 2, 3) for D in (1, 2, 3) for nu in (1, 2, 3)]
    counts = {key: count_lattice(bound_inequalities(*key)) for key in grid}
    for (d, D, nu), c in counts.items():
        for delta in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            bigger = (d + delta[0], D + delta[1], nu + delta[2])
            if bigger in counts:
                assert counts[bigger] >= c


def test_every_point_satisfies_and_boundary_is_tight():
    b = bound_inequalities(2, 1, 2)
    pts = enumerate_lattice(b)
    as_set = set(pts)
    for e in pts:
        assert b.satisfies(e)
    # each maximal point has some unit-step neighbor outside the bound
    for e in pts:
        neighbors = [
            tuple(v + (1 if i == j else 0) for j, v in enumerate(e))
            for i in range(len(e))
        ]
        if all(nb not in as_set for nb in neighbors):
            assert all(not b.satisfies(nb) for nb in neighbors)


def test_lattice_set_behaviour():
    b = bound_inequalities(2, 1, 2)
    pts = enumerate_lattice(b)
    assert isinstance(pts, LatticeSet)
    assert len(pts) == 19
    assert (0, 0, 0) in pts
    assert (99, 0, 0) not in pts
    ordered = list(pts)
    degrees = [sum(e) for e in ordered]
    assert degrees == sorted(degrees)
    assert len(set(ordered)) == len(ordered)


def test_render_and_inequalities():
    b = bound_inequalities(2, 1, 2)
    text = b.render()
    assert "e0 + e1 + 2*e2 <= 4" in text
    assert "e0 + 2*e1 + 3*e2 <= 6" in text
    assert sorted(b.inequalities) == [((1, 1, 2), 4), ((1, 2, 3), 6)]


# --- Newton-polytope lattice counting --------------------------------------


def test_hull_count_square():
    corners = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert hull_lattice_count(corners) == 9


def test_hull_count_triangle():
    assert hull_lattice_count([(0, 0), (2, 0), (0, 2)]) == 6


def test_hull_count_point_and_segment():
    assert hull_lattice_count([(3, 4)]) == 1
    assert hull_lattice_count([(0, 0, 0), (2, 2, 2)]) == 3


def test_hull_count_brute_force_oracle():
    # compare against rational convex-combination membership by brute force
    from fractions import Fraction

    pts = [(0, 0), (3, 1), (1, 3), (2, 2)]
    count = hull_lattice_count(pts)
    brute = 0
    for q in itertools.product(range(4), repeat=2):
        # q in hull iff LP feasible; tiny case: scan barycentric grids
        found = False
        steps = 12
        for a in range(steps + 1):
            for b in range(steps + 1 - a):
                for c in range(steps + 1 - a - b):
                    d = steps - a - b - c
                    x = Fraction(
                        a * pts[0][0] + b * pts[1][0] + c * pts[2][0] + d * pts[3][0],
                        steps,
                    )
                    y = Fraction(
                        a * pts[0][1] + b * pts[1][1] + c * pts[2][1] + d * pts[3][1],
                        steps,
                    )
                    if (x, y) == q:
                        found = True
        brute += found
    assert count == brute
