"""Membership checks and the certified driver."""

import itertools
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odelim.verify as verify_mod
from odelim import ode
from odelim.arith import fork_rng, is_prime, random_prime
from _gen import dense_system, sparse_system
from odelim.errors import BudgetExceededError, VerificationError
from odelim.interp import SampleConfig, Verification, eliminate, eliminate_mod_p
from odelim.ode import OdeSystem, parse_system
from odelim.poly import QQ, SparsePoly, VarSpace, parse_derivative_poly
from odelim.support import bound_inequalities, enumerate_lattice
from odelim.verify import certified_eliminate, check_exact, check_probabilistic

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")
HARMONIC = parse_system("x1' = x2\nx2' = -x1")
SQUARED = parse_system("x1' = x2^2\nx2' = x1")
QUAD43 = parse_system("x1' = x1^2 + x1*x2 + x2^2 + 1\nx2' = x2")

# frozen from an independent symbolic-resultant computation: eliminating x2
# from {x1' - g1, x1'' - L(g1)} gives an irreducible polynomial that vanishes
# under substitution, hence the minimal polynomial up to scaling
FIXTURE_A = parse_system("x1' = x1^2 + x2^2\nx2' = x2 + 1")
FIXTURE_A_FMIN = (
    "4*x1^4 - 8*x1^3*x1' + 4*x1^2*x1'^2 - 8*x1^2*x1' + 4*x1^2*x1'' + 4*x1^2 "
    "+ 8*x1*x1'^2 - 4*x1*x1'*x1'' + 4*x1'^2 - 4*x1'*x1'' - 4*x1' + x1''^2"
)
FIXTURE_B = parse_system("x1' = x2^2 + x1*x2\nx2' = x2")
FIXTURE_B_FMIN = (
    "-x1^2*x1' + x1^2*x1'' - x1*x1'*x1'' + x1'^3 - 4*x1'^2 + 4*x1'*x1'' - x1''^2"
)


def test_check_probabilistic_skips_primes_dividing_a_denominator():
    # 16-bit trial primes often divide D, the product of the 60 largest
    # 16-bit primes; such a trial is not executed and not counted
    D = math.prod([q for q in range(65535, 60000, -2) if is_prime(q)][:60])
    sys_ = parse_system(f"x1' = 1/{D}*x2\nx2' = -x1")
    F = parse_derivative_poly(f"{D}*x1'' + x1")
    reports = [check_probabilistic(sys_, F, prime_bits=16, seed=seed) for seed in range(10)]
    assert all(rep.outcome for rep in reports)
    assert any(rep.trials < 16 for rep in reports)


def test_check_probabilistic_skips_a_prime_dividing_a_denominator_no_iterate_has():
    # L(x1) = x1 never meets D, yet a trial at a prime dividing D stays
    # skipped, as it was when each trial reduced the whole system mod p
    D = math.prod([q for q in range(65535, 60000, -2) if is_prime(q)][:60])
    sys_ = parse_system(f"x1' = x1\nx2' = 1/{D}*x2")
    F = parse_derivative_poly("x1' - x1")
    trials = [check_probabilistic(sys_, F, prime_bits=16, seed=seed).trials for seed in range(6)]
    assert trials == [16, 15, 16, 16, 16, 16]


def test_lie_iterates_built_once_per_run_whatever_the_primes_and_trials(monkeypatch):
    calls = []
    derive = ode.lie_derivative
    monkeypatch.setattr(ode, "lie_derivative", lambda *args: calls.append(1) or derive(*args))
    # order_nu's n iterates and the run's nu + 1 share the system's list, so
    # a freshly parsed system takes max(n - 1, nu) derivatives in all (the
    # module-level systems would carry their lists from test to test)
    many = dense_system(3, 2, 1, random.Random(101))
    harmonic = parse_system(HARMONIC.render())
    runs = []
    for sys_, threads in ((many, 2), (harmonic, 1)):
        calls.clear()
        res = eliminate(sys_, SampleConfig(seed=101, threads=threads))
        assert len(calls) == max(sys_.n - 1, res.nu)
        runs.append(len(res.primes_used))
    assert runs[0] >= 5 * runs[1]
    F = parse_derivative_poly("x1'' + x1")
    counts = []
    for sys_ in (harmonic, parse_system(HARMONIC.render())):
        for trials in (1, 16):
            calls.clear()
            assert check_probabilistic(sys_, F, trials=trials).trials == trials
            counts.append(len(calls))
    # a check on an eliminated system takes none; on a fresh one, its nu
    # derivatives once, whatever the trials
    assert counts == [0, 0, 2, 0]


def test_lie_iterates_built_once_per_run_through_the_pool(pool_for_every_support, monkeypatch):
    # the (many, 2) run's 261-column support is narrow, so it runs inline;
    # again with its CRT-phase solves in the pool
    test_lie_iterates_built_once_per_run_whatever_the_primes_and_trials(monkeypatch)


def test_check_probabilistic_scans_for_a_prime_once_per_range(monkeypatch):
    # whether a prime exceeds the order depends only on (lo, prime_bits)
    verify_mod._prime_in.cache_clear()
    scanned = []
    monkeypatch.setattr(verify_mod, "is_prime", lambda q: scanned.append(q) or is_prime(q))
    F = parse_derivative_poly("x1'' + x1")
    records, scans = [], []
    for bits in (40, 40, 20, 40):
        records.append(check_probabilistic(HARMONIC, F, prime_bits=bits))
        scans.append(sorted(set(scanned)))
    assert records[0] == records[1] == records[3] != records[2]
    assert scans[0] == scans[1] and scans[2] == scans[3]
    assert scans[0][0] == 1 << 39 and scans[2][0] == 1 << 19 and len(scanned) == len(scans[3])
    cube = parse_system("x1' = x2\nx2' = x3\nx3' = -x2")
    for _ in range(2):
        with pytest.raises(ValueError, match="no 2-bit prime exceeds the order 3"):
            check_probabilistic(cube, parse_derivative_poly("x1''' + x1'"), prime_bits=2)


def test_check_exact_accepts_the_true_relation():
    rep = check_exact(HARMONIC, parse_derivative_poly("x1'' + x1"))
    assert rep == Verification("exact", 0, Fraction(0), True)


def test_check_exact_rejects_a_non_relation():
    rep = check_exact(HARMONIC, parse_derivative_poly("x1'' - x1"))
    assert rep.kind == "exact"
    assert rep.failure_bound == 0
    assert not rep.outcome


def test_check_exact_budget_is_a_hard_error():
    sys_ = parse_system("x1' = x1^2 + x2^2\nx2' = x1*x2 + 1")
    f = parse_derivative_poly("x1''^3*x1'^3*x1^2 + 1")
    with pytest.raises(BudgetExceededError):
        check_exact(sys_, f, max_terms=5)


def test_check_probabilistic_bound_is_explicit():
    rep = check_probabilistic(HARMONIC, parse_derivative_poly("x1'' + x1"), trials=10)
    assert rep.kind == "probabilistic"
    assert rep.trials == 10
    assert 0 < rep.failure_bound < 1
    assert rep.outcome


def test_check_probabilistic_counts_only_executed_trials():
    # the first trial's prime divides the denominator of F, so it is skipped
    p0 = random_prime(40, fork_rng(0, "verify"))
    F = parse_derivative_poly("x1'' + x1").scale(Fraction(1, p0))
    rep = check_probabilistic(HARMONIC, F, trials=4, seed=0)
    assert rep.outcome
    assert rep.trials == 3
    # degree cap 1 and primes of at least 2^39 in each executed trial
    assert 0 < rep.failure_bound <= Fraction(3, 1 << 39)


def test_check_probabilistic_without_trials_bounds_nothing():
    # a non-member that no trial examined passes with failure bound 1, not 0
    non_member = parse_derivative_poly("x1'' - x1")
    rep = check_probabilistic(HARMONIC, non_member, trials=0)
    assert (rep.trials, rep.failure_bound, rep.outcome) == (0, 1, True)
    # the same when the only trial's prime divides a denominator of F
    p0 = random_prime(40, fork_rng(0, "verify"))
    rep = check_probabilistic(HARMONIC, non_member.scale(Fraction(1, p0)), trials=1, seed=0)
    assert (rep.trials, rep.failure_bound, rep.outcome) == (0, 1, True)
    # the zero polynomial is a member whatever ran
    z = SparsePoly.zero(VarSpace.deriv(2), QQ)
    assert check_probabilistic(HARMONIC, z, trials=0).failure_bound == 0


def test_check_probabilistic_catches_non_members():
    rep = check_probabilistic(HARMONIC, parse_derivative_poly("x1'' - x1"), trials=10)
    assert not rep.outcome


def test_check_probabilistic_refuses_prime_bits_without_a_prime_above_the_order():
    # the 2-bit primes are 2 and 3, and neither exceeds the order 3
    F = parse_derivative_poly("x1''' + x1'")
    cube = parse_system("x1' = x2\nx2' = x3\nx3' = -x2")
    with pytest.raises(ValueError, match="no 2-bit prime exceeds the order 3"):
        check_probabilistic(cube, F, prime_bits=2)
    assert check_probabilistic(cube, F, prime_bits=3).outcome


def test_check_probabilistic_zero_polynomial():
    z = SparsePoly.zero(VarSpace.deriv(2), QQ)
    rep = check_probabilistic(HARMONIC, z, trials=4)
    assert rep.outcome and rep.failure_bound == 0


def test_cross_mode_agreement():
    # the probabilistic check never rejects anything the exact check accepts
    rng = random.Random(41)
    space = VarSpace.deriv(2)
    fmin = parse_derivative_poly("x1'' + x1")
    for i in range(20):
        cof = SparsePoly.zero(space, QQ)
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randrange(2) for _ in range(3))
            cof = cof + SparsePoly.monomial(space, exps, QQ.coerce(rng.randint(-5, 5)))
        F = fmin * cof if i % 2 == 0 else cof
        exact = check_exact(HARMONIC, F)
        prob = check_probabilistic(HARMONIC, F, trials=8, seed=i)
        if exact.outcome:
            assert prob.outcome


def test_certified_harmonic_single_round():
    res = certified_eliminate(HARMONIC)
    assert res.f_min == parse_derivative_poly("x1'' + x1")
    assert res.verified.kind == "exact"
    assert res.verified.failure_bound == 0


def test_certified_scalar_square():
    res = certified_eliminate(parse_system("x1' = x1^2"))
    assert res.f_min == parse_derivative_poly("x1^2 - x1'")
    assert res.verified.kind == "exact"


def test_certified_matches_plain_eliminate():
    for sys_ in (HARMONIC, SQUARED, QUAD43):
        cfg = SampleConfig(seed=9)
        plain = eliminate(sys_, cfg)
        cert = certified_eliminate(sys_, cfg)
        assert cert.f_min == plain.f_min
        assert cert.nu == plain.nu


def test_certified_iteration_cap_carries_candidate(monkeypatch):
    calls = []

    def always_fail(sys_, F):
        calls.append(F)
        return Verification("exact", 0, Fraction(0), False)

    monkeypatch.setattr(verify_mod, "check_exact", always_fail)
    with pytest.raises(VerificationError) as err:
        verify_mod.certified_eliminate(HARMONIC, max_rounds=3)
    assert len(calls) == 3
    assert err.value.candidate == parse_derivative_poly("x1'' + x1")


def test_certified_stops_doubling_at_the_prime_size(monkeypatch):
    # with 16-bit primes the radius may grow to 30288 (2 * 30288 < 2^16);
    # one more doubling would make eliminate reject the configuration
    radii = []

    def recording_eliminate(sys_, config):
        radii.append(config.radius)
        return eliminate(sys_, config)

    monkeypatch.setattr(verify_mod, "eliminate", recording_eliminate)
    monkeypatch.setattr(verify_mod, "check_exact", lambda sys_, F: Verification("exact", 0, Fraction(0), False))
    with pytest.raises(VerificationError) as err:
        verify_mod.certified_eliminate(HARMONIC, SampleConfig(prime_bits=16))
    assert radii == [1893, 3786, 7572, 15144, 30288]
    assert err.value.candidate == parse_derivative_poly("x1'' + x1")


def test_fixture_a_full_polynomial():
    want = parse_derivative_poly(FIXTURE_A_FMIN).normalize_canonical()
    res = certified_eliminate(FIXTURE_A)
    assert res.f_min == want
    support = res.f_min.support()
    assert (4, 0, 0) in support       # x1^4
    assert (0, 0, 2) in support       # (x1'')^2
    assert (2, 2, 0) in support       # x1^2 (x1')^2


def test_fixture_b_full_polynomial():
    want = parse_derivative_poly(FIXTURE_B_FMIN).normalize_canonical()
    res = certified_eliminate(FIXTURE_B)
    assert res.f_min == want
    assert (0, 3, 0) in res.f_min.support()   # (x1')^3


def test_probabilistic_on_random_systems():
    rng = random.Random(42)
    for _ in range(5):
        n = rng.randint(1, 3)
        sys_ = sparse_system(n, rng.randint(1, 2), rng.randint(1, 2) if n > 1 else 1, rng)
        res = eliminate(sys_, SampleConfig(seed=rng.randrange(100)))
        rep = check_probabilistic(sys_, res.f_min, trials=6, seed=1)
        assert rep.outcome
        assert rep.failure_bound < Fraction(1, 1000)


@st.composite
def small_systems(draw):
    """Sparse systems with n <= 3, deg g1 = d and deg gi = D, d, D <= 2."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    D = draw(st.integers(1, 2))
    space = VarSpace.state(n)
    coeff = st.sampled_from([-5, -3, -2, -1, 1, 2, 3, 4])
    gs = []
    for i in range(n):
        deg = d if i == 0 else D
        monos = [e for e in itertools.product(range(deg + 1), repeat=n) if sum(e) <= deg]
        top = draw(st.sampled_from([e for e in monos if sum(e) == deg]))
        rest = draw(st.lists(st.sampled_from(monos), max_size=2, unique=True))
        gs.append(SparsePoly(space, QQ, {e: draw(coeff) for e in {top, *rest}}))
    return OdeSystem(gs)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(small_systems())
def test_eliminate_is_exact_and_minimal_on_random_systems(sys_):
    config = SampleConfig(seed=3)
    res = eliminate(sys_, config)
    assert check_exact(sys_, res.f_min).outcome
    if res.nu > 1:
        # no relation of order nu - 1: the kernel on its bound is empty
        S = enumerate_lattice(bound_inequalities(sys_.d, sys_.D, res.nu - 1))
        p = random_prime(config.prime_bits, fork_rng(config.seed, "lower-order"))
        assert eliminate_mod_p(sys_, p, S, config) is None


# sum of 1/p over the 16 trial primes at seeds 0-2, which every system
# below meets (no 40-bit prime divides its denominators)
INVERSE_PRIME_SUMS = {
    0: Fraction(
        "970236088987236352489833270975878153882836815800638071882676468890426544"
        "799169227725684868131175383821116097302615090738152275281494764222736517"
        "851817975446863957131690261249943000/48748201879791139096820646168661921"
        "968513325411527449634975112055495373509626510473841298847515124368258973"
        "222249461908279164269564965642992442138219749497605507750553250511070601"
        "467657723149"
    ),
    1: Fraction(
        "477237604137859275499223127449695112012363865767769827554372066408936321"
        "707974210317790285689185336766895353471660770926920663683023396237393384"
        "1689085387399491993965840941779560666/2729769828467692265186512171186334"
        "668099911963034172792721949637073193645241015879505330060662417055802309"
        "833242805123161801806043313007744599555791674739725809838738728584279593"
        "52349937501699"
    ),
    2: Fraction(
        "820360655234410384252824018116643421034556902478309250274222763644952576"
        "932052814828080345641375494320185162949162593111507469957224736294089936"
        "505237546647965134809773840940982876/41279824584553826744613088798031257"
        "691724827392677542441456497474439908260129437210130978414707556846011743"
        "994527665689302779636421250199496723824635011614394516533948955242370239"
        "353281125373"
    ),
}
QUADRATIC_FMIN = (
    "3*x1^2*(x1')^2 - 6*x1^3*x1' + 3*x1^4 - 3*x1*x1'*x1'' + 3*x1^2*x1'' - (x1')^3 "
    "+ 8*x1*(x1')^2 - 7*x1^2*x1' + (x1'')^2 - 4*x1'*x1'' + 5*(x1')^2 - 8*x1*x1' "
    "+ 7*x1^2 + 4*x1'' - 8*x1' + 4"
)


def test_check_probabilistic_records_are_pinned():
    # the records of the earlier GF(p)-polynomial implementation, to the exact bound
    def model(name):
        with open(os.path.join(MODELS, name + ".ode")) as fh:
            return parse_system(fh.read())

    members = (  # system, F, degree cap = deg F * the largest degree of an iterate
        (model("harmonic"), "x1'' + x1", 1),
        (model("squared_velocity"), "4*x1^2*x1' - (x1'')^2", 6),
        (model("quadratic"), QUADRATIC_FMIN, 12),
        (parse_system("x1' = 2/3*x2\nx2' = -3/4*x1"), "x1'' + 1/2*x1", 1),
    )
    for seed, sum_inverse in INVERSE_PRIME_SUMS.items():
        for sys_, text, cap in members:
            rep = check_probabilistic(sys_, parse_derivative_poly(text), seed=seed)
            assert rep == Verification("probabilistic", 16, cap * sum_inverse, True)
    # a non-member fails its first trial
    first_primes = (565752525913, 776847719789, 1005677741561)
    for seed, p in enumerate(first_primes):
        rep = check_probabilistic(model("quadratic"), parse_derivative_poly("x1'' - x1"), seed=seed)
        assert rep == Verification("probabilistic", 1, Fraction(3, p), False)


def test_check_probabilistic_refuses_bad_arguments_before_any_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("work before the argument checks")

    F = parse_derivative_poly("x1'' + x1")
    assert check_probabilistic(HARMONIC, F, trials=0) == Verification("probabilistic", 0, Fraction(1), True)
    for name in ("lie_iterates", "is_prime", "random_prime"):
        monkeypatch.setattr(verify_mod, name, forbidden)
    for trials in (-1, -3):
        with pytest.raises(ValueError, match="trials"):
            check_probabilistic(HARMONIC, F, trials=trials)
    for bits in (-1, 0, 1, 63, 70):
        with pytest.raises(ValueError, match="prime_bits"):
            check_probabilistic(HARMONIC, F, prime_bits=bits)

