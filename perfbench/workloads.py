"""Seeded model generators and the definition of each benchmark workload.

A workload is a fixed list of models (as model text) plus the library
call that solves one model.  The generators mirror the random systems of
the test suite but are the benchmark's own, so the suite can change its
fixtures without moving the benchmark.  The same seed always gives the
same models and the same per-model sampling seeds.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

from odelim.ode import OdeSystem
from odelim.poly import QQ, SparsePoly, VarSpace

SHIPPED_FAST_MODELS = ("harmonic.ode", "squared_velocity.ode", "quadratic.ode")
SMALL_MIX_SHAPES = tuple((n, d, D) for n in (2, 3) for d in (1, 2) for D in (1, 2))
SMALL_MIX_PER_SHAPE = 3


@dataclass(frozen=True)
class Model:
    name: str
    shape: tuple | None  # (n, d, D) of a generated system, None for a shipped model
    text: str
    seed: int  # SampleConfig seed of the timed solves


@dataclass(frozen=True)
class Workload:
    """How each model is solved, and what its f_min must look like.

    mode "probabilistic" runs eliminate then check_probabilistic; mode
    "certified" runs certified_eliminate, which exact-checks the result.
    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    mode: str
    threads: int
    expect_nu: int | None = None
    expect_terms: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small_mix", "probabilistic", threads=1),
        Workload("certify_21", "certified", threads=2, expect_nu=3, expect_terms=261),
        Workload("dense_22", "probabilistic", threads=1, expect_nu=3, expect_terms=1292),
    )
}

# The systems of every workload are fixed: they come from the workload's
# generator at SYSTEM_SEED, and the benchmark seed drives each model's
# sampling (points, primes, probes).  Random systems per seed spread far
# too widely to measure against: on small_mix one sparse (3,2,2) system
# takes 0.02 s to 3.4 s, and a pass over seeds 1-4 took 3.9 s to 7.9 s;
# on dense_22 the coefficient height falls on either side of a prime
# boundary (7 or 8 primes, about 12 s or 15 s).
SYSTEM_SEED = 0


def _poly(space, terms: dict) -> SparsePoly:
    return SparsePoly(space, QQ, {e: QQ.coerce(c) for e, c in terms.items() if c})


def dense_poly(space, deg, draw) -> SparsePoly:
    """Every monomial of total degree <= deg, coefficients from ``draw()``."""
    monos = (
        e for e in itertools.product(range(deg + 1), repeat=space.nvars) if sum(e) <= deg
    )
    return _poly(space, {e: draw() for e in monos})


def dense_system(n, d, D, draw) -> OdeSystem:
    """deg g1 = d and deg gi = D (i >= 2), redrawn until the degrees are exact."""
    space = VarSpace.state(n)
    gs = []
    for i in range(n):
        deg = d if i == 0 else D
        while True:
            g = dense_poly(space, deg, draw)
            if g.total_degree() == deg:
                gs.append(g)
                break
    return OdeSystem(gs)


def sparse_system(n, d, D, rng, terms=4, low=-9, high=9) -> OdeSystem:
    """A few random monomials per equation, redrawn until the degree is reached."""
    space = VarSpace.state(n)
    gs = []
    for i in range(n):
        deg = d if i == 0 else D
        poly = SparsePoly.zero(space, QQ)
        while poly.total_degree() < deg:
            acc = {}
            for _ in range(terms):
                exps = [0] * n
                for _ in range(rng.randint(0, deg)):
                    exps[rng.randrange(n)] += 1
                acc[tuple(exps)] = acc.get(tuple(exps), 0) + rng.randint(low, high)
            poly = _poly(space, acc)
        gs.append(poly)
    return OdeSystem(gs)


def systems(workload: str, models_dir: str) -> list:
    """(name, shape, model text) of every model of a workload."""
    rng = random.Random(f"{workload}:systems:{SYSTEM_SEED}")
    if workload == "small_mix":
        out = []
        for fname in SHIPPED_FAST_MODELS:
            with open(os.path.join(models_dir, fname), encoding="utf-8") as fh:
                out.append((fname, None, fh.read()))
        for n, d, D in SMALL_MIX_SHAPES:
            for k in range(SMALL_MIX_PER_SHAPE):
                out.append((f"sparse-{n}{d}{D}-{k}", (n, d, D), sparse_system(n, d, D, rng).render()))
        return out
    if workload == "certify_21":
        draw = lambda: rng.randint(-1000, 1000)  # noqa: E731
        return [(f"dense-321-{k}", (3, 2, 1), dense_system(3, 2, 1, draw).render()) for k in range(3)]
    if workload == "dense_22":
        draw = lambda: rng.choice((-2, -1, 1, 2))  # noqa: E731
        return [("dense-322-0", (3, 2, 2), dense_system(3, 2, 2, draw).render())]
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")


def generate(workload: str, seed: int, models_dir: str) -> list[Model]:
    """The models of one workload for one benchmark seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [
        Model(name, shape, text, rng.randrange(1 << 30))
        for name, shape, text in systems(workload, models_dir)
    ]
