"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import odelim.interp  # noqa: E402

import compare  # noqa: E402
import layers  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Span, Tracer, self_times, span  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

MODELS = os.path.join(ROOT, "models")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- generators ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert generate(name, 7, MODELS) == generate(name, 7, MODELS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_same_shapes_other_sampling(name):
    one, two = generate(name, 1, MODELS), generate(name, 2, MODELS)
    assert [m.shape for m in one] == [m.shape for m in two]
    assert [m.seed for m in one] != [m.seed for m in two]


def test_small_mix_covers_every_shape():
    shapes = [m.shape for m in generate("small_mix", 0, MODELS)]
    assert shapes.count(None) == 3  # the shipped models
    for n in (2, 3):
        for d in (1, 2):
            for D in (1, 2):
                assert shapes.count((n, d, D)) == 3


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in _bench()["workloads"]] == list(WORKLOADS)


def test_every_model_has_a_current_reference():
    stored = references.load()
    for name in WORKLOADS:
        for m in generate(name, 0, MODELS):
            entry = stored[f"{name}/{m.name}"]
            assert entry["text_sha256"] == references.sha256(m.text)


def test_stale_reference_fails_the_model():
    wl = WORKLOADS["small_mix"]
    model = generate("small_mix", 0, MODELS)[0]
    assert references.references(wl, [model])[model.name][1] is None
    stale = dataclasses.replace(model, text=model.text + "\n")
    key, problem = references.references(wl, [stale])[stale.name]
    assert key is None and "references.py" in problem


def test_run_length_is_fixed_by_the_benchmark():
    with pytest.raises(SystemExit):
        run.main(["--workload", "small_mix", "--seed", "1", "--seconds", str(_bench()["run_seconds"] + 1)])


# -- wrappers --------------------------------------------------------------------


def _targets():
    return [(importlib.import_module(mod), attr) for mod, attr, _ in layers.TABLE]


def test_wrappers_restore_the_originals():
    before = [getattr(mod, attr) for mod, attr in _targets()]
    tracer = Tracer()
    tracer.install(layers.TABLE)
    try:
        assert all(getattr(mod, attr) is not orig for (mod, attr), orig in zip(_targets(), before))
    finally:
        tracer.uninstall()
    assert all(getattr(mod, attr) is orig for (mod, attr), orig in zip(_targets(), before))


def test_missing_name_is_an_error_and_wraps_nothing():
    original = odelim.interp.minimal_element
    table = (
        ("odelim.interp", "minimal_element", span("interp.minimal_element")),
        ("odelim.interp", "no_such_function", span("x")),
    )
    with pytest.raises(LookupError):
        Tracer().install(table)
    assert odelim.interp.minimal_element is original


# -- self time ---------------------------------------------------------------------


def test_self_time_with_overlapping_worker_spans():
    root = Span("model", "m", None, 1, 0.0, 10.0)
    elim = Span("interp.eliminate", "m", root, 1, 1.0, 9.0)
    # two worker threads overlap each other; the second outlives its parent
    w1 = Span("interp.minimal_element", "m", elim, 2, 2.0, 5.0)
    w2 = Span("interp.minimal_element", "m", elim, 3, 4.0, 9.5)
    inner = Span("arith.crt_absorb", "m", elim, 1, 6.0, 6.5)  # inside w2's interval
    selfs = self_times([root, elim, w1, w2, inner])
    assert selfs[root] == pytest.approx(10.0 - 8.0)
    assert selfs[elim] == pytest.approx(8.0 - 7.0)  # union [2, 9] of the clipped children
    assert selfs[w1] == pytest.approx(3.0)
    assert selfs[w2] == pytest.approx(5.5)
    assert selfs[inner] == pytest.approx(0.5)
    clipped = self_times([root, elim, w1, w2, inner], within=(0.0, 9.0))
    assert clipped[w2] == pytest.approx(5.0)


def _threaded_solve():
    root = Span("model", "m", None, 1, 0.0, 10.0)
    elim = Span("interp.eliminate", "m", root, 1, 1.0, 9.0)
    w1 = Span("interp.minimal_element", "m", elim, 2, 2.0, 5.0)
    w2 = Span("interp.minimal_element", "m", elim, 3, 4.0, 9.5)
    inner = Span("arith.crt_absorb", "m", elim, 1, 6.0, 6.5)
    return root, [root, elim, w1, w2, inner]


def test_self_time_checks_pass_on_correct_self_times():
    root, spans = _threaded_solve()
    selfs = layers.checked_self_times(spans)
    assert sum(selfs.values()) >= root.duration
    root = Span("model", "m", None, 1, 0.0, 4.0)
    a = Span("interp.eliminate", "m", root, 1, 0.5, 3.5)
    b = Span("interp.minimal_element", "m", a, 1, 1.0, 2.0)
    c = Span("interp.minimal_element", "m", a, 1, 2.5, 3.0)
    selfs = layers.checked_self_times([root, a, b, c])
    assert sum(selfs.values()) == pytest.approx(root.duration)  # one thread: exactly the root


@pytest.mark.parametrize(
    "wrong",
    [
        lambda spans, within: {s: s.duration for s in spans},  # children not subtracted
        lambda spans, within: {s: t / 2 for s, t in self_times(spans, within).items()},  # too much subtracted
    ],
    ids=["too-large", "too-small"],
)
def test_self_time_checks_catch_miscomputed_self_times(monkeypatch, wrong):
    _, spans = _threaded_solve()
    monkeypatch.setattr(layers, "self_times", wrong)
    with pytest.raises(layers.TraceCheckError):
        layers.checked_self_times(spans)


def test_self_time_check_rejects_an_orphan_span():
    root = Span("model", "m", None, 1, 0.0, 1.0)
    stray = Span("interp.minimal_element", "other", root, 2, 0.2, 0.4)
    with pytest.raises(layers.TraceCheckError):
        layers.checked_self_times([root, stray])


def test_traced_threaded_solve_keeps_model_ids():
    tracer = Tracer()
    wl = WORKLOADS["certify_21"]
    model = next(m for m in generate("small_mix", 3, MODELS) if m.name == "quadratic.ode")
    tracer.install(layers.TABLE)
    try:
        res, ok = tracer.call("model", worker.solve, (wl, model), {}, model=model.name)
        worker.join_worker_threads()
    finally:
        tracer.uninstall()
    assert ok
    threads = {s.thread for s in tracer.spans}
    assert len(threads) > 1  # certify_21 solves on a pool of two threads
    assert {s.model for s in tracer.spans} == {model.name}
    metrics = layers.layer_metrics(tracer, 1, [res], 0.0)
    assert metrics["interp.primes_used"] <= metrics["interp.primes_drawn"]
    assert metrics["verify.check_exact.s"] > 0
    assert {m["name"] for m in _bench()["per_layer"]} == set(metrics)


# -- reporting ---------------------------------------------------------------------


def test_tail_has_ten_samples_beyond_or_falls_back_to_the_median():
    pct, value, beyond = worker.tail(list(range(1, 28)))
    assert (value, beyond) == (17, 10)
    assert pct == pytest.approx(100 * 17 / 27)
    assert worker.tail([3.0, 1.0, 2.0])[1:] == (2.0, 1)


def test_compare_marks_regressions_and_unresolved_metrics():
    bench = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}], "per_layer": []}
    steady = [1.0, 1.01, 0.99, 1.0]
    rows, regressed = compare.compare({("w", "wall_s"): steady}, {("w", "wall_s"): [1.3, 1.31, 1.29, 1.3]}, bench)
    assert regressed and rows[0][-1] == "regressed"
    noisy = [1.0, 2.0, 0.5, 1.5]
    rows, regressed = compare.compare({("w", "wall_s"): steady}, {("w", "wall_s"): noisy}, bench)
    assert not regressed and rows[0][-1] == "unresolved"
    rows, _ = compare.compare({("w", "wall_s"): noisy}, {("w", "wall_s"): [0.1, 0.2, 0.15, 0.12]}, bench)
    assert rows[0][-1] == "ok"  # every change run beats every parent run
