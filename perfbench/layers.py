"""The traced run: which library names are wrapped, and the per-layer metrics.

Each name is wrapped in the module that calls it, so the wrapper sees
exactly the calls odelim makes.  Span names are the library module
of the layer plus the function name.
"""

from __future__ import annotations

from odelim.errors import KernelAnomalyError

from spans import Tracer, context_pool, self_times, span


class TraceCheckError(RuntimeError):
    """A sanity check on the traced run failed; the run reports no result."""


def _lattice(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("support.bound_size", len(result.points))


def _eliminate(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("interp.primes_used", len(result.primes_used))


def _minimal_element(tracer, args, kwargs, result, exc):
    N = args[0] if args else kwargs["N"]
    tracer.count("interp.minimal_element.cells", N.rows * N.cols)
    tracer.peak("interp.minimal_element.max_bytes", N.data.nbytes)
    if isinstance(exc, KernelAnomalyError):
        tracer.count("interp.minimal_element.anomaly")
    elif exc is None and result is None:
        tracer.count("interp.minimal_element.empty")


def _random_prime(tracer, args, kwargs, result, exc):
    tracer.count("interp.primes_drawn")


def _rational_reconstruct(tracer, args, kwargs, result, exc):
    if exc is None and result is not None:
        tracer.count("arith.rational_reconstruct.success")


TABLE = (
    ("odelim.ode", "parse_system", span("ode.parse_system")),
    ("odelim.interp", "order_nu", span("ode.order_nu")),
    ("odelim.interp", "enumerate_lattice", span("support.enumerate_lattice", _lattice)),
    ("odelim.interp", "eliminate", span("interp.eliminate", _eliminate)),
    ("odelim.verify", "eliminate", span("interp.eliminate", _eliminate)),
    ("odelim.interp", "eliminate_mod_p", span("interp.eliminate_mod_p")),
    ("odelim.interp", "minimal_element", span("interp.minimal_element", _minimal_element)),
    ("odelim.interp", "random_prime", span(None, _random_prime)),
    ("odelim.interp", "crt_absorb", span("arith.crt_absorb")),
    ("odelim.interp", "rational_reconstruct", span("arith.rational_reconstruct", _rational_reconstruct)),
    ("odelim.verify", "check_probabilistic", span("verify.check_probabilistic")),
    ("odelim.verify", "check_exact", span("verify.check_exact")),
    ("odelim.interp", "ThreadPoolExecutor", context_pool),
)

TIMED = (
    "ode.parse_system",
    "ode.order_nu",
    "support.enumerate_lattice",
    "interp.eliminate",
    "interp.eliminate_mod_p",
    "interp.minimal_element",
    "arith.crt_absorb",
    "arith.rational_reconstruct",
    "verify.check_probabilistic",
    "verify.check_exact",
)
WITH_SELF = ("interp.eliminate", "interp.eliminate_mod_p")
WITH_CALLS = ("interp.eliminate_mod_p", "interp.minimal_element", "arith.rational_reconstruct")
COUNTS = (
    "support.bound_size",
    "interp.minimal_element.cells",
    "interp.minimal_element.empty",
    "interp.minimal_element.anomaly",
    "interp.primes_drawn",
    "interp.primes_used",
)


def checked_self_times(spans) -> dict:
    """Self time of every span, after sanity checks per model solve.

    Every span must lead up to a ``model`` root span of its own model (a
    worker thread that lost its context fails here).  With the spans of
    one solve clipped to the root's interval, every instant of the root
    lies in the self time of at least one span, so the self times add up
    to at least the root's duration; and on each thread the spans nest,
    so that thread's self times add up to at most the root's duration.
    On a single-threaded solve the two make the sum equal the root's
    duration.
    """
    groups: dict = {}
    for s in spans:
        root = s
        while root.parent is not None:
            root = root.parent
        if root.name != "model" or s.model != root.model:
            raise TraceCheckError(f"span {s.name} of model {s.model!r} is not under its model root")
        groups.setdefault(root, []).append(s)
    out = {}
    for root, group in groups.items():
        selfs = self_times(group, within=(root.start, root.end))
        slack = 1e-9 * len(group) + 1e-9
        per_thread: dict = {}
        for s, t in selfs.items():
            per_thread[s.thread] = per_thread.get(s.thread, 0.0) + t
        total = sum(per_thread.values())
        if total < root.duration - slack:
            raise TraceCheckError(
                f"{root.model}: self times add up to {total:.9f} s, less than the root span's {root.duration:.9f} s"
            )
        for thread, busy in per_thread.items():
            if busy > root.duration + slack:
                raise TraceCheckError(
                    f"{root.model}: self times on thread {thread} add up to {busy:.9f} s, "
                    f"more than the root span's {root.duration:.9f} s"
                )
        out.update(selfs)
    return out


def layer_metrics(tracer: Tracer, passes: int, results, overhead_s: float) -> dict:
    """Per-layer metrics per traced pass, after the sanity checks.

    ``overhead_s`` is the tracing overhead measured by the caller.
    """
    spans = tracer.spans
    selfs = checked_self_times(spans)

    counts = tracer.counts
    out = {}
    for name in TIMED:
        mine = [s for s in spans if s.name == name]
        out[f"{name}.s"] = sum(s.duration for s in mine) / passes
        if name in WITH_SELF:
            out[f"{name}.self_s"] = sum(selfs[s] for s in mine) / passes
        if name in WITH_CALLS:
            out[f"{name}.calls"] = len(mine) / passes
    for name in COUNTS:
        out[name] = counts.get(name, 0) / passes
    out["interp.minimal_element.max_bytes"] = tracer.maxima.get("interp.minimal_element.max_bytes", 0)

    drawn, used = counts.get("interp.primes_drawn", 0), counts.get("interp.primes_used", 0)
    if used > drawn:
        raise TraceCheckError(f"interp.primes_used {used} exceeds interp.primes_drawn {drawn}")
    out["interp.primes.useful_ratio"] = used / drawn if drawn else 0.0
    calls = sum(1 for s in spans if s.name == "arith.rational_reconstruct")
    success = counts.get("arith.rational_reconstruct.success", 0)
    out["arith.rational_reconstruct.success_ratio"] = success / calls if calls else 0.0

    out["result.terms"] = sum(len(r.f_min.terms) for r in results) / passes
    out["result.coeff_bits"] = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for r in results for c in r.f_min.terms.values()),
        default=0,
    )
    out["trace.overhead_s"] = overhead_s
    return out
