"""One workload in one process: set up, load the references, time passes.

Started by run.py, never by hand.  Prints JSON lines on stdout: a
``ready`` event (monotonic clock, shared with the parent) as soon as the
models exist, then one ``result`` record as the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

from odelim import interp, ode, verify  # noqa: E402

from layers import TABLE, TraceCheckError, layer_metrics  # noqa: E402
from references import references, result_key, shape_problem  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# per model and pass: a model this short is solved again, so that its
# fastest solve is found among many samples (about 10 ms models on small_mix)
MIN_SOLVE_SECONDS = 0.1
TAIL_MIN_BEYOND = 10


def _emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def environment(found_odelim_threads) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "git_commit": git_commit(ROOT),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ODELIM_THREADS_found": found_odelim_threads,
    }


def git_commit(root: str):
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# solving and checking


def solve(workload, model):
    """Model text -> (EliminationResult, verified?) through the public API.

    Every library call goes through a module attribute, so the traced run
    sees it through the tracer's wrappers.
    """
    sys_ = ode.parse_system(model.text)
    config = interp.SampleConfig(seed=model.seed, threads=workload.threads)
    if workload.mode == "certified":
        res = verify.certified_eliminate(sys_, config)
        return res, res.verified.kind == "exact"
    res = interp.eliminate(sys_, config)
    return res, verify.check_probabilistic(sys_, res.f_min, seed=model.seed).outcome


def join_worker_threads() -> None:
    """Wait for pool threads that eliminate left running after it returned."""
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join()


@dataclass
class Solve:
    model: object
    wall_s: float
    cpu_s: float
    result: object
    error: str | None


def run_pass(workload, models, tracer=None, min_seconds=0.0):
    """Solve every model once, or more often until ``min_seconds`` went into it.

    Returns (pass wall seconds, [Solve]) with one Solve per solve.
    """
    solved = []
    wall0 = time.perf_counter()
    for m in models:
        spent = 0.0
        while True:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            res, error = None, None
            try:
                if tracer is None:
                    res, ok = solve(workload, m)
                else:
                    res, ok = tracer.call("model", solve, (workload, m), {}, model=m.name)
                if not ok:
                    error = "verification failed"
            except Exception as exc:  # a failed model is counted, never dropped
                error = repr(exc)
            wall = time.perf_counter() - t0
            solved.append(Solve(m, wall, time.process_time() - cpu0, res, error))
            spent += wall
            if spent >= min_seconds:
                break
    return time.perf_counter() - wall0, solved


def fastest(solved) -> dict:
    """Model name -> (wall, cpu) of its fastest solve."""
    out: dict = {}
    for s in solved:
        wall, cpu = out.get(s.model.name, (s.wall_s, s.cpu_s))
        out[s.model.name] = (min(wall, s.wall_s), min(cpu, s.cpu_s))
    return out


def tail(values):
    """(percentile, value, samples beyond) of the highest nearest-rank
    percentile with at least ten samples above it; the median when there
    are too few samples for any."""
    s = sorted(values)
    n = len(s)
    rank = max(n - TAIL_MIN_BEYOND, (n + 1) // 2)  # 1-based; n - rank beyond it
    return 100.0 * rank / n, s[rank - 1], n - rank


def end_to_end(solved, passes: int) -> tuple[dict, dict]:
    """The end-to-end metrics except setup_s, and the notes beside them.

    Each model is taken at its fastest solve of the run: other tenants of
    a shared machine slow whole stretches of seconds, and the minimum
    stays put where the median does not.  A pass is then the sum over
    models, and the median and tail are taken across models.
    """
    best = fastest(solved)
    model_times = [wall for wall, _ in best.values()]
    pct, tail_value, beyond = tail(model_times)
    metrics = {
        "wall_s": sum(model_times),
        "solve_s.p50": statistics.median(model_times),
        "solve_s.tail": tail_value,
        "cpu_s": sum(cpu for _, cpu in best.values()),
    }
    notes = {
        "solve_s.tail": {"percentile": round(pct, 2), "models": len(model_times), "beyond": beyond},
        "wall_s": {"passes": passes, "solves": len(solved)},
    }
    return metrics, notes


def check_pass(workload, solved, refs) -> list:
    """Outside the timed region: each solve against its model's reference."""
    failures = []
    for s in solved:
        ref_key, error = refs[s.model.name]
        error = s.error or error
        if error is None:
            error = shape_problem(workload, s.result)
        if error is None and result_key(s.result) != ref_key:
            error = "f_min differs from the reference"
        if error is not None:
            failures.append({"model": s.model.name, "error": error})
    return failures


# ---------------------------------------------------------------------------


def measure(workload, models, refs, seconds, trace) -> dict:
    """Timed passes while another one still fits in ``seconds`` (at least one).

    With ``trace`` every untraced pass is followed by a traced one, and no
    model is repeated within a pass, so that layer figures are per pass;
    the untraced passes give the f_min that each traced one must match.
    """
    timed, traced, failures = [], [], []
    passes = 0
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        _, solved = run_pass(workload, models, min_seconds=0.0 if trace else MIN_SOLVE_SECONDS)
        passes += 1
        timed += solved
        failures += check_pass(workload, solved, refs)
        if tracer is not None:
            untraced = {s.model.name: result_key(s.result) for s in solved if s.error is None}
            join_worker_threads()
            tracer.install(TABLE)
            try:
                _, solved = run_pass(workload, models, tracer)
                join_worker_threads()
            finally:
                tracer.uninstall()
            traced += solved
            failures += check_pass(workload, solved, refs)
            for s in solved:
                if s.error is None and s.model.name in untraced and result_key(s.result) != untraced[s.model.name]:
                    raise TraceCheckError(f"{s.model.name}: the traced run gave another f_min")
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            break
    record = {"attempted": len(timed) + len(traced), "failures": failures}
    if trace:
        overhead = sum(w for w, _ in fastest(traced).values()) - sum(w for w, _ in fastest(timed).values())
        results = [s.result for s in traced if s.error is None]
        record["layers"] = layer_metrics(tracer, passes, results, overhead)
    else:
        record["end_to_end"], record["notes"] = end_to_end(timed, passes)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    found_threads = os.environ.pop("ODELIM_THREADS", None)
    workload = WORKLOADS[args.workload]
    models = generate(args.workload, args.seed, os.path.join(ROOT, "models"))
    _emit({"event": "ready", "t": time.monotonic()})
    if args.setup_only:
        return 0

    refs = references(workload, models)
    try:
        record = measure(workload, models, refs, args.seconds, args.trace)
    except (TraceCheckError, LookupError) as exc:
        print(f"trace check failed: {exc}", file=sys.stderr)
        return 3
    record.update(
        event="result",
        workload=args.workload,
        seed=args.seed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(found_threads),
    )
    _emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
