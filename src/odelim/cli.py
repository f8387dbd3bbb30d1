"""Command-line front end: model files, JSON output, and benchmarks.

Model file grammar (one equation per line, comments with '#'):

    x1' = x2
    x2' = -x1 + 3/4*x2^2      # rationals, decimals and parentheses allowed

Exit codes: 0 success, 1 benchmark mismatch, 2 usage, 3 parse error,
4 computation error, 5 verification failure.  A reader that closes
standard output early (``odelim eliminate ... --json | head``) ends the
run quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from .errors import BadPrimeError, ComputationError, OdelimError, ParseError, VerificationError
from .interp import EliminationResult, SampleConfig, eliminate
from .ode import parse_system
from .poly import parse_derivative_poly
from .support import (
    SupportBound,
    bound_inequalities,
    count_lattice,
    general_bound_inequality,
)
from .verify import certified_eliminate

log = logging.getLogger("odelim.cli")

# (n, d, D) -> published lattice count for the benchmark suite
TABLE_COUNTS = [
    (2, 2, 1, 19),
    (3, 2, 1, 271),
    (3, 2, 2, 1292),
    (3, 2, 3, 7875),
    (3, 2, 4, 31757),
    (3, 2, 5, 98771),
    (3, 3, 1, 9520),
    (3, 3, 2, 25788),
    (3, 3, 3, 65637),
    (4, 1, 2, 8189),
    (4, 2, 1, 11021),
]

BENCH_EXAMPLES = [
    ("harmonic oscillator", "x1' = x2\nx2' = -x1", "x1'' + x1"),
    ("squared velocity", "x1' = x2^2\nx2' = x1", "x1''^2 - 4*x1^2*x1'"),
]


def result_document(result: EliminationResult, timings: dict) -> dict:
    """JSON-serializable record of an elimination run."""
    f = result.f_min
    terms = [
        [list(e), c.numerator, c.denominator] for e, c in f.sorted_terms()
    ]
    ver = {"mode": result.verified.kind}
    if result.verified.trials is not None:
        ver["trials"] = result.verified.trials
    if result.verified.failure_bound is not None:
        ver["failure_bound"] = str(result.verified.failure_bound)
    return {
        "format": 1,
        "f_min": f.render(),
        "terms": terms,
        "nu": result.nu,
        "support_size": result.support_size,
        "primes_used": list(result.primes_used),
        "verification": ver,
        "timings": {k: round(v, 4) for k, v in timings.items()},
    }


def _print_human(doc: dict) -> None:
    print(f"f_min = {doc['f_min']}")
    print(f"order nu = {doc['nu']}")
    print(f"terms = {len(doc['terms'])}")
    primes = doc["primes_used"]
    print(f"primes used = {len(primes)}")
    ver = doc["verification"]
    extra = ""
    if "failure_bound" in ver:
        extra = f" (failure bound {ver['failure_bound']})"
    print(f"verification: {ver['mode']}{extra}")
    parts = ", ".join(f"{k} {v:.3f}s" for k, v in doc["timings"].items())
    print(f"timings: {parts}")


def cmd_eliminate(args) -> int:
    try:
        with open(args.model, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.model}: {exc.strerror}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    system = parse_system(text).relabel(args.target)
    t1 = time.perf_counter()
    config = SampleConfig(
        radius=args.radius,
        seed=args.seed,
        prime_bits=args.prime_bits,
        max_primes=args.max_primes,
        nu_override=args.order,
        threads=args.threads,
    )
    if args.certify:
        result = certified_eliminate(system, config)
    else:
        result = eliminate(system, config)
    t2 = time.perf_counter()
    timings = {"parse": t1 - t0, "eliminate": t2 - t1, "total": t2 - t0}
    doc = result_document(result, timings)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        _print_human(doc)
    return 0


def _bound_for(args) -> SupportBound:
    nu = args.order if args.order is not None else args.n
    if args.omega is not None:
        if len(args.omega) != nu:
            raise ValueError(f"--omega needs exactly {nu} entries (one per order)")
        return general_bound_inequality(args.d, args.D, nu, args.omega)
    return bound_inequalities(args.d, args.D, nu)


def cmd_bound(args) -> int:
    bound = _bound_for(args)
    for line in bound.render().splitlines():
        print(line)
    return 0


def cmd_count(args) -> int:
    bound = _bound_for(args)
    print(count_lattice(bound))
    return 0


def _bench_tables() -> int:
    failures = 0
    total0 = time.perf_counter()
    for n, d, D, expected in TABLE_COUNTS:
        t0 = time.perf_counter()
        got = count_lattice(bound_inequalities(d, D, n))
        dt = time.perf_counter() - t0
        ok = got == expected
        failures += 0 if ok else 1
        tag = "ok" if ok else "FAIL"
        print(f"count n={n} d={d} D={D}: {got} expected {expected} "
              f"{tag} ({dt:.2f}s)")
    print(f"tables: {len(TABLE_COUNTS) - failures}/{len(TABLE_COUNTS)} "
          f"match ({time.perf_counter() - total0:.2f}s)")
    return 1 if failures else 0


def _bench_examples() -> int:
    failures = 0
    for name, model, expected_text in BENCH_EXAMPLES:
        system = parse_system(model)
        expected = parse_derivative_poly(expected_text).normalize_canonical()
        t0 = time.perf_counter()
        result = eliminate(system)
        dt = time.perf_counter() - t0
        ok = result.f_min == expected
        failures += 0 if ok else 1
        tag = "ok" if ok else "FAIL"
        print(f"{name}: {result.f_min.render()} {tag} ({dt:.2f}s)")
    print(f"examples: {len(BENCH_EXAMPLES) - failures}/{len(BENCH_EXAMPLES)} match")
    return 1 if failures else 0


def cmd_bench(args) -> int:
    if args.suite == "tables":
        return _bench_tables()
    return _bench_examples()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odelim",
        description="Minimal differential polynomial of x1 for x' = g(x).",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log pipeline progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eliminate", help="compute f_min for a model file")
    p.add_argument("model", help="path to the .ode model file")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--certify", action="store_true",
                   help="exact-check the result, doubling the radius on failure")
    p.add_argument("--prime-bits", type=int, default=23, dest="prime_bits",
                   help="bit size of the working primes, 16 to 23 (default 23)")
    p.add_argument("--max-primes", type=int, default=200, dest="max_primes",
                   help="abort after this many primes (default 200)")
    p.add_argument("--order", type=int, default=None,
                   help="differential order to try first (skips detection)")
    p.add_argument("--radius", type=int, default=1893,
                   help="half-width of the integer sampling box (default 1893)")
    p.add_argument("--target", type=int, default=1,
                   help="state variable to eliminate (relabels, default 1)")
    p.add_argument("--threads", type=int, default=1,
                   help="most per-prime solves run at once (default 1); a "
                        "support narrower than 2048 columns "
                        "is solved on the calling thread whatever this is")
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(func=cmd_eliminate)

    for name, fn, hint in (
        ("bound", cmd_bound, "print the support inequalities"),
        ("count", cmd_count, "count the admissible lattice points"),
    ):
        p = sub.add_parser(name, help=hint)
        p.add_argument("n", type=int, help="number of state variables")
        p.add_argument("d", type=int, help="degree of g1")
        p.add_argument("D", type=int, help="max degree of g2..gn")
        p.add_argument("--order", type=int, default=None,
                       help="differential order (default: n)")
        p.add_argument("--omega", type=int, nargs="+", default=None,
                       help="per-order degree bounds for the refined inequality")
        p.set_defaults(func=fn)

    p = sub.add_parser("bench", help="run a reproduction suite")
    p.add_argument("suite", choices=["tables", "examples"],
                   help="tables: lattice counts; examples: small eliminations")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(name)s: %(message)s",
    )
    # order escalation/downshift notices are part of the cmd contract;
    # the per-run progress lines are debug-level and need -v
    logging.getLogger("odelim.interp").setLevel(logging.DEBUG if args.verbose else logging.INFO)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader (say `| head`) stopped early; exit quietly, and keep
        # the interpreter's final flush from raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        if exc.candidate is not None:
            print(f"last candidate: {exc.candidate.render()}", file=sys.stderr)
        return 5
    except (ComputationError, BadPrimeError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OdelimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
