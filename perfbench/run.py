"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload small_mix --seed 1 --trace 0

Each workload runs in a process of its own (worker.py); a few more
processes that only set up give the fastest set-up time.  The last line
of standard output is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json (end-to-end ones with --trace 0,
per-layer ones with --trace 1).  ``--out FILE`` appends the full record,
environment included, for compare.py.

Every run measures for ``run_seconds`` of BENCHMARK.json, so that runs on
two commits measure the same length.  ``--seconds`` is part of the
benchmark's calling convention and must be given that value, if at all.
Exit codes: 0 correct, 1 a failed or wrong solve, an overrun or a crash,
3 a failed check of the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 8  # set-up-only processes besides the measured one
TIME_LIMIT_S = 170  # the whole run, set-up probes included


class RunError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def start_worker(args, seconds: int, setup_only: bool):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc, started


def finish_worker(proc, started, deadline):
    """Wait for a worker; returns (set-up seconds, its last JSON record)."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("the workload overran the time limit")
    if proc.returncode != 0:
        # 3 is the worker's code for a failed trace check; pass it on
        raise RunError(f"the workload process exited with code {proc.returncode}", 3 if proc.returncode == 3 else 1)
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    ready = next(r for r in records if r.get("event") == "ready")
    return ready["t"] - started, records[-1]


def run_workload(args, spec) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    seconds = spec["run_seconds"]
    # other tenants of a shared machine slow it for stretches of seconds, so
    # the set-up probes are split before and after the measured run and
    # the fastest one counts
    def probe():
        return finish_worker(*start_worker(args, seconds, True), deadline)[0]

    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    setup, record = finish_worker(*start_worker(args, seconds, False), deadline)
    setups += [setup] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    if record.get("event") != "result":
        raise RunError("the workload process printed no result")

    notes = {"failed_ratio": len(record["failures"]) / record["attempted"]}
    if args.trace:
        wanted, values = spec["per_layer"], record["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {**record["end_to_end"], "setup_s": min(setups), "peak_rss_mb": record["peak_rss_mb"]}
        notes.update(record["notes"], setup_s={"fastest_of": len(setups)})
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RunError(f"metrics missing from the run: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "failures": record["failures"],
        "metrics": metrics,
        "notes": notes,
        "env": record["env"],
    }


def print_report(result) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']})")
    for name, m in result["metrics"].items():
        note = result["notes"].get(name)
        extra = f"  {json.dumps(note)}" if note else ""
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}{extra}")
    print(f"  {'failed_ratio':42s} {result['notes']['failed_ratio']:>16.6g} ratio")
    for failure in result["failures"]:
        print(f"  FAILED {failure['model']}: {failure['error']}")
    print(f"  env {json.dumps(result['env'])}")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, choices=(spec["run_seconds"],), help="run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result record to this JSON-lines file")
    args = ap.parse_args(argv)

    results = []
    for name in names if args.workload == "all" else [args.workload]:
        try:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), spec)
        except RunError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return exc.code
        results.append(result)
        print_report(result)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(result) + "\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
