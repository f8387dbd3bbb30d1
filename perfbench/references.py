"""Reference f_min of every benchmark model, certified when recorded.

    python3 perfbench/references.py      # re-record references.json

Recording solves each model with certified_eliminate, which checks the
result with check_exact, using sampling independent of the timed runs,
and stores a digest of the canonical f_min.  A run compares every timed
f_min against it outside the timed region.  A model with no entry, or
whose text no longer matches the stored one, fails every solve of the
run: a reference is never made by the code under test while it is timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from odelim import interp, ode, verify  # noqa: E402

from workloads import WORKLOADS, generate  # noqa: E402

REFERENCE_FILE = os.path.join(HERE, "references.json")
# the sampling seed of a reference solve, kept apart from the seeds of timed solves
REFERENCE_SEED = 1 << 31


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_key(res) -> tuple:
    """(nu, digest of the canonical f_min): equal results have equal keys."""
    terms = sorted([list(e), str(c)] for e, c in res.f_min.terms.items())
    return res.nu, sha256(json.dumps(terms))


def shape_problem(workload, res):
    """What is wrong with the shape of a result, or None."""
    if workload.expect_nu is not None and res.nu != workload.expect_nu:
        return f"nu = {res.nu}, expected {workload.expect_nu}"
    if workload.expect_terms is not None and len(res.f_min.terms) != workload.expect_terms:
        return f"{len(res.f_min.terms)} terms, expected {workload.expect_terms}"
    return None


def certify(workload, model) -> dict:
    sys_ = ode.parse_system(model.text)
    res = verify.certified_eliminate(sys_, interp.SampleConfig(seed=REFERENCE_SEED, threads=2))
    if res.verified.kind != "exact":
        raise RuntimeError(f"{model.name}: certified_eliminate returned an unverified result")
    problem = shape_problem(workload, res)
    if problem is not None:
        raise RuntimeError(f"{model.name}: {problem}")
    nu, digest = result_key(res)
    return {"text_sha256": sha256(model.text), "nu": nu, "terms": len(res.f_min.terms), "f_min_sha256": digest}


def load() -> dict:
    if not os.path.exists(REFERENCE_FILE):
        return {}
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def references(workload, models) -> dict:
    """Model name -> (reference key, problem or None), untimed."""
    stored = load()
    out = {}
    for m in models:
        entry = stored.get(f"{workload.name}/{m.name}")
        if entry is None or entry["text_sha256"] != sha256(m.text):
            problem = "references.json has no current entry; re-record it with python3 perfbench/references.py"
            print(f"{workload.name}/{m.name}: {problem}", file=sys.stderr)
            out[m.name] = (None, problem)
        else:
            out[m.name] = ((entry["nu"], entry["f_min_sha256"]), None)
    return out


def record() -> dict:
    """Certify every model of every workload; the systems do not depend on the seed."""
    out = {}
    for workload in WORKLOADS.values():
        for m in generate(workload.name, 0, os.path.join(ROOT, "models")):
            out[f"{workload.name}/{m.name}"] = certify(workload, m)
            print(f"{workload.name}/{m.name}: {out[f'{workload.name}/{m.name}']['terms']} terms", flush=True)
    return out


if __name__ == "__main__":
    table = record()
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
