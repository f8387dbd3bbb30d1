"""End-to-end command-line behaviour (run in process)."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import odelim.cli as cli
from odelim import interp
from odelim.errors import VerificationError
from odelim.ode import parse_system
from odelim.poly import QQ, SparsePoly, VarSpace, parse_derivative_poly

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def write_model(tmp_path, text, name="m.ode"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- model parsing --------------------------------------------------------


def test_parse_system_harmonic():
    sys_ = parse_system("x1' = x2\nx2' = -x1")
    assert sys_.n == 2


def test_parse_system_bluesky_exact_coefficients():
    with open(os.path.join(MODELS, "bluesky.ode")) as fh:
        sys_ = parse_system(fh.read())
    assert sys_.n == 3
    # a = 0.456 enters x2' as the x2-coefficient a - 2 after expansion,
    # and b = 0.0357 is the constant term of x3'
    a = Fraction(57, 125)
    b = Fraction(357, 10000)
    assert sys_.g[1].coefficient((0, 1, 0)) == a - 2
    assert sys_.g[2].coefficient((0, 0, 0)) == b
    # the factored 2 + a multiplier of x1 lands on the x1 term of x1'
    assert sys_.g[0].coefficient((1, 0, 0)) == 2 + a


def test_parse_system_rejects_rhs_derivative():
    with pytest.raises(Exception) as err:
        parse_system("x1' = x2'\nx2' = x1")
    assert "derivative" in str(err.value)


def test_all_shipped_models_parse():
    for name in os.listdir(MODELS):
        with open(os.path.join(MODELS, name)) as fh:
            sys_ = parse_system(fh.read())
        assert sys_.n >= 1


# --- eliminate command ----------------------------------------------------


def test_cmd_eliminate_harmonic(tmp_path, capsys):
    path = write_model(tmp_path, "x1' = x2\nx2' = -x1")
    assert cli.main(["eliminate", path]) == 0
    out = capsys.readouterr().out
    assert "x1'' + x1" in out


def test_cmd_eliminate_human_output(capsys):
    assert cli.main(["eliminate", os.path.join(MODELS, "harmonic.ode")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["f_min = x1'' + x1", "order nu = 2", "terms = 2", "primes used = 2"]
    assert lines[4] == "verification: unverified"
    assert lines[5].startswith("timings: ")


def test_cmd_eliminate_default_run_is_quiet():
    # a fresh process, so the CLI's own logging setup decides what reaches stderr
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-m", "odelim.cli", "eliminate", os.path.join(MODELS, "harmonic.ode")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0
    assert "x1'' + x1" in run.stdout
    assert run.stderr == ""


def test_cmd_eliminate_closed_stdout_is_quiet():
    # `odelim eliminate ... --json | head`: the reader is gone before the first write
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "odelim.cli", "eliminate", os.path.join(MODELS, "harmonic.ode"), "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert run.stderr == ""
    assert run.returncode == 0


def test_cmd_eliminate_json_round_trip(tmp_path, capsys):
    path = write_model(tmp_path, "x1' = x2^2\nx2' = x1")
    assert cli.main(["eliminate", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == 1
    assert doc["nu"] == 2
    terms = {tuple(e): Fraction(num, den) for e, num, den in doc["terms"]}
    rebuilt = SparsePoly(VarSpace.deriv(doc["nu"]), QQ, terms)
    assert rebuilt == parse_derivative_poly(doc["f_min"])
    assert doc["verification"] == {"mode": "unverified"}
    assert doc["primes_used"]
    assert doc["timings"]["total"] >= 0


def test_cmd_eliminate_certify_marks_exact(tmp_path, capsys):
    path = write_model(tmp_path, "x1' = x2\nx2' = -x1")
    assert cli.main(["eliminate", path, "--certify", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verification"] == {"mode": "exact", "trials": 0, "failure_bound": "0"}


def test_cmd_eliminate_low_order_escalates(tmp_path, capsys, caplog):
    path = write_model(tmp_path, "x1' = x2\nx2' = -x1")
    assert cli.main(["eliminate", path, "--order", "1"]) == 0
    captured = capsys.readouterr()
    assert "x1'' + x1" in captured.out
    messages = captured.err + "".join(r.message for r in caplog.records)
    assert "escalating" in messages


def test_cmd_eliminate_deterministic_under_seed(tmp_path, capsys):
    path = write_model(tmp_path, "x1' = x1^2 + x1*x2 + x2^2 + 1\nx2' = x2")
    runs = []
    for _ in range(2):
        assert cli.main(["eliminate", path, "--seed", "7", "--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1] or json.loads(runs[0])["terms"] == json.loads(runs[1])["terms"]


def test_cmd_eliminate_target_relabels(tmp_path, capsys):
    path = write_model(tmp_path, "x1' = x2\nx2' = -x2 - x1")
    assert cli.main(["eliminate", path, "--target", "2"]) == 0
    out = capsys.readouterr().out
    assert "x1'' + x1' + x1" in out


def test_cmd_eliminate_threads_flag(tmp_path, capsys):
    path = write_model(tmp_path, "x1' = x2\nx2' = -x1")
    assert cli.main(["eliminate", path, "--threads", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["f_min"] == "x1'' + x1"


def test_cmd_eliminate_prime_bits_above_23_is_usage_error(tmp_path, capsys):
    path = write_model(tmp_path, "x1' = x2\nx2' = -x1")
    assert cli.main(["eliminate", path, "--prime-bits", "24"]) == 2
    assert "[16, 23]" in capsys.readouterr().err


def test_cmd_eliminate_missing_file(capsys):
    assert cli.main(["eliminate", "/nonexistent/nowhere.ode"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cmd_eliminate_parse_error_exit_code(tmp_path, capsys):
    path = write_model(tmp_path, "x1' = x2 +\nx2' = -x1")
    assert cli.main(["eliminate", path]) == 3
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "line 1" in err


def test_cmd_eliminate_computation_error_exit_code(tmp_path, capsys):
    path = write_model(tmp_path, "x1' = x1^2 + x1*x2 + x2^2 + 1\nx2' = x2")
    assert cli.main(["eliminate", path, "--max-primes", "1"]) == 4
    assert "computation error" in capsys.readouterr().err


def test_cmd_eliminate_probe_fits_a_small_box(tmp_path, capsys):
    # the probe takes every point of a box too small for its 32 points; a
    # box too small for a solve itself is still an error
    harmonic = os.path.join(MODELS, "harmonic.ode")
    assert cli.main(["eliminate", harmonic, "--radius", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["f_min"] == "x1'' + x1"
    path = write_model(tmp_path, "x1' = x1^2 + 1")
    assert cli.main(["eliminate", path, "--radius", "10"]) == 0
    assert "x1^2 - x1' + 1" in capsys.readouterr().out
    assert cli.main(["eliminate", harmonic, "--radius", "1"]) == 4
    assert "cannot place 10 distinct points in a box of 9" in capsys.readouterr().err


def test_cmd_eliminate_memory_guard_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(interp, "_available_memory", lambda: 100)
    path = write_model(tmp_path, "x1' = x2\nx2' = -x1")
    assert cli.main(["eliminate", path]) == 4
    err = capsys.readouterr().err
    assert "256 bytes" in err and "100 bytes" in err


def test_cmd_eliminate_verification_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = write_model(tmp_path, "x1' = x2\nx2' = -x1")

    def boom(sys_, config):
        raise VerificationError("nothing certifies", candidate=parse_derivative_poly("x1"))

    monkeypatch.setattr(cli, "certified_eliminate", boom)
    assert cli.main(["eliminate", path, "--certify"]) == 5
    err = capsys.readouterr().err
    assert "verification failed" in err
    assert "last candidate" in err


def test_cmd_eliminate_bad_usage_exit_code(tmp_path, capsys):
    path = write_model(tmp_path, "x1' = x2\nx2' = -x1")
    assert cli.main(["eliminate", path, "--order", "9"]) == 2
    assert cli.main(["eliminate", path, "--target", "5"]) == 2


# --- bound / count --------------------------------------------------------


def test_cmd_bound_output(capsys):
    assert cli.main(["bound", "2", "2", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "e0 + e1 + 2*e2 <= 4" in lines
    assert "e0 + 2*e1 + 3*e2 <= 6" in lines


def test_cmd_count_table_values(capsys):
    assert cli.main(["count", "3", "2", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1292"
    assert cli.main(["count", "4", "2", "1"]) == 0
    assert capsys.readouterr().out.strip() == "11021"


def test_cmd_count_rejects_bad_degrees(capsys):
    assert cli.main(["count", "3", "0", "2"]) == 2


def test_cmd_bound_omega(capsys):
    assert cli.main(["bound", "2", "2", "1", "--omega", "2", "2"]) == 0
    assert "e0 + 2*e1 + 2*e2 <= 6" in capsys.readouterr().out


# --- bench ----------------------------------------------------------------


def test_cmd_bench_tables(capsys):
    assert cli.main(["bench", "tables"]) == 0
    out = capsys.readouterr().out
    assert "11/11" in out


def test_cmd_bench_examples(capsys):
    assert cli.main(["bench", "examples"]) == 0
    out = capsys.readouterr().out
    assert "2/2" in out


def test_cmd_bench_bad_suite():
    with pytest.raises(SystemExit) as err:
        cli.main(["bench", "nope"])
    assert err.value.code == 2


# --- round trips ----------------------------------------------------------


def test_model_print_parse_round_trip():
    for name in os.listdir(MODELS):
        with open(os.path.join(MODELS, name)) as fh:
            sys_ = parse_system(fh.read())
        assert parse_system(sys_.render()).g == sys_.g


# --- public names ------------------------------------------------------------


def test_public_names_resolve():
    import odelim
    from odelim import arith, ode, poly

    assert [name for name in odelim.__all__ if not hasattr(odelim, name)] == []
    assert len(set(odelim.__all__)) == len(odelim.__all__)
    namespace = {}
    exec("from odelim import *", namespace)
    assert set(odelim.__all__) <= set(namespace)
    # QQ is the only coefficient domain: no prime-field polynomials; and the
    # prolonged operator L*, with the names that served only it, lives on in
    # the tests as _gen.prolong
    gone = (
        (odelim, "GF"), (odelim, "PrimeField"), (poly, "GF"), (arith, "PrimeField"),
        (odelim, "lie_star"), (ode, "lie_star"), (poly.VarSpace, "mixed"),
        (poly.SparsePoly, "embed"), (poly.SparsePoly, "exact_divide"),
    )
    for module, name in gone:
        assert name not in getattr(module, "__all__", ()) and not hasattr(module, name)
