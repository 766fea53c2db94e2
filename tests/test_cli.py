"""CLI surface: tables, formats, exit codes, determinism.

Most cases drive ``main(argv)`` in-process and capture stdout/stderr with
capsys; a few go through a real subprocess to cover the module entry point
and environment handling end to end.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from deltagreen import cli as cli_mod
from deltagreen.cli import ResultTable, main

FOUR_PI = 4.0 * math.pi


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_subprocess(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "deltagreen", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


# ------------------------------------------------------------------ tables


def test_g0_json_table(capsys):
    doc = run_json(capsys, "g0", "--dim", "3", "--energy", "-1", "--r", "1")
    assert doc["columns"] == [["r", "L"], ["re_g0", "1/L"], ["im_g0", "1/L"]]
    assert doc["rows"] == [[1.0, -0.029274915762159584, 0.0]]
    meta = doc["metadata"]
    assert meta["command"] == "g0"
    assert meta["branch_policy"] == "unitary"
    assert meta["params"]["dim"] == 3
    assert "version" in meta


def test_g0_coincident_1d(capsys):
    doc = run_json(capsys, "g0", "--dim", "1", "--energy", "-4", "--r", "0")
    assert doc["rows"] == [[0.0, -0.25, 0.0]]


def test_g0_grid(capsys):
    doc = run_json(capsys, "g0", "--dim", "1", "--energy", "-1", "--r-grid", "0.5:2.5:5")
    assert [row[0] for row in doc["rows"]] == [0.5, 1.0, 1.5, 2.0, 2.5]


def test_g0_retarded_has_imaginary_part(capsys):
    doc = run_json(capsys, "g0", "--dim", "1", "--energy", "4", "--retarded", "--r", "0")
    assert doc["rows"][0][1] == 0.0
    assert doc["rows"][0][2] == -0.25


def test_green_single_center(capsys):
    doc = run_json(
        capsys,
        "green", "--dim", "1", "--energy", "-2",
        "--center", "0:lambda=-2", "--x", "0.3", "--y", "-0.2",
    )
    assert doc["columns"] == [["x1", "L"], ["re_g", "L"], ["im_g", "L"]]
    assert doc["rows"] == [[0.3, -0.5951865609739708, 0.0]]


def test_bound_1d(capsys):
    doc = run_json(capsys, "bound", "--dim", "1", "--center", "0:lambda=-2")
    assert doc["rows"] == [[0, -1.0, 1.0]]


def test_bound_2d_transmutation(capsys):
    doc = run_json(
        capsys, "bound", "--dim", "2",
        "--center", f"0,0:lambdaR={-FOUR_PI!r},mu=1",
    )
    assert doc["rows"][0][1] == pytest.approx(-math.exp(-1.0), rel=1e-14)


def test_bound_3d_from_eb(capsys):
    doc = run_json(capsys, "bound", "--dim", "3", "--center", "0,0,0:eb=-2.25")
    assert doc["rows"] == [[0, -2.25, 1.5]]


def test_scatter_3d_reference_row(capsys):
    doc = run_json(capsys, "scatter", "--dim", "3", "--eb", "-1", "--k", "1")
    k, re_f, im_f, abs2, sigma, resid = doc["rows"][0]
    assert (k, re_f, im_f) == (1.0, -0.5, 0.5)
    assert abs2 == pytest.approx(0.5, rel=1e-15)
    assert sigma == 6.283185307179586
    assert resid == 0.0


def test_scatter_3d_lambda_r_equivalent(capsys):
    via_eb = run_json(capsys, "scatter", "--dim", "3", "--eb", "-1", "--k", "1")
    via_lr = run_json(
        capsys, "scatter", "--dim", "3", "--lambda-r", repr(FOUR_PI), "--k", "1"
    )
    assert via_eb["rows"] == via_lr["rows"]


def test_scatter_1d(capsys):
    doc = run_json(capsys, "scatter", "--dim", "1", "--lam", "-2", "--k", "1")
    assert doc["columns"][0] == ["k", "1/L"]
    assert doc["rows"] == [[1.0, 0.5, 0.5]]


def test_scatter_paper_policy(capsys):
    doc = run_json(
        capsys, "scatter", "--dim", "3", "--eb", "-1", "--k", "1", "--policy", "paper"
    )
    assert doc["metadata"]["branch_policy"] == "paper"
    row = doc["rows"][0]
    assert row[2] == -0.5  # conjugated amplitude
    assert row[4] == 6.283185307179586  # cross-section unchanged
    assert row[5] == -1.0  # optical-theorem residual


def test_rgflow_3d(capsys):
    doc = run_json(
        capsys, "rgflow", "--dim", "3", "--lambda-r", repr(FOUR_PI),
        "--cutoffs", "1e2,1e4,1e6",
    )
    rows = doc["rows"]
    assert all(row[3] == pytest.approx(-1.0, rel=1e-15) for row in rows)
    bares = [row[1] for row in rows]
    assert all(b < 0.0 for b in bares)
    assert all(a < b for a, b in zip(bares, bares[1:]))
    assert rows[-1][2] == pytest.approx(-2.0 * math.pi**2, rel=1e-4)


def test_rgflow_2d_scheme_invariance(capsys):
    doc = run_json(
        capsys, "rgflow", "--dim", "2", "--lambda-r", repr(-FOUR_PI), "--mu", "1",
        "--cutoffs", "1e2,1e3,1e4",
    )
    for row in doc["rows"]:
        assert row[4] == pytest.approx(-math.exp(-1.0), rel=1e-12)
    assert [row[2] for row in doc["rows"]] == [1.0, 2.0, 4.0]


def test_friedman_values(capsys):
    doc = run_json(capsys, "friedman", "--k", "1", "--cutoffs", "10,100")
    n16pi2 = 16.0 * math.pi**2
    assert doc["rows"][0][3] == pytest.approx(math.log(101.0) / n16pi2, rel=1e-14)
    assert doc["rows"][1][3] == pytest.approx(math.log(10001.0) / n16pi2, rel=1e-14)


def test_trivial_correction_dies(capsys):
    # decay is logarithmic in 2D and linear in 3D, monotone in both
    for dim, shrink in (("2", 0.7), ("3", 1e-2)):
        doc = run_json(
            capsys, "trivial", "--dim", dim, "--lam", "1", "--energy", "-1",
            "--cutoffs", "1e2,1e3,1e4,1e5",
        )
        corrections = [row[2] for row in doc["rows"]]
        assert all(a > b for a, b in zip(corrections, corrections[1:]))
        assert corrections[-1] < shrink * corrections[0]
        # correction * |denominator| is the cutoff-independent |G0|^2
        products = [row[2] * abs(row[1]) for row in doc["rows"]]
        assert products == pytest.approx([products[0]] * len(products), rel=1e-12)


# ------------------------------------------------------------- exit codes


def test_exit_2_on_bad_center_key(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--dim", "1", "--center", "0:gamma=-2"
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidInput"


def test_exit_2_on_spec_violations(capsys):
    cases = [
        ("scatter", "--dim", "2", "--k", "1"),
        ("scatter", "--dim", "3", "--lambda-r", "-1", "--k", "1"),
        ("scatter", "--dim", "3", "--eb", "-1", "--lambda-r", "1", "--k", "1"),
        ("scatter", "--dim", "1", "--lam", "-2", "--eb", "-1", "--k", "1"),
        ("scatter", "--dim", "3", "--eb", "-1"),
        ("g0", "--dim", "1", "--energy", "-1", "--r", "1", "--r-grid", "0:1:3"),
        ("bound", "--dim", "1", "--center", "0:lambda=-2", "--emin", "-2"),
        ("rgflow", "--dim", "3", "--lambda-r", "-1"),
        ("trivial", "--dim", "2", "--lam", "-1", "--energy", "-1"),
        ("bogus-command",),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(err)["error"] in ("InvalidInput", "IllegalSpec")


def test_exit_3_on_computational_failure(capsys):
    code, _, err = run_cli(capsys, "g0", "--dim", "2", "--energy", "-1", "--r", "0")
    assert code == 3
    assert json.loads(err)["error"] == "CoincidentPoints"
    code, _, err = run_cli(
        capsys,
        "green", "--dim", "1", "--energy", "-1",
        "--center", "0:lambda=-2", "--x", "0.3", "--y", "0.4",
    )
    assert code == 3
    assert json.loads(err)["error"] == "AtPole"


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


# every subcommand that takes a float, each with one non-finite value
NON_FINITE_ARGVS = [
    ("trivial", "--dim", "3", "--lam", "inf", "--energy", "-1"),
    ("g0", "--dim", "3", "--energy", "nan", "--r", "1"),
    ("green", "--dim", "3", "--energy", "-1", "--center", "0,0,0:eb=-1",
     "--x", "inf,0,0", "--y", "1,0,0"),
    ("bound", "--dim", "1", "--center", "0:lambda=-2", "--tol", "nan"),
    ("scatter", "--dim", "3", "--eb", "-1", "--k", "-inf"),
    ("rgflow", "--dim", "2", "--lambda-r", "-1", "--mu", "1", "--cutoffs", "1e2,nan"),
    ("friedman", "--k", "1", "--cutoffs", "1e2,inf"),
]


@pytest.mark.parametrize("argv", NON_FINITE_ARGVS, ids=lambda argv: argv[0])
def test_non_finite_numbers_are_invalid_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert _strict_json(err)["error"] == "InvalidInput"


def test_error_payload_is_strict_json(capsys):
    # a finite coupling so weak that E_B = -(4 pi / lambda_R)^2 overflows
    code, _, err = run_cli(capsys, "scatter", "--dim", "3", "--lambda-r", "1e-320", "--k", "1")
    assert code == 3
    assert _strict_json(err)["details"] == {"e_b": "-inf"}


def test_exit_4_when_a_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(
        cli_mod, "_verify_checks", lambda fast: [("rigged", 1.0, 1e-6)]
    )
    code, out, _ = run_cli(capsys, "verify")
    assert code == 4
    doc = json.loads(out)  # the table is still emitted before exiting
    assert doc["rows"] == [[1, 0, 1.0, 1e-06]]


def test_help_and_version(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "deltagreen" in out
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "verify" in out


# ----------------------------------------------------------------- formats


def test_csv_bytes_exact(capsys):
    code, out, _ = run_cli(
        capsys, "scatter", "--dim", "1", "--lam", "-2", "--k", "1", "--format", "csv"
    )
    assert code == 0
    assert out == "k[1/L],transmission[1],reflection[1]\r\n1.0,0.5,0.5\r\n"


def test_csv_floats_round_trip(capsys):
    doc = run_json(capsys, "g0", "--dim", "3", "--energy", "-1", "--r-grid", "0.5:3:6")
    code, out, _ = run_cli(
        capsys, "g0", "--dim", "3", "--energy", "-1", "--r-grid", "0.5:3:6",
        "--format", "csv",
    )
    assert code == 0
    reader = csv.reader(io.StringIO(out))
    header = next(reader)
    assert header == ["r[L]", "re_g0[1/L]", "im_g0[1/L]"]
    parsed = [[float(cell) for cell in row] for row in reader]
    assert parsed == doc["rows"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run_cli(
        capsys, "bound", "--dim", "1", "--center", "0:lambda=-2",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["rows"] == [[0, -1.0, 1.0]]


def test_result_table_random_round_trip():
    rng = np.random.default_rng(987)
    for _ in range(5):
        n_rows = int(rng.integers(1, 6))
        rows = [
            [float(v) for v in rng.normal(scale=10.0 ** rng.integers(-8, 9), size=3)]
            for _ in range(n_rows)
        ]
        table = ResultTable(
            columns=[("a", "1"), ("b", "L"), ("c", "1/L^2")],
            rows=rows,
            metadata={"command": "synthetic"},
        )
        assert json.loads(table.to_json())["rows"] == rows
        reader = csv.reader(io.StringIO(table.to_csv()))
        next(reader)
        assert [[float(c) for c in row] for row in reader] == rows


def test_result_table_empty_rows():
    table = ResultTable(columns=[("a", "1")], rows=[], metadata={})
    assert json.loads(table.to_json())["rows"] == []
    assert table.to_csv() == "a[1]\r\n"


# -------------------------------------------------------------- subprocess


def test_subprocess_entry_point_and_determinism():
    argv = ("scatter", "--dim", "3", "--eb", "-1", "--k-grid", "0.1:5:7")
    first = run_subprocess(*argv)
    second = run_subprocess(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


def test_subprocess_env_policy():
    env = {"DELTAGREEN_BRANCH_POLICY": "paper"}
    res = run_subprocess("scatter", "--dim", "3", "--eb", "-1", "--k", "1", env_extra=env)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["metadata"]["branch_policy"] == "paper"
    assert doc["rows"][0][5] == -1.0
    # explicit flag beats the environment
    res = run_subprocess(
        "scatter", "--dim", "3", "--eb", "-1", "--k", "1", "--policy", "unitary",
        env_extra=env,
    )
    assert json.loads(res.stdout)["rows"][0][5] == 0.0
    # an invalid environment value is a clean input error, not a traceback
    res = run_subprocess(
        "scatter", "--dim", "3", "--eb", "-1", "--k", "1",
        env_extra={"DELTAGREEN_BRANCH_POLICY": "sideways"},
    )
    assert res.returncode == 2


def test_subprocess_verify_fast():
    res = run_subprocess("verify", "--fast")
    assert res.returncode == 0, res.stdout + res.stderr
    doc = json.loads(res.stdout)
    assert len(doc["rows"]) == len(doc["metadata"]["check_names"])
    assert all(row[1] == 1 for row in doc["rows"])
    assert all(row[2] <= row[3] for row in doc["rows"])
