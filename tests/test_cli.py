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

from deltagreen import bare_1d, center
from deltagreen import cli as cli_mod
from deltagreen.cli import ResultTable, main
from deltagreen.errors import DomainError
from deltagreen.oracles import shooting1d

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


# three 1D centers, and six with one binding at -1.5266e-30: below kappa ~
# 1e-15 M(E) ~ 11^T / (2 kappa), and its O(1) eigenvalues, whose signs count
# the states, are rounding noise
THREE_1D = ("bound", "--dim", "1", "--center", "0:lambda=-2", "--center", "1:lambda=-1",
            "--center", "2.5:lambda=-1.5", "--emin", "-10")
SIX_1D_EB = ((0.264, -1.5266e-30), (0.656, -1.2013), (4.317, -1.8864), (9.706, -1.6777),
             (13.012, -0.2548), (14.604, -1.7505))
SIX_1D = ("bound", "--dim", "1") + tuple(
    arg for x, e_b in SIX_1D_EB for arg in ("--center", f"{x}:eb={e_b}")
)


@pytest.mark.parametrize("argv", [THREE_1D + ("--emax=-1e-40",), THREE_1D + ("--emax=-1e-300",),
                                  SIX_1D], ids=["three-1e-40", "three-1e-300", "six"])
def test_bound_count_rising_as_e_falls_is_a_computational_failure(capsys, argv):
    # the parent printed a spurious -6.5e-40, dropped -0.45497, and gave 2 of
    # the six centers' 4 states, each with exit 0
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert _strict_json(err)["error"] == "NonConvergence"


def test_bound_windows_above_the_noise_agree_with_shooting(capsys):
    three = [center(0.0, bare_1d(-2.0)), center(1.0, bare_1d(-1.0)), center(2.5, bare_1d(-1.5))]
    six = [center(x, bare_1d(-2.0 * math.sqrt(-e_b))) for x, e_b in SIX_1D_EB]
    cases = [(THREE_1D + ("--emax=-1e-6",), three, math.sqrt(10.0), [-1.24271, -0.45497]),
             (SIX_1D + ("--emin", "-9", "--emax", "-1e-6"), six, 3.0,
              [-1.88706, -1.78163, -1.67717, -1.19739])]
    for argv, cs, kap_hi, want in cases:
        shot = sorted(-k * k for k in shooting1d(cs, (1e-3, kap_hi), 4000))
        energies = [row[1] for row in run_json(capsys, *argv)["rows"]]
        assert energies == pytest.approx(shot, rel=1e-10)
        assert energies == pytest.approx(want, abs=1e-5)


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


# finite inputs whose results leave double precision
EXTREME_ARGVS = [
    ("friedman", "--k", "1e-300", "--cutoffs", "1,2"),
    ("trivial", "--dim", "2", "--lam", "1", "--energy", "-1e-320"),
    ("trivial", "--dim", "3", "--lam", "1e-320", "--energy", "-1"),
    ("rgflow", "--dim", "3", "--lambda-r", "1e-300"),
]


@pytest.mark.parametrize("argv", EXTREME_ARGVS, ids=lambda argv: " ".join(argv[:3]))
def test_extreme_finite_inputs_are_computational_failures(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert _strict_json(err)["error"] == "DomainError"


def test_result_table_refuses_non_finite_cells():
    with pytest.raises(DomainError) as info:
        ResultTable(columns=[("a", "1"), ("eb", "1/L^2")], rows=[[1.0, -math.inf]])
    assert info.value.details["column"] == "eb"


def test_error_payload_is_strict_json(capsys):
    # a finite coupling so weak that E_B = -(4 pi / lambda_R)^2 overflows
    code, _, err = run_cli(capsys, "scatter", "--dim", "3", "--lambda-r", "1e-320", "--k", "1")
    assert code == 3
    assert _strict_json(err)["details"] == {"e_b": "-inf"}


def test_exit_4_when_a_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "CHECKS", {"rigged": lambda fast: [("rigged", 1.0, 1e-6)]})
    code, out, _ = run_cli(capsys, "verify")
    assert code == 4
    doc = json.loads(out)  # the table is still emitted before exiting
    assert doc["rows"] == [[1, 0, 1.0, 1e-06]]


def test_verify_reports_a_state_count_mismatch(capsys, monkeypatch):
    shooting = cli_mod.oracles.shooting1d
    monkeypatch.setattr(
        cli_mod.oracles, "shooting1d", lambda *args, **kwargs: shooting(*args, **kwargs)[1:]
    )
    code, out, _ = run_cli(capsys, "verify", "--fast")
    assert code == 4
    doc = _strict_json(out)
    row = doc["rows"][doc["metadata"]["check_names"].index("shooting_two_delta")]
    assert row[1] == 0
    assert row[2] == 1.0  # one state missing


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
    # only --policy selects the branch; the environment is no input
    argv = ("scatter", "--dim", "3", "--eb", "-1", "--k", "1")
    res = run_subprocess(*argv, env_extra={"DELTAGREEN_BRANCH_POLICY": "paper"})
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["metadata"]["branch_policy"] == "unitary"
    assert doc["rows"][0][5] == 0.0
    res = run_subprocess(*argv, "--policy", "paper")
    doc = json.loads(res.stdout)
    assert doc["metadata"]["branch_policy"] == "paper"
    assert doc["rows"][0][5] == -1.0


def test_subprocess_verify_fast():
    res = run_subprocess("verify", "--fast")
    assert res.returncode == 0, res.stdout + res.stderr
    doc = json.loads(res.stdout)
    assert len(doc["rows"]) == len(doc["metadata"]["check_names"])
    assert all(row[1] == 1 for row in doc["rows"])
    assert all(row[2] <= row[3] for row in doc["rows"])


def test_cli_import_loads_no_scipy():
    # the oracles import scipy where they use it: a command that runs none
    # starts without it (about 0.2 s of a 0.3 s cold call)
    code = "import deltagreen.cli, sys; print([m for m in sys.modules if m.startswith('scipy')])"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
