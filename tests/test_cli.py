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
import platform
import subprocess
import sys

import numpy as np
import pytest

from deltagreen import bare_1d, center
from deltagreen import cli as cli_mod
from deltagreen.cli import _render, main
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


def test_bound_default_window_reaches_the_largest_finite_energy(capsys):
    # the default bottom -(4 kappa_max)^2 overflowed to -inf once -E_B passed
    # ~1.1e307 (exit 3); it stops at the largest finite -kappa^2 instead
    pair = ("bound", "--dim", "3", "--center", "0,0,0:eb=-2e307", "--center", "1,0,0:eb=-2e307")
    rows = run_json(capsys, *pair)["rows"]
    assert [row[:2] for row in rows] == [[0, -2e307], [1, -2e307]]
    assert rows == run_json(capsys, *pair, "--emin=-1.7e308", "--emax=-1")["rows"]


def test_bound_shallow_pair_is_two_states(capsys):
    # a tol absolute in energy refined these roots only to 1e-12 and merged
    # them: one energy, -1.4999999999424529e-12, printed twice; tol |E| does not
    pair = ("bound", "--dim", "3", "--center", "0,0,0:eb=-1e-12", "--center", "1e7,0,0:eb=-2e-12")
    got = [row[1] for row in run_json(capsys, *pair)["rows"]]
    want = [row[1] for row in run_json(capsys, *pair, "--tol", "1e-30")["rows"]]
    assert len(set(got)) == 2
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert want == pytest.approx([-2.000000000000035e-12, -9.999999999004786e-13], rel=1e-12)


# lambda_R = -0.01 at mu = 1: E_B = -exp(-400 pi) underflows to -0.0, yet the
# center is live (ln kappa_B = -200 pi); the references are a scipy brentq on
# det M and a 2x2 solve, with scipy's K0 and the ln kappa_B denominators
WEAK_2D = ("--dim", "2", "--center", "0,0:lambdaR=-0.01,mu=1", "--center", "2,0:eb=-1")


def test_weak_2d_coupling_keeps_its_center(capsys):
    [row] = run_json(capsys, "bound", *WEAK_2D)["rows"]
    assert row[1] == pytest.approx(-1.0000412872313267, rel=1e-13)
    code, out, err = run_cli(capsys, "green", *WEAK_2D, "--energy", "-0.7", "--x", "1,0", "--y", "0,1")
    assert (code, err) == (0, "")
    assert json.loads(out)["rows"][0][2] == pytest.approx(0.011893935954371639, rel=1e-12)


@pytest.mark.parametrize("coupling", [
    "lambdaR=-0.01,mu=1",  # E_B underflows
    "lambdaR=5.561078970618804e+73,mu=2.624634836309935e+165",  # E_B overflows
])
@pytest.mark.parametrize("method", ["auto", "scan"])
def test_a_lone_2d_state_beyond_the_doubles_exits_3(capsys, coupling, method):
    code, out, err = run_cli(capsys, "bound", "--dim", "2", "--center", f"0,0:{coupling}",
                             "--method", method)
    assert (code, out, json.loads(err)["error"]) == (3, "", "DomainError")


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


# per kernel set (tests/conftest.py): the rounding noise, and so the grid
# point where it first raises the count, moves with the SIMD and BLAS kernels
@pytest.mark.parametrize("argv, energies", [
    (THREE_1D + ("--emax=-1e-40",), {("X86_V4", "SkylakeX"): -8.410310505352607e-40,
                                      ("X86_V3", "Haswell"): -3.706144138266221e-38}),
    (THREE_1D + ("--emax=-1e-300",), {("X86_V4", "SkylakeX"): -1.9085421440067208e-295,
                                       ("X86_V3", "Haswell"): -6.95192796177599e-285}),
    (SIX_1D, {("X86_V4", "SkylakeX"): -1.8932109762835708e-36,
              ("X86_V3", "Haswell"): -2.3478630949303434e-36}),
], ids=["three-1e-40", "three-1e-300", "six"])
def test_bound_count_rising_as_e_falls_is_a_computational_failure(capsys, kernel_pin, argv,
                                                                 energies):
    # a scan without this guard printed a spurious -6.5e-40, dropped -0.45497,
    # and gave 2 of the six centers' 4 states, each with exit 0; the energy
    # is the grid point where the count first rises
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    doc = _strict_json(err)
    assert doc["error"] == "NonConvergence"
    assert doc["details"]["energy"] == kernel_pin(energies)


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
    ("rgflow", "--dim", "2", "--lambda-r", "3", "--mu", "1e-200", "--cutoffs", "1e150"),
]


@pytest.mark.parametrize("argv", EXTREME_ARGVS, ids=lambda argv: " ".join(argv[:3]))
def test_extreme_finite_inputs_are_computational_failures(capsys, argv):
    for fmt in ((), ("--format", "csv")):
        code, out, err = run_cli(capsys, *argv, *fmt)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert _strict_json(err)["error"] == "DomainError"


def test_result_table_refuses_non_finite_cells():
    with pytest.raises(DomainError) as info:
        _render([("a", "1"), ("eb", "1/L^2")], [[1.0, -math.inf]], {}, "json")
    assert info.value.details["column"] == "eb"
    # non-finite cells in two rows and two columns: the first in row order is named
    rows = [[1.0, 2.0, 3.0], [4.0, 5.0, math.nan], [7.0, math.inf, 9.0]]
    with pytest.raises(DomainError) as info:
        _render([("a", "1"), ("b", "1"), ("c", "1")], rows, {}, "csv")
    assert info.value.details["column"] == "c"


def test_error_payload_is_strict_json(capsys):
    # a finite coupling so weak that E_B = -(4 pi / lambda_R)^2 overflows
    code, _, err = run_cli(capsys, "scatter", "--dim", "3", "--lambda-r", "1e-300", "--k", "1")
    assert code == 3
    assert _strict_json(err)["details"] == {"e_b": "-inf"}


def test_strict_payload_values_reach_into_lists_and_tuples():
    payload = {"a": [1.0, math.inf, (-math.inf, "x")], "b": {"c": math.nan}}
    assert cli_mod._strict(payload) == {"a": [1.0, "inf", ["-inf", "x"]], "b": {"c": "nan"}}


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
        columns = [("a", "1"), ("b", "L"), ("c", "1/L^2")]
        metadata = {"command": "synthetic"}
        assert json.loads(_render(columns, rows, metadata, "json"))["rows"] == rows
        reader = csv.reader(io.StringIO(_render(columns, rows, metadata, "csv")))
        next(reader)
        assert [[float(c) for c in row] for row in reader] == rows


def test_result_table_empty_rows():
    assert json.loads(_render([("a", "1")], [], {}, "json"))["rows"] == []
    assert _render([("a", "1")], [], {}, "csv") == "a[1]\r\n"


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


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="X86_V4 names x86 features")
@pytest.mark.parametrize("argv", [("verify", "--fast"), ("verify",)])
def test_verify_bytes_are_the_same_on_the_second_kernel_set(argv):
    # numpy dispatches exp and log to AVX-512 kernels where the CPU has them;
    # disabling X86_V4 runs the kernels of a CPU without AVX-512
    here = run_subprocess(*argv)
    emulated = run_subprocess(*argv, env_extra={"NPY_DISABLE_CPU_FEATURES": "X86_V4"})
    assert here.returncode == emulated.returncode == 0, here.stderr + emulated.stderr
    assert here.stdout == emulated.stdout


def test_verify_residue_norm_still_fails_a_psi_off_by_1e_5(capsys, monkeypatch):
    # the cell is rounded to 1e-13, so the kernels' last bits cannot move it,
    # yet a psi scaled by 1 + 1e-5 (norm 1 + 2e-5) still fails the 1e-6 check
    psi = cli_mod.residue_wavefunction
    monkeypatch.setattr(cli_mod, "residue_wavefunction", lambda state, x: (1.0 + 1e-5) * psi(state, x))
    code, out, _ = run_cli(capsys, "verify", "--fast")
    assert code == 4
    doc = _strict_json(out)
    row = doc["rows"][doc["metadata"]["check_names"].index("residue_normalization_1d")]
    assert row[1] == 0
    assert row[2] == pytest.approx(2e-5, rel=1e-5)


def test_cli_import_loads_no_scipy():
    # the oracles import scipy where they use it: a command that runs none
    # starts without it (about 0.2 s of a 0.3 s cold call)
    code = "import deltagreen.cli, sys; print([m for m in sys.modules if m.startswith('scipy')])"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_cold_verify_loads_no_scipy_optimize_or_integrate():
    # the oracles bisect (roots, and Sturm counts after Newton steps), solve
    # the lattice by the Thomas algorithm and integrate in decimal and float
    # arithmetic, and complex K0 takes Steed's continued fraction: no runtime
    # path loads any scipy or mpmath module (both are test references only)
    run = (
        "import contextlib, io, sys\n"
        "from deltagreen.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main({argv!r})\n"
    )
    # a 2D G at complex E with |kappa r| ~ 3 and ~5 off the real axis
    green_2d = (
        "from deltagreen import ComplexEnergy, SpatialPoint, center, from_bound_state, green\n"
        "cs = [center((0.0, 0.0), from_bound_state(-1.0)), center((3.0, 0.0), from_bound_state(-1.0))]\n"
        "e = ComplexEnergy(complex(-1.0, 0.5))\n"
        "g = green(2, e, SpatialPoint((0.5, 0.2)), SpatialPoint((5.0, 1.0)), cs).value\n"
        "code = 0 if abs(g) > 0.0 else 1\n"
    )
    report = "import sys\nprint(code, [m for m in sys.modules if m.startswith(('scipy', 'mpmath'))])\n"
    g0_call = run.format(argv=["g0", "--dim", "2", "--energy", "-1", "--r", "1"])
    for code in (run.format(argv=["verify"]), run.format(argv=["verify", "--fast"]), g0_call, green_2d):
        res = subprocess.run([sys.executable, "-c", code + report], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "0 []\n", code
