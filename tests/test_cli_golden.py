"""Golden CLI tables: the table layer's exact bytes, locked.

Tables whose numbers come from Python's ``math`` module and float arithmetic
only must match byte for byte, on stdout and through ``--output``, in JSON
and CSV.  Tables that go through numpy's ``exp`` or the Bessel kernels, which
may round differently on other CPUs, must match in metadata, columns and
row count exactly and in every number to a relative 1e-14.  So must
``verify`` and ``verify --fast``, whose checks keep their names, order,
verdicts and tolerances exactly.  Invalid inputs must print exactly the recorded error
line.
"""

import json

import pytest

from deltagreen.cli import main

EXACT = {
    'scatter --dim 1 --lam -2 --k 0.5 --k 1 --k 3': (
        '{"columns":[["k","1/L"],["transmission","1"],["reflection","1"]],'
        '"metadata":{"branch_policy":"unitary","command":"scatter","params":{"dim":1,"eb":null,"k":[0.5,1.0,3.0],"lam":-2.0,"lambda_r":null,"policy":null},"version":"0.1.0"},'
        '"rows":[[0.5,0.2,0.8],[1.0,0.5,0.5],[3.0,0.9,0.09999999999999998]]}\n'
    ),
    'scatter --dim 1 --lam 3 --k-grid 0.1:10:4 --policy paper --format csv': (
        'k[1/L],transmission[1],reflection[1]\r\n'
        '0.1,0.004424778761061949,0.995575221238938\r\n'
        '3.4000000000000004,0.837074583635047,0.16292541636495295\r\n'
        '6.7,0.9522698345354264,0.04773016546457365\r\n'
        '10.0,0.9779951100244498,0.022004889975550168\r\n'
    ),
    'scatter --dim 3 --eb -1 --k 0.5 --k 2': (
        '{"columns":[["k","1/L"],["re_f","L"],["im_f","L"],["abs_f_sq","L^2"],["sigma","L^2"],["optical_residual","L"]],'
        '"metadata":{"branch_policy":"unitary","command":"scatter","params":{"dim":3,"eb":-1.0,"k":[0.5,2.0],"lam":null,"lambda_r":null,"policy":null},"version":"0.1.0"},'
        '"rows":[[0.5,-0.8,0.4,0.8000000000000002,10.053096491487338,0.0],[2.0,-0.2,0.4,0.20000000000000004,2.5132741228718345,0.0]]}\n'
    ),
    'scatter --dim 3 --eb -2.5 --k-grid 0.1:5:3 --policy paper --format csv': (
        'k[1/L],re_f[L],im_f[L],abs_f_sq[L^2],sigma[L^2],optical_residual[L]\r\n'
        '0.1,-0.6299357888781631,-0.039840637450199196,0.3984063745019919,5.006522157115207,-0.07968127490039839\r\n'
        '2.5500000000000003,-0.17563330520235373,-0.2832546514856984,0.11108025548458761,1.3958756583570309,-0.5665093029713968\r\n'
        '5.0,-0.0574959574576069,-0.18181818181818182,0.03636363636363637,0.4569589314312426,-0.36363636363636365\r\n'
    ),
    'scatter --dim 3 --lambda-r 12.566370614359172 --k 1 --output FILE': (
        '{"columns":[["k","1/L"],["re_f","L"],["im_f","L"],["abs_f_sq","L^2"],["sigma","L^2"],["optical_residual","L"]],'
        '"metadata":{"branch_policy":"unitary","command":"scatter","params":{"dim":3,"eb":null,"k":[1.0],"lam":null,"lambda_r":12.566370614359172,"policy":null},"version":"0.1.0"},'
        '"rows":[[1.0,-0.5,0.5,0.5000000000000001,6.283185307179586,0.0]]}\n'
    ),
    'rgflow --dim 2 --lambda-r -3 --mu 2 --cutoffs 1e2,1e4': (
        '{"columns":[["lambda_cap","1/L"],["bare_lambda","1"],["mu_prime","1/L"],["lambda_r_prime","1"],["eb","1/L^2"]],'
        '"metadata":{"branch_policy":"unitary","command":"rgflow","params":{"cutoffs":"1e2,1e4","dim":2,"eb":null,"lambda_r":-3.0,"mu":2.0},"version":"0.1.0"},'
        '"rows":[[100.0,-1.046078577013786,2.0,-3.0,-0.06065847945818631],[10000.0,-0.5921060196846365,4.0,-2.2540233185353293,-0.060658479458186296]]}\n'
    ),
    'rgflow --dim 3 --eb -2 --cutoffs 10,100 --format csv': (
        'lambda_cap[1/L],bare_lambda[L],bare_times_cutoff[1],eb[1/L^2]\r\n'
        '10.0,-2.5376435394440633,-25.376435394440634,-2.0\r\n'
        '100.0,-0.20187665986031617,-20.187665986031618,-2.0\r\n'
    ),
    'friedman --k 2.5 --cutoffs 10,20,40': (
        '{"columns":[["lambda_cap","1/L"],["total_bubble","1/L^2"],["quadratic_part","1/L^2"],["nonremovable_part","1/L^2"]],'
        '"metadata":{"branch_policy":"unitary","command":"friedman","params":{"cutoffs":"10,20,40","k":2.5},"version":"0.1.0"},'
        '"rows":[[10.0,0.5211228159165479,0.6332573977646111,0.1121345818480632],[20.0,2.367813239821205,2.5330295910584444,0.16521635123723938],[40.0,9.912493771638866,10.132118364233778,0.21962459259491146]]}\n'
    ),
    'friedman --k 1 --format csv --output FILE': (
        'lambda_cap[1/L],total_bubble[1/L^2],quadratic_part[1/L^2],nonremovable_part[1/L^2]\r\n'
        '100.0,63.26741398147053,63.32573977646111,0.05832579499057679\r\n'
        '1000.0,6332.486489897131,6332.573977646111,0.08748774897983047\r\n'
        '10000.0,633257.2811142874,633257.397764611,0.11665032359300528\r\n'
        '100000.0,63325739.63064821,63325739.77646111,0.1458129044127327\r\n'
    ),
    'bound --dim 1 --center 0:lambda=-2': (
        '{"columns":[["index","1"],["energy","1/L^2"],["kappa","1/L"]],'
        '"metadata":{"branch_policy":"unitary","command":"bound","params":{"center":["0:lambda=-2"],"dim":1,"emax":null,"emin":null,"grid_points":400,"method":"auto","tol":1e-12},"version":"0.1.0"},'
        '"rows":[[0,-1.0,1.0]]}\n'
    ),
    'bound --dim 3 --center 0,0,0:lambdaR=12.566370614359172 --format csv': (
        'index[1],energy[1/L^2],kappa[1/L]\r\n'
        '0,-1.0,1.0\r\n'
    ),
}

ERRORS = {
    'scatter --dim 2 --eb -1 --k 1': (2, '{"details": {"dim": 2}, "error": "IllegalSpec", "message": "scattering observables are implemented for dim 1 and 3 only"}\n'),
    'bound --dim 2 --center 0:lambda=-2': (2, '{"details": {}, "error": "InvalidInput", "message": "Invalid value: --center position: expected 2 coordinates, got 1"}\n'),
    'trivial --dim 3 --lam inf --energy -1': (2, '{"details": {}, "error": "InvalidInput", "message": "Invalid value for \'--lam\': \'inf\' is not a finite number"}\n'),
    'g0 --dim 3 --energy -1 --r-grid 0:1:x': (2, '{"details": {}, "error": "InvalidInput", "message": "Invalid value: --r-grid: expected start:stop:count with numeric fields"}\n'),
    'bound --dim 1 --center 0': (2, '{"details": {}, "error": "InvalidInput", "message": "Invalid value: --center: missing \':\' in \'0\'"}\n'),
    'bound --dim 1 --center 0:lambda=-1,lambda=-2': (2, '{"details": {}, "error": "InvalidInput", "message": "Invalid value: --center: duplicate key \'lambda\'"}\n'),
    'rgflow --dim 2 --eb -1': (2, '{"details": {}, "error": "InvalidInput", "message": "Invalid value: dim 2 takes --lambda-r and --mu"}\n'),
    'rgflow --dim 3 --lambda-r 1 --mu 1': (2, '{"details": {}, "error": "InvalidInput", "message": "Invalid value: dim 3 takes exactly one of --lambda-r or --eb, no --mu"}\n'),
}

CLOSE = {
    'g0 --dim 2 --energy -1 --r 0.5 --r 2': (
        {'columns': [['r', 'L'], ['re_g0', '1'], ['im_g0', '1']],
         'metadata': {'branch_policy': 'unitary',
                      'command': 'g0',
                      'params': {'dim': 2, 'energy': -1.0, 'r': [0.5, 2.0], 'retarded': False},
                      'version': '0.1.0'},
         'rows': [[0.5, -0.14712586467430191, -0.0], [2.0, -0.018126772835967548, -0.0]]}
    ),
    'g0 --dim 3 --energy 1.5 --retarded --r-grid 0.2:4:3': (
        {'columns': [['r', 'L'], ['re_g0', '1/L'], ['im_g0', '1/L']],
         'metadata': {'branch_policy': 'unitary',
                      'command': 'g0',
                      'params': {'dim': 3,
                                 'energy': 1.5,
                                 'r': [0.2, 2.1, 4.0],
                                 'retarded': True},
                      'version': '0.1.0'},
         'rows': [[0.2, -0.3860103008631055, -0.0964903988422038],
                  [2.1, 0.031910620336562834, -0.020436979419573852],
                  [4.0, -0.0036905975300349355, 0.019549050193658567]]}
    ),
    'green --dim 1 --energy -0.5 --center -1:lambda=-2 --center 1:lambda=3 --x 0.3 --x -2 --y 0.7': (
        {'columns': [['x1', 'L'], ['re_g', 'L'], ['im_g', 'L']],
         'metadata': {'branch_policy': 'unitary',
                      'command': 'green',
                      'params': {'center': ['-1:lambda=-2', '1:lambda=3'],
                                 'dim': 1,
                                 'energy': -0.5,
                                 'retarded': False,
                                 'x': ['0.3', '-2'],
                                 'y': '0.7'},
                      'version': '0.1.0'},
         'rows': [[0.3, -0.1567254721412974, 0.0], [-2.0, 0.1628342523825792, 0.0]]}
    ),
    'green --dim 3 --energy 1.2 --retarded --center 0,0,0:eb=-1 --x 1,1,1 --y 0,0,2': (
        {'columns': [['x1', 'L'], ['x2', 'L'], ['x3', 'L'], ['re_g', '1/L'], ['im_g', '1/L']],
         'metadata': {'branch_policy': 'unitary',
                      'command': 'green',
                      'params': {'center': ['0,0,0:eb=-1'],
                                 'dim': 3,
                                 'energy': 1.2,
                                 'retarded': True,
                                 'x': ['1,1,1'],
                                 'y': '0,0,2'},
                      'version': '0.1.0'},
         'rows': [[1.0, 1.0, 1.0, -0.0006454133444893477, -0.0453045303571815]]}
    ),
    'trivial --dim 2 --lam 0.5 --energy -2 --r 0.7 --cutoffs 1e2,1e4': (
        {'columns': [['lambda_cap', '1/L'], ['denominator', '1'], ['correction_abs', '1']],
         'metadata': {'branch_policy': 'unitary',
                      'command': 'trivial',
                      'params': {'cutoffs': '1e2,1e4',
                                 'dim': 2,
                                 'energy': -2.0,
                                 'lam': 0.5,
                                 'r': 0.7},
                      'version': '0.1.0'},
         'rows': [[100.0, 2.677792612744237, 0.001725739538466283],
                  [10000.0, 3.4107122993122423, 0.0013548995582411052]]}
    ),
}

# verify and verify --fast: the checks' names, order, verdicts and tolerances
# exactly; the errors, oracle against closed form, as numpy tables above
VERIFY_CHECKS = [
    ("g0_quadrature_d1_r0.5", 0.0, 1e-08),
    ("g0_quadrature_d1_r1", 0.0, 1e-08),
    ("g0_quadrature_d1_r2", 0.0, 1e-08),
    ("g0_quadrature_d2_r0.5", 0.0, 1e-08),
    ("g0_quadrature_d2_r1", 0.0, 1e-08),
    ("g0_quadrature_d2_r2", 2.0816681711721685e-17, 1e-08),
    ("g0_quadrature_d3_r0.5", 0.0, 1e-08),
    ("g0_quadrature_d3_r1", 3.469446951953614e-18, 1e-08),
    ("g0_quadrature_d3_r2", 0.0, 1e-08),
    ("g0_quadrature_d1_r0", 0.0, 1e-08),
    ("lattice_bound_state_h0.01", 2.499875008510344e-05, 0.02),
    ("lattice_convergence_order", 0.00021636406784586448, 0.1),
    ("shooting_two_delta", 0.0, 1e-06),
    ("transmutation_mu_invariance", 4.526848610063103e-16, 1e-12),
    ("denominator_limit_2d", 7.997769113643471e-14, 1e-06),
    ("denominator_order_2d", 0.0004397224194763183, 0.2),
    ("root_finder_3d", 0.0, 1e-12),
    ("optical_theorem_unitary", 2.7755575615628914e-17, 1e-14),
    ("transmission_lattice", 6.25007815352463e-06, 0.0001),
    ("shrinking_well_depth", 0.002000594773581721, 0.005),
    ("residue_factorization_1d", 2.9519059974170148e-09, 1e-06),
    ("residue_normalization_1d", 0.0, 1e-06),
]
VERIFY_FAST_CHECKS = [
    ("g0_quadrature_d1_r1", 0.0, 1e-08),
    ("g0_quadrature_d2_r1", 0.0, 1e-08),
    ("g0_quadrature_d3_r1", 3.469446951953614e-18, 1e-08),
    ("g0_quadrature_d1_r0", 0.0, 1e-08),
    ("lattice_bound_state_h0.01", 2.499875008510344e-05, 0.02),
    ("lattice_convergence_order", 0.00021636406784586448, 0.1),
    ("shooting_two_delta", 0.0, 1e-06),
    ("transmutation_mu_invariance", 4.526848610063103e-16, 1e-12),
    ("denominator_limit_2d", 7.997769113643471e-14, 1e-06),
    ("denominator_order_2d", 0.0004397224194763183, 0.2),
    ("root_finder_3d", 0.0, 1e-12),
    ("optical_theorem_unitary", 2.7755575615628914e-17, 1e-14),
    ("transmission_lattice", 6.25007815352463e-06, 0.0001),
    ("shrinking_well_depth", 0.002000594773581721, 0.005),
    ("residue_factorization_1d", 2.9519059974170148e-09, 1e-06),
    ("residue_normalization_1d", 0.0, 1e-06),
]


def _run(capsys, tmp_path, line):
    """Exit code, stdout and stderr of ``line``; FILE names a file under tmp_path."""
    target = tmp_path / "table.out"
    argv = [str(target) if arg == "FILE" else arg for arg in line.split()]
    code = main(argv)
    captured = capsys.readouterr()
    out = captured.out
    if "FILE" in line:
        assert out == ""
        out = target.read_bytes().decode("utf-8")
    return code, out, captured.err


@pytest.mark.parametrize("line", EXACT)
def test_table_bytes(capsys, tmp_path, line):
    assert _run(capsys, tmp_path, line) == (0, EXACT[line], "")


@pytest.mark.parametrize("line", ERRORS)
def test_error_line(capsys, tmp_path, line):
    code, err = ERRORS[line]
    assert _run(capsys, tmp_path, line) == (code, "", err)


@pytest.mark.parametrize("line", CLOSE)
def test_table_close(capsys, tmp_path, line):
    code, out, err = _run(capsys, tmp_path, line)
    assert (code, err) == (0, "")
    doc, want = json.loads(out), CLOSE[line]
    assert doc["metadata"] == want["metadata"]
    assert doc["columns"] == want["columns"]
    assert len(doc["rows"]) == len(want["rows"])
    for row, want_row in zip(doc["rows"], want["rows"]):
        assert row == pytest.approx(want_row, rel=1e-14, abs=0.0)


def _assert_verify(capsys, tmp_path, line, checks):
    code, out, err = _run(capsys, tmp_path, line)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    names, errors, tols = zip(*checks)
    assert doc["columns"] == [["check_id", "1"], ["passed", "1"], ["error", "1"], ["tol", "1"]]
    assert doc["metadata"] == {"branch_policy": "unitary", "check_names": list(names),
                               "command": "verify", "params": {"fast": "--fast" in line},
                               "version": "0.1.0"}
    assert [(i, passed, tol) for i, passed, _, tol in doc["rows"]] == [
        (i, 1, tol) for i, tol in enumerate(tols, start=1)
    ]
    assert [row[2] for row in doc["rows"]] == pytest.approx(errors, rel=1e-14, abs=0.0)


def test_verify_fast_checks(capsys, tmp_path):
    _assert_verify(capsys, tmp_path, "verify --fast", VERIFY_FAST_CHECKS)


def test_verify_checks(capsys, tmp_path):
    _assert_verify(capsys, tmp_path, "verify", VERIFY_CHECKS)
