"""Acceptance gate: one test per stated criterion, at the stated tolerances.

Each test cross-checks production results against an independent route
(closed form, brute-force oracle, or a second algorithm).  Where a criterion's
oracle check is one of ``deltagreen verify``'s, the test asserts that check's
rows from the registry ``cli.CHECKS`` instead of repeating it.  The conftest
hook prints a PASS/FAIL line per criterion after the run.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from deltagreen import (
    ComplexEnergy,
    SpatialPoint,
    amplitude3d,
    bare_1d,
    bound_states,
    bubble_regularized,
    center,
    cross_section_total,
    friedman_report,
    from_bound_state,
    g0,
    green,
    optical_theorem_residual,
    renormalized_2d,
    renormalized_3d,
    renormalized_denominator,
    residue_wavefunction,
    rg_shift,
    scattered_wave,
    transmutation_energy,
)
from deltagreen.cli import CHECKS
from deltagreen.oracles import Lattice1D, lattice1d_spectrum, shooting1d
from deltagreen.rootfind import refine_root

FOUR_PI = 4.0 * math.pi


def _passing(route):
    """Name -> tol of the rows `deltagreen verify` checks on ``route``; all must pass."""
    rows = list(CHECKS[route](False))
    assert all(error <= tol for _, error, tol in rows), rows
    return {name: tol for name, _, tol in rows}


def test_criterion_01_bound_state_1d_exact_and_lattice_confirmed():
    # closed form: E_B = -lambda^2/4, bitwise for lambda = -2
    states = bound_states(1, [center(0.0, bare_1d(-2.0))])
    assert len(states) == 1
    assert states[0].energy == -1.0

    # independent route: tridiagonal eigensolves of the discretized operator
    # against -1, within 2e-2 at h = 0.01 and with order within 0.1 of 2 as h halves
    tols = _passing("lattice_spectrum")
    assert tols == {"lattice_bound_state_h0.01": 2e-2, "lattice_convergence_order": 0.1}


def test_criterion_02_dimensional_transmutation():
    spec = renormalized_2d(-FOUR_PI, 1.0)
    assert transmutation_energy(spec) == pytest.approx(-math.exp(-1.0), rel=1e-14)
    e_state = bound_states(2, [center((0.0, 0.0), spec)])[0].energy
    assert e_state == pytest.approx(-math.exp(-1.0), rel=1e-14)

    # the subtraction scale must drop out of the physics
    rng = np.random.default_rng(20260815)
    for _ in range(100):
        lam_r = -float(rng.uniform(2.0, 30.0))
        mu = float(rng.uniform(0.5, 2.0))
        mu_p = float(rng.uniform(0.5, 2.0))
        e_ref = transmutation_energy(renormalized_2d(lam_r, mu))
        shifted = renormalized_2d(rg_shift(lam_r, mu, mu_p), mu_p)
        assert transmutation_energy(shifted) == pytest.approx(e_ref, rel=1e-12)


def test_criterion_03_regularized_denominator_reaches_renormalized_limit():
    spec = renormalized_2d(-FOUR_PI, 1.0)
    e_b = transmutation_energy(spec)
    energy = math.e * e_b  # one e-fold below the bound state
    target = renormalized_denominator(2, energy, spec).real
    assert target == pytest.approx(-1.0 / FOUR_PI, rel=1e-14)

    # 1/lambda(cutoff) + B(K, cutoff) at cutoffs 1e2..1e6 against -1/(4 pi):
    # within 1e-6 at 1e6, and a log-log slope within 0.2 of -2
    tols = _passing("renormalization")
    assert (tols["denominator_limit_2d"], tols["denominator_order_2d"]) == (1e-6, 0.2)


def test_criterion_04_bound_state_3d_closed_form_and_root_finder():
    for lam_r in (FOUR_PI, 2.0 * math.pi, 8.0 * math.pi):
        spec = renormalized_3d(lam_r)
        want = -((FOUR_PI / lam_r) ** 2)
        states = bound_states(3, [center((0.0, 0.0, 0.0), spec)])
        assert len(states) == 1
        assert states[0].energy == pytest.approx(want, rel=1e-14)

        def denominator(kap: float) -> float:
            return renormalized_denominator(3, -kap * kap, spec).real

        kap = refine_root(denominator, 0.05, 9.0, xtol=1e-14)
        assert -kap * kap == pytest.approx(want, rel=1e-12)

    # no pole for the repulsive branch
    assert bound_states(3, [center((0.0, 0.0, 0.0), renormalized_3d(-FOUR_PI))]) == []


def test_criterion_05_scattering_amplitude_cross_section_optical_theorem():
    assert abs(amplitude3d(1.0, -1.0)) ** 2 == pytest.approx(0.5, rel=1e-12)
    assert cross_section_total(1.0, -1.0) == pytest.approx(2.0 * math.pi, rel=1e-12)

    rng = np.random.default_rng(5150)
    for _ in range(100):
        k = float(rng.uniform(0.02, 30.0))
        e_b = -float(rng.uniform(0.02, 30.0))
        assert abs(optical_theorem_residual(k, e_b)) <= 1e-14

    # far field: peel the plane wave off psi and fit f from the 1/r tail
    k, e_b = 0.7, -1.0
    f = amplitude3d(k, e_b)
    for r in (200.0, 500.0):
        for theta in (0.0, 0.5, 1.2, 2.4, math.pi):
            x = SpatialPoint.of(r * math.sin(theta), 0.0, r * math.cos(theta))
            psi = scattered_wave(k, from_bound_state(e_b), x)
            plane = complex(math.cos(k * x.coords[2]), math.sin(k * x.coords[2]))
            f_est = (psi - plane) * r * complex(math.cos(k * r), -math.sin(k * r))
            assert abs(f_est - f) <= 1e-2 * abs(f)


def test_criterion_06_two_center_spectrum_against_independent_solvers():
    pair = [center(-1.0, bare_1d(-2.0)), center(1.0, bare_1d(-2.0))]
    states = bound_states(1, pair)
    assert len(states) == 2

    # route 1: exponential shooting through the jump conditions
    kappas = shooting1d(pair, (0.3, 1.6))
    shot = sorted(-kap * kap for kap in kappas)
    for st, e_ref in zip(states, shot):
        assert st.energy == pytest.approx(e_ref, abs=1e-6)

    # route 2: lattice eigensolve, discretization bounded by C h with C = 1
    lat = Lattice1D(25.0, 5001)
    e_lat = lattice1d_spectrum(pair, lat, 2)
    for st, e_ref in zip(states, e_lat):
        assert abs(st.energy - e_ref) <= lat.h

    # decoupling: twelve lengths apart the pair is two isolated wells
    far = [center(-6.0, bare_1d(-2.0)), center(6.0, bare_1d(-2.0))]
    far_states = bound_states(
        1, far, search=(-1.0001, -0.9999), method="scan", grid_points=800
    )
    assert len(far_states) == 2
    for st in far_states:
        assert abs(st.energy + 1.0) <= 4.0 * math.exp(-12.0)


def test_criterion_07_residue_factorization_and_normalization():
    pair = [center(-1.0, bare_1d(-2.0)), center(1.0, bare_1d(-2.0))]
    cases = [
        (1, pair, SpatialPoint.of(0.77), SpatialPoint.of(-0.33)),
        (
            3,
            [center((0.0, 0.0, 0.0), from_bound_state(-1.0))],
            SpatialPoint.of(0.9, 0.0, 0.0),
            SpatialPoint.of(0.0, 1.4, 0.0),
        ),
    ]
    for dim, centers, x, y in cases:
        state = bound_states(dim, centers)[0]
        e_b = state.energy
        deltas = np.array([1e-3, 1e-4, 1e-5])
        probes = [
            abs(e_b) * d * green(dim, e_b + abs(e_b) * d, x, y, centers).value.real
            for d in deltas
        ]
        extrapolated = np.polyfit(deltas, probes, 2)[-1]
        want = residue_wavefunction(state, x.coords if dim == 3 else x.coords[0])
        want *= residue_wavefunction(state, y.coords if dim == 3 else y.coords[0])
        assert extrapolated == pytest.approx(want, rel=1e-6)

    state1 = bound_states(1, pair)[0]
    norm1, _ = quad(
        lambda t: residue_wavefunction(state1, t) ** 2,
        -60.0, 60.0, points=[-1.0, 0.0, 1.0], limit=200,
    )
    assert norm1 == pytest.approx(1.0, abs=1e-6)

    state3 = bound_states(3, [center((0.0, 0.0, 0.0), from_bound_state(-1.0))])[0]
    norm3, _ = quad(
        lambda r: FOUR_PI * r * r * residue_wavefunction(state3, (r, 0.0, 0.0)) ** 2,
        0.0, 60.0, limit=200,
    )
    assert norm3 == pytest.approx(1.0, abs=1e-6)


def test_criterion_08_four_dimensional_no_go_and_triviality():
    caps = [1e2, 1e3, 1e4, 1e5]
    for kk in (1.0, 2.0):
        rows = friedman_report(kk, caps)
        nonrem = [row.nonremovable_part for row in rows]
        assert all(a < b for a, b in zip(nonrem, nonrem[1:]))
        slope = np.polyfit(np.log(caps), nonrem, 1)[0]
        assert slope == pytest.approx(kk * kk / (8.0 * math.pi**2), rel=1e-2)

    # fixed positive bare coupling: the correction to G0 dies with the cutoff
    long_caps = [1e2, 1e3, 1e4, 1e5, 1e6]
    for dim in (2, 3):
        probe = SpatialPoint.of(*([1.0] + [0.0] * (dim - 1)))
        base = SpatialPoint.of(*([0.0] * dim))
        g_sq = abs(g0(dim, ComplexEnergy(-1.0), probe, base).value) ** 2
        corr = [
            g_sq / abs(1.0 + bubble_regularized(dim, 1.0, cap))
            for cap in long_caps
        ]
        assert all(a > b for a, b in zip(corr, corr[1:]))
        if dim == 3:
            loglog = np.polyfit(np.log(long_caps), np.log(corr), 1)[0]
            assert loglog == pytest.approx(-1.0, abs=0.1)


def test_criterion_09_quadrature_closure_and_verify_command():
    # closed-form G0(-1; r) against quadrature within 1e-8: D = 1..3 at
    # r = 0.5, 1, 2, and D = 1 at r = 0
    want = [(d, r) for d in (1, 2, 3) for r in ("0.5", "1", "2")] + [(1, "0")]
    assert _passing("g0_quadrature") == {f"g0_quadrature_d{d}_r{r}": 1e-8 for d, r in want}

    res = subprocess.run(
        [sys.executable, "-m", "deltagreen", "verify"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    doc = json.loads(res.stdout)
    assert all(row[1] == 1 for row in doc["rows"])


def test_criterion_10_cli_byte_determinism():
    configs = [
        ("g0", "--dim", "3", "--energy", "-1", "--r-grid", "0.5:3:6"),
        ("g0", "--dim", "1", "--energy", "4", "--retarded", "--r", "0", "--format", "csv"),
        ("green", "--dim", "1", "--energy", "-2", "--center", "0:lambda=-2",
         "--x", "0.3", "--x", "1.1", "--y", "-0.2"),
        ("bound", "--dim", "2", "--center", "0,0:lambdaR=-12.566370614359172,mu=1"),
        ("scatter", "--dim", "3", "--eb", "-1", "--k-grid", "0.1:5:9"),
        ("scatter", "--dim", "1", "--lam", "-2", "--k", "1", "--format", "csv"),
        ("rgflow", "--dim", "2", "--lambda-r", "-12.566370614359172", "--mu", "1"),
        ("friedman", "--k", "1", "--format", "csv"),
        ("trivial", "--dim", "3", "--lam", "1", "--energy", "-1"),
        ("verify", "--fast"),
    ]
    for argv in configs:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "deltagreen", *argv], capture_output=True
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, argv
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].stdout  # nonempty table
