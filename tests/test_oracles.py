"""The brute-force verifiers themselves: quadrature, lattices, shooting, wells.

These tests pin the oracles against closed forms and against each other, so
that when an oracle certifies production code the certificate means something.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.special import k0 as scipy_k0, k0e as scipy_k0e

from deltagreen import (
    amplitude3d,
    bare_1d,
    bound_states,
    center,
    from_bound_state,
    g0,
    residue_wavefunction,
)
from deltagreen.errors import (
    CoincidentPointsError,
    DispersionError,
    DomainError,
    IllegalSpecError,
    InsufficientBoxError,
    TailBoundExceededError,
    UnsupportedDimError,
)
from deltagreen.greenfn import SpatialPoint
from deltagreen import bessel, greenfn, oracles
from deltagreen.oracles import (
    Lattice1D,
    SquareWell3D,
    g0_by_quadrature,
    lattice1d_resolvent,
    lattice1d_spectrum,
    lattice1d_transmission,
    norm_by_quadrature,
    shooting1d,
    shrinking_well_depth,
    square_well_radial,
)

ONE = (center(0.0, bare_1d(-2.0)),)
PAIR = (center(-1.0, bare_1d(-2.0)), center(1.0, bare_1d(-2.0)))
PAIR_ENERGIES = (-1.2295650725757956, -0.6349095705470416)


# -------------------------------------------------------------- quadrature


def test_quadrature_matches_2d_bessel():
    for energy, r in ((-0.25, 2.0), (-1e4, 1e-3)):  # small r: kappa r = 0.1
        want = -scipy_k0(math.sqrt(-energy) * r) / (2.0 * math.pi)
        assert g0_by_quadrature(2, energy, r) == pytest.approx(want, rel=1e-13, abs=1e-10)


def test_quadrature_matches_2d_bessel_at_small_energy():
    # kappa r = 1e-3: slowly decaying kernel, where an oscillatory momentum-space
    # quadrature is off by 1.2e-6 with its two working precisions agreeing
    want = -mp.besselk(0, mp.mpf("1e-3")) / (2 * mp.pi)
    assert g0_by_quadrature(2, -1e-6, 1.0) == pytest.approx(float(want), abs=1e-10)


def test_quadrature_matches_3d_exponential():
    for energy, r in ((-1.0, 1.0), (-1e-4, 50.0)):  # large r: kappa r = 0.5
        want = -math.exp(-math.sqrt(-energy) * r) / (4.0 * math.pi * r)
        assert g0_by_quadrature(3, energy, r) == pytest.approx(want, rel=1e-13, abs=1e-10)


def test_quadrature_matches_1d_coincident():
    for energy, want in ((-4.0, -0.25), (-1e4, -0.005)):  # strong |E|: kappa = 100
        assert g0_by_quadrature(1, energy, 0.0) == pytest.approx(want, rel=1e-13, abs=1e-10)


def test_quadrature_domain_checks():
    with pytest.raises(UnsupportedDimError):
        g0_by_quadrature(4, -1.0, 1.0)
    with pytest.raises(DomainError):
        g0_by_quadrature(1, 0.0, 1.0)
    with pytest.raises(DomainError):
        g0_by_quadrature(1, math.nan, 1.0)
    with pytest.raises(DomainError):
        g0_by_quadrature(1, -1.0, -0.5)
    for dim in (2, 3):
        with pytest.raises(CoincidentPointsError):
            g0_by_quadrature(dim, -1.0, 0.0)


def test_quadrature_two_precision_guard(monkeypatch):
    # force the dps-20 and dps-30 passes apart: the guard must refuse to
    # return a value rather than pick one
    monkeypatch.setattr(
        oracles, "_g0_quad_at", lambda dim, e, r, dps: 1.0 + (1e-3 if dps == 30 else 0.0)
    )
    with pytest.raises(TailBoundExceededError):
        g0_by_quadrature(1, -1.0, 1.0)


def test_quadrature_guard_is_relative_and_never_looser(monkeypatch):
    # |big - bigger| <= QUAD_TOL / 2 * min(1, |bigger|): absolute above |G0| = 1
    # as before, relative below it, so a tiny value cannot pass on its smallness
    def passes(big, bigger):
        monkeypatch.setattr(oracles, "_g0_quad_at", lambda dim, e, r, dps: bigger if dps == 30 else big)
        try:
            return g0_by_quadrature(1, -1.0, 1.0) == bigger
        except TailBoundExceededError:
            return False

    half = 0.5 * oracles.QUAD_TOL
    assert passes(-2.0 - 0.9 * half, -2.0) and not passes(-2.0 - 1.1 * half, -2.0)
    assert passes(-0.5 - 0.4 * half, -0.5) and not passes(-0.5 - 0.6 * half, -0.5)
    assert passes(-1e-30 * (1 + 0.9 * half), -1e-30)
    assert not passes(-1e-30 * (1 + 1.1 * half), -1e-30)
    assert not passes(-0.0, -5e-151) and not passes(-5e-151, -0.0)


def _closed_g0(dim, energy, r):
    """Closed forms from scipy and math: 1D and 3D exponentials, 2D K0."""
    kappa = math.sqrt(-energy)
    if dim == 1:
        return -math.exp(-kappa * r) / (2.0 * kappa)
    if dim == 2:
        return -scipy_k0e(kappa * r) * math.exp(-kappa * r) / (2.0 * math.pi)
    return -math.exp(-kappa * r) / (4.0 * math.pi * r)


@pytest.mark.parametrize("dim, energy, r", [(2, -1.0, 300.0), (1, -1e300, 0.0), (1, -1e20, 0.0)])
def test_quadrature_tiny_values_are_right_or_refused(dim, energy, r):
    # an absolute guard let these through wrong: 9x off, -0.0 and 8e-8 relative
    try:
        value = g0_by_quadrature(dim, energy, r)
    except TailBoundExceededError:
        return
    assert value == pytest.approx(_closed_g0(dim, energy, r), rel=1e-12, abs=0.0)


def _sweep(count=60, seed=20261019):
    """D = 1..3, E log-uniform in [-1e8, -1e-8], kappa r log-uniform in
    [1e-3, 50], and every tenth case the 1D coincident point r = 0."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        dim = int(rng.integers(1, 4))
        energy = -(10.0 ** rng.uniform(-8.0, 8.0))
        kappa_r = 10.0 ** rng.uniform(-3.0, math.log10(50.0))
        cases.append((1, energy, 0.0) if i % 10 == 0 else (dim, energy, kappa_r / math.sqrt(-energy)))
    return cases


@pytest.mark.parametrize("dim, energy, r", _sweep())
def test_quadrature_matches_closed_forms_across_scales(dim, energy, r):
    want = _closed_g0(dim, energy, r)
    assert g0_by_quadrature(dim, energy, r) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_quadrature_shares_no_algorithm_with_production(monkeypatch):
    # production's K0 and G0 kernels all raise: the oracle must not notice
    points = [(1, -1.0, 1.0), (2, -1.0, 1.0), (3, -1.0, 1.0), (1, -1.0, 0.0), (2, -0.25, 2.0)]
    before = [g0_by_quadrature(*p) for p in points]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called production code")

    monkeypatch.setattr(bessel, "k0", refuse)
    monkeypatch.setattr(greenfn, "g0_of_kappa", refuse)
    monkeypatch.setattr(greenfn, "g0_kernel", refuse)
    with pytest.raises(AssertionError):
        g0(2, -1.0, SpatialPoint((1.0, 0.0)), SpatialPoint((0.0, 0.0)))
    assert [g0_by_quadrature(*p) for p in points] == before


@pytest.mark.parametrize("budget, value", [("DE_LEVELS", 1), ("DE_REACH", 2)])
def test_quadrature_budget_runs_out_as_a_typed_error(monkeypatch, budget, value):
    # too few levels, or too short a walk: a TailBoundExceededError, never a loop
    monkeypatch.setattr(oracles, budget, value)
    with pytest.raises(TailBoundExceededError):
        g0_by_quadrature(2, -1e-6, 1.0)


@pytest.mark.parametrize("dim, energy, r", [
    (3, -1e6, 1.0), (2, -1e-30, 1.0), (3, -1.0, 1e-8), (1, -1e-300, 1.0),
    (2, -1.0, 300.0), (1, -1e300, 0.0), (1, -1e20, 0.0),
])
def test_quadrature_extremes_return_or_refuse_within_a_second(dim, energy, r):
    start = time.perf_counter()
    try:
        g0_by_quadrature(dim, energy, r)
    except TailBoundExceededError:
        pass
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("dim, energy, r, want", [
    (1, -1.0, 0.5, -0.3032653298563167),
    (2, -0.25, 2.0, -0.06700812050849714),
    (3, -1.0, 1e-8, -7957747.075017296),
    (2, -1e-30, 1.0, -5.51546806537288),
    (1, -1e300, 0.0, -5e-151),
    (2, -1.0, 300.0, -5.926444427214651e-133),
])
def test_quadrature_values_keep_their_bits(dim, energy, r, want):
    # recorded values: a change to the engine or the G0 map that moves a bit fails here
    assert g0_by_quadrature(dim, energy, r) == want


def test_quadrature_states_its_range():
    # the docstring's measured ends: kappa r from about 1e-33 to about 3e5
    assert g0_by_quadrature(1, -1.21e-66, 1.0) == pytest.approx(-0.5 / 1.1e-33, rel=1e-13)
    assert g0_by_quadrature(3, -1.0, 3e5) == -0.0
    for dim, energy, r in [(1, -1.0, 1e-35), (2, -1e-70, 1.0), (1, -1e200, 1.0), (3, -1.0, 1e6)]:
        with pytest.raises(TailBoundExceededError):
            g0_by_quadrature(dim, energy, r)


# ----------------------------------------------------------- normalization


@pytest.mark.parametrize("psi, points, want", [
    (lambda x: math.exp(-abs(x)), (-60.0, 0.0, 60.0), 1.0 - math.exp(-120.0)),
    (lambda x: math.exp(-abs(x - 0.3)), (-40.0, 0.3, 50.0), 1.0 - 0.5 * (math.exp(-80.6) + math.exp(-99.4))),
    (lambda x: math.sqrt(abs(x)), (-1.0, 0.0, 1.0), 1.0),  # |x|: a kink at 0
    (lambda x: abs(x) ** -0.25 if x else math.inf, (-1.0, 0.0, 1.0), 4.0),  # 1/sqrt|x|: singular at 0
    (lambda x: math.exp(-0.5 * x * x), (-30.0, 30.0), math.sqrt(math.pi)),
    (lambda x: 0.0, (-1.0, 2.0), 0.0),
], ids=["exp_kink", "exp_kink_off_center", "abs_kink", "end_singularity", "gaussian", "zero"])
def test_norm_integrates_known_integrals_split_at_their_kinks(psi, points, want):
    assert norm_by_quadrature(psi, points) == pytest.approx(want, rel=2e-15, abs=0.0)


def test_norm_of_a_two_center_state_is_one():
    # psi^2 of each 1D pair state has kinks at both centers
    for state in bound_states(1, PAIR):
        norm = norm_by_quadrature(lambda x: residue_wavefunction(state, x), (-60.0, -1.0, 1.0, 60.0))
        assert norm == pytest.approx(1.0, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("psi, points", [
    (lambda x: abs(x) ** -0.5 if x else math.inf, (-1.0, 0.0, 1.0)),  # 1/|x|: no integral
    (lambda x: abs(x) ** -0.5 if x else 0.0, (-1.0, 0.0, 1.0)),  # the same, 0 where x rounds to 0
    (lambda x: 1e200, (0.0, 1.0)),  # psi^2 past the doubles
    (lambda x: math.nan, (-1.0, 0.0, 1.0)),
    (lambda x: math.exp(-abs(x)), (-60.0, 60.0)),  # a kink between the points
], ids=["non_decaying", "non_decaying_finite", "overflow", "nan", "unsplit_kink"])
def test_norm_refuses_what_it_cannot_integrate(psi, points):
    start = time.perf_counter()
    with pytest.raises(TailBoundExceededError):
        norm_by_quadrature(psi, points)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("points", [(0.0,), (), (1.0, 0.0), (0.0, 0.0, 1.0), (-math.inf, 0.0, 1.0), (0.0, math.nan)])
def test_norm_needs_finite_increasing_points(points):
    with pytest.raises(DomainError):
        norm_by_quadrature(lambda x: 1.0, points)


def test_norm_calls_no_mpmath_integrator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an mpmath integrator was called")

    for name in ("quad", "quadts", "quadgl", "quadosc"):
        monkeypatch.setattr(mp, name, refuse)
    assert norm_by_quadrature(lambda x: math.exp(-abs(x)), (-60.0, 0.0, 60.0)) == pytest.approx(1.0)
    assert g0_by_quadrature(1, -1.0, 0.5) == -0.3032653298563167


# --------------------------------------------------- arguments at the edges


_WELL = SquareWell3D(0.1, 100.0)
_LAT = Lattice1D(10.0, 1001)


@pytest.mark.parametrize("call, error, details", [
    (lambda: square_well_radial(_WELL, -math.inf, 1.0), DomainError, {"e_b": -math.inf}),
    (lambda: square_well_radial(_WELL, -200.0, 1.0), DomainError, {"kappa_b": math.sqrt(200.0), "depth": 100.0}),
    (lambda: square_well_radial(_WELL, -1.0, math.nan), DomainError, {"r": math.nan}),
    (lambda: square_well_radial(_WELL, "x", 1.0), IllegalSpecError, {"field": "e_b", "type": "str"}),
    (lambda: lattice1d_resolvent(ONE, _LAT, -1.0, math.nan, 0.0), DomainError, {"xi": math.nan, "xj": 0.0}),
    (lambda: lattice1d_resolvent(ONE, _LAT, -1.0, math.inf, 0.0), DomainError, {"xi": math.inf, "xj": 0.0}),
    (lambda: lattice1d_resolvent(ONE, _LAT, -1.0, 1e308, 0.0), DomainError, {"xi": 1e308, "xj": 0.0}),
    (lambda: lattice1d_spectrum((center(1e308, bare_1d(-2.0)),), _LAT, 1), DomainError, {"position": 1e308}),
    (lambda: shooting1d(ONE, (0.1,)), IllegalSpecError, {"size": 1}),
    (lambda: shooting1d(ONE, 0.1), IllegalSpecError, {"field": "kappa_bracket", "type": "float"}),
    (lambda: shooting1d(ONE, (0.5, 1.5), 1), DomainError, {"grid_points": 1.0}),
    (lambda: shooting1d(ONE, (0.5, 1.5), 1e200), DomainError, {"grid_points": 1e200}),
    (lambda: shooting1d(ONE, (0.5, 1.5), 2.5), DomainError, {"grid_points": 2.5}),
    (lambda: g0_by_quadrature(1, -1.0, math.nan), DomainError, {"r": math.nan}),
    (lambda: g0_by_quadrature(1, -1.0, math.inf), DomainError, {"r": math.inf}),
    (lambda: g0_by_quadrature(1, "x", 1.0), IllegalSpecError, {"field": "energy", "type": "str"}),
    (lambda: g0_by_quadrature(np.array([1, 2]), -1.0, 1.0), UnsupportedDimError, None),
    (lambda: lattice1d_transmission(math.nan, 1.0, _LAT), DomainError, {"lam": math.nan}),
    (lambda: lattice1d_transmission(math.inf, 0.01, _LAT), DomainError, {"lam": math.inf}),
    (lambda: shrinking_well_depth(-math.inf, 0.1), DomainError, {"e_b": -math.inf}),
    (lambda: shrinking_well_depth(-1.0, None), IllegalSpecError, {"field": "r0", "type": "NoneType"}),
    (lambda: Lattice1D(10.0, 10**200 + 1), DomainError, {"points": 10**200 + 1}),
    (lambda: Lattice1D(10.0, 10**6 + 1), DomainError, {"points": 10**6 + 1}),
    (lambda: lattice1d_spectrum(ONE, _LAT, True), IllegalSpecError, {"field": "n_states", "type": "bool"}),
    (lambda: lattice1d_spectrum(ONE, _LAT, "1"), IllegalSpecError, {"field": "n_states", "type": "str"}),
    (lambda: lattice1d_spectrum(ONE, _LAT, 1.5), IllegalSpecError, {"n_states": 1.5}),
    (lambda: lattice1d_spectrum(ONE, _LAT, 0), DomainError, {"n_states": 0.0}),
    (lambda: lattice1d_spectrum(ONE, None, 1), IllegalSpecError, {"field": "lat", "type": "NoneType"}),
    (lambda: lattice1d_resolvent(ONE, None, -1.0, 0.0, 0.0), IllegalSpecError, {"field": "lat", "type": "NoneType"}),
    (lambda: lattice1d_transmission(-2.0, 1.0, None), IllegalSpecError, {"field": "lat", "type": "NoneType"}),
    (lambda: square_well_radial(None, -1.0, 1.0), IllegalSpecError, {"field": "well", "type": "NoneType"}),
    (lambda: norm_by_quadrature(None, (0.0, 1.0)), IllegalSpecError, {"field": "psi", "type": "NoneType"}),
], ids=["radial_e_b_inf", "radial_below_floor", "radial_r_nan", "radial_e_b_str", "resolvent_xi_nan",
        "resolvent_xi_inf", "resolvent_xi_huge", "spectrum_center_huge", "bracket_short", "bracket_number",
        "grid_one", "grid_huge", "grid_fraction", "quad_r_nan", "quad_r_inf", "quad_energy_str",
        "quad_dim_array", "transmission_lam_nan", "transmission_lam_inf", "depth_e_b_inf", "depth_r0_none",
        "lattice_points_huge", "lattice_points_past_ceiling", "spectrum_n_states_bool", "spectrum_n_states_str",
        "spectrum_n_states_fraction", "spectrum_n_states_zero", "spectrum_lat_none", "resolvent_lat_none",
        "transmission_lat_none", "radial_well_none", "norm_psi_none"])
def test_oracle_arguments_at_the_edges_are_typed_errors(call, error, details):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    if details is not None:
        assert repr(info.value.details) == repr(dict(sorted(details.items())))


def test_bound_state_checks_share_one_message():
    # CouplingSpec, the scattering amplitude and both well oracles read E_B
    # through one checker: one message and one detail key everywhere
    calls = [lambda: from_bound_state(0.5), lambda: amplitude3d(1.0, 0.5),
             lambda: shrinking_well_depth(0.5, 0.1), lambda: square_well_radial(_WELL, 0.5, 1.0)]
    for call in calls:
        with pytest.raises(DomainError) as info:
            call()
        assert (info.value.message, info.value.details) == ("bound-state energy must be negative", {"e_b": 0.5})


# ----------------------------------------------------------------- lattice


def test_lattice_geometry():
    lat = Lattice1D(1.0, 201)
    assert lat.h == pytest.approx(0.01, rel=1e-15)
    with pytest.raises(DomainError):
        Lattice1D(-1.0, 100)
    with pytest.raises(DomainError):
        Lattice1D(1.0, 2)
    assert Lattice1D(1.0, 10**6).points == 10**6  # the ceiling shooting1d's grid has too
    # a numpy half-width would make h, t and the shifts numpy scalars, whose
    # division by zero warns and returns inf instead of raising
    lat = Lattice1D(np.float64(16.0), 1601)
    assert type(lat.half_width) is float and type(lat.h) is float
    assert lat == Lattice1D(16.0, 1601)
    e0 = lattice1d_spectrum(ONE, lat, 1)[0]
    assert type(e0) is float and e0 == lattice1d_spectrum(ONE, Lattice1D(16.0, 1601), 1)[0]


@pytest.mark.parametrize("v, t, x", [
    ([3.0, 5.0, 4.0, 6.0], 1.0, 5.0),  # r_1 = -t (pivot 0, so r_2 = -inf), then r_3 = 0
    ([2.0, 3.0, 1.0], 1.0, 3.0),  # r_1 = 0, then r_2 = 0
    ([2.0, 3.0, 1.0], 1.0, 4.0),  # r_1 = -t, so r_2 = -inf; then r_3 = -2t
])
def test_sturm_count_through_zero_pivots(v, t, x):
    n = len(v)
    h = np.diag(2.0 * t + np.array(v)) - t * (np.eye(n, k=1) + np.eye(n, k=-1))
    eig = np.linalg.eigvalsh(h)
    assert np.min(np.abs(eig - x)) > 0.1  # x is no eigenvalue of H itself
    assert oracles._sturm_count(v, t, x) == np.sum(eig < x)


def test_lattice_spectrum_single_center():
    e0 = lattice1d_spectrum(ONE, Lattice1D(18.0, 3601), 1)[0]
    assert abs(e0 + 1.0) < 5e-5  # measured h^2/4 = 2.5e-5 at h = 0.01


def test_lattice_spectrum_superconverges():
    errs = [
        abs(lattice1d_spectrum(ONE, Lattice1D(16.0, n), 1)[0] + 1.0)
        for n in (1601, 3201)
    ]
    order = math.log2(errs[0] / errs[1])
    assert order > 1.8  # on-site delta on the grid point: O(h^2)


def test_lattice_spectrum_repulsive_has_no_bound_state():
    # a repulsive delta binds nothing, so the lowest box state is a
    # delocalized standing wave; the leak guard must refuse to certify it
    with pytest.raises(InsufficientBoxError):
        lattice1d_spectrum((center(0.0, bare_1d(2.0)),), Lattice1D(12.0, 1201), 3)


def test_lattice_spectrum_two_centers():
    vals = lattice1d_spectrum(PAIR, Lattice1D(25.0, 5001), 2)
    assert vals == pytest.approx(PAIR_ENERGIES, abs=1e-3)


def test_lattice_spectrum_guards():
    with pytest.raises(InsufficientBoxError):
        lattice1d_spectrum(ONE, Lattice1D(2.0, 401), 1)
    with pytest.raises(DomainError):
        lattice1d_spectrum(ONE, Lattice1D(10.0, 1000), 1)  # even point count
    with pytest.raises(DomainError):
        lattice1d_spectrum(ONE, Lattice1D(10.0, 1001), 0)
    with pytest.raises(DomainError):
        lattice1d_spectrum((center(30.0, bare_1d(-2.0)),), Lattice1D(10.0, 1001), 1)
    with pytest.raises(IllegalSpecError):
        lattice1d_spectrum((center(0.0, from_bound_state(-1.0)),), Lattice1D(10.0, 1001), 1)


def _lattice_matrix(centers, lat):
    """The diagonal and off-diagonal of H as LAPACK takes them."""
    v, t = oracles._lattice_hamiltonian(centers, lat)
    return 2.0 * t + np.array(v), np.full(lat.points - 1, -t), t


ASYMMETRIC = (center(-1.0, bare_1d(-2.0)), center(1.5, bare_1d(-1.2)))


@pytest.mark.parametrize("points", [401, 1001, 2001, 5001])
@pytest.mark.parametrize("centers", [ONE, ASYMMETRIC], ids=["one", "asymmetric"])
def test_lattice_spectrum_matches_lapack(centers, points):
    lat = Lattice1D(20.0, points)
    diag, off, t = _lattice_matrix(centers, lat)
    want = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 2))
    # LAPACK's Sturm count rounds x against the diagonal 2t, so it resolves
    # an eigenvalue only to about eps * 4t (3.5e-12 off at 5001 points, where
    # the mpmath reference below puts this oracle within 1e-14)
    for n_states in (1, 2, 3):
        got = lattice1d_spectrum(centers, lat, n_states)
        assert got == pytest.approx(want[:n_states], rel=0.0, abs=np.finfo(float).eps * 4.0 * t)


def _mp_sturm_eigenvalue(centers, lat, near):
    """Lowest eigenvalue of the same H by the classical Sturm recurrence
    q_i = d_i - x - t^2 / q_(i-1) at 30 digits, bisected from near +- 1e-10."""
    v, t = oracles._lattice_hamiltonian(centers, lat)
    with mp.workdps(30):
        diag, t2 = [2 * mp.mpf(t) + mp.mpf(vi) for vi in v], mp.mpf(t) ** 2

        def count(x):
            below, q = 0, mp.inf
            for d in diag:
                q = d - x - t2 / q
                below += q < 0
            return below

        a, b = mp.mpf(near) - mp.mpf(1e-10), mp.mpf(near) + mp.mpf(1e-10)
        assert (count(a), count(b)) == (0, 1)
        while b - a > mp.mpf(1e-20):
            a, b = (a, (a + b) / 2) if count((a + b) / 2) else ((a + b) / 2, b)
        return (a + b) / 2


def test_verify_lattice_against_an_mpmath_sturm_reference():
    # the 4001-point lattice of `verify`: LAPACK's eigh_tridiagonal sits
    # 1.1e-12 from the reference, this oracle 7e-15
    lat = Lattice1D(20.0, 4001)
    got = lattice1d_spectrum(ONE, lat, 1)[0]
    ref = _mp_sturm_eigenvalue(ONE, lat, got)
    assert float(ref) == pytest.approx(-0.99997500124992186, rel=0.0, abs=1e-17)
    assert abs(got - ref) <= 2e-14


def test_lattice_ground_vector_shift_is_positive_definite():
    # one double below the lowest eigenvalue the Sturm count is 0, so every
    # pivot of the inverse-iteration solve is positive
    lat = Lattice1D(20.0, 1001)
    v, t = oracles._lattice_hamiltonian(ASYMMETRIC, lat)
    shift = math.nextafter(lattice1d_spectrum(ASYMMETRIC, lat, 1)[0], -math.inf)
    assert oracles._sturm_count(v, t, shift) == 0
    ground = np.array(oracles._thomas(v, t, shift, [1.0] * lat.points))
    diag, off, _ = _lattice_matrix(ASYMMETRIC, lat)
    want = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[1][:, 0]
    assert np.abs(ground / np.linalg.norm(ground)) == pytest.approx(np.abs(want), abs=1e-10)


@pytest.mark.parametrize("energy", [-3.0, -0.5, -0.1])
def test_lattice_resolvent_matches_solve_banded(energy):
    lat = Lattice1D(20.0, 4097)
    diag, off, _ = _lattice_matrix(ASYMMETRIC, lat)
    band = np.zeros((3, lat.points))
    band[0, 1:], band[1], band[2, :-1] = off, diag - energy, off
    for xi, xj in ((0.3, -0.2), (-1.0, 1.5), (5.0, -7.0)):
        i, j = (int(round((x + lat.half_width) / lat.h)) for x in (xi, xj))
        rhs = np.zeros(lat.points)
        rhs[j] = 1.0 / lat.h
        want = -solve_banded((1, 1), band, rhs)[i]
        # both solves round to ~eps times the condition number 4t / |E - E_B|
        assert lattice1d_resolvent(ASYMMETRIC, lat, energy, xi, xj) == pytest.approx(want, rel=1e-9)


def test_lattice_resolvent_zero_pivot_is_a_domain_error():
    # h = 1: the first pivot 2 + lambda - E of H - E is 0 for lambda = -3, E = -1
    with pytest.raises(DomainError):
        lattice1d_resolvent([center(-1.0, bare_1d(-3.0))], Lattice1D(1.0, 3), -1.0, 0.0, 0.0)


def test_lattice_resolvent_free_case():
    got = lattice1d_resolvent([], Lattice1D(20.48, 4097), -1.0, 0.3, -0.2)
    want = g0(1, -1.0, SpatialPoint.of(0.3), SpatialPoint.of(-0.2)).value.real
    assert got == pytest.approx(want, abs=1e-4)


def test_lattice_resolvent_guards():
    lat = Lattice1D(10.0, 1001)
    with pytest.raises(DomainError):
        lattice1d_resolvent(ONE, lat, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        lattice1d_resolvent(ONE, lat, -1.0, 50.0, 0.0)


# ---------------------------------------------------------------- shooting


def test_shooting_single_center():
    roots = shooting1d(ONE, (0.5, 1.5))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-11)


def test_shooting_two_centers_frozen_values():
    roots = shooting1d(PAIR, (0.3, 1.6))
    assert len(roots) == 2
    assert roots == pytest.approx((0.7968121300200433, 1.108857552878545), abs=1e-9)
    # cross-route: the eigenvalue-branch search must land on the same energies
    scanned = [s.energy for s in bound_states(1, PAIR)]
    assert scanned == pytest.approx([-r * r for r in reversed(roots)], abs=1e-10)


def test_shooting_weak_coupling():
    roots = shooting1d((center(0.0, bare_1d(-2e-4)),), (1e-5, 1e-3))
    assert roots  # a grid-adjacent root may be reported from both sides
    for r in roots:
        assert r == pytest.approx(1e-4, rel=1e-6)


def test_shooting_two_delta_matches_parity_roots_to_one_ulp():
    # lambda = -2 at x = +-1: even states solve kappa = 1 + e^(-2 kappa), odd
    # ones kappa = 1 - e^(-2 kappa)
    with mp.workdps(50):
        refs = [float(mp.findroot(lambda k: k - 1 + s * mp.exp(-2 * k), 1.0)) for s in (1, -1)]
    roots = shooting1d(PAIR, (0.05, 3.0))  # verify's window
    assert len(roots) == 2
    for root, ref in zip(roots, refs):
        assert abs(root - ref) <= math.ulp(ref)


_MONOTONE = [lambda t: t, math.atan, math.tanh, math.erf, math.cbrt]  # keep the sign of t


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3, unique=True),
    st.sampled_from(_MONOTONE),
    st.sampled_from([1.0, -1.0]),
)
def test_bisect_brackets_the_sign_change_between_neighbouring_doubles(ends, g, sign):
    a, c, b = sorted(ends)  # the sign change sits exactly at c
    calls = []

    def f(x):
        calls.append(x)
        return sign * g(x - c)

    root = oracles._bisect(f, a, b)
    assert all(a <= x <= b for x in calls) and a <= root <= b
    assert any(
        (f(root) < 0.0) != (f(math.nextafter(root, side)) < 0.0) for side in (-math.inf, math.inf)
    )


# bare 1D layouts (position, lambda), each with a window holding two states
# less than one cell of a 4000-point kappa grid apart, and those two energies
ONE_CELL_PAIRS = [
    (  # dkappa = 4.6e-4: both halves of the split cell hold one state
        ((3.225566634924, -1.6918704152257062), (10.647290662423, -2.7051854488296754),
         (1.168605698155, -2.5698978931766523), (4.233723776287, -1.8074858153906324),
         (5.915898168273, -2.6235016322656675), (7.451463596687, -2.3571762754430963),
         (16.625592263443, -2.2686439941868093), (15.091471493076, -1.851245473201667),
         (9.077186197634, -1.0832301326425), (-0.196261393562, -2.71822187950151),
         (12.359408620283, -2.705487405556795), (13.796373379207, -2.200904220254675)),
        (-29.55492074480289, -0.0007333672001654302), 9, (-2.2493834985615, -2.2480064271868),
    ),
    (  # dkappa = 3.6e-4: one half of the split cell holds both, the other none
        ((0.147265901337, -1.0251208893977684), (1.415653468573, -2.5209660565502325),
         (3.081867797589, -2.210454145753694), (4.269084639281, -1.931590200359633),
         (5.834192755928, -2.58175458069302), (7.669413756741, -2.521945923263015),
         (9.195398204653, -1.863015661759335), (10.520462952632, -1.338710069264918),
         (12.021616654147, -1.1866568437666298), (13.332538277729, -2.062140614263885),
         (14.7467767684, -2.6143831215229407), (16.516360583979, -1.0611177395248197),
         (18.105168223494, -2.388705454406035), (19.273041366459, -1.3419688316484497),
         (21.11151419656, -2.3430287045189537), (22.146891806805, -2.2943772454982763)),
        (-27.339996424416142, -0.0006567955236747949), 10, (-2.0491069434419, -2.0480751682117),
    ),
]


@pytest.mark.parametrize("line, window, count, pair", ONE_CELL_PAIRS, ids=["split", "one-sided"])
def test_shooting_separates_states_in_one_grid_cell(line, window, count, pair):
    # the growing coefficient changes sign twice inside one cell; the node
    # count drops by two there, so the cell is halved before polishing
    cs = [center(p, bare_1d(lam)) for p, lam in line]
    roots = shooting1d(cs, (math.sqrt(-window[1]), math.sqrt(-window[0])), 4000)
    shot = sorted(-k * k for k in roots)
    assert len(shot) == count
    assert [e for e in shot if pair[0] - 1e-9 < e < pair[1] + 1e-9] == pytest.approx(pair, abs=1e-12)
    scanned = [s.energy for s in bound_states(1, cs, search=window, method="scan")]
    assert scanned == pytest.approx(shot, abs=1e-12)


def test_shooting_far_centers_and_deep_window_stay_in_range():
    # kappa times the span reaches 2000, past the range of exp; about the last
    # center no exponent exceeds kappa times one gap
    cs = [center(0.0, bare_1d(-2.0)), center(0.3, bare_1d(5.0)), center(40.0, bare_1d(-2.0))]
    roots = shooting1d(cs, (1e-4, 50.0), 4000)  # no warning: the suite makes them errors
    assert roots == pytest.approx([1.0], abs=1e-12)
    assert shooting1d(cs, (1e-4, 14.0)) == pytest.approx(roots, abs=1e-12)
    scanned = [s.energy for s in bound_states(1, cs, search=(-2500.0, -1e-8), method="scan")]
    assert scanned == pytest.approx([-r * r for r in roots], abs=1e-12)
    # three centers 1e300 apart: psi vanishes in doubles past the first, and
    # each center binds alone
    far = [center(x, bare_1d(-2.0)) for x in (-1e300, 0.0, 1e300)]
    assert shooting1d(far, (1e-3, 10.0)) == pytest.approx([1.0] * 3, abs=1e-12)
    assert shooting1d((), (0.5, 1.5)) == []  # no center, no state


def test_shooting_guards():
    with pytest.raises(DomainError):
        shooting1d(ONE, (0.0, 1.0))
    with pytest.raises(DomainError):
        shooting1d(ONE, (2.0, 1.0))
    with pytest.raises(DomainError):
        shooting1d(ONE, (0.5, math.inf))
    with pytest.raises(DomainError):  # lambda / (2 kappa) past the doubles
        shooting1d((center(0.0, bare_1d(-1e308)),), (1e-300, 1.0))
    with pytest.raises(IllegalSpecError):
        shooting1d((center(0.0, from_bound_state(-1.0)),), (0.5, 1.5))


# ------------------------------------------------------------ transmission


def test_transmission_lattice_vs_continuum():
    t_lat, r_lat = lattice1d_transmission(-2.0, 1.0, Lattice1D(10.0, 4001))
    assert t_lat == pytest.approx(0.5, abs=1e-5)  # measured deficit h^2/16
    assert t_lat + r_lat == 1.0


def test_transmission_error_halves_quadratically():
    e_coarse = abs(lattice1d_transmission(-2.0, 1.0, Lattice1D(10.0, 2001))[0] - 0.5)
    e_fine = abs(lattice1d_transmission(-2.0, 1.0, Lattice1D(10.0, 4001))[0] - 0.5)
    assert e_coarse / e_fine == pytest.approx(4.0, abs=0.3)


def test_transmission_free_lattice_is_exact():
    assert lattice1d_transmission(0.0, 1.0, Lattice1D(10.0, 2001)) == (1.0, 0.0)


def test_transmission_guards():
    with pytest.raises(DispersionError):
        lattice1d_transmission(-2.0, 2.0, Lattice1D(10.0, 201))
    with pytest.raises(DomainError):
        lattice1d_transmission(-2.0, 0.0, Lattice1D(10.0, 2001))


# -------------------------------------------------------------- square well


def test_well_depth_satisfies_matching():
    r0 = 0.1
    v0 = shrinking_well_depth(-1.0, r0)
    q = math.sqrt(v0 - 1.0)
    assert q / math.tan(q * r0) == pytest.approx(-1.0, abs=1e-8)


def test_well_depth_approaches_contact_limit():
    quarter_pi_sq = (math.pi / 2.0) ** 2
    gaps = [
        shrinking_well_depth(-1.0, r0) * r0 * r0 - quarter_pi_sq
        for r0 in (0.1, 0.05, 0.025, 0.01)
    ]
    assert all(g > 0.0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # leading correction is 2 kappa_B r0
    assert gaps[-1] == pytest.approx(0.02, rel=0.05)


def test_well_depth_shallow_binding():
    v0 = shrinking_well_depth(-1e-8, 0.1)
    assert v0 * (2.0 * 0.1 / math.pi) ** 2 == pytest.approx(1.0, abs=1e-4)


def test_well_depth_guards():
    with pytest.raises(DomainError):
        shrinking_well_depth(1.0, 0.1)
    with pytest.raises(DomainError):
        shrinking_well_depth(-1.0, 0.0)
    with pytest.raises(DomainError):
        shrinking_well_depth(-1.0, 1.5)  # outside 0 < r0 < 1/kappa_B
    with pytest.raises(DomainError):
        SquareWell3D(0.1, -5.0)
    # the root u = pi/2 + kappa_B r0 / (pi/2) crowds pi/2 as r0 shrinks;
    # rooting in w = u - pi/2 resolves it at any r0
    want = _well_depth_ref(1.0, 1e-13)
    assert shrinking_well_depth(-1.0, 1e-13) == pytest.approx(want, rel=5e-16)
    with pytest.raises(DomainError):  # V0 ~ (pi / 2 r0)^2 past the doubles
        shrinking_well_depth(-1.0, 1e-160)


def _well_depth_ref(kappa_b, r0):
    # q cot(q r0) = -kappa_B rooted in u = q r0 at 50 digits
    with mp.workdps(50):
        kb, r0 = mp.mpf(kappa_b), mp.mpf(r0)
        u = mp.findroot(lambda u: u / r0 * mp.cot(u) + kb, mp.pi / 2 + kb * r0 / (mp.pi / 2))
        return float((u / r0) ** 2 + kb * kb)


@pytest.mark.parametrize("r0", [0.5, 0.1, 1e-3, 1e-6, 1e-12])
def test_well_depth_matches_mpmath_root(r0):
    # within two ulps of V0: bisection in w leaves only the rounding of q^2
    assert shrinking_well_depth(-1.0, r0) == pytest.approx(_well_depth_ref(1.0, r0), rel=5e-16)


def test_well_tail_is_the_contact_shape():
    """Outside the core the finite well and the contact potential agree.

    Their radial functions must be strictly proportional beyond r0 (same
    kappa_B fixes the same tail), while inside the core they must differ:
    that is exactly the sense in which the contact potential is the
    r0 -> 0 limit of the well.
    """
    r0 = 0.1
    well = SquareWell3D(r0, shrinking_well_depth(-1.0, r0))
    state = bound_states(3, [center((0, 0, 0), from_bound_state(-1.0))])[0]
    ratios = [
        square_well_radial(well, -1.0, r) / residue_wavefunction(state, (r, 0.0, 0.0))
        for r in (0.3, 0.5, 1.0, 2.0)
    ]
    assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-10)
    inside = square_well_radial(well, -1.0, 0.05) / residue_wavefunction(
        state, (0.05, 0.0, 0.0)
    )
    assert abs(inside / ratios[0] - 1.0) > 0.1


def test_well_radial_guards():
    well = SquareWell3D(0.1, 100.0)
    with pytest.raises(DomainError):
        square_well_radial(well, 1.0, 0.5)
    with pytest.raises(DomainError):
        square_well_radial(well, -1.0, 0.0)
