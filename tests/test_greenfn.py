"""Free Green's function: closed forms, branch handling, oracle agreement."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from deltagreen import (
    ComplexEnergy,
    SpatialPoint,
    center,
    distance,
    from_bound_state,
    g0,
    g0_retarded,
    green,
    oracles,
)
from deltagreen.errors import (
    BranchCutError,
    CoincidentPointsError,
    DomainError,
    IllegalSpecError,
    UnsupportedDimError,
)

ORIGIN = {d: SpatialPoint((0.0,) * d) for d in (1, 2, 3)}


def _axis_point(dim: int, r: float) -> SpatialPoint:
    return SpatialPoint((r,) + (0.0,) * (dim - 1))


def test_point_and_distance_basics():
    p = SpatialPoint.of(1.0, 2.0)
    assert p.dim == 2
    assert distance(p, SpatialPoint.of(1.0, -1.0)) == 3.0
    with pytest.raises(IllegalSpecError):
        distance(p, SpatialPoint.of(1.0))
    with pytest.raises(UnsupportedDimError):
        SpatialPoint(())
    with pytest.raises(DomainError):
        SpatialPoint((math.nan,))


def test_a_distance_past_the_doubles_is_a_domain_error():
    # math.dist is hypot-exact: a length within the doubles is finite, and
    # 2e308 is refused by distance and by both Green's functions it feeds
    assert distance((1e308, 1e308), (0.0, 0.0)) == math.hypot(1e308, 1e308)
    x, y = (1e308,), (-1e308,)
    for call in (lambda: distance(x, y), lambda: g0(1, -2.0, x, y),
                 lambda: green(1, -2.0, x, y, [center(0.0, from_bound_state(-1.0))])):
        with pytest.raises(DomainError, match="^distance overflows double precision$") as err:
            call()
        assert err.value.details == {}


def test_kappa_branch_choices():
    assert ComplexEnergy(-1.0).kappa == 1.0
    assert ComplexEnergy(-4.0).kappa == 2.0
    # retarded positive energy: kappa = -ik so e^{-kappa r} = e^{+ikr}
    assert ComplexEnergy(4.0, retarded=True).kappa == -2.0j
    k = ComplexEnergy(complex(1.0, 0.5)).kappa
    assert k.real > 0.0
    # a real kappa is a float, whatever the sign of a zero Im E
    for e in (ComplexEnergy(-4.0), ComplexEnergy(complex(-4.0, -0.0)),
              ComplexEnergy(-4.0, retarded=True)):
        assert type(e.kappa) is float and e.kappa == 2.0
    with pytest.raises(BranchCutError):
        ComplexEnergy(1.0)
    with pytest.raises(BranchCutError):
        ComplexEnergy(complex(1.0, 1e-13))
    with pytest.raises(BranchCutError):
        ComplexEnergy(complex(2.0, 1.0), retarded=True)
    for bad in (math.nan, -math.inf, complex(-1.0, math.inf), complex(math.nan, 1.0)):
        with pytest.raises(DomainError, match="energy must be finite"):
            ComplexEnergy(bad)


# closed forms at E=-1: -1/2 at r=0; at r=1, -exp(-1)/2, -K0(1)/(2 pi) (from
# mpmath besselk) and -exp(-1)/(4 pi), each rounded to double
@pytest.mark.parametrize(
    "dim,r,expected",
    [
        (1, 0.0, -0.5),
        (1, 1.0, -math.exp(-1.0) / 2.0),
        (2, 1.0, -0.06700812050849714),
        (3, 1.0, -0.029274915762159584),
    ],
)
def test_g0_closed_form_values(dim, r, expected):
    val = g0(dim, ComplexEnergy(-1.0), _axis_point(dim, r), ORIGIN[dim]).value
    assert val.imag == 0.0
    assert val.real == pytest.approx(expected, rel=1e-13)


def test_g0_scaling_at_zero_separation_1d():
    val = g0(1, ComplexEnergy(-4.0), ORIGIN[1], ORIGIN[1]).value
    assert val == -0.25


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("r", [0.1, 1.0, 5.0])
def test_g0_matches_quadrature(dim, r):
    closed = g0(dim, ComplexEnergy(-1.0), _axis_point(dim, r), ORIGIN[dim]).value.real
    assert closed == pytest.approx(oracles.g0_by_quadrature(dim, -1.0, r), abs=1e-8)


def test_g0_matches_quadrature_at_origin_1d():
    closed = g0(1, ComplexEnergy(-1.0), ORIGIN[1], ORIGIN[1]).value.real
    assert closed == pytest.approx(oracles.g0_by_quadrature(1, -1.0, 0.0), abs=1e-8)


@pytest.mark.parametrize(
    "dim,expected",
    [
        (1, 0.42073549240394825 - 0.2701511529340699j),
        (2, 0.02206424105391925 - 0.19129942163949165j),
        (3, -0.04299589137143181 - 0.06696213335029094j),
    ],
)
def test_g0_retarded_closed_forms(dim, expected):
    got = g0_retarded(dim, 1.0, _axis_point(dim, 1.0), ORIGIN[dim]).value
    assert got == pytest.approx(expected, rel=1e-12)


def test_g0_retarded_1d_zero_separation():
    got = g0_retarded(1, 2.0, ORIGIN[1], ORIGIN[1]).value
    assert got == pytest.approx(-0.25j, abs=1e-15)


def test_g0_retarded_3d_outgoing_form():
    k, r = 0.7, 2.5
    got = g0_retarded(3, k, _axis_point(3, r), ORIGIN[3]).value
    assert got == pytest.approx(-cmath.exp(1j * k * r) / (4 * math.pi * r), rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_retarded_is_epsilon_limit(dim):
    """g0 at E = k^2 + i*eps approaches the retarded value at first order."""
    k = 1.3
    x, y = _axis_point(dim, 0.8), ORIGIN[dim]
    target = g0_retarded(dim, k, x, y).value
    errs = []
    for eps in (1e-6, 1e-8):
        val = g0(dim, ComplexEnergy(complex(k * k, eps)), x, y).value
        errs.append(abs(val - target))
    assert errs[1] <= 1e-7
    # first order in eps: shrinking eps by 100 shrinks the gap by ~100
    assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.25)


def test_g0_symmetric_in_arguments():
    rng = np.random.default_rng(20240817)
    for dim in (1, 2, 3):
        for _ in range(5):
            x = SpatialPoint(tuple(rng.uniform(-3, 3, dim)))
            y = SpatialPoint(tuple(rng.uniform(-3, 3, dim)))
            e = ComplexEnergy(complex(-rng.uniform(0.1, 5.0), rng.uniform(-1, 1)))
            a = g0(dim, e, x, y).value
            b = g0(dim, e, y, x).value
            assert a == b  # both reduce to the same r before evaluation


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_g0_decays_monotonically(dim):
    rs = np.linspace(0.05, 12.0, 60)
    vals = [
        abs(g0(dim, ComplexEnergy(-0.7), _axis_point(dim, float(r)), ORIGIN[dim]).value)
        for r in rs
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


def test_1d_ode_residual_and_kink():
    """(E + d^2/dx^2) g0 = 0 away from y; the derivative jump at y is +1.

    The +1 is what a unit delta source requires of (E + d^2/dx^2); wording
    elsewhere that quotes -1 traces the jump of -g0'.
    """
    e = ComplexEnergy(-2.0)
    y = SpatialPoint((0.3,))

    def f(x: float) -> float:
        return g0(1, e, SpatialPoint((x,)), y).value.real

    h = 1e-3
    for x in (-2.0, -0.4, 0.9, 2.7):
        lap = (f(x - h) - 2.0 * f(x) + f(x + h)) / (h * h)
        assert abs(-2.0 * f(x) + lap) < 1e-6

    # five-point one-sided first derivatives on each side of the kink
    w = [-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25]
    right = sum(c * f(0.3 + i * h) for i, c in enumerate(w)) / h
    left = -sum(c * f(0.3 - i * h) for i, c in enumerate(w)) / h
    assert right - left == pytest.approx(1.0, abs=1e-8)


def test_coincident_points_rejected_in_2d_3d():
    for dim in (2, 3):
        with pytest.raises(CoincidentPointsError):
            g0(dim, ComplexEnergy(-1.0), ORIGIN[dim], ORIGIN[dim])
        with pytest.raises(CoincidentPointsError):
            g0_retarded(dim, 1.0, _axis_point(dim, 1e-15), ORIGIN[dim])


def test_dimension_validation():
    with pytest.raises(UnsupportedDimError):
        g0(4, ComplexEnergy(-1.0), SpatialPoint((0.0,) * 4), SpatialPoint((1.0,) * 4))
    with pytest.raises(IllegalSpecError):
        g0(2, ComplexEnergy(-1.0), ORIGIN[2], ORIGIN[3])
    with pytest.raises(DomainError):
        g0_retarded(3, -1.0, _axis_point(3, 1.0), ORIGIN[3])


def test_positive_energy_needs_retarded_flag():
    with pytest.raises(BranchCutError):
        g0(3, ComplexEnergy.of(2.0), _axis_point(3, 1.0), ORIGIN[3])


def test_kernel_over_an_array_of_separations():
    from deltagreen.greenfn import g0_kernel

    r = np.array([[0.3, 1.0], [2.5, 7.0]])
    for dim in (1, 2, 3):
        for energy in (-1.7, ComplexEnergy(2.0, retarded=True), complex(-1.0, 0.4)):
            got = g0_kernel(dim, energy, r)
            # real at a real kappa (E <= 0), complex otherwise
            assert got.shape == r.shape
            assert got.dtype == (np.float64 if energy == -1.7 else np.complex128)
            for idx in np.ndindex(r.shape):
                assert got[idx] == g0(dim, energy, _axis_point(dim, r[idx]), ORIGIN[dim]).value
    # the error names the first coincident separation in C order, not the
    # smallest, as a table checked row by row would
    for dim in (2, 3):
        for r, first in (([0.5, 1e-15, 0.0], 1e-15), ([[1.0, 2e-300], [5e-324, 0.0]], 2e-300)):
            with pytest.raises(CoincidentPointsError) as err:
                g0_kernel(dim, -1.0, np.array(r))
            assert err.value.details == {"dim": dim, "r": first}
    # the 1D and 2D kernels diverge at the threshold E = 0 + i0 (1/(2 kappa), K0(0))
    for dim in (1, 2):
        with pytest.raises(DomainError) as err:
            g0_kernel(dim, ComplexEnergy(0.0, retarded=True), np.array([1.0]))
        assert str(err.value) == f"the {dim}D free Green's function diverges at E = 0"
        assert err.value.details == {"dim": dim}


def test_2d_g0_of_kappa_takes_the_retarded_kappa():
    # kappa = -i k gives the outgoing wave -(i/4) H0^(1)(k r), the kernel's
    # retarded value bit for bit
    from deltagreen.greenfn import g0_kernel, g0_of_kappa

    r = np.array([1e-6, 0.3, 1.0, 4.9, 5.1, 37.0])
    for k in (0.2, 1.0, 3.5):
        got = g0_of_kappa(2, complex(0.0, -k), r)
        want = g0_kernel(2, ComplexEnergy(k * k, retarded=True), r)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        with mp.workdps(30):
            ref = [complex(-0.25j * mp.hankel1(0, mp.mpf(k) * mp.mpf(x))) for x in r]
        for g, h in zip(got, ref):
            assert abs(g - h) <= 1e-13 * abs(h), (k, g, h)


def test_2d_kernel_at_a_nearly_real_energy_far_away_is_finite():
    # kappa r = 5 - 1e10 i: K0 comes from its asymptotic series, which takes
    # over past |z| = 1e9; its modulus is sqrt(pi / 2|z|) exp(-Re z)
    e = ComplexEnergy(complex(1.0, 1e-9))
    val = g0(2, e, SpatialPoint((0.0, 0.0)), SpatialPoint((1e10, 0.0))).value
    z = e.kappa * 1e10
    assert abs(val) == pytest.approx(
        math.sqrt(math.pi / (2.0 * abs(z))) * math.exp(-z.real) / (2.0 * math.pi), rel=1e-5
    )
