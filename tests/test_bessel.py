"""Bessel kernels against the integral representation they never use.

The reference here is K0(z) = int_0^inf exp(-z cosh t) dt evaluated with
arbitrary-precision quadrature, plus mpmath's own J0/Y0 for the real and
imaginary parts of the Hankel function.  Production code computes these from
series and stored Chebyshev tables, so agreement is a genuine cross-check.
"""

import hashlib
import math

import mpmath as mp
import numpy as np
import pytest

from deltagreen import bessel
from deltagreen.errors import DomainError


def k0_reference(z: float) -> complex:
    """K0 via int_0^inf exp(-z cosh t) dt, truncated where the tail is < 1e-34.

    The integrand is rewritten as exp(-z) exp(-2z sinh^2(t/2)) so the
    quadrature works on O(1) values even when K0 itself underflows toward
    1e-306 near z = 700.
    """
    with mp.workdps(35):
        zc = mp.mpmathify(z)
        cut = mp.acosh(1 + 80.0 / mp.re(zc))
        core = mp.quad(lambda t: mp.exp(-2 * zc * mp.sinh(t / 2) ** 2), [0, cut])
        return complex(core * mp.exp(-zc))


def k0_rotated_reference(z: complex) -> complex:
    """K0(z) for complex z from the same integral along a rotated ray.

    With u = cosh t - 1, K0(z) = exp(-z) int_0^inf exp(-z u) (u (u + 2))^(-1/2) du.
    Off the real axis exp(-z cosh t) oscillates; taking u = tau / z, tau real
    (the ray crosses no branch cut for Re z > 0), gives
    exp(-z) / z int_0^inf exp(-tau) (u (u + 2))^(-1/2) dtau, which decays
    like exp(-tau) for every arg z.
    """
    with mp.workdps(20):
        zc = mp.mpmathify(z)
        core = mp.quad(lambda tau: mp.exp(-tau) / mp.sqrt(tau / zc) / mp.sqrt(tau / zc + 2),
                       [0, 1, mp.inf])
        return complex(core * mp.exp(-zc) / zc)


K0_PROBES = [1e-6, 1e-4, 0.01, 0.3, 1.0, 1.9999, 2.0001, 3.7, 10.0, 55.0, 222.0, 700.0]


@pytest.mark.parametrize("x", K0_PROBES)
def test_k0_matches_cosh_integral(x):
    ref = k0_reference(x).real
    got = bessel.k0(x).real
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_k0_value_at_one():
    assert bessel.k0(1.0).real == pytest.approx(0.42102444, abs=5e-9)


def test_k0_small_z_log_behavior():
    z = 1e-6
    leading = -math.log(z / 2.0) - bessel.EULER_GAMMA
    assert bessel.k0(z).real / leading == pytest.approx(1.0, abs=1e-9)


def test_k0_large_z_asymptotic():
    # sqrt(pi/2z) e^{-z} misses the 1/(8z) correction, about 1.2% at z=10
    got = bessel.k0(10.0).real
    assert got == pytest.approx(1.7780062e-5, rel=1e-7)
    asym = math.sqrt(math.pi / 20.0) * math.exp(-10.0)
    assert abs(asym / got - 1.0) < 0.013


@pytest.mark.parametrize(
    "z",
    [0.3 + 0.4j, 1.5 - 0.2j, 0.05 + 1.9j, 4.0 + 3.0j, 12.0 - 5.0j, 0.7 - 0.7j],
)
def test_k0_complex_arguments(z):
    # off the real axis the cosh integral turns oscillatory, so the
    # reference switches to mpmath's arbitrary-precision besselk
    with mp.workdps(30):
        ref = complex(mp.besselk(0, z))
    got = bessel.k0(z)
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "z", [1.0 + 2e9j, 5.0 - 1e10j, 0.25 - 1e12j, 300.0 + 3e11j, 40.0 + 7.5e9j]
)
def test_k0_complex_past_kve_range_is_the_asymptotic_series(z):
    # past |z| = 1e9 the asymptotic series takes over from Steed's CF2 (where
    # scipy's kve, once used here, gave NaN) while exp(-z) is representable
    with mp.workdps(30):
        ref = complex(mp.besselk(0, z))
    got = bessel.k0(z)
    assert abs(got - ref) <= 1e-12 * abs(ref)
    assert bessel.k0(np.array([z, 4.0 + 3.0j]))[0] == got


def test_k0_complex_is_exactly_zero_where_exp_underflows():
    # K0(z) ~ sqrt(pi/2z) exp(-z) underflows past Re z ~ 745; a scaled value
    # that is NaN or inf there must not be multiplied by exp(-z) = 0
    z = np.array([746.0 + 1.0j, 800.0 - 5.0j, 1e10 + 1.0j, 1e300 + 1e300j, 1e300 - 1.0j])
    got = bessel.k0(z)
    assert (got == 0.0).all()
    assert bessel.k0(1e300 + 1e300j) == 0.0
    # just below, the value is the tiny K0 itself
    with mp.workdps(30):
        ref = complex(mp.besselk(0, 700.0 + 3.0j))
    assert abs(bessel.k0(700.0 + 3.0j) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("modulus", [2.0 + 1e-9, 2.5, 3.7, 30.0, 1e3, 1e6, 1e9])
def test_k0_complex_steed_matches_rotated_quadrature(modulus):
    # Steed's CF2 on 2 < |z| <= 1e9 up to arg z = pi/2 - 1e-12, where it takes
    # the most steps (141 at |z| = 2); where exp(-Re z) underflows both are 0
    for tilt in (1e-12, 1e-6, 1e-2, 0.4, 1.2):  # pi/2 - arg z
        z = modulus * complex(math.sin(tilt), math.cos(tilt))
        ref = k0_rotated_reference(z)
        got = bessel.k0(z)
        assert abs(got - ref) <= 1e-12 * abs(ref), (z, got, ref)
        assert bessel.k0(z.conjugate()) == got.conjugate()


@pytest.mark.parametrize("x", [2.0001, 7.5, 90.0, 600.0])
def test_k0_beside_the_real_axis_continues_the_real_table(x):
    # within |Im z| <= 1e-8 Re z the real tail table is evaluated at complex
    # z: accurate on both sides of the switch, and a complex step through it
    # gives K0' = -K1
    for eta in (0.99e-8, 1.01e-8):
        z = complex(x, eta * x)
        ref = k0_rotated_reference(z)
        assert abs(bessel.k0(z) - ref) <= 1e-12 * abs(ref)
    h = 1e-20 * x
    with mp.workdps(30):
        k1 = float(mp.besselk(1, x))
    assert bessel.k0(complex(x, h)).imag / h == pytest.approx(-k1, rel=1e-12)
    assert bessel.k0(complex(x, h)).real == pytest.approx(bessel.k0(x).real, rel=4e-15)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5 + 2.0j, complex(0.0, 3.0)])
def test_k0_rejects_left_half_plane(bad):
    with pytest.raises(DomainError):
        bessel.k0(bad)


def _j0y0_reference(x: float) -> tuple[float, float]:
    with mp.workdps(30):
        return float(mp.besselj(0, x)), float(mp.bessely(0, x))


OSC_PROBES = [1e-3, 0.1, 1.0, 2.4048, 4.9999, 5.0001, 11.0, 88.0, 1000.0, 19999.0]


@pytest.mark.parametrize("x", OSC_PROBES)
def test_j0_y0_against_mpmath(x):
    j_ref, y_ref = _j0y0_reference(x)
    # amplitude envelope sqrt(2/(pi x)) sets the natural absolute scale
    scale = max(1.0, abs(j_ref), abs(y_ref))
    h = bessel.hankel1_0(x)
    assert abs(h.real - j_ref) <= 3e-12 * scale
    assert abs(h.imag - y_ref) <= 3e-12 * scale


def test_hankel_combines_j0_y0():
    x = 2.7
    h = bessel.hankel1_0(x)
    with mp.workdps(30):
        ref = complex(mp.hankel1(0, x))
    assert abs(h - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("bad", [0.0, -2.0])
def test_y0_and_hankel_need_positive_argument(bad):
    with pytest.raises(DomainError):
        bessel.hankel1_0(bad)


def test_continuation_identity_k0_to_hankel():
    # K0(eps - iz) -> (i pi/2) H0^(1)(z) as eps -> 0+; the imaginary axis
    # itself is outside the K0 domain, so approach it from Re > 0
    for z in (0.4, 1.3, 1.9, 5.0):
        val = bessel.k0(complex(1e-8, -z))
        expected = 0.5j * math.pi * bessel.hankel1_0(z)
        assert abs(val - expected) <= 1e-6 * abs(expected)


def test_np_float_inputs_accepted():
    assert bessel.k0(np.float64(1.0)) == bessel.k0(1.0)


def test_array_arguments_match_one_at_a_time():
    # more arguments than one block, on both sides of every branch point
    x = np.geomspace(1e-6, 700.0, 2 * bessel.BLOCK + 7)
    k = bessel.k0(x)
    h = bessel.hankel1_0(x)
    assert k.shape == x.shape and k.dtype == np.float64
    assert h.shape == x.shape and h.dtype == np.complex128
    for i in range(0, x.size, 61):
        xi = float(x[i])
        assert k[i] == bessel.k0(xi)
        assert h[i] == bessel.hankel1_0(xi)


def test_values_do_not_depend_on_the_other_arguments():
    # 2 BLOCK + 7 arguments, so the last block holds 7, on both sides of
    # every branch point: the series/table switches at 2 (K0) and 5 (J0/Y0);
    # for complex z the series at |z| = 2, the real table within 1e-8 of
    # the axis (the residues' step z (1 + 1e-20 i) among them), Steed's CF2
    # up to |z| = 1e9, the asymptotic series beyond (by the imaginary axis)
    # and K0 = 0 where exp(-Re z) underflows
    n = 2 * bessel.BLOCK + 7
    x = np.geomspace(1e-6, 800.0, n)
    rng = np.random.default_rng(5)
    tilts = np.array([1.0 + 1e-20j, 1.0 + 0.9e-8j, 1.0 + 1.1e-8j, np.exp(0.3j), np.exp(1.5j),
                      1e-9 + 1.0j])
    z = np.geomspace(1e-3, 1e10, n) * rng.choice(tilts, n)
    for f, args in ((bessel.k0, x), (bessel.hankel1_0, x), (bessel.k0, z)):
        got = f(args)
        assert got.tobytes() == np.array([f(a) for a in args], dtype=got.dtype).tobytes()
        # and inside any other batch: reversed, and in blocks of three
        assert f(args[::-1])[::-1].tobytes() == got.tobytes()
        assert np.concatenate([f(args[i : i + 3]) for i in range(0, n, 3)]).tobytes() == got.tobytes()


def test_array_shape_and_mixed_real_complex_arguments():
    z = np.array([[0.5, 3.0 + 0.0j], [1.2 - 0.4j, 6.0 + 2.0j]])
    got = bessel.k0(z)
    assert got.shape == (2, 2)
    for idx in np.ndindex(z.shape):
        assert abs(got[idx] - bessel.k0(complex(z[idx]))) <= 4e-15 * abs(got[idx])
    assert bessel.k0(np.empty(0)).shape == (0,)


def test_array_domain_errors_name_the_first_bad_argument():
    with pytest.raises(DomainError) as info:
        bessel.k0(np.array([1.0, -2.0, -3.0]))
    assert info.value.details == {"z": repr(complex(-2.0))}
    with pytest.raises(DomainError):
        bessel.hankel1_0(np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        bessel.hankel1_0(np.array([[1.0], [0.0]]))


def _edge_sweep() -> np.ndarray:
    # both sides of every branch edge (2 for K0, 5 for J0/Y0), the smallest
    # subnormal, a tiny normal, where exp(-x) underflows and near the top of
    # the doubles
    edges = [np.nextafter(e, side) for e in (2.0, 5.0) for side in (0.0, e, math.inf)]
    return np.array([5e-324, 1e-300, 0.3, *edges, 10.0, 745.0, 1e308])


def test_kernels_keep_their_bits_at_every_branch_edge():
    # one sha256 over float.hex of real K0, of complex K0 within 1e-8 of the
    # axis (where it continues the real table) and of H0^(1), each called on
    # the whole sweep and on every argument alone; recorded with numpy 2.4.6
    # on x86-64 before the real K0 became one stacked table
    x = _edge_sweep()
    z = np.concatenate([x * (1.0 + t * 1j) for t in (1e-20, 1e-9, 1e-8, -1e-8)])
    digest = hashlib.sha256()
    with np.errstate(all="ignore"):  # the older kernels warned at 5e-324 and 1e308: bits only
        for f, args in ((bessel.k0, x), (bessel.k0, z), (bessel.hankel1_0, x)):
            for value in map(complex, [*np.ravel(f(args)), *(f(a) for a in args)]):
                digest.update(f"{value.real.hex()} {value.imag.hex()};".encode())
    assert digest.hexdigest() == "e8d4e28ce47320d32a1aca1834f382fa5ab8208d2727efe4e59cced8bb56445a"
