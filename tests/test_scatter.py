"""Amplitude, cross section, optical theorem, scattered wave, 1D transmission."""

import cmath
import math

import numpy as np
import pytest

from deltagreen import (
    amplitude3d,
    amplitude_denominator,
    bare_1d,
    cross_section_total,
    from_bound_state,
    optical_theorem_residual,
    scattered_wave,
    transmission1d,
)
from deltagreen.errors import DomainError, IllegalSpecError
from deltagreen.greenfn import SpatialPoint
from deltagreen.oracles import shrinking_well_depth
from deltagreen.scatter import resolve_policy


def test_amplitude_reference_point():
    f = amplitude3d(1.0, -1.0)
    assert f == pytest.approx(complex(-0.5, 0.5), rel=1e-15)
    assert abs(f) ** 2 == pytest.approx(0.5, rel=1e-15)


def test_amplitude_low_k_is_scattering_length():
    # f(k -> 0) -> -1/kappa_B
    for kb in (0.5, 1.0, 3.0):
        f = amplitude3d(1e-8, -kb * kb)
        assert f.real == pytest.approx(-1.0 / kb, rel=1e-8)
        assert abs(f.imag) < 1e-7


def test_amplitude_against_finite_well_phase_shift():
    """Dual route: a narrow square well with the same E_B must reproduce |f|.

    The well's s-wave phase shift comes from logarithmic-derivative matching,
    sharing nothing with the contact-potential formula; agreement at low k is
    the zero-range universality statement (residual here is ~kappa_B r0 / 2,
    measured 0.50% at r0 = 0.01).
    """
    e_b, r0, k = -1.0, 0.01, 0.01
    v0 = shrinking_well_depth(e_b, r0)
    q = math.sqrt(v0 + k * k)
    delta0 = math.atan(k * math.tan(q * r0) / q) - k * r0
    f_well = abs(math.sin(delta0)) / k
    assert f_well == pytest.approx(abs(amplitude3d(k, e_b)), rel=1e-2)


def test_cross_section_values():
    assert cross_section_total(1.0, -1.0) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert cross_section_total(1e-9, -1.0) == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert cross_section_total(100.0, -1.0) == pytest.approx(
        4.0 * math.pi / 10001.0, rel=1e-14
    )


def test_cross_section_monotone():
    ks = [0.1, 0.5, 1.0, 5.0, 25.0]
    sigs = [cross_section_total(k, -1.0) for k in ks]
    assert all(a > b for a, b in zip(sigs, sigs[1:]))
    ebs = [-0.1, -1.0, -10.0, -100.0]
    sigs_e = [cross_section_total(1.0, e) for e in ebs]
    assert all(a > b for a, b in zip(sigs_e, sigs_e[1:]))


def test_optical_theorem_holds_under_unitary_policy():
    rng = np.random.default_rng(314)
    for _ in range(60):
        k = float(rng.uniform(0.05, 20.0))
        e_b = -float(rng.uniform(0.05, 25.0))
        assert abs(optical_theorem_residual(k, e_b)) <= 1e-14


def test_optical_theorem_fails_under_paper_policy():
    # conjugated denominator: residual is -2k/(kappa_B^2 + k^2) exactly
    assert optical_theorem_residual(1.0, -1.0, policy="paper") == pytest.approx(
        -1.0, rel=1e-14
    )
    assert optical_theorem_residual(2.0, -1.0, policy="paper") == pytest.approx(
        -0.8, rel=1e-14
    )


def test_cross_section_is_policy_blind():
    f_u = amplitude3d(0.7, -2.0, policy="unitary")
    f_p = amplitude3d(0.7, -2.0, policy="paper")
    assert abs(f_u) == pytest.approx(abs(f_p), rel=1e-15)
    assert f_u == f_p.conjugate()


def test_policy_resolution():
    assert resolve_policy(None) == "unitary"
    assert resolve_policy("paper") == "paper"
    assert resolve_policy("unitary") == "unitary"
    with pytest.raises(IllegalSpecError):
        resolve_policy("nonsense")


def test_amplitude_pole_sits_at_the_bound_state():
    for kb in (0.5, 1.0, 2.3):
        e_b = -kb * kb
        assert amplitude_denominator(1j * kb, e_b) == 0.0
        near = abs(amplitude_denominator(1j * kb * (1.0 + 1e-12), e_b))
        assert near <= 1e-10
        # paper policy puts the pole on the wrong half-axis
        assert abs(amplitude_denominator(-1j * kb, e_b, policy="paper")) == 0.0


def test_far_field_reproduces_the_amplitude():
    k, e_b = 0.7, -1.0
    f = amplitude3d(k, e_b)
    for r in (200.0, 500.0):
        for theta in (0.0, 0.4, 1.1, 2.0, math.pi):
            x = SpatialPoint.of(r * math.sin(theta), 0.0, r * math.cos(theta))
            psi = scattered_wave(k, from_bound_state(e_b), x)
            f_est = (psi - cmath.exp(1j * k * x.coords[2])) * r * cmath.exp(-1j * k * r)
            assert f_est == pytest.approx(f, rel=1e-10)


def test_deep_bound_state_turns_scattering_off():
    k = 1.0
    x = SpatialPoint.of(0.3, -0.4, 1.2)
    psi = scattered_wave(k, from_bound_state(-1e8), x)
    plane = cmath.exp(1j * k * x.coords[2])
    assert abs(psi - plane) < 2e-4


@pytest.mark.parametrize("policy", ["unitary", "paper"])
def test_forward_axis_shadow(policy):
    # interference removes flux from the beam: |psi|^2 < 1 downstream
    psi = scattered_wave(0.7, from_bound_state(-1.0), SpatialPoint.of(0, 0, 50.0), policy=policy)
    assert abs(psi) ** 2 < 1.0


def test_scattering_input_validation():
    with pytest.raises(DomainError):
        amplitude3d(-1.0, -1.0)
    with pytest.raises(DomainError):
        amplitude3d(0.0, -1.0)
    with pytest.raises(DomainError):
        amplitude3d(1.0, 0.5)
    with pytest.raises(DomainError):
        cross_section_total(math.nan, -1.0)
    for x in (SpatialPoint.of(0.0), SpatialPoint.of(0.0, 1.0)):  # points of R^3 only
        with pytest.raises(IllegalSpecError):
            scattered_wave(1.0, from_bound_state(-1.0), x)
    with pytest.raises(IllegalSpecError):
        scattered_wave(1.0, bare_1d(-2.0), SpatialPoint.of(0, 0, 1.0))
    with pytest.raises(DomainError):
        scattered_wave(0.0, from_bound_state(-1.0), SpatialPoint.of(0, 0, 1.0))


def test_transmission_reference_points():
    t, r = transmission1d(1.0, -2.0)
    assert t == 0.5
    assert r == 0.5
    assert transmission1d(2.0, -2.0)[0] == pytest.approx(0.8, rel=1e-15)
    assert transmission1d(1.0, 0.0) == (1.0, 0.0)


def test_transmission_limits_and_unitarity():
    assert transmission1d(1e6, -2.0)[0] >= 1.0 - 1e-11
    assert transmission1d(1e-6, -2.0)[0] <= 1e-11
    for k in (0.1, 0.7, 3.0):
        t, r = transmission1d(k, -1.7)
        assert t + r == 1.0
    # attraction and repulsion transmit identically (lambda enters squared)
    assert transmission1d(0.9, 2.0) == transmission1d(0.9, -2.0)


def test_transmission_survives_underflowing_squares():
    # k^2 + lambda^2/4 underflows to 0 here; T = 1/(1 + (lambda/2k)^2) does not
    assert transmission1d(1e-300, -1e-300) == (0.8, 1.0 - 0.8)
    assert transmission1d(1e-300, 0.0) == (1.0, 0.0)
    assert transmission1d(1e-200, 1.0) == (0.0, 1.0)
    assert transmission1d(1e150, 1e300)[0] == pytest.approx(4e-300, rel=1e-15)


def test_transmission_validation():
    with pytest.raises(DomainError):
        transmission1d(0.0, -2.0)
    with pytest.raises(DomainError):
        transmission1d(1.0, math.inf)
