"""Regularized bubbles, coupling maps, transmutation, the 4D no-go table."""

import cmath
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from deltagreen import (
    bare_1d,
    bare_from_renormalized,
    bubble_regularized,
    friedman_report,
    from_bound_state,
    renormalized_2d,
    renormalized_3d,
    renormalized_denominator,
    rg_shift,
    transmutation_energy,
)
from deltagreen import renorm
from deltagreen.errors import (
    CouplingBlowupError,
    DivergentBubbleError,
    DomainError,
    IllegalSpecError,
    PoleCrossingError,
    UnsupportedDimError,
    ZeroCouplingError,
)
from deltagreen.greenfn import ComplexEnergy
from deltagreen.renorm import (
    REN_2D,
    CouplingSpec,
    coupling_constants,
    renormalized_denominators,
)

# surface of the unit sphere over (2 pi)^D, D = 1..4
_ANGULAR = {
    1: 2.0 / (2.0 * math.pi),
    2: 2.0 * math.pi / (2.0 * math.pi) ** 2,
    3: 4.0 * math.pi / (2.0 * math.pi) ** 3,
    4: 2.0 * math.pi**2 / (2.0 * math.pi) ** 4,
}


def bubble_by_quadrature(dim: int, big_k: float, lam_cap: float) -> float:
    """Radial integral of k^(D-1)/(k^2+K^2) up to the cutoff, numerically."""
    val, err = quad(
        lambda k: k ** (dim - 1) / (k * k + big_k * big_k),
        0.0,
        lam_cap,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=400,
    )
    assert err < 1e-9 * max(1.0, abs(val))
    return _ANGULAR[dim] * val


@pytest.mark.parametrize("dim,tol", [(1, 1e-12), (2, 1e-10), (3, 1e-8), (4, 1e-6)])
@pytest.mark.parametrize("big_k", [0.3, 1.0, 4.7])
@pytest.mark.parametrize("lam_cap", [0.6, 10.0, 250.0])
def test_bubble_matches_radial_quadrature(dim, tol, big_k, lam_cap):
    closed = bubble_regularized(dim, big_k, lam_cap)
    brute = bubble_by_quadrature(dim, big_k, lam_cap)
    assert closed == pytest.approx(brute, rel=tol)


def test_bubble_frozen_values():
    assert bubble_regularized(2, 1.0, 1.0) == pytest.approx(
        math.log(2.0) / (4.0 * math.pi), rel=1e-14
    )
    assert bubble_regularized(3, 1.0, 100.0) == pytest.approx(
        (100.0 - math.atan(100.0)) / (2.0 * math.pi**2), rel=1e-14
    )
    # K -> 0 limit of the 4D bubble: pure quadratic divergence
    assert bubble_regularized(4, 1e-9, 10.0) == pytest.approx(
        100.0 / (16.0 * math.pi**2), rel=1e-6
    )


def test_bubble_infinite_cutoff_only_in_1d():
    assert bubble_regularized(1, 1.0, None) == 0.5
    assert bubble_regularized(1, 2.0, None) == 0.25
    for dim in (2, 3, 4):
        with pytest.raises(DivergentBubbleError):
            bubble_regularized(dim, 1.0, None)


def test_bubble_monotonicity():
    for dim in (1, 2, 3, 4):
        caps = [0.5, 1.0, 2.0, 8.0, 64.0]
        vals = [bubble_regularized(dim, 1.0, c) for c in caps]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        ks = [0.2, 0.5, 1.3, 3.1]
        vals_k = [bubble_regularized(dim, k, 10.0) for k in ks]
        assert all(a > b for a, b in zip(vals_k, vals_k[1:]))


def test_bubble_validation():
    with pytest.raises(UnsupportedDimError):
        bubble_regularized(5, 1.0, 1.0)
    with pytest.raises(DomainError):
        bubble_regularized(2, -1.0, 1.0)
    # a cutoff is a plain number that each function taking one checks first
    for cap in (-3.0, 0.0, math.inf, math.nan):
        for call in (lambda: bubble_regularized(5, -1.0, cap),
                     lambda: bare_from_renormalized(1, None, cap),
                     lambda: friedman_report(1.0, [10.0, cap])):
            with pytest.raises(DomainError, match="cutoff must be positive and finite") as info:
                call()
            (key, got), = info.value.details.items()
            assert key == "lambda_cap" and (got == cap or math.isnan(got) and math.isnan(cap))


def test_coupling_spec_factories_validate():
    with pytest.raises(ZeroCouplingError):
        bare_1d(0.0)
    with pytest.raises(DomainError):
        bare_1d(math.inf)
    with pytest.raises(DomainError):
        renormalized_2d(-1.0, -2.0)
    with pytest.raises(ZeroCouplingError):
        renormalized_3d(0.0)
    with pytest.raises(DomainError):
        from_bound_state(0.5)
    spec = bare_1d(-2.0)
    assert spec.bound_state_energy(1) == -1.0
    assert bare_1d(2.0).bound_state_energy(1) is None
    assert renormalized_3d(-4.0).bound_state_energy(3) is None


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("dim, factory", [
    (1, bare_1d), (2, lambda v: renormalized_2d(v, 1.0)), (3, renormalized_3d),
], ids=["1d", "2d", "3d"])
def test_a_coupling_whose_constant_overflows_is_refused(dim, factory, sign):
    # 1/lambda, 2 pi/lambda_R or 1/lambda_R = inf makes 1/D vanish at every
    # energy, as lambda = 0 does: the factories refuse both
    with pytest.raises(ZeroCouplingError):
        factory(sign * 1e-320)
    assert np.isfinite(coupling_constants(dim, (factory(sign * 1e-300),))).all()


@pytest.mark.parametrize("spec, dim, want", [
    (bare_1d(1e300), 1, None),  # no state
    (renormalized_3d(-1e-300), 3, None),
    (bare_1d(-2.0), 1, -1.0),
    (renormalized_3d(4.0 * math.pi), 3, -1.0),
    (bare_1d(-1e-300), 1, -0.0),  # -lambda^2/4 underflows
    (renormalized_3d(1e300), 3, -0.0),  # -(4 pi/lambda_R)^2 underflows
    (bare_1d(-1e300), 1, -math.inf),  # overflows: a DomainError
    (renormalized_3d(1e-300), 3, -math.inf),
    (renormalized_3d(2.8048664346235065e-283), 3, -math.inf),
])
def test_bound_state_energy_has_three_outcomes(spec, dim, want):
    if want == -math.inf:
        with pytest.raises(DomainError, match="overflows") as err:
            spec.bound_state_energy(dim)
        assert err.value.details == {"e_b": -math.inf}
    else:
        assert repr(spec.bound_state_energy(dim)) == repr(want)  # -0.0 keeps its sign


def test_bare_from_renormalized_3d_example():
    lam = bare_from_renormalized(3, renormalized_3d(4.0 * math.pi), 1e4)
    assert lam == pytest.approx(-1.9742e-3, rel=1e-4)
    # round-trip: rebuild 1/lambda_R from the bare coupling
    back = 1.0 / lam + 1e4 / (2.0 * math.pi**2)
    assert 1.0 / back == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_bare_from_renormalized_2d_round_trip():
    spec = renormalized_2d(-4.0 * math.pi, 1.0)
    cap = math.exp(2.0 * math.pi)
    lam = bare_from_renormalized(2, spec, cap)
    back = 1.0 / lam + math.log(cap * cap) / (4.0 * math.pi)
    assert 1.0 / back == pytest.approx(-4.0 * math.pi, rel=1e-12)


def test_bare_from_bound_state_2d_matches_renormalized_form():
    # mu drops out of the E_B form: both give the bare coupling of one state
    spec = renormalized_2d(-4.0 * math.pi, 1.0)
    same = from_bound_state(spec.bound_state_energy(2))
    for cap in (1e2, 1e4):
        want = bare_from_renormalized(2, spec, cap)
        assert bare_from_renormalized(2, same, cap) == pytest.approx(want, rel=1e-14)


def test_bare_coupling_runs_to_zero_from_below():
    caps = [10.0**p for p in range(2, 9)]
    for dim, spec in ((2, renormalized_2d(-4.0 * math.pi, 1.0)), (3, renormalized_3d(4.0 * math.pi))):
        lams = [bare_from_renormalized(dim, spec, c) for c in caps]
        assert all(lam < 0.0 for lam in lams)
        assert all(a < b for a, b in zip(lams, lams[1:]))  # increasing toward 0-
    # 3D asymptote: lambda * cutoff -> -2 pi^2
    lam_tail = bare_from_renormalized(3, renormalized_3d(4.0 * math.pi), 1e8)
    assert lam_tail * 1e8 == pytest.approx(-2.0 * math.pi**2, rel=1e-6)


def test_pole_crossing_detected():
    # 1/lambda passes through zero where the log term cancels 1/lambda_R
    with pytest.raises(PoleCrossingError):
        bare_from_renormalized(2, renormalized_2d(-4.0 * math.pi, 1.0), math.exp(-0.5))
    with pytest.raises(PoleCrossingError):
        bare_from_renormalized(3, renormalized_3d(4.0 * math.pi), math.pi / 2.0)


def test_bare_from_renormalized_validation():
    with pytest.raises(UnsupportedDimError):
        bare_from_renormalized(1, bare_1d(-2.0), 10.0)
    with pytest.raises(IllegalSpecError):
        bare_from_renormalized(2, renormalized_3d(1.0), 10.0)


def test_denominator_values():
    assert renormalized_denominator(3, -1.0, from_bound_state(-1.0)) == 0.0
    d2 = renormalized_denominator(2, -math.e, from_bound_state(-1.0))
    assert d2.real == pytest.approx(-1.0 / (4.0 * math.pi), rel=1e-14)
    assert d2.imag == 0.0
    d1 = renormalized_denominator(1, -4.0, bare_1d(-2.0))
    assert d1 == pytest.approx(-0.25, rel=1e-15)


def test_denominator_limit_equivalence():
    """1/lambda(cutoff) + bubble reproduces the renormalized denominator.

    The regularized and renormalized routes must agree once the cutoff is
    large; 1e6 buys about twelve digits in 2D and six in 3D.
    """
    cap = 1e6
    cases = [
        (2, renormalized_2d(-4.0 * math.pi, 1.0), -math.exp(1) * math.exp(-1) * math.e),
        (2, renormalized_2d(-4.0 * math.pi, 1.0), -0.9),
        (3, renormalized_3d(4.0 * math.pi), -2.2),
        (3, from_bound_state(-1.0), -0.5),
    ]
    for dim, spec, energy in cases:
        lam = bare_from_renormalized(dim, spec, cap)
        reg = 1.0 / lam + bubble_regularized(dim, math.sqrt(-energy), cap)
        ren = renormalized_denominator(dim, energy, spec).real
        assert reg == pytest.approx(ren, abs=1e-6)


@pytest.mark.parametrize(
    "dim,spec,order",
    [
        (2, renormalized_2d(-4.0 * math.pi, 1.0), 2.0),
        (3, renormalized_3d(4.0 * math.pi), 1.0),
    ],
)
def test_cutoff_consistency_at_the_pole(dim, spec, order):
    """At E_B the denominator 1/lambda + bubble vanishes as the cutoff grows.

    (The difference 1/lambda - bubble diverges; the denominator is the sum,
    since the bubble equals -G0(E;0,0).)  Measured rates: cutoff^-2 in 2D,
    cutoff^-1 in 3D, each within +-0.2.
    """
    kb = math.sqrt(-spec.bound_state_energy(dim))
    caps = [1e2, 1e3, 1e4]
    resid = []
    for cap in caps:
        lam = bare_from_renormalized(dim, spec, cap)
        resid.append(abs(1.0 / lam + bubble_regularized(dim, kb, cap)))
    assert resid[-1] < resid[0]
    slope = -np.polyfit(np.log(caps), np.log(resid), 1)[0]
    assert slope == pytest.approx(order, abs=0.2)


def bubble_proper_time(dim: int, kappa, lam_cap: float):
    """The bubble under a proper-time regulator t >= 1/Lambda^2,

        int_{1/Lambda^2}^inf (4 pi t)^(-D/2) exp(-kappa^2 t) dt,

    by tanh-sinh quadrature at the caller's mpmath precision (no E1 or erfc
    closed form).  At Lambda -> inf it is the momentum bubble, -G0(E; 0, 0)."""
    t0 = 1 / mp.mpf(lam_cap) ** 2
    k2 = mp.mpf(kappa) ** 2
    half_dim = mp.mpf(dim) / 2
    return mp.quad(lambda t: mp.exp(-k2 * t) / (4 * mp.pi * t) ** half_dim, [t0, 1, mp.inf])


@pytest.mark.parametrize(
    "dim,spec,kappa_sub,order",
    [
        (2, renormalized_2d(-4.0 * math.pi, 1.0), 1.0, 2.0),  # D(-mu^2) = 1/lambda_R
        (3, renormalized_3d(4.0 * math.pi), 0.0, 1.0),  # D(0) = 1/lambda_R
    ],
)
def test_proper_time_regulator_gives_the_same_renormalized_denominator(
    dim, spec, kappa_sub, order
):
    """The renormalized denominator does not depend on the regulator.

    Cut the proper time (t >= 1/Lambda^2) instead of the momentum, and tune
    the bare coupling at each Lambda so that 1/lambda + bubble equals
    1/lambda_R at the subtraction point (kappa = mu in 2D, E = 0 in 3D).
    The bare couplings differ from the sharp-cutoff ones (by ~gamma/(4 pi)
    in 2D, in proportion to Lambda in 3D), yet the denominator converges to
    :func:`renormalized_denominator` at the sharp cutoff's rates, Lambda^-2
    in 2D and Lambda^-1 in 3D, and in 2D its zero to the transmuted E_B.
    """
    caps = [1e1, 1e2, 1e3, 1e4]
    kappas = (0.3, 0.9, 2.0)
    e_b = transmutation_energy(spec) if dim == 2 else None
    errs, eb_errs = [], []
    with mp.workdps(30):
        for cap in caps:
            inv_bare = 1 / mp.mpf(spec.lambda_r) - bubble_proper_time(dim, kappa_sub, cap)
            sharp = 1.0 / bare_from_renormalized(dim, spec, cap)
            assert abs(float(inv_bare) - sharp) > 0.01

            def den(kap):
                return inv_bare + bubble_proper_time(dim, kap, cap)

            ren = [renormalized_denominator(dim, -k * k, spec).real for k in kappas]
            errs.append(max(abs(float(den(k)) - d) for k, d in zip(kappas, ren)))
            if e_b is not None:
                kb = mp.findroot(den, math.sqrt(-e_b))
                eb_errs.append(abs(-float(kb) ** 2 / e_b - 1.0))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    slope = -np.polyfit(np.log(caps), np.log(errs), 1)[0]
    assert slope == pytest.approx(order, abs=0.1)
    assert errs[-1] < (1e-8 if dim == 2 else 1e-4)
    if e_b is not None:
        assert all(a > b for a, b in zip(eb_errs, eb_errs[1:]))
        assert eb_errs[-1] < 1e-8


def test_transmutation_values():
    assert transmutation_energy(renormalized_2d(-4.0 * math.pi, 1.0)) == pytest.approx(
        -math.exp(-1.0), rel=1e-15
    )
    assert transmutation_energy(
        renormalized_2d(-4.0 * math.pi / 3.0, math.e)
    ) == pytest.approx(-math.exp(-1.0), rel=1e-12)
    tiny = transmutation_energy(renormalized_2d(-0.1, 1.0))
    assert -1e-50 < tiny < 0.0
    with pytest.raises(IllegalSpecError):
        transmutation_energy(renormalized_3d(1.0))
    with pytest.raises(DomainError):
        transmutation_energy(renormalized_2d(1e-3, 1.0))  # exp overflow
    with pytest.raises(ZeroCouplingError):  # the constructor refuses it, as the factory does
        CouplingSpec(variant=REN_2D, lambda_r=0.0, mu=1.0)


@pytest.mark.parametrize("lambda_r, mu", [
    (-3.925474319693792e-94, 7.0793263427925425e+249),  # mu^2 overflows, exp underflows
    (-1.0, 1e200),  # mu^2 overflows
    (0.01, 1e-200),  # exp overflows, mu^2 underflows
    (-0.01, 1.0),  # exp underflows
    (1e-3, 1.0),  # exp overflows
    (1.0, 1e154),  # both factors are doubles, their product is not
    (0.02, 3e-162),  # mu^2 is subnormal, 10% off
    (-0.0174, 1e100),  # exp is subnormal
    (-0.018192, 1e-10),  # both factors are normal, their product is subnormal
    (-4.4e-308, 1.0),  # 2 pi/lambda_R is a double, 2 ln kappa_B is not: E_B underflows
    (4.4e-308, 1.0),  # likewise, and E_B overflows
])
def test_transmutation_energy_outside_the_double_range(lambda_r, mu):
    # where a factor of -mu^2 exp(4 pi/lambda_R) or their product is no
    # normal double, E_B is -exp(2 ln kappa_B); it is -0.0 where it
    # underflows and a DomainError where it overflows
    want = -mp.mpf(mu) ** 2 * mp.exp(4 * mp.pi / mp.mpf(lambda_r))
    if -want > mp.mpf(np.finfo(float).max):
        with pytest.raises(DomainError, match="overflows"):
            transmutation_energy(renormalized_2d(lambda_r, mu))
        return
    e_b = transmutation_energy(renormalized_2d(lambda_r, mu))
    if -want < mp.mpf(5e-324) / 2:
        assert math.copysign(1.0, e_b) == -1.0 and e_b == 0.0
    else:
        # 2 ln kappa_B ~ 336 carries its rounding into E_B: 336 eps ~ 7e-14
        assert e_b == pytest.approx(float(want), rel=1e-13, abs=5e-324)
    if e_b <= -np.finfo(float).tiny:
        # the closed form and the scan's denominator agree on the state
        assert abs(renormalized_denominator(2, e_b, renormalized_2d(lambda_r, mu))) <= 1e-13


def test_rg_shift_examples():
    assert rg_shift(-4.0 * math.pi, 1.0, math.e) == pytest.approx(
        -4.0 * math.pi / 3.0, rel=1e-14
    )
    assert rg_shift(-4.0 * math.pi, 2.5, 2.5) == -4.0 * math.pi
    with pytest.raises(CouplingBlowupError):
        rg_shift(4.0 * math.pi, 1.0, math.sqrt(math.e))
    with pytest.raises(DomainError):
        rg_shift(-1.0, -1.0, 1.0)
    with pytest.raises(ZeroCouplingError):
        rg_shift(0.0, 1.0, 2.0)


def test_rg_flow_group_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lam_r = -rng.uniform(2.0, 30.0)
        mu, mu1, mu2 = rng.uniform(0.5, 2.0, 3)
        one_hop = rg_shift(rg_shift(lam_r, mu, mu1), mu1, mu2)
        direct = rg_shift(lam_r, mu, mu2)
        assert one_hop == pytest.approx(direct, rel=1e-12)


def test_rg_invariance_of_bound_state():
    rng = np.random.default_rng(11)
    for _ in range(100):
        lam_r = -rng.uniform(2.0, 30.0)
        mu = rng.uniform(0.5, 2.0)
        mu_p = rng.uniform(0.5, 2.0)
        e_ref = transmutation_energy(renormalized_2d(lam_r, mu))
        e_new = transmutation_energy(renormalized_2d(rg_shift(lam_r, mu, mu_p), mu_p))
        assert e_new == pytest.approx(e_ref, rel=1e-12)


def test_friedman_report_values():
    rows = friedman_report(1.0, [10.0, 100.0])
    n16pi2 = 16.0 * math.pi**2
    assert rows[0].nonremovable_part == pytest.approx(math.log(101.0) / n16pi2, rel=1e-14)
    assert rows[1].nonremovable_part == pytest.approx(math.log(10001.0) / n16pi2, rel=1e-14)
    assert rows[0].quadratic_part == pytest.approx(100.0 / n16pi2, rel=1e-15)
    for row in rows:
        # decomposition identity: total = quadratic - nonremovable
        assert row.total_bubble == pytest.approx(
            row.quadratic_part - row.nonremovable_part, rel=1e-13
        )


def test_friedman_nonremovable_grows_and_vanishes_with_k():
    rows = friedman_report(2.0, [10.0, 100.0, 1000.0, 10000.0])
    vals = [r.nonremovable_part for r in rows]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    small_k = friedman_report(1e-8, [100.0])[0].nonremovable_part
    assert small_k < 1e-13


def test_friedman_input_validation():
    with pytest.raises(DomainError):
        friedman_report(1.0, [])
    with pytest.raises(DomainError):
        friedman_report(1.0, [100.0, 10.0])
    with pytest.raises(DomainError):
        friedman_report(-1.0, [10.0])


# ------------------------------------------------------ array denominators


def _mixed_specs(dim, rng, n):
    """n couplings legal in dim, alternating the dimension's two variants."""
    out = []
    for i in range(n):
        if i % 2:
            out.append(from_bound_state(-float(rng.uniform(0.1, 5.0))))
        elif dim == 1:
            out.append(bare_1d(float(rng.uniform(-3.0, 3.0))))
        elif dim == 2:
            out.append(renormalized_2d(-float(rng.uniform(2.0, 30.0)), float(rng.uniform(0.5, 2.0))))
        else:
            out.append(renormalized_3d(float(rng.uniform(-20.0, 20.0))))
    return out


def _energies(branch, rng, k):
    mags = 10.0 ** rng.uniform(-3.0, 2.0, k)
    if branch == "real":
        return [ComplexEnergy(-m) for m in mags]
    if branch == "complex_step":
        # -(kappa (1 + 1e-20 i))^2, the residue's complex step in ln kappa
        return [ComplexEnergy(complex(-m, -2e-20 * m)) for m in mags]
    if branch == "complex":
        return [ComplexEnergy(complex(*rng.uniform(-5.0, 5.0, 2))) for _ in mags]
    return [ComplexEnergy(m, retarded=True) for m in mags]


def _scalar_reference(dim, e, spec):
    """The denominators in Python scalar arithmetic, one formula per variant,
    and the two terms each formula adds."""
    kap = e.kappa
    if dim == 1:
        half = 0.5 / kap
        if spec.variant == "bare_1d":
            return 1.0 / spec.lam + half, (1.0 / spec.lam, half)
        half_b = 0.5 / math.sqrt(-spec.e_b)
        return half - half_b, (half, half_b)
    if dim == 2:
        # ln kappa_B - ln kappa with kappa = m 2^e, |m| in [1/sqrt 2, sqrt 2),
        # and kappa_B likewise when given by E_B: ln m_B + (e_B - e) ln 2 - ln m
        e = math.frexp(abs(kap) * math.sqrt(2.0))[1] - 1
        if spec.variant == "ren_2d":
            ln_m_b, e_b = math.log(spec.mu) + 2.0 * math.pi / spec.lambda_r, 0
        else:
            e_b = math.frexp(math.sqrt(-spec.e_b) * math.sqrt(2.0))[1] - 1
            ln_m_b = math.log(math.sqrt(-spec.e_b) / 2.0**e_b)
        log = cmath.log if isinstance(kap, complex) else math.log
        terms = ((ln_m_b + (e_b - e) * math.log(2.0)) / (2.0 * math.pi), log(kap / 2.0**e) / (2.0 * math.pi))
        return terms[0] - terms[1], terms
    if spec.variant == "ren_3d":
        return 1.0 / spec.lambda_r - kap / (4.0 * math.pi), (1.0 / spec.lambda_r, kap / (4.0 * math.pi))
    kb = math.sqrt(-spec.e_b)
    return kb / (4.0 * math.pi) - kap / (4.0 * math.pi), (kb / (4.0 * math.pi), kap / (4.0 * math.pi))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("branch", ["real", "complex_step", "complex", "retarded"])
def test_array_denominators_match_the_scalar_entry(dim, branch):
    rng = np.random.default_rng(100 * dim + len(branch))
    specs = _mixed_specs(dim, rng, 6)
    energies = _energies(branch, rng, 40)
    kappa = np.array([e.kappa for e in energies])
    out = renormalized_denominators(dim, kappa, coupling_constants(dim, specs))
    assert out.shape == (40, 6)
    for row, e in zip(out, energies):
        for val, spec in zip(row, specs):
            assert val == renormalized_denominator(dim, e, spec)
            ref, terms = _scalar_reference(dim, e, spec)
            if branch != "real" or dim == 2:
                # numpy's complex division (a multiply by the reciprocal) and
                # log, real or complex, may differ from Python's in the last
                # bit of a term; the sum of two terms then moves by that bit
                # of the larger
                assert abs(val - ref) <= 4e-16 * max(map(abs, terms))
            else:
                assert val == ref


def test_array_denominators_shape_follows_kappa():
    consts = coupling_constants(3, [renormalized_3d(2.0), from_bound_state(-1.0)])
    assert renormalized_denominators(3, 1.5, consts).shape == (2,)
    assert renormalized_denominators(3, np.ones((4, 3)), consts).shape == (4, 3, 2)
    assert renormalized_denominators(3, np.ones(5), consts).dtype == float
    assert renormalized_denominators(3, np.full(5, 1.0 + 0.5j), consts).dtype == complex
    # the dtype follows kappa's, also where every imaginary part is zero
    assert renormalized_denominators(3, np.full(5, 1.0 + 0.0j), consts).dtype == complex


@pytest.mark.parametrize(
    "dim,make",
    [
        (1, lambda rng: bare_1d(-float(10.0 ** rng.uniform(-3, 3)))),
        (1, lambda rng: from_bound_state(-float(10.0 ** rng.uniform(-6, 6)))),
        (2, lambda rng: renormalized_2d(-float(rng.uniform(1.0, 60.0)), float(10.0 ** rng.uniform(-2, 2)))),
        (2, lambda rng: from_bound_state(-float(10.0 ** rng.uniform(-6, 6)))),
        (3, lambda rng: from_bound_state(-float(10.0 ** rng.uniform(-6, 6)))),
    ],
)
def test_denominator_vanishes_exactly_at_the_bound_state(dim, make):
    rng = np.random.default_rng(dim)
    specs = [make(rng) for _ in range(200)]
    kappa = np.array([ComplexEnergy(s.bound_state_energy(dim)).kappa for s in specs])
    consts = coupling_constants(dim, specs)
    out = np.diagonal(renormalized_denominators(dim, kappa, consts))
    if specs[0].variant == "ren_2d":
        # kappa_B comes from -mu^2 exp(4 pi/lambda_R), the constant from
        # ln mu + 2 pi/lambda_R: D is their rounding, a few ulp of the larger
        # term (ln kappa_B itself may cancel to near 0)
        terms = np.array([max(1.0, abs(math.log(s.mu)), abs(2.0 * math.pi / s.lambda_r)) for s in specs])
        assert np.all(np.abs(out) <= 4.0 * np.spacing(terms) / (2.0 * math.pi))
        assert np.any(out != 0.0)
    else:
        assert np.all(out == 0.0)


@pytest.mark.parametrize("k", [-30, -1, 1, 139, 500])
def test_2d_e_b_denominators_keep_their_bits_under_power_of_2_scaling(k):
    # lengths scaled by 2^k scale kappa and an E_B's kappa_B by 2^-k exactly,
    # so D = (ln kappa_B - ln kappa)/(2 pi) is the same double at every k
    rng = np.random.default_rng(7)
    e_bs, kappa = -rng.uniform(0.25, 2.0, 6), rng.uniform(0.05, 3.0, 40)
    s = 2.0**k
    before, after = (renormalized_denominators(2, kappa / f, coupling_constants(
        2, [from_bound_state(e / (f * f)) for e in e_bs])) for f in (1.0, s))
    assert np.array_equal(before, after)


def test_renormalized_3d_denominator_at_the_bound_state_within_4_ulp():
    rng = np.random.default_rng(3)
    specs = [renormalized_3d(float(10.0 ** rng.uniform(-3, 3))) for _ in range(1000)]
    kappa = np.array([ComplexEnergy(s.bound_state_energy(3)).kappa for s in specs])
    out = np.diagonal(renormalized_denominators(3, kappa, coupling_constants(3, specs)))
    inv = np.array([1.0 / s.lambda_r for s in specs])
    assert np.all(np.abs(out) <= 4.0 * np.spacing(inv))


@pytest.mark.parametrize(
    "dim,spec,value",
    [
        (1, bare_1d(-2.5), 1.0 / -2.5),
        (1, from_bound_state(-1.7), -1.0 / (2.0 * math.sqrt(1.7))),
        (2, renormalized_2d(-3.0, 2.0), math.log(2.0) + 2.0 * math.pi / -3.0),
        # kappa_B = m 2^e, |m| in [1/sqrt 2, sqrt 2), held as ln m + e i
        (2, from_bound_state(-1.7), complex(np.log(math.sqrt(1.7)), 0)),
        (3, renormalized_3d(2.5), 1.0 / 2.5),
        (3, renormalized_3d(-0.5), 1.0 / -0.5),
        (3, from_bound_state(-1.7), math.sqrt(1.7) / (4.0 * math.pi)),
        (2, from_bound_state(-17.0), complex(np.log(math.sqrt(17.0) / 4.0), 2)),
    ],
)
def test_coupling_constants_are_the_one_constant_of_each_denominator(dim, spec, value):
    # D = value + 1/(2 kappa), (ln kappa_B - ln kappa)/(2 pi), value - kappa/(4 pi)
    consts = coupling_constants(dim, [spec, spec])
    assert consts.tolist() == [value, value]


def test_whole_list_2d_constants_are_the_one_center_constants_bit_for_bit():
    # every E_B's kappa_B is split in one call; each constant keeps the bits,
    # zero signs included, of its center alone and of the split of a lone number
    tiny, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
    ks = [-537, -1, 0, 1, 511, *range(-530, 511, 31)]
    e_bs = [-tiny, -2.0 * tiny, -np.finfo(float).tiny, -big, -np.nextafter(big, 0.0), -1.7, -17.0]
    e_bs += [-((2.0**k) ** 2) for k in ks]
    e_bs += (-(10.0 ** np.random.default_rng(3).uniform(-323.0, 308.0, 40))).tolist()
    specs = [renormalized_2d(-(1.0 + 0.1 * i), 0.5 + i) if i % 3 == 2 else from_bound_state(e)
             for i, e in enumerate(e_bs)]
    whole = coupling_constants(2, specs)
    ones = np.concatenate([coupling_constants(2, [spec]) for spec in specs])
    assert whole.tobytes() == ones.tobytes()
    for spec, value in zip(specs, whole):
        if spec.variant == renorm.FROM_BOUND_STATE:
            split = complex(*renorm._log_split(math.sqrt(-spec.e_b)))
            assert np.array([split]).tobytes() == np.array([value]).tobytes()
    # kappa_B = 2^k: ln m = +0.0 and e = k exactly
    for k in ks:
        value = complex(coupling_constants(2, [from_bound_state(-((2.0**k) ** 2))])[0])
        assert value == complex(0.0, k) and math.copysign(1.0, value.real) == 1.0
    assert coupling_constants(2, []).tobytes() == b""


def test_whole_list_constants_are_the_scalar_formulas_bit_for_bit():
    # the array expressions round as the per-coupling float formulas do,
    # over the double range, with the variants of each dimension interleaved
    rng = np.random.default_rng(5)
    tiny, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
    e_bs = [-tiny, -np.finfo(float).tiny, -1.7, -big] + (-(10.0 ** rng.uniform(-323.0, 308.0, 30))).tolist()
    lams = [s * v for v in (1e-300, 0.3, 2.0, 1e300) for s in (1.0, -1.0)]
    lams += (rng.choice([-1.0, 1.0], 30) * 10.0 ** rng.uniform(-300.0, 300.0, 30)).tolist()
    scalar = {
        1: (bare_1d, lambda spec: 1.0 / spec.lam, lambda e_b: -0.5 / math.sqrt(-e_b)),
        3: (renormalized_3d, lambda spec: 1.0 / spec.lambda_r, lambda e_b: math.sqrt(-e_b) / (4.0 * math.pi)),
        2: (lambda lam: renormalized_2d(lam, 0.5 + abs(math.remainder(lam, 1.0))),
            lambda spec: math.log(spec.mu) + 2.0 * math.pi / spec.lambda_r, None),
    }
    for dim, (factory, own, from_e_b) in scalar.items():
        specs = [from_bound_state(e_b) for e_b in e_bs] if from_e_b else []
        specs = [spec for pair in itertools.zip_longest(specs, map(factory, lams)) for spec in pair if spec]
        want = [own(spec) if spec.e_b is None else from_e_b(spec.e_b) for spec in specs]
        got = coupling_constants(dim, specs)
        got = got.real.tolist() if dim == 2 else got.tolist()
        assert [float.hex(v) for v in got] == [float.hex(v) for v in want], dim


def test_coupling_constants_raise_the_denominator_errors():
    with pytest.raises(UnsupportedDimError):
        coupling_constants(4, [from_bound_state(-1.0)])
    with pytest.raises(IllegalSpecError):
        coupling_constants(2, [from_bound_state(-1.0), renormalized_3d(1.0)])
    # legality is checked once per variant; of two illegal ones, the first center's is named
    legal, ren2, ren3 = bare_1d(-1.0), renormalized_2d(1.0, 1.0), renormalized_3d(1.0)
    for specs, variant in [([legal, ren3, ren2, ren3], "ren_3d"), ([legal, ren2, legal, ren3, ren2], "ren_2d")]:
        with pytest.raises(IllegalSpecError) as err:
            coupling_constants(1, specs)
        assert err.value.details == {"variant": variant, "dim": 1}
    with pytest.raises(UnsupportedDimError):
        renormalized_denominator(4, -1.0, from_bound_state(-1.0))
    # E_B overflows, ln kappa_B does not: D = 1/lambda_R at kappa = mu
    for mu in (1.0, 1e100):
        assert coupling_constants(2, [renormalized_2d(1e-3, mu)])[0] == math.log(mu) + 2.0 * math.pi / 1e-3
        d = renormalized_denominator(2, -mu * mu, renormalized_2d(1e-3, mu))
        assert d == pytest.approx(1e3, rel=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
def test_denominator_at_zero_energy_is_a_domain_error(dim):
    # D = 1/lambda + 1/(2 kappa) and -ln(kappa/kappa_B)/(2 pi) diverge as kappa -> 0
    with pytest.raises(DomainError):
        renormalized_denominator(dim, ComplexEnergy(0.0, retarded=True), from_bound_state(-1.0))
    assert renormalized_denominator(
        3, ComplexEnergy(0.0, retarded=True), from_bound_state(-1.0)
    ) == 1.0 / (4.0 * math.pi)


def test_finite_range_overflows_are_domain_errors():
    with pytest.raises(DomainError):
        bubble_regularized(2, 1e-160, 1e2)
    with pytest.raises(DomainError):
        bubble_regularized(4, 1e-300, 1.0)
    with pytest.raises(DomainError):
        friedman_report(1e-300, [1.0, 2.0])
    with pytest.raises(DomainError):  # (cutoff / mu)^2 underflows to 0
        bare_from_renormalized(2, renormalized_2d(-1.0, 1e200), 1e-200)
    with pytest.raises(DomainError):  # (cutoff / mu)^2 overflows
        bare_from_renormalized(2, renormalized_2d(-1.0, 1e-100), 1e200)
    # a quotient that overflows to inf raises nothing: the inf or NaN it
    # leaves in the result is refused
    for call in (lambda: bare_from_renormalized(2, renormalized_2d(3.0, 1e-200), 1e150),
                 lambda: bare_from_renormalized(2, from_bound_state(-1e-300), 1e150),
                 lambda: rg_shift(3.0, 1e-200, 1e150),
                 lambda: bubble_regularized(2, 1e-200, 1e150),
                 lambda: bubble_regularized(4, 1e-200, 1e150),
                 lambda: friedman_report(1e-200, [1e150])):
        with pytest.raises(DomainError):
            call()
    # the D = 1 bubble, with a cutoff and without, overflows in a quotient too
    for cutoff in (1.0, None):
        with pytest.raises(DomainError, match="^bubble overflows double precision$"):
            bubble_regularized(1, 5e-324, cutoff)


def test_transmutation_energy_at_the_largest_double():
    # 2 ln kappa_B = ln(max double) exactly, through the fallback (mu^2
    # underflows): exp of it is finite, just below the largest double
    spec = renormalized_2d(0.008418767012984328, 1e-170)
    assert 2.0 * float(coupling_constants(2, (spec,))[0].real) == math.log(np.finfo(float).max)
    assert transmutation_energy(spec) == -1.7976931348622732e308
