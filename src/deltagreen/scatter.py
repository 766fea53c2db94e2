"""Scattering observables for a single delta center.

Three dimensions: a plane wave exp(ikz) hitting a renormalized contact
potential at the origin acquires the exact scattered piece

    psi(x) = exp(ikz) + G0_ret(k; x, 0) / D(k^2 + i0+),

where D is the renormalized denominator.  Since G0_ret in 3D is
-exp(ikr)/(4 pi r), the scattered wave is f exp(ikr)/r at every radius with
the isotropic (pure s-wave) amplitude

    f(k) = -1 / (kappa_B + i k),        kappa_B = sqrt(-E_B),

so |f|^2 = 1/(kappa_B^2 + k^2) and sigma = 4 pi |f|^2.  The amplitude's
analytic continuation has a pole exactly at k = i kappa_B, the bound state.

Branch policy.  The retarded prescription sqrt(-E - i0) = -ik forces the
"+ik" sign above, and only that sign satisfies the optical theorem
Im f = k sigma / (4 pi).  The opposite convention f = -1/(kappa_B - ik)
circulates as well; it has the same modulus (so the cross section is
unaffected) but violates unitarity as written.  The ``policy`` argument
selects "unitary" (default) or "paper" for side-by-side comparison;
:func:`optical_theorem_residual` is the arbiter between them.

One dimension: the same construction with G0_ret = exp(ik|x|)/(2ik) gives
the transmission probability T = k^2/(k^2 + lambda^2/4) and R = 1 - T;
only lambda^2 enters, so attraction and repulsion transmit identically.

Every observable is a plain number: :func:`amplitude3d` returns the complex
f(k), :func:`scattered_wave` the complex psi(x), :func:`transmission1d` the
pair (T, R).
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys

from .errors import DomainError, IllegalSpecError
from .greenfn import ComplexEnergy, SpatialPoint, as_number, as_point, as_scale, g0_retarded
from .renorm import CouplingSpec, renormalized_denominator

POLICIES = ("unitary", "paper")

_FOUR_PI = 4.0 * math.pi


def resolve_policy(policy: str | None = None) -> str:
    """The branch policy to use: ``policy`` itself, or "unitary" for None."""
    p = "unitary" if policy is None else policy
    if p not in POLICIES:
        raise IllegalSpecError(
            "branch policy must be 'unitary' or 'paper'", policy=str(p)
        )
    return p


def _momentum(k: float) -> float:
    return as_scale(k, "k", "a momentum", "momentum must be positive")


def _kappa_b(e_b: float) -> float:
    e_b = as_number(e_b, "e_b", "a bound-state energy")
    if not (e_b < 0.0) or not math.isfinite(e_b):
        raise DomainError("bound-state energy must be negative", e_b=e_b)
    return math.sqrt(-e_b)


def amplitude_denominator(k: complex, e_b: float, policy: str | None = None) -> complex:
    """kappa_B + ik (unitary) or kappa_B - ik (paper); -1/f, continued in k.

    Shared by :func:`amplitude3d` and the pole-duality check that continues
    f to complex k: |amplitude_denominator(i kappa_B, E_B)| = 0 at the bound
    state.
    """
    kb = _kappa_b(e_b)
    sign = 1.0 if resolve_policy(policy) == "unitary" else -1.0
    return kb + sign * 1j * as_number(k, "k", "a momentum", numbers.Complex)


def amplitude3d(k: float, e_b: float, policy: str | None = None) -> complex:
    """Isotropic s-wave amplitude f(k) (units of length) of a 3D contact
    potential with bound state E_B."""
    return -1.0 / amplitude_denominator(_momentum(k), e_b, policy)


def cross_section_total(k: float, e_b: float) -> float:
    """sigma = 4 pi |f|^2 = 4 pi / (kappa_B^2 + k^2); branch-independent."""
    k = _momentum(k)
    kb = _kappa_b(e_b)
    return _FOUR_PI / (kb * kb + k * k)


def optical_theorem_residual(k: float, e_b: float, policy: str | None = None) -> float:
    """Im f(k, theta=0) - k sigma/(4 pi): zero iff the amplitude is unitary.

    Closed form: 0 under the unitary policy, -2k/(kappa_B^2 + k^2) under the
    "paper" sign.
    """
    f = amplitude3d(k, e_b, policy)
    return f.imag - k * cross_section_total(k, e_b) / _FOUR_PI


def scattered_wave(
    k: float, spec: CouplingSpec, x: SpatialPoint, policy: str | None = None
) -> complex:
    """Exact scattering wavefunction psi(x) = exp(ikz) + G0_ret(x, 0)/D at a
    point x of R^3.

    The incident wave travels along +z (the last coordinate).  Under the
    "paper" policy the denominator is conjugated, reproducing that sign of
    the amplitude at every radius.
    """
    k, x = _momentum(k), as_point(x)
    if x.dim != 3:
        raise IllegalSpecError("scattered_wave takes a point of R^3", xdim=x.dim)
    d = renormalized_denominator(3, ComplexEnergy(k * k, retarded=True), spec)
    if resolve_policy(policy) == "paper":
        d = d.conjugate()
    origin = SpatialPoint.of(0.0, 0.0, 0.0)
    z = x.coords[2]
    return cmath.exp(1j * k * z) + g0_retarded(3, k, x, origin).value / d


def transmission1d(k: float, lam: float) -> tuple[float, float]:
    """Transmission and reflection probabilities of a 1D delta barrier/well.

    T = k^2 / (k^2 + lambda^2/4) and R = 1 - T (unitarity holds exactly, and
    T depends on lambda only through lambda^2).  lambda = 0 transmits fully.
    """
    k = _momentum(k)
    lam = as_number(lam, "lam", "a coupling")
    if not math.isfinite(lam):
        raise DomainError("coupling must be finite", lam=lam)
    kk = k * k
    den = kk + 0.25 * lam * lam
    if kk >= sys.float_info.min and den < math.inf:
        t = kk / den
    else:  # k^2 or the sum left the normal doubles: the same T, divided through by k^2
        q = 0.5 * lam / k
        t = 1.0 / (1.0 + q * q)
    return t, 1.0 - t
