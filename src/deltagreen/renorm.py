"""Bubble integrals under a sharp momentum cutoff, and coupling renormalization.

The divergence a contact potential produces is the coincident-point limit of
the free Green's function, i.e. the momentum-space bubble

    B_D(K, Lambda) = int_{|k| < Lambda} d^D k / (2 pi)^D  1 / (k^2 + K^2),

with K = sqrt(-E) > 0, so that G0(E; 0, 0) = -B_D(K, Lambda -> inf).  Closed
forms (all monotone increasing in Lambda, decreasing in K):

    D=1:  arctan(Lambda/K) / (pi K)                  -> 1/(2K), finite
    D=2:  ln((Lambda^2 + K^2)/K^2) / (4 pi)          -> log-divergent
    D=3:  (Lambda - K arctan(Lambda/K)) / (2 pi^2)   -> linearly divergent
    D=4:  (Lambda^2 - K^2 ln((Lambda^2+K^2)/K^2)) / (16 pi^2)

The denominator of the one-center Green's function is 1/lambda + B_D.  In
D=2 and D=3 it stays finite as Lambda -> inf only if the bare coupling runs:

    D=2:  1/lambda_R = 1/lambda + ln(Lambda^2/mu^2) / (4 pi)
    D=3:  1/lambda_R = 1/lambda + Lambda / (2 pi^2)

yielding the renormalized denominators

    D=1:  1/lambda + 1/(2 kappa)
    D=2:  (ln kappa_B - ln kappa) / (2 pi)      (kappa_B^2 = -E_B)
    D=3:  1/lambda_R - kappa/(4 pi) = kappa_B/(4 pi) - kappa/(4 pi)  for lambda_R > 0.

In D=2 the arbitrary scale mu drops out of physics: the scale

    ln kappa_B = ln mu + 2 pi / lambda_R,   E_B = -kappa_B^2 = -mu^2 exp(4 pi / lambda_R),

is invariant under the flow 1/lambda_R' = 1/lambda_R - ln(mu'^2/mu^2)/(4 pi),
so a dimensionless coupling trades itself for one dimensionful scale, and a
2D lambda_R enters only through ln kappa_B, finite where E_B leaves the
doubles.  A 3D lambda_R is kept as 1/lambda_R, finite where no E_B exists
(lambda_R < 0).  In D=4 the K-dependent part of the bubble grows without
bound and cannot be absorbed into any redefinition of lambda;
:func:`friedman_report` tabulates that obstruction.

The renormalized denominators of a whole center list are evaluated as one
array: :func:`coupling_constants` reads each coupling once into the one
constant of its denominator,

    D=1:  1/lambda (bare) or -1/(2 kappa_B) (from E_B)
    D=2:  ln kappa_B (transmuted from lambda_R), or ln m + e i for kappa_B = m 2^e (from E_B)
    D=3:  1/lambda_R (renormalized) or kappa_B/(4 pi) (from E_B),

and :func:`renormalized_denominators` evaluates D_i(-kappa^2) for every
center at an array of kappa in one numpy expression per dimension,
value + 1/(2 kappa), (ln kappa_B - ln kappa)/(2 pi) with kappa split as
m 2^e too, and value - kappa/(4 pi), shape kappa.shape + (N,).  A center
given by E_B has D = 0.0 exactly at kappa = kappa_B.  The checked
one-energy, one-coupling entry :func:`renormalized_denominator` calls the
array form and returns D(E) as a plain complex number.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CouplingBlowupError,
    DivergentBubbleError,
    DomainError,
    IllegalSpecError,
    PoleCrossingError,
    ZeroCouplingError,
    in_double_range,
)
from .greenfn import ComplexEnergy, as_kappa_b, as_number, as_scale, check_dim, require_type

_TWO_PI, _FOUR_PI = 2.0 * math.pi, 4.0 * math.pi
_TWO_PI_SQ = 2.0 * math.pi * math.pi
_TINY, _LN_TINY, _LN_MAX = np.finfo(float).tiny, math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)

#: |1/lambda| below this counts as crossing the pole of the coupling map.
INVERSE_COUPLING_TOL = 1e-14

# CouplingSpec variants
BARE_1D = "bare_1d"
REN_2D = "ren_2d"
REN_3D = "ren_3d"
FROM_BOUND_STATE = "from_bound_state"

#: Each variant's fields, exactly the ones it sets, and the dimensions it is legal in.
_VARIANTS = {
    BARE_1D: (("lam",), (1,)),
    REN_2D: (("lambda_r", "mu"), (2,)),
    REN_3D: (("lambda_r",), (3,)),
    FROM_BOUND_STATE: (("e_b",), (1, 2, 3)),
}


@dataclass(frozen=True)
class CouplingSpec:
    """How a contact interaction is parameterized: one of four shapes, named
    by the factories :func:`bare_1d`, :func:`renormalized_2d`,
    :func:`renormalized_3d` and :func:`from_bound_state`.  The constructor
    checks each: a variant sets exactly its own fields, each a real number
    converted to float, and a value no coupling can take raises a typed
    :mod:`deltagreen.errors` error."""

    variant: str
    lam: float | None = None  # bare coupling (D=1)
    lambda_r: float | None = None  # renormalized coupling (D=2, D=3)
    mu: float | None = None  # subtraction scale (D=2), units 1/length
    e_b: float | None = None  # bound-state energy, units 1/length**2

    def __post_init__(self):
        given = tuple(f for f in ("lam", "lambda_r", "mu", "e_b") if getattr(self, f) is not None)
        known = isinstance(self.variant, str) and self.variant in _VARIANTS
        if not known or given != _VARIANTS[self.variant][0]:
            raise IllegalSpecError("a coupling variant sets exactly its own fields",
                                   variant=self.variant, fields=list(given))
        for f in given:
            object.__setattr__(self, f, as_number(getattr(self, f), f, "a coupling field"))
        lam, lambda_r, mu, e_b = self.lam, self.lambda_r, self.mu, self.e_b
        if self.variant == BARE_1D:
            if not math.isfinite(lam):
                raise DomainError("bare coupling must be finite", lam=lam)
            if lam == 0.0 or math.isinf(1.0 / lam):
                raise ZeroCouplingError("lambda = 0 is no interaction at all, nor is 1/lambda = inf", lam=lam)
        elif self.variant == REN_2D:
            if not math.isfinite(lambda_r) or lambda_r == 0.0 or math.isinf(2.0 * math.pi / lambda_r):
                raise ZeroCouplingError("lambda_R and 2 pi/lambda_R must be finite and nonzero", lambda_r=lambda_r)
            as_scale(mu, "mu", "a coupling field", "subtraction scale mu must be positive")
        elif self.variant == REN_3D:
            if not math.isfinite(lambda_r) or lambda_r == 0.0 or math.isinf(1.0 / lambda_r):
                raise ZeroCouplingError("lambda_R and 1/lambda_R must be finite and nonzero", lambda_r=lambda_r)
        else:  # FROM_BOUND_STATE
            as_kappa_b(e_b)

    def require_dim(self, dim: int) -> None:
        dim = check_dim(dim, (1, 2, 3), "couplings are defined for D in {1,2,3}")
        if dim not in _VARIANTS[self.variant][1]:
            raise IllegalSpecError("coupling variant illegal for this dimension", variant=self.variant, dim=dim)

    def bound_state_energy(self, dim: int) -> float | None:
        """E_B < 0 if this coupling binds in dimension ``dim``, None if it
        does not: -0.0 where E_B underflows, :class:`DomainError` where it overflows."""
        self.require_dim(dim)
        if self.variant == REN_2D:
            return transmutation_energy(self)
        if self.variant == FROM_BOUND_STATE:
            return self.e_b
        if self.variant == BARE_1D:
            e_b = -0.25 * self.lam * self.lam if self.lam < 0.0 else None
        else:  # REN_3D: kappa_B = 4 pi/lambda_R
            e_b = -(kb := _FOUR_PI / self.lambda_r) * kb if self.lambda_r > 0.0 else None
        if e_b == -math.inf:
            raise DomainError("bound-state energy overflows double precision", e_b=e_b)
        return e_b


def bare_1d(lam: float) -> CouplingSpec:
    """Bare one-dimensional coupling lambda (attractive if negative)."""
    return CouplingSpec(variant=BARE_1D, lam=lam)


def renormalized_2d(lambda_r: float, mu: float) -> CouplingSpec:
    """Renormalized 2D coupling lambda_R at subtraction scale mu > 0."""
    return CouplingSpec(variant=REN_2D, lambda_r=lambda_r, mu=mu)


def renormalized_3d(lambda_r: float) -> CouplingSpec:
    """Renormalized 3D coupling; binds only for lambda_R > 0."""
    return CouplingSpec(variant=REN_3D, lambda_r=lambda_r)


def from_bound_state(e_b: float) -> CouplingSpec:
    """Parameterize the interaction directly by its bound-state energy E_B < 0."""
    return CouplingSpec(variant=FROM_BOUND_STATE, e_b=e_b)


def _cutoff(value) -> float:
    """A sharp momentum cutoff Lambda > 0, units 1/length, as a float."""
    return as_scale(value, "lambda_cap", "a cutoff", "cutoff must be positive and finite")


def _spec(spec) -> CouplingSpec:
    return require_type(spec, CouplingSpec, "spec", "a coupling must be a CouplingSpec")


def bubble_regularized(dim: int, K: float, cutoff: float | None) -> float:
    """Momentum bubble int_{|k|<Lambda} d^Dk/(2pi)^D (k^2+K^2)^(-1), exactly.

    ``cutoff`` is Lambda; None removes the cutoff, a limit finite only in
    D=1 (value 1/(2K)), otherwise :class:`DivergentBubbleError` is raised.
    In every D a bubble beyond double precision raises :class:`DomainError`.
    """
    lam_cap = None if cutoff is None else _cutoff(cutoff)
    K = as_scale(K, "K", "a momentum", "bubble needs K > 0")
    dim = check_dim(dim, (1, 2, 3, 4), "bubble defined for D in {1,2,3,4}")
    if lam_cap is None and dim != 1:
        raise DivergentBubbleError("bubble diverges as the cutoff is removed for D >= 2", dim=dim)
    bubble = {
        1: lambda: 0.5 / K if lam_cap is None else math.atan(lam_cap / K) / (math.pi * K),
        2: lambda: math.log1p((lam_cap / K) ** 2) / _FOUR_PI,
        3: lambda: (lam_cap - K * math.atan(lam_cap / K)) / _TWO_PI_SQ,
        4: lambda: (lam_cap**2 - K**2 * math.log1p((lam_cap / K) ** 2)) / (16.0 * math.pi**2),
    }[dim]
    return in_double_range(bubble, "bubble overflows double precision", dim=dim, K=K, lambda_cap=lam_cap)


def bare_from_renormalized(dim: int, spec: CouplingSpec, cutoff: float) -> float:
    """Bare coupling lambda(Lambda) reproducing ``spec`` at cutoff Lambda = ``cutoff``.

    Runs to 0- as the cutoff grows; raises :class:`PoleCrossingError` at
    cutoffs where 1/lambda crosses zero (|1/lambda| <= 1e-14) and the bare
    coupling is undefined, and :class:`DomainError` in D=2 where the cutoff
    log leaves double precision.
    """
    lam_cap = _cutoff(cutoff)
    dim = check_dim(dim, (2, 3), "bare coupling runs only in D=2 and D=3")
    _spec(spec).require_dim(dim)
    if dim == 2:
        if spec.variant == REN_2D:
            inverse = lambda: 1.0 / spec.lambda_r - math.log((lam_cap / spec.mu) ** 2) / _FOUR_PI
        else:  # FROM_BOUND_STATE; mu drops out entirely
            inverse = lambda: -math.log(lam_cap**2 / -spec.e_b) / _FOUR_PI
        inv = in_double_range(inverse, "cutoff log leaves double precision", dim=dim, lambda_cap=lam_cap)
    else:
        inv = float(coupling_constants(3, (spec,))[0]) - lam_cap / _TWO_PI_SQ
    if abs(inv) <= INVERSE_COUPLING_TOL:
        raise PoleCrossingError(
            "bare coupling undefined at this cutoff (1/lambda crosses 0)",
            dim=dim,
            lambda_cap=lam_cap,
        )
    return 1.0 / inv


def _log_split(x):
    """(ln m, e) for x = m 2^e exactly, |m| in [1/sqrt 2, sqrt 2): scaling x by 2^k moves e alone."""
    e = np.frexp(np.abs(x) * math.sqrt(2.0))[1]
    return np.log(x / np.ldexp(0.5, e)), e - 1.0


#: Each variant legal in D = 1, 2, 3 mapped to its constant for
#: :func:`coupling_constants`, as a float: sqrt and division round alike in
#: math and numpy.  In D = 2 the one from E_B is kappa_B, split by numpy's
#: log as the denominator's kappa is.
_CONSTANT = {
    1: {BARE_1D: lambda s: 1.0 / s.lam, FROM_BOUND_STATE: lambda s: -0.5 / math.sqrt(-s.e_b)},
    2: {REN_2D: lambda s: math.log(s.mu) + _TWO_PI / s.lambda_r, FROM_BOUND_STATE: lambda s: math.sqrt(-s.e_b)},
    3: {REN_3D: lambda s: 1.0 / s.lambda_r, FROM_BOUND_STATE: lambda s: math.sqrt(-s.e_b) / _FOUR_PI},
}


def coupling_constants(dim: int, specs) -> np.ndarray:
    """Read each coupling of a center list once for :func:`renormalized_denominators`.

    Element i is the one constant of center i's denominator: 1/lambda, or
    -1/(2 kappa_B) from E_B, in D=1; ln kappa_B = ln mu + 2 pi/lambda_R, or
    from E_B ln m + e i for kappa_B = m 2^e exactly (ln m + e ln 2), in D=2,
    so D keeps its bits when kappa and kappa_B scale by 2^k; 1/lambda_R, or
    kappa_B/(4 pi) from E_B, in D=3.  Each is finite: the factories refuse
    a coupling whose 1/lambda, 2 pi/lambda_R or 1/lambda_R overflows.

    Raises, as the denominator does, :class:`UnsupportedDimError` outside D
    in {1,2,3} and :class:`IllegalSpecError` for a coupling illegal in ``dim``.
    """
    dim = check_dim(dim, (1, 2, 3), "denominator defined for D in {1,2,3}")
    constant = _CONSTANT[dim]
    value, at_e_b = [], []
    for i, spec in enumerate(specs):
        if spec.variant not in constant:  # illegal here: the first such center is named
            spec.require_dim(dim)
        value.append(constant[spec.variant](spec))
        if spec.variant == FROM_BOUND_STATE:
            at_e_b.append(i)
    if dim != 2:
        return np.array(value, dtype=float)
    value, at_e_b = np.array(value, dtype=complex), np.array(at_e_b, dtype=np.intp)
    # every kappa_B -> ln m + e i in one split, as the denominator splits
    # kappa (D = 0.0 at kappa_B); each part is written alone, so no zero changes sign
    value.real[at_e_b], value.imag[at_e_b] = _log_split(value.real[at_e_b])
    return value


def renormalized_denominators(dim: int, kappa, value: np.ndarray) -> np.ndarray:
    """D_i(-kappa^2) at every kappa, for every constant of :func:`coupling_constants`.

    ``kappa`` is sqrt(-E) (Re kappa >= 0, or -i k for a retarded E = k^2),
    a number or an array.  The result has shape ``kappa.shape + (N,)``; it
    is real for a real-dtype kappa and complex for a complex-dtype one, even
    where every imaginary part is zero.  Apart from kappa = 0 in
    D = 1, 2 (:class:`DomainError`, D diverges there), the energies are not
    checked here: :func:`renormalized_denominator` is the checked entry.
    """
    kap = np.asarray(kappa)[..., None]
    if dim != 3 and not kap.all():
        raise DomainError("the renormalized denominator diverges at E = 0", dim=dim)
    if dim == 1:
        return value + 0.5 / kap
    if dim == 2:
        ln_m, e = _log_split(kap)  # each term divided alone: the complex division of inf is NaN
        return (value.real + (value.imag - e) * math.log(2.0)) / (2.0 * math.pi) - ln_m / (2.0 * math.pi)
    return value - kap / _FOUR_PI


def renormalized_denominator(dim: int, energy, spec: CouplingSpec) -> complex:
    """Finite denominator D(E) = 1/lambda - G0(E; 0, 0) after renormalization,
    as a complex number (real-valued on the negative real axis).

    Its unique zero on the negative real axis, when one exists, is the
    bound-state energy.  A 2D lambda_R enters through ln kappa_B alone; a 3D
    lambda_R through 1/lambda_R, D = 1/lambda_R - kappa/(4 pi).
    """
    e, spec = ComplexEnergy.of(energy), _spec(spec)
    dim = check_dim(dim, (1, 2, 3), "denominator defined for D in {1,2,3}")
    return complex(renormalized_denominators(dim, e.kappa, coupling_constants(dim, (spec,)))[0])


def transmutation_energy(spec: CouplingSpec) -> float:
    """E_B = -mu^2 exp(4 pi / lambda_R): the dimensionful scale a
    dimensionless 2D coupling transmutes into.  Negative for every
    lambda_R != 0: -0.0 if it underflows, :class:`DomainError` if it overflows."""
    if _spec(spec).variant != REN_2D:
        raise IllegalSpecError(
            "transmutation energy is defined for renormalized 2D couplings",
            variant=spec.variant,
        )
    mu2, scale = spec.mu * spec.mu, _FOUR_PI / spec.lambda_r
    if _TINY <= mu2 and _LN_TINY <= scale < _LN_MAX and _TINY <= -(e_b := -mu2 * math.exp(scale)) < math.inf:
        return e_b
    # a factor or their product is no normal double: E_B = -kappa_B^2 need not
    # be one; 2 ln kappa_B may double to inf (a Python float does so without a
    # warning) and exp may overflow: the rule refuses both
    twice_ln_kb = 2.0 * float(coupling_constants(2, (spec,))[0].real)
    return in_double_range(lambda: -math.exp(twice_ln_kb), "transmutation energy overflows double precision",
                           lambda_r=spec.lambda_r, mu=spec.mu)


def rg_shift(lambda_r: float, mu: float, mu_prime: float) -> float:
    """Move the 2D coupling to a new subtraction scale, keeping physics fixed.

    1/lambda_R' = 1/lambda_R - ln(mu'^2/mu^2)/(4 pi); transmutation_energy is
    invariant under the shift.  Raises :class:`CouplingBlowupError` where
    1/lambda_R' crosses zero, and :class:`DomainError` where the log of the
    scale ratio leaves double precision.
    """
    lambda_r = as_number(lambda_r, "lambda_r", "a coupling")
    if lambda_r == 0.0:
        raise ZeroCouplingError("cannot shift lambda_R = 0")
    mu = as_scale(mu, "mu", "a scale", "scales must be positive")
    mu_prime = as_scale(mu_prime, "mu_prime", "a scale", "scales must be positive")
    inv = in_double_range(lambda: 1.0 / lambda_r - math.log((mu_prime / mu) ** 2) / _FOUR_PI,
                          "scale ratio leaves double precision", mu=mu, mu_prime=mu_prime)
    if abs(inv) <= INVERSE_COUPLING_TOL:
        raise CouplingBlowupError(
            "1/lambda_R' vanishes at this scale shift", mu=mu, mu_prime=mu_prime
        )
    return 1.0 / inv


class FriedmanRow(NamedTuple):
    lambda_cap: float
    total_bubble: float
    quadratic_part: float
    nonremovable_part: float


def friedman_report(K: float, cutoffs) -> list[FriedmanRow]:
    """Tabulate the D=4 bubble split into a removable Lambda^2 piece and the
    K-dependent logarithm that no coupling redefinition can absorb.

    total = quadratic_part - nonremovable_part with
    quadratic_part = Lambda^2/(16 pi^2) and
    nonremovable_part = (K^2/16 pi^2) ln((Lambda^2+K^2)/K^2), which grows
    without bound along any increasing cutoff sequence: the no-go for contact
    interactions above three dimensions.  A row beyond double precision
    raises :class:`DomainError`.
    """
    K = as_scale(K, "K", "a momentum", "friedman_report needs K > 0")
    caps = [_cutoff(c) for c in require_type(cutoffs, Iterable, "cutoffs", "cutoffs must be a list of numbers")]
    if not caps:
        raise DomainError("cutoff list must be nonempty")
    if any(b <= a for a, b in zip(caps, caps[1:])):
        raise DomainError("cutoff list must be strictly increasing")
    sixteen_pi2 = 16.0 * math.pi**2
    rows = []
    for lam_cap in caps:
        quad, nonrem = in_double_range(
            lambda: (lam_cap**2 / sixteen_pi2, (K**2 / sixteen_pi2) * math.log1p((lam_cap / K) ** 2)),
            "bubble overflows double precision", K=K, lambda_cap=lam_cap)
        rows.append(
            FriedmanRow(
                lambda_cap=lam_cap,
                total_bubble=bubble_regularized(4, K, lam_cap),
                quadratic_part=quad,
                nonremovable_part=nonrem,
            )
        )
    return rows
