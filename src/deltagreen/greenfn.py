"""Free-particle Green's functions in one to three dimensions.

Conventions: hbar = 2m = 1, so energy carries units 1/length**2.  The free
resolvent G0(E; x, y) solves

    (E + Laplacian_x) G0(E; x, y) = delta(x - y),      G0 -> 0 as |x-y| -> inf,

and depends on the points only through r = |x - y|.  With kappa = sqrt(-E)
on the principal branch (Re kappa > 0 for E off the positive real axis) the
closed forms are

    D=1:  -exp(-kappa r) / (2 kappa)
    D=2:  -K0(kappa r) / (2 pi)
    D=3:  -exp(-kappa r) / (4 pi r)

The positive real axis is the branch cut.  Retarded values are the E + i0+
limits: kappa = -i k with k = sqrt(E) > 0, which turns the decaying
exponentials into outgoing waves exp(i k r).

Coincident points with D >= 2 are a typed error (:class:`CoincidentPointsError`),
never an infinity: that divergence is exactly what the renormalization
machinery in :mod:`deltagreen.renorm` exists to absorb.

:func:`g0_of_kappa` evaluates the closed forms, unchecked, over arrays of
kappa and r, the retarded kappa = -i k included (in 2D, -(i/4) H0^(1)(k r));
:func:`g0_kernel` checks one energy and calls it through the private kernel
row that :mod:`deltagreen.pointgreen` calls at a kappa it has checked, and
:func:`g0` checks two points and calls :func:`g0_kernel`.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import bessel
from .errors import (
    BranchCutError,
    CoincidentPointsError,
    DeltaGreenError,
    DomainError,
    IllegalSpecError,
    UnsupportedDimError,
    quiet,
)

#: Tolerance on Im(E) below which an energy with Re(E) >= 0 counts as sitting
#: on the branch cut.
BRANCH_CUT_TOL = 1e-12

#: Separations below this count as coincident points in D >= 2.
COINCIDENT_TOL = 1e-14

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


def as_number(value, field: str, what: str, kind=numbers.Real):
    """A value type's field as a float (complex for numbers.Complex), an int past the doubles
    as its infinity; :class:`IllegalSpecError` names the field of a bool or another kind."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise IllegalSpecError(f"{what} must be a {'real ' if kind is numbers.Real else ''}number",
                               field=field, type=type(value).__name__)
    convert = float if kind is numbers.Real else complex
    try:
        return convert(value)
    except OverflowError:
        return convert(math.inf if value > 0 else -math.inf)


def require_type(value, cls, field: str, message: str):
    """``value`` itself if it is a ``cls``; else :class:`IllegalSpecError` naming the field and the type given."""
    if not isinstance(value, cls):
        raise IllegalSpecError(message, field=field, type=type(value).__name__)
    return value


def as_scale(value, field: str, what: str, message: str) -> float:
    """A positive scale (a momentum, cutoff or subtraction scale) as a float:
    :func:`as_number`, then :class:`DomainError` ``message`` unless 0 < v < inf."""
    v = as_number(value, field, what)
    if not 0.0 < v < math.inf:
        raise DomainError(message, **{field: v})
    return v


def as_kappa_b(e_b) -> float:
    """kappa_B = sqrt(-E_B): :func:`as_number`, then :class:`DomainError` unless -inf < E_B < 0."""
    if not -math.inf < (e_b := as_number(e_b, "e_b", "a bound-state energy")) < 0.0:
        raise DomainError("bound-state energy must be negative", e_b=e_b)
    return math.sqrt(-e_b)


def check_dim(dim, dims, message: str) -> int:
    """``dim`` as a Python int if it is an integer (a Python or numpy int, not a bool,
    though True == 1) in ``dims``; else :class:`UnsupportedDimError` ``message``.
    Callers keep the returned int, so no numpy integer reaches a value or an error."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise UnsupportedDimError(message, dim=dim)
    if (dim := int(dim)) not in dims:
        raise UnsupportedDimError(message, dim=dim)
    return dim


@dataclass(frozen=True)
class ComplexEnergy:
    """Energy E in units 1/length**2, tracking the branch prescription.

    Parameters
    ----------
    value : complex
        The energy.  Without the retarded flag it must stay off the positive
        real axis (|Im E| > 1e-12 whenever Re E >= 0); the cut, including the
        branch point E = 0, is rejected.
    retarded : bool
        True means "interpret as E + i0+ with E real", the outgoing-wave
        prescription used for scattering.
    """

    value: complex
    retarded: bool = False

    def __post_init__(self):
        v = as_number(self.value, "value", "an energy", numbers.Complex)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise DomainError("energy must be finite", energy=repr(v))
        object.__setattr__(self, "value", v)
        if self.retarded:
            if v.imag != 0.0:
                raise BranchCutError(
                    "retarded energies are real E + i0+ limits; got nonzero Im E",
                    energy=repr(v),
                )
        elif v.real >= 0.0 and abs(v.imag) <= BRANCH_CUT_TOL:
            raise BranchCutError(
                "energy on the positive real axis (branch cut); "
                "set retarded=True for the E + i0+ limit",
                energy=repr(v),
            )

    @property
    def kappa(self) -> float | complex:
        """sqrt(-E) on the principal branch; -i*sqrt(E) in the retarded case.

        A float where kappa is real (E <= 0 on the real axis, of either sign
        of zero Im E), so the kernels and denominators stay on real
        arithmetic there; a complex number otherwise.
        """
        if self.retarded:
            e = self.value.real
            return complex(0.0, -math.sqrt(e)) if e > 0.0 else math.sqrt(-e)
        kap = cmath.sqrt(-self.value)
        return kap.real if kap.imag == 0.0 else kap

    @classmethod
    def of(cls, energy) -> "ComplexEnergy":
        return energy if isinstance(energy, ComplexEnergy) else cls(energy)


@dataclass(frozen=True)
class SpatialPoint:
    """A point of R^D, D in {1, 2, 3, 4} (a number: D = 1); coordinates in units of length."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = self.coords if np.iterable(self.coords) else (self.coords,)
        c = tuple(as_number(v, "coords", "a coordinate") for v in coords)
        if len(c) not in (1, 2, 3, 4):
            raise UnsupportedDimError(
                "points live in 1 to 4 dimensions", got=len(c)
            )
        if not all(math.isfinite(v) for v in c):
            raise DomainError("coordinates must be finite", coords=repr(c))
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def of(cls, *coords: float) -> "SpatialPoint":
        return cls(tuple(coords))


def as_point(p) -> SpatialPoint:
    """A point as itself; a number or a sequence of numbers as a point."""
    return p if isinstance(p, SpatialPoint) else SpatialPoint(p)


def distance(x: SpatialPoint, y: SpatialPoint) -> float:
    """|x - y|; :class:`DomainError` for a length past the doubles."""
    x, y = as_point(x), as_point(y)
    if x.dim != y.dim:
        raise IllegalSpecError("points of different dimension", xdim=x.dim, ydim=y.dim)
    r = math.dist(x.coords, y.coords)  # hypot-exact: inf only past the doubles
    if r == math.inf:
        raise DomainError("distance overflows double precision")
    return r


@dataclass(frozen=True)
class GreenValue:
    """A finite Green's-function value and the dimension it was computed in."""

    value: complex
    dim: int

    def __post_init__(self):
        if not cmath.isfinite(self.value):
            raise DeltaGreenError("non-finite Green's function value", dim=self.dim)


def _check_dim(dim: int) -> int:
    return check_dim(dim, (1, 2, 3), "position-space Green's functions exist here for D in {1,2,3}")


@quiet
def g0_kernel(dim: int, energy, r) -> np.ndarray:
    """Free Green's function G0(E; r) at every separation of the array ``r``.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    energy : ComplexEnergy or number
        Energy off the positive real axis, or retarded (E + i0+).
    r : array_like
        Separations |x - y| >= 0; for dim >= 2 each must reach
        ``COINCIDENT_TOL`` (the error names the first that does not, in
        C order).

    Returns
    -------
    numpy.ndarray
        One value per separation, in the shape of ``r``; real at real kappa.
    """
    dim = _check_dim(dim)
    e = ComplexEnergy.of(energy)
    return _kernel_row(dim, e.kappa, np.asarray(r, dtype=float))


def _kernel_row(dim: int, kappa, r: np.ndarray) -> np.ndarray:
    """:func:`g0_of_kappa` at one checked dimension and kappa, over a float
    array ``r``, behind the rules of :func:`g0_kernel`: the first separation
    under ``COINCIDENT_TOL`` raises in D >= 2, then kappa = 0 in D = 1, 2."""
    if dim != 1 and (close := r[r < COINCIDENT_TOL]).size:
        raise CoincidentPointsError(
            "free Green's function diverges at coincident points for D >= 2",
            dim=dim,
            r=float(close[0]),
        )
    if dim != 3 and kappa == 0.0:  # 1D: 1/(2 kappa); 2D: K0(0) = inf
        raise DomainError(f"the {dim}D free Green's function diverges at E = 0", dim=dim)
    return np.asarray(g0_of_kappa(dim, kappa, r))


def g0_of_kappa(dim: int, kappa, r):
    """The closed forms at E = -kappa**2, elementwise over kappa and r broadcast.

    ``kappa`` is sqrt(-E) with Re kappa > 0 or, for the retarded kernel,
    -i k with k > 0 at every entry; the values take kappa's dtype.  Nothing
    is checked: :func:`g0_kernel` is the checked entry point, under the
    floating-point policy of :mod:`deltagreen.errors`: kappa r past the
    doubles is G0 = 0, or a lost phase k r, a NaN that GreenValue refuses.
    """
    if dim == 2:
        z = kappa * r
        if np.iscomplexobj(z) and not z.real.any():
            # kappa = -i k: K0(-i k r) = (i pi / 2) H0^(1)(k r) keeps the
            # retarded kernel on the self-contained real-argument j0/y0
            return -0.25j * np.asarray(bessel.hankel1_0(-z.imag))
        # dividing by the negated constant negates the quotient exactly
        # and saves a temporary the size of r
        return np.asarray(bessel.k0(z)) / -_TWO_PI
    wave = np.exp(-kappa * r)
    if dim == 1:
        return -wave / (2.0 * kappa)
    return -wave / (_FOUR_PI * r)


def g0(dim: int, energy, x: SpatialPoint, y: SpatialPoint) -> GreenValue:
    """Free Green's function G0(E; x, y).

    Parameters
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    energy : ComplexEnergy or number
        Energy off the positive real axis, or retarded (E + i0+).
    x, y : SpatialPoint
        Evaluation points (or what :func:`as_point` takes); distinct for dim >= 2.

    Returns
    -------
    GreenValue
        The unique solution of (E + Laplacian) G = delta(x - y) decaying at
        infinity; outgoing-wave form for retarded energies.
    """
    e, x, y = ComplexEnergy.of(energy), as_point(x), as_point(y)
    dim = _check_dim(dim)
    if x.dim != dim or y.dim != dim:
        raise IllegalSpecError("point dimension does not match dim", dim=dim, xdim=x.dim, ydim=y.dim)
    return GreenValue(value=complex(g0_kernel(dim, e, distance(x, y))), dim=dim)


def g0_retarded(dim: int, k: float, x: SpatialPoint, y: SpatialPoint) -> GreenValue:
    """Outgoing-wave Green's function at momentum k > 0 (energy E = k**2 + i0+).

    Closed forms: D=1: exp(ikr)/(2ik); D=2: -(i/4) H0^(1)(kr);
    D=3: -exp(ikr)/(4 pi r).
    """
    k = as_scale(k, "k", "a momentum", "retarded evaluation needs k > 0")
    return g0(dim, ComplexEnergy(k * k, retarded=True), x, y)
