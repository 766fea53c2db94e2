"""Typed error hierarchy shared by every module.

Two families matter to callers:

* :class:`SpecValidationError` -- the request itself is malformed (bad
  dimension, coupling illegal for the dimension, unparseable input).  The CLI
  maps these to exit code 2.
* every other :class:`DeltaGreenError` -- the computation cannot produce a
  finite answer for valid-looking input (coincident points, a pole hit, a
  divergent cutoff limit, non-convergence).  The CLI maps these to exit
  code 3.

Each exception carries a short machine-readable ``code`` plus a ``details``
dict so the CLI can emit structured payloads instead of bare text.

Floating-point policy, in two halves.  :data:`quiet`, numpy's
``errstate(all="ignore")`` applied as a decorator: no numpy warning leaves
a public numerical call (``bessel``'s ``k0`` and ``hankel1_0``,
``greenfn.g0_kernel``, ``pointgreen``'s ``m_matrix``, ``green``,
``bound_states`` and ``residue_wavefunction``), and no result depends on the
caller's numpy error state; values are checked explicitly instead (a
non-finite M(E) in the scan, ``GreenValue``, the residue Gram matrix's sign).
:func:`in_double_range`: no result past the doubles leaves a closed form of
``renorm`` or ``scatter``, or an oracle's well depth, silently.
"""

from __future__ import annotations

import numpy as np


class DeltaGreenError(Exception):
    """Base class: a computation failed for a well-defined physical reason."""

    code = "ComputationError"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = {k: v for k, v in sorted(details.items())}

    def payload(self) -> dict:
        return {"error": self.code, "message": self.message, "details": self.details}


class SpecValidationError(DeltaGreenError):
    """The inputs themselves are invalid (not a computational failure)."""

    code = "InvalidInput"


class UnsupportedDimError(SpecValidationError):
    code = "UnsupportedDim"


class IllegalSpecError(SpecValidationError):
    """Coupling specification and dimension do not match, or centers collide."""

    code = "IllegalSpec"


class CoincidentPointsError(DeltaGreenError):
    """Coincident-point Green's function in two or more dimensions diverges."""

    code = "CoincidentPoints"


class BranchCutError(DeltaGreenError):
    """Energy sits on the positive real axis without the retarded flag."""

    code = "BranchCut"


class DomainError(DeltaGreenError):
    """Scalar argument outside the mathematical domain of the operation."""

    code = "DomainError"


class DivergentBubbleError(DeltaGreenError):
    """Removing the cutoff is requested where the momentum integral diverges."""

    code = "DivergentBubble"


class PoleCrossingError(DeltaGreenError):
    """Bare coupling is undefined at this cutoff (1/lambda crossed zero)."""

    code = "PoleCrossing"


class ZeroCouplingError(SpecValidationError):
    """A zero coupling is no interaction: invalid input, not a failure."""

    code = "ZeroCoupling"


class CouplingBlowupError(DeltaGreenError):
    """A scale shift drove 1/lambda_R through zero."""

    code = "CouplingBlowup"


class AtPoleError(DeltaGreenError):
    """Green's function evaluated at (or numerically too close to) a pole."""

    code = "AtPole"


class NonConvergenceError(DeltaGreenError):
    code = "NonConvergence"


class TailBoundExceededError(DeltaGreenError):
    """Quadrature truncation/convergence estimate exceeds the requested tolerance."""

    code = "TailBoundExceeded"


class InsufficientBoxError(DeltaGreenError):
    """Lattice eigenfunction still has weight at the box boundary."""

    code = "InsufficientBox"


class DispersionError(DeltaGreenError):
    """Lattice dispersion error too large at this k*h."""

    code = "DispersionError"


#: The policy above as a decorator.  Since NumPy 2.0 (the floor in
#: pyproject.toml) errstate's decorator sets and resets its error-state
#: context variable on every call, so nested and concurrent calls behave as a
#: ``with`` block does, and the wrapper keeps ``__wrapped__``.  NumPy 1.x
#: reused one saved state per instance, which nested calls overwrite.
quiet = np.errstate(all="ignore")


def in_double_range(compute, message: str, **details):
    """``compute()``, a number or a tuple of numbers, or :class:`DomainError`
    where it leaves double precision: an overflow raised (a power) or returned
    (a quotient's inf, or a NaN from it), or the log of a square that
    underflowed to 0."""
    try:
        value = compute()
    except (OverflowError, ValueError) as exc:
        raise DomainError(message, **details) from exc
    if not np.isfinite(value).all():
        raise DomainError(message, **details)
    return value
